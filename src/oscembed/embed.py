"""Empirical verification of the oscillation and embedding inequalities.

The central object is the oscillation functional

    ( int_0^1 [ gap(|f|^a, t)^(1/a) * phi(t) / t^(s/Q) ]^q dt/t )^(1/q),

where gap is the running-average-minus-value oscillation of the rearranged
|f|^a, phi the fundamental function of the a-convexified norm family, and Q
the space's upper dimension.  On step functions the gap equals D/t per panel,
so the functional, like the weighted rearranged targets, is one call of the
power-log panel kernel (weights.PowerLog.panel_sum, or panel_max for
q = inf) over the panels of the rearranged step function.

The embedding checks compare this functional (and derived rearranged-norm
targets) against the Hajlasz-Besov norm: smoothness seminorm plus split-norm
size of f.  One routine maps a check's per-function (lhs, rhs) over the
corpus and reports the ratios and the empirical constant (max ratio).  The
constants are reported, never asserted against theory: the point of the
suite is to observe their stability on non-collapsed spaces and their
blow-up when the unit-ball mass infimum degenerates.

Weight machinery for the rearranged-norm targets:

  * reciprocal_weight_integral: the finiteness gauge m(t) built from the
    reciprocal weight t^(s/Q)/phi(t); its value at 0 decides between the
    sup-norm target (finite) and weighted-rearrangement targets (infinite);
  * the target weight w of the a < q < infinity case, with w(t)^q/t equal to
    the derivative of (1 + m(t))^(1-q/a): target_norm_check integrates
    against it through that exact primitive, so w itself is never evaluated;
  * regime_classify: the total case table for log-Lorentz parameters
    (p, r, beta, s, q, Q), emitting the target weight per case.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, PreconditionError
from .rearrange import StepDecreasing, rearrangement, sum_plus_linf_norm
from .rispace import (RISpaceSpec, convexify, fundamental_powerlog, lorentz_zygmund)
from .smoothness import (DEFAULT_GRID_RATIO, GradientField, besov_seminorm,
                         hajlasz_seminorm_l1)
from .space import Space, _sorted_rows, diagnostics, noncollapsing_constant
from .weights import PowerLog

_POOL_WORKERS = 4


# -- the oscillation functional ---------------------------------------------------------


def _oscillation_weight(spec: RISpaceSpec, alpha: float, s: float, q_dim: float) -> PowerLog:
    return fundamental_powerlog(convexify(spec, alpha)) * PowerLog(-s / q_dim)


def oscillation_functional(space: Space, f, spec: RISpaceSpec, alpha: float,
                           s: float, q: float, q_dim: float | None = None) -> float:
    """Weighted dt/t norm of the oscillation gap over (0, min(1, mass)).

    Exact per-panel evaluation: on each breakpoint-free panel the gap is
    D/t, so the integrand is a power-log function of t.
    """
    if not (0.0 < s < 1.0 and q > 0.0 and 0.0 < alpha <= 1.0):
        raise DomainError("need 0 < s < 1, q > 0, 0 < alpha <= 1")
    if q_dim is None:
        q_dim = diagnostics(space).q_dim
    fstar = rearrangement(space, f)
    w_pl = _oscillation_weight(spec, alpha, s, q_dim)
    lo, hi, _v, gap = np.array(fstar.power(alpha).panels(min(1.0, fstar.mass))).T
    gap = np.maximum(gap, 0.0)  # a rounded-negative gap is a skipped panel, as a zero one
    if math.isinf(q):
        return (PowerLog(-1.0 / alpha) * w_pl).panel_max(lo, hi, gap ** (1.0 / alpha))
    pl = (w_pl**q) * PowerLog(-q / alpha)
    return pl.panel_sum(lo, hi, gap ** (q / alpha)) ** (1.0 / q)


# -- embedding reports ---------------------------------------------------------------------


@dataclass(frozen=True)
class EmbeddingReport:
    theorem_id: str
    per_function: list
    empirical_constant: float
    params: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "theorem_id": self.theorem_id,
            "empirical_constant": self.empirical_constant,
            "params": self.params,
            "per_function": [
                {"label": lab, "lhs": lhs, "rhs": rhs, "ratio": ratio}
                for lab, lhs, rhs, ratio in self.per_function
            ],
        }

    def csv_rows(self):
        for lab, lhs, rhs, ratio in self.per_function:
            yield {"label": lab, "lhs": repr(lhs), "rhs": repr(rhs), "ratio": repr(ratio)}


def _finish_report(theorem_id: str, corpus, labels, one, params) -> EmbeddingReport:
    """Report of the rows one(f) = (lhs, rhs) over the corpus; labels default to f0, f1, ..."""
    corpus = list(corpus)
    labels = [f"f{k}" for k in range(len(corpus))] if labels is None else list(labels)
    if len(labels) != len(corpus):
        raise DomainError(f"{len(labels)} labels for a corpus of {len(corpus)} functions")
    pairs = _pool_map(one, corpus)
    rows, worst = [], 0.0
    for lab, (lhs, rhs) in zip(labels, pairs):
        if rhs <= 0.0:
            if lhs > 0.0:
                raise DomainError(f"inconsistent report row {lab!r}: lhs {lhs:g} with rhs 0")
            ratio = 0.0
        else:
            ratio = lhs / rhs
        worst = max(worst, ratio)
        rows.append((lab, float(lhs), float(rhs), float(ratio)))
    return EmbeddingReport(theorem_id, rows, float(worst), params)


def _pool_map(fn, items):
    with ThreadPoolExecutor(max_workers=_POOL_WORKERS) as pool:
        return list(pool.map(fn, items))


def _hb_norm(space: Space, f, fstar: StepDecreasing, spec, alpha, s, q, ratio) -> float:
    """Hajlasz-Besov norm of f: smoothness seminorm plus the L^a + L^inf size of fstar = f*."""
    return besov_seminorm(space, f, s, q, spec, alpha, ratio) + sum_plus_linf_norm(fstar, alpha)


def embedding_report(space: Space, corpus, spec: RISpaceSpec, alpha: float, s: float,
                     q: float, q_dim: float | None = None, labels=None,
                     ratio: float = DEFAULT_GRID_RATIO,
                     theorem_id: str = "k1") -> EmbeddingReport:
    """Oscillation functional vs smoothness seminorm + split norm, per function."""
    if q_dim is None:
        q_dim = diagnostics(space).q_dim

    def one(f):
        return (oscillation_functional(space, f, spec, alpha, s, q, q_dim),
                _hb_norm(space, f, rearrangement(space, f), spec, alpha, s, q, ratio))

    params = {"spec": spec.label(), "alpha": alpha, "s": s, "q": _json_num(q), "Q": q_dim}
    return _finish_report(theorem_id, corpus, labels, one, params)


def _json_num(x):
    return "inf" if (isinstance(x, float) and math.isinf(x)) else x


# -- pointwise oscillation-vs-gradient bound ---------------------------------------------


def measure_growth_constant(space: Space, q_dim: float) -> float:
    """min over x and radii r in (0, 1] of mu(B(x, r)) / r^Q.

    The mass is fixed on each (e_k, e_{k+1}], e_k the sorted distances from x,
    while r^Q grows: the row's distances <= 1 and r = 1 attain the minimum.
    """
    sd, prefix = _sorted_rows(space)
    best = math.inf
    for row, pre in zip(sd, prefix):
        radii = np.append(row[(row > 0.0) & (row <= 1.0)], 1.0)
        best = min(best, float((pre[np.searchsorted(row, radii)] / radii**q_dim).min()))
    return best


def oscillation_gradient_constant(space: Space, f, alpha: float,
                                  q_dim: float | None = None,
                                  gradient: GradientField | None = None,
                                  n_grid: int = 200) -> float:
    """Empirical constant c in gap(|f|^a, t) <= c t^(a/Q) avg(g^a, t) on a t-grid.

    g defaults to the L1-optimal gradient field; a failed or uncertified L1
    solve raises its SolverError, which names the dump of the instance.
    Returns 0 for constant f (the bound is vacuous).  The sup is
    over a log grid in (0, mass/2); doubling n_grid refines the grid.
    """
    f = np.asarray(f, dtype=float)
    if q_dim is None:
        q_dim = diagnostics(space).q_dim
    if float(np.ptp(f)) == 0.0:
        return 0.0
    if gradient is None:
        _, gradient = hajlasz_seminorm_l1(space, f)
    fpow = rearrangement(space, f).power(alpha)
    gpow = rearrangement(space, gradient.g).power(alpha)
    mass = fpow.mass
    ts = np.geomspace(mass * 1e-6, mass / 2.0, n_grid)
    gap = fpow.integral(ts) / ts - fpow.eval(ts)
    denom = ts ** (alpha / q_dim) * (gpow.integral(ts) / ts)
    live = denom > 0.0
    return float((gap[live] / denom[live]).max(initial=0.0))


# -- weight machinery for rearranged-norm targets ----------------------------------------


def _reciprocal_weight(spec: RISpaceSpec, alpha: float, s: float, q_dim: float) -> PowerLog:
    """t^(s/Q) / phi_{spec^(alpha)}(t): reciprocal of the oscillation weight."""
    return PowerLog(s / q_dim) * fundamental_powerlog(convexify(spec, alpha)).reciprocal()


def reciprocal_weight_finite(spec: RISpaceSpec, alpha: float, s: float, q: float,
                             q_dim: float) -> bool:
    """Symbolic finiteness decision for the gauge at t = 0."""
    if not 0.0 < alpha <= 1.0:
        raise DomainError("alpha must lie in (0, 1]")
    v = _reciprocal_weight(spec, alpha, s, q_dim)
    if q <= alpha:
        return v.bounded_at_zero()
    kappa = alpha if math.isinf(q) else alpha * q / (q - alpha)
    return (v**kappa).integrable_at_zero_dt_over_t()


def reciprocal_weight_integral(spec: RISpaceSpec, alpha: float, s: float, q: float,
                               q_dim: float, t: float) -> float:
    """The finiteness gauge m(t) for the sup-norm embedding.

    For a < q < inf it is int_t^1 (z^(s/Q)/phi(z))^(aq/(q-a)) dz/z; for
    q = inf the same with exponent a; for q <= a the sup of the reciprocal
    weight over [t, 1).  Finiteness at t = 0 is decided symbolically (the
    value is then computed by quadrature); infinite gauges return math.inf.
    """
    if not (0.0 <= t < 1.0):
        raise DomainError(f"gauge parameter t must lie in [0, 1), got {t}")
    if not 0.0 < alpha <= 1.0:
        raise DomainError("alpha must lie in (0, 1]")
    v = _reciprocal_weight(spec, alpha, s, q_dim)
    if q <= alpha:
        return v.sup_on(t, 1.0)
    kappa = alpha if math.isinf(q) else alpha * q / (q - alpha)
    integrand = v**kappa
    if t == 0.0 and not integrand.integrable_at_zero_dt_over_t():
        return math.inf
    return integrand.integral_dt_over_t(t, 1.0)


# -- weighted rearranged-norm evaluation ---------------------------------------------------


def weighted_step_norm(fstar: StepDecreasing, w: PowerLog, q: float) -> float:
    """(int_0^1 (f*(t) w(t))^q dt/t)^(1/q), exact panels; sup form for q = inf."""
    lo, hi = fstar.edges[:-1], np.minimum(fstar.edges[1:], 1.0)
    if math.isinf(q):
        return w.panel_max(lo, hi, fstar.values)
    return (w**q).panel_sum(lo, hi, fstar.values**q) ** (1.0 / q)


def _stieltjes_target_norm(fstar: StepDecreasing, spec, alpha, s, q, q_dim) -> float:
    """Exact int_0^1 (f* w)^q dt/t with the case-1 weight, via the primitive.

    The weight's defining derivative makes (1 + m(t))^(1 - q/a) an exact
    primitive, so the integral is a finite Stieltjes sum over step panels.
    """
    def primitive(t: float) -> float:
        if t <= 0.0:
            return 0.0  # m(0) = inf and the exponent is negative
        m_t = 0.0 if t >= 1.0 else reciprocal_weight_integral(spec, alpha, s, q, q_dim, t)
        return (1.0 + m_t) ** (1.0 - q / alpha)

    psi = np.array([primitive(float(t)) for t in np.minimum(fstar.edges, 1.0)])
    return float(np.sum(fstar.values**q * np.diff(psi))) ** (1.0 / q)


# -- sup-norm and target-norm checks ---------------------------------------------------------


def sup_norm_embedding_check(space: Space, corpus, spec: RISpaceSpec, alpha: float,
                             s: float, q: float, q_dim: float | None = None,
                             labels=None, ratio: float = DEFAULT_GRID_RATIO) -> EmbeddingReport:
    """max|f| vs oscillation functional + split norm; valid only when m(0) < inf."""
    if q_dim is None:
        q_dim = diagnostics(space).q_dim
    if not reciprocal_weight_finite(spec, alpha, s, q, q_dim):
        raise PreconditionError(
            f"sup-norm embedding refused: m(0) is infinite for {spec.label()} "
            f"(alpha={alpha:g}, s={s:g}, q={q}, Q={q_dim:g})")
    m0 = reciprocal_weight_integral(spec, alpha, s, q, q_dim, 0.0)

    def one(f):
        lhs = float(np.abs(np.asarray(f, dtype=float)).max())
        rhs = (oscillation_functional(space, f, spec, alpha, s, q, q_dim)
               + sum_plus_linf_norm(rearrangement(space, f), alpha))
        return lhs, rhs

    params = {"spec": spec.label(), "alpha": alpha, "s": s, "q": _json_num(q),
              "Q": q_dim, "m0": m0}
    return _finish_report("infinito", corpus, labels, one, params)


def _u_condition_check(u: PowerLog, v_norm: PowerLog, q: float) -> None:
    """Verify int_0^t u^q dz/z stays within a constant of v_norm(t)^q near 0."""
    uq = u**q
    if not uq.integrable_at_zero_dt_over_t():
        raise PreconditionError("u-weight fails its integral condition at t -> 0 "
                                "(primitive diverges); violating t: any t near 0")
    ts = np.geomspace(1e-10, 1.0, 64)
    ratios = np.array([uq.integral_dt_over_t(0.0, float(t)) / float(v_norm(t)) ** q
                       for t in ts])
    cap = 50.0 * float(ratios[ts >= 1e-2].max())
    bad = np.flatnonzero(ratios > cap)
    if bad.size:
        t_bad = float(ts[bad[0]])
        raise PreconditionError(f"u-weight fails its integral condition at t = {t_bad:g} "
                                f"(ratio {ratios[bad[0]]:g} exceeds cap {cap:g})")


def target_norm_check(space: Space, corpus, spec: RISpaceSpec, alpha: float, s: float,
                      q: float, q_dim: float | None = None, u_weight: PowerLog | None = None,
                      labels=None, ratio: float = DEFAULT_GRID_RATIO) -> EmbeddingReport:
    """Weighted rearranged-norm target vs smoothness seminorm + split norm.

    Dispatches on q: the derivative weight for alpha < q < inf, the
    (1 + m)^(-1/a) sup form for q = inf, and a u-weight (supplied or the
    norm weight itself, verified) for q <= alpha.  Requires m(0) = inf.
    """
    if q_dim is None:
        q_dim = diagnostics(space).q_dim
    if reciprocal_weight_finite(spec, alpha, s, q, q_dim):
        raise PreconditionError(
            "target-norm check refused: m(0) is finite; "
            "use the sup-norm embedding check instead")
    mode = "derivative" if (alpha < q and not math.isinf(q)) else (
        "sup" if math.isinf(q) else "u-weight")
    u = u_weight
    if mode == "u-weight":
        v_norm = _reciprocal_weight(spec, alpha, s, q_dim).reciprocal()
        if u is None:
            u = v_norm
        _u_condition_check(u, v_norm, q)

    def one(f):
        fstar = rearrangement(space, f)
        if mode == "derivative":
            lhs = _stieltjes_target_norm(fstar, spec, alpha, s, q, q_dim)
        elif mode == "sup":
            ts = np.unique(np.concatenate([
                np.geomspace(1e-10, 1.0, 200),
                fstar.breakpoints[fstar.breakpoints <= 1.0]]))
            avgs = fstar.power(alpha).integral(ts) / ts
            best = 0.0
            for t, avg in zip(ts.tolist(), avgs.tolist()):
                m_t = reciprocal_weight_integral(spec, alpha, s, q, q_dim, t) if t < 1.0 else 0.0
                best = max(best, (avg / (1.0 + m_t)) ** (1.0 / alpha))
            lhs = best
        else:
            lhs = weighted_step_norm(fstar, u, q)
        return lhs, _hb_norm(space, f, fstar, spec, alpha, s, q, ratio)

    params = {"spec": spec.label(), "alpha": alpha, "s": s, "q": _json_num(q),
              "Q": q_dim, "mode": mode}
    return _finish_report("pesos", corpus, labels, one, params)


# -- log-Lorentz case table -------------------------------------------------------------------


@dataclass(frozen=True)
class Regime:
    case_id: str          # Linf | lorentz_target | log_target | loglog_target
    subcase: str          # row of the case table, e.g. "2a_i"
    target_description: str
    alpha_used: float
    alpha_rule: str       # "min(1,r)" or "below p"
    target_weight: PowerLog | None = None

    def to_json(self) -> dict:
        out = {"case_id": self.case_id, "subcase": self.subcase,
               "target_description": self.target_description,
               "alpha_used": self.alpha_used, "alpha_rule": self.alpha_rule}
        if self.target_weight is not None:
            out["target_weight"] = self.target_weight.to_json()
        return out


def choose_alpha(p: float, r: float, beta: float) -> tuple[str, float]:
    """Convexity-exponent rule for log-Lorentz parameters.

    Returns ("below p", p) when only exponents strictly below p make the
    1/alpha-convexification a normed space (p < r with p <= 1, or
    p = r <= 1 with beta < 0); otherwise ("min(1,r)", min(1, r)).
    """
    if (p < r and p <= 1.0) or (p == r <= 1.0 and beta < 0.0):
        return "below p", p
    return "min(1,r)", min(1.0, r)


def _alpha_below(p: float, q: float) -> float:
    """A concrete exponent strictly below p, staying >= q when q < p."""
    return (q + p) / 2.0 if q < p else 0.9 * p


def _weight_description(w: PowerLog, q: float) -> str:
    parts = []
    if w.a != 0.0:
        parts.append(f"t^{w.a:g}")
    if w.b != 0.0:
        parts.append(f"(1+ln(1/t))^{w.b:g}")
    if w.g != 0.0:
        parts.append(f"(1+ln(1+ln(1/t)))^{w.g:g}")
    wtxt = " ".join(parts) if parts else "1"
    norm = "sup over (0,1)" if math.isinf(q) else f"L^{q:g}(dt/t) over (0,1)"
    return f"f*(t) weighted by {wtxt}, measured in {norm}"


def regime_classify(p: float, r: float, beta: float, s: float, q: float,
                    q_dim: float) -> Regime:
    """Total classification of the log-Lorentz embedding target.

    Inputs are the log-Lorentz parameters (p, r, beta), the smoothness s, the
    scale exponent q, and the upper dimension Q.  Returns the sup-norm case
    when the finiteness gauge allows, otherwise the exact weighted
    rearrangement target with its log / log-log exponents.
    """
    if not (p > 0.0 and r > 0.0 and q > 0.0 and 0.0 < s < 1.0 and q_dim > 0.0):
        raise DomainError("need p, r, q, Q > 0 and 0 < s < 1")
    mr = min(1.0, r)
    mpr = min(1.0, p, r)
    branch_a = (mr < p) or (mr == p and beta >= 0.0)
    crit = q_dim / p
    one_over_q = 0.0 if math.isinf(q) else 1.0 / q

    if s > crit or (s == crit and (beta > 1.0 / mpr - one_over_q if mpr < q
                                   else beta >= 0.0)):
        if branch_a:
            alpha, rule = mr, "min(1,r)"
        elif s == crit and q > mpr:
            # critical line, mpr = p: the gauge needs beta > 1/alpha - 1/q,
            # so pick the witness midway between 1/(beta + 1/q) and p
            alpha, rule = (1.0 / (beta + one_over_q) + p) / 2.0, "below p"
        else:
            alpha, rule = _alpha_below(p, q), "below p"
        sub = "1_linf" if s > crit else "2_linf"
        return Regime("Linf", sub, "sup-norm bound: max|f| controlled", alpha, rule)

    if s < crit:
        rule, alpha = choose_alpha(p, r, beta)
        if rule == "below p":
            alpha = _alpha_below(p, q)
        w = PowerLog(1.0 / p - s / q_dim, beta)
        return Regime("lorentz_target", "1", _weight_description(w, q), alpha,
                      rule, w)

    # s == crit, gauge infinite
    if branch_a:
        alpha, rule = mr, "min(1,r)"
        if q > alpha:
            if beta == 1.0 / alpha - one_over_q:
                w = PowerLog(0.0, -one_over_q, -1.0 / alpha)
                return Regime("loglog_target", "2a_i", _weight_description(w, q),
                              alpha, rule, w)
            w = PowerLog(0.0, beta - 1.0 / alpha)
            return Regime("log_target", "2a_ii", _weight_description(w, q),
                          alpha, rule, w)
        w = PowerLog(0.0, beta - 1.0 / q)
        return Regime("log_target", "2a_iii", _weight_description(w, q), alpha, rule, w)
    alpha, rule = _alpha_below(p, q), "below p"
    if q >= p:
        w = PowerLog(0.0, beta - 1.0 / alpha)
        return Regime("log_target", "2b_i", _weight_description(w, q), alpha, rule, w)
    w = PowerLog(0.0, beta - 1.0 / q)
    return Regime("log_target", "2b_ii", _weight_description(w, q), alpha, rule, w)


def lz_base_spec(p: float, r: float, beta: float, alpha: float) -> RISpaceSpec:
    """Base norm family whose alpha-convexification is the log-Lorentz space."""
    return convexify(lorentz_zygmund(p, r, beta), 1.0 / alpha)


def log_lorentz_embedding_check(space: Space, corpus, p: float, r: float, beta: float,
                                s: float, q: float, q_dim: float | None = None,
                                labels=None, ratio: float = DEFAULT_GRID_RATIO
                                ) -> tuple[Regime, EmbeddingReport]:
    """Classify the (p, r, beta, s, q) target and run the matching check.

    Sup-norm regimes run the max|f| comparison; weighted regimes compare the
    classified rearranged-norm target against seminorm + split norm.
    """
    if q_dim is None:
        q_dim = diagnostics(space).q_dim
    regime = regime_classify(p, r, beta, s, q, q_dim)
    alpha = regime.alpha_used
    base = lz_base_spec(p, r, beta, alpha)
    if regime.case_id == "Linf":
        report = sup_norm_embedding_check(space, corpus, base, alpha, s, q, q_dim,
                                          labels, ratio)
    else:
        def one(f):
            fstar = rearrangement(space, f)
            return (weighted_step_norm(fstar, regime.target_weight, q),
                    _hb_norm(space, f, fstar, base, alpha, s, q, ratio))

        params = {"p": p, "r": _json_num(r), "beta": beta, "s": s, "q": _json_num(q),
                  "Q": q_dim, "regime": regime.to_json()}
        report = _finish_report("lorentzlog", corpus, labels, one, params)
    return regime, report


# -- collapse sweep ------------------------------------------------------------------------


def collapse_sweep(space: Space, corpus, spec: RISpaceSpec, alpha: float, s: float,
                   q: float, eps_list, q_dim: float | None = None,
                   ratio: float = DEFAULT_GRID_RATIO) -> list[dict]:
    """Empirical oscillation-bound constants on the shrinking-weight family.

    Scaling all weights by eps leaves the metric and doubling constant alone
    and scales the unit-ball mass infimum linearly, so the sweep isolates the
    effect of measure collapse on the embedding constant.
    """
    if q_dim is None:
        q_dim = diagnostics(space).q_dim
    rows = []
    for eps in eps_list:
        scaled = space.scale_weights(float(eps))
        rep = embedding_report(scaled, corpus, spec, alpha, s, q, q_dim, ratio=ratio)
        rows.append({"eps": float(eps),
                     "b": noncollapsing_constant(scaled),
                     "empirical_constant": rep.empirical_constant})
    return rows
