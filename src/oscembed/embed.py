"""Empirical verification of the oscillation and embedding inequalities.

The central object is the oscillation functional

    ( int_0^1 [ gap(|f|^a, t)^(1/a) * phi(t) / t^(s/Q) ]^q dt/t )^(1/q),

where gap is the running-average-minus-value oscillation of the rearranged
|f|^a, phi the fundamental function of the a-convexified norm family, and Q
the space's upper dimension.  It depends on f only through f*, so
oscillation_functional takes the rearrangement, which each report computes
once per function.  On step functions the gap equals D/t per panel,
so the functional, like the weighted rearranged targets, is one call of the
power-log panel kernel (weights.PowerLog.panel_norms, or panel_max for
q = inf) over the panels of the rearranged step function.

The embedding checks compare this functional (and derived rearranged-norm
targets) against the Hajlasz-Besov norm: smoothness seminorm plus split-norm
size of f.  One routine computes a check's per-function (lhs, rhs) on the
calling thread, one function at a time in corpus order, and reports the
ratios and the empirical constant (max ratio).  The
constants are reported, never asserted against theory: the point of the
suite is to observe their stability on non-collapsed spaces and their
blow-up when the unit-ball mass infimum degenerates.

Weight machinery for the rearranged-norm targets:

  * reciprocal_weight_integral: the finiteness gauge m(t) built from the
    reciprocal weight t^(s/Q)/phi(t), on arrays of t; its value at 0 decides
    between the sup-norm target (finite) and weighted-rearrangement targets
    (infinite); target_norm_check evaluates it once per report, at every
    breakpoint below 1 of its rearranged corpus and, in the sup form, on a
    fixed grid;
  * the target weight w of the a < q < infinity case, with w(t)^q/t equal to
    the derivative of (1 + m(t))^(1-q/a): target_norm_check integrates
    against it through that exact primitive, so w itself is never evaluated;
  * the u-weight of the q <= a case: the oscillation functional's own
    weight t^(-s/Q) phi(t), which _u_condition_check passes exactly when it
    meets its integral condition near t = 0: when its power of t is positive;
  * regime_classify: the total case table for log-Lorentz parameters
    (p, r, beta, s, q, Q), emitting the target weight per case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, PreconditionError
from .rearrange import StepDecreasing, ranking, rearrangement, sum_plus_linf_norm
from .rispace import (RISpaceSpec, convexify, fundamental_powerlog, lorentz_zygmund)
from .smoothness import (DEFAULT_GRID_RATIO, ProfileAverages, besov_from_profile,
                         besov_seminorm, hajlasz_seminorm_l1)
from .space import Space, noncollapsing_constant
from .weights import PowerLog, power_roots

# The number of threads a report runs on.  Only the benchmark's environment
# record reads it; ROADMAP item 1's benchmark change deletes it.
_POOL_WORKERS = 1


# -- the oscillation functional ---------------------------------------------------------


def _oscillation_weight(spec: RISpaceSpec, alpha: float, s: float, q_dim: float) -> PowerLog:
    if not q_dim > 0.0:  # Q = log2 C_mu is 0 on a one-point space
        raise DomainError(f"the upper dimension Q must be positive, not {q_dim!r}")
    return fundamental_powerlog(convexify(spec, alpha)) * PowerLog(-s / q_dim)


def oscillation_functional(fstar: StepDecreasing, spec: RISpaceSpec, alpha: float,
                           s: float, q: float, q_dim: float) -> float:
    """Weighted dt/t norm of the oscillation gap over (0, min(1, mass)) of f, from fstar = f*.

    Exact per-panel evaluation: on each breakpoint-free panel the gap is
    D/t, so the integrand is a power-log function of t.
    """
    if not (0.0 < s < 1.0 and q > 0.0 and 0.0 < alpha <= 1.0):
        raise DomainError("need 0 < s < 1, q > 0, 0 < alpha <= 1")
    w_pl = _oscillation_weight(spec, alpha, s, q_dim)
    lo, hi, _v, gap = np.array(fstar.power(alpha).panels(min(1.0, fstar.mass))).T
    gap = np.maximum(gap, 0.0)  # a rounded-negative gap is a skipped panel, as a zero one
    if math.isinf(q):
        return (PowerLog(-1.0 / alpha) * w_pl).panel_max(lo, hi, gap ** (1.0 / alpha))
    return ((w_pl**q) * PowerLog(-q / alpha)).panel_norms([(lo, hi, gap ** (1.0 / alpha))], q)[0]


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


def _finish_report(theorem_id: str, corpus, labels, one, params) -> EmbeddingReport:
    """Report of the rows one(f) = (lhs, rhs) over the corpus; labels default to f0, f1, ..."""
    corpus = list(corpus)
    labels = [f"f{k}" for k in range(len(corpus))] if labels is None else list(labels)
    if len(labels) != len(corpus):
        raise DomainError(f"{len(labels)} labels for a corpus of {len(corpus)} functions")
    rows, worst = [], 0.0
    for lab, f in zip(labels, corpus):
        lhs, rhs = one(f)
        if rhs <= 0.0:
            if lhs > 0.0:
                raise DomainError(f"inconsistent report row {lab!r}: lhs {lhs:g} with rhs 0")
            ratio = 0.0
        else:
            ratio = lhs / rhs
        worst = max(worst, ratio)
        rows.append((lab, float(lhs), float(rhs), float(ratio)))
    return EmbeddingReport(theorem_id, rows, float(worst), params)


def _hb_norm(space: Space, f, fstar: StepDecreasing, spec, alpha, s, q, ratio) -> float:
    """Hajlasz-Besov norm of f: smoothness seminorm plus the L^a + L^inf size of fstar = f*."""
    return besov_seminorm(space, f, s, q, spec, alpha, ratio) + sum_plus_linf_norm(fstar, alpha)


def embedding_report(space: Space, corpus, spec: RISpaceSpec, alpha: float, s: float,
                     q: float, q_dim: float, labels=None,
                     ratio: float = DEFAULT_GRID_RATIO,
                     theorem_id: str = "k1") -> EmbeddingReport:
    """Oscillation functional vs smoothness seminorm + split norm, per function."""
    def one(f):
        fstar = rearrangement(space, f)
        return (oscillation_functional(fstar, spec, alpha, s, q, q_dim),
                _hb_norm(space, f, fstar, spec, alpha, s, q, ratio))

    params = {"spec": spec.label(), "alpha": alpha, "s": s, "q": q, "Q": q_dim}
    return _finish_report(theorem_id, corpus, labels, one, params)


# -- pointwise oscillation-vs-gradient bound ---------------------------------------------


def measure_growth_constant(space: Space, q_dim: float) -> float:
    """min over x and radii r in (0, 1] of mu(B(x, r)) / r^Q.

    The mass is fixed on each (e_k, e_{k+1}], e_k the sorted distances from x,
    while r^Q grows: the row's distances <= 1 and r = 1 attain the minimum.
    """
    radii = np.minimum(space.metric.sorted_dist, 1.0)  # a row's distances past 1 read as r = 1,
    radii[:, 0] = 1.0  # and so does its 0, at x itself
    return float((space.balls.point_masses(radii) / radii**q_dim).min())


def oscillation_gradient_constant(space: Space, f, alpha: float, q_dim: float) -> float:
    """Empirical constant c in gap(|f|^a, t) <= c t^(a/Q) avg(g^a, t), sup over t in (0, mass/2].

    g is always the L1-optimal gradient field of hajlasz_seminorm_l1; a failed
    or uncertified L1 solve raises its SolverError, which names the dump of the
    instance.
    Returns 0 for constant f (the bound is vacuous).  The sup is exact: on a
    panel [b_k, b_{k+1}) of (f*)^a the gap is D_k/t and t^(a/Q) avg(g^a, t) is
    t^(a/Q - 1) int_0^t (g*)^a, so their ratio D_k / (t^(a/Q) int_0^t (g*)^a)
    falls in t.  The sup is therefore read at the breakpoints b <= mass/2 of
    (f*)^a (the first panel, from 0, has D = 0).
    """
    f = np.asarray(f, dtype=float)
    if float(np.ptp(f)) == 0.0:
        return 0.0
    _, gradient = hajlasz_seminorm_l1(space, f)
    fpow = rearrangement(space, f).power(alpha)
    gpow = rearrangement(space, gradient.g).power(alpha)
    ts = fpow.breakpoints[fpow.breakpoints <= fpow.mass / 2.0]
    gap = fpow.integral(ts) / ts - fpow.eval(ts)
    denom = ts ** (alpha / q_dim) * (gpow.integral(ts) / ts)
    live = denom > 0.0
    return float((gap[live] / denom[live]).max(initial=0.0))


# -- weight machinery for rearranged-norm targets ----------------------------------------


def _gauge(spec, alpha, s, q, q_dim) -> tuple[PowerLog, bool]:
    """(v, is_sup): m(t) is v's sup on [t, 1) if is_sup (q <= a), else int_t^1 v(z) dz/z."""
    if not 0.0 < alpha <= 1.0:
        raise DomainError("alpha must lie in (0, 1]")
    v = _oscillation_weight(spec, alpha, s, q_dim).reciprocal()  # t^(s/Q) / phi(t)
    if q <= alpha:
        return v, True
    kappa = alpha if math.isinf(q) else alpha * q / (q - alpha)
    return v**kappa, False


def reciprocal_weight_finite(spec: RISpaceSpec, alpha: float, s: float, q: float,
                             q_dim: float) -> bool:
    """Symbolic finiteness decision for the gauge at t = 0."""
    v, is_sup = _gauge(spec, alpha, s, q, q_dim)
    return v.bounded_at_zero() if is_sup else v.integrable_at_zero_dt_over_t()


def reciprocal_weight_integral(spec: RISpaceSpec, alpha: float, s: float, q: float,
                               q_dim: float, t):
    """The finiteness gauge m(t) for the sup-norm embedding, at a float or an array t.

    For a < q < inf it is int_t^1 (z^(s/Q)/phi(z))^(aq/(q-a)) dz/z; for
    q = inf the same with exponent a; for q <= a the sup of the reciprocal
    weight over [t, 1).  Finiteness at t = 0 is decided symbolically (the
    value is then computed by quadrature); infinite gauges return math.inf.
    An array t takes one integral call, each element with the bits of its scalar call.
    """
    t_arr = np.asarray(t, dtype=float)
    if not ((0.0 <= t_arr) & (t_arr < 1.0)).all():
        raise DomainError(f"gauge parameter t must lie in [0, 1), got {t}")
    v, is_sup = _gauge(spec, alpha, s, q, q_dim)
    if is_sup:
        m = np.array([v.sup_on(x, 1.0) for x in t_arr.ravel().tolist()]).reshape(t_arr.shape)
    else:
        m = np.full(t_arr.shape, math.inf)
        finite = (t_arr > 0.0) | v.integrable_at_zero_dt_over_t()
        m[finite] = v.integral_dt_over_t(t_arr[finite], 1.0)
    return m if m.shape else float(m)


# -- weighted rearranged-norm evaluation ---------------------------------------------------


def weighted_step_norm(fstar: StepDecreasing, w: PowerLog, q: float) -> float:
    """(int_0^1 (f*(t) w(t))^q dt/t)^(1/q), exact panels; sup form for q = inf."""
    lo, hi = fstar.edges[:-1], np.minimum(fstar.edges[1:], 1.0)
    if math.isinf(q):
        return w.panel_max(lo, hi, fstar.values)
    return (w**q).panel_norms([(lo, hi, fstar.values)], q)[0]


def _gauge_table(spec, alpha, s, q, q_dim, ts) -> tuple[np.ndarray, np.ndarray]:
    """(t, m(t)) at the distinct entries of ts below 1, then at t = 1, where m is 0.

    One reciprocal_weight_integral call evaluates every entry, each with the
    bits of its scalar call; _gauge_at reads the table.
    """
    t = np.unique(ts[ts < 1.0])
    m = reciprocal_weight_integral(spec, alpha, s, q, q_dim, t)
    return np.append(t, 1.0), np.append(m, 0.0)


def _gauge_at(table, t: np.ndarray) -> np.ndarray:
    """m at the entries of t, each in (0, 1] and in the table."""
    table_t, table_m = table
    return table_m[np.searchsorted(table_t, t)]


def _stieltjes_target_norm(fstar: StepDecreasing, table, alpha: float, q: float) -> float:
    """Exact int_0^1 (f* w)^q dt/t with the case-1 weight, via the primitive.

    The weight's defining derivative makes (1 + m(t))^(1 - q/a) an exact
    primitive, so the integral is a finite Stieltjes sum over step panels;
    m comes from the report's gauge table.
    """
    m = _gauge_at(table, np.minimum(fstar.breakpoints, 1.0))
    # psi is 0 at edges[0] = 0, where m = inf and the exponent 1 - q/a is negative
    psi = [0.0] + [(1.0 + m_t) ** (1.0 - q / alpha) for m_t in m.tolist()]
    return power_roots([(fstar.values, np.diff(psi))], q)[0]


# -- sup-norm and target-norm checks ---------------------------------------------------------


def sup_norm_embedding_check(space: Space, corpus, spec: RISpaceSpec, alpha: float,
                             s: float, q: float, q_dim: float,
                             labels=None, ratio: float = DEFAULT_GRID_RATIO) -> EmbeddingReport:
    """max|f| vs oscillation functional + split norm; valid only when m(0) < inf."""
    if not reciprocal_weight_finite(spec, alpha, s, q, q_dim):
        raise PreconditionError(
            f"sup-norm embedding refused: m(0) is infinite for {spec.label()} "
            f"(alpha={alpha:g}, s={s:g}, q={q}, Q={q_dim:g})")
    m0 = reciprocal_weight_integral(spec, alpha, s, q, q_dim, 0.0)

    def one(f):
        lhs = float(np.abs(np.asarray(f, dtype=float)).max())
        fstar = rearrangement(space, f)
        return lhs, (oscillation_functional(fstar, spec, alpha, s, q, q_dim)
                     + sum_plus_linf_norm(fstar, alpha))

    params = {"spec": spec.label(), "alpha": alpha, "s": s, "q": q, "Q": q_dim, "m0": m0}
    return _finish_report("infinito", corpus, labels, one, params)


def _u_condition_check(v_norm: PowerLog, q: float) -> None:
    """Refuse a norm weight v = t^a (log factors) with a <= 0: the integral condition fails.

    The condition is int_0^t v^q dz/z <= C v(t)^q near t = 0.  For a power-log
    v it holds exactly when a > 0: the ratio of the two sides tends to 1/(aq)
    as t -> 0 if a > 0, grows like ln(1/t) if a = 0, and the primitive
    diverges if a < 0.
    """
    if not v_norm.a * q > 0.0:
        raise PreconditionError("u-weight fails its integral condition at t -> 0 "
                                f"(its power of t, a = {v_norm.a!r}, is not positive); "
                                "violating t: any t near 0")


def target_norm_check(space: Space, corpus, spec: RISpaceSpec, alpha: float, s: float,
                      q: float, q_dim: float, labels=None,
                      ratio: float = DEFAULT_GRID_RATIO) -> EmbeddingReport:
    """Weighted rearranged-norm target vs smoothness seminorm + split norm.

    Dispatches on q: the derivative weight for alpha < q < inf, the
    (1 + m)^(-1/a) sup form for q = inf, and for q <= alpha the u-weight mode,
    whose weight is the norm weight v_norm itself, once it passes its integral
    condition.  Requires m(0) = inf.
    The corpus is rearranged up front, and m is evaluated once per report, at
    every breakpoint below 1 of the corpus (and, in the sup form, on a fixed
    grid); each function reads its values from that table.
    """
    if reciprocal_weight_finite(spec, alpha, s, q, q_dim):
        raise PreconditionError(
            "target-norm check refused: m(0) is finite; "
            "use the sup-norm embedding check instead")
    mode = "derivative" if (alpha < q and not math.isinf(q)) else (
        "sup" if math.isinf(q) else "u-weight")
    items = [(f, rearrangement(space, f)) for f in corpus]
    if mode == "u-weight":
        v_norm = _oscillation_weight(spec, alpha, s, q_dim)
        _u_condition_check(v_norm, q)
    else:
        grid = np.geomspace(1e-10, 1.0, 200) if mode == "sup" else np.empty(0)
        table = _gauge_table(spec, alpha, s, q, q_dim, np.concatenate(
            [grid, *(fstar.breakpoints for _f, fstar in items)]))

    def one(item):
        f, fstar = item
        if mode == "derivative":
            lhs = _stieltjes_target_norm(fstar, table, alpha, q)
        elif mode == "sup":
            # the grid's last point is 1, where m = 0
            ts = np.union1d(grid, fstar.breakpoints[fstar.breakpoints < 1.0])
            avgs = fstar.power(alpha).integral(ts) / ts
            lhs = max((avg / (1.0 + m_t)) ** (1.0 / alpha)
                      for avg, m_t in zip(avgs.tolist(), _gauge_at(table, ts).tolist()))
        else:
            lhs = weighted_step_norm(fstar, v_norm, q)
        return lhs, _hb_norm(space, f, fstar, spec, alpha, s, q, ratio)

    params = {"spec": spec.label(), "alpha": alpha, "s": s, "q": q, "Q": q_dim, "mode": mode}
    return _finish_report("pesos", items, labels, one, params)


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
    if not (p > 0.0 and r > 0.0 and q > 0.0 and 0.0 < s < 1.0 and 0.0 < q_dim < math.inf):
        raise DomainError("need p, r, q > 0, 0 < Q < inf and 0 < s < 1")
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
                                s: float, q: float, q_dim: float,
                                labels=None, ratio: float = DEFAULT_GRID_RATIO
                                ) -> tuple[Regime, EmbeddingReport]:
    """Classify the (p, r, beta, s, q) target and run the matching check.

    Sup-norm regimes run the max|f| comparison; weighted regimes compare the
    classified rearranged-norm target against seminorm + split norm.
    """
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

        params = {"p": p, "r": r, "beta": beta, "s": s, "q": q, "Q": q_dim,
                  "regime": regime.to_json()}
        report = _finish_report("lorentzlog", corpus, labels, one, params)
    return regime, report


# -- collapse sweep ------------------------------------------------------------------------


def collapse_sweep(space: Space, corpus, spec: RISpaceSpec, alpha: float, s: float,
                   q: float, eps_list, q_dim: float, ratio: float = DEFAULT_GRID_RATIO
                   ) -> list[tuple[float, float, EmbeddingReport]]:
    """Empirical oscillation-bound constants on the shrinking-weight family.

    Scaling all weights by eps leaves the metric and doubling constant alone
    and scales the unit-ball mass infimum linearly, so the sweep isolates the
    effect of measure collapse on the embedding constant.  Returns one
    (eps, b, report) per eps: b = inf_x eps mu(B(x, 1)) and the report of
    embedding_report on the scaled space, theorem k1.

    Scaling leaves the metric, the radius grid, every ball average and every
    sort order alone; only the masses change.  So the scaled spaces share the
    space's sorted rows (Space.scale_weights), and each function's ball
    averages and its own order are taken once, under the unscaled weights
    (ProfileAverages, ranking); ProfileAverages ranks only the distinct rows
    of averages, one per run of radii whose balls hold the same points.  The
    rankings check f once; the step functions they build per eps are valid by
    construction and are not checked again.  Per eps, only the masses in
    those orders, the quasi-norms of the distinct rows, the scale sum and the
    oscillation functional are redone, one function at a time.  The
    oscillation functional's weight has a < 0, and its narrow panels take the
    Gauss-Legendre rule of weights.py (path 3).
    The averages differ from the scaled space's at rounding unless eps is a
    power of 2; b and the other steps are bitwise embedding_report's.  Each
    eps's constant follows _finish_report's rules.
    """
    weights, bs = [], []
    for eps in eps_list:
        scaled = space.scale_weights(float(eps))
        weights.append(scaled.weight)
        bs.append(noncollapsing_constant(scaled))
    pairs = []  # pairs[k][e]: (lhs, rhs) of function k under eps_list[e]
    for f in corpus:
        order = ranking(space, f)
        averages = ProfileAverages(space, f, alpha, ratio)
        row = []
        for weight in weights:
            fstar = order.steps(weight)[0]
            lhs = oscillation_functional(fstar, spec, alpha, s, q, q_dim)
            row.append((lhs, besov_from_profile(averages.profile(weight, spec), s, q)
                        + sum_plus_linf_norm(fstar, alpha)))
        pairs.append(row)
    params = {"spec": spec.label(), "alpha": alpha, "s": s, "q": q, "Q": q_dim}
    return [(float(eps), b, _finish_report("k1", range(len(pairs)), None,
                                           lambda k, e=e: pairs[k][e], params))
            for e, (eps, b) in enumerate(zip(eps_list, bs))]
