"""Config-driven command line for spaces, norms, moduli, and theorem checks.

Every subcommand builds its payload, rows and stdout summary, then writes one
JSON and one CSV artifact into the output directory.  Only _num turns a number
into a cell: the shortest round-trip literal of a Python int or float, so a
fixed config and seed reproduce byte-identical files, and in JSON a non-finite
float is that literal as a string ("inf").  Exit codes: 0 success,
2 usage or config error (argparse, a space or value outside its domain, an
overflow or zero division), 3 refusal (a precondition fails, or a fundamental
function the check needs has no closed form), 4 solver failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import embed, rispace, smoothness
from .corpus import build_corpus
from .errors import (DomainError, PreconditionError, SolverError, SpaceValidationError,
                     SymbolicAnalysisError)
from .rearrange import rearrangement, sum_plus_linf_norm
from .space import diagnostics, load_space

EXIT_CONFIG = 2
EXIT_REFUSED = 3
EXIT_SOLVER = 4

THEOREMS = ("k1", "teolp", "teointerpol", "teomo1", "infinito", "pesos",
            "embteo", "lorentzlog")


def _num(x) -> str:
    """The cell of a number: repr of a Python int or float; a numpy scalar is refused."""
    if type(x) not in (int, float):
        raise TypeError(f"not a Python int or float: {type(x).__name__}")
    return repr(x)


def _json_value(obj):
    """obj with each non-finite float in its dicts and lists as its _num string: JSON has no inf."""
    if isinstance(obj, dict):
        return {k: _json_value(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_json_value(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return _num(obj)
    return obj


def _write_artifacts(out_dir: Path, name: str, payload: dict, rows: list[dict]) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / f"{name}.json", "w") as fh:
        json.dump(_json_value(payload), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    with open(out_dir / f"{name}.csv", "w", newline="") as fh:
        if rows:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            writer.writerows(rows)


def _json_option(text: str, option: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DomainError(f"{option} is not valid JSON: {exc}") from exc


def _t_grid(args) -> np.ndarray:
    """The geometric grid of --t-count parameters t from --t-min to --t-max."""
    if not (0.0 < args.t_min < math.inf and 0.0 < args.t_max < math.inf):
        raise DomainError("--t-min and --t-max must be positive and finite")
    if args.t_count < 1:
        raise DomainError(f"--t-count must be at least 1, not {args.t_count}")
    return np.geomspace(args.t_min, args.t_max, args.t_count)


def _load_inputs(args):
    """The space, the norm spec, and the corpus with its labels."""
    space = load_space(args.space)
    spec = rispace.spec_from_json(_json_option(args.spec, "--spec")) if args.spec \
        else rispace.lp(1.0)
    corpus_spec = args.corpus
    if corpus_spec and corpus_spec.strip().startswith("{"):
        corpus_spec = _json_option(corpus_spec, "--corpus")
    corpus, labels = build_corpus(space, corpus_spec, args.seed)
    return space, spec, corpus, labels


def cmd_space_info(args) -> int:
    space = load_space(args.space)
    diag = diagnostics(space)
    payload = diag.to_json()
    payload["n"] = space.n
    payload["total_mass"] = space.total_mass
    _write_artifacts(Path(args.out), "space-info", payload,
                     [{k: _num(v) for k, v in payload.items()}])
    print(json.dumps(_json_value(payload), sort_keys=True, allow_nan=False))
    return 0


def cmd_norms(args) -> int:
    space, spec, corpus, labels = _load_inputs(args)
    rows = []
    for lab, f in zip(labels, corpus):
        fstar = rearrangement(space, f)
        rows.append({"label": lab, "spec": spec.label(),
                     "quasi_norm": _num(rispace.quasi_norm(spec, fstar)),
                     "sum_plus_linf": _num(sum_plus_linf_norm(fstar, args.alpha))})
    _write_artifacts(Path(args.out), "norms", {"rows": rows}, rows)
    return 0


def cmd_modulus(args) -> int:
    space, spec, corpus, labels = _load_inputs(args)
    rows = []
    profiles = {}
    for lab, f in zip(labels, corpus):
        prof = smoothness.modulus_profile(space, f, spec, args.alpha, args.grid_ratio)
        profiles[lab] = prof.to_json()
        for r, e in zip(prof.radii.tolist(), prof.values.tolist()):
            rows.append({"label": lab, "radius": _num(r), "modulus": _num(e)})
        rows.append({"label": lab, "radius": "tail", "modulus": _num(prof.tail_value)})
    _write_artifacts(Path(args.out), "modulus", {"profiles": profiles}, rows)
    return 0


def cmd_besov(args) -> int:
    space, spec, corpus, labels = _load_inputs(args)
    rows = []
    for lab, f in zip(labels, corpus):
        val = smoothness.besov_seminorm(space, f, args.s, args.q, spec, args.alpha,
                                        args.grid_ratio)
        rows.append({"label": lab, "s": _num(args.s), "q": _num(args.q),
                     "seminorm": _num(val)})
    _write_artifacts(Path(args.out), "besov", {"rows": rows}, rows)
    return 0


def _k_table(space, corpus, labels, ts, spec, alpha) -> tuple[list, list[dict]]:
    """The K bounds of each function at each t, function-major, and their rows."""
    bounds, rows = [], []
    for lab, f in zip(labels, corpus):
        for kb in smoothness.k_bounds_path(space, f, ts, spec, alpha):
            bounds.append(kb)
            rows.append({"label": lab, "t": _num(kb.t), "lower": _num(kb.lower),
                         "upper": _num(kb.upper),
                         "exact": "" if kb.exact is None else _num(kb.exact)})
    return bounds, rows


def cmd_kfun(args) -> int:
    space, spec, corpus, labels = _load_inputs(args)
    _bounds, rows = _k_table(space, corpus, labels, _t_grid(args), spec, args.alpha)
    _write_artifacts(Path(args.out), "kfun", {"rows": rows}, rows)
    return 0


def _report_table(report: embed.EmbeddingReport) -> tuple[dict, list[dict], str]:
    """The payload, rows and summary of an embedding report; informative rows have lhs > 0."""
    rows = [{"label": lab, "lhs": _num(lhs), "rhs": _num(rhs), "ratio": _num(ratio)}
            for lab, lhs, rhs, ratio in report.per_function]
    summary = (f"empirical_constant={report.empirical_constant:g} "
               f"{_informative([row[1] for row in report.per_function])}")
    return report.to_json(), rows, summary


def _informative(values) -> str:
    """informative=i/n: i of the n rows have a value > 0 (a report's lhs, teomo1's constant),
    so they test something."""
    return f"informative={sum(v > 0.0 for v in values)}/{len(values)}"


def cmd_verify(args) -> int:
    space, spec, corpus, labels = _load_inputs(args)
    q_dim = diagnostics(space).q_dim
    theorem = args.theorem
    if theorem == "embteo":
        finite = embed.reciprocal_weight_finite(spec, args.alpha, args.s, args.q, q_dim)
        theorem = "infinito" if finite else "pesos"
    if theorem in ("k1", "teolp"):
        alpha, use_spec = args.alpha, spec
        if theorem == "teolp":
            use_spec, alpha = rispace.lp(max(args.p, 1.0)), min(args.p, 1.0)
        payload, rows, summary = _report_table(embed.embedding_report(
            space, corpus, use_spec, alpha, args.s, args.q, q_dim, labels, args.grid_ratio,
            args.theorem))
    elif theorem == "teointerpol":
        bounds, rows = _k_table(space, corpus, labels, _t_grid(args), rispace.lp(1.0), 1.0)
        calibrated = [kb for kb in bounds if kb.exact and kb.exact > 0.0]
        c1 = max([0.0] + [kb.lower / kb.exact for kb in calibrated])
        c2 = c1 * max([0.0] + [kb.exact / kb.upper for kb in calibrated])
        payload = {"C1": c1, "C2": c2, "rows": rows}
        summary = f"C1={c1:g} C2={c2:g}"
    elif theorem == "teomo1":
        growth = embed.measure_growth_constant(space, q_dim)
        constants = [embed.oscillation_gradient_constant(space, f, args.alpha, q_dim)
                     for f in corpus]
        worst = max([0.0] + constants)
        rows = [{"label": lab, "constant": _num(c)} for lab, c in zip(labels, constants)]
        payload = {"growth_constant": growth, "max_constant": worst, "rows": rows}
        summary = f"growth={growth:g} max_constant={worst:g} {_informative(constants)}"
    elif theorem == "infinito":
        payload, rows, summary = _report_table(embed.sup_norm_embedding_check(
            space, corpus, spec, args.alpha, args.s, args.q, q_dim, labels, args.grid_ratio))
    elif theorem == "pesos":
        payload, rows, summary = _report_table(embed.target_norm_check(
            space, corpus, spec, args.alpha, args.s, args.q, q_dim, labels=labels,
            ratio=args.grid_ratio))
    elif theorem == "lorentzlog":
        regime, report = embed.log_lorentz_embedding_check(
            space, corpus, args.p, args.r, args.beta, args.s, args.q, q_dim,
            labels, args.grid_ratio)
        payload, rows, summary = _report_table(report)
        payload["regime"] = regime.to_json()
        summary = f"case={regime.case_id} {summary}"
    else:
        raise AssertionError(theorem)
    _write_artifacts(Path(args.out), f"verify-{args.theorem}", payload, rows)
    print(f"{args.theorem}: {summary}")
    return 0


def cmd_regimes(args) -> int:
    if args.count < 1:
        raise DomainError(f"--count must be at least 1, not {args.count}")
    rng = np.random.default_rng(args.seed)
    rows = []
    for _ in range(args.count):
        p = float(rng.uniform(0.2, 3.0))
        r = float(rng.uniform(0.2, 3.0)) if rng.random() > 0.2 else math.inf
        beta = float(rng.uniform(-2.0, 2.0))
        s = float(rng.uniform(0.05, 0.95))
        q = float(rng.uniform(0.2, 3.0)) if rng.random() > 0.2 else math.inf
        reg = embed.regime_classify(p, r, beta, s, q, args.q_dim)
        rows.append({"p": _num(p), "r": _num(r), "beta": _num(beta), "s": _num(s),
                     "q": _num(q), "Q": _num(args.q_dim), "case": reg.case_id,
                     "subcase": reg.subcase, "alpha": _num(reg.alpha_used)})
    _write_artifacts(Path(args.out), "regimes", {"rows": rows}, rows)
    return 0


def cmd_collapse_sweep(args) -> int:
    space, spec, corpus, _labels = _load_inputs(args)
    try:
        eps_list = [float(e) for e in args.eps.split(",")]
    except ValueError as exc:
        raise DomainError(f"--eps must be a comma-separated list of numbers: {exc}") from exc
    sweep = embed.collapse_sweep(space, corpus, spec, args.alpha, args.s, args.q,
                                 eps_list, diagnostics(space).q_dim, args.grid_ratio)
    rows_raw = [{"eps": eps, "b": b, "empirical_constant": report.empirical_constant}
                for eps, b, report in sweep]
    rows = [{k: _num(v) for k, v in row.items()} for row in rows_raw]
    _write_artifacts(Path(args.out), "collapse-sweep", {"rows": rows_raw}, rows)
    for eps, b, report in sweep:
        print(f"eps={eps:g} b={b:g} constant={report.empirical_constant:g} "
              f"{_informative([row[1] for row in report.per_function])}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="oscembed",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    extra_options = {
        "--s": {"type": float, "default": 0.5},
        "--q": {"type": float, "default": 1.0},
        "--grid-ratio": {"type": float, "default": smoothness.DEFAULT_GRID_RATIO},
        "--t-min": {"type": float, "default": 0.1},
        "--t-max": {"type": float, "default": 10.0},
        "--t-count": {"type": int, "default": 10},
    }
    smoothness_options = ("--s", "--q", "--grid-ratio")
    t_grid_options = ("--t-min", "--t-max", "--t-count")

    def common(p, *extra):
        """The options of a subcommand that runs a corpus on a space, then those named in extra."""
        p.add_argument("--space", required=True, help="space JSON file")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--spec", default=None, help="norm-family JSON string")
        p.add_argument("--alpha", type=float, default=1.0)
        p.add_argument("--corpus", default='{"generator": "tents-at-all-centers"}',
                       help="generator JSON or path to a JSON list of vectors")
        for option in extra:
            p.add_argument(option, **extra_options[option])

    p_info = sub.add_parser("space-info", help="doubling/dimension diagnostics")
    p_info.add_argument("--space", required=True)
    p_info.add_argument("--out", default="out")
    p_info.set_defaults(fn=cmd_space_info)

    for cname, fn, extra in (("norms", cmd_norms, ()),
                             ("modulus", cmd_modulus, ("--grid-ratio",)),
                             ("besov", cmd_besov, smoothness_options)):
        p_c = sub.add_parser(cname)
        common(p_c, *extra)
        p_c.set_defaults(fn=fn)

    p_k = sub.add_parser("kfun", help="two-sided K bounds table")
    common(p_k, *t_grid_options)
    p_k.set_defaults(fn=cmd_kfun)

    p_v = sub.add_parser("verify", help="run one theorem check")
    common(p_v, *smoothness_options, *t_grid_options)
    p_v.add_argument("--theorem", required=True, choices=THEOREMS)
    p_v.add_argument("--p", type=float, default=2.0)
    p_v.add_argument("--r", type=float, default=2.0)
    p_v.add_argument("--beta", type=float, default=0.0)
    p_v.set_defaults(fn=cmd_verify)

    p_r = sub.add_parser("regimes", help="classification table on a random grid")
    p_r.add_argument("--out", default="out")
    p_r.add_argument("--seed", type=int, default=0)
    p_r.add_argument("--count", type=int, default=1000)
    p_r.add_argument("--q-dim", type=float, default=2.0)
    p_r.set_defaults(fn=cmd_regimes)

    p_cs = sub.add_parser("collapse-sweep", help="embedding constant vs weight scale")
    common(p_cs, *smoothness_options)
    p_cs.add_argument("--eps", default="1,0.1,0.01,0.001,0.0001")
    p_cs.set_defaults(fn=cmd_collapse_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with np.errstate(over="raise", invalid="raise"):  # saturation is refused, never written
            return args.fn(args)
    except (SpaceValidationError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ArithmeticError as exc:  # an option's value overflows or divides by zero
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (PreconditionError, SymbolicAnalysisError) as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
