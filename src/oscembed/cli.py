"""Config-driven command line for spaces, norms, moduli, and theorem checks.

Every subcommand writes one JSON and one CSV artifact into the output
directory; floats are serialized with repr (shortest round-trip), so a fixed
config and seed reproduce byte-identical files.  Exit codes: 0 success,
2 usage/config error (argparse), 3 precondition refusal, 4 solver failure.
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
from .errors import PreconditionError, SolverError
from .rearrange import rearrangement, sum_plus_linf_norm
from .space import diagnostics, load_space

EXIT_REFUSED = 3
EXIT_SOLVER = 4

THEOREMS = ("k1", "teolp", "teointerpol", "teomo1", "infinito", "pesos",
            "embteo", "lorentzlog")


def _parse_num(x) -> float:
    return math.inf if x in ("inf", "Inf", "INF") else float(x)


def _write_artifacts(out_dir: Path, name: str, payload: dict, rows: list[dict]) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / f"{name}.json", "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")
    with open(out_dir / f"{name}.csv", "w", newline="") as fh:
        if rows:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            writer.writerows(rows)


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, float) and math.isinf(obj):
        return "inf"
    raise TypeError(f"not serializable: {type(obj)}")


def _load_inputs(args):
    """The space, the norm spec, and the corpus with its labels."""
    space = load_space(args.space)
    spec = rispace.spec_from_json(json.loads(args.spec)) if args.spec else rispace.lp(1.0)
    corpus_spec = args.corpus
    if corpus_spec and corpus_spec.strip().startswith("{"):
        corpus_spec = json.loads(corpus_spec)
    corpus, labels = build_corpus(space, corpus_spec, args.seed)
    return space, spec, corpus, labels


def cmd_space_info(args) -> int:
    space = load_space(args.space)
    diag = diagnostics(space)
    payload = diag.to_json()
    payload["n"] = space.n
    payload["total_mass"] = space.total_mass
    _write_artifacts(Path(args.out), "space-info", payload,
                     [{k: repr(v) for k, v in payload.items()}])
    print(json.dumps(payload, sort_keys=True))
    return 0


def cmd_norms(args) -> int:
    space, spec, corpus, labels = _load_inputs(args)
    rows = []
    for lab, f in zip(labels, corpus):
        fstar = rearrangement(space, f)
        rows.append({"label": lab, "spec": spec.label(),
                     "quasi_norm": repr(rispace.quasi_norm(spec, fstar)),
                     "sum_plus_linf": repr(sum_plus_linf_norm(fstar, args.alpha))})
    _write_artifacts(Path(args.out), "norms", {"rows": rows}, rows)
    return 0


def cmd_modulus(args) -> int:
    space, spec, corpus, labels = _load_inputs(args)
    rows = []
    profiles = {}
    for lab, f in zip(labels, corpus):
        prof = smoothness.modulus_profile(space, f, spec, args.alpha, args.grid_ratio)
        profiles[lab] = prof.to_json()
        for r, e in zip(prof.radii, prof.values):
            rows.append({"label": lab, "radius": repr(float(r)), "modulus": repr(float(e))})
        rows.append({"label": lab, "radius": "tail", "modulus": repr(prof.tail_value)})
    _write_artifacts(Path(args.out), "modulus", {"profiles": profiles}, rows)
    return 0


def cmd_besov(args) -> int:
    space, spec, corpus, labels = _load_inputs(args)
    rows = []
    for lab, f in zip(labels, corpus):
        val = smoothness.besov_seminorm(space, f, args.s, args.q, spec, args.alpha,
                                        args.grid_ratio)
        rows.append({"label": lab, "s": repr(args.s), "q": repr(args.q),
                     "seminorm": repr(val)})
    _write_artifacts(Path(args.out), "besov", {"rows": rows}, rows)
    return 0


def cmd_kfun(args) -> int:
    space, spec, corpus, labels = _load_inputs(args)
    ts = np.geomspace(args.t_min, args.t_max, args.t_count)
    rows = []
    for lab, f in zip(labels, corpus):
        for t in ts:
            kb = smoothness.k_bounds(space, f, float(t), spec, args.alpha)
            rows.append({"label": lab, "t": repr(float(t)), "lower": repr(kb.lower),
                         "upper": repr(kb.upper),
                         "exact": "" if kb.exact is None else repr(kb.exact)})
    _write_artifacts(Path(args.out), "kfun", {"rows": rows}, rows)
    return 0


def cmd_verify(args) -> int:
    space, spec, corpus, labels = _load_inputs(args)
    diag = diagnostics(space)
    q_dim = diag.q_dim
    name = f"verify-{args.theorem}"
    theorem = args.theorem
    if theorem == "embteo":
        finite = embed.reciprocal_weight_finite(spec, args.alpha, args.s, args.q, q_dim)
        theorem = "infinito" if finite else "pesos"
    if theorem in ("k1", "teolp"):
        alpha, use_spec = args.alpha, spec
        if theorem == "teolp":
            p = args.p if args.p is not None else 2.0
            use_spec = rispace.lp(max(p, 1.0)) if p >= 1.0 else rispace.lp(1.0)
            alpha = 1.0 if p >= 1.0 else p
        report = embed.embedding_report(space, corpus, use_spec, alpha, args.s, args.q,
                                        q_dim, labels, args.grid_ratio, args.theorem)
    elif theorem == "teointerpol":
        ts = np.geomspace(args.t_min, args.t_max, args.t_count)
        rows, c1, c2 = [], 0.0, 0.0
        for lab, f in zip(labels, corpus):
            for t in ts:
                kb = smoothness.k_bounds(space, f, float(t), rispace.lp(1.0), 1.0)
                if kb.exact and kb.exact > 0.0:
                    c1 = max(c1, kb.lower / kb.exact)
                    c2 = max(c2, kb.exact / kb.upper)
                rows.append({"label": lab, "t": repr(float(t)), "lower": repr(kb.lower),
                             "exact": repr(kb.exact), "upper": repr(kb.upper)})
        payload = {"C1": c1, "C2": c2 * c1, "rows": rows}
        _write_artifacts(Path(args.out), name, payload, rows)
        print(f"teointerpol: C1={c1:g} C2={c1 * c2:g}")
        return 0
    elif theorem == "teomo1":
        growth = embed.measure_growth_constant(space, q_dim)
        rows = []
        worst = 0.0
        for lab, f in zip(labels, corpus):
            c = embed.oscillation_gradient_constant(space, f, args.alpha, q_dim)
            worst = max(worst, c)
            rows.append({"label": lab, "constant": repr(c)})
        payload = {"growth_constant": growth, "max_constant": worst, "rows": rows}
        _write_artifacts(Path(args.out), name, payload, rows)
        print(f"teomo1: growth={growth:g} max_constant={worst:g}")
        return 0
    elif theorem == "infinito":
        report = embed.sup_norm_embedding_check(space, corpus, spec, args.alpha,
                                                args.s, args.q, q_dim, labels,
                                                args.grid_ratio)
    elif theorem == "pesos":
        report = embed.target_norm_check(space, corpus, spec, args.alpha, args.s,
                                         args.q, q_dim, labels=labels,
                                         ratio=args.grid_ratio)
    elif theorem == "lorentzlog":
        regime, report = embed.log_lorentz_embedding_check(
            space, corpus, args.p, args.r, args.beta, args.s, args.q, q_dim,
            labels, args.grid_ratio)
        payload = report.to_json()
        payload["regime"] = regime.to_json()
        _write_artifacts(Path(args.out), name, payload, list(report.csv_rows()))
        print(f"lorentzlog: case={regime.case_id} constant={report.empirical_constant:g}")
        return 0
    else:
        raise AssertionError(theorem)
    _write_artifacts(Path(args.out), name, report.to_json(), list(report.csv_rows()))
    print(f"{args.theorem}: empirical_constant={report.empirical_constant:g}")
    return 0


def cmd_regimes(args) -> int:
    rng = np.random.default_rng(args.seed)
    rows = []
    for _ in range(args.count):
        p = float(rng.uniform(0.2, 3.0))
        r = float(rng.uniform(0.2, 3.0)) if rng.random() > 0.2 else math.inf
        beta = float(rng.uniform(-2.0, 2.0))
        s = float(rng.uniform(0.05, 0.95))
        q = float(rng.uniform(0.2, 3.0)) if rng.random() > 0.2 else math.inf
        q_dim = args.q_dim
        reg = embed.regime_classify(p, r, beta, s, q, q_dim)
        rows.append({"p": repr(p), "r": repr(r), "beta": repr(beta), "s": repr(s),
                     "q": repr(q), "Q": repr(q_dim), "case": reg.case_id,
                     "subcase": reg.subcase, "alpha": repr(reg.alpha_used)})
    _write_artifacts(Path(args.out), "regimes", {"rows": rows}, rows)
    return 0


def cmd_collapse_sweep(args) -> int:
    space, spec, corpus, _labels = _load_inputs(args)
    diag = diagnostics(space)
    eps_list = [float(e) for e in args.eps.split(",")]
    rows_raw = embed.collapse_sweep(space, corpus, spec, args.alpha, args.s, args.q,
                                    eps_list, diag.q_dim, args.grid_ratio)
    rows = [{k: repr(v) for k, v in row.items()} for row in rows_raw]
    _write_artifacts(Path(args.out), "collapse-sweep", {"rows": rows_raw}, rows)
    for row in rows_raw:
        print(f"eps={row['eps']:g} b={row['b']:g} constant={row['empirical_constant']:g}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="oscembed",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, corpus=True):
        p.add_argument("--space", required=True, help="space JSON file")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--spec", default=None, help="norm-family JSON string")
        p.add_argument("--alpha", type=_parse_num, default=1.0)
        p.add_argument("--s", type=float, default=0.5)
        p.add_argument("--q", type=_parse_num, default=1.0)
        p.add_argument("--grid-ratio", type=float, default=smoothness.DEFAULT_GRID_RATIO)
        if corpus:
            p.add_argument("--corpus", default='{"generator": "tents-at-all-centers"}',
                           help="generator JSON or path to a JSON list of vectors")

    p_info = sub.add_parser("space-info", help="doubling/dimension diagnostics")
    p_info.add_argument("--space", required=True)
    p_info.add_argument("--out", default="out")
    p_info.set_defaults(fn=cmd_space_info)

    for cname, fn in (("norms", cmd_norms), ("modulus", cmd_modulus),
                      ("besov", cmd_besov)):
        p_c = sub.add_parser(cname)
        common(p_c)
        p_c.set_defaults(fn=fn)

    p_k = sub.add_parser("kfun", help="two-sided K bounds table")
    common(p_k)
    p_k.add_argument("--t-min", type=float, default=0.1)
    p_k.add_argument("--t-max", type=float, default=10.0)
    p_k.add_argument("--t-count", type=int, default=10)
    p_k.set_defaults(fn=cmd_kfun)

    p_v = sub.add_parser("verify", help="run one theorem check")
    common(p_v)
    p_v.add_argument("--theorem", required=True, choices=THEOREMS)
    p_v.add_argument("--p", type=float, default=None)
    p_v.add_argument("--r", type=_parse_num, default=2.0)
    p_v.add_argument("--beta", type=float, default=0.0)
    p_v.add_argument("--t-min", type=float, default=0.1)
    p_v.add_argument("--t-max", type=float, default=10.0)
    p_v.add_argument("--t-count", type=int, default=10)
    p_v.set_defaults(fn=cmd_verify)

    p_r = sub.add_parser("regimes", help="classification table on a random grid")
    p_r.add_argument("--out", default="out")
    p_r.add_argument("--seed", type=int, default=0)
    p_r.add_argument("--count", type=int, default=1000)
    p_r.add_argument("--q-dim", type=float, default=2.0)
    p_r.set_defaults(fn=cmd_regimes)

    p_cs = sub.add_parser("collapse-sweep", help="embedding constant vs weight scale")
    common(p_cs)
    p_cs.add_argument("--eps", default="1,0.1,0.01,0.001,0.0001")
    p_cs.set_defaults(fn=cmd_collapse_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except PreconditionError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
