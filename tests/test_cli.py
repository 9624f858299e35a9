"""Command-line behavior: artifacts, determinism, and refusal exit codes."""

import argparse
import csv
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from oscembed import load_space, lp, smoothness
from oscembed.space import diagnostics
from oscembed.cli import THEOREMS, _num, build_parser, main
from oscembed.corpus import build_corpus

from _oracles import mp_scale_sum


@pytest.fixture()
def space_file(tmp_path):
    path = tmp_path / "space.json"
    path.write_text(json.dumps({
        "metric": "graph",
        "edges": [[i, i + 1] for i in range(7)],
        "weights": [1.0] * 8,
    }))
    return str(path)


@pytest.fixture()
def two_point_file(tmp_path):
    path = tmp_path / "two.json"
    path.write_text(json.dumps({"dist": [[0.0, 1.0], [1.0, 0.0]],
                                "weights": [1.0, 1.0]}))
    return str(path)


def test_space_info_two_point(two_point_file, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["space-info", "--space", two_point_file, "--out", str(out)]) == 0
    payload = json.loads((out / "space-info.json").read_text())
    assert payload["c_mu"] == 2.0
    assert payload["q_dim"] == 1.0
    assert payload["b"] == 1.0  # strict unit ball excludes the distance-1 neighbor


def test_verify_k1_constants_corpus(space_file, tmp_path):
    out = tmp_path / "out"
    corpus = tmp_path / "corpus.json"
    corpus.write_text(json.dumps([[1.0] * 8, [2.0] * 8]))
    rc = main(["verify", "--theorem", "k1", "--space", space_file,
               "--corpus", str(corpus), "--out", str(out)])
    assert rc == 0
    payload = json.loads((out / "verify-k1.json").read_text())
    assert payload["empirical_constant"] == 0.0


def test_verify_k1_summary_counts_no_informative_row_at_its_defaults(space_file, tmp_path,
                                                                     capsys):
    """Tents at every centre of the unit path have f* constant below the unit-ball mass."""
    assert main(["verify", "--theorem", "k1", "--space", space_file,
                 "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().out == "k1: empirical_constant=0 informative=0/8\n"


@pytest.mark.parametrize("theorem", ["k1", "teolp", "infinito", "pesos", "embteo", "lorentzlog"])
def test_verify_summary_counts_the_rows_with_positive_lhs(space_file, tmp_path, capsys, theorem):
    out = tmp_path / "out"
    corpus = tmp_path / "corpus.json"
    corpus.write_text(json.dumps([[0.0] * 8, [0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 0.0],
                                  [float(i) for i in range(8)], [1.0] + [0.0] * 7]))
    assert main(["verify", "--theorem", theorem, "--space", space_file,
                 "--corpus", str(corpus), "--out", str(out),
                 *_THEOREM_RUNS.get(theorem, [])]) == 0
    summary = capsys.readouterr().out
    per_function = json.loads((out / f"verify-{theorem}.json").read_text())["per_function"]
    informative = 0
    for row in per_function:
        if row["lhs"] > 0.0:
            informative += 1
    assert f" informative={informative}/4\n" in summary
    assert summary.split()[-2].startswith("empirical_constant=")


def test_verify_teomo1_summary_counts_the_rows_with_positive_constant(space_file, tmp_path,
                                                                        capsys):
    out = tmp_path / "out"
    corpus = tmp_path / "corpus.json"
    corpus.write_text(json.dumps([[0.0] * 8, [0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 0.0],
                                  [float(i) for i in range(8)], [1.0] * 8]))
    assert main(["verify", "--theorem", "teomo1", "--space", space_file,
                 "--corpus", str(corpus), "--out", str(out)]) == 0
    constants = [float(row["constant"]) for row in
                 json.loads((out / "verify-teomo1.json").read_text())["rows"]]
    informative = sum(c > 0.0 for c in constants)
    assert 0 < informative < 4  # the constant rows give 0
    summary = capsys.readouterr().out
    assert summary.startswith("teomo1: growth=")
    assert summary.endswith(f" informative={informative}/4\n")


def test_cli_verify_teomo1_rows_are_float_literals(space_file, tmp_path):
    out = tmp_path / "out"
    assert main(["verify", "--theorem", "teomo1", "--space", space_file,
                 "--corpus", '{"generator": "lipschitz-noise", "count": 3}',
                 "--seed", "2", "--out", str(out)]) == 0
    payload = json.loads((out / "verify-teomo1.json").read_text())
    with open(out / "verify-teomo1.csv") as fh:
        csv_rows = list(csv.DictReader(fh))
    literals = [row["constant"] for row in payload["rows"] + csv_rows]
    assert len(literals) == 6
    assert all(repr(float(text)) == text for text in literals)


def test_cli_uncertified_lp_exits_4_with_dump(space_file, tmp_path, capsys, monkeypatch):
    solve = smoothness._run

    def halved_duals(*args, **kwargs):
        res = solve(*args, **kwargs)
        res.duals = 0.5 * res.duals
        return res

    monkeypatch.setattr(smoothness, "_run", halved_duals)
    rc = main(["verify", "--theorem", "teomo1", "--space", space_file,
               "--corpus", '{"generator": "lipschitz-noise", "count": 3}',
               "--seed", "2", "--out", str(tmp_path / "out")])
    assert rc == 4
    err = capsys.readouterr().err
    assert err.startswith("solver failure: duality gap")
    path = Path(err.strip().rsplit("instance dumped to ", 1)[1])
    assert path.is_file()
    path.unlink()


@pytest.mark.parametrize("command, files", [
    (["collapse-sweep", "--eps", "1,0"], {}),
    (["space-info"], {"space": {"dist": [[0, 1], [2, 0]], "weights": [1, 1]}}),
    (["besov", "--grid-ratio", "1"], {}),
    (["norms", "--corpus", '{"generator": "nope"}'], {}),
    (["norms"], {"corpus": [[0.0, 1.0, 2.0]]}),
    (["verify", "--theorem", "teomo1"], {"corpus": [[0.0, math.nan] + [1.0] * 6]}),
    (["norms", "--spec", '{"family": "lp"}'], {}),
    (["norms", "--spec", '{"p": 1}'], {}),
    (["norms", "--spec", "[1]"], {}),
    (["norms", "--spec", '{"family": "lambda_w", "q": 1, "w": 3}'], {}),
    (["space-info"], {"space": {"dist": [[0, 1], [1, 0]]}}),
    (["space-info"], {"space": [[0, 1], [1, 0]]}),
    (["space-info"], {"space": {"metric": "graph", "edges": [[0, 5]], "weights": [1, 1]}}),
    (["norms", "--corpus", '{"generator": "random-uniform", "count": "x"}'], {}),
    (["norms", "--spec", '{"family": "lp", "p": "x"}'], {}),
    (["norms", "--spec", '{"family": "lp", "p": [1]}'], {}),
    (["norms", "--spec", '{"family": "lp", "p": 1, "convexify": "x"}'], {}),
    (["norms", "--spec", '{"family": "lambda_w", "q": 1, "w": {"a": "x"}}'], {}),
    (["norms", "--spec", '{"family": "orlicz", "Phi": {"kind": "power", "p": [2]}}'], {}),
    (["space-info"], {"space": {"dist": [[0, 1], [1]], "weights": [1, 1]}}),
    (["space-info"], {"space": {"dist": [[0, 1], [1, 0]], "weights": 5}}),
    (["space-info"], {"space": {"metric": "graph", "edges": [[0, "x"]], "weights": [1, 1]}}),
    (["norms"], {"corpus": [[0.0, [1.0]] + [1.0] * 6]}),
    (["norms", "--corpus", '{"generator": "random-uniform", "count": 0}'], {}),
    (["verify", "--theorem", "teomo1", "--corpus", '{"generator": "indicators", "count": -2}'],
     {}),
    (["kfun", "--t-count", "0"], {}),
    (["kfun", "--t-count", "-3"], {}),
    (["collapse-sweep", "--eps", "1,x"], {}),
    (["collapse-sweep", "--eps", "1,inf"], {}),
    (["space-info"], {"space": {"metric": "graph", "edges": [[0, 1]], "weights": [1e308, 1e308]}}),
    (["regimes", "--count", "0"], {}),
    (["regimes", "--count", "-5"], {}),
    (["collapse-sweep", "--q", "1e308"], {}),
    *((["verify", "--theorem", theorem, "--q", "1e-308"], {})
      for theorem in ("pesos", "embteo", "lorentzlog")),
    (["kfun", "--alpha", "1e-308"], {}),
    (["kfun", "--t-min", "1e-308"], {}),
    (["kfun", "--t-max", "1e-308"], {}),
    (["regimes", "--q-dim", "inf"], {}),
    (["norms", "--spec", '{"family": "orlicz", "Phi": {"kind": "power", "p": 2, "b": 1}}'], {}),
    # numeric saturation: an overflow or an invalid value is refused, never written as inf or nan
    (["besov", "--q", "1e-9"], {}),
    (["verify", "--theorem", "k1", "--q", "1e-6",
      "--corpus", '{"generator": "random-uniform", "count": 3}'], {}),
    (["norms", "--spec", '{"family": "lorentz", "p": 0.001, "q": 2}'], {}),
    (["norms", "--spec", '{"family": "lorentz_zygmund", "p": 0.01, "r": 1000, "beta": 100}'], {}),
    # the input checks of space._validate, space_from_graph, load_space and build_corpus
    (["space-info"], {"space": {"dist": [[0, 1], [1, 0]], "weights": [1, 1, 1]}}),
    (["space-info"], {"space": {"dist": [[0, math.inf], [math.inf, 0]], "weights": [1, 1]}}),
    (["space-info"], {"space": {"dist": [[1, 1], [1, 0]], "weights": [1, 1]}}),
    (["space-info"], {"space": {"dist": [[0, 0], [0, 0]], "weights": [1, 1]}}),
    (["space-info"], {"space": {"metric": "graph", "edges": [[0, 1, 0]], "weights": [1, 1]}}),
    (["space-info"], {"space": {"metric": "taxicab", "coords": [[0], [1]], "weights": [1, 1]}}),
    (["norms"], {"corpus": {"f": [0.0] * 8}}),
    # a weight scale that leaves a subnormal weight, which keeps only part of its digits
    (["collapse-sweep", "--eps", "1,1e-320"], {}),
    (["collapse-sweep", "--eps", "1,1e-310"], {}),
    # the oscillation functional at q = 3000: its q-th power sum is taken in logs, but the
    # kernel integrates its weight's q-th power directly, and that integrand passes e^700
    (["collapse-sweep", "--q", "3000"], {}),
    (["verify", "--theorem", "k1", "--q", "3000"],
     {"space": {"metric": "graph", "edges": [[i, i + 1] for i in range(7)],
                "weights": [0.1] * 8}}),
    # the gauge m(0.1) is about 1e682: its integrand passes e^700, where it was once clamped
    (["verify", "--theorem", "pesos", "--alpha", "0.999", "--q", "1"],
     {"space": {"metric": "graph", "edges": [[i, i + 1] for i in range(7)],
                "weights": [0.05] * 8}}),
])
def test_cli_config_errors_exit_2_without_traceback(space_file, tmp_path, capsys,
                                                    command, files):
    paths = {"space": space_file}
    for name, content in files.items():
        paths[name] = str(tmp_path / f"{name}.json")
        Path(paths[name]).write_text(json.dumps(content))
    argv = command + ["--out", str(tmp_path / "out")]
    if command[0] != "regimes":
        argv += ["--space", paths["space"]]
    if "corpus" in paths:
        argv += ["--corpus", paths["corpus"]]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def _besov_cells(space_file, spec, alpha, s, q):
    """The 50-digit scale sums of the program's modulus profiles of the default tents."""
    sp = load_space(space_file)
    corpus, _labels = build_corpus(sp, {"generator": "tents-at-all-centers"}, 0)
    return [mp_scale_sum(smoothness.modulus_profile(sp, f, spec, alpha), s, q) for f in corpus]


@pytest.mark.parametrize("q", ["100", "200", "500", "3000", "1e308"])
def test_cli_besov_at_large_q_is_the_finite_scale_sum(space_file, tmp_path, q):
    out = tmp_path / "out"
    assert main(["besov", "--space", space_file, "--q", q, "--out", str(out)]) == 0
    got = [float(row["seminorm"]) for row in json.loads((out / "besov.json").read_text())["rows"]]
    want = _besov_cells(space_file, lp(1.0), 1.0, 0.5, float(q))
    assert all(0.0 < g < math.inf for g in got)
    assert got == pytest.approx([float(w) for w in want], rel=1e-12, abs=0.0)


@pytest.mark.parametrize("theorem, lhs", [("k1", 0.0), ("teolp", 0.0), ("pesos", 1.0),
                                          ("embteo", 1.0), ("lorentzlog", 1.0)])
def test_cli_verify_at_q_1e308_gives_finite_values(space_file, tmp_path, theorem, lhs):
    # The tents on the unit-weight path have f* = 1 on [0, m) with m >= 1, then 0: the
    # oscillation over (0, 1) is exactly 0, and each weighted target of f* is 1 at any q.
    out = tmp_path / "out"
    assert main(["verify", "--theorem", theorem, "--space", space_file, "--q", "1e308",
                 "--out", str(out)]) == 0
    rows = json.loads((out / f"verify-{theorem}.json").read_text())["per_function"]
    assert [row["lhs"] for row in rows] == [lhs] * 8
    assert all(0.0 < row["rhs"] < math.inf for row in rows)
    if theorem == "k1":  # rhs = the scale sum plus the split norm, int_0^1 f* = 1
        want = _besov_cells(space_file, lp(1.0), 1.0, 0.5, 1e308)
        assert [row["rhs"] for row in rows] == pytest.approx([float(w) + 1.0 for w in want],
                                                             rel=1e-12, abs=0.0)


@pytest.mark.parametrize("theorem, lhs", [("pesos", 0.5), ("lorentzlog", 0.49894836547105965)],
                         ids=["pesos", "lorentzlog"])
def test_cli_verify_at_q_3000_gives_the_target_value(space_file, tmp_path, theorem, lhs):
    # f* = 0.5 on [0, 4), then 0.25: the q-th powers of the target's sum underflow at
    # q = 3000, and the sum is taken in logs.  The lorentzlog value is mpmath's.
    corpus = tmp_path / "corpus.json"
    corpus.write_text(json.dumps([[0.5] * 4 + [0.25] * 4]))
    out = tmp_path / "out"
    assert main(["verify", "--theorem", theorem, "--q", "3000", "--space", space_file,
                 "--corpus", str(corpus), "--out", str(out)]) == 0
    (row,) = json.loads((out / f"verify-{theorem}.json").read_text())["per_function"]
    assert row["lhs"] == pytest.approx(lhs, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("spec, want", [
    ({"family": "lp", "p": 400}, 0.1),
    ({"family": "lorentz", "p": 1.5, "q": 400}, 0.098613205966395361),
    ({"family": "lorentz_zygmund", "p": 1.5, "r": 400, "beta": 0.5}, 0.098945705908586133),
    ({"family": "lambda_w", "q": 400, "w": {"a": 0, "b": 1}}, 0.10017343702346959),
], ids=["lp", "lorentz", "lorentz_zygmund", "lambda_w"])
def test_cli_norms_at_exponent_400_are_mpmath_values(space_file, tmp_path, spec, want):
    corpus = tmp_path / "corpus.json"
    corpus.write_text(json.dumps([[0.1, 0.05, 0.02, 0.01, 0.0, 0.0, 0.0, 0.0]]))
    out = tmp_path / "out"
    assert main(["norms", "--space", space_file, "--spec", json.dumps(spec),
                 "--corpus", str(corpus), "--out", str(out)]) == 0
    (row,) = json.loads((out / "norms.json").read_text())["rows"]
    assert float(row["quasi_norm"]) == pytest.approx(want, rel=1e-13, abs=0.0)


def test_cli_names_the_weight_and_panel_of_a_refused_integrand(tmp_path, capsys):
    # the pesos gauge m(0.1) is about 1e682; its integrand was once clamped at e^700,
    # and the check wrote tent0 lhs 0.49611 where mpmath gives 0.20764
    space = tmp_path / "space.json"
    space.write_text(json.dumps({"metric": "graph", "edges": [[i, i + 1] for i in range(7)],
                                 "weights": [0.05] * 8}))
    assert main(["verify", "--theorem", "pesos", "--alpha", "0.999", "--q", "1",
                 "--space", str(space), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: FloatingPointError: overflow: the integrand of "
                        r"PowerLog\(a=-684\.85\d*, b=-0\.0, g=-0\.0\) passes e\^700 "
                        r"on the panel t in \(0\.1, 1\)\n", err)


def test_cli_collapse_sweep_counts_its_informative_rows(space_file, tmp_path, capsys):
    assert main(["collapse-sweep", "--space", space_file, "--eps", "1,0.1",
                 "--out", str(tmp_path / "out")]) == 0
    at_one, at_tenth = capsys.readouterr().out.splitlines()
    # each tent is 1 on its unit ball, of mass >= 1: f* is constant on (0, 1) at eps = 1
    assert at_one.startswith("eps=1 b=1 ") and at_one.endswith(" informative=0/8")
    assert at_tenth.startswith("eps=0.1 b=0.1 ")
    informative = int(at_tenth.rsplit("informative=", 1)[1].split("/")[0])
    assert 0 < informative <= 8
    header = (tmp_path / "out" / "collapse-sweep.csv").read_text().splitlines()[0]
    assert header == "eps,b,empirical_constant"


def test_verify_infinito_refusal_exit_code(space_file, tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["verify", "--theorem", "infinito", "--space", space_file,
               "--spec", '{"family": "lp", "p": 2.0}', "--s", "0.3",
               "--q", "2.0", "--out", str(out)])
    assert rc == 3
    captured = capsys.readouterr()
    assert "m(0)" in captured.err


def test_verify_pesos_refuses_a_spec_whose_norm_weight_fails_the_integral_condition(tmp_path,
                                                                                   capsys):
    """At q <= alpha the u-weight is t^(-s/Q) phi(t) = (1 + ln(1/t))^(-1/2) here."""
    space = tmp_path / "grid.json"
    space.write_text(json.dumps({"coords": [[i, j] for i in range(4) for j in range(4)],
                                 "metric": "euclidean", "weights": [1.0] * 16}))
    q_dim = diagnostics(load_space(str(space))).q_dim
    spec = {"family": "marcinkiewicz", "phi": {"a": 0.4 / q_dim, "b": -0.5}}
    assert main(["verify", "--theorem", "pesos", "--space", str(space),
                 "--spec", json.dumps(spec), "--s", "0.4", "--q", "0.8",
                 "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("refused: u-weight fails its integral condition at t -> 0")


@pytest.mark.parametrize("command", [["verify", "--theorem", "k1"], ["collapse-sweep"]])
@pytest.mark.parametrize("spec", [
    {"family": "orlicz", "Phi": {"kind": "power_log", "p": 2, "b": 1}},
    {"family": "lambda_w", "q": 2, "w": {"a": -1.5}},
])
def test_cli_norm_without_closed_form_exits_3(space_file, tmp_path, capsys, command, spec):
    rc = main(command + ["--space", space_file, "--spec", json.dumps(spec),
                         "--out", str(tmp_path / "out")])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("refused: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["norms", "modulus", "besov", "kfun"])
@pytest.mark.parametrize("w", [{"a": -2}, {"a": -1}, {"a": -1, "b": -0.5}])
def test_cli_lambda_w_weight_not_integrable_at_0_is_refused(space_file, tmp_path, capsys,
                                                            command, w):
    spec = {"family": "lambda_w", "q": 1, "w": w}
    rc = main([command, "--space", space_file, "--spec", json.dumps(spec),
               "--out", str(tmp_path / "out")])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("refused: ") and err.count("\n") == 1


def test_cli_determinism_byte_identical(space_file, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    args = ["verify", "--theorem", "k1", "--space", space_file,
            "--corpus", '{"generator": "lipschitz-noise", "count": 4}',
            "--seed", "7"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    for name in ("verify-k1.csv", "verify-k1.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_cli_modulus_and_besov_artifacts(space_file, tmp_path):
    out = tmp_path / "out"
    base = ["--space", space_file, "--corpus",
            '{"generator": "tents-at-all-centers"}', "--out", str(out)]
    assert main(["modulus"] + base) == 0
    assert main(["besov"] + base) == 0
    assert (out / "modulus.csv").exists()
    rows = (out / "besov.csv").read_text().strip().splitlines()
    assert len(rows) == 9  # header + one row per tent


def test_cli_kfun_exact_column(two_point_file, tmp_path):
    out = tmp_path / "out"
    corpus = tmp_path / "corpus.json"
    corpus.write_text(json.dumps([[0.0, 1.0]]))
    assert main(["kfun", "--space", two_point_file, "--corpus", str(corpus),
                 "--out", str(out), "--t-count", "3"]) == 0
    payload = json.loads((out / "kfun.json").read_text())
    assert all(row["exact"] != "" for row in payload["rows"])


def test_cli_regimes_table(tmp_path):
    out = tmp_path / "out"
    assert main(["regimes", "--out", str(out), "--count", "50", "--seed", "3"]) == 0
    lines = (out / "regimes.csv").read_text().strip().splitlines()
    assert len(lines) == 51


def test_cli_collapse_sweep(space_file, tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["collapse-sweep", "--space", space_file, "--eps", "1,0.1",
               "--corpus", '{"generator": "tents-at-all-centers"}',
               "--out", str(out)])
    assert rc == 0
    payload = json.loads((out / "collapse-sweep.json").read_text())
    assert [row["eps"] for row in payload["rows"]] == [1.0, 0.1]


def test_cli_norm_table_rederivable(space_file, tmp_path):
    out = tmp_path / "out"
    assert main(["norms", "--space", space_file, "--corpus",
                 '{"generator": "random-uniform", "count": 3}', "--seed", "5",
                 "--spec", '{"family": "lp", "p": 2.0}', "--out", str(out)]) == 0
    import csv as csvmod

    from oscembed import load_space, lp, quasi_norm, rearrangement
    from oscembed.corpus import build_corpus

    sp = load_space(space_file)
    corpus, _ = build_corpus(sp, {"generator": "random-uniform", "count": 3}, 5)
    with open(out / "norms.csv") as fh:
        rows = list(csvmod.DictReader(fh))
    for row, f in zip(rows, corpus):
        assert float(row["quasi_norm"]) == pytest.approx(
            quasi_norm(lp(2.0), rearrangement(sp, f)), rel=1e-12)


def test_indicators_corpus_is_seeded_ball_masks():
    from oscembed import grid_space
    from oscembed.corpus import build_corpus

    sp = grid_space(4, 4)
    spec = {"generator": "indicators", "count": 6}
    corpus, labels = build_corpus(sp, spec, 3)
    assert labels == [f"ind{i}" for i in range(6)]
    for f in corpus:
        inside = f == 1.0
        assert np.all(inside | (f == 0.0)) and inside.any()
        assert any(np.array_equal(inside, sp.dist[x] <= sp.dist[x][inside].max())
                   for x in np.flatnonzero(inside))
    again, _ = build_corpus(sp, spec, 3)
    assert all(np.array_equal(f, g) for f, g in zip(corpus, again))
    other, _ = build_corpus(sp, spec, 4)
    assert not all(np.array_equal(f, g) for f, g in zip(corpus, other))


@pytest.mark.parametrize("case, named", [
    ("spec", "--spec"), ("space", "missing.json"), ("corpus", "missing.json"),
    ("space-json", "broken.json"), ("corpus-json", "broken.json"),
])
def test_cli_unreadable_inputs_exit_2_naming_the_input(space_file, tmp_path, capsys,
                                                       case, named):
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    missing = str(tmp_path / "missing.json")
    space, extra = space_file, []
    if case == "spec":
        extra = ["--spec", '{"family": "lp", "p": 1']
    elif case == "space":
        space = missing
    elif case == "corpus":
        extra = ["--corpus", missing]
    elif case == "space-json":
        space = str(broken)
    else:
        extra = ["--corpus", str(broken)]
    assert main(["norms", "--space", space, "--out", str(tmp_path / "out"), *extra]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert named in err


@pytest.mark.parametrize("bounds", [["--t-max", "inf"], ["--t-min", "0"], ["--t-min", "nan"]])
def test_cli_kfun_refuses_a_t_grid_that_is_not_positive_and_finite(space_file, tmp_path,
                                                                    capsys, bounds):
    rc = main(["kfun", "--space", space_file, "--out", str(tmp_path / "out"), *bounds])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


# The arguments, beyond --out, --space and --corpus, with which each subcommand,
# and each theorem of verify, runs to exit 0 on a 2-point space.
_RUNS = {
    "space-info": [],
    "norms": [],
    "modulus": [],
    "besov": [],
    "kfun": ["--t-count", "2"],
    "regimes": ["--count", "5"],
    "collapse-sweep": ["--eps", "1,0.5"],
}
_THEOREM_RUNS = {
    "infinito": ["--spec", '{"family": "lp", "p": "inf"}'],
    "teointerpol": ["--t-count", "2"],
}


def _options_read(argv: list[str]) -> tuple[set[str], set[str]]:
    """The options a run of argv accepts, and those of them its subcommand reads."""
    args = build_parser().parse_args(argv)
    accepted = set(vars(args)) - {"command", "fn"}
    reads = set()

    class Recording(argparse.Namespace):
        def __getattribute__(self, name):
            reads.add(name)
            return super().__getattribute__(name)

    assert args.fn(Recording(**vars(args))) == 0
    return accepted, reads & accepted


@pytest.mark.parametrize("command", sorted(_RUNS) + ["verify"])
def test_cli_subcommands_read_every_option_they_accept(two_point_file, tmp_path, command):
    inputs = ["--out", str(tmp_path / "out")]
    if command != "regimes":
        inputs += ["--space", two_point_file]
    if command not in ("space-info", "regimes"):
        inputs += ["--corpus", '{"generator": "random-uniform", "count": 2}']
    if command == "verify":
        accepted, read = set(), set()
        for theorem in THEOREMS:
            acc, rd = _options_read(["verify", "--theorem", theorem, *inputs,
                                     *_THEOREM_RUNS.get(theorem, [])])
            accepted |= acc
            read |= rd
    else:
        accepted, read = _options_read([command, *inputs, *_RUNS[command]])
    assert read == accepted


_TINY_SPACES = {
    "one-point": {"dist": [[0.0]], "weights": [1.0]},
    "path3": {"metric": "graph", "edges": [[0, 1], [1, 2]], "weights": [1.0, 1.0, 1.0]},
}


@pytest.mark.parametrize("space", sorted(_TINY_SPACES))
@pytest.mark.parametrize("command", sorted(_RUNS) + [f"verify-{t}" for t in THEOREMS])
def test_cli_every_command_gives_a_result_or_a_refusal_on_tiny_spaces(tmp_path, capsys,
                                                                       space, command):
    """Every subcommand and theorem, at its defaults: exit 0, 2 or 3, never a traceback.

    Every JSON it writes, as a file or on stdout, is valid JSON: no Infinity or NaN.
    """
    path = tmp_path / "space.json"
    path.write_text(json.dumps(_TINY_SPACES[space]))
    argv = ["verify", "--theorem", command[len("verify-"):]] if command.startswith("verify-") \
        else [command]
    if command != "regimes":
        argv += ["--space", str(path)]
    assert main(argv + ["--out", str(tmp_path / "out")]) in (0, 2, 3)
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err

    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    texts = [p.read_text() for p in (tmp_path / "out").glob("*.json")]
    if command == "space-info" and captured.out:
        texts.append(captured.out)
    for text in texts:
        json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("command", sorted(set(_RUNS) - {"regimes"})
                         + [f"verify-{t}" for t in THEOREMS])
def test_cli_every_command_on_weights_spanning_2_to_the_63(tmp_path, capsys, command):
    """The 64-point unit path with weights 0.5^i, at the defaults.

    In the rearrangements a light run's mass vanishes beside a heavy one, and
    its step has width 0; every command gives its result, and infinito its
    refusal, for m(0) is infinite at the defaults.
    """
    path = tmp_path / "space.json"
    path.write_text(json.dumps({"metric": "graph", "edges": [[i, i + 1] for i in range(63)],
                                "weights": [0.5**i for i in range(64)]}))
    argv = ["verify", "--theorem", command[len("verify-"):]] if command.startswith("verify-") \
        else [command]
    code = main(argv + ["--space", str(path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    if command == "verify-infinito":
        assert code == 3 and "m(0) is infinite" in err
    else:
        assert (code, err) == (0, "")


# Cells that name a row rather than hold a number: labels, norm specs and regime
# cases, the modulus row past the radius grid, and kfun's exact K where it has none.
_NAME_COLUMNS = ("label", "spec", "case", "subcase")
_NAME_CELLS = (("radius", "tail"), ("exact", ""))


def _is_literal(text: str) -> bool:
    """Whether text is the shortest literal of the int (a count) or float it reads as."""
    try:
        number = int(text) if text.lstrip("-").isdigit() else float(text)
    except ValueError:
        return False
    return repr(number) == text


@pytest.mark.parametrize("command", sorted(_RUNS) + [f"verify-{t}" for t in THEOREMS])
def test_cli_artifact_cells_are_float_literals(tmp_path, command):
    """Every numeric CSV cell and JSON row string is the shortest literal of a float."""
    space = tmp_path / "grid.json"
    space.write_text(json.dumps({"coords": [[i, j] for i in range(4) for j in range(4)],
                                 "metric": "euclidean", "weights": [1.0] * 16}))
    out = tmp_path / "out"
    theorem = command[len("verify-"):] if command.startswith("verify-") else None
    argv = ["verify", "--theorem", theorem, *_THEOREM_RUNS.get(theorem, [])] if theorem \
        else [command, *_RUNS[command]]
    if command != "regimes":
        argv += ["--space", str(space)]
    assert main(argv + ["--out", str(out)]) == 0
    with open(out / f"{command}.csv") as fh:
        cells = [item for row in csv.DictReader(fh) for item in row.items()]
    payload = json.loads((out / f"{command}.json").read_text())
    cells += [item for row in payload.get("rows", []) for item in row.items()
              if isinstance(item[1], str)]
    numbers = [text for column, text in cells
               if column not in _NAME_COLUMNS and (column, text) not in _NAME_CELLS]
    assert numbers
    assert [text for text in numbers if not _is_literal(text)] == []


def test_num_refuses_what_is_not_a_python_int_or_float():
    assert _num(1.5) == "1.5" and _num(3) == "3"
    with pytest.raises(TypeError):
        _num(np.float64(1.0))
