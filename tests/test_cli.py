import contextlib
import io
import json
import subprocess
import sys
import tempfile
import textwrap
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings

from model_strategies import small_models
from rcgibbs import cli, errors
from rcgibbs.cli import main
from rcgibbs.gibbs import gibbs_measure
from rcgibbs.models import spec_from_dict
from rcgibbs.rcr import monotone_base, reconstruct


MODEL = {
    "graph": {"n": 3, "bonds": [[0, 1], [1, 2]]},
    "interaction": {"template": "example1", "J12": 1.0, "J23": 1.0},
}


@pytest.fixture()
def model_file(tmp_path):
    p = tmp_path / "model.json"
    p.write_text(json.dumps(MODEL))
    return str(p)


def run_cli(args):
    return main(args)


def test_example1_exits_zero(tmp_path):
    assert run_cli(["--out", str(tmp_path), "exp", "example1"]) == 0
    payload = json.loads((tmp_path / "results.json").read_text())
    assert payload["results"]["all_counterexample"] is True
    assert "config" in payload and payload["config"]["exp_command"] == "example1"


def test_missing_seed_in_mc_mode_is_usage_error(tmp_path, model_file):
    rc = run_cli(
        ["--out", str(tmp_path), "perc", "ibar", "--model", model_file, "--A", "0", "--B", "2", "--mc", "100"]
    )
    assert rc == 2


def test_unknown_flag_exits_two(tmp_path, model_file, capsys):
    # argparse's own errors: exit 2 and one line on stderr
    model = ["--model", model_file]
    for argv in (
        ["exp", "example1", "--bogus"],
        ["perc", "ibar", *model, "--A", "0", "--B", "2", "--exact"],
        ["rcr", "solve", *model, "--monotone"],
        ["rcr", "check", *model, "--roundtrip"],
        ["twocopy", "slice", *model],  # --sigma missing
    ):
        with pytest.raises(SystemExit) as exc:
            run_cli(["--out", str(tmp_path), *argv])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error: " in err and err.count("\n") == 1, err


def test_cap_violation_exits_three(tmp_path, capsys):
    # the 6x6 grid passes the two-copy pair cap; the complete graph on 8
    # vertices has 2**16 pairs but would expand 3.3e8 pattern leaves; the
    # 6x5 grid's all-zero slice holds 2**30 configurations
    k8 = [[u, v] for u in range(8) for v in range(u + 1, 8)]
    cases = [
        ({"grid": "6x6"}, ["perc", "ibar", "--A", "0", "--B", "35"]),
        ({"n": 8, "bonds": k8}, ["perc", "ibar", "--A", "0", "--B", "1"]),
        ({"grid": "6x5"}, ["twocopy", "slice", "--sigma", ",".join(["0"] * 30)]),
    ]
    for graph, argv in cases:
        p = tmp_path / "big.json"
        p.write_text(json.dumps({"graph": graph, "interaction": {"template": "ising", "J": 0.5}}))
        rc = run_cli(["--out", str(tmp_path), *argv[:2], "--model", str(p), *argv[2:]])
        err = capsys.readouterr().err
        assert rc == 3, (argv, err)
        assert err.startswith("resource cap: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("grid", ["0:1e30:1", "0:1:1e-300", "0:65536:1"])
def test_oversized_cayley_grid_exits_three(tmp_path, capsys, grid):
    # the points are counted before the grid is built: 1e30, about 1e300,
    # and 65,537, one past the cap
    assert run_cli(["--out", str(tmp_path), "exp", "cayley", "--J-grid", grid]) == 3
    err = capsys.readouterr().err
    assert err.startswith("resource cap: ") and "J-grid points" in err and err.count("\n") == 1, err
    assert not (tmp_path / "results.json").exists()


def test_cayley_grid_is_counted_once_for_the_cap_and_the_build(tmp_path, capsys, monkeypatch):
    # the default grid and the README's --J-grid are the same points
    # a + i*s; with the cap at 3, the four points of 0:0.3:0.1 are refused
    for name, argv in (("default", []), ("grid", ["--J-grid", "0.1:2.0:0.05"])):
        assert run_cli(["--out", str(tmp_path / name), "exp", "cayley", *argv]) == 0
    default, grid = (json.loads((tmp_path / n / "results.json").read_text()) for n in ("default", "grid"))
    assert len(grid["results"]["rows"]) == 39
    assert grid["results"] == default["results"]
    monkeypatch.setitem(errors.CAPS, "J-grid points", 3)
    capsys.readouterr()
    assert run_cli(["--out", str(tmp_path / "capped"), "exp", "cayley", "--J-grid", "0:0.3:0.1"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("resource cap: 4 J-grid points") and err.count("\n") == 1, err
    assert not (tmp_path / "capped").exists()


@pytest.mark.parametrize("grid", ["1:0:0.5", "1e308:-1e308:1"])
def test_descending_cayley_grid_has_no_rows(tmp_path, grid):
    # b < a gives no points, also when b - a overflows to -inf
    assert run_cli(["--out", str(tmp_path), "exp", "cayley", "--J-grid", grid]) == 0
    assert json.loads((tmp_path / "results.json").read_text())["results"]["rows"] == []


def test_bad_model_file_exits_two(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    rc = run_cli(["--out", str(tmp_path), "gibbs", "eval", "--model", str(p)])
    assert rc == 2


def test_exact_ibar_and_csv_schema(tmp_path, model_file):
    out = tmp_path / "run"
    rc = run_cli(
        ["--out", str(out), "--format", "csv", "perc", "ibar",
         "--model", model_file, "--A", "0", "--B", "2"]
    )
    assert rc == 0
    payload = json.loads((out / "results.json").read_text())
    assert abs(payload["results"]["estimate"] - 0.026694033379259074) < 1e-12
    lines = (out / "table.csv").read_text().splitlines()
    assert lines[0] == "sigma,rho,p_connect"
    assert len(lines) > 1


def test_csv_empty_rows_header_only(tmp_path, model_file):
    out = tmp_path / "run"
    rc = run_cli(
        ["--out", str(out), "--format", "csv", "rcr", "check",
         "--model", model_file]
    )
    assert rc == 0
    assert (out / "table.csv").read_text() == "\n" or (out / "table.csv").read_text() == ""


def test_emit_writes_numpy_fraction_and_set_values_as_plain_json(tmp_path):
    values = {
        "fraction": Fraction(1, 4),
        "int": np.int64(7),
        "bool": np.bool_(True),
        "float": np.float64(0.1),
        "set": frozenset({3, 1, 2}),
        "array": np.array([[1, 2], [3, 4]]),
    }
    cli.emit(values, {"seed": np.int64(5)}, tmp_path / "json")
    assert (tmp_path / "json" / "results.json").read_text() == textwrap.dedent(f"""\
        {{
          "config": {{
            "seed": 5
          }},
          "results": {{
            "array": [
              [
                1,
                2
              ],
              [
                3,
                4
              ]
            ],
            "bool": true,
            "float": 0.1,
            "fraction": 0.25,
            "int": 7,
            "set": [
              1,
              2,
              3
            ]
          }},
          "version": "{cli.__version__}"
        }}
        """)
    cli.emit({"rows": [values]}, {}, tmp_path / "csv", fmt="csv")
    assert (tmp_path / "csv" / "table.csv").read_bytes() == (
        b'fraction,int,bool,float,set,array\r\n0.25,7,True,0.1,"[1, 2, 3]","[[1, 2], [3, 4]]"\r\n'
    )


def test_same_seed_byte_identical(tmp_path, model_file):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        rc = run_cli(
            ["--out", str(out), "--seed", "42", "perc", "ibar",
             "--model", model_file, "--A", "0", "--B", "2", "--mc", "400"]
        )
        assert rc == 0
        outs.append((out / "results.json").read_bytes())
    assert outs[0] == outs[1]


def test_mc_results_report_the_equilibration(tmp_path, model_file):
    out = tmp_path / "mc"
    assert run_cli(["--out", str(out), "--seed", "1", "perc", "ibar", "--model", model_file,
                    "--A", "0", "--B", "2", "--mc", "400"]) == 0
    eq = json.loads((out / "results.json").read_text())["results"]["equilibration"]
    assert set(eq) == {"burn_in", "tau", "equilibrated"}
    assert 32 <= eq["burn_in"] < 300 and eq["tau"] >= 1 and eq["equilibrated"] is True


def test_thread_count_does_not_change_bytes(tmp_path, model_file):
    blobs = []
    for threads in ("1", "4"):
        out = tmp_path / f"t{threads}"
        rc = run_cli(
            ["--out", str(out), "--seed", "7", "--threads", threads,
             "perc", "ibar", "--model", model_file, "--A", "0", "--B", "2", "--mc", "400"]
        )
        assert rc == 0
        blobs.append((out / "results.json").read_bytes())
    assert blobs[0] == blobs[1]


def test_timing_sidecar_only_with_flag(tmp_path, model_file):
    out1 = tmp_path / "no_meta"
    run_cli(["--out", str(out1), "exp", "example1"])
    assert not (out1 / "meta.json").exists()
    out2 = tmp_path / "with_meta"
    run_cli(["--out", str(out2), "--timing", "exp", "example1"])
    assert (out2 / "meta.json").exists()


def test_gibbs_eval_report(tmp_path, model_file):
    out = tmp_path / "run"
    rc = run_cli(["--out", str(out), "gibbs", "eval", "--model", model_file])
    assert rc == 0
    payload = json.loads((out / "results.json").read_text())
    assert payload["results"]["n_states"] == 8
    assert len(payload["results"]["rows"]) == 8


def test_model_file_boundary_defaults_region(tmp_path):
    # with region "all", boundary vertices are treated as exterior
    model = {
        "graph": {"n": 3, "bonds": [[0, 1], [1, 2]]},
        "interaction": {"template": "ising", "J": 0.9},
        "boundary": {"2": 1},
    }
    p = tmp_path / "m.json"
    p.write_text(json.dumps(model))
    out = tmp_path / "run"
    assert run_cli(["--out", str(out), "gibbs", "eval", "--model", str(p)]) == 0
    payload = json.loads((out / "results.json").read_text())
    assert payload["results"]["region"] == [0, 1]
    assert payload["results"]["n_states"] == 4


@pytest.mark.parametrize("template", [
    {"template": "example1", "J12": 1.0, "J23": 1.0},
    {"template": "ising", "J": 0.9},
])
def test_model_file_boundary_reaches_every_template(tmp_path, capsys, template):
    # example1 builds its own graph; it still takes the file's boundary and
    # region, and a boundary vertex outside the graph is a usage error
    model = {"graph": {"n": 3, "bonds": [[0, 1], [1, 2]]}, "interaction": template}
    p = tmp_path / "m.json"
    p.write_text(json.dumps({**model, "boundary": {"2": 1}}))
    assert run_cli(["--out", str(tmp_path / "ok"), "gibbs", "eval", "--model", str(p)]) == 0
    payload = json.loads((tmp_path / "ok" / "results.json").read_text())
    assert payload["results"]["region"] == [0, 1]
    p.write_text(json.dumps({**model, "boundary": {"9": 1}}))
    capsys.readouterr()
    assert run_cli(["--out", str(tmp_path / "bad"), "gibbs", "eval", "--model", str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "boundary vertex 9" in err and err.count("\n") == 1, err
    assert not (tmp_path / "bad" / "results.json").exists()


@pytest.mark.parametrize("n", ["0", "-3"])
def test_sweep_needs_at_least_one_model(tmp_path, capsys, n):
    assert run_cli(["--out", str(tmp_path), "exp", "sweep", "--n", n]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not (tmp_path / "results.json").exists()


EA_BAD = [
    ["--L", "1"],
    ["--L", "300"],
    ["--L", "3", "--periodic"],  # the checkerboard does not colour an odd torus
    ["--seeds", "0"],
    ["--samples", "0"],
    ["--sweeps", "-5"],
    ["--J", "nan"],
    ["--beta", "inf"],
]


@pytest.mark.parametrize("argv", EA_BAD, ids=[" ".join(a) for a in EA_BAD])
def test_ea_bad_arguments_exit_two(tmp_path, capsys, argv):
    assert run_cli(["--out", str(tmp_path), "exp", "ea", "--seed", "0", "--L", "4", "--sweeps", "2", *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not (tmp_path / "results.json").exists()


# 2x2 Ising grids: exp(1000) overflows a bond factor, J = 400 a configuration
# weight and J = 150 a two-copy pair weight; at J = 190 the lower level of a
# bond's activity coin underflows on the Monte Carlo route
NUMERIC_MODELS = {f"@J{J}": {"graph": {"grid": "2x2"}, "interaction": {"template": "ising", "J": J}}
                  for J in (1000, 400, 190, 150)}
NUMERIC_BAD = [
    *([*cmd, "--model", "@J1000"] for cmd in (["gibbs", "eval"], ["twocopy", "rho"], ["rcr", "check"])),
    ["perc", "ibar", "--model", "@J1000", "--A", "0", "--B", "3"],
    ["gibbs", "eval", "--model", "@J400"],
    ["twocopy", "rho", "--model", "@J150"],
    ["perc", "ibar", "--model", "@J150", "--A", "0", "--B", "3"],
    ["perc", "ibar", "--model", "@J190", "--A", "0", "--B", "3", "--mc", "50", "--seed", "1"],
    ["exp", "hardcore", "--a=-1"],
    ["exp", "hardcore", "--a=nan"],
    ["exp", "hardcore", "--a=inf"],
    ["exp", "hardcore", "--a=1e300"],
    ["exp", "example2", "--J12=nan"],
    ["exp", "example2", "--J12=1000"],
]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("argv", NUMERIC_BAD, ids=[" ".join(a) for a in NUMERIC_BAD])
def test_numeric_input_errors_exit_two(tmp_path, capsys, argv):
    for name, model in NUMERIC_MODELS.items():
        (tmp_path / name).write_text(json.dumps(model))
    argv = [str(tmp_path / a) if a in NUMERIC_MODELS else a for a in argv]
    assert run_cli(["--out", str(tmp_path / "out"), *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not (tmp_path / "out" / "results.json").exists()


def test_heat_bath_weight_overflow_exits_two(tmp_path, capsys):
    # on the 3x3 Ising grid at J = 180 the activity coins are still
    # representable, but the heat-bath table's conditional weights overflow
    model = tmp_path / "J180.json"
    model.write_text(json.dumps({"graph": {"grid": "3x3"}, "interaction": {"template": "ising", "J": 180}}))
    argv = ["perc", "ibar", "--model", str(model), "--mc", "50", "--seed", "1", "--A", "0", "--B", "8"]
    assert run_cli(["--out", str(tmp_path / "out"), *argv]) == 2
    assert capsys.readouterr().err == "error: conditional weight overflow; rescale couplings\n"
    assert not (tmp_path / "out" / "results.json").exists()


def test_gibbs_eval_large_model_site_means(tmp_path):
    # 18 spins routes through the array-backed distribution
    model = {"graph": {"grid": "6x3"}, "interaction": {"template": "ising", "J": 0.3}}
    p = tmp_path / "big.json"
    p.write_text(json.dumps(model))
    out = tmp_path / "run"
    assert run_cli(["--out", str(out), "gibbs", "eval", "--model", str(p)]) == 0
    payload = json.loads((out / "results.json").read_text())
    assert "rows" not in payload["results"]
    means = payload["results"]["site_means"]
    assert len(means) == 18 and all(abs(m) < 1e-9 for m in means)


def test_twocopy_commands(tmp_path, model_file):
    out = tmp_path / "rho"
    assert run_cli(["--out", str(out), "twocopy", "rho", "--model", model_file]) == 0
    payload = json.loads((out / "results.json").read_text())
    assert payload["results"]["n_sigma"] == 27
    out = tmp_path / "slice"
    assert run_cli(
        ["--out", str(out), "twocopy", "slice", "--model", model_file, "--sigma", "0,0,0"]
    ) == 0
    payload = json.loads((out / "results.json").read_text())
    assert payload["results"]["symmetry_defect"] == 0.0


def test_rcr_solve_monotone(tmp_path, model_file):
    out = tmp_path / "solve"
    assert run_cli(["--out", str(out), "rcr", "solve", "--model", model_file]) == 0
    payload = json.loads((out / "results.json").read_text())
    rows = payload["results"]["rows"]
    assert len(rows) == 2
    assert abs(rows[0]["probs"][0] - (1 - 2.718281828459045**-1.0)) < 1e-12


def test_rcr_solve_subsets_round_trip_and_bad_files(tmp_path, model_file):
    out = tmp_path / "solve"
    assert run_cli(["--out", str(out), "rcr", "solve", "--model", model_file]) == 0
    rows = json.loads((out / "results.json").read_text())["results"]["rows"]
    # the masks rcr solve prints, fed back, solve to the same probabilities
    good = tmp_path / "subsets.json"
    good.write_text(json.dumps([r["subsets"] for r in rows]))
    custom = ["rcr", "solve", "--model", model_file, "--subsets"]
    assert run_cli(["--out", str(tmp_path / "custom"), *custom, str(good)]) == 0
    got = json.loads((tmp_path / "custom" / "results.json").read_text())["results"]["rows"]
    assert [r["subsets"] for r in got] == [r["subsets"] for r in rows]
    assert [r["probs"] for r in got] == [r["probs"] for r in rows]
    bad = {
        "malformed": "{not json",
        "not_a_list": json.dumps({"a": 1}),
        "not_masks": json.dumps([["a"], [15]]),
        "no_masks": json.dumps([[], [15]]),
        "too_few_bonds": json.dumps([[1, 15]]),
        "too_many_bonds": json.dumps([[1, 15], [8, 15], [15]]),
        "split_level": json.dumps([[3, 15], [8, 15]]),  # 0b0011 splits bond 0's lower level
    }
    for name, text in bad.items():
        path = tmp_path / f"{name}.json"
        path.write_text(text)
        assert run_cli(["--out", str(tmp_path / name), *custom, str(path)]) == 2, name
    assert run_cli(["--out", str(tmp_path / "missing"), *custom, str(tmp_path / "missing.json")]) == 2


def test_violation_finding_exits_one(tmp_path, model_file):
    # an unmeetable tolerance turns the round-trip check into a finding; the
    # model's round trip is exact (error 0.0), so only a negative one is
    out = tmp_path / "run"
    rc = run_cli(
        ["--out", str(out), "--tolerance", "-1", "rcr", "check",
         "--model", model_file]
    )
    assert rc == 1
    payload = json.loads((out / "results.json").read_text())
    assert payload["results"]["violations"] == 1


def test_unwritable_output_exits_two(model_file):
    rc = run_cli(
        ["--out", "/proc/definitely/not/writable", "exp", "example1"]
    )
    assert rc == 2


def test_unexpected_error_exits_four(tmp_path, model_file, monkeypatch, capsys):
    def crash(args):
        raise RuntimeError("unexpected")

    monkeypatch.setattr(cli, "cmd_twocopy_rho", crash)
    rc = run_cli(["--out", str(tmp_path), "twocopy", "rho", "--model", model_file])
    assert rc == 4
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "RuntimeError" in err and "Traceback" not in err


@pytest.mark.parametrize("n", [12, 13, 16, 17])
def test_commands_across_state_thresholds(tmp_path, capsys, n):
    # Ising chains on both sides of 4096 and 2**16 states
    model = {"graph": {"grid": f"{n}x1"}, "interaction": {"template": "ising", "J": 0.4}}
    p = tmp_path / "chain.json"
    p.write_text(json.dumps(model))
    for cmd in (["gibbs", "eval"], ["rcr", "check"], ["twocopy", "rho"]):
        out = tmp_path / cmd[1]
        rc = run_cli(["--out", str(out), *cmd, "--model", str(p)])
        assert rc in (0, 1, 2, 3), (cmd, rc)
        if cmd[0] == "rcr":
            assert rc == 0
            assert json.loads((out / "results.json").read_text())["results"]["violations"] == 0
    # the all-zero overlap's slice holds all 2**n configurations
    zeros = ",".join(["0"] * n)
    for cmd in (["twocopy", "slice", "--sigma", zeros], ["rcr", "solve"]):
        rc = run_cli(["--out", str(tmp_path / "-".join(cmd[:2])), *cmd[:2], "--model", str(p), *cmd[2:]])
        assert rc in (0, 3), (cmd, rc)
        assert "Traceback" not in capsys.readouterr().err
    # exact P(0 <-> n-1) passes the 2**20 two-copy cap from n = 11 on; the
    # Monte Carlo route labels 64 samples of the (n-1)-bond chain at every n
    ends = ["--A", "0", "--B", str(n - 1)]
    rc = run_cli(["--out", str(tmp_path / "exact"), "perc", "ibar", "--model", str(p), *ends])
    assert rc == (3 if n >= 11 else 0)
    out = tmp_path / "mc"
    assert run_cli(["--out", str(out), "--seed", "1", "perc", "ibar", "--model", str(p), *ends, "--mc", "64"]) == 0
    results = json.loads((out / "results.json").read_text())["results"]
    assert results["n_samples"] == 64 and 0 <= results["estimate"] <= 1


def test_perc_ibar_on_a_model_without_bonds(tmp_path):
    # no bond, so no chain: P(0 <-> 0) is 0 by both routes
    p = tmp_path / "free.json"
    p.write_text(json.dumps({"graph": {"n": 2, "bonds": []}, "interaction": {"tables": []}}))
    for extra in ([], ["--mc", "8", "--seed", "1"]):
        out = tmp_path / str(len(extra))
        assert run_cli(["--out", str(out), "perc", "ibar", "--model", str(p), "--A", "0", "--B", "0", *extra]) == 0
        assert json.loads((out / "results.json").read_text())["results"]["estimate"] == 0


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "rcgibbs.cli", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "rcgibbs" in proc.stdout


def test_unequilibrated_ea_run_warns_in_one_stderr_line(tmp_path):
    argv = ["--out", str(tmp_path), "exp", "ea", "--L", "3", "--sweeps", "0", "--samples", "1", "--seed", "1"]
    proc = subprocess.run([sys.executable, "-m", "rcgibbs.cli", *argv], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "warning: autocorrelation diagnostics did not converge; treat results as unequilibrated\n"
    assert (tmp_path / "results.json").exists()


def test_import_loads_no_scipy_module():
    # scipy.optimize loads at the first Cayley root or LP and csgraph at the
    # first connectivity query, so a fresh import pays for numpy alone
    code = (
        "import sys, rcgibbs, rcgibbs.experiments, rcgibbs.cli\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_rcr_commands_on_a_boundary_forbidden_bond_exit_two(tmp_path, capsys):
    # bond 0's factors vanish whenever vertex 1 is +1, and the boundary pins
    # it there: the effective bond allows no configuration, as in gibbs eval
    model = {
        "graph": {"n": 3, "bonds": [[0, 1], [1, 2]]},
        "interaction": {"tables": [{"bond": 0, "factors": [1, 0, 1, 0]},
                                   {"bond": 1, "factors": [1, 1, 1, 1]}]},
        "boundary": {"1": 1},
    }
    p = tmp_path / "m.json"
    p.write_text(json.dumps(model))
    for argv in (["gibbs", "eval"], ["rcr", "solve"], ["rcr", "check"]):
        capsys.readouterr()
        assert run_cli(["--out", str(tmp_path / argv[1]), *argv, "--model", str(p)]) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err


def test_int_factor_model_has_exact_bases(tmp_path):
    # int factors make an exact spec: its base probabilities and the
    # reconstruction rcr check compares with the Gibbs measure are Fractions
    model = {"graph": {"n": 2, "bonds": [[0, 1]]}, "interaction": {"tables": [{"bond": 0, "factors": [3, 1, 1, 3]}]}}
    spec = spec_from_dict(model)
    base = monotone_base(spec)
    assert spec.exact and base.exact
    assert [(type(p), p) for p in base.bonds[0].probs] == [(Fraction, Fraction(2, 3)), (Fraction, Fraction(1, 3))]
    rec = reconstruct(spec, base)
    for o, p in gibbs_measure(spec).items():
        assert type(rec.prob(o)) is Fraction and rec.prob(o) == p
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))
    assert run_cli(["--out", str(tmp_path / "out"), "rcr", "check", "--model", str(path)]) == 0
    assert json.loads((tmp_path / "out" / "results.json").read_text())["results"]["roundtrip_max_error"] == 0


MALFORMED = [
    ["perc", "ibar", "--model", "MODEL", "--A", "x", "--B", "2"],
    ["gibbs", "eval", "--model", "MODEL", "--lambda", "0,q"],
    ["gibbs", "eval", "--model", "MODEL", "--bc", "5:z"],
    ["twocopy", "slice", "--model", "MODEL", "--sigma", "0,a,0"],
    ["twocopy", "slice", "--model", "MODEL", "--sigma", "0,0"],  # 3-site model
    ["exp", "hardcore", "--grid", "3"],
    ["exp", "cayley", "--J-grid", "0.1:2"],
    ["gibbs", "eval", "--model", "MODEL", "--lambda", "7"],  # outside the graph
    ["gibbs", "eval", "--model", "MODEL", "--bc", "1:1"],  # boundary inside the region
    ["gibbs", "eval", "--model", "MODEL", "--bc", "9:1"],  # boundary outside the graph
    ["exp", "hardcore", "--grid", "0x3"],
    ["exp", "cayley", "--J-grid", "0.1:2:0"],
    ["exp", "cayley", "--J-grid", "0:1:-0.5"],
    ["exp", "cayley", "--J-grid", "0:inf:1"],
]


@pytest.mark.parametrize("argv", MALFORMED, ids=[" ".join(a) for a in MALFORMED])
def test_malformed_argument_values_exit_two(tmp_path, model_file, capsys, argv):
    argv = [model_file if a == "MODEL" else a for a in argv]
    assert run_cli(["--out", str(tmp_path), *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


DASH_VALUES = [
    (["twocopy", "slice", "--model", "MODEL", "--sigma", "-2,0,0"], 0),
    (["exp", "cayley", "--J-grid", "-1:1:0.5"], 2),  # J < 0: usage error
]


@pytest.mark.parametrize("argv, code", DASH_VALUES, ids=[" ".join(a) for a, _ in DASH_VALUES])
def test_option_values_starting_with_dash(tmp_path, model_file, capsys, argv, code):
    # '--opt -2,0,0' runs as '--opt=-2,0,0': same exit code, stderr and results.json
    argv = [model_file if a == "MODEL" else a for a in argv]
    runs = []
    for side, args in (("space", argv), ("equals", [*argv[:-2], f"{argv[-2]}={argv[-1]}"])):
        rc = run_cli(["--out", str(tmp_path / side), *args])
        err = capsys.readouterr().err
        res = tmp_path / side / "results.json"
        runs.append((rc, err, res.read_bytes() if res.exists() else None))
    assert runs[0] == runs[1]
    assert runs[0][0] == code and runs[0][1].count("\n") == (code != 0)


def _commands(model, sigma, A, B):
    """Arguments for every model-taking command on a small_models draw, and
    whether an A or B vertex of perc ibar lies outside the graph."""
    n = model["graph"]["n"]
    ab = ["--A", ",".join(map(str, A)), "--B", ",".join(map(str, B))]
    commands = [
        ["gibbs", "eval"],
        ["twocopy", "rho"],
        ["twocopy", "slice", "--sigma=" + (",".join(map(str, sigma)) or ",")],
        ["rcr", "solve"],
        ["rcr", "check"],
        ["perc", "ibar", *ab],
        ["perc", "ibar", *ab, "--mc", "4", "--seed", "1"],
    ]
    return commands, not all(0 <= v < n for v in A + B)


@given(small_models())
@settings(derandomize=True, max_examples=80, deadline=None, database=None)
def test_model_commands_keep_the_exit_code_contract(case):
    # any small model: success, violation, usage error or cap, never an
    # internal error, and never more than one line on stderr; perc ibar with
    # a vertex outside the graph is a usage error
    model = case[0]
    commands, outside = _commands(*case)
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/model.json"
        with open(path, "w") as fh:
            json.dump(model, fh)
        for argv in commands:
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                rc = main(["--out", f"{tmp}/out", *argv, "--model", path])
            assert rc in (0, 1, 2, 3), (argv, err.getvalue())
            if outside and argv[0] == "perc":
                assert rc == 2, (argv, err.getvalue())
            assert err.getvalue().count("\n") <= 1, (argv, err.getvalue())
