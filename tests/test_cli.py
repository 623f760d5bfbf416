"""End-to-end command-line behavior: verbs, exit codes, manifests, determinism."""

import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from conftest import make_homog_table, make_table, write_table
import hadr
from hadr._rng import usable_cpus
from hadr.cli import main

CSV = "g,h,age,y\n" + "".join(
    f"r{i % 4},s{i % 2},{18 + (i * 7) % 40},{'u' if i % 3 else 'v'}\n" for i in range(60)
)


@pytest.fixture
def data_dir(tmp_path):
    (tmp_path / "micro.csv").write_text(CSV)
    return tmp_path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def tabulate(data_dir, capsys, out="table.json"):
    code, stdout, _ = run(
        capsys,
        "tabulate",
        "--input", str(data_dir / "micro.csv"),
        "--qids", "g,h",
        "--sensitive", "y",
        "--output", str(data_dir / out),
    )
    assert code == 0
    return data_dir / out, stdout


def test_tabulate_and_manifest(data_dir, capsys):
    table_path, stdout = tabulate(data_dir, capsys)
    assert re.match(r"\d+ cells, 2 categories of 'y', 0 rows dropped", stdout)
    manifest = json.loads((data_dir / "table.json.manifest.json").read_text())
    assert manifest["command"] == "tabulate"
    assert manifest["arguments"]["qids"] == "g,h"
    assert manifest["seed"] is None
    assert manifest["outputs"] == ["table.json"]
    assert set(manifest["versions"]) == {"hadr", "numpy", "scipy", "python"}


def test_tabulate_binning(data_dir, capsys):
    code, stdout, _ = run(
        capsys,
        "tabulate",
        "--input", str(data_dir / "micro.csv"),
        "--qids", "age",
        "--sensitive", "y",
        "--bin", "age:10",
        "--output", str(data_dir / "binned.json"),
    )
    assert code == 0
    text = (data_dir / "binned.json").read_text()
    assert "10-20" in text or "20-30" in text


def test_tabulate_ignores_row_order(data_dir, capsys):
    header, *rows = CSV.splitlines(keepends=True)
    np.random.default_rng(3).shuffle(rows)
    (data_dir / "shuffled.csv").write_text(header + "".join(rows))
    outputs = []
    for name in ("micro.csv", "shuffled.csv"):
        out = data_dir / f"{name}.json"
        code, _, _ = run(
            capsys, "tabulate", "--input", str(data_dir / name), "--qids", "g,age",
            "--sensitive", "y", "--bin", "age:10", "--output", str(out),
        )
        assert code == 0
        outputs.append(out.read_bytes())
    assert json.loads(outputs[0])["categories"] == ["u", "v"]
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize(
    "age,bins,message",
    [
        ("inf", ["age:10"], "'inf' in column 'age' at line 3"),
        ("nan", ["age:10"], "'nan' in column 'age' at line 3"),
        ("old", ["age:10"], "'old' in column 'age' at line 3"),
        ("30,x", ["age:10"], "ragged row at line 3"),
        ("30", ["height:10"], "no column named 'height'"),
        ("30", ["age:10", "age:5"], "'age' is binned twice"),
        ("30", ["age:x"], "--bin 'age:x' has a non-numeric width"),
        pytest.param("9" * 200_000, ["age:10"], "field larger than field limit (131072) at line 3",
                     id="field-over-csv-limit"),
    ],
)
def test_tabulate_rejects_bad_bin_input(tmp_path, capsys, age, bins, message):
    (tmp_path / "bad.csv").write_text(f"g,age,y\na,20,u\nb,{age},v\n")
    argv = ["tabulate", "--input", str(tmp_path / "bad.csv"), "--qids", "g,age"]
    argv += [a for b in bins for a in ("--bin", b)]
    code, _, err = run(capsys, *argv, "--sensitive", "y", "--output", str(tmp_path / "t.json"))
    assert code == 1
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err


def test_tabulate_bad_bin_spec(data_dir, capsys):
    code, _, err = run(
        capsys,
        "tabulate",
        "--input", str(data_dir / "micro.csv"),
        "--qids", "g",
        "--sensitive", "y",
        "--bin", "age",
        "--output", str(data_dir / "x.json"),
    )
    assert code == 1
    assert "error:" in err and "column:width" in err


@pytest.mark.parametrize(
    "flag,value", [("--qids", "g,\udcff"), ("--sensitive", "\udcff"), ("--bin", "\udcff:10")]
)
def test_tabulate_names_a_column_argument_that_is_not_utf8(data_dir, capsys, flag, value):
    """A byte that is not UTF-8 reaches Python as a surrogate escape, here of 0xff."""
    args = {"--qids": "g", "--sensitive": "y", "--bin": "age:10", flag: value}
    argv = ["tabulate", "--input", str(data_dir / "micro.csv"), *sum(args.items(), ())]
    code, _, err = run(capsys, *argv, "--output", str(data_dir / "x.json"))
    assert code == 1
    assert err == f"error: {flag} {value!r} is not UTF-8\n"
    assert not (data_dir / "x.json").exists()


def test_risk_curve_and_thread_byte_identity(data_dir, capsys, tmp_path):
    table_path, _ = tabulate(data_dir, capsys)
    out = tmp_path / "curve.csv"
    args = [
        "risk",
        "--table", str(table_path),
        "--measure", "expected",
        "--mechanism", "laplace",
        "--epsilon-grid", "0.01:10:log7",
    ]
    snapshots = []
    for _ in range(2):
        code, stdout, _ = run(capsys, *args, "--output", str(out))
        assert code == 0
        assert "7 curve points" in stdout
        snapshots.append((out.read_bytes(), (tmp_path / "curve.csv.manifest.json").read_bytes()))
    assert snapshots[0] == snapshots[1]
    lines = snapshots[0][0].decode().splitlines()
    assert lines[0].startswith("epsilon,delta,mechanism,measure,value")
    assert len(lines) == 8
    # a curve runs on one thread, so risk takes no --threads flag
    with pytest.raises(SystemExit) as exc:
        main([*args, "--threads", "2", "--output", str(out)])
    assert exc.value.code == 2


def test_risk_rejects_delta_for_laplace(data_dir, capsys):
    table_path, _ = tabulate(data_dir, capsys)
    code, _, err = run(
        capsys,
        "risk",
        "--table", str(table_path),
        "--measure", "expected",
        "--mechanism", "laplace",
        "--epsilon-grid", "0.1:1:log3",
        "--delta", "1e-5",
        "--output", str(data_dir / "c.csv"),
    )
    assert code == 1 and "takes no delta" in err


def test_risk_gaussian_needs_delta(data_dir, capsys):
    table_path, _ = tabulate(data_dir, capsys)
    code, _, err = run(
        capsys,
        "risk",
        "--table", str(table_path),
        "--measure", "expected",
        "--mechanism", "gaussian_pdp",
        "--epsilon-grid", "0.1:1:log3",
        "--output", str(data_dir / "c.csv"),
    )
    assert code == 1 and "requires --delta" in err


def test_risk_delta_grid_cartesian(data_dir, capsys):
    table_path, _ = tabulate(data_dir, capsys)
    code, _, _ = run(
        capsys,
        "risk",
        "--table", str(table_path),
        "--measure", "expected",
        "--mechanism", "gaussian_pdp",
        "--epsilon-grid", "0.1:1:log3",
        "--delta-grid", "0.00001:0.1:log4",
        "--output", str(data_dir / "grid.csv"),
    )
    assert code == 0
    assert len((data_dir / "grid.csv").read_text().splitlines()) == 1 + 3 * 4


# each bad grid with its error; a superscript two passes str.isdigit but not int()
BAD_GRIDS = {
    "0.1:1": "--epsilon-grid '0.1:1' is not of the form lo:hi:logN or lo:hi:linN",
    "1:0.1:log5": "--epsilon-grid '1:0.1:log5' needs lo < hi",
    "0:1:log5": "--epsilon-grid '0:1:log5' is a log grid and needs lo > 0",
    "a:b:log3": "--epsilon-grid 'a:b:log3' has non-numeric bounds",
    "1:2:geo4": "--epsilon-grid '1:2:geo4' must end in logN or linN",
    "2:3:log1": "--epsilon-grid '2:3:log1' is a single-point grid and needs lo == hi",
    "0.1:1:log0": "--epsilon-grid '0.1:1:log0' needs at least one point",
    "1:2:log²": "--epsilon-grid '1:2:log²' must end in logN or linN",
    "1:2:lin-3": "--epsilon-grid '1:2:lin-3' must end in logN or linN",
}


@pytest.mark.parametrize("grid", list(BAD_GRIDS))
def test_bad_grids(data_dir, capsys, grid):
    table_path, _ = tabulate(data_dir, capsys)
    code, _, err = run(
        capsys,
        "risk",
        "--table", str(table_path),
        "--measure", "expected",
        "--mechanism", "laplace",
        "--epsilon-grid", grid,
        "--output", str(data_dir / "c.csv"),
    )
    assert (code, err) == (1, f"error: {BAD_GRIDS[grid]}\n")


def test_bad_delta_grid_names_its_flag(data_dir, capsys):
    table_path, _ = tabulate(data_dir, capsys)
    out = data_dir / "c.csv"
    code, _, err = risk_on_grids(capsys, table_path, out, "0.1:1:log3", "1e-3:1e-5:log3")
    assert (code, err) == (1, "error: --delta-grid '1e-3:1e-5:log3' needs lo < hi\n")
    assert not out.exists()


@pytest.mark.parametrize(
    "text, want",
    [
        ("", "error: out of memory\n"),
        ("cannot allocate 16 GiB", "error: out of memory: cannot allocate 16 GiB\n"),
    ],
)
def test_memory_error_exits_1_with_one_line(data_dir, capsys, monkeypatch, text, want):
    table_path, _ = tabulate(data_dir, capsys)

    def exhausted(path):
        raise MemoryError(text) if text else MemoryError

    monkeypatch.setattr(hadr.cli, "read_table", exhausted)
    out = data_dir / "c.csv"
    assert risk_on_grids(capsys, table_path, out, "0.1:1:log3") == (1, "", want)
    assert not out.exists()


def refuse_large_grid_arrays(monkeypatch):
    """Fail the test, instead of allocating, if a grid of over 10**6 points is built."""
    for name in ("linspace", "geomspace"):

        def guarded(lo, hi, n, *args, _real=getattr(np, name), **kwargs):
            assert n <= 10**6, f"a {n}-point grid was about to be built"
            return _real(lo, hi, n, *args, **kwargs)

        monkeypatch.setattr(np, name, guarded)


def risk_on_grids(capsys, table_path, out, *grids):
    """Run risk with an epsilon grid, and a delta grid when two grids are given."""
    mechanism = ["laplace"] if len(grids) == 1 else ["gaussian_pdp", "--delta-grid", grids[1]]
    return run(
        capsys,
        "risk",
        "--table", str(table_path),
        "--measure", "expected",
        "--mechanism", *mechanism,
        "--epsilon-grid", grids[0],
        "--output", str(out),
    )


def test_epsilon_grid_cap(data_dir, capsys, monkeypatch):
    """A grid past MAX_GRID_POINTS is refused from its digit string, before
    any array is built, with the flag, the value and the cap in the message."""
    refuse_large_grid_arrays(monkeypatch)
    table_path, _ = tabulate(data_dir, capsys)
    out = data_dir / "c.csv"
    assert hadr.cli.MAX_GRID_POINTS == 100_000
    # past int()'s 4,300-digit limit, with and without leading zeros
    for grid in ["0.01:10:lin2000000000", "1:2:log" + "9" * 5000, "1:2:lin" + "0" * 5000 + "100001"]:
        code, _, err = risk_on_grids(capsys, table_path, out, grid)
        assert (code, err) == (1, f"error: --epsilon-grid {grid!r} exceeds the cap of 100000 curve points\n")
    assert not out.exists()
    monkeypatch.setattr(hadr.cli, "MAX_GRID_POINTS", 4)
    assert risk_on_grids(capsys, table_path, out, "1:2:lin" + "0" * 5000 + "4")[0] == 0
    assert len(out.read_text().splitlines()) == 1 + 4
    code, _, err = risk_on_grids(capsys, table_path, out, "1:2:log5")
    assert (code, err) == (1, "error: --epsilon-grid '1:2:log5' exceeds the cap of 4 curve points\n")


def test_delta_grid_cap_counts_the_product(data_dir, capsys, monkeypatch):
    """The delta grid is capped at MAX_GRID_POINTS over the epsilon points,
    before its array is built."""
    refuse_large_grid_arrays(monkeypatch)
    table_path, _ = tabulate(data_dir, capsys)
    out = data_dir / "c.csv"
    code, _, err = risk_on_grids(capsys, table_path, out, "0.1:1:lin3", "1e-6:1e-5:log33334")
    want = "error: --delta-grid '1e-6:1e-5:log33334' exceeds the cap of 100000 curve points\n"
    assert (code, err) == (1, want)
    assert not out.exists()
    monkeypatch.setattr(hadr.cli, "MAX_GRID_POINTS", 12)
    assert risk_on_grids(capsys, table_path, out, "0.1:1:log3", "1e-5:0.1:log4")[0] == 0
    assert len(out.read_text().splitlines()) == 1 + 12
    code, _, err = risk_on_grids(capsys, table_path, out, "0.1:1:log3", "1e-5:0.1:log5")
    assert (code, err) == (1, "error: --delta-grid '1e-5:0.1:log5' exceeds the cap of 12 curve points\n")


def test_single_point_grid(data_dir, capsys):
    table_path, _ = tabulate(data_dir, capsys)
    code, _, _ = run(
        capsys,
        "risk",
        "--table", str(table_path),
        "--measure", "expected",
        "--mechanism", "laplace",
        "--epsilon-grid", "2:2:log1",
        "--output", str(data_dir / "one.csv"),
    )
    assert code == 0
    assert len((data_dir / "one.csv").read_text().splitlines()) == 2


@pytest.mark.parametrize("grid", ["1:inf:log3", "nan:nan:log1", "1:-inf:lin3", "0.1:nan:lin2"])
def test_non_finite_grid_bounds(data_dir, capsys, grid):
    table_path, _ = tabulate(data_dir, capsys)
    out = data_dir / "c.csv"
    code, _, err = run(
        capsys,
        "risk",
        "--table", str(table_path),
        "--measure", "expected",
        "--mechanism", "laplace",
        "--epsilon-grid", grid,
        "--output", str(out),
    )
    assert code == 1 and f"grid {grid!r} has non-finite bounds" in err
    assert not out.exists()


def test_linear_grid(data_dir, capsys):
    table_path, _ = tabulate(data_dir, capsys)
    out = data_dir / "lin.csv"
    code, _, _ = run(
        capsys,
        "risk",
        "--table", str(table_path),
        "--measure", "expected",
        "--mechanism", "laplace",
        "--epsilon-grid", "0.5:2:lin4",
        "--output", str(out),
    )
    assert code == 0
    rows = out.read_text().splitlines()[1:]
    assert [float(row.split(",")[0]) for row in rows] == [0.5, 1.0, 1.5, 2.0]


@pytest.mark.parametrize("mechanism", ["laplace", "gaussian_pdp"])
@pytest.mark.parametrize("epsilon", ["inf", "nan"])
def test_sanitize_refuses_non_finite_epsilon(data_dir, capsys, mechanism, epsilon):
    table_path, _ = tabulate(data_dir, capsys)
    out = data_dir / "s.json"
    delta = [] if mechanism == "laplace" else ["--delta", "1e-5"]
    code, _, err = run(
        capsys,
        "sanitize",
        "--table", str(table_path),
        "--mechanism", mechanism,
        "--epsilon", epsilon,
        *delta,
        "--seed", "1",
        "--output", str(out),
    )
    assert code == 1 and "must be finite" in err
    assert not out.exists() and not (data_dir / "s.json.manifest.json").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["sanitize", "--table", "T", "--epsilon", "1", "--seed", "1"],
        ["utility", "--table", "T", "--epsilon", "1", "--ks", "1", "--reps", "2", "--seed", "1"],
        ["mc", "--estimator", "local", "--cell", "3,1", "--epsilon", "1", "--reps", "10",
         "--seed", "1"],
        ["invert", "--table", "T", "--measure", "expected", "--target-risk", "0.3"],
    ],
    ids=["sanitize", "utility", "mc", "invert"],
)
def test_every_verb_refuses_a_laplace_delta(data_dir, capsys, argv):
    table_path, _ = tabulate(data_dir, capsys)
    out = data_dir / "out"
    argv = [str(table_path) if a == "T" else a for a in argv]
    code, _, err = run(
        capsys, *argv, "--mechanism", "laplace", "--delta", "1e-5", "--output", str(out)
    )
    assert code == 1 and "the laplace mechanism takes no delta" in err
    assert not out.exists()


def test_sanitize_seeded_deterministic(data_dir, capsys):
    table_path, _ = tabulate(data_dir, capsys)
    args = [
        "sanitize",
        "--table", str(table_path),
        "--mechanism", "laplace",
        "--epsilon", "1",
        "--seed", "42",
    ]
    code, _, err = run(capsys, *args, "--output", str(data_dir / "s1.json"))
    assert code == 0 and "seed:" not in err
    code, _, _ = run(capsys, *args, "--output", str(data_dir / "s2.json"))
    assert code == 0
    assert (data_dir / "s1.json").read_bytes() == (data_dir / "s2.json").read_bytes()
    manifest = json.loads((data_dir / "s1.json.manifest.json").read_text())
    assert manifest["seed"] == 42 and manifest["arguments"]["epsilon"] == 1.0


def test_sanitize_generates_and_prints_seed(data_dir, capsys):
    table_path, _ = tabulate(data_dir, capsys)
    code, _, err = run(
        capsys,
        "sanitize",
        "--table", str(table_path),
        "--mechanism", "laplace",
        "--epsilon", "1",
        "--output", str(data_dir / "s3.json"),
    )
    assert code == 0
    m = re.search(r"^seed: (\d+)$", err, re.M)
    assert m
    seed = int(m.group(1))
    assert json.loads((data_dir / "s3.json.manifest.json").read_text())["seed"] == seed
    # replaying the printed seed reproduces the release bytes
    code, _, _ = run(
        capsys,
        "sanitize",
        "--table", str(table_path),
        "--mechanism", "laplace",
        "--epsilon", "1",
        "--seed", str(seed),
        "--output", str(data_dir / "s4.json"),
    )
    assert code == 0
    assert (data_dir / "s3.json").read_bytes() == (data_dir / "s4.json").read_bytes()


def test_utility_threads_byte_identical(data_dir, capsys, tmp_path):
    table_path, _ = tabulate(data_dir, capsys)
    for sub, threads in (("u1", "1"), ("u2", "3")):
        d = tmp_path / sub
        d.mkdir()
        code, _, _ = run(
            capsys,
            "utility",
            "--table", str(table_path),
            "--mechanism", "gaussian_pdp",
            "--epsilon", "1",
            "--delta", "0.001",
            "--ks", "1,2",
            "--reps", "6",
            "--seed", "7",
            "--threads", threads,
            "--output", str(d / "tvd.csv"),
        )
        assert code == 0
    assert (tmp_path / "u1" / "tvd.csv").read_bytes() == (tmp_path / "u2" / "tvd.csv").read_bytes()
    header = (tmp_path / "u1" / "tvd.csv").read_text().splitlines()[0]
    assert header == "k,marginal,tvd_mean,tvd_q1,tvd_median,tvd_q3"


def test_utility_ks_must_be_integers(data_dir, capsys):
    table_path, _ = tabulate(data_dir, capsys)
    code, _, err = run(
        capsys,
        "utility",
        "--table", str(table_path),
        "--mechanism", "laplace",
        "--epsilon", "1",
        "--ks", "1,2.5",
        "--seed", "1",
        "--output", str(data_dir / "u.csv"),
    )
    assert (code, err) == (1, "error: --ks must be a comma-separated list of integers\n")
    assert not (data_dir / "u.csv").exists()


def test_estimate_sizes(data_dir, capsys):
    table_path, _ = tabulate(data_dir, capsys)
    code, stdout, _ = run(
        capsys,
        "estimate",
        "--table", str(table_path),
        "--what", "sizes",
        "--output", str(data_dir / "sizes.json"),
    )
    assert code == 0
    obj = json.loads(stdout)
    assert obj["family"] == "poisson" and obj["lambda"] > 0
    assert (data_dir / "sizes.json").read_text() == stdout


def test_estimate_negbin_zero_truncated_conflict(data_dir, capsys):
    table_path, _ = tabulate(data_dir, capsys)
    code, _, err = run(
        capsys,
        "estimate",
        "--table", str(table_path),
        "--what", "sizes",
        "--family", "negbin",
        "--zero-truncated",
        "--output", str(data_dir / "x.json"),
    )
    assert code == 1 and "poisson family" in err


def test_estimate_alpha_needs_overdispersion(data_dir, capsys, tmp_path):
    rng = np.random.default_rng(8)
    n = rng.integers(10, 40, size=300)
    p = rng.beta(2.0, 3.0, size=300)
    x = rng.binomial(n, p)
    t = make_table([(int(a), int(b - a)) for a, b in zip(x, n)])
    path = tmp_path / "over.json"
    write_table(t, path)
    code, stdout, _ = run(
        capsys,
        "estimate",
        "--table", str(path),
        "--what", "alpha",
        "--output", str(tmp_path / "alpha.json"),
    )
    assert code == 0
    obj = json.loads(stdout)
    assert len(obj["alpha"]) == 2 and "alpha_dot_spread" in obj


def test_mc_local_and_determinism(data_dir, capsys, tmp_path):
    args = [
        "mc",
        "--estimator", "local",
        "--cell", "0,10",
        "--mechanism", "laplace",
        "--epsilon", "1",
        "--reps", "20000",
        "--seed", "3",
    ]
    code, stdout, _ = run(capsys, *args, "--output", str(tmp_path / "m1.json"))
    assert code == 0
    assert re.match(r"value 0\.\d+ \(se \d", stdout)
    code, _, _ = run(capsys, *args, "--threads", "2", "--output", str(tmp_path / "m2.json"))
    assert code == 0
    assert (tmp_path / "m1.json").read_bytes() == (tmp_path / "m2.json").read_bytes()
    obj = json.loads((tmp_path / "m1.json").read_text())
    assert set(obj) == {"value", "se", "reps", "scenarios"}


def test_mc_requirement_errors(data_dir, capsys, tmp_path):
    code, _, err = run(
        capsys,
        "mc",
        "--estimator", "local",
        "--mechanism", "laplace",
        "--epsilon", "1",
        "--reps", "100",
        "--seed", "1",
        "--output", str(tmp_path / "x.json"),
    )
    assert code == 1 and "requires --cell" in err
    code, _, err = run(
        capsys,
        "mc",
        "--estimator", "expected",
        "--mechanism", "laplace",
        "--epsilon", "1",
        "--reps", "100",
        "--seed", "1",
        "--output", str(tmp_path / "x.json"),
    )
    assert code == 1 and "--n and --p" in err


@pytest.mark.parametrize(
    "estimator,flags,needs",
    [
        ("local", [], "--cell"),
        ("expected", ["--n", "5"], "--n and --p"),
        ("shrinkage", ["--alpha", "1,2"], "--n and --alpha"),
        ("global", ["--alpha", "1,2"], "--alpha and a size model"),
        ("global_variant", ["--categories", "3"], "a size model and --categories"),
        ("threshold", [], "--table"),
    ],
)
def test_mc_names_every_input_its_estimator_requires(capsys, tmp_path, estimator, flags, needs):
    out = tmp_path / "x.json"
    code, stdout, err = run(
        capsys,
        "mc",
        "--estimator", estimator,
        *flags,
        "--mechanism", "laplace",
        "--epsilon", "1",
        "--reps", "10",
        "--seed", "1",
        "--output", str(out),
    )
    assert (code, stdout, err) == (1, "", f"error: estimator {estimator!r} requires {needs}\n")
    assert not list(tmp_path.iterdir())


def test_mc_threshold_mode_recorded(data_dir, capsys, tmp_path):
    table_path, _ = tabulate(data_dir, capsys)
    code, _, _ = run(
        capsys,
        "mc",
        "--estimator", "threshold",
        "--table", str(table_path),
        "--mechanism", "laplace",
        "--epsilon", "1",
        "--mode", "soft",
        "--reps", "500",
        "--seed", "11",
        "--output", str(tmp_path / "thr.json"),
    )
    assert code == 0
    obj = json.loads((tmp_path / "thr.json").read_text())
    assert obj["mode"] == "soft" and "definition" in obj


def test_mc_global_with_size_model_file(data_dir, capsys, tmp_path):
    (tmp_path / "sm.json").write_text('{"family":"poisson","lambda":3.0}\n')
    code, _, _ = run(
        capsys,
        "mc",
        "--estimator", "global",
        "--alpha", "1,2",
        "--size-model", str(tmp_path / "sm.json"),
        "--mechanism", "laplace",
        "--epsilon", "1",
        "--reps", "5000",
        "--seed", "13",
        "--output", str(tmp_path / "g.json"),
    )
    assert code == 0
    assert 0.0 < json.loads((tmp_path / "g.json").read_text())["value"] < 1.0


def test_mc_global_variant_takes_k_from_table(data_dir, capsys, tmp_path):
    table_path, _ = tabulate(data_dir, capsys)
    (tmp_path / "sm.json").write_text('{"family":"poisson","lambda":3.0}\n')
    args = [
        "mc",
        "--estimator", "global_variant",
        "--size-model", str(tmp_path / "sm.json"),
        "--mechanism", "laplace",
        "--epsilon", "1",
        "--reps", "2000",
        "--seed", "17",
    ]
    code, _, _ = run(capsys, *args, "--table", str(table_path), "--output", str(tmp_path / "t.json"))
    assert code == 0
    code, _, _ = run(capsys, *args, "--categories", "2", "--output", str(tmp_path / "k.json"))
    assert code == 0
    assert (tmp_path / "t.json").read_bytes() == (tmp_path / "k.json").read_bytes()
    code, _, err = run(capsys, *args, "--output", str(tmp_path / "x.json"))
    assert code == 1
    assert "estimator 'global_variant' requires a size model and --categories" in err
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("text", ["[1, 2]", '{"family":"poisson","lambda":"0.5"}'])
def test_malformed_size_model_json_exits_1(capsys, tmp_path, text):
    (tmp_path / "bad.json").write_text(text)
    code, _, err = run(
        capsys,
        "risk",
        "--measure", "global_variant",
        "--categories", "2",
        "--size-model", str(tmp_path / "bad.json"),
        "--mechanism", "laplace",
        "--epsilon-grid", "0.1:1:log3",
        "--output", str(tmp_path / "c.csv"),
    )
    assert code == 1 and err.startswith("error: size-model JSON")
    assert "Traceback" not in err
    assert not (tmp_path / "c.csv").exists()


@pytest.mark.parametrize(
    "verb,text,field",
    [
        ("mc", '{"family":"negbin","lambda":0.5,"r":Infinity}', "r"),
        ("risk", '{"family":"poisson","lambda":Infinity}', "lam"),
    ],
)
def test_non_finite_size_model_exits_1(capsys, tmp_path, verb, text, field):
    (tmp_path / "sm.json").write_text(text)
    if verb == "mc":
        args = ["mc", "--estimator", "global_variant", "--reps", "1000", "--seed", "3",
                "--epsilon", "1"]
    else:
        args = ["risk", "--measure", "global_variant", "--epsilon-grid", "0.1:1:log3"]
    code, _, err = run(
        capsys,
        *args,
        "--categories", "2",
        "--size-model", str(tmp_path / "sm.json"),
        "--mechanism", "laplace",
        "--output", str(tmp_path / "out"),
    )
    assert code == 1 and err.startswith(f"error: size model {field} must be finite")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("lam", ["1e12", "1e15", "9007199254740992"])
def test_huge_poisson_rate_exceeds_the_series_cap(capsys, tmp_path, lam):
    """Such a model has finite quantiles, but its series is longer than the cap allows;
    the tail is checked at the cap, so the search never runs to the quantile."""
    (tmp_path / "sm.json").write_text(f'{{"family":"poisson","lambda":{lam}}}\n')
    code, _, err = run(
        capsys,
        "risk",
        "--measure", "global_variant",
        "--categories", "2",
        "--size-model", str(tmp_path / "sm.json"),
        "--mechanism", "laplace",
        "--epsilon-grid", "0.1:1:log3",
        "--output", str(tmp_path / "out"),
    )
    assert code == 1
    assert err == "error: size-model series needs more than 1000000 terms, exceeding the cap\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("verb", ["risk", "mc"])
@pytest.mark.parametrize(
    "text,named",
    [
        ('{"family":"negbin","lambda":1e-20,"r":2}', "mean r(1-p)/p, with p = lam,"),
        ('{"family":"negbin","lambda":1e-300,"r":2}', "mean r(1-p)/p, with p = lam,"),
        ('{"family":"poisson","lambda":1e20}', "rate lam"),
    ],
    ids=["negbin_p_1e-20", "negbin_p_1e-300", "poisson_1e20"],
)
def test_size_model_mean_beyond_2_53_exits_1(capsys, tmp_path, verb, text, named):
    (tmp_path / "sm.json").write_text(text)
    if verb == "mc":
        args = ["mc", "--estimator", "global_variant", "--epsilon", "1"]
        args += ["--reps", "10", "--seed", "3"]
    else:
        args = ["risk", "--measure", "global_variant", "--epsilon-grid", "0.1:1:log3"]
    code, _, err = run(
        capsys,
        *args,
        "--categories", "2",
        "--size-model", str(tmp_path / "sm.json"),
        "--mechanism", "laplace",
        "--output", str(tmp_path / "out"),
    )
    assert code == 1 and err.startswith("error: ") and named in err and "2**53" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "verb,named",
    [
        ("risk", "size-model series needs more than 1000000 terms, exceeding the cap"),
        ("mc", "cannot sample negbin lam=1e-25, r=1e-10: 1 - lam rounds to 1"),
    ],
)
def test_size_model_past_int64_tails_exits_1(capsys, tmp_path, verb, named):
    """Its mean, 1e15, passes the constructor, but its tail runs past int64
    sizes: the series search stops at the term cap, and the sampler names it."""
    (tmp_path / "sm.json").write_text('{"family":"negbin","lambda":1e-25,"r":1e-10}')
    if verb == "mc":
        args = ["mc", "--estimator", "global_variant", "--epsilon", "1", "--reps", "10"]
        args += ["--seed", "3"]
    else:
        args = ["risk", "--measure", "global_variant", "--epsilon-grid", "0.1:1:log3"]
    code, _, err = run(
        capsys,
        *args,
        "--categories", "4",
        "--size-model", str(tmp_path / "sm.json"),
        "--mechanism", "laplace",
        "--output", str(tmp_path / "out"),
    )
    assert (code, err) == (1, f"error: {named}\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "alpha,message",
    [
        ("inf,1", "finite and positive"),
        ("1,1,1,1,1", "alpha has 5 entries but the table has 2 categories"),
    ],
)
def test_risk_rejects_bad_alpha(capsys, tmp_path, alpha, message):
    write_table(make_homog_table([3, 5, 8], k=2), tmp_path / "t.json")
    code, _, err = run(
        capsys,
        "risk",
        "--table", str(tmp_path / "t.json"),
        "--measure", "shrinkage",
        "--alpha", alpha,
        "--mechanism", "laplace",
        "--epsilon-grid", "0.1:1:log3",
        "--output", str(tmp_path / "c.csv"),
    )
    assert code == 1 and err.startswith("error: ") and message in err
    assert "Traceback" not in err
    assert not (tmp_path / "c.csv").exists()


def test_mc_rejects_infinite_alpha(capsys, tmp_path):
    code, _, err = run(
        capsys,
        "mc",
        "--estimator", "shrinkage",
        "--n", "5",
        "--alpha", "inf,1",
        "--mechanism", "laplace",
        "--epsilon", "1",
        "--reps", "1000",
        "--seed", "3",
        "--output", str(tmp_path / "m.json"),
    )
    assert code == 1 and "finite and positive" in err
    assert "Traceback" not in err
    assert not (tmp_path / "m.json").exists()


def test_invert_prints_result(capsys, tmp_path):
    t = make_homog_table([10], k=2)
    write_table(t, tmp_path / "t.json")
    code, stdout, _ = run(
        capsys,
        "invert",
        "--table", str(tmp_path / "t.json"),
        "--mechanism", "laplace",
        "--target-risk", "0.7",
    )
    assert code == 0
    m = re.match(r"epsilon (\d+\.\d{6}) achieves risk (0\.\d+) \(target 0\.7\)\n", stdout)
    assert m
    assert float(m.group(2)) <= 0.7
    assert not list(tmp_path.glob("*.manifest.json"))  # no output file, no manifest


def test_invert_with_output(capsys, tmp_path):
    t = make_homog_table([10], k=2)
    write_table(t, tmp_path / "t.json")
    code, _, _ = run(
        capsys,
        "invert",
        "--table", str(tmp_path / "t.json"),
        "--mechanism", "laplace",
        "--target-risk", "0.7",
        "--output", str(tmp_path / "inv.json"),
    )
    assert code == 0
    obj = json.loads((tmp_path / "inv.json").read_text())
    assert obj["measure"] == "expected" and obj["mechanism"] == "laplace"
    assert obj["risk"] <= 0.7 and obj["delta"] is None
    assert (tmp_path / "inv.json.manifest.json").exists()


def test_invert_unreachable_target(capsys, tmp_path):
    t = make_homog_table([10], k=2)
    write_table(t, tmp_path / "t.json")
    code, _, err = run(
        capsys,
        "invert",
        "--table", str(tmp_path / "t.json"),
        "--mechanism", "laplace",
        "--target-risk", "0.2",
    )
    assert code == 1 and "achievable floor" in err


def test_threads_validation(capsys, tmp_path):
    t = make_homog_table([10], k=2)
    write_table(t, tmp_path / "t.json")
    code, _, err = run(
        capsys,
        "utility",
        "--table", str(tmp_path / "t.json"),
        "--mechanism", "laplace",
        "--epsilon", "1",
        "--ks", "1",
        "--reps", "3",
        "--seed", "1",
        "--threads", "0",
        "--output", str(tmp_path / "u.csv"),
    )
    assert code == 1 and "threads must be a positive integer" in err
    assert not (tmp_path / "u.csv").exists()


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["risk", "--mechanism", "laplace"])  # missing required flags
    assert exc.value.code == 2


def test_mc_refuses_zero_truncated(capsys, tmp_path):
    """mc's global draws are always zero-truncated; the flag is risk's and invert's."""
    with pytest.raises(SystemExit) as exc:
        main([
            "mc", "--estimator", "global", "--alpha", "1,2", "--size-model", "sm.json",
            "--zero-truncated", "--mechanism", "laplace", "--epsilon", "1", "--reps", "10",
            "--seed", "3", "--output", str(tmp_path / "out"),
        ])
    assert exc.value.code == 2
    assert "unrecognized arguments: --zero-truncated" in capsys.readouterr().err


# each model flag as given, and the measures or estimators that read it
_MODEL_FLAGS = [
    (["--alpha=1,2"], ("shrinkage", "global")),
    (["--estimate-alpha"], ("shrinkage", "global")),
    (["--size-model", "S"], ("global", "global_variant")),
    (["--fit-sizes"], ("global", "global_variant")),
    (["--zero-truncated"], ("global", "global_variant")),
    (["--categories", "4"], ("global_variant",)),
]
_VERB_FLAGS = {
    "risk": ["--mechanism", "laplace", "--epsilon-grid", "0.1:1:log3", "--output", "O"],
    "invert": ["--mechanism", "laplace", "--target-risk", "0.3", "--output", "O"],
    "mc": ["--mechanism", "laplace", "--epsilon", "1", "--reps", "10", "--seed", "1",
           "--output", "O"],
}
_ESTIMATORS = ("local", "expected", "shrinkage", "global", "global_variant", "threshold")
_UNREAD = [
    (verb, name, flag)
    for verb in _VERB_FLAGS
    for name in (_ESTIMATORS if verb == "mc" else hadr.risk.MEASURES)
    for flag, readers in _MODEL_FLAGS
    if name not in readers and not (verb == "mc" and flag == ["--zero-truncated"])
]


@pytest.mark.parametrize(
    "verb,name,flag", _UNREAD, ids=[f"{v}-{n}-{f[0].split('=')[0][2:]}" for v, n, f in _UNREAD]
)
def test_model_flags_the_measure_does_not_read_are_refused(capsys, tmp_path, verb, name, flag):
    """A model flag that the measure or estimator never reads exits 1, naming
    both, before any file is read: the table and size-model paths do not exist."""
    kind = "estimator" if verb == "mc" else "measure"
    paths = {"S": str(tmp_path / "sizes.json"), "O": str(tmp_path / "out")}
    argv = [verb, f"--{kind}", name, "--table", str(tmp_path / "table.json"), *flag,
            *_VERB_FLAGS[verb]]
    code, _, err = run(capsys, *[paths.get(a, a) for a in argv])
    assert code == 1
    assert f"{flag[0].split('=')[0]} is not read by {kind} {name!r}" in err
    assert not os.listdir(tmp_path)


# runs that exit 0, then the flag each adds that its measure, estimator or
# --what value never reads, and the refusal; T is a K = 4 table, F the FIT_ROWS
# table (defined below) and S a size model
_UNREAD_GIVEN = [
    (["risk", "--measure", "local", "--table", "T"], ["--size-family", "negbin"],
     "--size-family is not read by measure 'local'"),
    (["risk", "--measure", "shrinkage", "--alpha", "1,1,1,1", "--table", "T"],
     ["--size-family", "negbin"], "--size-family is not read by measure 'shrinkage'"),
    (["risk", "--measure", "global", "--alpha", "1,1,1,1", "--size-model", "S"],
     ["--size-family", "negbin"], "--size-family is read only with --fit-sizes"),
    (["invert", "--measure", "expected", "--table", "T"], ["--size-family", "negbin"],
     "--size-family is not read by measure 'expected'"),
    (["mc", "--estimator", "local", "--cell", "3,1"], ["--mode", "soft"],
     "--mode is not read by estimator 'local'"),
    (["mc", "--estimator", "local", "--cell", "3,1"], ["--n", "7"],
     "--n is not read by estimator 'local'"),
    (["mc", "--estimator", "local", "--cell", "3,1"], ["--p", "0.5,0.5"],
     "--p is not read by estimator 'local'"),
    (["mc", "--estimator", "threshold", "--table", "T"], ["--cell", "1,2"],
     "--cell is not read by estimator 'threshold'"),
    (["mc", "--estimator", "global_variant", "--size-model", "S", "--categories", "4"],
     ["--n", "5"], "--n is not read by estimator 'global_variant'"),
    (["estimate", "--what", "alpha", "--table", "F"], ["--family", "negbin"],
     "--family is not read by --what 'alpha'"),
    (["estimate", "--what", "alpha", "--table", "F"], ["--family", "poisson"],
     "--family is not read by --what 'alpha'"),
    (["estimate", "--what", "alpha", "--table", "F"], ["--zero-truncated"],
     "--zero-truncated is not read by --what 'alpha'"),
]


@pytest.mark.parametrize(
    "argv,unread,message", _UNREAD_GIVEN,
    ids=[f"{a[0]}-{a[2]}-{u[0][2:]}" + (f"-{u[1]}" if u[1:] else "") for a, u, _ in _UNREAD_GIVEN],
)
def test_flags_the_run_never_reads_are_refused(capsys, tmp_path, argv, unread, message):
    """A flag that the run never reads exits 1 with one line naming it, and
    writes nothing; without that flag the same run exits 0. The defaulted
    flags (--size-family, --mode, --family) are refused too when given."""
    write_table(make_table([(3, 1, 0, 2), (0, 4, 1, 1), (2, 0, 0, 0)]), tmp_path / "t.json")
    write_table(make_table(FIT_ROWS), tmp_path / "f.json")
    (tmp_path / "s.json").write_text('{"family":"poisson","lambda":3.0}\n')
    out = tmp_path / "out.json"
    paths = {"T": str(tmp_path / "t.json"), "F": str(tmp_path / "f.json"),
             "S": str(tmp_path / "s.json"), "O": str(out)}
    argv = [paths.get(a, a) for a in argv + (_VERB_FLAGS.get(argv[0]) or ["--output", "O"])]
    code, stdout, err = run(capsys, *argv, *unread)
    assert (code, stdout, err) == (1, "", f"error: {message}\n")
    assert sorted(os.listdir(tmp_path)) == ["f.json", "s.json", "t.json"]
    assert run(capsys, *argv)[0] == 0 and out.exists()


# runs refused for their flags alone, on paths that do not exist: T is a table,
# S a size model; O the output, and a run that does not name it takes the
# verb's _VERB_FLAGS (or --output alone)
_REFUSED_BEFORE_READ = {
    "mc-local": (["mc", "--estimator", "local", "--cell", "3,1", "--table", "T"],
                 "--table is not read by estimator 'local'"),
    "mc-expected": (["mc", "--estimator", "expected", "--n", "3", "--p", "0.5,0.5", "--table", "T"],
                    "--table is not read by estimator 'expected'"),
    "estimate-negbin-zero-truncated": (
        ["estimate", "--what", "sizes", "--family", "negbin", "--zero-truncated", "--table", "T"],
        "the zero-truncated fit applies to the poisson family"),
    "alpha-both": (["risk", "--measure", "shrinkage", "--alpha", "1,1", "--estimate-alpha",
                    "--table", "T"], "give either --alpha or --estimate-alpha, not both"),
    "sizes-both": (["risk", "--measure", "global", "--size-model", "S", "--fit-sizes",
                    "--alpha", "1,1", "--table", "T"],
                   "give either --size-model or --fit-sizes, not both"),
    "shrinkage-no-alpha": (["risk", "--measure", "shrinkage", "--table", "T"],
                           "measure 'shrinkage' requires --table and --alpha"),
    "global-no-size-model": (["invert", "--measure", "global", "--alpha", "1,1", "--table", "T"],
                             "measure 'global' requires --alpha and a size model"),
    "global-variant-no-k": (["risk", "--measure", "global_variant", "--size-model", "S"],
                            "measure 'global_variant' requires a size model and --categories"),
    "risk-laplace-delta": (["risk", "--measure", "expected", "--delta", "0.1", "--table", "T"],
                           "the laplace mechanism takes no delta"),
    "invert-laplace-delta": (["invert", "--measure", "expected", "--delta", "0.1", "--table", "T"],
                             "the laplace mechanism takes no delta"),
    "utility-ks": (["utility", "--mechanism", "laplace", "--epsilon", "1", "--ks", "1,x",
                    "--table", "T"], "--ks must be a comma-separated list of integers"),
    "risk-alpha": (["risk", "--measure", "shrinkage", "--alpha", "1,x", "--table", "T"],
                   "--alpha must be a comma-separated list of numbers"),
    "invert-gaussian-no-delta": (
        ["invert", "--measure", "expected", "--mechanism", "gaussian_pdp", "--target-risk", "0.3",
         "--table", "T", "--output", "O"], "mechanism 'gaussian_pdp' requires --delta"),
}


@pytest.mark.parametrize("argv,message", _REFUSED_BEFORE_READ.values(), ids=_REFUSED_BEFORE_READ)
def test_refused_before_the_table_is_read(capsys, tmp_path, argv, message):
    """On a table or size-model path that does not exist, a run refused for its
    flags names them in one line, not the read error: the flags are checked
    before any read. A seeded verb given no --seed prints no seed line."""
    rest = [] if "O" in argv else _VERB_FLAGS.get(argv[0], ["--output", "O"])
    paths = {"T": str(tmp_path / "missing.json"), "S": str(tmp_path / "sizes.json"),
             "O": str(tmp_path / "out")}
    code, stdout, err = run(capsys, *[paths.get(a, a) for a in argv + rest])
    assert (code, stdout, err) == (1, "", f"error: {message}\n")
    assert not os.listdir(tmp_path)


def test_every_flag_is_read_by_some_entry_or_by_the_whole_verb():
    """Each option of risk, invert, mc and estimate is an input some measure,
    estimator or --what value reads, or one the whole verb reads; so a flag
    added later is declared where the refusals look, not silently dropped.
    Every flag the declaration names is an option of one of these verbs, and every
    flag of a conflict pair, a table fit or a list check is an option of some verb,
    so a renamed flag cannot silently switch a refusal off."""
    from hadr.cli import _EITHER, _FITS, _LISTS, _READS, _SUPPLIES, build_parser

    declared = {f for f in set().union(*_READS.values(), *_SUPPLIES.values()) if f[:2] == "--"}
    verb_wide = {"--help", "--table", "--measure", "--estimator", "--what", "--mechanism",
                 "--epsilon", "--epsilon-grid", "--delta", "--delta-grid", "--target-risk",
                 "--seed", "--threads", "--reps", "--output"}
    verbs = build_parser()._subparsers._group_actions[0].choices
    options = set()
    for verb in ("risk", "invert", "mc", "estimate"):
        flags = {f for action in verbs[verb]._actions for f in action.option_strings}
        assert flags - declared - verb_wide - {"-h"} == set(), verb
        options |= flags
    assert declared <= options
    every = {f for p in verbs.values() for action in p._actions for f in action.option_strings}
    assert set().union(*_EITHER, _FITS, _LISTS) <= every


@pytest.mark.parametrize(
    "argv,unset",
    [
        (["risk", "--measure", "local", "--table", "T", "--mechanism", "laplace",
          "--epsilon-grid", "1:1:lin1"], "size_family"),
        (["mc", "--estimator", "local", "--cell", "3,1", "--mechanism", "laplace",
          "--epsilon", "1", "--reps", "10", "--seed", "1"], "mode"),
        (["estimate", "--what", "alpha", "--table", "T"], "family"),
    ],
    ids=["risk", "mc", "estimate"],
)
def test_manifest_records_no_flag_that_was_not_given(capsys, tmp_path, argv, unset):
    """--size-family, --mode and --family have no parser default: a run that
    does not give one neither reads it nor records it."""
    write_table(make_table(FIT_ROWS), tmp_path / "t.json")
    out = tmp_path / "out"
    argv = [str(tmp_path / "t.json") if a == "T" else a for a in argv]
    assert run(capsys, *argv, "--output", str(out))[0] == 0
    recorded = json.loads((tmp_path / "out.manifest.json").read_text())["arguments"]
    assert unset not in recorded


def test_missing_table_file(capsys, tmp_path):
    code, _, err = run(
        capsys,
        "risk",
        "--table", str(tmp_path / "nope.json"),
        "--measure", "expected",
        "--mechanism", "laplace",
        "--epsilon-grid", "0.1:1:log3",
        "--output", str(tmp_path / "c.csv"),
    )
    assert code == 1 and "error:" in err


@pytest.mark.parametrize(
    "flags", [["--estimate-alpha"], ["--alpha", "1,2", "--fit-sizes"]], ids=["alpha", "sizes"]
)
def test_fit_flags_name_themselves_without_table(capsys, tmp_path, flags):
    code, _, err = run(
        capsys,
        "risk",
        "--measure", "global",
        *flags,
        "--mechanism", "laplace",
        "--epsilon-grid", "0.1:1:log3",
        "--output", str(tmp_path / "c.csv"),
    )
    assert (code, err) == (1, f"error: {flags[-1]} requires --table\n")


# cell sizes and category mixes both overdispersed, so either size family and
# the moment fit of alpha succeed
FIT_ROWS = [(1, 9), (8, 2), (3, 3), (0, 5), (12, 1), (2, 0), (6, 6), (1, 20)]
# mean size 1.625: the plain Poisson fit is 1.625, the zero-truncated one about 1.065
SMALL_ROWS = [(1, 0), (0, 1), (2, 0), (0, 2), (1, 1), (1, 0), (0, 3), (0, 1)]


@pytest.mark.parametrize(
    "rows,family,truncated",
    [(FIT_ROWS, "poisson", []), (FIT_ROWS, "negbin", []),
     (SMALL_ROWS, "poisson", ["--zero-truncated"])],
    ids=["poisson", "negbin", "poisson-zero-truncated"],
)
def test_fitted_global_curve_matches_the_estimates_given(
    capsys, tmp_path, rows, family, truncated
):
    """--estimate-alpha --fit-sizes draws the curve of the estimate verb's alpha and sizes;
    with --zero-truncated, a Poisson fit is the zero-truncated one."""
    write_table(make_table(rows), tmp_path / "t.json")
    table = ["--table", str(tmp_path / "t.json")]
    code, stdout, _ = run(
        capsys, "estimate", *table, "--what", "alpha", "--output", str(tmp_path / "alpha.json")
    )
    assert code == 0
    alpha = ",".join(map(repr, json.loads(stdout)["alpha"]))
    sizes = tmp_path / "sizes.json"
    code, _, _ = run(
        capsys, "estimate", *table, "--what", "sizes", "--family", family, *truncated,
        "--output", str(sizes),
    )
    assert code == 0
    curve = ["risk", "--measure", "global", "--mechanism", "laplace", "--epsilon-grid", "0.1:10:log5",
             *truncated]
    code, _, _ = run(
        capsys, *curve, *table, "--estimate-alpha", "--fit-sizes", "--size-family", family,
        "--output", str(tmp_path / "fitted.csv"),
    )
    assert code == 0
    code, _, _ = run(
        capsys, *curve, "--alpha", alpha, "--size-model", str(sizes),
        "--output", str(tmp_path / "given.csv"),
    )
    assert code == 0
    assert (tmp_path / "fitted.csv").read_bytes() == (tmp_path / "given.csv").read_bytes()


@pytest.mark.parametrize(
    "flags,conflict",
    [
        (["--alpha", "1,2", "--estimate-alpha"], "--alpha or --estimate-alpha"),
        (["--size-model", "sm.json", "--fit-sizes"], "--size-model or --fit-sizes"),
        (["--delta", "1e-6", "--delta-grid", "1e-6:1e-5:log2"], "--delta or --delta-grid"),
    ],
    ids=["alpha", "sizes", "delta"],
)
def test_conflicting_flags_exit_1(capsys, tmp_path, flags, conflict):
    write_table(make_table(FIT_ROWS), tmp_path / "t.json")
    out = tmp_path / "c.csv"
    code, _, err = run(
        capsys,
        "risk",
        "--table", str(tmp_path / "t.json"),
        "--measure", "global",
        *flags,
        "--mechanism", "laplace",
        "--epsilon-grid", "1:2:lin2",
        "--output", str(out),
    )
    assert (code, err) == (1, f"error: give either {conflict}, not both\n")
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--table", "--size-model"])
def test_deeply_nested_json_exits_1_with_one_line(capsys, tmp_path, flag):
    """A table or size-model file nested beyond the decoder's recursion limit
    exits 1 with one error line, not a traceback."""
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    what = "table JSON" if flag == "--table" else "size-model JSON"
    code, _, err = run(
        capsys, "risk", "--measure", "global_variant", flag, str(path), "--categories", "4",
        *(["--fit-sizes"] if flag == "--table" else []), "--mechanism", "laplace",
        "--epsilon-grid", "0.1:1:log3", "--output", str(tmp_path / "c.csv"),
    )
    assert (code, err) == (1, f"error: {what} is nested too deeply\n")
    assert os.listdir(tmp_path) == ["deep.json"]


def test_malformed_table_json_exits_1(capsys, tmp_path):
    doc = {"qid_names": ["g"], "sensitive_name": "y", "categories": ["u", "v"]}
    doc["cells"] = [{"key": ["a"], "counts": [2.7, 1]}]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(
        capsys,
        "risk",
        "--table", str(path),
        "--measure", "expected",
        "--mechanism", "laplace",
        "--epsilon-grid", "0.1:1:log3",
        "--output", str(tmp_path / "c.csv"),
    )
    assert code == 1 and "cell 0" in err and "counts" in err
    assert not (tmp_path / "c.csv").exists()


@pytest.mark.parametrize("counts", [[2**70, 1], [2**62, 2**62]])
def test_table_counts_beyond_int64_exit_1(capsys, tmp_path, counts):
    doc = {"qid_names": ["g"], "sensitive_name": "y", "categories": ["u", "v"]}
    doc["cells"] = [{"key": ["a"], "counts": [1, 0]}, {"key": ["b"], "counts": counts}]
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(
        capsys,
        "risk",
        "--table", str(path),
        "--measure", "local",
        "--mechanism", "laplace",
        "--epsilon-grid", "0.1:1:log3",
        "--output", str(tmp_path / "c.csv"),
    )
    assert code == 1 and "cell ('b',)" in err and "does not fit int64" in err
    assert not (tmp_path / "c.csv").exists()


@pytest.mark.parametrize(
    "counts,message", [([0, 0], "is empty"), ([2**63, 0], "does not fit int64")],
    ids=["empty", "int64"],
)
def test_a_long_cell_key_is_quoted_briefly(capsys, tmp_path, counts, message):
    """A cell whose key is 100,000 characters long exits 1 with one short line
    that names the fault, not with the whole key."""
    doc = {"qid_names": ["g"], "sensitive_name": "y", "categories": ["u", "v"]}
    doc["cells"] = [{"key": ["k" * 100_000], "counts": counts}]
    path = tmp_path / "long.json"
    path.write_text(json.dumps(doc))
    code, stdout, err = run(
        capsys, "risk", "--table", str(path), "--measure", "local", "--mechanism", "laplace",
        "--epsilon-grid", "0.1:1:log3", "--output", str(tmp_path / "c.csv"),
    )
    assert (code, stdout, err.count("\n")) == (1, "", 1)
    assert err.startswith("error: cell ('kkk") and message in err and len(err.encode()) < 200
    assert os.listdir(tmp_path) == ["long.json"]


def _fresh(code: str) -> str:
    """Stdout of ``code`` run in a new interpreter that imports this hadr."""
    src = os.path.dirname(os.path.dirname(hadr.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True
    )
    return proc.stdout.strip()


def test_files_are_utf8_under_an_ascii_locale(tmp_path):
    """tabulate, then risk, read and write UTF-8 whatever the locale: a run under
    the C locale with UTF-8 mode off writes the bytes of a UTF-8-mode run.

    Column names given as arguments are read as UTF-8 too, and the
    manifest records them so decoded; a leading byte-order mark of the CSV
    is dropped, and a summary that the ASCII stdout cannot hold is printed
    with backslash escapes.
    """
    inputs = {  # CSV name: (its bytes, --qids, --sensitive)
        "city": ("city,diag\nZürich,grippe\nZürich,fièvre\nGenève,grippe\n", "city", "diag"),
        "ville": ("\ufeffville,Diagnöse\nLyon,grippe\nLyon,fièvre\nNice,grippe\n", "ville",
                  "Diagnöse"),
    }
    src = os.path.dirname(os.path.dirname(hadr.__file__))
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    locales = {
        "ascii": dict(LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0"),
        "utf8": dict(PYTHONUTF8="1"),
    }
    tables, summaries, names = {}, {}, {}
    for csv_name, (text, qids, sensitive) in inputs.items():
        (tmp_path / f"{csv_name}.csv").write_bytes(text.encode("utf-8"))
        for name, settings in locales.items():
            env = dict(os.environ, PYTHONPATH=path, **settings)
            table = tmp_path / f"{csv_name}-{name}.json"
            for argv in (
                ["tabulate", "--input", f"{csv_name}.csv", "--qids", qids,
                 "--sensitive", sensitive],
                ["risk", "--table", table.name, "--measure", "local", "--mechanism", "laplace",
                 "--epsilon-grid", "1:1:log1"],
            ):
                out = table.name if argv[0] == "tabulate" else f"{csv_name}-{name}.csv"
                # the arguments as the UTF-8 bytes a terminal passes, whatever this locale
                argv = [a.encode("utf-8") for a in [*argv, "--output", out]]
                proc = subprocess.run([sys.executable, "-m", "hadr.cli", *argv],
                                      cwd=tmp_path, env=env, capture_output=True, timeout=60)
                assert proc.returncode == 0, proc.stderr
                if argv[0] == b"tabulate":
                    summaries[csv_name, name] = proc.stdout
            tables[csv_name, name] = table.read_bytes()
            manifest = json.loads((tmp_path / f"{table.name}.manifest.json").read_bytes())
            names[csv_name, name] = [manifest["arguments"][k] for k in ("qids", "sensitive")]
        assert tables[csv_name, "ascii"] == tables[csv_name, "utf8"]
        assert names[csv_name, "ascii"] == names[csv_name, "utf8"] == [qids, sensitive]
    city, ville = (json.loads(tables[n, "ascii"].decode("utf-8")) for n in ("city", "ville"))
    assert city["categories"] == ["fièvre", "grippe"]
    assert ville["qid_names"] == ["ville"] and ville["sensitive_name"] == "Diagnöse"
    summary = "2 cells, 2 categories of {}, 0 rows dropped\n"
    assert summaries["ville", "utf8"] == summary.format("'Diagnöse'").encode("utf-8")
    assert summaries["ville", "ascii"] == summary.format("'Diagn\\xf6se'").encode("ascii")


# scipy's heavy modules, and numpy modules only scipy.special pulls in
_HEAVY = "{'scipy.special', 'scipy.stats', 'scipy.optimize', 'numpy.f2py'}"


def test_import_leaves_scipy_stats_unloaded():
    """scipy.special and scipy.stats load where they are first used, not at start-up."""
    assert _fresh(f"import sys, hadr.cli; print(sorted({_HEAVY} & set(sys.modules)))") == "[]"


@pytest.mark.parametrize(
    "argv",
    [
        ["tabulate", "--input", "micro.csv", "--qids", "g,h", "--sensitive", "y"],
        ["sanitize", "--table", "table.json", "--mechanism", "laplace", "--epsilon", "1",
         "--seed", "3"],
        ["utility", "--table", "table.json", "--mechanism", "laplace", "--epsilon", "1",
         "--ks", "1", "--reps", "2", "--seed", "3"],
        ["mc", "--estimator", "global", "--alpha", "1,2", "--size-model", "sm.json",
         "--mechanism", "laplace", "--epsilon", "1", "--reps", "500", "--seed", "3"],
        ["mc", "--estimator", "global_variant", "--categories", "2", "--size-model", "sm.json",
         "--mechanism", "laplace", "--epsilon", "1", "--reps", "500", "--seed", "3"],
        ["risk", "--table", "table.json", "--measure", "local", "--mechanism", "laplace",
         "--epsilon-grid", "0.1:10:log5"],
        ["risk", "--table", "table.json", "--measure", "expected", "--mechanism", "laplace",
         "--epsilon-grid", "0.1:10:log5"],
        ["invert", "--table", "table.json", "--measure", "expected", "--mechanism", "laplace",
         "--target-risk", "0.001"],
    ],
    ids=["tabulate", "sanitize-laplace", "utility-laplace", "mc-global", "mc-global_variant",
         "risk-local-laplace", "risk-expected-laplace", "invert-expected-laplace"],
)
def test_tabulate_and_laplace_verbs_leave_scipy_unloaded(data_dir, capsys, argv):
    """A whole run loads neither, and its manifest still records scipy's version;
    the MC oracles draw sizes with numpy alone, and the Laplace local and
    expected measures compute no Dirichlet moments."""
    import scipy

    tabulate(data_dir, capsys)
    (data_dir / "sm.json").write_text('{"family":"negbin","lambda":0.3,"r":2.5}\n')
    inputs = ("micro.csv", "table.json", "sm.json")
    argv = [str(data_dir / a) if a in inputs else a for a in argv]
    argv += ["--output", str(data_dir / "out")]
    code = (
        "import sys, hadr.cli\n"
        f"assert hadr.cli.main({argv!r}) == 0\n"
        f"print(sorted({_HEAVY} & set(sys.modules)))"
    )
    assert _fresh(code).splitlines()[-1] == "[]"
    manifest = json.loads((data_dir / "out.manifest.json").read_text())
    assert manifest["versions"]["scipy"] == scipy.__version__


@pytest.mark.parametrize(
    "argv",
    [
        ["estimate", "--table", "T", "--what", "sizes", "--zero-truncated"],
        ["estimate", "--table", "T", "--what", "sizes", "--family", "negbin"],
        ["risk", "--measure", "global", "--alpha", "1,2", "--size-model", "S", "--zero-truncated",
         "--mechanism", "laplace", "--epsilon-grid", "0.1:1:log3"],
        ["invert", "--measure", "global", "--alpha", "1,2", "--size-model", "S",
         "--mechanism", "laplace", "--target-risk", "0.3"],
    ],
    ids=["estimate-poisson-zt", "estimate-negbin", "risk-global", "invert-global"],
)
def test_size_model_verbs_load_only_scipy_special(tmp_path, argv):
    """Fits and size models run on scipy.special kernels: no scipy.stats or scipy.optimize."""
    # overdispersed sizes (1 to 42), so the negbin fit is defined
    rows = [(1, 0), (2, 1), (5, 3), (9, 1), (20, 4), (3, 3), (40, 2), (1, 1)]
    write_table(make_table(rows), str(tmp_path / "table.json"))
    (tmp_path / "sm.json").write_text('{"family":"negbin","lambda":0.3,"r":2.5}\n')
    paths = {"T": str(tmp_path / "table.json"), "S": str(tmp_path / "sm.json")}
    argv = [paths.get(a, a) for a in argv] + ["--output", str(tmp_path / "out")]
    code = (
        "import sys, hadr.cli\n"
        f"assert hadr.cli.main({argv!r}) == 0\n"
        f"print(sorted({_HEAVY} & set(sys.modules) - {{'scipy.special', 'numpy.f2py'}}))"
    )
    assert _fresh(code).splitlines()[-1] == "[]"
    assert (tmp_path / "out.manifest.json").exists()


def test_gaussian_risk_calibrates_its_grid_after_the_table_read(tmp_path):
    """A Gaussian curve loads scipy.special only once its table is read, so
    the calibration's pages can reuse the memory the read freed: a run whose
    table does not exist exits 1 with scipy.special unloaded."""
    argv = ["risk", "--table", str(tmp_path / "missing.json"), "--measure", "expected",
            "--mechanism", "gaussian_pdp", "--delta", "1e-06", "--epsilon-grid", "0.1:10:log5",
            "--output", str(tmp_path / "out")]
    code = (
        "import sys, hadr.cli\n"
        f"assert hadr.cli.main({argv!r}) == 1\n"
        "print('scipy.special' in sys.modules)"
    )
    assert _fresh(code).splitlines()[-1] == "False"


@pytest.mark.skipif(usable_cpus() < 2, reason="ordered_map needs two usable CPUs for two threads")
def test_first_norm_cdf_calls_from_two_threads():
    """Two threads that both import scipy.special on their first call get right values."""
    code = (
        "import json, sys, threading\n"
        "from hadr import PrivacyParams\n"
        "from hadr._rng import ordered_map\n"
        "cdf = PrivacyParams('gaussian_pdp', 0.5, 1.0).cdf\n"
        "assert 'scipy.special' not in sys.modules\n"
        "both = threading.Barrier(2, timeout=30)\n"
        "def first(x):\n"
        "    both.wait()\n"
        "    return cdf(x)\n"
        "print(json.dumps(ordered_map(first, [-1.0, 2.0], 2)))"
    )
    want = [0.5 * math.erfc(1 / math.sqrt(2)), 0.5 * math.erfc(-2 / math.sqrt(2))]
    assert json.loads(_fresh(code)) == pytest.approx(want, rel=1e-14)
