"""End-to-end command-line behavior: verbs, exit codes, manifests, determinism."""

import json
import re

import numpy as np
import pytest

from conftest import make_homog_table, make_table
from hadr import write_table
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


def test_risk_curve_and_thread_byte_identity(data_dir, capsys, tmp_path):
    table_path, _ = tabulate(data_dir, capsys)
    out = tmp_path / "curve.csv"
    snapshots = []
    for threads in ("1", "4"):
        code, stdout, _ = run(
            capsys,
            "risk",
            "--table", str(table_path),
            "--measure", "expected",
            "--mechanism", "laplace",
            "--epsilon-grid", "0.01:10:log7",
            "--threads", threads,
            "--output", str(out),
        )
        assert code == 0
        assert "7 curve points" in stdout
        snapshots.append((out.read_bytes(), (tmp_path / "curve.csv.manifest.json").read_bytes()))
    assert snapshots[0][0] == snapshots[1][0]
    # --threads stays out of the manifest, so the manifests match bytewise too
    assert snapshots[0][1] == snapshots[1][1]
    lines = snapshots[0][0].decode().splitlines()
    assert lines[0].startswith("epsilon,delta,mechanism,measure,value")
    assert len(lines) == 8


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


@pytest.mark.parametrize(
    "grid", ["0.1:1", "1:0.1:log5", "0:1:log5", "a:b:log3", "1:2:geo4", "2:3:log1"]
)
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
    assert code == 1 and "error:" in err


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
        "risk",
        "--table", str(tmp_path / "t.json"),
        "--measure", "expected",
        "--mechanism", "laplace",
        "--epsilon-grid", "0.1:1:log3",
        "--threads", "0",
        "--output", str(tmp_path / "c.csv"),
    )
    assert code == 1 and "at least 1" in err


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["risk", "--mechanism", "laplace"])  # missing required flags
    assert exc.value.code == 2


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
