"""End-to-end command line checks through the module entry point."""

import csv
import json

import pytest


@pytest.fixture()
def p3_file(tmp_path):
    path = tmp_path / "p3.txt"
    path.write_text("3 2\n1 2\n2 3\n")
    return path.name


def test_sample_writes_all_artifacts(run_cli, tmp_path):
    res = run_cli(
        "sample", "--model", "hardcore", "--lambda", "0.3",
        "--graph", "z2", "--window", "box:3x3@0,0",
        "--radius", "2", "--seed", "7",
        cwd=tmp_path,
    )
    assert res.returncode == 0, res.stderr
    assert "sampled 9 vertices" in res.stdout

    with open(tmp_path / "sample.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["vertex", "spin"]
    assert len(rows) == 10
    assert all(r[1] in ("1", "2") for r in rows[1:])

    report = json.loads((tmp_path / "report.json").read_text())
    assert report["seed"] == 7
    assert report["model"] == "hardcore(lambda=0.3)"
    assert report["radius"] == 2
    assert len(report["window"]) == 9
    assert report["wall_time_ms"] is None
    assert "spins" not in report

    pgm = (tmp_path / "sample.pgm").read_bytes()
    assert pgm.startswith(b"P5\n3 3\n255\n")
    assert len(pgm) == len(b"P5\n3 3\n255\n") + 9
    assert set(pgm[-9:]) <= {0, 255}


def test_sample_is_deterministic(run_cli, tmp_path):
    for sub in ("a", "b"):
        d = tmp_path / sub
        d.mkdir()
        res = run_cli(
            "sample", "--model", "hardcore", "--lambda", "0.3",
            "--graph", "z2", "--window", "box:3x3@0,0",
            "--radius", "2", "--seed", "7",
            cwd=d,
        )
        assert res.returncode == 0, res.stderr
    for name in ("sample.csv", "report.json", "sample.pgm"):
        assert (tmp_path / "a" / name).read_bytes() == (
            tmp_path / "b" / name
        ).read_bytes()


def test_sample_list_window_on_file_graph(run_cli, tmp_path, p3_file):
    res = run_cli(
        "sample", "--model", "ising", "--lambda", "1.5",
        "--graph", f"file:{p3_file}", "--window", "list:1;3",
        "--radius", "1", "--seed", "3",
        cwd=tmp_path,
    )
    assert res.returncode == 0, res.stderr
    with open(tmp_path / "sample.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert [r[0] for r in rows] == ["vertex", "1", "3"]


def test_sample_monomer_dimer(run_cli, tmp_path, p3_file):
    res = run_cli(
        "sample", "--model", "monomer-dimer", "--gamma", "0.7",
        "--graph", f"file:{p3_file}", "--window", "all",
        "--radius", "1", "--seed", "5",
        cwd=tmp_path,
    )
    assert res.returncode == 0, res.stderr
    with open(tmp_path / "sample.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    # vertices of the derived graph are the base edges
    assert [r[0] for r in rows[1:]] == ["(1,2)", "(2,3)"]
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["model"] == "hardcore(lambda=0.7)"
    # both dimers present would overlap at vertex 2
    spins = {r[0]: r[1] for r in rows[1:]}
    assert not (spins["(1,2)"] == "2" and spins["(2,3)"] == "2")


def test_degenerate_system_is_reported(run_cli, tmp_path):
    (tmp_path / "triangle.txt").write_text("3 3\n1 2\n2 3\n1 3\n")
    res = run_cli(
        "sample", "--model", "coloring", "--q", "2",
        "--graph", "file:triangle.txt", "--window", "all",
        "--radius", "1", "--seed", "1",
        cwd=tmp_path,
    )
    assert res.returncode == 1
    assert res.stderr.startswith("degenerate-system:")


def test_config_errors(run_cli, tmp_path):
    cases = [
        # zero radius
        ["sample", "--model", "hardcore", "--lambda", "1.0", "--graph", "z2",
         "--window", "box:2x2@0,0", "--radius", "0", "--seed", "1"],
        # 'all' window on an infinite graph
        ["sample", "--model", "hardcore", "--lambda", "1.0", "--graph", "z2",
         "--window", "all", "--radius", "1", "--seed", "1"],
        # malformed box spec
        ["sample", "--model", "hardcore", "--lambda", "1.0", "--graph", "z2",
         "--window", "box:3x3", "--radius", "1", "--seed", "1"],
        # missing required model parameter
        ["sample", "--model", "hardcore", "--graph", "z2",
         "--window", "box:2x2@0,0", "--radius", "1", "--seed", "1"],
        # parameter that belongs to a different model
        ["sample", "--model", "hardcore", "--lambda", "1.0", "--q", "3",
         "--graph", "z2", "--window", "box:2x2@0,0", "--radius", "1",
         "--seed", "1"],
        # empty radius list
        ["estimate-mixing", "--model", "hardcore", "--lambda", "1.0",
         "--graph", "z2", "--ells", ""],
    ]
    for args in cases:
        res = run_cli(*args, cwd=tmp_path)
        assert res.returncode == 1, args
        code = res.stderr.split(":", 1)[0]
        assert code in ("config-error", "invalid-parameter"), res.stderr


def test_pgm_requires_two_spin_box(run_cli, tmp_path, p3_file):
    res = run_cli(
        "sample", "--model", "ising", "--lambda", "1.5",
        "--graph", f"file:{p3_file}", "--window", "list:1;3",
        "--radius", "1", "--seed", "3", "--pgm", "out.pgm",
        cwd=tmp_path,
    )
    assert res.returncode == 1
    assert res.stderr.startswith("config-error:")
    assert "box window" in res.stderr

    res = run_cli(
        "sample", "--model", "ising", "--lambda", "1.5",
        "--graph", f"file:{p3_file}", "--window", "list:1;3",
        "--radius", "1", "--seed", "3", "--pgm=out.pgm",
        cwd=tmp_path,
    )
    assert res.returncode == 1
    assert res.stderr.startswith("config-error:")
    assert not (tmp_path / "out.pgm").exists()

    res = run_cli(
        "sample", "--model", "coloring", "--q", "5",
        "--graph", "z2", "--window", "box:2x2@0,0",
        "--radius", "2", "--seed", "3", "--pgm", "out.pgm",
        cwd=tmp_path,
    )
    assert res.returncode == 1
    assert res.stderr.startswith("config-error:")


def test_estimate_mixing_stdout_and_file_agree(run_cli, tmp_path):
    args = [
        "estimate-mixing", "--model", "ising", "--lambda", "1.0",
        "--graph", "z2", "--ells", "1,2",
    ]
    to_stdout = run_cli(*args, cwd=tmp_path)
    assert to_stdout.returncode == 0, to_stdout.stderr
    to_file = run_cli(*args, "--out", "rates.csv", cwd=tmp_path)
    assert to_file.returncode == 0, to_file.stderr
    assert (tmp_path / "rates.csv").read_text() == to_stdout.stdout

    lines = to_stdout.stdout.strip().splitlines()
    assert lines[0] == "ell,f_hat,growth,alpha,is_least_contractive"
    # independent spins: zero rate everywhere, so radius 1 is already least
    first = lines[1].split(",")
    assert first[0] == "1" and float(first[1]) == 0.0 and first[4] == "1"


def test_verify_command_csv(run_cli, tmp_path):
    res = run_cli("verify", "lemma1", "--seed", "1", "--out", "suite.csv",
                  cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    lines = (tmp_path / "suite.csv").read_text().strip().splitlines()
    assert lines[0] == "metric,value"
    assert lines[-1] == "lemma1.passed,1"


def test_verify_unknown_suite(run_cli, tmp_path):
    res = run_cli("verify", "entropy", cwd=tmp_path)
    assert res.returncode == 1
    assert res.stderr.startswith("unknown-suite:")
