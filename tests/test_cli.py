import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from illposed.cli import (EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, MAX_REF_POINTS, RunConfig,
                          main)
from illposed.discretize import SchemeKind, build_system, dump_matrix
from illposed.problems import get_problem

SRC = str(Path(__file__).resolve().parents[1] / "src")


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_solve_writes_solution_and_summary(tmp_path):
    rc = main(["solve", "--problem", "rank1-sine", "--n", "16",
               "--out", str(tmp_path)])
    assert rc == EXIT_OK
    (row,) = read_csv(tmp_path / "summary.csv")
    assert row["n"] == "16"
    assert float(row["err_min_norm"]) <= 1e-6
    solution = read_csv(tmp_path / "solution_16.csv")
    assert len(solution) == 256
    errs = [abs(float(r["x_reconstructed"]) - float(r["x_true"])) for r in solution]
    assert max(errs) < 1e-3


def test_missing_config_file(tmp_path):
    assert main(["solve", str(tmp_path / "nope.json")]) == EXIT_CONFIG


def test_invalid_json_config(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("{not json")
    assert main(["solve", str(path)]) == EXIT_CONFIG


@pytest.mark.parametrize("fault", ["undecodable", "unreadable"])
def test_an_unreadable_config_exits_2(tmp_path, capsys, monkeypatch, fault):
    # a UTF-16 byte-order mark is not UTF-8; an unreadable file raises
    # OSError on the same read: one error line, no traceback, no output
    path = tmp_path / "cfg.json"
    path.write_bytes(b"\xff\xfe{\x00}\x00")
    if fault == "unreadable":
        def denied(self, *args, **kwargs):
            raise PermissionError(13, "Permission denied", str(self))
        monkeypatch.setattr(Path, "read_text", denied)
    out = tmp_path / "out"
    assert main(["solve", str(path), "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read config file") and err.count("\n") == 1
    assert not out.exists()


def test_unknown_config_key_rejected(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    for key, value in (("schme", "ortho"), ("inner_factor", 4)):
        path.write_text(json.dumps({"problem": "rank1-sine", key: value}))
        assert main(["solve", str(path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert f"unknown config keys: {key}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def test_unknown_problem_and_scheme(tmp_path):
    assert main(["solve", "--problem", "mystery", "--out", str(tmp_path)]) == EXIT_CONFIG
    assert main(["solve", "--scheme", "galerkin", "--out", str(tmp_path)]) == EXIT_CONFIG


def test_unknown_problem_id_exits_before_any_cell_is_built(tmp_path, monkeypatch):
    built = []
    monkeypatch.setattr("illposed.cli.build_system", lambda *args, **kwargs: built.append(args))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"problem": ["green-m1", "bogus"]}))
    out = tmp_path / "out"
    assert main(["verify", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    assert not (out / "bounds.csv").exists()
    assert built == []


def test_ref_points_guard(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"problem": "rank1-sine", "n": [16], "ref_points": 32}))
    assert main(["solve", str(cfg), "--out", str(tmp_path)]) == EXIT_CONFIG


@pytest.mark.parametrize("command", ["solve", "study", "verify"])
def test_a_ref_points_above_the_maximum_exits_2(tmp_path, capsys, monkeypatch, command):
    # a 10^6-point rule would take an hour to build and 7.3 TiB to sample
    built = []
    monkeypatch.setattr("illposed.cli.build_system", lambda *args, **kwargs: built.append(args))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"problem": "rank1-sine", "n": [8], "ref_points": 1000000}))
    out = tmp_path / "out"
    assert main([command, str(cfg), "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == f"error: ref_points=1000000 must be at most {MAX_REF_POINTS}\n"
    assert built == []
    assert not out.exists()
    config = RunConfig(["rank1-sine"], [SchemeKind.COLLOCATION], [8], ref_points=MAX_REF_POINTS)
    assert config.ref_points == MAX_REF_POINTS


def test_solve_noisy_runs_are_bytewise_deterministic(tmp_path):
    args = ["solve", "--problem", "green-m1", "--n", "8,16", "--delta", "1e-3",
            "--seed", "7"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out1)]) == EXIT_OK
    assert main(args + ["--out", str(out2)]) == EXIT_OK
    for name in ("summary.csv", "solution_8.csv", "solution_16.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_study_single_n(tmp_path):
    rc = main(["study", "--problem", "rank1-sine", "--scheme", "collocation",
               "--n", "8", "--out", str(tmp_path)])
    assert rc == EXIT_OK
    rows = read_csv(tmp_path / "convergence.csv")
    assert len(rows) == 1 and rows[0]["n"] == "8"


def test_study_all_schemes_fan_out(tmp_path):
    rc = main(["study", "--problem", "rank1-sine", "--scheme", "all",
               "--n", "4,8", "--out", str(tmp_path)])
    assert rc == EXIT_OK
    names = sorted(p.name for p in tmp_path.glob("convergence_*.csv"))
    assert names == ["convergence_collocation.csv", "convergence_interpolatory.csv",
                     "convergence_ortho-pc.csv"]


def test_study_default_grid_monotone(tmp_path):
    # defaults: green-m1, collocation, n = 8..64; the measured error columns
    # must shrink along the ladder
    assert main(["study", "--out", str(tmp_path)]) == EXIT_OK
    rows = read_csv(tmp_path / "convergence.csv")
    assert [r["n"] for r in rows] == ["8", "16", "32", "64"]
    for column in ("eps_n", "err_min_norm", "err_tikh"):
        values = [float(r[column]) for r in rows]
        assert all(b < a for a, b in zip(values, values[1:])), column


def test_verify_small_grid(tmp_path):
    rc = main(["verify", "--problem", "rank1-sine", "--scheme", "collocation",
               "--n", "8", "--out", str(tmp_path)])
    assert rc == EXIT_OK
    rows = read_csv(tmp_path / "bounds.csv")
    assert rows
    assert {r["passed"] for r in rows} <= {"true", "skipped"}
    assert {r["problem"] for r in rows} == {"rank1-sine"}


def test_verify_huge_delta_reports_skips(tmp_path):
    rc = main(["verify", "--problem", "green-m1", "--scheme", "collocation",
               "--n", "8", "--delta", "10.0", "--out", str(tmp_path)])
    assert rc == EXIT_OK
    rows = read_csv(tmp_path / "bounds.csv")
    assert any(r["passed"] == "skipped" for r in rows)
    assert all(r["passed"] in ("true", "skipped") for r in rows)


def test_corrupted_matrix_dump_replay(tmp_path):
    # an asymmetric replacement violates the self-adjointness the solver
    # relies on; the run must fail with the numerical exit code
    bad = np.array([[1.0, 0.9], [0.0, 1.0]])
    dump_path = tmp_path / "dump.csv"
    dump_matrix(bad, dump_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "problem": "rank1-sine", "scheme": "collocation", "n": [2],
        "matrix_dump": str(dump_path), "out": str(tmp_path),
    }))
    assert main(["solve", str(cfg)]) == EXIT_NUMERICAL
    shape_mismatch = tmp_path / "cfg2.json"
    shape_mismatch.write_text(json.dumps({
        "problem": "rank1-sine", "scheme": "collocation", "n": [4],
        "matrix_dump": str(dump_path), "out": str(tmp_path),
    }))
    assert main(["solve", str(shape_mismatch)]) == EXIT_NUMERICAL


def test_asymmetric_matrix_dump_is_rejected_as_not_self_adjoint(tmp_path, capsys):
    dump_path = tmp_path / "dump.csv"
    dump_matrix(np.array([[1.0, 0.9], [0.0, 1.0]]), dump_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": [2], "matrix_dump": str(dump_path),
                               "out": str(tmp_path)}))
    assert main(["solve", str(cfg)]) == EXIT_NUMERICAL
    assert "not self-adjoint" in capsys.readouterr().err


def test_replaying_the_own_matrix_dump_reproduces_the_summary(tmp_path):
    # the replay refactors the dumped matrix; an unchanged matrix must give
    # the same bytes as the plain run
    prob = get_problem("green-m1")
    dump_path = tmp_path / "dump.csv"
    dump_matrix(build_system(prob.kernel, "interpolatory", 12).matrix, dump_path)
    args = ["solve", "--problem", "green-m1", "--scheme", "interpolatory",
            "--n", "12", "--delta", "1e-3"]
    assert main(args + ["--out", str(tmp_path / "plain")]) == EXIT_OK
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"matrix_dump": str(dump_path)}))
    assert main(args + [str(cfg), "--out", str(tmp_path / "replay")]) == EXIT_OK
    for name in ("summary.csv", "solution_12.csv"):
        assert ((tmp_path / "plain" / name).read_bytes()
                == (tmp_path / "replay" / name).read_bytes())


def test_solve_writes_nothing_when_a_later_cell_fails(tmp_path, capsys):
    # the 2x2 dump fits the n=2 cell but not the n=4 one
    dump_path = tmp_path / "dump.csv"
    dump_matrix(np.eye(2), dump_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"problem": "rank1-sine", "n": [2, 4],
                               "matrix_dump": str(dump_path)}))
    out = tmp_path / "out"
    assert main(["solve", str(cfg), "--out", str(out)]) == EXIT_NUMERICAL
    assert "does not match the system (4, 4)" in capsys.readouterr().err
    assert not out.exists()


def test_study_writes_nothing_when_a_later_scheme_fails(tmp_path, capsys):
    # diag(1, 2) is self-adjoint for the equal weights of collocation at
    # n=2 but not in the interpolatory hat Gram metric
    dump_path = tmp_path / "dump.csv"
    dump_matrix(np.diag([1.0, 2.0]), dump_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"problem": "rank1-sine", "n": [2],
                               "matrix_dump": str(dump_path)}))
    out = tmp_path / "out"
    assert main(["study", str(cfg), "--scheme", "all", "--out", str(out)]) == EXIT_NUMERICAL
    assert "not self-adjoint" in capsys.readouterr().err
    assert not out.exists()


def _verify_in_subprocess(out, threads):
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               OMP_NUM_THREADS=str(threads), MKL_NUM_THREADS=str(threads))
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    subprocess.run([sys.executable, "-m", "illposed.cli", "verify", "--n", "4,8",
                    "--out", str(out)], env=env, check=True, timeout=300)
    return (out / "bounds.csv").read_bytes()


def test_verify_determinism_contract(tmp_path):
    # bytes are reproducible for a fixed machine and BLAS thread count;
    # the verdicts also across thread counts
    first = _verify_in_subprocess(tmp_path / "a", 1)
    assert _verify_in_subprocess(tmp_path / "b", 1) == first
    _verify_in_subprocess(tmp_path / "c", 2)
    passed = [[row["passed"] for row in read_csv(tmp_path / name / "bounds.csv")]
              for name in ("a", "c")]
    assert passed[0] and passed[0] == passed[1]


def test_flags_override_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"problem": "green-m1", "n": [8], "alpha": 0.5}))
    out = tmp_path / "out"
    rc = main(["solve", str(cfg), "--problem", "rank1-sine", "--out", str(out)])
    assert rc == EXIT_OK
    (row,) = read_csv(out / "summary.csv")
    assert float(row["err_min_norm"]) <= 1e-6  # rank1, not green


@pytest.mark.parametrize("argv, flag", [
    (["solve", "--problem", "all", "--scheme", "all"], "--problem"),
    (["solve", "--problem", "green-m1", "--scheme", "all"], "--scheme"),
    (["study", "--problem", "all"], "--problem"),
])
def test_requests_for_more_work_than_a_command_runs_are_rejected(
        tmp_path, capsys, argv, flag):
    # solve runs one problem and one scheme, study one problem; asking for
    # more must not silently run only the first
    assert main(argv + ["--n", "8", "--out", str(tmp_path)]) == EXIT_CONFIG
    assert flag in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["solve", "study", "verify"])
def test_ref_points_reaches_every_system(tmp_path, monkeypatch, command):
    # each command's cell measures eps_n on the configured rule, not the default
    built = []

    def spy(*args, **kwargs):
        system = build_system(*args, **kwargs)
        built.append(system)
        return system

    monkeypatch.setattr("illposed.cli.build_system", spy)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"problem": "green-m1", "scheme": "collocation",
                               "n": [8], "ref_points": 300}))
    assert main([command, str(cfg), "--out", str(tmp_path)]) == EXIT_OK
    (system,) = built
    assert system.ref_points == 300 and system.reference_rule.n_points == 300
    assert "epsilon_n" in vars(system)  # measured during the run, not here
    if command == "solve":  # the output grid has the configured size too
        assert len(read_csv(tmp_path / "solution_8.csv")) == 300


@pytest.mark.parametrize("command, problems, schemes, cells", [
    ("solve", ["green-m1"], ["ortho-pc"], 2),
    ("study", ["green-m1"], ["collocation", "ortho-pc"], 4),
    ("verify", ["rank1-sine", "green-m1"], ["collocation", "ortho-pc"], 8),
])
def test_every_cell_is_built_once_in_the_cli(tmp_path, monkeypatch, command, problems,
                                             schemes, cells):
    # every command builds its cells through cli.build_system, once each,
    # problem by problem, scheme by scheme, size by size
    built = []

    def spy(kernel, scheme, n, **kwargs):
        built.append((kernel, scheme, n))
        return build_system(kernel, scheme, n, **kwargs)

    monkeypatch.setattr("illposed.cli.build_system", spy)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"problem": problems, "scheme": schemes, "n": [4, 8]}))
    assert main([command, str(cfg), "--out", str(tmp_path / "out")]) == EXIT_OK
    assert len(built) == cells
    assert [(SchemeKind.parse(s), n) for _, s, n in built] == [
        (SchemeKind.parse(s), n) for _ in problems for s in schemes for n in (4, 8)]
    kernels = [kernel for kernel, _, _ in built]
    assert kernels == [k for k in dict.fromkeys(kernels) for _ in range(cells // len(problems))]


@pytest.mark.parametrize("below", [False, True], ids=["file", "below-a-file"])
@pytest.mark.parametrize("command", ["solve", "study", "verify"])
def test_an_out_that_is_not_a_directory_is_rejected(tmp_path, monkeypatch, capsys,
                                                     command, below):
    # a file, or a path below one, cannot hold the outputs: exit 2 before any
    # cell is built, with the path named and the file left as it was
    built = []
    monkeypatch.setattr("illposed.cli.build_system", lambda *args, **kwargs: built.append(args))
    blocker = tmp_path / "F"
    blocker.write_text("keep\n")
    out = blocker / "sub" if below else blocker
    assert main([command, "--n", "8", "--out", str(out)]) == EXIT_CONFIG
    assert str(out) in capsys.readouterr().err
    assert built == []
    assert blocker.read_text() == "keep\n"
    assert list(tmp_path.iterdir()) == [blocker]


@pytest.mark.parametrize("command, config, key", [
    ("verify", {"problem": ["rank1-sine", "rank1-sine"], "scheme": "collocation"}, "problem"),
    ("verify", {"problem": "rank1-sine", "scheme": ["ortho", "ortho-pc"]}, "scheme"),
    ("study", {"problem": "green-m1", "scheme": ["collocation", "interp", "collocation"]},
     "scheme"),
])
def test_a_repeated_problem_or_scheme_is_rejected(tmp_path, capsys, command, config, key):
    # a repeat would run its cells twice: verify would write each row twice,
    # study would overwrite the scheme's file; an alias counts as a repeat
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(config, n=[8])))
    out = tmp_path / "out"
    assert main([command, str(cfg), "--out", str(out)]) == EXIT_CONFIG
    assert f"{key} names" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key", ["problem", "scheme"])
@pytest.mark.parametrize("command", ["solve", "study", "verify"])
def test_an_empty_problem_or_scheme_list_is_rejected(tmp_path, capsys, command, key):
    # it used to crash solve and study with an IndexError, or exit 0 having
    # run nothing (verify wrote a header-only bounds.csv)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: [], "n": [8]}))
    out = tmp_path / "out"
    assert main([command, str(cfg), "--out", str(out)]) == EXIT_CONFIG
    assert f"error: {key} names no id" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key", ["out", "matrix_dump"])
def test_a_path_key_that_is_not_a_string_is_named(tmp_path, capsys, monkeypatch, key):
    # the message used to be Path()'s "expected str, bytes or os.PathLike
    # object, not int", without the key
    monkeypatch.chdir(tmp_path)  # the default out
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"problem": "rank1-sine", "n": [8], key: 5}))
    assert main(["solve", str(cfg)]) == EXIT_CONFIG
    assert f"error: {key} must be a path string, got 5" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize("n", [[8, 8], [], [8.7, 16.2], [True, 16]],
                         ids=["repeated", "empty", "fractional", "bool"])
def test_a_bad_size_ladder_exits_2(tmp_path, capsys, monkeypatch, n):
    # a repeated or empty ladder, or sizes int() would have truncated to
    # 8, 16 or 1, 16, are rejected before any cell is built
    built = []
    monkeypatch.setattr("illposed.cli.build_system", lambda *args, **kwargs: built.append(args))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"problem": "rank1-sine", "n": n}))
    out = tmp_path / "out"
    assert main(["study", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error: n ")
    assert built == []
    assert not out.exists()


@pytest.mark.parametrize("argv, word", [
    (["solve", "--alpha", "nan"], "alpha"),
    (["solve", "--alpha", "inf"], "alpha"),
    (["solve", "--delta", "nan"], "delta"),
    (["solve", "--delta", "inf"], "delta"),
    (["solve", "--seed", "-1", "--delta", "1e-3"], "seed"),
    (["solve", "--scheme", "interpolatory", "--n", "1"], "interpolatory"),
    (["study", "--scheme", "interpolatory", "--n", "1"], "interpolatory"),
    (["verify", "--scheme", "interpolatory", "--n", "1"], "interpolatory"),
])
def test_bad_input_exits_2_and_writes_nothing(tmp_path, capsys, argv, word):
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == EXIT_CONFIG
    assert word in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key, value", [
    ("n", [8.5, 16]),
    ("n", [True, 8]),
    ("seed", 1.7),
    ("ref_points", 300.9),
    ("inner_factor", 4.5),  # no longer a key: rejected as unknown
    ("delta", True),
    ("alpha", True),
])
def test_config_numbers_are_not_coerced(tmp_path, capsys, key, value):
    # each used to run: truncated to an integer, or a bool read as 1
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"problem": "rank1-sine", "n": [8], key: value}))
    out = tmp_path / "out"
    assert main(["solve", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    assert key in capsys.readouterr().err
    assert not out.exists()


def test_a_non_integer_n_flag_is_named(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["solve", "--n", "8.5", "--out", str(out)]) == EXIT_CONFIG
    assert "--n must be an integer, got '8.5'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["solve", "study", "verify"])
def test_a_non_finite_measurement_is_a_numerical_failure(tmp_path, capsys, command):
    # a shift far below the rounding level overflows the Tikhonov solve, and
    # noise near the largest float overflows the data norm; the run must not
    # write inf into a summary or a bound row, and the overflow is reported
    # once, as the failure, not also as a warning
    for case, flags in enumerate((["--problem", "rank1-sine", "--n", "8", "--alpha", "1e-300"],
                                  ["--n", "4", "--delta", "1e300"])):
        out = tmp_path / f"out{case}"
        assert main([command, *flags, "--out", str(out)]) == EXIT_NUMERICAL, flags
        err = capsys.readouterr().err
        assert "non-finite" in err and err.count("\n") == 1, (flags, err)
        assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["solve", "--delta", "1e300"],
    ["verify", "--problem", "green-m1", "--n", "16", "--delta", "1e300"],
])
def test_noise_that_overflows_the_filter_is_a_numerical_failure(tmp_path, capsys, argv):
    # at their defaults these runs used to end in a traceback (an inf
    # coordinate vector) or, under error::RuntimeWarning, in an overflow
    # inside the filter; the filter now refuses the data first
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: non-finite") and err.count("\n") == 1, err
    assert not out.exists()


def test_solve_summary_equals_the_study_rows(tmp_path):
    # both commands run the same cell, so a fixed alpha and noise must give
    # the same bytes
    args = ["--problem", "green-m1", "--scheme", "ortho-pc", "--n", "8,16",
            "--alpha", "1e-3", "--delta", "1e-4"]
    assert main(["solve"] + args + ["--out", str(tmp_path / "solve")]) == EXIT_OK
    assert main(["study"] + args + ["--out", str(tmp_path / "study")]) == EXIT_OK
    assert ((tmp_path / "solve" / "summary.csv").read_bytes()
            == (tmp_path / "study" / "convergence.csv").read_bytes())


@pytest.mark.parametrize("data", [b"2,2\n1.0,oops\n0.0,1.0\n", b"2,2\n1.0,\xe9\n0.0,1.0\n"])
def test_study_with_a_corrupted_matrix_dump_exits_3(tmp_path, capsys, data):
    dump_path = tmp_path / "dump.csv"
    dump_path.write_bytes(data)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"problem": "rank1-sine", "n": [2],
                               "matrix_dump": str(dump_path)}))
    assert main(["study", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_NUMERICAL
    assert "corrupted" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_study_replaying_its_own_matrix_dump_reproduces_the_rows(tmp_path):
    dump_path = tmp_path / "dump.csv"
    dump_matrix(build_system(get_problem("green-m1").kernel, "collocation", 12).matrix,
                dump_path)
    args = ["study", "--problem", "green-m1", "--scheme", "collocation", "--n", "12",
            "--delta", "1e-3"]
    assert main(args + ["--out", str(tmp_path / "plain")]) == EXIT_OK
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"matrix_dump": str(dump_path)}))
    assert main(args + [str(cfg), "--out", str(tmp_path / "replay")]) == EXIT_OK
    assert ((tmp_path / "plain" / "convergence.csv").read_bytes()
            == (tmp_path / "replay" / "convergence.csv").read_bytes())


@pytest.mark.parametrize("command", ["solve", "study", "verify"])
def test_missing_matrix_dump_file_is_a_config_error(tmp_path, capsys, command):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": [8], "problem": "rank1-sine",
                               "matrix_dump": str(tmp_path / "nope.csv")}))
    assert main([command, str(cfg), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert "matrix_dump" in capsys.readouterr().err


def test_verify_fixed_alpha_replaces_the_th5_grid(tmp_path):
    assert main(["verify", "--alpha", "1e-3", "--n", "8", "--problem", "rank1-sine",
                 "--scheme", "collocation", "--out", str(tmp_path)]) == EXIT_OK
    eps = build_system(get_problem("rank1-sine").kernel, "collocation", 8).epsilon_n
    alphas = {float(r["alpha"]) for r in read_csv(tmp_path / "bounds.csv")
              if r["bound_id"].startswith("Th-5")}
    assert alphas == {1e-3, eps}
