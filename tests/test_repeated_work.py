"""Guards against recomputing tables that depend only on their inputs."""

import csv
import json
import weakref
from collections import Counter

import numpy as np
import pytest

from illposed import analysis, cli, discretize, linalg, quadrature
from illposed.analysis import l2_error
from illposed.cli import EXIT_OK, main
from illposed.discretize import build_system, estimate_epsilon, project_data
from illposed.linalg import symmetric_norm
from illposed.problems import (
    REFERENCE_POINTS,
    Kernel,
    get_problem,
    problem_catalog,
    reference_rule,
)
from illposed.quadrature import LEGGAUSS_MAX_POINTS, gauss_nodes
from illposed.regularize import min_norm_solution, tikhonov_discrete


def test_verify_computes_each_gauss_rule_once(tmp_path, monkeypatch):
    def counting(constructor, counts):
        def count(q):
            counts[int(q)] += 1
            return constructor(q)
        return count

    # the default reference rule, and one past the boundary between the
    # two constructors
    for config in ({"n": [4, 8]}, {"n": [4, 8], "ref_points": 512}):
        counts = Counter()
        with monkeypatch.context() as patch:
            patch.setattr(np.polynomial.legendre, "leggauss",
                          counting(np.polynomial.legendre.leggauss, counts))
            patch.setattr(quadrature, "_newton_gauss", counting(quadrature._newton_gauss, counts))
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(config))
            gauss_nodes.cache_clear()
            try:
                assert main(["verify", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_OK
            finally:
                gauss_nodes.cache_clear()  # drop entries computed through the counter
        assert counts
        assert max(counts.values()) == 1, counts
        assert (max(counts) > LEGGAUSS_MAX_POINTS) == ("ref_points" in config), counts


@pytest.mark.parametrize("scheme", ["collocation", "interpolatory", "ortho-pc"])
def test_second_l2_error_samples_no_kernel(monkeypatch, scheme):
    problem = get_problem("green-m1")
    system = build_system(problem.kernel, scheme, 8)
    y_n = project_data(system, problem.y)
    rule = reference_rule(problem.kernel.domain)
    l2_error(problem.x_dagger, min_norm_solution(system, y_n).function, rule)

    calls = []
    original = Kernel.__call__

    def counting(self, s, t):
        calls.append(np.size(s))
        return original(self, s, t)

    monkeypatch.setattr(Kernel, "__call__", counting)
    rec = tikhonov_discrete(system, y_n, 1e-6)
    # an equal rule built afresh: the memo is keyed by the grid's values
    l2_error(problem.x_dagger, rec.function, reference_rule(problem.kernel.domain))
    assert calls == []


@pytest.mark.parametrize("scheme", ["collocation", "interpolatory", "ortho-pc"])
def test_a_replayed_cell_is_factored_once(monkeypatch, scheme):
    problem = get_problem("green-m1")
    matrix = build_system(problem.kernel, scheme, 8).matrix
    calls, in_lanczos = [], []
    eigh, lanczos = np.linalg.eigh, linalg._lanczos

    def counting(a, *args, **kwargs):
        if not in_lanczos:  # a norm's Ritz solves are k x k tridiagonals, not factorizations
            calls.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    def marking(*args):
        in_lanczos.append(True)
        try:
            return lanczos(*args)
        finally:
            in_lanczos.pop()

    monkeypatch.setattr(np.linalg, "eigh", counting)
    monkeypatch.setattr(linalg, "_lanczos", marking)
    build_system(problem.kernel, scheme, 8, ref_points=64).epsilon_n
    assembled, calls[:] = list(calls), []
    build_system(problem.kernel, scheme, 8, ref_points=64, matrix=matrix).epsilon_n
    # the interpolatory hat Gram metric is decomposed once per (n, h), not per build
    assert assembled == calls == [(8, 8)], (assembled, calls)


def test_verify_takes_no_svd(tmp_path, monkeypatch):
    calls = []
    svd = np.linalg.svd

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    assert main(["verify", "--n", "4,8", "--out", str(tmp_path)]) == EXIT_OK
    assert calls == []


def test_verify_samples_each_kernel_once_per_rule(tmp_path, monkeypatch):
    # every cell of the grid measures eps_n on the same 256-point rule, so
    # each problem's kernel takes its m x m sample there once, for every ladder
    squares = Counter()
    nodes = reference_rule(get_problem("green-m1").kernel.domain).nodes  # every catalog domain
    original = Kernel.__call__

    def counting(self, s, t):
        if all(np.array_equal(np.ravel(x), nodes) for x in (s, t)):
            squares[self] += 1  # keyed by the kernel itself, kept alive
        return original(self, s, t)

    monkeypatch.setattr(Kernel, "__call__", counting)
    assert main(["verify", "--n", "4,8", "--out", str(tmp_path)]) == EXIT_OK
    assert len(squares) == len(problem_catalog())
    assert set(squares.values()) == {1}, squares


def test_study_samples_the_reference_grid_kernel_once(tmp_path, monkeypatch):
    # the benchmark's study-n256 config: four systems on one 1024-point
    # reference rule, past the dense boundary, so eps_n applies the kernel's
    # one m x m sample to vectors and forms no m x m difference
    config = {"problem": "green-m1", "scheme": "collocation", "n": [32, 64, 128, 256],
              "ref_points": 1024, "delta": 1e-4}
    square, dense = [], []
    original = Kernel.__call__

    def counting(self, s, t):
        if np.broadcast_shapes(np.shape(s), np.shape(t)) == (1024, 1024):
            square.append(self)
        return original(self, s, t)

    monkeypatch.setattr(Kernel, "__call__", counting)
    monkeypatch.setattr(discretize, "symmetric_norm", lambda apply, dim: dense.append(dim))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main(["study", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_OK
    assert len(square) == 1 and dense == []


STUDY_N256 = {"problem": "green-m1", "scheme": "collocation", "n": [32, 64, 128, 256],
              "ref_points": 1024, "delta": 1e-4}


def test_study_reads_the_kernel_sample_once_per_lockstep_step(tmp_path, monkeypatch):
    # the four systems of the study-n256 ladder share one 1024-point rule:
    # each Lanczos step applies the kernel sample to every running system's
    # vector in one pass, so the passes are the steps of the slowest run,
    # not the sum of every run's products
    rows_read, steps, calls = [], [], []

    class Reads(np.ndarray):
        def __getitem__(self, key):
            part = super().__getitem__(key).view(np.ndarray)
            if isinstance(key, slice):
                rows_read.append(part.shape[0])
            return part

    sample, lanczos = Kernel.grid_sample, discretize._lanczos

    def counting(apply, dim, count=1):
        calls.append(count)
        return lanczos(lambda x, runs: steps.append(runs) or apply(x, runs), dim, count)

    monkeypatch.setattr(Kernel, "grid_sample", lambda self, rule: sample(self, rule).view(Reads))
    monkeypatch.setattr(discretize, "_lanczos", counting)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(STUDY_N256))
    assert main(["study", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_OK
    products = [sum(run in runs for runs in steps) for run in range(4)]
    assert calls == [4]  # one ladder, one call
    assert sum(rows_read) == 1024 * len(steps)
    assert len(steps) == max(products) < sum(products), products


def test_a_ladder_study_reproduces_single_size_studies(tmp_path):
    # the ladder measured in lockstep against each size studied alone
    def study(n, out):
        cfg = tmp_path / f"{out}.json"
        cfg.write_text(json.dumps({**STUDY_N256, "n": n}))
        assert main(["study", str(cfg), "--out", str(tmp_path / out)]) == EXIT_OK
        with open(tmp_path / out / "convergence.csv", encoding="ascii") as fh:
            return list(csv.DictReader(fh))

    ladder = study(STUDY_N256["n"], "ladder")
    for row, n in zip(ladder, STUDY_N256["n"], strict=True):
        (alone,) = study([n], f"n{n}")
        assert row.keys() == alone.keys()
        for key in row:
            assert float(row[key]) == pytest.approx(float(alone[key]), rel=1e-10, abs=0.0), (n, key)


def test_verify_takes_four_reference_grid_eigenproblems_per_cell(tmp_path, monkeypatch):
    # eps_n, and the lhs, the defect and ||T|| on the aligned grid, per cell;
    # all of them by Lanczos, so no dense eigensolver runs on a reference grid
    gauss_nodes(REFERENCE_POINTS)  # leggauss's own eigvalsh stays out of the count
    norms, dense = [], []
    eigvalsh = np.linalg.eigvalsh

    def counting(apply, dim):
        norms.append(dim)
        return symmetric_norm(apply, dim)

    def counting_dense(a, *args, **kwargs):
        dense.append(np.shape(a)[0])
        return eigvalsh(a, *args, **kwargs)

    for module in (discretize, analysis, linalg):  # each reads it by name
        monkeypatch.setattr(module, "symmetric_norm", counting)
    monkeypatch.setattr(np.linalg, "eigvalsh", counting_dense)
    assert main(["verify", "--n", "4,8", "--out", str(tmp_path)]) == EXIT_OK
    cells = len(problem_catalog()) * 3 * 2
    assert sum(m >= REFERENCE_POINTS for m in norms) == 4 * cells
    assert [m for m in dense if m >= REFERENCE_POINTS] == []


def test_grid_sample_memo_is_read_only_and_follows_the_rule():
    # A, an equal A built afresh, B, then A again: never a stale sample
    kernel = get_problem("green-m1").kernel
    rule_a = reference_rule(kernel.domain, 48)
    rule_b = reference_rule(kernel.domain, 64)
    first = kernel.grid_sample(rule_a)
    assert kernel.grid_sample(reference_rule(kernel.domain, 48)) is first
    with pytest.raises(ValueError):
        first[0, 0] = 1.0
    for rule in (rule_b, rule_a):
        fresh = kernel(rule.nodes[:, None], rule.nodes[None, :])
        assert np.array_equal(kernel.grid_sample(rule), fresh)


@pytest.mark.parametrize("scheme", ["collocation", "interpolatory", "ortho-pc"])
def test_epsilon_from_a_memo_hit_matches_a_fresh_kernel(scheme):
    # outputs must not depend on which cell of a kernel was measured first
    warm = get_problem("green-m1")
    estimate_epsilon(build_system(warm.kernel, "collocation", 8))
    memo = warm.kernel.grid_sample(reference_rule(warm.kernel.domain))
    hit = estimate_epsilon(build_system(warm.kernel, scheme, 16))
    assert warm.kernel.grid_sample(reference_rule(warm.kernel.domain)) is memo

    fresh = estimate_epsilon(build_system(get_problem("green-m1").kernel, scheme, 16))
    assert hit == fresh


@pytest.mark.parametrize("n", [1, 8, 32])
def test_an_ortho_pc_sampling_of_a_kinked_kernel_makes_n_plus_two_kernel_calls(monkeypatch, n):
    # one regular pass per cell, then one call per side of the s = t split
    # for every point inside a cell at once
    system = build_system(get_problem("green-m1").kernel, "ortho-pc", n)
    calls = []
    original = Kernel.__call__

    def counting(self, s, t):
        calls.append(np.size(s))
        return original(self, s, t)

    monkeypatch.setattr(Kernel, "__call__", counting)
    system.slice_values(reference_rule(system.domain, 64).nodes)
    assert len(calls) == n + 2


def _counting(monkeypatch, module, *names):
    counts = Counter()
    for name in names:
        original = getattr(module, name)

        def counted(*args, name=name, original=original, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return counts


@pytest.mark.parametrize("alphas", [(), (1e-2,), (1e-2, 1e-4)])
@pytest.mark.parametrize("deltas", [(1e-4,), (1e-2, 1e-4), (1e-2, 1e-4, 1e-6)])
def test_verify_th5_measures_each_shift_once(monkeypatch, alphas, deltas):
    # per shift (alphas and eps_n) one continuous reference and one noiseless
    # solve; per shift and level one noisy solve; one rate solve per cell
    problem = get_problem("green-m1")
    system = build_system(problem.kernel, "collocation", 8)
    counts = _counting(monkeypatch, analysis, "tikhonov_continuous_reference",
                       "tikhonov_discrete", "project_data")
    reports = analysis.verify_th5(problem, system, alphas, deltas)
    k, d = len(alphas), len(deltas)
    assert counts["tikhonov_continuous_reference"] == k + 1
    assert counts["tikhonov_discrete"] == (k + 1) * (d + 1) + 1
    assert counts["project_data"] == 1
    assert len(reports) == d * (3 * (k + 1) + 1)


@pytest.mark.parametrize("deltas", [(1e-2,), (1e-8,), (1e-9, 1e-8), (1e-9, 1e-8, 1e-2)])
def test_verify_th3_projects_and_solves_the_exact_data_once(monkeypatch, deltas):
    # the hypothesis sigma*phi(eps) = 2.1e-7 holds below 1e-2 on this cell
    problem = get_problem("green-m1")
    system = build_system(problem.kernel, "ortho-pc", 8)
    y_n = project_data(system, problem.y)
    exact = []
    original = analysis.min_norm_solution

    def recording(system, y, **kwargs):
        exact.append(np.array_equal(y, y_n))
        return original(system, y, **kwargs)

    monkeypatch.setattr(analysis, "min_norm_solution", recording)
    counts = _counting(monkeypatch, analysis, "project_data", "tikhonov_continuous_reference")
    reports = analysis.verify_th3(problem, system, deltas)
    assert counts["project_data"] == 1
    assert exact == [True] + [False] * len(deltas)
    assert [r.bound_id for r in reports] == ["Th-3-stability", "Th-3-combined"] * len(deltas)
    combined = [r for r in reports if r.bound_id == "Th-3-combined"]
    assert [r.skipped for r in combined] == [d == 1e-2 for d in deltas]
    # ||x - x_eps|| is integrated at most once: only if a hypothesis holds
    assert counts["tikhonov_continuous_reference"] == int(any(d < 1e-2 for d in deltas))


def test_verify_integrates_each_continuous_reference_once(tmp_path, monkeypatch):
    # the default grid has 33 distinct (problem, rule, alpha): alpha 1e-2 and
    # 1e-4 per problem and eps_n per cell, every n on one 256-point rule;
    # Th-1, Th-3-combined and Th-5 used to integrate them 120 times
    counts = Counter()
    reference = analysis.tikhonov_continuous_reference

    def counting(problem, rule, alpha):
        counts[problem.problem_id, rule.n_points, alpha] += 1
        return reference(problem, rule, alpha)

    monkeypatch.setattr(analysis, "tikhonov_continuous_reference", counting)
    assert main(["verify", "--out", str(tmp_path)]) == EXIT_OK
    assert len(counts) == 33 and max(counts.values()) == 1, counts


@pytest.mark.parametrize("command, config, ladders", [
    ("verify", {"problem": ["rank1-sine", "green-m1"], "scheme": ["collocation", "ortho-pc"],
                "n": [4, 8]}, 4),
    ("study", {"scheme": "all", "n": [4, 8]}, 3),
])
def test_a_ladder_is_freed_before_the_next_ladders_epsilon(tmp_path, monkeypatch, command,
                                                           config, ladders):
    # when a ladder's eps_n is measured, every system built before it is
    # dead, the last one of the previous problem included, and so is every
    # other kernel with the memos eps_n left on it
    built, seen = [], []

    def build(kernel, *args, **kwargs):
        system = build_system(kernel, *args, **kwargs)
        built.append((weakref.ref(system), weakref.ref(kernel)))
        return system

    def measure(ladder):
        earlier = [(s, k) for s, k in built if s() not in ladder]
        seen.append((len(earlier), [s() for s, _ in earlier],
                     [k() for _, k in earlier if k() is not ladder[0].kernel]))
        return estimate_epsilon(ladder)

    monkeypatch.setattr(cli, "build_system", build)
    monkeypatch.setattr(cli, "estimate_epsilon", measure)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main([command, str(cfg), "--out", str(tmp_path / "out")]) == EXIT_OK
    assert [count for count, _, _ in seen] == list(range(0, 2 * ladders, 2))
    for _, systems, kernels in seen:
        assert systems == [None] * len(systems) and kernels == [None] * len(kernels)
