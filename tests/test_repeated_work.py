"""Guards against recomputing tables that depend only on their inputs."""

from collections import Counter

import numpy as np
import pytest

from illposed import analysis, discretize, linalg
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
from illposed.quadrature import gauss_nodes
from illposed.regularize import min_norm_solution, tikhonov_discrete


def test_verify_computes_each_gauss_rule_once(tmp_path, monkeypatch):
    counts = Counter()
    leggauss = np.polynomial.legendre.leggauss

    def counting(q):
        counts[int(q)] += 1
        return leggauss(q)

    gauss_nodes.cache_clear()
    monkeypatch.setattr(np.polynomial.legendre, "leggauss", counting)
    try:
        assert main(["verify", "--n", "4,8", "--out", str(tmp_path)]) == EXIT_OK
    finally:
        gauss_nodes.cache_clear()  # drop entries computed through the counter
    assert counts
    assert max(counts.values()) == 1, counts


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


def test_verify_forms_normal_gram_once_per_kernel(tmp_path, monkeypatch):
    # every cell of the grid measures eps_n on the same 256-point rule, so
    # each problem's kernel forms its continuous half once
    formed = {}
    original = Kernel.normal_gram

    def recording(self, rule):
        gram = original(self, rule)
        seen = formed.setdefault(self, [])  # keyed by the kernel itself, kept alive
        if not any(gram is g for g in seen):
            seen.append(gram)
        return gram

    monkeypatch.setattr(Kernel, "normal_gram", recording)
    assert main(["verify", "--n", "4,8", "--out", str(tmp_path)]) == EXIT_OK
    assert len(formed) == len(problem_catalog())
    assert all(len(seen) == 1 for seen in formed.values()), formed


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


def _fresh_normal_gram(kernel, rule):
    kmat = kernel(rule.nodes[:, None], rule.nodes[None, :])
    return kmat.T @ (rule.weights[:, None] * kmat)


def test_normal_gram_memo_hit_is_the_same_read_only_matrix():
    kernel = get_problem("green-m1").kernel
    first = kernel.normal_gram(reference_rule(kernel.domain, 64))
    hit = kernel.normal_gram(reference_rule(kernel.domain, 64))  # an equal rule built afresh
    assert hit is first
    with pytest.raises(ValueError):
        hit[0, 0] = 1.0


def test_normal_gram_memo_follows_the_rule():
    # A, then B, then A again: never a stale matrix
    kernel = get_problem("green-m1").kernel
    rule_a = reference_rule(kernel.domain, 48)
    rule_b = reference_rule(kernel.domain, 64)
    for rule in (rule_a, rule_b, rule_a):
        assert np.array_equal(kernel.normal_gram(rule), _fresh_normal_gram(kernel, rule))


@pytest.mark.parametrize("scheme", ["collocation", "interpolatory", "ortho-pc"])
def test_epsilon_from_a_memo_hit_matches_a_fresh_kernel(scheme):
    # outputs must not depend on which cell of a kernel was measured first
    warm = get_problem("green-m1")
    estimate_epsilon(build_system(warm.kernel, "collocation", 8))
    memo = warm.kernel.normal_gram(reference_rule(warm.kernel.domain))
    hit = estimate_epsilon(build_system(warm.kernel, scheme, 16))
    assert warm.kernel.normal_gram(reference_rule(warm.kernel.domain)) is memo

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
