"""Guards against recomputing tables that depend only on their inputs."""

from collections import Counter

import numpy as np
import pytest

from illposed.analysis import build_cell, l2_error
from illposed.cli import EXIT_OK, main
from illposed.discretize import build_system, project_data
from illposed.problems import Kernel, get_problem, reference_rule
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
    calls = []
    eigh = np.linalg.eigh

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    build_cell(problem, scheme, 8, 64, 4)
    assembled, calls[:] = list(calls), []
    build_cell(problem, scheme, 8, 64, 4, matrix=matrix)
    # the interpolatory hat Gram metric takes one more, for its square root
    expected = 2 if scheme == "interpolatory" else 1
    assert len(assembled) == len(calls) == expected, (assembled, calls)
