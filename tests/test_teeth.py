"""Every bound has teeth: for each bound id of ``verify`` a named fault of
one line flips at least one of its rows, on cells that pass without it.

A ``DiscreteSystem`` is frozen, so each fault rebinds a module attribute
that the verifiers or ``build_system`` read at call time.  Every faulted
run builds its problems and systems afresh, because ``epsilon_n`` and a
problem's continuous reference errors keep the values first measured.  The
checks assert at least one failing row, not exact counts: a change to how
eps_n or an L2 error is measured moves rows.
"""

import pytest

from illposed import analysis, discretize
from illposed.analysis import verify_special, verify_th1, verify_th3, verify_th5
from illposed.cli import VERIFY_TH3_DELTAS, VERIFY_TH5_ALPHAS, VERIFY_TH5_DELTAS
from illposed.discretize import build_system
from illposed.problems import get_problem, problem_catalog
from tests.conftest import GRID_N, SCHEMES


def _sigma_min_doubled(factor):
    def faulty(space, matrix, n):
        fields = factor(space, matrix, n)
        return {**fields, "sigma_min": 2.0 * fields["sigma_min"]}
    return faulty


def _defect_shrunk(special_norms):
    def faulty(system):
        lhs, defect, norm_t, norm_tn = special_norms(system)
        return lhs, 0.9 * defect, norm_t, norm_tn
    return faulty


# name -> (module, attribute, wrapper of the original)
FAULTS = {
    "eps_n x 0.5": (discretize, "estimate_epsilon", lambda f: lambda s: 0.5 * f(s)),
    "sigma_min x 2": (discretize, "_factor", _sigma_min_doubled),
    "projection defect x 0.9": (analysis, "_special_norms", _defect_shrunk),
    "continuous reference at alpha/10": (analysis, "tikhonov_continuous_reference",
                                         lambda f: lambda p, rule, a: f(p, rule, a / 10.0)),
    "discrete Tikhonov at 2 alpha": (analysis, "tikhonov_discrete",
                                     lambda f: lambda s, y, a: f(s, y, 2.0 * a)),
    "discrete Tikhonov at alpha/10": (analysis, "tikhonov_discrete",
                                      lambda f: lambda s, y, a: f(s, y, a / 10.0)),
    "min-norm data x 1.01": (analysis, "min_norm_solution",
                             lambda f: lambda s, y, **kw: f(s, 1.01 * y, **kw)),
}

GREEN = ("green-m1", "collocation", 8)

# (bound id, fault, cells it fails on)
TEETH = [
    ("Th-1", "continuous reference at alpha/10", [GREEN]),
    ("Th-1-factor2", "continuous reference at alpha/10", [GREEN]),
    ("Th-3-stability", "sigma_min x 2", [("rank3-decay", "collocation", 8)]),
    ("Th-3-combined", "min-norm data x 1.01", [("rank1-sine", "ortho-pc", 16)]),
    ("Th-5", "discrete Tikhonov at 2 alpha", [GREEN]),
    ("Th-5-noise", "discrete Tikhonov at 2 alpha", [GREEN]),
    ("Th-5-stability", "discrete Tikhonov at alpha/10", [GREEN]),
    ("Th-5-eps", "eps_n x 0.5", [GREEN]),
    ("Th-5-noise-eps", "continuous reference at alpha/10", [GREEN]),
    ("Th-5-stability-eps", "discrete Tikhonov at alpha/10", [GREEN]),
    ("Th-special-1", "projection defect x 0.9", [("rank1-sine", "interpolatory", 8)]),
    ("Remark-squared", "projection defect x 0.9", [("green-m1", "ortho-pc", 8)]),
]

# Th-5-rate records the rate constant as lhs = rhs at tolerance 0: no fault
# can fail it
RECORDED = {"Th-5-rate"}

DEFAULT_GRID = [(pid, scheme, n) for pid in problem_catalog() for scheme in SCHEMES
                for n in GRID_N]


def _verify(cells):
    """The rows of ``verify`` on ``cells``, on fresh problems and systems;
    Theorem 1 also at the shifts Theorem 5 takes."""
    problems = {pid: get_problem(pid) for pid, _, _ in cells}
    reports = []
    for pid, scheme, n in cells:
        problem = problems[pid]
        system = build_system(problem.kernel, scheme, n)
        reports += (verify_th1(problem, system, VERIFY_TH5_ALPHAS)
                    + verify_th3(problem, system, VERIFY_TH3_DELTAS)
                    + verify_th5(problem, system, VERIFY_TH5_ALPHAS, VERIFY_TH5_DELTAS)
                    + verify_special(problem, system))
    return reports


def _cell(report):
    return report.context.problem, report.context.scheme, report.context.n


@pytest.fixture(scope="module")
def clean_grid():
    return _verify(DEFAULT_GRID)


def test_the_table_covers_every_bound_id(clean_grid):
    assert {r.bound_id for r in clean_grid} == {b for b, _, _ in TEETH} | RECORDED


@pytest.mark.parametrize("bound_id, fault, cells", TEETH, ids=[b for b, _, _ in TEETH])
def test_a_named_fault_fails_the_bound(clean_grid, monkeypatch, bound_id, fault, cells):
    clean = [r for r in clean_grid if _cell(r) in cells]
    assert [r for r in clean if not (r.skipped or r.passed)] == []
    assert any(r.bound_id == bound_id and not r.skipped for r in clean)

    module, attr, wrap = FAULTS[fault]
    monkeypatch.setattr(module, attr, wrap(getattr(module, attr)))
    failed = [r for r in _verify(cells) if r.bound_id == bound_id
              and not (r.skipped or r.passed)]
    assert failed, f"{fault} fails no {bound_id} row on {cells}"
