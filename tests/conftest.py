import pytest
from hypothesis import settings

from illposed.discretize import build_system
from illposed.problems import get_problem, problem_catalog

GRID_N = (8, 16, 32)
SCHEMES = ("collocation", "interpolatory", "ortho-pc")

# Every run draws the same examples, independent of any .hypothesis/ state;
# per-test settings(max_examples=...) still apply on top of this profile.
settings.register_profile("tier1", derandomize=True, deadline=None, database=None)
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def catalog():
    return {pid: get_problem(pid) for pid in problem_catalog()}


@pytest.fixture(scope="session")
def grid_systems(catalog):
    """All (problem, scheme, n) systems of the verification grid, with
    epsilon measured; building these dominates the suite runtime."""
    systems = {}
    for pid, problem in catalog.items():
        for scheme in SCHEMES:
            for n in GRID_N:
                system = build_system(problem.kernel, scheme, n)
                system.epsilon_n  # measured on first read, then kept
                systems[pid, scheme, n] = system
    return systems
