import numpy as np
import pytest
from hypothesis import settings

from illposed.discretize import build_system
from illposed.problems import Kernel, get_problem, problem_catalog

GRID_N = (8, 16, 32)
SCHEMES = ("collocation", "interpolatory", "ortho-pc")

# Every run draws the same examples, independent of any .hypothesis/ state;
# per-test settings(max_examples=...) still apply on top of this profile.
settings.register_profile("tier1", derandomize=True, deadline=None, database=None)
settings.load_profile("tier1")


def metric_roots(space):
    """Dense ``M^(1/2)`` and ``M^(-1/2)`` of a WeightedSpace, by numpy's
    eigensolver on the dense metric: an oracle independent of the roots the
    space keeps."""
    vals, vecs = np.linalg.eigh(space.apply_metric(np.eye(space.dim)))
    return (vecs * np.sqrt(vals)) @ vecs.T, (vecs / np.sqrt(vals)) @ vecs.T


def sampled(kernel):
    """``kernel`` without its generators: eps_n then reads its sample and
    ortho-pc takes a Gauss pass per cell, the paths of every kernel that
    has no generators."""
    return Kernel(kernel.evaluator, kernel.domain, diagonal_kink=kernel.diagonal_kink)


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
