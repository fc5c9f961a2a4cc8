import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from illposed.linalg import (
    NumericalError,
    WeightedSpace,
    eigh_symmetric,
    pseudo_solve,
    solve_shifted,
    spectral_norm,
    svd,
)


def random_matrix(rows, cols, seed):
    return np.random.default_rng(seed).standard_normal((rows, cols))


# ---------------------------------------------------------------------------
# svd


def test_svd_identity():
    dec = svd(np.eye(3))
    assert dec.s == pytest.approx([1.0, 1.0, 1.0])


def test_svd_diagonal_sorted():
    dec = svd(np.diag([3.0, 0.0, 2.0]))
    assert dec.s == pytest.approx([3.0, 2.0, 0.0], abs=1e-14)


def test_svd_reconstruction_random():
    a = random_matrix(5, 5, 0)
    dec = svd(a)
    scale = 1.0 + np.max(np.abs(a))
    assert np.max(np.abs(dec.reconstruct() - a)) <= 1e-9 * scale


@pytest.mark.parametrize("rows,cols", [(7, 3), (3, 7), (12, 12), (50, 50)])
def test_svd_reconstruction_and_orthonormality(rows, cols):
    a = random_matrix(rows, cols, rows * 100 + cols)
    dec = svd(a)
    scale = 1.0 + np.max(np.abs(a))
    assert np.max(np.abs(dec.reconstruct() - a)) <= 1e-9 * scale
    k = min(rows, cols)
    assert np.max(np.abs(dec.u.T @ dec.u - np.eye(k))) < 1e-10
    assert np.max(np.abs(dec.v.T @ dec.v - np.eye(k))) < 1e-10
    assert np.all(np.diff(dec.s) <= 1e-14)
    # independent oracle: LAPACK singular values
    assert dec.s == pytest.approx(np.linalg.svd(a, compute_uv=False), abs=1e-10 * scale)


def test_svd_rank_deficient_completes_basis():
    a = np.outer(np.arange(1.0, 5.0), np.ones(4))  # rank one
    dec = svd(a)
    assert dec.s[0] > 0 and dec.s[1] == pytest.approx(0.0, abs=1e-12)
    assert np.max(np.abs(dec.u.T @ dec.u - np.eye(4))) < 1e-10


@settings(max_examples=40, deadline=None)
@given(
    rows=st.integers(1, 9),
    cols=st.integers(1, 9),
    seed=st.integers(0, 10_000),
)
def test_svd_reconstruction_property(rows, cols, seed):
    a = random_matrix(rows, cols, seed)
    dec = svd(a)
    assert np.max(np.abs(dec.reconstruct() - a)) <= 1e-9 * (1.0 + np.max(np.abs(a)))


def test_svd_rejects_bad_input():
    with pytest.raises(ValueError):
        svd(np.array([[np.nan, 1.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        svd(np.zeros((0, 3)))


# ---------------------------------------------------------------------------
# eigh_symmetric


def test_eigh_matches_numpy():
    a = random_matrix(9, 9, 5)
    a = 0.5 * (a + a.T)
    vals, vecs = eigh_symmetric(a)
    assert vals == pytest.approx(np.sort(np.linalg.eigvalsh(a))[::-1], abs=1e-11)
    assert np.max(np.abs(vecs @ np.diag(vals) @ vecs.T - a)) < 1e-10


def test_eigh_rejects_asymmetric():
    with pytest.raises(ValueError):
        eigh_symmetric(np.array([[0.0, 1.0], [0.0, 0.0]]))


# ---------------------------------------------------------------------------
# pseudo_solve


def test_pseudo_solve_identity():
    x = pseudo_solve(np.eye(2), [4.0, 3.0], 1e-10)
    assert x == pytest.approx([4.0, 3.0])


def test_pseudo_solve_diagonal_minimum_norm():
    # singular direction gets no component: minimum norm kills it
    x = pseudo_solve(np.diag([2.0, 0.0]), [4.0, 3.0], 1e-10)
    assert x == pytest.approx([2.0, 0.0], abs=1e-12)


def test_pseudo_solve_rank_deficient_least_squares():
    rng = np.random.default_rng(11)
    basis = np.linalg.qr(rng.standard_normal((4, 4)))[0]
    a = basis[:, :2] @ np.diag([2.0, 0.5]) @ basis[:, :2].T  # rank 2
    b = a @ rng.standard_normal(4)  # consistent right-hand side
    x = pseudo_solve(a, b, 1e-10)
    assert np.linalg.norm(a @ x - b) <= 1e-8
    # orthogonal to the null space, via an independent SVD basis
    u, s, vt = np.linalg.svd(a)
    null = vt[2:]
    assert np.max(np.abs(null @ x)) < 1e-10


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), rank=st.integers(1, 3))
def test_pseudo_solve_minimality_property(seed, rank):
    # any other solution of the normal equations is at least as long
    rng = np.random.default_rng(seed)
    basis = np.linalg.qr(rng.standard_normal((4, 4)))[0]
    a = basis[:, :rank] @ np.diag(1.0 + np.arange(rank)) @ basis[:, :rank].T
    b = a @ rng.standard_normal(4)
    x = pseudo_solve(a, b, 1e-10)
    null_vec = basis[:, rank:] @ rng.standard_normal(4 - rank) if rank < 4 else 0.0
    alt = x + null_vec
    assert np.linalg.norm(a @ alt - b) <= 1e-8 * (1 + np.linalg.norm(b))
    assert np.linalg.norm(x) <= np.linalg.norm(alt) + 1e-10


def test_pseudo_solve_validates():
    with pytest.raises(ValueError):
        pseudo_solve(np.zeros((0, 2)), [], 1e-10)
    with pytest.raises(ValueError):
        pseudo_solve(np.eye(2), [1.0, 2.0], 1.5)
    with pytest.raises(ValueError):
        pseudo_solve(np.eye(2), [1.0, 2.0, 3.0], 1e-10)


# ---------------------------------------------------------------------------
# solve_shifted


def test_solve_shifted_scalar():
    v = solve_shifted(np.array([[1.0]]), 0.5, [3.0], WeightedSpace(weights=[1.0]))
    assert v == pytest.approx([2.0])


def test_solve_shifted_pure_shift():
    v = solve_shifted(np.zeros((2, 2)), 2.0, [4.0, 6.0], WeightedSpace(weights=[1.0, 1.0]))
    assert v == pytest.approx([2.0, 3.0])


def test_solve_shifted_weighted_residual():
    # a self-adjoint PSD matrix in a nonuniform weighted space
    rng = np.random.default_rng(2)
    w = rng.uniform(0.5, 2.0, size=6)
    g = rng.standard_normal((6, 6))
    k = g @ g.T
    a = k @ np.diag(w)  # K W form: self-adjoint PSD in the w-inner product
    b = rng.standard_normal(6)
    alpha = 1e-3
    v = solve_shifted(a, alpha, b, WeightedSpace(weights=w))
    residual = a @ v + alpha * v - b
    assert np.linalg.norm(residual) <= 1e-10 * np.linalg.norm(b)


def test_solve_shifted_assembled_collocation_matrix():
    from illposed.discretize import build_system
    from illposed.problems import get_problem

    system = build_system(get_problem("green-m1").kernel, "collocation", 6)
    b = np.random.default_rng(9).standard_normal(6)
    for alpha in (1e-1, 1e-4):
        v = solve_shifted(system.matrix, alpha, b, system.space)
        residual = system.matrix @ v + alpha * v - b
        assert np.linalg.norm(residual) <= 1e-10 * np.linalg.norm(b)


def test_solve_shifted_rejects_bad_inputs():
    space = WeightedSpace(weights=[1.0, 1.0])
    with pytest.raises(ValueError):
        solve_shifted(np.eye(2), 0.0, [1.0, 1.0], space)
    with pytest.raises(ValueError):
        solve_shifted(np.eye(2), -1.0, [1.0, 1.0], space)
    with pytest.raises(NumericalError):
        solve_shifted(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0, [1.0, 1.0], space)


def test_solve_shifted_norm_monotone_in_alpha():
    rng = np.random.default_rng(8)
    g = rng.standard_normal((5, 5))
    a = g @ g.T
    b = rng.standard_normal(5)
    space = WeightedSpace(weights=np.ones(5))
    norms = [space.norm(solve_shifted(a, alpha, b, space))
             for alpha in np.geomspace(1e-6, 1e2, 10)]
    assert all(n2 <= n1 + 1e-12 for n1, n2 in zip(norms, norms[1:]))


# ---------------------------------------------------------------------------
# spectral_norm


def test_spectral_norm_basics():
    assert spectral_norm(np.diag([1.0, 5.0, 2.0])) == pytest.approx(5.0)
    assert spectral_norm(np.zeros((3, 3))) == 0.0


def test_spectral_norm_equals_svd_max():
    rng = np.random.default_rng(3)
    cases = {
        "tall": random_matrix(8, 5, 3),
        "wide": random_matrix(5, 40, 4),
        "rank-deficient": random_matrix(30, 3, 5) @ random_matrix(3, 20, 6),
        "square": random_matrix(12, 12, 7),
        "zero": np.zeros((6, 4)),
        "1xk": rng.standard_normal((1, 9)),
        "kx1": rng.standard_normal((9, 1)),
    }
    for label, a in cases.items():
        oracle = np.linalg.svd(a, compute_uv=False)[0]
        assert spectral_norm(a) == pytest.approx(oracle, rel=1e-12, abs=0.0), label


def test_spectral_norm_transpose_invariant():
    a = random_matrix(9, 4, 4)
    assert abs(spectral_norm(a) - spectral_norm(a.T)) < 1e-10


def test_spectral_norm_large_matrix():
    a = random_matrix(250, 250, 7)
    assert spectral_norm(a) == pytest.approx(np.linalg.norm(a, 2), rel=1e-11)
    sym = a + a.T  # symmetric input, through the eigenvalue path
    assert spectral_norm(sym) == pytest.approx(np.linalg.norm(sym, 2), rel=1e-11)


def test_spectral_norm_symmetric_indefinite():
    assert spectral_norm(np.diag([1.0, -5.0, 2.0])) == pytest.approx(5.0)


# ---------------------------------------------------------------------------
# WeightedSpace


def test_weighted_space_validation():
    with pytest.raises(ValueError):
        WeightedSpace()
    with pytest.raises(ValueError):
        WeightedSpace(weights=[1.0, -1.0])
    with pytest.raises(ValueError):
        WeightedSpace(weights=[1.0], matrix=np.eye(1))
    with pytest.raises(ValueError):
        WeightedSpace(matrix=np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_weighted_space_gram_metric_roundtrip():
    g = np.array([[2.0, 0.5], [0.5, 1.0]])
    space = WeightedSpace(matrix=g)
    v = np.array([1.0, -2.0])
    assert space.inner(v, v) == pytest.approx(v @ g @ v)
    assert space.isqrt_apply(space.sqrt_apply(v)) == pytest.approx(v)
    a = np.array([[1.0, 0.2], [0.4, 3.0]])
    sym = space.symmetrize(a)
    back = space.isqrt_apply((space.sqrt_apply(a.T)).T)  # M^(-1/2) A M^(1/2)
    assert np.allclose(space.symmetrize(np.eye(2)), np.eye(2))
    assert sym == pytest.approx(space._sqrt @ a @ space._isqrt)
    assert back is not None
