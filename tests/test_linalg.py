import warnings

import numpy as np
import pytest

from illposed import linalg
from illposed.linalg import WeightedSpace, eigh_symmetric, spectral_norm


def random_matrix(rows, cols, seed):
    return np.random.default_rng(seed).standard_normal((rows, cols))


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
        "1x1": np.array([[-3.0]]),
        "rank-1": np.outer(rng.standard_normal(40), rng.standard_normal(30)),
        # Lanczos breaks down after two steps: the Krylov space holds x
        "rank-1 symmetric": np.outer(np.arange(1.0, 41.0), np.arange(1.0, 41.0)),
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


def test_spectral_norm_sees_an_odd_top_eigenvector():
    # 2 u u^T + e e^T with u odd and e even about the centre, as on a
    # symmetric grid: a start vector without an odd part never sees u
    # and returns 1
    u = np.linspace(-1.0, 1.0, 60)
    u /= np.linalg.norm(u)
    e = np.full(60, 1.0 / np.sqrt(60))
    a = 2.0 * np.outer(u, u) + np.outer(e, e)
    assert spectral_norm(a) == pytest.approx(2.0, rel=1e-13)


@pytest.mark.parametrize("shape", [(40, 40), (50, 30), (30, 50)])
def test_spectral_norm_past_the_step_cap_is_the_dense_eigvalsh(monkeypatch, shape):
    a = random_matrix(*shape, 11)
    if shape[0] == shape[1]:
        a = a + a.T
        dense = np.max(np.abs(np.linalg.eigvalsh(a)))
    else:
        # the smaller Gram matrix as the fallback forms it, A^T (A I): GEMM,
        # not the SYRK of A^T A, whose last bits differ
        tall = a if shape[0] > shape[1] else a.T
        dense = np.sqrt(np.max(np.abs(np.linalg.eigvalsh(tall.T @ (tall @ np.eye(tall.shape[1]))))))
    monkeypatch.setattr(linalg, "_LANCZOS_STEPS", 1)
    assert spectral_norm(a) == dense


# ---------------------------------------------------------------------------
# symmetric_norm


def _gram_difference(seed):
    # x -> A^T (A x) - B^T (B x): symmetric, indefinite and of rank 6 on
    # R^40, given by products only
    a, b = random_matrix(3, 40, seed), random_matrix(3, 40, seed + 1)
    return lambda x: a.T @ (a @ x) - b.T @ (b @ x), a.T @ a - b.T @ b


def test_symmetric_norm_of_an_indefinite_operator():
    q, _ = np.linalg.qr(random_matrix(30, 30, 12))
    vals = np.linspace(-1.0, 3.0, 30)
    vals[7] = -7.0  # the largest modulus is a negative eigenvalue
    a = (q * vals) @ q.T
    assert linalg.symmetric_norm(lambda x: a @ x, 30) == pytest.approx(7.0, rel=1e-12)


def test_symmetric_norm_of_dim_zero_and_one():
    def never(x):
        raise AssertionError("no product on an empty space")

    assert linalg.symmetric_norm(never, 0) == 0.0
    assert linalg.symmetric_norm(lambda x: -2.5 * x, 1) == 2.5


@pytest.mark.parametrize("seed", [13, 21, 34])
def test_symmetric_norm_of_a_low_rank_difference_matches_lapack(seed):
    apply, dense = _gram_difference(seed)
    lapack = np.max(np.abs(np.linalg.eigvalsh(dense)))
    assert linalg.symmetric_norm(apply, 40) == pytest.approx(lapack, rel=1e-12, abs=0.0)


def test_symmetric_norm_past_the_step_cap_is_the_dense_eigvalsh_of_apply_eye(monkeypatch):
    apply, _ = _gram_difference(55)
    dense = np.max(np.abs(np.linalg.eigvalsh(apply(np.eye(40)))))
    monkeypatch.setattr(linalg, "_LANCZOS_STEPS", 1)
    assert linalg.symmetric_norm(apply, 40) == dense


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
    assert v @ space.apply_metric(v) == pytest.approx(v @ g @ v)
    assert space.isqrt_apply(space.sqrt_apply(v)) == pytest.approx(v)
    a = np.array([[1.0, 0.2], [0.4, 3.0]])
    sym = space.symmetrize(a)
    back = space.isqrt_apply((space.sqrt_apply(a.T)).T)  # M^(-1/2) A M^(1/2)
    assert np.allclose(space.symmetrize(np.eye(2)), np.eye(2))
    root, iroot = space.sqrt_apply(np.eye(2)), space.isqrt_apply(np.eye(2))
    assert sym == pytest.approx(root @ a @ iroot)
    assert back is not None


def _dense_powers(metric):
    # M, M^(1/2) and M^(-1/2) by numpy's eigensolver, independent of the space
    vals, vecs = np.linalg.eigh(metric)
    return {power: (vecs * vals**power) @ vecs.T for power in (1.0, 0.5, -0.5)}


@pytest.mark.parametrize("kind", ["diagonal", "gram"])
@pytest.mark.parametrize("cols", [1, 3, 5])
def test_weighted_space_products_act_on_the_rows_of_a_block(kind, cols):
    # a block of column vectors is multiplied from the left, as M @ block,
    # also when it is square (cols = dim = 5)
    rng = np.random.default_rng(3)
    if kind == "diagonal":
        weights = rng.uniform(0.1, 1.0, 5)
        space, metric = WeightedSpace(weights=weights), np.diag(weights)
    else:
        g = random_matrix(5, 5, 4)
        metric = g @ g.T + 5.0 * np.eye(5)
        space = WeightedSpace(matrix=metric)
    dense = _dense_powers(metric)
    block = rng.standard_normal((5, cols))
    for power, product in ((1.0, space.apply_metric), (0.5, space.sqrt_apply),
                           (-0.5, space.isqrt_apply)):
        got = product(block)
        assert got.shape == block.shape and got.flags.c_contiguous
        assert got == pytest.approx(dense[power] @ block, rel=1e-12, abs=1e-12), power
        for j in range(cols):
            assert got[:, j] == pytest.approx(product(block[:, j]), rel=1e-13, abs=1e-13)
    assert space.symmetrize(block @ block.T) == pytest.approx(
        dense[0.5] @ block @ block.T @ dense[-0.5], rel=1e-12, abs=1e-12)
    with pytest.raises(ValueError, match="rows"):
        space.apply_metric(block.T if cols != 5 else block[:4])
    with pytest.raises(ValueError, match="5x5"):
        space.symmetrize(block if cols != 5 else block[:, :4])


@pytest.mark.parametrize("kind", ["diagonal", "gram"])
def test_weighted_space_norm_overflows_to_inf_without_a_warning(kind):
    # v^T M v overflows long before v does: the norm is inf, which callers
    # reject as a numerical failure, and no RuntimeWarning is raised
    space = (WeightedSpace(weights=[0.5, 1.0, 2.0]) if kind == "diagonal"
             else WeightedSpace(matrix=[[2.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 1.0]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert space.norm(1e200 * np.ones(3)) == np.inf


@pytest.mark.parametrize("kind", ["diagonal", "gram"])
def test_weighted_space_filter_is_its_three_products_bit_for_bit(kind):
    rng = np.random.default_rng(7)
    if kind == "diagonal":
        space = WeightedSpace(weights=rng.uniform(0.1, 1.0, 6))
    else:
        g = random_matrix(6, 6, 8)
        space = WeightedSpace(matrix=g @ g.T + 6.0 * np.eye(6))
    q, _ = np.linalg.qr(random_matrix(6, 6, 9))
    gains, y = rng.uniform(-2.0, 2.0, 6), rng.standard_normal(6)
    peak = float(np.max(np.abs(gains)))
    v, mv = space.filter(q, gains, peak, y)
    expected = space.isqrt_apply(q @ (gains * (q.T @ space.sqrt_apply(y))))
    assert np.array_equal(v, expected)
    assert np.array_equal(mv, space.apply_metric(expected))
    # the growth of the products after M^(1/2) y, from operator norms
    growth = (max(1.0, np.linalg.norm(space.isqrt_apply(np.eye(6)), 2))
              * max(1.0, np.linalg.norm(space.apply_metric(np.eye(6)), 2)))
    assert space._filter_growth == pytest.approx(growth, rel=1e-12)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # squares of 1e200 overflow, the filtered solution does not
        big = 1e200 * y
        v, _ = space.filter(q, gains, peak, big)
        assert np.array_equal(v, space.isqrt_apply(q @ (gains * (q.T @ space.sqrt_apply(big)))))
        # data whose bound overflows is refused before the gains are
        # applied, without a RuntimeWarning
        with pytest.raises(linalg.NumericalError, match="non-finite"):
            space.filter(q, gains, 1e308, y)
        with pytest.raises(linalg.NumericalError, match="non-finite"):
            space.filter(q, 1e10 * gains, 1e10 * peak, 1e300 * y)
