"""Schatten norms and the averaging bound on weighted kernels.

The averaging bound is exact on atomic measure spaces, so the random suites
assert it at near machine precision rather than with a modelling tolerance.
"""

import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hywbench import schatten
from hywbench.schatten import (
    WeightedKernel,
    conjugate_exponent,
    cross_norm_qpq,
    russo_gap,
    russo_gaps,
    schatten_norm,
    schatten_norms,
    weighted_operator_matrix,
)

complex_mats = hnp.arrays(
    np.complex128,
    st.tuples(st.integers(2, 6), st.integers(2, 6)),
    elements=st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False),
)


def random_kernel(rng, nx=None, ng=None):
    nx = nx or int(rng.integers(2, 9))
    ng = ng or int(rng.integers(2, 9))
    vals = rng.standard_normal((nx, ng)) + 1j * rng.standard_normal((nx, ng))
    wx = rng.uniform(0.1, 2.0, nx)
    wg = rng.uniform(0.1, 2.0, ng)
    return WeightedKernel(vals, wx, wg)


def explicit_adjoint(k):
    """k*(xi, gamma) = conj(k(gamma, xi)), the weights swapping roles."""
    return WeightedKernel(k.values.conj().T, k.gamma_weights, k.xi_weights)


def direct_norm(k, p):
    """||k||_{q,p,q} alone by the plain formula: with explicit_adjoint, the
    reference for both halves of cross_norm_qpq."""
    q = conjugate_exponent(p)
    inner = (np.abs(k.values) ** p * k.xi_weights[:, None]).sum(axis=0)
    return float(((inner ** (q / p)) @ k.gamma_weights) ** (1.0 / q))


def test_conjugate_exponent_values():
    assert conjugate_exponent(2.0) == 2.0
    assert conjugate_exponent(4 / 3) == pytest.approx(4.0, rel=1e-14)
    assert conjugate_exponent(1.5) == pytest.approx(3.0, rel=1e-14)
    assert conjugate_exponent(1.0) == np.inf
    with pytest.raises(ValueError):
        conjugate_exponent(0.7)


def test_schatten_diag_frozen_value():
    a = np.diag([1.0, 2.0, 2.0])
    assert schatten_norm(a, 3.0) == pytest.approx(17.0 ** (1 / 3), rel=1e-13)
    assert 17.0 ** (1 / 3) == pytest.approx(2.5712815906582355, rel=1e-15)
    assert schatten_norm(a, np.inf) == 2.0
    assert schatten_norm(a, 1.0) == 5.0


def test_schatten_two_equals_frobenius():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((5, 7)) + 1j * rng.standard_normal((5, 7))
    naive = np.sqrt((np.abs(a) ** 2).sum())
    assert schatten_norm(a, 2.0) == pytest.approx(naive, rel=1e-13)


@given(complex_mats)
@settings(max_examples=100)
def test_schatten_monotone_in_p(a):
    # larger exponent, smaller norm
    n1 = schatten_norm(a, 1.0)
    n2 = schatten_norm(a, 2.0)
    ninf = schatten_norm(a, np.inf)
    assert n1 + 1e-9 >= n2 >= ninf - 1e-9


@given(complex_mats, complex_mats)
@settings(max_examples=100)
def test_schatten_triangle(a, b):
    if a.shape != b.shape:
        b = np.zeros_like(a)
    for p in (1.0, 1.5, 2.0, 3.0):
        lhs = schatten_norm(a + b, p)
        rhs = schatten_norm(a, p) + schatten_norm(b, p)
        assert lhs <= rhs + 1e-8 * max(1.0, rhs)


def test_schatten_unitary_invariance():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((6, 6))
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    for p in (1.0, 1.7, 2.0, 4.0, np.inf):
        assert schatten_norm(q @ a, p) == pytest.approx(schatten_norm(a, p), rel=1e-10)
        assert schatten_norm(a @ q, p) == pytest.approx(schatten_norm(a, p), rel=1e-10)


def test_schatten_rejects_bad_input():
    with pytest.raises(ValueError):
        schatten_norm(np.zeros(3), 2.0)
    with pytest.raises(ValueError):
        schatten_norm(np.zeros((2, 2)), 0.5)
    # a norm that cannot be computed is NaN, not an exception
    assert np.isnan(schatten_norm(np.array([[np.nan, 0.0], [0.0, 1.0]]), 2.0))
    # the shared-SVD form keeps the same guards
    with pytest.raises(ValueError):
        schatten_norms(np.zeros((2, 2)), (3.0, 0.5))
    with pytest.raises(ValueError):  # the exponent is checked before the entries
        schatten_norms(np.array([[np.nan, 0.0], [0.0, 1.0]]), (3.0, 0.5))
    for bad in (np.nan, np.inf, complex(0.0, np.inf)):
        for ps in ((1.0, 2.0, 3.0, 6.0, np.inf), (3.0, np.inf)):  # the SVD and the Gram route
            assert np.all(np.isnan(schatten_norms(np.array([[bad, 0.0], [0.0, 1.0]]), ps)))


def test_a_failed_svd_gives_nan_norms(monkeypatch):
    def fails(*args, **kw):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", fails)
    monkeypatch.setattr(np.linalg, "eigvalsh", fails)
    assert np.all(np.isnan(schatten_norms(np.eye(3), (1.0, 3.0, np.inf))))
    assert np.all(np.isnan(schatten_norms(np.eye(3), (2.0, 3.0, np.inf))))  # the Gram route
    assert schatten_norms(np.eye(3), (2.0,)) == [np.sqrt(3.0)]  # p = 2 needs no SVD


def singular_value_norms(a, ps):
    """Each norm from the singular-value formula: the Gram route's reference."""
    s = np.linalg.svd(a, compute_uv=False) if a.size else np.zeros(0)
    return [s.max(initial=0.0) if p == np.inf else (s**p).sum() ** (1.0 / p) for p in ps]


def gram_matrices():
    rng = np.random.default_rng(12)

    def draw(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    return {
        "wide": draw(5, 9),
        "tall": draw(9, 5),
        "square": draw(7, 7),
        "rank-1": np.outer(draw(6), draw(8)),
        "empty": np.zeros((0, 4), dtype=complex),
    }


def worst_gram_error(norms):
    """Largest relative gap of norms(a, ps) to the singular-value formula,
    over every matrix of gram_matrices and every all-p >= 2 set."""
    worst = 0.0
    for a in gram_matrices().values():
        for ps in ((2.25,), (3.0, 6.0, np.inf), (2.0, 3.0)):
            got, want = np.array(norms(a, ps)), np.array(singular_value_norms(a, ps))
            assert got.shape == want.shape
            rel = np.abs(got - want) / np.where(want > 0, want, 1.0)
            worst = max(worst, float(np.where(np.isnan(rel), np.inf, rel).max()))  # NaN is no match
    return worst


def test_the_gram_route_matches_the_singular_values():
    assert worst_gram_error(schatten_norms) <= 1e-13
    assert worst_gram_error(lambda a, ps: [np.nan] * len(ps)) == np.inf  # a NaN route fails it


def test_a_gram_without_the_conjugate_fails_the_gram_test():
    # plant b @ b.T in place of the Hermitian Gram b @ b* in a copy of
    # schatten_norms: on complex matrices the test above must fail it
    source = inspect.getsource(schatten.schatten_norms)
    assert source.count("a.conj().T") == 1
    namespace = dict(vars(schatten))
    exec(source.replace("a.conj().T", "a.T"), namespace)
    assert worst_gram_error(namespace["schatten_norms"]) > 1e-2


def count_calls(monkeypatch, name):
    calls = []
    original = getattr(np.linalg, name)
    monkeypatch.setattr(np.linalg, name, lambda *args, **kw: calls.append(1) or original(*args, **kw))
    return calls


def test_an_exponent_below_two_takes_the_svd(monkeypatch):
    # the Schatten battery asks for 1, 1.3 and 1.7: its norms stay on the SVD
    svd, eigvalsh = count_calls(monkeypatch, "svd"), count_calls(monkeypatch, "eigvalsh")
    a = gram_matrices()["wide"]
    schatten_norms(a, (1.7, 3.0, np.inf))
    assert (len(svd), len(eigvalsh)) == (1, 0)
    schatten_norms(a, (3.0, 6.0, np.inf))
    assert (len(svd), len(eigvalsh)) == (1, 1)
    schatten_norms(a, (2.0,))
    assert (len(svd), len(eigvalsh)) == (1, 1)


def test_kernel_validation():
    with pytest.raises(ValueError):
        WeightedKernel(np.zeros((3, 3)), np.ones(2), np.ones(3))
    with pytest.raises(ValueError):
        WeightedKernel(np.zeros((3, 3)), -np.ones(3), np.ones(3))
    with pytest.raises(ValueError):
        WeightedKernel(np.zeros((3, 3)), np.ones(3), np.array([1.0, -1.0, 1.0]))
    # a zero weight is a point of measure zero, not an error
    WeightedKernel(np.zeros((3, 3)), np.array([0.0, 1.0, 1.0]), np.array([1.0, 1.0, 0.0]))
    with pytest.raises(ValueError):
        WeightedKernel(np.zeros(3), np.ones(3), np.ones(3))
    with pytest.raises(NotImplementedError):
        WeightedKernel(np.zeros((2, 2, 2)), np.ones(2), np.ones(2))


def test_adjoint_is_an_involution():
    rng = np.random.default_rng(3)
    k = random_kernel(rng)
    kk = explicit_adjoint(explicit_adjoint(k))
    np.testing.assert_array_equal(kk.values, k.values)
    np.testing.assert_array_equal(kk.xi_weights, k.xi_weights)
    m = weighted_operator_matrix(k)
    mstar = weighted_operator_matrix(explicit_adjoint(k))
    np.testing.assert_allclose(mstar, m.conj().T, atol=1e-15)


def test_cross_norm_against_naive_loop():
    rng = np.random.default_rng(4)
    k = random_kernel(rng, nx=5, ng=7)
    p = 1.4
    q = conjugate_exponent(p)
    acc = adjoint_acc = 0.0
    for j in range(7):
        inner = sum(abs(k.values[i, j]) ** p * k.xi_weights[i] for i in range(5))
        acc += inner ** (q / p) * k.gamma_weights[j]
    for i in range(5):  # the adjoint: p over gamma, then q over xi
        inner = sum(abs(k.values[i, j]) ** p * k.gamma_weights[j] for j in range(7))
        adjoint_acc += inner ** (q / p) * k.xi_weights[i]
    assert cross_norm_qpq(k, p) == pytest.approx((acc ** (1 / q), adjoint_acc ** (1 / q)), rel=1e-12)


def test_cross_norm_validates_exponents():
    rng = np.random.default_rng(5)
    k = random_kernel(rng)
    with pytest.raises(ValueError):
        cross_norm_qpq(k, 2.5)  # inner exponent above 2
    with pytest.raises(ValueError):
        cross_norm_qpq(k, 1.0)  # inner exponent 1: its conjugate is infinite
    assert np.isfinite(cross_norm_qpq(k, 1.005)).all()  # every exponent above 1 is taken


def test_averaging_bound_is_equality_at_two():
    # at p = q = 2 both sides reduce to the weighted Frobenius norm
    rng = np.random.default_rng(6)
    for _ in range(20):
        k = random_kernel(rng)
        lhs, rhs = russo_gap(k, 2.0)
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_averaging_bound_random_suite():
    rng = np.random.default_rng(7)
    for _ in range(300):
        k = random_kernel(rng)
        p = rng.uniform(1.05, 2.0)
        lhs, rhs = russo_gap(k, p)
        assert lhs <= rhs * (1 + 1e-10)


def test_russo_gaps_keep_the_bits_of_each_kernel_alone():
    # empty, one-row, one-column, wide and tall kernels of up to 24 rows:
    # cross_norm_qpq takes both norms from one |k|^p, and they are the direct
    # norms of the kernel and of its explicit adjoint, bit for bit, at
    # p = 1.05 and at 1.5 and 2, where numpy squares the inner sums or |k|^p;
    # and a batch gives each kernel the S_q norm of its operator matrix and
    # the geometric mean of those two norms, bit for bit
    rng = np.random.default_rng(9)
    shapes = [(nx, ng) for nx in (1, 2, 3, 8, 9, 13, 24) for ng in (1, 2, 7, 24)]
    kernels = [random_kernel(rng, nx, ng) for nx, ng in shapes for _ in range(3)]
    kernels = [kernels[i] for i in rng.permutation(len(kernels))]
    kernels.append(WeightedKernel(np.zeros((0, 5)), np.zeros(0), rng.uniform(0.1, 2.0, 5)))
    for k in kernels:
        for p in (1.05, 1.5, 2.0):
            assert cross_norm_qpq(k, p) == (direct_norm(k, p), direct_norm(explicit_adjoint(k), p))
    ps = rng.uniform(1.05, 2.0, len(kernels))
    triples = [(k.values, k.xi_weights, k.gamma_weights) for k in kernels]
    for k, p, gap in zip(kernels, ps, russo_gaps(triples, ps)):
        lhs = schatten_norm(weighted_operator_matrix(k), conjugate_exponent(p))
        rhs = float(np.sqrt(direct_norm(k, p) * direct_norm(explicit_adjoint(k), p)))
        assert gap == (lhs, rhs) == russo_gap(k, p)
    with pytest.raises(ValueError):
        russo_gaps(triples[:1], [2.5])


def test_averaging_bound_diagonal_is_tight():
    k = WeightedKernel(np.diag([1.0, 2.0, 2.0]), np.ones(3), np.ones(3))
    lhs, rhs = russo_gap(k, 1.5)
    assert lhs == pytest.approx(17.0 ** (1 / 3), rel=1e-13)
    assert rhs == pytest.approx(lhs, rel=1e-12)


def test_weighted_operator_matrix_is_similarity():
    # weights fold into the matrix as sqrt factors on both sides
    vals = np.array([[1.0, 2.0], [3.0, 4.0]])
    k = WeightedKernel(vals, np.array([4.0, 1.0]), np.array([1.0, 9.0]))
    expected = np.array([[2.0, 12.0], [3.0, 12.0]])
    np.testing.assert_allclose(weighted_operator_matrix(k), expected)
