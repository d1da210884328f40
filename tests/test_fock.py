"""Exponential-operator tests: frozen special cases, unitarity of the
truncations where truncation cannot interfere, and the projective
multiplication law with its phase."""

import cmath
import math

import numpy as np
import pytest
from scipy.special import eval_genlaguerre

from isoact import fock as fo
from isoact.errors import ConstraintViolation


def column_exp_matrix(t, gamma, degree):
    """``Exp(T, gamma)`` one column at a time, each a mat-vec with a dense
    matrix of the form ``(T z + gamma)_i``: the oracle of ``exp_matrix``."""
    t = np.asarray(t, dtype=complex)
    gamma = np.asarray(gamma, dtype=complex).reshape(-1)
    dimension = t.shape[0]
    indices = fo.multi_indices(dimension, degree)
    position = {idx: i for i, idx in enumerate(indices)}
    size = len(indices)
    # truncated multiplication by z_j
    times_z = np.zeros((dimension, size, size))
    for col, beta in enumerate(indices):
        for j in range(dimension):
            row = position.get(beta[:j] + (beta[j] + 1,) + beta[j + 1 :])
            if row is not None:
                times_z[j, row, col] = 1.0
    forms = gamma[:, None, None] * np.eye(size) + np.einsum("ij,jab->iab", t, times_z)
    w = -(t.conj().T @ gamma).conj()
    mono = np.empty((size, size), dtype=complex)
    mono[:, 0] = [
        math.prod(w[k] ** b / math.factorial(b) for k, b in enumerate(beta)) for beta in indices
    ]
    for col, alpha in enumerate(indices[1:], start=1):
        i = next(k for k, a in enumerate(alpha) if a)
        parent = position[alpha[:i] + (alpha[i] - 1,) + alpha[i + 1 :]]
        mono[:, col] = forms[i] @ mono[:, parent]
    scalar = math.exp(-0.5 * float(np.sum(np.abs(gamma) ** 2)))
    root = np.sqrt([fo.factorial_weight(idx) for idx in indices])
    return scalar * mono * (root[:, None] / root[None, :])


@pytest.mark.parametrize("dimension", [1, 2, 3])
@pytest.mark.parametrize("degree", [1, 2, 6, 10, 12])
def test_exp_matrix_matches_column_oracle(dimension, degree):
    rng = np.random.default_rng([23, dimension, degree])
    for scale in (0.3, 1.0):
        t = fo.haar_unitary(rng, dimension)
        gamma = fo.random_translation(rng, dimension, scale)
        expected = column_exp_matrix(t, gamma, degree)
        got = fo.exp_matrix(t, gamma, degree)
        assert got.shape == expected.shape
        assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()


@pytest.mark.parametrize("dimension, degree", [(0, 4), (4, 4), (2, 0), (2, 15), (3, -1)])
def test_refused_scale_is_not_cached(dimension, degree):
    fo._cached_tables.cache_clear()
    with pytest.raises(ConstraintViolation, match="outside supported range"):
        fo.tables(dimension, degree)
    with pytest.raises(ConstraintViolation, match="outside supported range"):
        fo.exp_compose_residual(
            np.eye(dimension), np.zeros(dimension), np.eye(dimension), np.zeros(dimension), degree
        )
    assert fo._cached_tables.cache_info().currsize == 0


def test_tables_are_shared_and_read_only():
    tab = fo.tables(2, 10)
    assert fo.tables(2, 10) is tab
    assert fo._cached_tables.cache_info().maxsize == fo.MAX_DIMENSION * fo.MAX_DEGREE
    indices = fo.multi_indices(2, 10)
    assert [tuple(row) for row in tab.exponents] == indices
    assert list(tab.keep) == [i for i, idx in enumerate(indices) if 2 * sum(idx) <= 10]
    with pytest.raises(ValueError):
        tab.keep[0] = 1
    # a float degree equal to a cached int does not reach its tables
    with pytest.raises(TypeError):
        fo.tables(2, 10.0)


def test_multi_index_counts():
    # total degree <= N in d variables: binomial(N + d, d)
    assert len(fo.multi_indices(1, 12)) == 13
    assert len(fo.multi_indices(2, 10)) == 66
    assert len(fo.multi_indices(3, 8)) == 165


def test_multi_index_order():
    idx = fo.multi_indices(2, 2)
    assert idx[0] == (0, 0)
    assert idx[1:3] == [(0, 1), (1, 0)]
    assert sum(idx[-1]) == 2


def test_scale_guards():
    rng = np.random.default_rng(0)
    with pytest.raises(ConstraintViolation, match="dimension 4 outside supported range"):
        fo.check_scale(4, 8)
    with pytest.raises(ConstraintViolation, match="degree 15 outside supported range"):
        fo.check_scale(2, 15)
    with pytest.raises(ConstraintViolation, match="departs from unitarity"):
        fo.exp_matrix(np.array([[1.2]]), np.array([0.0]), 8)
    with pytest.raises(ConstraintViolation, match="shape mismatch"):
        fo.exp_matrix(fo.haar_unitary(rng, 2), np.zeros(3), 8)


def test_rotation_is_diagonal():
    theta = 0.7
    mat = fo.exp_matrix(np.array([[cmath.exp(1j * theta)]]), np.array([0.0]), 8)
    expected = np.diag([cmath.exp(1j * k * theta) for k in range(9)])
    assert np.abs(mat - expected).max() < 1e-14


def test_pure_translation_vacuum_column():
    # Exp(I, gamma) applied to the vacuum is the normalised coherent
    # vector at -gamma: coefficients (-conj(gamma))^k / k! times the
    # gaussian factor, here in the orthonormal basis
    gamma = 0.3 - 0.2j
    mat = fo.exp_matrix(np.eye(1), np.array([gamma]), 12)
    scalar = math.exp(-0.5 * abs(gamma) ** 2)
    for k in range(10):
        expected = scalar * (-gamma.conjugate()) ** k / math.sqrt(math.factorial(k))
        assert abs(mat[k, 0] - expected) < 1e-14


@pytest.mark.parametrize("gamma", [0.3 - 0.2j, -0.8 + 0.5j])
def test_pure_translation_matches_displacement_closed_form(gamma):
    # Exp(I, gamma) is the displacement by alpha = -conj(gamma), whose
    # number-basis elements are Laguerre polynomials (Cahill and Glauber,
    # Phys. Rev. 177, 1969); retained entries of the truncation are exact
    degree = 12
    mat = fo.exp_matrix(np.eye(1), np.array([gamma]), degree)
    alpha = -gamma.conjugate()
    x = abs(alpha) ** 2
    expected = np.empty_like(mat)
    for m in range(degree + 1):
        for n in range(degree + 1):
            low, high = min(m, n), max(m, n)
            shift = alpha ** (m - n) if m >= n else (-alpha.conjugate()) ** (n - m)
            expected[m, n] = (
                math.exp(-x / 2)
                * math.sqrt(math.factorial(low) / math.factorial(high))
                * shift
                * eval_genlaguerre(low, high - low, x)
            )
    assert np.abs(mat - expected).max() < 1e-13


def test_vacuum_norm_is_one():
    rng = np.random.default_rng(3)
    for dimension, degree in [(1, 12), (2, 10), (3, 8)]:
        t = fo.haar_unitary(rng, dimension)
        gamma = fo.random_translation(rng, dimension)
        # the image of the vacuum has norm exactly 1 before truncation
        vacuum_image = fo.exp_matrix(t, gamma, degree)[:, 0]
        assert abs(float(np.linalg.norm(vacuum_image)) - 1.0) < 1e-10


def test_truncation_is_isometric_on_low_degrees():
    rng = np.random.default_rng(7)
    for _ in range(5):
        t = fo.haar_unitary(rng, 2)
        gamma = fo.random_translation(rng, 2)
        mat = fo.exp_matrix(t, gamma, 10)
        indices = fo.multi_indices(2, 10)
        keep = [i for i, idx in enumerate(indices) if sum(idx) <= 4]
        block = mat[:, keep]
        assert np.abs(block.conj().T @ block - np.eye(len(keep))).max() < 1e-9


def test_weyl_relation_for_translations():
    # two pure translations commute up to the symplectic phase of their
    # pairing; this is the product law with both linear parts trivial
    g1, g2 = np.array([0.25 + 0.1j]), np.array([-0.1 + 0.3j])
    lhs = fo.exp_matrix(np.eye(1), g1, 12) @ fo.exp_matrix(np.eye(1), g2, 12)
    pairing = complex(g1[0] * g2[0].conjugate())
    rhs = np.exp(-1j * pairing.imag) * fo.exp_matrix(np.eye(1), g1 + g2, 12)
    indices = fo.multi_indices(1, 12)
    keep = [i for i, idx in enumerate(indices) if 2 * sum(idx) <= 12]
    assert np.abs((lhs - rhs)[np.ix_(keep, keep)]).max() < 1e-8


def test_composition_phase_value():
    t2 = np.eye(1)
    g1, g2 = np.array([0.4]), np.array([0.4j])
    # <g1, g2> = 0.4 * conj(0.4 i) = -0.16 i, so the phase is exp(0.16 i)
    assert abs(fo.composition_phase(t2, g1, g2) - cmath.exp(0.16j)) < 1e-14


def test_product_law_random_cases():
    largest = 0.0
    phase_spread = 0.0
    for i in range(20):
        rng = np.random.default_rng([5, i])
        dimension, degree = (1, 12) if i % 2 == 0 else (2, 10)
        t1 = fo.haar_unitary(rng, dimension)
        t2 = fo.haar_unitary(rng, dimension)
        g1 = fo.random_translation(rng, dimension)
        g2 = fo.random_translation(rng, dimension)
        largest = max(largest, fo.exp_compose_residual(t1, g1, t2, g2, degree))
        phase_spread = max(phase_spread, abs(fo.composition_phase(t2, g1, g2) - 1.0))
    assert largest <= 1e-6
    # the law is only confirmed if its phase is doing visible work
    assert phase_spread > 1e-3


def test_product_law_wrong_conventions_fail():
    rng = np.random.default_rng([5, 3])
    t1, t2 = fo.haar_unitary(rng, 2), fo.haar_unitary(rng, 2)
    g1 = fo.random_translation(rng, 2, scale=0.4)
    g2 = fo.random_translation(rng, 2, scale=0.4)
    degree = 10
    indices = fo.multi_indices(2, degree)
    keep = [i for i, idx in enumerate(indices) if 2 * sum(idx) <= degree]
    block = np.ix_(keep, keep)
    product = fo.exp_matrix(t1, g1, degree) @ fo.exp_matrix(t2, g2, degree)
    phase = fo.composition_phase(t2, g1, g2)

    without_phase = product - fo.exp_matrix(t2 @ t1, t2 @ g1 + g2, degree)
    assert float(np.linalg.norm(without_phase[block])) > 1e-3

    swapped_order = product - phase * fo.exp_matrix(t1 @ t2, t2 @ g1 + g2, degree)
    assert float(np.linalg.norm(swapped_order[block])) > 1e-3


def test_three_fold_associativity():
    # the phases of a triple product must agree whichever way the
    # product is bracketed; this is the cocycle property of the phase
    for seed in range(5):
        rng = np.random.default_rng([9, seed])
        ts = [fo.haar_unitary(rng, 1) for _ in range(3)]
        gs = [fo.random_translation(rng, 1) for _ in range(3)]
        degree = 12

        mats = [fo.exp_matrix(t, g, degree) for t, g in zip(ts, gs)]
        left = (mats[0] @ mats[1]) @ mats[2]
        right = mats[0] @ (mats[1] @ mats[2])
        indices = fo.multi_indices(1, degree)
        keep = [i for i, idx in enumerate(indices) if 3 * sum(idx) <= degree]
        assert np.abs((left - right)[np.ix_(keep, keep)]).max() < 1e-8


def test_haar_unitary_is_unitary():
    rng = np.random.default_rng(13)
    for dimension in (1, 2, 3):
        u = fo.haar_unitary(rng, dimension)
        assert np.abs(u.conj().T @ u - np.eye(dimension)).max() < 1e-12


def test_random_translation_scale():
    rng = np.random.default_rng(17)
    for _ in range(20):
        vec = fo.random_translation(rng, 2, scale=0.3)
        assert float(np.linalg.norm(vec)) <= 0.3 + 1e-12
