"""Exponential operators on polynomial truncations of Bargmann space.

Holomorphic polynomials on ``C^d`` with ``<z^a, z^b> = delta a!`` carry
unitaries implementing affine isometries ``z -> T z + gamma`` of the
underlying space, one per isometry, by

    ``Exp(T, gamma) f(z) = f(T z + gamma)
        exp(-<z, T^{-1} gamma> - |gamma|^2 / 2)``.

The sign in the scalar factor is forced: with the pullback ``f(Tz +
gamma)`` in front, only ``exp(-<z, T^{-1} gamma>)`` makes coherent
states go to unit multiples of coherent states.  Operator products then
obey

    ``Exp(T, g) Exp(T', g') = exp(-i Im <T' g, g'>)
        Exp(T' T, T' g + g')``,

an honest projective multiplication whose affine part composes in the
pullback order (second transform applied first), matching the
contravariant function actions used elsewhere in this package.

Everything here works with dense matrices on the monomials of total
degree at most a cap, so dimensions and degrees are capped hard; the
point is verifying identities at desk scale, not simulating large systems.
"""

from __future__ import annotations

import math
from itertools import product as iter_product
from typing import List, Tuple

import numpy as np

from .errors import ConstraintViolation

MAX_DIMENSION = 3
MAX_DEGREE = 14
UNITARY_TOL = 1e-9

MultiIndex = Tuple[int, ...]


def check_scale(dimension: int, degree: int) -> None:
    if dimension < 1 or dimension > MAX_DIMENSION:
        raise ConstraintViolation(
            f"dimension {dimension} outside supported range 1..{MAX_DIMENSION}"
        )
    if degree < 1 or degree > MAX_DEGREE:
        raise ConstraintViolation(
            f"degree {degree} outside supported range 1..{MAX_DEGREE}"
        )


def multi_indices(dimension: int, degree: int) -> List[MultiIndex]:
    """All exponent tuples of total degree at most ``degree``, sorted by
    degree and then lexicographically."""
    out = [
        idx
        for idx in iter_product(range(degree + 1), repeat=dimension)
        if sum(idx) <= degree
    ]
    out.sort(key=lambda idx: (sum(idx), idx))
    return out


def factorial_weight(idx: MultiIndex) -> float:
    out = 1.0
    for k in idx:
        out *= math.factorial(k)
    return out


def require_unitary(mat: np.ndarray) -> None:
    d = mat.shape[0]
    defect = float(np.abs(mat.conj().T @ mat - np.eye(d)).max())
    if defect > UNITARY_TOL:
        raise ConstraintViolation(
            f"linear part departs from unitarity by {defect:.3e}"
        )


def exp_matrix(t: np.ndarray, gamma: np.ndarray, degree: int) -> np.ndarray:
    """Matrix of ``Exp(T, gamma)`` in the orthonormal monomial basis.

    Column ``alpha`` holds the expansion of the operator applied to
    ``z^alpha / sqrt(alpha!)``.  Retained rows are exact; only mass at
    degrees beyond the truncation is lost, and that mass decays
    factorially in the translation size.
    """
    t = np.asarray(t, dtype=complex)
    gamma = np.asarray(gamma, dtype=complex).reshape(-1)
    dimension = t.shape[0]
    check_scale(dimension, degree)
    if t.shape != (dimension, dimension) or gamma.shape != (dimension,):
        raise ConstraintViolation(
            f"shape mismatch: T {t.shape}, gamma {gamma.shape}"
        )
    require_unitary(t)

    indices = multi_indices(dimension, degree)
    position = {idx: i for i, idx in enumerate(indices)}
    size = len(indices)
    # truncated multiplication by z_j; it only raises degree, so products
    # of these matrices are exact on every retained row
    times_z = np.zeros((dimension, size, size))
    for col, beta in enumerate(indices):
        for j in range(dimension):
            row = position.get(beta[:j] + (beta[j] + 1,) + beta[j + 1 :])
            if row is not None:
                times_z[j, row, col] = 1.0
    # multiplication by the linear forms (T z + gamma)_i
    forms = gamma[:, None, None] * np.eye(size) + np.einsum("ij,jab->iab", t, times_z)

    # exp(-<z, T^{-1} gamma>) = exp(sum_k w_k z_k) as a coefficient column
    w = -(t.conj().T @ gamma).conj()
    mono = np.empty((size, size), dtype=complex)
    mono[:, 0] = [
        math.prod(w[k] ** b / math.factorial(b) for k, b in enumerate(beta)) for beta in indices
    ]
    # the forms commute, so column alpha is (T z + gamma)^alpha times the
    # series, one form applied to the column of alpha - e_i
    for col, alpha in enumerate(indices[1:], start=1):
        i = next(k for k, a in enumerate(alpha) if a)
        parent = position[alpha[:i] + (alpha[i] - 1,) + alpha[i + 1 :]]
        mono[:, col] = forms[i] @ mono[:, parent]

    scalar = math.exp(-0.5 * float(np.sum(np.abs(gamma) ** 2)))
    root = np.sqrt([factorial_weight(idx) for idx in indices])
    return scalar * mono * (root[:, None] / root[None, :])


def composition_phase(t2: np.ndarray, gamma1: np.ndarray, gamma2: np.ndarray) -> complex:
    """Scalar ``exp(-i Im <T2 gamma1, gamma2>)`` of the product law."""
    moved = np.asarray(t2, dtype=complex) @ np.asarray(gamma1, dtype=complex)
    pairing = complex(np.sum(moved * np.asarray(gamma2, dtype=complex).conjugate()))
    return complex(np.exp(-1j * pairing.imag))


def exp_compose_residual(
    t1: np.ndarray,
    gamma1: np.ndarray,
    t2: np.ndarray,
    gamma2: np.ndarray,
    degree: int,
) -> float:
    """Frobenius defect of the product law on the half-degree block.

    Compares ``Exp(T1, g1) Exp(T2, g2)`` with the phase times
    ``Exp(T2 T1, T2 g1 + g2)``, restricted to rows and columns of total
    degree at most half the truncation, where both sides are accurate.
    """
    t1 = np.asarray(t1, dtype=complex)
    t2 = np.asarray(t2, dtype=complex)
    gamma1 = np.asarray(gamma1, dtype=complex).reshape(-1)
    gamma2 = np.asarray(gamma2, dtype=complex).reshape(-1)
    dimension = t1.shape[0]
    indices = multi_indices(dimension, degree)
    keep = [i for i, idx in enumerate(indices) if 2 * sum(idx) <= degree]

    product = exp_matrix(t1, gamma1, degree) @ exp_matrix(t2, gamma2, degree)
    phase = composition_phase(t2, gamma1, gamma2)
    direct = phase * exp_matrix(t2 @ t1, t2 @ gamma1 + gamma2, degree)
    block = np.ix_(keep, keep)
    return float(np.linalg.norm(product[block] - direct[block]))


def haar_unitary(rng: np.random.Generator, dimension: int) -> np.ndarray:
    """Haar-distributed unitary via QR with the standard phase fix."""
    raw = rng.normal(size=(dimension, dimension)) + 1j * rng.normal(size=(dimension, dimension))
    q, r = np.linalg.qr(raw)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def random_translation(rng: np.random.Generator, dimension: int, scale: float = 0.3) -> np.ndarray:
    """Random translation of norm at most ``scale``.

    The default keeps truncation tails an order of magnitude inside the
    tolerances used by the product-law checks at the supported degrees.
    """
    vec = rng.normal(size=dimension) + 1j * rng.normal(size=dimension)
    norm = float(np.linalg.norm(vec))
    radius = scale * float(rng.uniform(0.2, 1.0))
    return vec * (radius / norm)
