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
What depends only on the dimension and the cap (the multi-indices, the
factorial weights, and for each monomial and axis the index of the
monomial one degree lower) is built once per pair and cached as index
arrays and vectors, never as a dense matrix.  ``exp_matrix`` then fills
the columns of one total degree at a time from those of the degree
below, each a linear form applied through the lowered indices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
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


@dataclass(frozen=True)
class _Tables:
    """What ``exp_matrix`` needs of a ``(dimension, degree)`` pair beyond
    ``T`` and ``gamma``: index arrays and length-``size`` vectors only.

    ``exponents[k]`` is the multi-index of basis position ``k``, and
    ``inv_factorial``/``root`` hold ``1/beta!`` and ``sqrt(beta!)``.
    ``lowered[j, k]`` is the position of ``beta_k - e_j``, or ``size``
    (a zero row) where ``beta_k`` has no ``z_j``.  ``levels`` holds, for
    each degree 1..degree, the positions of its multi-indices, the axis
    ``i`` of the first nonzero exponent of each, and the position of its
    parent ``alpha - e_i``.  ``keep`` lists the positions of total degree
    at most half the truncation.
    """

    exponents: np.ndarray
    inv_factorial: np.ndarray
    root: np.ndarray
    lowered: np.ndarray
    levels: Tuple[Tuple[np.ndarray, np.ndarray, np.ndarray], ...]
    keep: np.ndarray


def tables(dimension: int, degree: int) -> _Tables:
    """The cached tables of a pair that passes :func:`check_scale`; a
    refused pair raises before anything is cached."""
    check_scale(dimension, degree)
    return _cached_tables(dimension, degree)


# typed, so that a float degree fails in ``multi_indices`` as it would
# uncached instead of borrowing the tables of the equal int
@lru_cache(maxsize=MAX_DIMENSION * MAX_DEGREE, typed=True)
def _cached_tables(dimension: int, degree: int) -> _Tables:
    indices = multi_indices(dimension, degree)
    position = {idx: i for i, idx in enumerate(indices)}
    size = len(indices)
    exponents = np.array(indices, dtype=np.intp).reshape(size, dimension)
    weights = np.array([factorial_weight(idx) for idx in indices])
    lowered = np.full((dimension, size), size, dtype=np.intp)
    for k, beta in enumerate(indices):
        for j in range(dimension):
            if beta[j]:
                lowered[j, k] = position[beta[:j] + (beta[j] - 1,) + beta[j + 1 :]]
    totals = exponents.sum(axis=1)
    levels = []
    for level in range(1, degree + 1):
        cols = np.flatnonzero(totals == level)
        axes = np.argmax(exponents[cols] > 0, axis=1)
        levels.append((cols, axes, lowered[axes, cols]))
    inv_factorial, root = 1.0 / weights, np.sqrt(weights)
    keep = np.flatnonzero(2 * totals <= degree)
    # every caller shares these arrays
    for array in (exponents, inv_factorial, root, lowered, keep, *sum(levels, ())):
        array.flags.writeable = False
    return _Tables(exponents, inv_factorial, root, lowered, tuple(levels), keep)


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
    tab = tables(dimension, degree)
    if t.shape != (dimension, dimension) or gamma.shape != (dimension,):
        raise ConstraintViolation(
            f"shape mismatch: T {t.shape}, gamma {gamma.shape}"
        )
    require_unitary(t)

    size = len(tab.root)
    # coefficient columns in the monomial basis, with a zero row at
    # position ``size`` for the lowered indices that leave the basis
    mono = np.zeros((size + 1, size), dtype=complex)
    # exp(-<z, T^{-1} gamma>) = exp(sum_k w_k z_k) as a coefficient column
    w = -(t.conj().T @ gamma).conj()
    mono[:size, 0] = tab.inv_factorial * np.prod(w ** tab.exponents, axis=1)
    # the forms (T z + gamma)_i commute, so column alpha is (T z + gamma)^alpha
    # times the series: form i applied to the column of alpha - e_i.  Form i
    # sends x to gamma_i x + sum_j T_ij (x lowered along j), truncated at the
    # top degree, so one step fills a whole degree level
    for cols, axes, parents in tab.levels:
        x = mono[:, parents]
        out = gamma[axes] * x[:size]
        for j in range(dimension):
            out += t[axes, j] * x[tab.lowered[j]]
        mono[:size, cols] = out

    scalar = math.exp(-0.5 * float(np.sum(np.abs(gamma) ** 2)))
    root = tab.root
    return scalar * mono[:size] * (root[:, None] / root[None, :])


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
    degree at most half the truncation, where both sides are accurate;
    only that block of the product is formed.
    """
    t1 = np.asarray(t1, dtype=complex)
    t2 = np.asarray(t2, dtype=complex)
    gamma1 = np.asarray(gamma1, dtype=complex).reshape(-1)
    gamma2 = np.asarray(gamma2, dtype=complex).reshape(-1)
    keep = tables(t1.shape[0], degree).keep

    product = exp_matrix(t1, gamma1, degree)[keep] @ exp_matrix(t2, gamma2, degree)[:, keep]
    phase = composition_phase(t2, gamma1, gamma2)
    direct = phase * exp_matrix(t2 @ t1, t2 @ gamma1 + gamma2, degree)
    return float(np.linalg.norm(product - direct[np.ix_(keep, keep)]))


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
