"""The affine action on the weighted analytic function space of the disc.

A matrix ``g = (a b; conj(b) conj(a))`` acts on the disc by fractional
linear maps.  On functions, the weight-two action

    ``(pi(g) f)(z) = f(z^[g]) (conj(b) z + conj(a))^{-2}``

composes contravariantly, ``pi(g1) pi(g2) = pi(g2 g1)``, because the point
map itself composes covariantly.  The logarithmic-derivative cocycle

    ``gamma(g)(z) = conj(b) / (conj(b) z + conj(a))``

satisfies ``gamma(g1 g2) = pi(g2) gamma(g1) + gamma(g2)`` on the nose, a
chain-rule identity that the tests probe both pointwise and in coefficient
space.  Monomials are orthogonal with ``<z^n, z^m> = delta / (n + 1)``,
which makes every norm and gram here a closed form:

* ``|gamma(g)|^2 = 2 log |a|``,
* ``<gamma(g1), gamma(g2)> = -Log(1 - conj(b1) b2 / (conj(a1) a2))``,

with the principal branch always applicable since ``|b| < |a|``.

Matrix truncations of ``pi(g)`` are computed by a column recurrence: the
k-th column is the previous one convolved with the power series of the
point map.  Rows up to the truncation degree come out exactly (the series
are lower-degree-closed), avoiding the violent cancellation a direct
binomial expansion would produce at high degree.
"""

from __future__ import annotations

import cmath
import math
from typing import Sequence, Tuple

import numpy as np

from .errors import ConstraintViolation
from .groups import SuMatrix

# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------


def phi(g: SuMatrix) -> float:
    """Squared cocycle norm ``|gamma(g)|^2 = 2 log |a|``."""
    a = g.a
    return math.log(a.real * a.real + a.imag * a.imag)


def gram_ratio(g1: SuMatrix, g2: SuMatrix) -> complex:
    """``u = conj(b1) b2 / (conj(a1) a2)``.

    Always ``|u| < 1``, so ``1 - u`` stays in the principal branch domain.
    """
    return g1.b.conjugate() * g2.b / (g1.a.conjugate() * g2.a)


def gamma_gram(g1: SuMatrix, g2: SuMatrix) -> complex:
    """Closed form ``<gamma(g1), gamma(g2)> = -Log(1 - u)``."""
    return -cmath.log(1 - gram_ratio(g1, g2))


def asymptotic_error(g: SuMatrix) -> float:
    """``|gamma(g)|^2 - 2 d(0, g0) + 2 log 2``, nonnegative and -> 0.

    The squared norm tracks twice the displacement up to the additive
    constant ``-2 log 2``; the error equals ``2 log(2|a| / (|a| + |b|))``.
    """
    a = abs(g.a)
    b = abs(g.b)
    return 2.0 * math.log(2.0 * a / (a + b))


# ---------------------------------------------------------------------------
# Coefficient space
# ---------------------------------------------------------------------------


def bergman_inner(f: Sequence[complex], g: Sequence[complex]) -> complex:
    """``sum f_k conj(g_k) / (k + 1)`` over the shorter length."""
    return sum(fk * complex(gk).conjugate() / (k + 1) for k, (fk, gk) in enumerate(zip(f, g)))

def bergman_norm2(f: Sequence[complex]) -> float:
    return sum(abs(fk) ** 2 / (k + 1) for k, fk in enumerate(f))


def gamma_vector(g: SuMatrix, degree: int) -> np.ndarray:
    """Monomial coefficients of ``gamma(g)`` up to ``z^degree``.

    The geometric expansion gives ``c_k = (conj(b)/conj(a))dot
    (-conj(b)/conj(a))^k``.
    """
    a, b = g.a, g.b
    base = b.conjugate() / a.conjugate()
    out = np.empty(degree + 1, dtype=complex)
    val = base
    for k in range(degree + 1):
        out[k] = val
        val *= -base
    return out


def pi_matrix(g: SuMatrix, degree: int) -> np.ndarray:
    """Truncation of ``pi(g)`` on monomial coefficients up to ``z^degree``.

    Column ``k`` holds the coefficients of ``pi(g) z^k``.  The recurrence
    multiplies by the point-map series, so every retained row is free of
    truncation error; only columns beyond ``degree`` are missing.
    """
    a, b = g.a, g.b
    ac, bc = a.conjugate(), b.conjugate()
    n = degree + 1
    ratio = -bc / ac
    geom = np.power(ratio, np.arange(n))
    # (conj(b) z + conj(a))^{-2} and the point-map series T(z)
    col = (np.arange(1, n + 1) * geom) / (ac * ac)
    tser = (b * geom + np.concatenate(([0], a * geom[:-1]))) / ac
    mat = np.empty((n, n), dtype=complex)
    mat[:, 0] = col
    for k in range(1, n):
        col = np.convolve(col, tser)[:n]
        mat[:, k] = col
    return mat


def affine_cocycle_residual(g1: SuMatrix, g2: SuMatrix, degree: int = 120) -> float:
    """Norm of ``gamma(g1 g2) - pi(g2) gamma(g1) - gamma(g2)``.

    Computed on coefficients up to ``degree`` and measured in the true
    weighted norm over the rows up to half the degree.  The only
    inexactness is the missing columns beyond ``degree``, which decay
    geometrically in the moduli ratio of ``g1``.
    """
    v12 = gamma_vector(g1 * g2, degree)
    v1 = gamma_vector(g1, degree)
    v2 = gamma_vector(g2, degree)
    defect = v12 - pi_matrix(g2, degree) @ v1 - v2
    return math.sqrt(bergman_norm2(defect[: degree // 2 + 1]))


# ---------------------------------------------------------------------------
# Translation lengths in the disc
# ---------------------------------------------------------------------------

PARABOLIC_TOL = 1e-9


def hyperbolic_length(g: SuMatrix) -> float:
    """Minimal displacement ``inf_z d(z, g z)``.

    Positive exactly when ``|trace| > 2``: the multiplier ``lambda`` is the
    larger root of ``x^2 - |tr| x + 1`` and the length is ``log lambda``.
    Elliptic and parabolic (within ``PARABOLIC_TOL`` of ``|trace| = 2``)
    give zero.
    """
    tr = abs(g.trace())
    if tr <= 2.0 + PARABOLIC_TOL:
        return 0.0
    half = tr / 2.0
    return math.log(half + math.sqrt(half * half - 1.0))


def power_growth(norms: Sequence[float]) -> Tuple[float, float]:
    """``(sup, slope)`` of a sequence: the slope is fitted over the last
    half, distinguishing linear growth from boundedness."""
    vals = list(map(float, norms))
    if len(vals) < 4:
        raise ConstraintViolation("need at least 4 samples to estimate growth")
    half = len(vals) // 2
    xs = np.arange(half, len(vals), dtype=float)
    ys = np.array(vals[half:])
    slope = float(np.polyfit(xs, ys, 1)[0])
    return max(vals), slope


# ---------------------------------------------------------------------------
# Conditionally negative kernels and the induced gram
# ---------------------------------------------------------------------------


def kernel_matrix(elements: Sequence[SuMatrix], kernel) -> np.ndarray:
    """``Q[i, j] = kernel(g_i^{-1} g_j)``."""
    m = len(elements)
    out = np.empty((m, m))
    for i, gi in enumerate(elements):
        for j, gj in enumerate(elements):
            out[i, j] = kernel(gi.inverse() * gj)
    return out


def centered_max_eigenvalue(q: np.ndarray) -> float:
    """Largest eigenvalue of ``P Q P`` for the mean-centering projector P.

    Nonpositive (up to rounding) exactly when Q is conditionally negative
    definite on the zero-sum hyperplane.
    """
    m = q.shape[0]
    p = np.eye(m) - np.full((m, m), 1.0 / m)
    sym = p @ ((q + q.T) / 2.0) @ p
    return float(np.max(np.linalg.eigvalsh(sym)))


def gns_gram(elements: Sequence[SuMatrix]) -> np.ndarray:
    """``G[i, j] = (phi(g_i) + phi(g_j) - phi(g_i g_j^{-1})) / 2``.

    Equals the real part of the closed-form gram entry for entry: both
    sides compute ``Re <gamma(g_i), gamma(g_j)>``.
    """
    m = len(elements)
    phis = [phi(g) for g in elements]
    out = np.empty((m, m))
    for i in range(m):
        for j in range(m):
            out[i, j] = 0.5 * (phis[i] + phis[j] - phi(elements[i] * elements[j].inverse()))
    return out


GNS_NEGATIVE_TOL = 1e-6


def gns_vectors(gram: np.ndarray) -> np.ndarray:
    """Rows are vectors realising the gram; fails loudly off the cone.

    Raises :class:`ConstraintViolation` when the gram has an eigenvalue more
    negative than ``GNS_NEGATIVE_TOL`` times the largest, which would mean
    the kernel arithmetic upstream produced something that is not a gram
    at all.
    """
    sym = (gram + gram.T) / 2.0
    vals, vecs = np.linalg.eigh(sym)
    top = max(float(vals[-1]), 1.0)
    if float(vals[0]) < -GNS_NEGATIVE_TOL * top:
        raise ConstraintViolation(f"gram eigenvalue {vals[0]:.3e} is negative beyond tolerance")
    clipped = np.clip(vals, 0.0, None)
    return vecs @ np.diag(np.sqrt(clipped))
