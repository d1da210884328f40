"""Scalar cocycles: the symplectic phase, measure averages, and the
step-function group over the interval.

Three constructions share a file because they share a shape: each one is
a two-argument scalar on a group (or on measures over it) whose defining
identity

    ``c(g1, g2) + c(g1 g2, g3) = c(g2, g3) + c(g1, g2 g3)``

holds exactly, up to principal-branch bookkeeping that the guards here
make explicit rather than silent.

* For ``Sp(2n, R)`` the scalar is the argument of the determinant of the
  phase factor ``Phi(g) = ((A + D) + i (C - B)) / 2``; its absolute
  determinant is at least one, so ``Phi`` is always invertible for a
  genuine symplectic matrix and a singular value collapse means the
  input was not one.
* For measures on the disc group the scalar integrates the argument of
  the multiplier ratio ``a(gh) / (a(g) a(h))``, which telescopes
  exactly over triple products because the ratio depends only on
  top-left entries.
* The step-function group composes interval rearrangements with
  cell-wise group values; any two-argument scalar on the value group
  integrates to one on the step group, cell by cell.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence, Tuple

import numpy as np

from .errors import (
    BranchGuard,
    ConstraintViolation,
    GroupMismatch,
    IllConditionedPhi,
)
from .groups import FiniteMeasure, FreeWord, SpMatrix, SuMatrix

# ---------------------------------------------------------------------------
# Symplectic phase cocycle
# ---------------------------------------------------------------------------

PHI_SINGULAR_TOL = 1e-6
TAU_BRANCH_MARGIN = 1e-9


def phase_factor(g: SpMatrix) -> np.ndarray:
    """``Phi(g) = ((A + D) + i (C - B)) / 2`` in n x n blocks.

    Sends the planar rotation by ``theta`` to ``exp(-i theta)`` and the
    boost ``diag(e^t, e^{-t})`` to ``cosh t``.
    """
    return _phase(g.entries, g.n)


def _phase(e: np.ndarray, n: int) -> np.ndarray:
    """:func:`phase_factor` on raw entries, or on a stack of them."""
    a, b = e[..., :n, :n], e[..., :n, n:]
    c, d = e[..., n:, :n], e[..., n:, n:]
    return 0.5 * ((a + d) + 1j * (c - b))


def _checked_phase(g: SpMatrix) -> np.ndarray:
    p = phase_factor(g)
    smallest = float(np.linalg.svd(p, compute_uv=False)[-1])
    if smallest < PHI_SINGULAR_TOL:
        raise IllConditionedPhi(
            f"phase factor has singular value {smallest:.3e}; "
            "the input cannot be symplectic"
        )
    return p


def tau(g1: SpMatrix, g2: SpMatrix) -> float:
    """Phase defect ``Im tr Log(Phi(g1)^-1 Phi(g1 g2) Phi(g2)^-1)``.

    Identity arguments return exactly ``0.0``: the phase factor of the
    identity is the identity matrix, so the defect matrix is too, and
    short-circuiting avoids spending float error on a known value.

    Raises :class:`BranchGuard` when the defect matrix strays far enough
    from the identity that an eigenvalue could reach the branch cut.
    """
    if g1.n != g2.n:
        raise GroupMismatch("size mismatch between symplectic matrices")
    if g1.is_identity() or g2.is_identity():
        return 0.0
    p1 = _checked_phase(g1)
    p2 = _checked_phase(g2)
    p12 = _checked_phase(g1 * g2)
    defect = np.linalg.solve(p1, p12) @ np.linalg.inv(p2)
    distance = float(np.linalg.norm(defect - np.eye(g1.n), 2))
    if distance >= 1.0 - TAU_BRANCH_MARGIN:
        raise BranchGuard(
            f"defect matrix sits {distance:.6f} from the identity; "
            "principal logarithms are not trustworthy"
        )
    eigenvalues = np.linalg.eigvals(defect)
    return float(np.sum(np.angle(eigenvalues)))


def tau_cocycle_residuals(
    g1: np.ndarray, g2: np.ndarray, g3: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Two-cocycle defects of :func:`tau`, reduced modulo ``2 pi``, for
    stacks of triples.

    ``g1``, ``g2`` and ``g3`` hold the entries of ``T`` symplectic
    matrices each, with shape ``(T, 2n, 2n)``.  Returns ``(residuals,
    ok)``.  ``ok[k]`` is False where :func:`tau` would raise
    :class:`IllConditionedPhi` or :class:`BranchGuard` on a term of
    triple ``k``; its residual is then NaN.  Every other residual equals
    the defect from the scalar :func:`tau` bit for bit: each step is
    the scalar one, with numpy and LAPACK applied slice by slice, and a
    pair with an exact identity contributes exactly ``0.0``.
    """
    if not (g1.shape == g2.shape == g3.shape) or g1.ndim != 3:
        raise GroupMismatch("expected three stacks of the same shape (T, 2n, 2n)")
    n = g1.shape[-1] // 2
    g12 = g1 @ g2
    g23 = g2 @ g3
    # The seven matrices whose phase factors the four tau terms read, and
    # the (left, right, product) indices of tau(g1, g2), tau(g1 g2, g3),
    # tau(g2, g3) and tau(g1, g2 g3) among them.
    mats = np.stack([g1, g2, g3, g12, g23, g12 @ g3, g1 @ g23])
    terms = ((0, 1, 3), (3, 2, 5), (1, 2, 4), (0, 4, 6))
    phases = _phase(mats, n)
    collapsed = np.linalg.svd(phases, compute_uv=False)[..., -1] < PHI_SINGULAR_TOL
    identity = np.all(mats == np.eye(2 * n), axis=(-2, -1))
    ok = np.ones(len(g1), dtype=bool)
    values = []
    for left, right, prod in terms:
        value = np.zeros(len(g1))
        live = ok & ~(identity[left] | identity[right])
        ok &= ~(live & (collapsed[left] | collapsed[right] | collapsed[prod]))
        live = np.flatnonzero(live & ok)
        p1, p2, p12 = phases[left, live], phases[right, live], phases[prod, live]
        defect = np.linalg.solve(p1, p12) @ np.linalg.inv(p2)
        distance = np.linalg.norm(defect - np.eye(n), 2, axis=(-2, -1))
        near_cut = distance >= 1.0 - TAU_BRANCH_MARGIN
        ok[live[near_cut]] = False
        eigenvalues = np.linalg.eigvals(defect[~near_cut])
        value[live[~near_cut]] = np.sum(np.angle(eigenvalues), axis=-1)
        values.append(value)
    lhs = values[0] + values[1]
    rhs = values[2] + values[3]
    wrapped = np.abs(lhs - rhs) % (2.0 * math.pi)
    residuals = np.minimum(wrapped, 2.0 * math.pi - wrapped)
    return np.where(ok, residuals, np.nan), ok


# ---------------------------------------------------------------------------
# Multiplier ratio and the measure cocycle
# ---------------------------------------------------------------------------


def multiplier_ratio(g: SuMatrix, h: SuMatrix) -> complex:
    """``W(g, h) = a(gh) / (a(g) a(h))``.

    Satisfies ``|W - 1| = |b(g) b(h) / (a(g) a(h))| < 1``, so W never
    leaves the right half plane and its argument is always principal.
    Telescopes over triples: ``W(g, h) W(gh, k) = W(h, k) W(g, hk)``,
    both sides being ``a(ghk) / (a(g) a(h) a(k))``.
    """
    return (g * h).a / (g.a * h.a)


def sigma_pair(g: SuMatrix, h: SuMatrix) -> float:
    """``-Im Log W(g, h)``: the angular part of the multiplier defect."""
    return -cmath.phase(multiplier_ratio(g, h))


def sigma_pair_orthogonal(g: FreeWord, h: FreeWord) -> Fraction:
    """Angular part for isometric actions on real spaces: identically zero.

    On a real Hilbert space there is no rotation angle to accumulate, so
    the scalar vanishes atom by atom; keeping the function lets the
    convolution identity be checked in exact arithmetic.
    """
    if not isinstance(g, FreeWord) or not isinstance(h, FreeWord):
        raise GroupMismatch("orthogonal pairing expects reduced words")
    return Fraction(0)


def sigma_measures(mu: FiniteMeasure, nu: FiniteMeasure, pair=sigma_pair):
    """Expectation ``sum_j sum_k p_j q_k sigma(g_j, h_k)``.

    The first argument contributes the left factor of each pair.  Exact
    weights multiply whatever scalar ``pair`` returns, so a Fraction-
    valued pairing yields an exact result.
    """
    total = None
    for g, p in mu.atoms:
        for h, q in nu.atoms:
            contribution = p * q * pair(g, h)
            total = contribution if total is None else total + contribution
    if total is None:
        raise ConstraintViolation("measures must have at least one atom")
    return total


def sigma_convolution_residual(
    mu: FiniteMeasure,
    nu: FiniteMeasure,
    rho: FiniteMeasure,
    pair=sigma_pair,
):
    """Defect of the convolution identity; zero up to float rounding.

    ``sigma(mu, nu) + sigma(mu * nu, rho) - sigma(nu, rho) - sigma(mu, nu * rho)``
    cancels pointwise because the multiplier ratio telescopes and each
    factor's argument stays principal.
    """
    from .groups import measure_convolve

    lhs = sigma_measures(mu, nu, pair) + sigma_measures(measure_convolve(mu, nu), rho, pair)
    rhs = sigma_measures(nu, rho, pair) + sigma_measures(mu, measure_convolve(nu, rho), pair)
    return abs(lhs - rhs)


# ---------------------------------------------------------------------------
# Exact symplectic pairing on complex lattices
# ---------------------------------------------------------------------------

# a coordinate is a Gaussian rational, held as its (re, im) pair of Fractions
LatticeCombo = Sequence[Tuple[Fraction, Tuple[Tuple[Fraction, Fraction], ...]]]


def lattice_sigma(first: LatticeCombo, second: LatticeCombo) -> Fraction:
    """``sum alpha alpha' Im <v, v'>`` over two formal combinations.

    The hermitian pairing of coordinate tuples has the exact imaginary
    part ``Im <v, w> = sum (x_im y_re - x_re y_im)`` in rational
    arithmetic; the basis vectors ``(1,)`` and ``(i,)`` pair to ``-1``.
    """
    total = Fraction(0)
    for alpha, vec in first:
        for beta, wec in second:
            if len(vec) != len(wec):
                raise ConstraintViolation("lattice vectors must share a dimension")
            im = sum(x_im * y_re - x_re * y_im for (x_re, x_im), (y_re, y_im) in zip(vec, wec))
            total += Fraction(alpha) * Fraction(beta) * im
    return total


# ---------------------------------------------------------------------------
# Step-function group over dyadic partitions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StepAutomorphism:
    """Dyadic rearrangement of ``[0, 1)`` with a group value per cell.

    ``perm`` sends source cell index to target cell index among the
    ``2**level`` equal cells; ``values`` attaches a group element to each
    source cell.  The element acts on pairs ``(x, g)`` by moving ``x``
    to its permuted cell and multiplying ``g`` by the cell's value.
    """

    level: int
    perm: Tuple[int, ...]
    values: Tuple[object, ...]

    def __post_init__(self):
        cells = 2**self.level
        if sorted(self.perm) != list(range(cells)):
            raise ConstraintViolation(
                f"perm must permute {cells} cells, got {self.perm!r}"
            )
        if len(self.values) != cells:
            raise ConstraintViolation(
                f"expected {cells} values, got {len(self.values)}"
            )

    def refine(self, levels: int = 1) -> "StepAutomorphism":
        """Split every cell in half ``levels`` times, preserving the map.

        Each child follows its parent with order preserved inside the
        cell, and inherits the parent's value.
        """
        out = self
        for _ in range(levels):
            perm = []
            values = []
            for i, target in enumerate(out.perm):
                perm.extend((2 * target, 2 * target + 1))
                values.extend((out.values[i], out.values[i]))
            out = StepAutomorphism(out.level + 1, tuple(perm), tuple(values))
        return out

    def at_level(self, level: int) -> "StepAutomorphism":
        if level < self.level:
            raise ConstraintViolation(
                f"cannot coarsen from level {self.level} to {level}"
            )
        return self.refine(level - self.level)

    def __mul__(self, other: "StepAutomorphism") -> "StepAutomorphism":
        """Product acting second-then-first, like function composition.

        The value group multiplies on the left: the cell value at ``x`` is
        ``v1(p2 x) v2(x)``.
        """
        level = max(self.level, other.level)
        f1 = self.at_level(level)
        f2 = other.at_level(level)
        perm = tuple(f1.perm[f2.perm[i]] for i in range(2**level))
        values = tuple(f1.values[f2.perm[i]] * f2.values[i] for i in range(2**level))
        return StepAutomorphism(level, perm, values)


def step_cocycle(
    f1: StepAutomorphism,
    f2: StepAutomorphism,
    pair: Callable[[object, object], float],
) -> float:
    """Integrate a two-argument scalar over the common refinement.

    Cell ``i`` of the product sees the pair ``(v1(p2 i), v2(i))``; each
    cell carries its length ``2**-level``.
    """
    level = max(f1.level, f2.level)
    g1 = f1.at_level(level)
    g2 = f2.at_level(level)
    weight = Fraction(1, 2**level)
    total = None
    for i in range(2**level):
        contribution = weight * pair(g1.values[g2.perm[i]], g2.values[i])
        total = contribution if total is None else total + contribution
    return total


def step_cocycle_residual(
    f1: StepAutomorphism,
    f2: StepAutomorphism,
    f3: StepAutomorphism,
    pair: Callable[[object, object], float],
) -> float:
    """Two-cocycle defect of the integrated scalar.

    Reduces cell by cell to the defect of ``pair`` on the value group,
    so it vanishes whenever the underlying scalar's identity holds on
    every triple of cell values.
    """
    lhs = step_cocycle(f1, f2, pair) + step_cocycle(f1 * f2, f3, pair)
    rhs = step_cocycle(f2, f3, pair) + step_cocycle(f1, f2 * f3, pair)
    return abs(lhs - rhs)


def random_step_automorphism(
    rng: np.random.Generator,
    level: int,
    value_factory: Callable[[np.random.Generator], object],
) -> StepAutomorphism:
    cells = 2**level
    perm = tuple(int(i) for i in rng.permutation(cells))
    values = tuple(value_factory(rng) for _ in range(cells))
    return StepAutomorphism(level, perm, values)
