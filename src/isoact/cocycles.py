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
  input was not one.  Elements are plain arrays, and one batched kernel,
  :func:`tau_terms`, computes every value: a failed guard is a False
  entry in the mask it returns, not an exception.
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

from .errors import ConstraintViolation
from .groups import FiniteMeasure, FreeWord, SuMatrix

# ---------------------------------------------------------------------------
# Symplectic phase cocycle
# ---------------------------------------------------------------------------

PHI_SINGULAR_TOL = 1e-6
TAU_BRANCH_MARGIN = 1e-9


def _phase(e: np.ndarray, n: int) -> np.ndarray:
    """``Phi(g) = ((A + D) + i (C - B)) / 2`` in n x n blocks, for one
    matrix or a stack of them in the last two axes.

    Sends the planar rotation by ``theta`` to ``exp(-i theta)`` and the
    boost ``diag(e^t, e^{-t})`` to ``cosh t``.
    """
    a, b = e[..., :n, :n], e[..., :n, n:]
    c, d = e[..., n:, :n], e[..., n:, n:]
    return 0.5 * ((a + d) + 1j * (c - b))


def tau_terms(
    mats: np.ndarray, terms: Sequence[Tuple[int, int, int]]
) -> Tuple[np.ndarray, np.ndarray]:
    """The phase defect ``tau(g1, g2) = Im tr Log(Phi(g1)^-1 Phi(g1 g2)
    Phi(g2)^-1)`` for each ``(left, right, product)`` index triple, on
    stacks of trials.

    ``mats`` has shape ``(M, T, 2n, 2n)``: ``M`` symplectic matrices for
    each of ``T`` trials, where ``mats[product]`` is ``mats[left] @
    mats[right]``.  Returns ``(values, ok)`` with ``values`` of shape
    ``(len(terms), T)``.  A pair with an exact identity is worth exactly
    ``0.0``: its defect matrix is the identity.  ``ok[t]`` is False, and
    trial ``t``'s values are NaN, where a guard fails on one of its
    terms: a phase factor with a singular value below
    ``PHI_SINGULAR_TOL`` (its absolute determinant is at least one for a
    genuine symplectic matrix), or a defect matrix within
    ``TAU_BRANCH_MARGIN`` of distance one from the identity, where an
    eigenvalue could reach the branch cut of the principal logarithm.
    Later terms of a failed trial are not computed.

    The Frobenius norm bounds the spectral norm from above, so the
    spectral distance (an SVD) is computed only for the defects whose
    Frobenius distance cannot clear the guard.  That screen sits a
    further ``TAU_BRANCH_MARGIN`` lower, which absorbs the rounding of
    either norm, so the mask is the one an SVD on every defect gives.
    """
    n = mats.shape[-1] // 2
    phases = _phase(mats, n)
    collapsed = np.linalg.svd(phases, compute_uv=False)[..., -1] < PHI_SINGULAR_TOL
    identity = np.all(mats == np.eye(2 * n), axis=(-2, -1))
    ok = np.ones(mats.shape[1], dtype=bool)
    values = np.zeros((len(terms), mats.shape[1]))
    for value, (left, right, prod) in zip(values, terms):
        live = ok & ~(identity[left] | identity[right])
        ok &= ~(live & (collapsed[left] | collapsed[right] | collapsed[prod]))
        live = np.flatnonzero(live & ok)
        p1, p2, p12 = phases[left, live], phases[right, live], phases[prod, live]
        defect = np.linalg.solve(p1, p12) @ np.linalg.inv(p2)
        offset = defect - np.eye(n)
        near_cut = np.linalg.norm(offset, "fro", axis=(-2, -1)) >= 1.0 - 2 * TAU_BRANCH_MARGIN
        near_cut[near_cut] = (
            np.linalg.norm(offset[near_cut], 2, axis=(-2, -1)) >= 1.0 - TAU_BRANCH_MARGIN
        )
        ok[live[near_cut]] = False
        eigenvalues = np.linalg.eigvals(defect[~near_cut])
        value[live[~near_cut]] = np.sum(np.angle(eigenvalues), axis=-1)
    values[:, ~ok] = np.nan
    return values, ok


def tau_cocycle_residuals(
    g1: np.ndarray, g2: np.ndarray, g3: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Two-cocycle defects of tau, reduced modulo ``2 pi``, for stacks of
    triples.

    ``g1``, ``g2`` and ``g3`` hold the entries of ``T`` symplectic
    matrices each, with shape ``(T, 2n, 2n)``.  Returns ``(residuals,
    ok)`` as :func:`tau_terms` returns its guards: where a guard fails on
    a term of triple ``k``, ``ok[k]`` is False and its residual is NaN.
    """
    if not (g1.shape == g2.shape == g3.shape) or g1.ndim != 3:
        raise ConstraintViolation("expected three stacks of the same shape (T, 2n, 2n)")
    g12 = g1 @ g2
    g23 = g2 @ g3
    # The seven matrices whose phase factors the four tau terms read, and
    # the (left, right, product) indices of tau(g1, g2), tau(g1 g2, g3),
    # tau(g2, g3) and tau(g1, g2 g3) among them.
    mats = np.stack([g1, g2, g3, g12, g23, g12 @ g3, g1 @ g23])
    values, ok = tau_terms(mats, ((0, 1, 3), (3, 2, 5), (1, 2, 4), (0, 4, 6)))
    lhs = values[0] + values[1]
    rhs = values[2] + values[3]
    wrapped = np.abs(lhs - rhs) % (2.0 * math.pi)
    return np.minimum(wrapped, 2.0 * math.pi - wrapped), ok


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
        raise ConstraintViolation("orthogonal pairing expects reduced words")
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
