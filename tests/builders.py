"""Inputs that only the tests build.

Named rotations, boosts and exact rational elements give the tests
hand-checkable inputs, where the package samples its elements at random;
point masses and random weights build measures; the orthonormal frame
makes the truncated disc operators unitary on their low columns.  The disc
map of an SU(1,1) element and the graph of a Cayley window are read off
their data here, for tests that need them and suites that do not.
"""

import cmath
import math
from fractions import Fraction

import numpy as np

from isoact.exact import QComplex, format_fraction
from isoact.groups import FiniteMeasure, SpMatrix, SuMatrix, su_from_params
from isoact.harmonic import OrientedGraph
from isoact.immobile import CayleyWindow


def su_identity(exact: bool = False) -> SuMatrix:
    if exact:
        return SuMatrix(QComplex(1, 0), QComplex(0, 0))
    return SuMatrix(complex(1.0), complex(0.0))


def su_rotation(theta: float) -> SuMatrix:
    """Elliptic element ``(e^{i theta}, 0)`` fixing the disc centre."""
    return SuMatrix(cmath.exp(1j * theta), complex(0.0))


def su_rational_boost(t: Fraction) -> SuMatrix:
    """Exact boost-like element ``a = (1+t^2)/(1-t^2)``, ``b = 2t/(1-t^2)``, for ``|t| < 1``."""
    t = Fraction(t)
    d = 1 - t * t
    return su_from_params(QComplex((1 + t * t) / d, 0), QComplex(2 * t / d, 0))


def su_rational_rotation(t: Fraction) -> SuMatrix:
    """Exact elliptic element with ``a = ((1-t^2) + 2ti)/(1+t^2)``, ``b = 0``."""
    t = Fraction(t)
    d = 1 + t * t
    return su_from_params(QComplex((1 - t * t) / d, 2 * t / d), QComplex(0, 0))


def su_to_json(g: SuMatrix) -> dict:
    """The ``{"a": [re, im], "b": [re, im]}`` form that ``su_from_json`` reads."""
    if g.exact:
        return {
            "a": [format_fraction(g.a.re), format_fraction(g.a.im)],
            "b": [format_fraction(g.b.re), format_fraction(g.b.im)],
        }
    return {"a": [g.a.real, g.a.imag], "b": [g.b.real, g.b.imag]}


def sp_rotation(theta: float) -> SpMatrix:
    """Planar rotation ``(cos, sin; -sin, cos)`` in Sp(2, R)."""
    c, s = math.cos(theta), math.sin(theta)
    return SpMatrix(np.array([[c, s], [-s, c]]), 1)


def sp_boost(t: float) -> SpMatrix:
    """Diagonal element ``diag(e^t, e^{-t})`` in Sp(2, R)."""
    return SpMatrix(np.diag([math.exp(t), math.exp(-t)]), 1)


def delta_measure(elem) -> FiniteMeasure:
    """Point mass at ``elem``."""
    return FiniteMeasure.from_atoms([(elem, Fraction(1))])


def random_rational_weights(rng: np.random.Generator, count: int) -> list:
    """Random positive rationals summing to exactly 1."""
    raw = [int(rng.integers(1, 10)) for _ in range(count)]
    total = sum(raw)
    return [Fraction(r, total) for r in raw]


def orthonormal_frame(mat: np.ndarray) -> np.ndarray:
    """Rescale a monomial-coefficient matrix to the orthonormal basis
    ``sqrt(k+1) z^k``, in which ``pi(g)`` is unitary."""
    n = mat.shape[0]
    scale = np.sqrt(np.arange(1, n + 1))
    return mat * (scale[None, :] / scale[:, None])


def su_entries(g: SuMatrix):
    """``(a, b)`` of ``g`` as Python complex numbers, from either backend."""
    return tuple(z.to_complex() if isinstance(z, QComplex) else complex(z) for z in (g.a, g.b))


def disc_map(g: SuMatrix, z: complex) -> complex:
    """Disc automorphism ``z -> (a z + b) / (conj(b) z + conj(a))`` of ``g``."""
    a, b = su_entries(g)
    return (a * z + b) / (b.conjugate() * z + a.conjugate())


def cayley_graph(window: CayleyWindow) -> OrientedGraph:
    """The window's vertices and edges as a graph; words shorter than the radius are interior."""
    vs = window.vertices()
    index = {v: i for i, v in enumerate(vs)}
    edges = tuple((index[t], index[h]) for t, h in window.edges())
    interior = tuple(len(v.letters) < window.radius for v in vs)
    return OrientedGraph(tuple(vs), edges, interior)
