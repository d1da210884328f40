"""Inputs that only the tests build.

Named rotations, boosts and rational elements give the tests
hand-checkable inputs, where the package samples its elements at random;
the rational ones also come as exact Gaussian-rational pairs, with the
little arithmetic the tests' closed forms need;
point masses and random weights build measures; the orthonormal frame
makes the truncated disc operators unitary on their low columns.  The disc
map of an SU(1,1) element and the graph of a Cayley window are read off
their data here, for tests that need them and suites that do not.
"""

import cmath
import math
from fractions import Fraction

import numpy as np

from isoact.groups import FiniteMeasure, SuMatrix, su_from_json
from isoact.harmonic import OrientedGraph
from isoact.immobile import CayleyWindow


def su_identity() -> SuMatrix:
    return SuMatrix(complex(1.0), complex(0.0))


def su_rotation(theta: float) -> SuMatrix:
    """Elliptic element ``(e^{i theta}, 0)`` fixing the disc centre."""
    return SuMatrix(cmath.exp(1j * theta), complex(0.0))


# A Gaussian rational is a pair (re, im) of Fractions; an exact SU(1,1)
# element is the pair (a, b) of its entries.


def gauss_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def gauss_conj(x):
    return (x[0], -x[1])


def gauss_div(x, y):
    d = y[0] * y[0] + y[1] * y[1]
    re, im = gauss_mul(x, gauss_conj(y))
    return (re / d, im / d)


def gauss_complex(x) -> complex:
    return complex(float(x[0]), float(x[1]))


def rational_boost(t: Fraction):
    """Entries ``a = (1+t^2)/(1-t^2)``, ``b = 2t/(1-t^2)`` of a boost-like element, for ``|t| < 1``."""
    t = Fraction(t)
    d = 1 - t * t
    return ((1 + t * t) / d, Fraction(0)), (2 * t / d, Fraction(0))


def rational_rotation(t: Fraction):
    """Entries ``a = ((1-t^2) + 2ti)/(1+t^2)``, ``b = 0`` of an elliptic element."""
    t = Fraction(t)
    d = 1 + t * t
    return ((1 - t * t) / d, 2 * t / d), (Fraction(0), Fraction(0))


def rational_product(g, h):
    """Exact entries of the product: ``a = a1 a2 + b1 conj(b2)``, ``b = a1 b2 + b1 conj(a2)``."""
    (a1, b1), (a2, b2) = g, h
    a = tuple(x + y for x, y in zip(gauss_mul(a1, a2), gauss_mul(b1, gauss_conj(b2))))
    b = tuple(x + y for x, y in zip(gauss_mul(a1, b2), gauss_mul(b1, gauss_conj(a2))))
    return a, b


def rational_json(g) -> dict:
    """The ``"p/q"`` spelling of exact entries that ``su_from_json`` reads."""
    (a_re, a_im), (b_re, b_im) = g
    return {"a": [str(a_re), str(a_im)], "b": [str(b_re), str(b_im)]}


def su_rational(g) -> SuMatrix:
    """The element of exact entries, read as the package reads rational input."""
    return su_from_json(rational_json(g))


def su_to_json(g: SuMatrix) -> dict:
    """The ``{"a": [re, im], "b": [re, im]}`` float form that ``su_from_json`` reads."""
    return {"a": [g.a.real, g.a.imag], "b": [g.b.real, g.b.imag]}


def sp_rotation(theta: float) -> np.ndarray:
    """Planar rotation ``(cos, sin; -sin, cos)`` in Sp(2, R)."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, s], [-s, c]])


def sp_boost(t: float) -> np.ndarray:
    """Diagonal element ``diag(e^t, e^{-t})`` in Sp(2, R)."""
    return np.diag([math.exp(t), math.exp(-t)])


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


def disc_map(g: SuMatrix, z: complex) -> complex:
    """Disc automorphism ``z -> (a z + b) / (conj(b) z + conj(a))`` of ``g``."""
    a, b = g.a, g.b
    return (a * z + b) / (b.conjugate() * z + a.conjugate())


def cayley_graph(window: CayleyWindow) -> OrientedGraph:
    """The window's vertices and edges as a graph; words shorter than the radius are interior."""
    vs = window.vertices()
    index = {v: i for i, v in enumerate(vs)}
    edges = tuple((index[t], index[h]) for t, h in window.edges())
    interior = tuple(len(v.letters) < window.radius for v in vs)
    return OrientedGraph(tuple(vs), edges, interior)
