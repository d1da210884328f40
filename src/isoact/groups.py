"""Group elements used across the package.

Two families of elements have a class of their own:

* :class:`SuMatrix` - pseudo-unitary 2x2 matrices ``(a b; conj(b) conj(a))``
  with ``|a|^2 - |b|^2 = 1``, acting on the unit disc.
* :class:`FreeWord` - reduced words in a finitely generated free group.

plus :class:`FiniteMeasure`, a finitely supported probability measure with
exact rational weights over either.  Elements of ``Sp(2n, R)``, the real
``2n x 2n`` matrices preserving the skew form :func:`sp_form`, are plain
arrays, or stacks of them, sampled by :func:`sp_exp`.

Entries of :class:`SuMatrix` are Python ``complex`` numbers.  Rational
input (``"p/q"`` strings) is checked against ``|a|^2 - |b|^2 = 1`` exactly
and then stored as its nearest floats.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Tuple, Union

import numpy as np

from .errors import ConstraintViolation
from .exact import parse_fraction

SU_CONSTRAINT_TOL = 1e-12


# ---------------------------------------------------------------------------
# SU(1,1)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SuMatrix:
    """An element ``(a b; conj(b) conj(a))`` with ``|a|^2 - |b|^2 = 1``.

    The two complex entries fully determine the matrix.
    """

    a: complex
    b: complex

    def defect(self) -> float:
        """``|a|^2 - |b|^2 - 1`` as a float."""
        a, b = self.a, self.b
        return float((a.real * a.real + a.imag * a.imag) - (b.real * b.real + b.imag * b.imag) - 1)

    def __mul__(self, other: "SuMatrix") -> "SuMatrix":
        a = self.a * other.a + self.b * other.b.conjugate()
        b = self.a * other.b + self.b * other.a.conjugate()
        return SuMatrix(a, b)

    def inverse(self) -> "SuMatrix":
        """Structure-preserving inverse ``(conj(a), -b)``."""
        return SuMatrix(self.a.conjugate(), -self.b)

    def trace(self) -> float:
        return 2.0 * self.a.real


def su_from_params(a: complex, b: complex) -> SuMatrix:
    """Build an :class:`SuMatrix`, enforcing ``|a|^2 - |b|^2 = 1`` within
    ``1e-12``.  Raises :class:`ConstraintViolation` otherwise, and for a
    defect that is not finite, such as ``inf - inf`` from infinite entries.
    """
    g = SuMatrix(a, b)
    defect = g.defect()
    if not abs(defect) <= SU_CONSTRAINT_TOL:
        raise ConstraintViolation(f"|a|^2 - |b|^2 - 1 = {defect:.3e} exceeds 1e-12")
    return g


def su_boost(t: float) -> SuMatrix:
    """Hyperbolic element ``(cosh t, sinh t)`` moving 0 to ``tanh t``."""
    return SuMatrix(complex(math.cosh(t)), complex(math.sinh(t)))


def su_random(rng: np.random.Generator, max_ratio: float = 0.8) -> SuMatrix:
    """Random float element with ``|b/a| <= max_ratio``.

    Draws the modulus ratio uniformly in ``[0, max_ratio]`` and both phases
    uniformly, then solves the constraint for the moduli.
    """
    w = float(rng.uniform(0.0, max_ratio))
    phase_a = float(rng.uniform(0.0, 2.0 * math.pi))
    phase_b = float(rng.uniform(0.0, 2.0 * math.pi))
    mod_a = 1.0 / math.sqrt(1.0 - w * w)
    mod_b = w * mod_a
    return SuMatrix(mod_a * cmath.exp(1j * phase_a), mod_b * cmath.exp(1j * phase_b))


def su_from_json(data: dict) -> SuMatrix:
    """Parse ``{"a": [re, im], "b": [re, im]}``.

    An element with a float entry is a float element: every entry must be
    a number, and the constraint must hold within ``1e-12``.  Any other
    element is rational: every entry goes through :func:`parse_fraction`,
    the constraint must hold exactly, and the element then holds the
    nearest floats.  A float mixed with ``"p/q"`` strings is refused.
    """
    try:
        a_re, a_im = data["a"]
        b_re, b_im = data["b"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ConstraintViolation(f"malformed SuMatrix JSON: {data!r}") from exc
    parts = [a_re, a_im, b_re, b_im]
    if any(type(p) is float for p in parts):
        if not all(type(p) in (int, float) for p in parts):
            raise ConstraintViolation(f"SuMatrix entries mix floats with other values: {data!r}")
        return su_from_params(complex(float(a_re), float(a_im)), complex(float(b_re), float(b_im)))
    a_re, a_im, b_re, b_im = [parse_fraction(p) for p in parts]
    norm = (a_re * a_re + a_im * a_im) - (b_re * b_re + b_im * b_im)
    if norm != 1:
        raise ConstraintViolation(f"|a|^2 - |b|^2 = {norm} != 1 (exact entries)")
    return SuMatrix(complex(float(a_re), float(a_im)), complex(float(b_re), float(b_im)))


# ---------------------------------------------------------------------------
# Sp(2n, R)
# ---------------------------------------------------------------------------


def sp_form(n: int) -> np.ndarray:
    """The block skew form ``(0 I; -I 0)`` on R^{2n}."""
    J = np.zeros((2 * n, 2 * n))
    J[:n, n:] = np.eye(n)
    J[n:, :n] = -np.eye(n)
    return J


def sp_exp(raw: np.ndarray, n: int) -> np.ndarray:
    """``expm(J S)`` with ``S = (raw + raw^T) / 2``, for one ``2n x 2n``
    array or a stack of them in the last two axes.

    scipy exponentiates a stack slice by slice, so each slice equals the
    single-matrix result bit for bit.  scipy is imported here, not at
    module level, because ``scipy.linalg`` is slow to import and only the
    symplectic sampler needs it.
    """
    import scipy.linalg

    S = (raw + np.swapaxes(raw, -1, -2)) / 2.0
    return scipy.linalg.expm(sp_form(n) @ S)


# ---------------------------------------------------------------------------
# Free groups
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FreeWord:
    """A reduced word in the free group on ``rank`` generators.

    Letters are nonzero integers: ``k`` stands for the k-th generator and
    ``-k`` for its inverse.  The tuple is always fully reduced.

    The constructor checks nothing.  Raw input goes through
    :func:`free_reduce` or :func:`word_from_json`, which validate and
    reduce it; direct ``FreeWord(...)`` construction must pass a reduced
    tuple of letters in ``1..rank`` in modulus.  Products rely on this:
    two reduced words cancel only at their junction.

    Examples
    --------
    >>> w = free_reduce([1, 2, -2, 1], rank=2)
    >>> w.letters
    (1, 1)
    >>> (w * w.inverse()).letters
    ()
    """

    letters: Tuple[int, ...]
    rank: int

    def __len__(self) -> int:
        return len(self.letters)

    def __mul__(self, other: "FreeWord") -> "FreeWord":
        if self.rank != other.rank:
            raise ConstraintViolation("free words over different ranks")
        a, b = self.letters, other.letters
        i, n = 0, min(len(a), len(b))
        while i < n and a[-1 - i] == -b[i]:
            i += 1
        return FreeWord(a[: len(a) - i] + b[i:], self.rank)

    def inverse(self) -> "FreeWord":
        return FreeWord(tuple(-l for l in reversed(self.letters)), self.rank)

    def __pow__(self, k: int) -> "FreeWord":
        if k < 0:
            return self.inverse() ** (-k)
        out = FreeWord((), self.rank)
        for _ in range(k):
            out = out * self
        return out

    def cyclic_reduce(self) -> Tuple["FreeWord", "FreeWord"]:
        """Return ``(core, c)`` with ``self = c * core * c.inverse()``.

        ``core`` is cyclically reduced (its first letter is not the inverse
        of its last).  ``c`` is the stripped prefix, possibly empty.
        """
        letters = list(self.letters)
        prefix: list[int] = []
        while len(letters) >= 2 and letters[0] == -letters[-1]:
            prefix.append(letters[0])
            letters = letters[1:-1]
        return FreeWord(tuple(letters), self.rank), FreeWord(tuple(prefix), self.rank)


def free_reduce(letters: Iterable[int], rank: int) -> FreeWord:
    """Fully reduce a raw letter sequence.

    Reduction by a stack scan; the result is independent of cancellation
    order (free-group words have unique reduced forms).  Raises
    :class:`ConstraintViolation` for letters outside ``1..rank`` in modulus.
    """
    stack: list[int] = []
    for letter in letters:
        if not isinstance(letter, int) or letter == 0 or abs(letter) > rank:
            raise ConstraintViolation(f"letter {letter!r} outside generators 1..{rank}")
        if stack and stack[-1] == -letter:
            stack.pop()
        else:
            stack.append(letter)
    return FreeWord(tuple(stack), rank)


def word_from_json(data: Sequence[int], rank: int) -> FreeWord:
    """The reduced word of a JSON list of integer letters."""
    if not isinstance(data, list) or not all(type(x) is int for x in data):
        raise ConstraintViolation(f"a word must be a JSON list of integer letters, got {data!r}")
    return free_reduce(data, rank)


def random_word(rng: np.random.Generator, rank: int, length: int) -> FreeWord:
    """Uniform random reduced word of exactly ``length`` letters."""
    if length == 0:
        return FreeWord((), rank)
    alphabet = [k for k in range(1, rank + 1)] + [-k for k in range(1, rank + 1)]
    letters = [alphabet[int(rng.integers(0, len(alphabet)))]]
    while len(letters) < length:
        choices = [l for l in alphabet if l != -letters[-1]]
        letters.append(choices[int(rng.integers(0, len(choices)))])
    return FreeWord(tuple(letters), rank)


# ---------------------------------------------------------------------------
# Finitely supported probability measures
# ---------------------------------------------------------------------------


def _default_key(elem) -> str:
    if isinstance(elem, SuMatrix):
        a, b = elem.a, elem.b
        return f"su:{a.real!r}:{a.imag!r}:{b.real!r}:{b.imag!r}"
    if isinstance(elem, FreeWord):
        return f"fw:{elem.letters}"
    return repr(elem)


@dataclass(frozen=True)
class FiniteMeasure:
    """Probability measure with finitely many atoms and rational weights.

    Atoms are stored sorted by a canonical key so that equal measures have
    equal representations.  Weights are nonnegative Fractions summing to
    exactly 1; duplicate atoms are merged at construction.
    """

    atoms: Tuple[Tuple[object, Fraction], ...]

    @staticmethod
    def from_atoms(pairs: Iterable[Tuple[object, Union[Fraction, int]]]) -> "FiniteMeasure":
        merged: dict[str, list] = {}
        for elem, weight in pairs:
            if isinstance(weight, float):
                raise ConstraintViolation("measure weights must be exact rationals, not floats")
            weight = Fraction(weight)
            if weight < 0:
                raise ConstraintViolation(f"negative weight {weight}")
            key = _default_key(elem)
            if key in merged:
                merged[key][1] += weight
            else:
                merged[key] = [elem, weight]
        atoms = tuple(
            (elem, weight)
            for _, (elem, weight) in sorted(merged.items(), key=lambda kv: kv[0])
            if weight != 0
        )
        total = sum((w for _, w in atoms), Fraction(0))
        if total != 1:
            raise ConstraintViolation(f"weights sum to {total}, expected exactly 1")
        return FiniteMeasure(atoms)


def measure_convolve(mu: FiniteMeasure, nu: FiniteMeasure) -> FiniteMeasure:
    """Convolution: atoms ``g * h`` with weights ``p q``, merged exactly.

    Raises :class:`ConstraintViolation` when atom types differ or lack a product.
    """
    if mu.atoms and nu.atoms:
        t1 = type(mu.atoms[0][0])
        t2 = type(nu.atoms[0][0])
        if t1 is not t2:
            raise ConstraintViolation(
                f"cannot convolve atoms of types {t1.__name__} and {t2.__name__}"
            )
    pairs = []
    for g, p in mu.atoms:
        for h, q in nu.atoms:
            try:
                gh = g * h
            except TypeError as exc:
                raise ConstraintViolation(
                    f"atoms of type {type(g).__name__} have no product"
                ) from exc
            pairs.append((gh, p * q))
    return FiniteMeasure.from_atoms(pairs)
