"""The registered verification suites behind ``isoact run``.

Each suite draws its own reproducible samples, runs one family of
identity checks, and returns rows for the report layer.  Randomness is
seeded per trial as ``default_rng([seed, stream, trial])`` (sp-tau sets
one ``PCG64`` to the same states, derived a stack of trials at a time), so
adding trials never changes earlier rows and any failing trial can be rerun
in isolation.  Exact checks emit rational residuals with tolerance 0;
floating checks emit measured residuals against the configured
tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import cocycles as co
from . import mobius as mo
from .errors import ConfigError, ConstraintViolation
from .exact import parse_fraction
from .fock import (
    MAX_DEGREE,
    MAX_DIMENSION,
    exp_compose_residual,
    haar_unitary,
    random_translation,
)
from .groups import (
    FiniteMeasure,
    FreeWord,
    random_word,
    sp_exp,
    su_boost,
    su_random,
)
from .harmonic import (
    divergence,
    edge_inner,
    gradient,
    harmonic_decompose,
    mean_value_laplacian,
    subtree_flow_norms,
    tree_ball_graph,
    vertex_inner,
)
from .report import (
    MAX_TRIALS,
    CheckRow,
    Report,
    SuiteConfig,
    check_row,
    digest_of,
    make_report,
    unresolved_row,
)
from .rtree import (
    cocycle_defect,
    power_norm_deviation,
    random_metric_tree,
    translation_length,
)
from .traintrack import CORPUS, TrackMetric, grid_metric, track_from_json, track_to_json
from .treeball import TreeBall

ZERO = Fraction(0)


_KIND_TEXT = {int: "an integer", float: "a number", Fraction: "a 'p/q' fraction"}
_ACCEPTS = {int: int, float: (int, float), Fraction: (int, str, Fraction)}


@dataclass(frozen=True)
class Param:
    """One declared suite parameter: its name, type, default and range.

    A number of ``kind`` (``Fraction`` from an integer or a "p/q" string)
    lies in ``low..high``, or with tuple bounds is a list of one number per
    bound.  ``at_least > 0`` asks for a list of that many or more distinct
    such values.  A None default is worked out by the suite.  ``holds``,
    when set, is a further condition on each entry, which ``condition``
    words for the error message.
    """

    name: str
    kind: type
    default: object
    low: object = None
    high: object = None
    at_least: int = 0
    holds: Optional[Callable[[object], bool]] = None
    condition: str = ""

    def describe(self) -> str:
        if isinstance(self.low, tuple):
            ranges = ", ".join(f"{lo}..{hi}" for lo, hi in zip(self.low, self.high))
            entry = f"a list of {len(self.low)} integers in {ranges}"
        else:
            entry = f"{_KIND_TEXT[self.kind]} in {self.low}..{self.high}"
        if self.condition:
            entry = f"{entry} {self.condition}"
        if self.at_least:
            return f"a list of at least {self.at_least} distinct entries, each {entry}"
        return entry

    def resolve(self, suite: str, value):
        """The typed value, or ConfigError naming the suite, the key and the value."""
        try:
            if not self.at_least:
                return self._entry(value, self.low, self.high)
            if not isinstance(value, (list, tuple)) or len(value) < self.at_least:
                raise ValueError
            entries = tuple(self._entry(v, self.low, self.high) for v in value)
            if len(set(entries)) != len(entries):
                raise ValueError
            return entries
        except ValueError:
            raise ConfigError(
                f"{suite}: parameter {self.name!r} must be {self.describe()}, got {value!r}"
            ) from None

    def _entry(self, value, low, high):
        if isinstance(low, tuple):
            if not isinstance(value, (list, tuple)) or len(value) != len(low):
                raise ValueError
            return tuple(self._entry(v, lo, hi) for v, lo, hi in zip(value, low, high))
        if isinstance(value, bool) or not isinstance(value, _ACCEPTS[self.kind]):
            raise ValueError
        try:
            if self.kind is Fraction and not isinstance(value, Fraction):
                value = parse_fraction(value)  # the same reader as every probe rational
            else:
                value = self.kind(value)
        except (OverflowError, ConstraintViolation):
            raise ValueError from None
        if not low <= value <= high or (self.holds is not None and not self.holds(value)):
            raise ValueError
        return value


@dataclass(frozen=True)
class ResolvedConfig:
    """A suite config with every parameter typed and every default filled in."""

    suite: str
    seed: int
    trials: int
    tolerance: float
    params: Dict[str, object]

    def as_dict(self) -> dict:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "trials": self.trials,
            "tolerance": self.tolerance,
            "params": {
                k: str(v) if isinstance(v, Fraction) else v for k, v in sorted(self.params.items())
            },
        }


@dataclass(frozen=True)
class SuiteEntry:
    run: Callable[[ResolvedConfig], List[CheckRow]]
    description: str
    default_trials: int
    default_tolerance: float
    params: Tuple[Param, ...]
    # set when rows derive their own tolerance: says how, and a given one is refused
    fixed_tolerance: str = ""


def _rng(rc: ResolvedConfig, stream: int, trial: int) -> np.random.Generator:
    return np.random.default_rng([rc.seed, stream, trial])


# numpy's SeedSequence hash and mix constants, and PCG64's 128-bit multiplier
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_HASH_INIT_A, _HASH_MULT_A = 0x43B0D7E5, 0x931E8875
_HASH_INIT_B, _HASH_MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = (2549297995355413924 << 64) + 4865540595714422341


def _uint32_words(value: int) -> List[int]:
    """``SeedSequence``'s split of a non-negative integer into little-endian 32-bit words."""
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _hasher(const: int, mult: int) -> Callable[[np.ndarray], np.ndarray]:
    """``SeedSequence``'s running hash on uint32 arrays: each call xors in the
    constant, steps it by ``mult``, multiplies by it and folds the high half down."""

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> np.uint32(16))

    return hashmix


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return result ^ (result >> np.uint32(16))


def _pcg64_states(seed: int, stream: int, trials: Sequence[int]) -> List[dict]:
    """The ``PCG64`` state that ``default_rng([seed, stream, k])`` starts
    from, for every trial ``k`` at once.

    Reproduces two numpy algorithms on uint32 arrays over the trials,
    whose products wrap as numpy's C code does.  ``SeedSequence`` hashes
    the entropy words of ``[seed, stream, k]`` into a pool of four words
    and mixes every pool word into every other, then hashes the pool out
    into four 64-bit words (``generate_state(4, uint64)``).  A seed below
    ``2**64`` is at most two words and a stream and a trial one each, so
    the entropy never overflows the pool, and numpy's step for words past
    the fourth is left out.
    ``PCG64``'s seeding step takes the first two output words as the
    initial state and the last two as the increment, and advances twice.
    Each returned dict sets a ``PCG64``'s ``state``;
    ``tests/test_draws.py`` asserts it equals ``default_rng``'s at the
    extreme seeds, streams and trials.
    """
    trial_words = np.asarray(trials, dtype=np.uint32)
    entropy = [np.full_like(trial_words, w) for w in _uint32_words(seed) + _uint32_words(stream)]
    entropy.append(trial_words)
    hashmix = _hasher(_HASH_INIT_A, _HASH_MULT_A)
    pool = [hashmix(word) for word in entropy + [np.zeros_like(trial_words)] * (4 - len(entropy))]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    hashmix = _hasher(_HASH_INIT_B, _HASH_MULT_B)
    out = [hashmix(pool[i % 4]).astype(np.uint64) for i in range(8)]
    seed_hi, seed_lo, inc_hi, inc_lo = ((out[2 * j + 1] << 32 | out[2 * j]).tolist() for j in range(4))
    states = []
    for s_hi, s_lo, i_hi, i_lo in zip(seed_hi, seed_lo, inc_hi, inc_lo):
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        state = ((inc + (s_hi << 64 | s_lo)) * _PCG64_MULT + inc) & _MASK128
        states.append(
            {
                "bit_generator": "PCG64",
                "state": {"state": state, "inc": inc},
                "has_uint32": 0,
                "uinteger": 0,
            }
        )
    return states


# lcm(1..7): every sampled rational times this is an integer
RATIONAL_SCALE = 420


def _scaled_rationals(rng: np.random.Generator, count: int) -> List[int]:
    """``count`` rationals p/q, p in -9..9 and q in 1..7, each times RATIONAL_SCALE.

    One broadcast call draws the (p, q) pairs in the order, and with the
    values, of one scalar draw of p and then q per rational, and leaves the
    generator in the same state.
    """
    pq = rng.integers(np.tile([-9, 1], count), np.tile([10, 8], count))
    return (pq[0::2] * (RATIONAL_SCALE // pq[1::2])).tolist()


# ---------------------------------------------------------------------------
# tree-identities: divergence of gradient vs mean-value laplacian, adjointness
# ---------------------------------------------------------------------------


def _suite_tree_identities(rc: ResolvedConfig) -> List[CheckRow]:
    default_radii = {2: 5, 3: 4, 5: 3}
    rows: List[CheckRow] = []
    for n in rc.params["n_values"]:
        radius = rc.params["radius"] or default_radii.get(n, 3)
        ball = TreeBall(n, radius)
        graph = tree_ball_graph(ball)
        size = len(graph.vertices)
        p = n + 1

        # operator identity column by column on the standard basis
        worst = 0
        for i in range(size):
            basis = [0] * size
            basis[i] = 1
            dg = divergence(graph, gradient(graph, basis))
            mv = mean_value_laplacian(ball, graph, basis)
            for j, val in mv.items():
                worst = max(worst, abs(dg[j] - p * val))
        # "mode" stays in the digested inputs, so matrix rows keep their bytes
        inputs = {"n": n, "radius": radius, "mode": "exact"}
        rows.append(check_row(f"matrix-n{n}", inputs, f"{size}x{size}", worst, ZERO))

        def adjoint_trial(k: int, n=n, graph=graph):
            rng = _rng(rc, n, k)
            # f and h are RATIONAL_SCALE times the sampled rationals: integer sums
            scaled = _scaled_rationals(rng, len(graph.vertices) + len(graph.edges))
            f, h = scaled[: len(graph.vertices)], scaled[len(graph.vertices) :]
            lhs = Fraction(edge_inner(gradient(graph, f), h), RATIONAL_SCALE**2)
            rhs = Fraction(vertex_inner(f, divergence(graph, h)), RATIONAL_SCALE**2)
            return check_row(
                f"adjoint-n{n}-{k:03d}",
                {"n": n, "seed": rc.seed, "trial": k},
                lhs,
                abs(lhs - rhs),
                ZERO,
            )

        rows.extend(adjoint_trial(k) for k in range(rc.trials))
    return rows


# ---------------------------------------------------------------------------
# bergman: truncated pairing series against the closed-form gram
# ---------------------------------------------------------------------------


def _suite_bergman(rc: ResolvedConfig) -> List[CheckRow]:
    degree = rc.params["degree"]
    max_ratio = rc.params["max_ratio"]

    def trial(k: int) -> List[CheckRow]:
        rng = _rng(rc, 0, k)
        g1 = su_random(rng, max_ratio)
        g2 = su_random(rng, max_ratio)
        inputs = {"seed": rc.seed, "trial": k, "degree": degree}
        series = mo.bergman_inner(mo.gamma_vector(g1, degree), mo.gamma_vector(g2, degree))
        closed = mo.gamma_gram(g1, g2)
        self_series = mo.bergman_norm2(mo.gamma_vector(g1, degree))
        return [
            check_row(f"pair-{k:03d}", inputs, series, abs(series - closed), rc.tolerance),
            check_row(
                f"self-{k:03d}", inputs, self_series, abs(self_series - mo.phi(g1)), rc.tolerance
            ),
        ]

    return [row for k in range(rc.trials) for row in trial(k)]


# ---------------------------------------------------------------------------
# asymptotic: norm vs displacement error for boosts, small and decreasing
# ---------------------------------------------------------------------------


def _suite_asymptotic(rc: ResolvedConfig) -> List[CheckRow]:
    t_min = rc.params["t_min"]
    t_max = rc.params["t_max"]
    if t_max <= t_min:
        raise ConfigError(f"t_max must exceed t_min, got {t_min} .. {t_max}")
    errors = {t: mo.asymptotic_error(su_boost(float(t))) for t in range(t_min, t_max + 1)}
    rows = [
        check_row(f"boost-t{t:02d}", {"t": t}, errors[t], errors[t], rc.tolerance)
        for t in sorted(errors)
    ]
    worst_rise = max(
        max(0.0, errors[t] - errors[t - 1]) for t in range(t_min + 1, t_max + 1)
    )
    rows.append(check_row("monotone", {"t_min": t_min, "t_max": t_max}, worst_rise, worst_rise, 0.0))
    return rows


# ---------------------------------------------------------------------------
# cocycle-law: exact on the Cayley tree, truncated on the disc
# ---------------------------------------------------------------------------


def _suite_cocycle_law(rc: ResolvedConfig) -> List[CheckRow]:
    word_length = rc.params["word_length"]
    su_trials = rc.params["su_trials"]
    degree = rc.params["degree"]
    max_ratio = rc.params["max_ratio"]

    def tree_trial(k: int) -> CheckRow:
        rng = _rng(rc, 0, k)
        g1 = random_word(rng, 2, int(rng.integers(0, word_length + 1)))
        g2 = random_word(rng, 2, int(rng.integers(0, word_length + 1)))
        defect = cocycle_defect(g1, g2).norm2()
        inputs = {"seed": rc.seed, "trial": k, "g1": list(g1.letters), "g2": list(g2.letters)}
        return check_row(f"tree-{k:03d}", inputs, defect, defect, ZERO)

    def su_trial(k: int) -> CheckRow:
        rng = _rng(rc, 1, k)
        g1 = su_random(rng, max_ratio)
        g2 = su_random(rng, max_ratio)
        residual = mo.affine_cocycle_residual(g1, g2, degree=degree)
        inputs = {"seed": rc.seed, "trial": k, "degree": degree}
        return check_row(f"su-{k:03d}", inputs, residual, residual, rc.tolerance)

    rows = [tree_trial(k) for k in range(rc.trials)]
    rows.extend(su_trial(k) for k in range(su_trials))
    return rows


# ---------------------------------------------------------------------------
# translation-length: formula vs window minimum, homogeneity on powers
# ---------------------------------------------------------------------------


WINDOW_BATCH = 1 << 14  # window words walked at once: bounds the walk's memory


def _conjugate_lengths(words: Sequence[FreeWord], radius: int) -> np.ndarray:
    """``|x^-1 g x|`` for each word ``g`` and every reduced ``x`` with ``|x| <= radius``.

    One row per word, one entry per window word.  The words share a rank,
    and the walk goes down the trie of ``x`` one level at a time, for all
    nodes of a level and all words at once.  Appending a letter ``a`` to
    ``x`` turns ``h = x^-1 g x`` into ``a^-1 h a``: the empty word stays
    empty, and otherwise each end of ``h`` loses its letter when it cancels
    against ``a`` and gains one when it does not.  A child's length needs
    only the end letters of ``h``, but after a cancellation the next end
    letter is one from inside ``h``.  So each node carries ``h`` whole, as
    ``buf[start:start + size]`` in a fixed-width int8 row with ``g`` placed
    at offset ``radius``, and levels below ``radius`` copy their parents'
    rows and prepend or append the new letter, or move an offset where it
    cancels.  This is brute force over the window, independent of cyclic
    reduction.
    """
    rank = words[0].rank
    alphabet = np.array([k for j in range(1, rank + 1) for k in (j, -j)], dtype=np.int8)
    follow = np.zeros((2 * rank + 1, 2 * rank - 1), dtype=np.int8)  # row b: letters after b
    for b in alphabet:
        follow[b] = alphabet[alphabet != -b]
    one = np.int8(1)
    buf = np.zeros((len(words), max(map(len, words)) + 2 * radius), dtype=np.int8)
    for row, g in zip(buf, words):
        row[radius : radius + len(g)] = g.letters
    size = np.array([len(g) for g in words], dtype=np.int16)
    start = np.full(len(words), radius, dtype=np.int16)
    a = np.broadcast_to(alphabet, (len(words), len(alphabet)))  # the letters after the root
    levels = [size]
    for level in range(1, radius + 1):
        nodes = np.arange(len(size))
        # each end of h moves by -1 where it cancels against a, +1 where not, 0 if h is empty
        grows = (size > 0)[:, None]
        front = np.where(buf[nodes, start][:, None] == a, -one, one) * grows
        back = np.where(buf[nodes, start + size - 1][:, None] == -a, -one, one) * grows
        child_size = size[:, None] + front + back
        levels.append(child_size)
        if level == radius:
            break
        start = (start[:, None] - front).ravel()
        size = child_size.ravel()
        prepend = front.ravel() > 0
        append = back.ravel() > 0
        buf = np.repeat(buf, a.shape[1], axis=0)
        a = a.ravel()
        nodes = np.arange(len(size))
        buf[nodes[prepend], start[prepend]] = -a[prepend]
        buf[nodes[append], (start + size - 1)[append]] = a[append]
        a = follow[a]
    return np.concatenate([lengths.reshape(len(words), -1) for lengths in levels], axis=1)


def _suite_translation_length(rc: ResolvedConfig) -> List[CheckRow]:
    radius = rc.params["radius"]
    word_length = rc.params["word_length"]
    words = []
    for k in range(rc.trials):
        rng = _rng(rc, 0, k)
        words.append(random_word(rng, 2, int(rng.integers(1, word_length + 1))))
    # the window holds every reduced word of rank 2 with at most ``radius`` letters
    per_walk = max(1, WINDOW_BATCH // (1 + 2 * (3**radius - 1)))
    window_min = []
    for i in range(0, len(words), per_walk):
        window_min.extend(_conjugate_lengths(words[i : i + per_walk], radius).min(axis=1).tolist())

    def trial(k: int, g: FreeWord, brute: int) -> CheckRow:
        ell = translation_length(g)
        power_defect = max(abs(translation_length(g**j) - j * ell) for j in range(1, 6))
        residual = Fraction(abs(brute - ell) + power_defect)
        inputs = {"seed": rc.seed, "trial": k, "g": list(g.letters), "radius": radius}
        return check_row(f"word-{k:03d}", inputs, ell, residual, ZERO)

    return [trial(k, g, brute) for k, (g, brute) in enumerate(zip(words, window_min))]


# ---------------------------------------------------------------------------
# length-recovery: power norms minus n * l(g) stay at twice the axis distance
# ---------------------------------------------------------------------------


def _suite_length_recovery(rc: ResolvedConfig) -> List[CheckRow]:
    n_max = rc.params["n_max"]
    word_length = rc.params["word_length"]

    def trial(k: int) -> CheckRow:
        rng = _rng(rc, 0, k)
        g = random_word(rng, 2, int(rng.integers(1, word_length + 1)))
        scale = Fraction(1 + int(rng.integers(0, 4)), 1 + int(rng.integers(0, 3)))
        _, conj = g.cyclic_reduce()
        expected = 2 * scale * scale * len(conj)
        worst = max(
            abs(power_norm_deviation(g, n, scale) - expected) for n in range(2, n_max + 1)
        )
        inputs = {"seed": rc.seed, "trial": k, "g": list(g.letters), "scale": str(scale)}
        return check_row(f"power-{k:02d}", inputs, expected, worst, ZERO)

    return [trial(k) for k in range(rc.trials)]


# ---------------------------------------------------------------------------
# sp-tau: scalar 2-cocycle identity for the metaplectic phase
# ---------------------------------------------------------------------------


SP_TAU_STACK = 100


def _suite_sp_tau(rc: ResolvedConfig) -> List[CheckRow]:
    scale = rc.params["scale"]
    attempts = 5
    bits = np.random.PCG64()
    normal = np.random.Generator(bits).normal
    rows: List[CheckRow] = []
    for stream, half_dim in ((0, 1), (1, 2)):
        label = f"sp{2 * half_dim}"
        size = 2 * half_dim
        # Up to SP_TAU_STACK trials are exponentiated and checked as one
        # stack, which bounds the memory at any trial count; the trials whose
        # guards fail draw again in the next round, up to ``attempts`` rounds.
        # One generator serves every trial.  In round r it is set to the
        # trial's seeded state, the one ``_rng(rc, stream, k)`` starts from,
        # and draws r + 1 triples in one call; the last is the triple that
        # the trial's own generator draws in its round r.
        for start in range(0, rc.trials, SP_TAU_STACK):
            trials = range(start, min(start + SP_TAU_STACK, rc.trials))
            states = dict(zip(trials, _pcg64_states(rc.seed, stream, trials)))
            residual_of: Dict[int, float] = {}
            pending = list(trials)
            for attempt in range(attempts):
                raw = np.empty((len(pending), 3, size, size))
                for i, k in enumerate(pending):
                    bits.state = states[k]
                    raw[i] = normal(0.0, scale, size=(attempt + 1, 3, size, size))[-1]
                stack = sp_exp(raw, half_dim)
                residuals, ok = co.tau_cocycle_residuals(stack[:, 0], stack[:, 1], stack[:, 2])
                residual_of.update((k, float(r)) for k, r, good in zip(pending, residuals, ok) if good)
                pending = [k for k, good in zip(pending, ok) if not good]
                if not pending:
                    break
            for k in trials:
                row_id = f"{label}-{k:04d}"
                inputs = {"seed": rc.seed, "trial": k, "dim": size}
                if k in residual_of:
                    rows.append(check_row(row_id, inputs, residual_of[k], residual_of[k], rc.tolerance))
                else:
                    rows.append(unresolved_row(row_id, inputs, "branch guards exhausted"))
        # tau(e, g), tau(g, e) and tau(e, e) through the kernel of the
        # cocycle rows, so that a fault in it reaches both kinds of row
        g = sp_exp(_rng(rc, stream + 10, 0).normal(0.0, scale, size=(size, size)), half_dim)
        pairs = np.stack([np.eye(size), g])[:, None]
        values, _ = co.tau_terms(pairs, ((0, 1, 1), (1, 0, 1), (0, 0, 0)))
        defect = float(np.abs(values).sum())
        rows.append(
            check_row(f"{label}-identity", {"dim": 2 * half_dim}, defect, defect, 0.0)
        )
    return rows


# ---------------------------------------------------------------------------
# measure-cocycle: convolution identity for averaged actions
# ---------------------------------------------------------------------------


def _random_weights(rng: np.random.Generator, count: int) -> List[Fraction]:
    nums = [1 + int(rng.integers(0, 5)) for _ in range(count)]
    total = sum(nums)
    return [Fraction(v, total) for v in nums]


def _random_su_measure(rng: np.random.Generator, max_ratio: float) -> FiniteMeasure:
    count = 1 + int(rng.integers(0, 3))
    weights = _random_weights(rng, count)
    return FiniteMeasure.from_atoms(
        [(su_random(rng, max_ratio), w) for w in weights]
    )


def _random_word_measure(rng: np.random.Generator) -> FiniteMeasure:
    count = 1 + int(rng.integers(0, 3))
    weights = _random_weights(rng, count)
    return FiniteMeasure.from_atoms(
        [(random_word(rng, 2, int(rng.integers(0, 5))), w) for w in weights]
    )


def _suite_measure_cocycle(rc: ResolvedConfig) -> List[CheckRow]:
    max_ratio = rc.params["max_ratio"]

    def su_trial(k: int) -> CheckRow:
        rng = _rng(rc, 0, k)
        mu, nu, rho = (_random_su_measure(rng, max_ratio) for _ in range(3))
        residual = co.sigma_convolution_residual(mu, nu, rho)
        inputs = {"seed": rc.seed, "trial": k, "atoms": [len(m.atoms) for m in (mu, nu, rho)]}
        return check_row(f"su-{k:03d}", inputs, residual, residual, rc.tolerance)

    def tree_trial(k: int) -> CheckRow:
        rng = _rng(rc, 1, k)
        mu, nu, rho = (_random_word_measure(rng) for _ in range(3))
        residual = co.sigma_convolution_residual(mu, nu, rho, pair=co.sigma_pair_orthogonal)
        inputs = {"seed": rc.seed, "trial": k, "atoms": [len(m.atoms) for m in (mu, nu, rho)]}
        return check_row(f"tree-{k:03d}", inputs, residual, residual, ZERO)

    rows = [su_trial(k) for k in range(rc.trials)]
    rows.extend(tree_trial(k) for k in range(rc.trials))
    return rows


# ---------------------------------------------------------------------------
# cpd-gns: conditional negativity of the squared norm, gram reconstruction
# ---------------------------------------------------------------------------


def _suite_cpd_gns(rc: ResolvedConfig) -> List[CheckRow]:
    sample_size = rc.params["sample_size"]
    max_ratio = rc.params["max_ratio"]

    def trial(k: int) -> List[CheckRow]:
        rng = _rng(rc, 0, k)
        els = [su_random(rng, max_ratio) for _ in range(sample_size)]
        inputs = {"seed": rc.seed, "trial": k, "size": sample_size}
        eig = mo.centered_max_eigenvalue(mo.kernel_matrix(els, mo.phi))
        gram = mo.gns_gram(els)
        closed = np.array([[mo.gamma_gram(a, b).real for b in els] for a in els])
        gram_dev = float(np.abs(gram - closed).max())
        return [
            check_row(f"cpd-{k:02d}", inputs, eig, max(eig, 0.0), rc.tolerance),
            check_row(f"gns-{k:02d}", inputs, gram_dev, gram_dev, rc.tolerance),
        ]

    return [row for k in range(rc.trials) for row in trial(k)]


# ---------------------------------------------------------------------------
# h1: coboundaries wash out, the half-tree flow survives every radius
# ---------------------------------------------------------------------------


def _suite_h1(rc: ResolvedConfig) -> List[CheckRow]:
    radii = rc.params["radii"]
    floor = rc.params["floor"]
    drift = rc.params["drift"]
    ball = TreeBall(2, 5)
    graph = tree_ball_graph(ball)
    interior = [i for i, v in enumerate(graph.vertices) if len(v) < ball.radius]

    def coboundary_trial(k: int) -> CheckRow:
        # the potential is RATIONAL_SCALE times a rational one, zero on the boundary
        r = [0] * len(graph.vertices)
        for i, x in zip(interior, _scaled_rationals(_rng(rc, 0, k), len(interior))):
            r[i] = x
        _, remainder = harmonic_decompose(graph, gradient(graph, r))
        norm2 = Fraction(edge_inner(remainder, remainder), RATIONAL_SCALE**2)
        inputs = {"seed": rc.seed, "trial": k}
        return check_row(f"coboundary-{k:02d}", inputs, norm2, norm2, rc.tolerance)

    rows = [coboundary_trial(k) for k in range(rc.trials)]
    norms = subtree_flow_norms(3, radii)
    for radius, norm2 in zip(radii, norms):
        rows.append(
            check_row(
                f"halftree-r{radius:02d}",
                {"radius": radius},
                norm2,
                max(0.0, floor - norm2),
                0.0,
            )
        )
    spread = max(abs(a - b) for a, b in zip(norms, norms[1:]))
    rows.append(check_row("halftree-stability", {"radii": list(radii)}, norms, spread, drift))
    return rows


# ---------------------------------------------------------------------------
# traintrack: exact strip metric vs grid metric, validator sensitivity
# ---------------------------------------------------------------------------


_CORPUS_CORNERS = frozenset(val for build in CORPUS.values() for _, val in build().a_plus)


def _divides_corpus_corners(step: Fraction) -> bool:
    """Whether ``step`` divides every corner width, hence every edge width, of the corpus."""
    return all((width / step).denominator == 1 for width in _CORPUS_CORNERS)


def _grid_point(track, rng: np.random.Generator, step: Fraction):
    edge = int(rng.integers(0, len(track.edge_ends)))
    units = int(track.width(edge) / step)
    return (edge, Fraction(int(rng.integers(0, units + 1))) * step)


def _suite_traintrack(rc: ResolvedConfig) -> List[CheckRow]:
    step = rc.params["step"]
    rows: List[CheckRow] = []
    for stream, name in enumerate(sorted(CORPUS)):
        track = CORPUS[name]()
        rng = _rng(rc, stream, 0)
        points = [_grid_point(track, rng, step) for _ in range(2 * rc.trials)]
        pairs = list(zip(points[::2], points[1::2]))
        metric = TrackMetric(track, points)
        grid = grid_metric(track, pairs, step=step)
        for k, (p, q) in enumerate(pairs):
            exact = metric.distance(p, q)
            residual = abs(float(exact - grid[k]))
            inputs = {"seed": rc.seed, "track": name, "trial": k}
            rows.append(
                check_row(f"dist-{name}-{k:02d}", inputs, float(exact), residual, 5 * float(step))
            )
        data = track_to_json(track)
        slot = sorted(data["widths"])[0]
        data["widths"][slot] = str(Fraction(data["widths"][slot]) + Fraction(1, 7))
        try:
            track_from_json(data)
            caught = 0
        except ConstraintViolation:
            caught = 1
        rows.append(
            check_row(f"validator-{name}", {"track": name, "slot": slot}, caught, 1 - caught, ZERO)
        )
    return rows


# ---------------------------------------------------------------------------
# fock-mult: truncated product law for the exponential-type operators
# ---------------------------------------------------------------------------


def _suite_fock_mult(rc: ResolvedConfig) -> List[CheckRow]:
    scale = rc.params["scale"]
    rows: List[CheckRow] = []
    for stream, (dimension, degree) in enumerate(rc.params["cases"]):
        def trial(k: int, stream=stream, dimension=dimension, degree=degree) -> CheckRow:
            rng = _rng(rc, stream, k)
            t1 = haar_unitary(rng, dimension)
            t2 = haar_unitary(rng, dimension)
            g1 = random_translation(rng, dimension, scale)
            g2 = random_translation(rng, dimension, scale)
            residual = exp_compose_residual(t1, g1, t2, g2, degree)
            inputs = {"seed": rc.seed, "trial": k, "dimension": dimension, "degree": degree}
            return check_row(
                f"d{dimension}n{degree:02d}-{k:02d}", inputs, residual, residual, rc.tolerance
            )

        rows.extend(trial(k) for k in range(rc.trials))
    return rows


# ---------------------------------------------------------------------------
# triangle: cyclic geodesic flows cancel in random metric trees
# ---------------------------------------------------------------------------


def _suite_triangle(rc: ResolvedConfig) -> List[CheckRow]:
    size = rc.params["size"]

    def trial(k: int) -> CheckRow:
        rng = _rng(rc, 0, k)
        tree = random_metric_tree(rng, size)
        x, y, z = (int(v) for v in rng.integers(0, size, size=3))
        flow = tree.triangle_flow(x, y, z)
        norm2 = tree.pairing(flow, flow)
        inputs = {"seed": rc.seed, "trial": k, "size": size, "triple": [x, y, z]}
        return check_row(f"triple-{k:03d}", inputs, norm2, norm2, ZERO)

    return [trial(k) for k in range(rc.trials)]


# ---------------------------------------------------------------------------
# registry and runner
# ---------------------------------------------------------------------------

REGISTRY: Dict[str, SuiteEntry] = {}


def _register(
    name: str,
    run: Callable[[ResolvedConfig], List[CheckRow]],
    description: str,
    default_trials: int,
    default_tolerance: float,
    *params: Param,
    fixed_tolerance: str = "",
) -> None:
    REGISTRY[name] = SuiteEntry(
        run, description, default_trials, default_tolerance, params, fixed_tolerance
    )


EXACT_ROWS = "every row is exact, with tolerance 0"

# Ranges cap every parameter that sets how much work a suite does, so no
# run is unbounded; the others keep samplers inside their domains.
_register(
    "tree-identities",
    _suite_tree_identities,
    "divergence-of-gradient equals the mean-value laplacian; gradient and divergence are adjoint",
    100,
    1e-9,
    Param("n_values", int, (2, 3, 5), 2, 5, at_least=1),
    # None: radius 5, 4, 3 for n = 2, 3, 5 and 3 otherwise
    Param("radius", int, None, 1, 5),
    fixed_tolerance=EXACT_ROWS,
)
_register(
    "bergman",
    _suite_bergman,
    "truncated disc pairing series matches the closed-form gram and norm",
    50,
    1e-6,
    Param("degree", int, 100, 1, 200),
    Param("max_ratio", float, 0.8, 0.0, 0.95),
)
_register(
    "asymptotic",
    _suite_asymptotic,
    "norm-versus-displacement error of boosts is small at t=5 and decreasing",
    1,
    1e-3,
    Param("t_min", int, 5, 1, 50),
    Param("t_max", int, 15, 1, 50),
)
_register(
    "cocycle-law",
    _suite_cocycle_law,
    "affine cocycle identity: exact on tree flows, truncated on the disc",
    100,
    1e-6,
    Param("word_length", int, 6, 1, 20),
    Param("su_trials", int, 50, 0, MAX_TRIALS),
    Param("degree", int, 80, 1, 200),
    Param("max_ratio", float, 0.8, 0.0, 0.95),
)
_register(
    "translation-length",
    _suite_translation_length,
    "two-step length formula equals the brute-force window minimum; lengths are homogeneous",
    100,
    1e-9,
    Param("radius", int, 8, 1, 10),
    Param("word_length", int, 6, 1, 20),
    fixed_tolerance=EXACT_ROWS,
)
_register(
    "length-recovery",
    _suite_length_recovery,
    "power cocycle norms recover n times the length plus twice the axis distance",
    20,
    1e-9,
    Param("n_max", int, 50, 2, 100),
    Param("word_length", int, 6, 1, 20),
    fixed_tolerance=EXACT_ROWS,
)
_register(
    "sp-tau",
    _suite_sp_tau,
    "metaplectic phase satisfies the scalar 2-cocycle identity with guards",
    1000,
    1e-9,
    Param("scale", float, 0.4, 0.0, 2.0),
)
_register(
    "measure-cocycle",
    _suite_measure_cocycle,
    "averaged-action scalar satisfies the convolution identity; vanishes for tree actions",
    100,
    1e-8,
    Param("max_ratio", float, 0.6, 0.0, 0.95),
)
_register(
    "cpd-gns",
    _suite_cpd_gns,
    "squared displacement is conditionally negative; its GNS gram matches closed form",
    20,
    1e-9,
    Param("sample_size", int, 6, 1, 50),
    Param("max_ratio", float, 0.8, 0.0, 0.95),
)
_register(
    "h1",
    _suite_h1,
    "coboundary flows have zero harmonic part; the half-tree flow keeps norm across radii",
    10,
    1e-9,
    Param("radii", int, (6, 8, 10), 1, 50, at_least=2),
    Param("floor", float, 0.1, 0.0, 1.0),
    Param("drift", float, 0.05, 0.0, 1.0),
)
_register(
    "traintrack",
    _suite_traintrack,
    "strip-space metric agrees with the grid metric; validator rejects width perturbations",
    20,
    5e-3,
    Param(
        "step",
        Fraction,
        Fraction(1, 1000),
        Fraction(1, 10000),
        Fraction(1),
        holds=_divides_corpus_corners,
        condition="that divides every corpus corner width",
    ),
    fixed_tolerance="each row's tolerance is 5 * step",
)
_register(
    "fock-mult",
    _suite_fock_mult,
    "truncated multiplication law for exponential operators on the half-degree block",
    20,
    1e-6,
    Param("cases", int, ((1, 12), (2, 10)), (1, 1), (MAX_DIMENSION, MAX_DEGREE), at_least=1),
    Param("scale", float, 0.3, 0.0, 2.0),
)
_register(
    "triangle",
    _suite_triangle,
    "cyclic sums of geodesic flows cancel exactly in random metric trees",
    100,
    1e-9,
    Param("size", int, 40, 2, 1000),
    fixed_tolerance=EXACT_ROWS,
)


def suite_names() -> List[str]:
    return sorted(REGISTRY)


def resolve_config(cfg: SuiteConfig) -> ResolvedConfig:
    """Check ``cfg`` against its suite's declared parameters and fill in defaults."""
    entry = REGISTRY.get(cfg.suite)
    if entry is None:
        known = ", ".join(suite_names())
        raise ConfigError(f"unknown suite {cfg.suite!r}; known suites: {known}")
    given = dict(cfg.params)
    declared = {param.name: param for param in entry.params}
    for key in given:
        if key not in declared:
            raise ConfigError(f"unknown parameter {key!r} for suite {cfg.suite}")
    if cfg.tolerance is not None and entry.fixed_tolerance:
        raise ConfigError(f"{cfg.suite}: a tolerance cannot be set; {entry.fixed_tolerance}")
    return ResolvedConfig(
        suite=cfg.suite,
        seed=cfg.seed,
        trials=cfg.trials if cfg.trials is not None else entry.default_trials,
        tolerance=float(cfg.tolerance) if cfg.tolerance is not None else entry.default_tolerance,
        params={
            name: param.resolve(cfg.suite, given[name]) if name in given else param.default
            for name, param in declared.items()
        },
    )


def run_suite(cfg: SuiteConfig) -> Report:
    """Resolve the config, run the suite, and assemble the sorted report."""
    rc = resolve_config(cfg)
    rows = REGISTRY[rc.suite].run(rc)
    return make_report(rc.suite, digest_of(rc.as_dict()), rows)
