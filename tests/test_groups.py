"""Group element types: SU(1,1), Sp(2n), free words, p-adics, measures."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isoact.errors import ConstraintViolation
from isoact.groups import (
    FiniteMeasure,
    FreeWord,
    free_reduce,
    measure_convolve,
    random_word,
    sp_exp,
    sp_form,
    su_boost,
    su_from_json,
    su_from_params,
    su_random,
    word_from_json,
)
from isoact.treeball import padic_valuation, require_prime

from builders import (
    delta_measure,
    disc_map,
    gauss_complex,
    gauss_conj,
    gauss_mul,
    random_rational_weights,
    rational_boost,
    rational_json,
    rational_product,
    rational_rotation,
    sp_boost,
    sp_rotation,
    su_identity,
    su_rational,
    su_rotation,
    su_to_json,
)


class TestSuMatrix:
    def test_constraint_enforced(self):
        with pytest.raises(ConstraintViolation):
            su_from_params(complex(1.0), complex(0.5))
        with pytest.raises(ConstraintViolation, match="exact entries"):
            su_from_json({"a": ["2", "0"], "b": ["1", "0"]})

    def test_rational_constraint_is_exact(self):
        # |a|^2 - |b|^2 = 1 + 2e-30 + 1e-60: refused, though a rounds to 1.0
        a = "1000000000000000000000000000001/1000000000000000000000000000000"
        message = f"|a|^2 - |b|^2 = {Fraction(a) ** 2} != 1 (exact entries)"
        with pytest.raises(ConstraintViolation, match=f"^{re.escape(message)}$"):
            su_from_json({"a": [a, "0"], "b": ["0", "0"]})
        assert su_from_params(complex(float(Fraction(a))), 0j).defect() == 0.0

    def test_boost_moves_origin(self):
        g = su_boost(0.7)
        assert disc_map(g, 0.0) == pytest.approx(math.tanh(0.7))

    def test_rotation_fixes_origin(self):
        g = su_rotation(1.1)
        assert disc_map(g, 0.0) == 0.0
        assert disc_map(g, 0.3) == pytest.approx(0.3 * np.exp(2.2j))

    def test_inverse_exact(self):
        g = su_rational(rational_boost(Fraction(1, 3))) * su_rational(rational_rotation(Fraction(1, 2)))
        gi = g.inverse()
        assert g * gi == su_identity()
        assert gi * g == su_identity()

    def test_inverse_float(self):
        rng = np.random.default_rng(5)
        g = su_random(rng)
        unit = g * g.inverse()
        a, b = unit.a, unit.b
        prod = np.array([[a, b], [b.conjugate(), a.conjugate()]])
        assert np.allclose(prod, np.eye(2), atol=1e-12)

    def test_product_stays_in_group(self):
        rng = np.random.default_rng(6)
        g, h = su_random(rng), su_random(rng)
        assert abs((g * h).defect()) < 1e-10

    def test_exact_product_constraint(self):
        exact = rational_product(rational_boost(Fraction(2, 5)), rational_boost(Fraction(-1, 7)))
        a, b = exact
        assert gauss_mul(a, gauss_conj(a))[0] - gauss_mul(b, gauss_conj(b))[0] == 1
        g = su_rational(rational_boost(Fraction(2, 5))) * su_rational(rational_boost(Fraction(-1, 7)))
        assert abs(g.a - gauss_complex(a)) < 1e-15 and abs(g.b - gauss_complex(b)) < 1e-15

    def test_mobius_composition_is_left_action(self):
        # Fractional linear maps compose covariantly with the matrix
        # product: z^[g1 g2] = (z^[g2])^[g1].
        rng = np.random.default_rng(7)
        g1, g2 = su_random(rng), su_random(rng)
        z = 0.2 + 0.1j
        assert disc_map(g1 * g2, z) == pytest.approx(disc_map(g1, disc_map(g2, z)))

    def test_mobius_preserves_disc(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            g = su_random(rng)
            z = 0.95 * np.exp(1j * rng.uniform(0, 2 * np.pi))
            assert abs(disc_map(g, z)) < 1.0

    def test_json_round_trip_float(self):
        g = su_boost(0.4) * su_rotation(0.9)
        h = su_from_json(su_to_json(g))
        assert h.a == g.a and h.b == g.b

    def test_json_round_trip_exact(self):
        # the rational and the float spelling of one element read the same
        exact = rational_product(rational_rotation(Fraction(1, 2)), rational_boost(Fraction(3, 8)))
        for entries in (rational_boost(Fraction(3, 8)), rational_rotation(Fraction(-2, 7)), exact):
            g = su_from_json(rational_json(entries))
            (a_re, a_im), (b_re, b_im) = entries
            floats = {"a": [float(a_re), float(a_im)], "b": [float(b_re), float(b_im)]}
            assert su_from_json(floats) == g
            assert su_from_json(su_to_json(g)) == g

    def test_json_malformed(self):
        with pytest.raises(ConstraintViolation):
            su_from_json({"a": [1, 0]})

    def test_identity(self):
        one = su_rational(rational_rotation(Fraction(0)))
        assert one == su_identity() and (one.a, one.b) == (1, 0)
        assert su_boost(0.1) != su_identity()


def symplectic_defect(g: np.ndarray) -> float:
    """Largest entry of ``g J g^T - J``."""
    J = sp_form(len(g) // 2)
    return float(np.max(np.abs(g @ J @ g.T - J)))


class TestSpMatrix:
    def test_rotation_boost_valid(self):
        assert symplectic_defect(sp_rotation(0.8)) < 1e-14
        assert symplectic_defect(sp_boost(1.2)) < 1e-14

    def test_random_is_symplectic(self):
        rng = np.random.default_rng(11)
        for n in (1, 2):
            g = sp_exp(rng.normal(0.0, 0.4, size=(2 * n, 2 * n)), n)
            assert symplectic_defect(g) < 1e-10

    def test_form_matrix(self):
        J = sp_form(2)
        assert np.array_equal(J @ J, -np.eye(4))


words = st.lists(st.integers(min_value=-2, max_value=2).filter(lambda x: x != 0), max_size=12)


class TestFreeWord:
    def test_reduction(self):
        assert free_reduce([1, -1], 2).letters == ()
        assert free_reduce([1, 2, -2, -1, 1], 2).letters == (1,)

    def test_reduction_matches_single_step_fixpoint(self):
        # Oracle: repeatedly remove one adjacent cancelling pair until none
        # remain, which must agree with the stack scan.
        def slow(letters):
            letters = list(letters)
            changed = True
            while changed:
                changed = False
                for i in range(len(letters) - 1):
                    if letters[i] == -letters[i + 1]:
                        del letters[i : i + 2]
                        changed = True
                        break
            return tuple(letters)

        rng = np.random.default_rng(13)
        for _ in range(200):
            raw = [int(x) for x in rng.choice([-2, -1, 1, 2], size=rng.integers(0, 14))]
            assert free_reduce(raw, 2).letters == slow(raw)

    def test_bad_letter(self):
        with pytest.raises(ConstraintViolation, match="letter 3 outside generators 1..2"):
            free_reduce([1, 3], 2)
        with pytest.raises(ConstraintViolation, match="letter 0 outside generators 1..2"):
            free_reduce([0], 2)

    @given(words, words)
    def test_product_associative_with_inverse(self, u, v):
        a = free_reduce(u, 2)
        b = free_reduce(v, 2)
        assert (a * b).inverse() == b.inverse() * a.inverse()

    @given(words, words, st.integers(min_value=0, max_value=12))
    def test_product_matches_full_reduction(self, u, v, k):
        a = free_reduce(u, 2)
        # b opens by undoing up to k letters of a, so the junction cancels deeply
        undo = [-x for x in reversed(a.letters[max(0, len(a) - k) :])]
        b = free_reduce(undo + v, 2)
        assert a * b == free_reduce(a.letters + b.letters, 2)
        assert b * a == free_reduce(b.letters + a.letters, 2)
        assert a * a.inverse() == free_reduce(a.letters + a.inverse().letters, 2)
        assert (a * a.inverse()).letters == () and (a.inverse() * a).letters == ()

    def test_product_rank_mismatch(self):
        with pytest.raises(ConstraintViolation, match="free words over different ranks"):
            free_reduce([1], 2) * free_reduce([1], 3)

    def test_powers(self):
        w = free_reduce([1, 2], 2)
        assert (w**3).letters == (1, 2, 1, 2, 1, 2)
        assert (w**-2) == (w * w).inverse()
        assert (w**0).letters == ()

    def test_cyclic_reduce(self):
        w = free_reduce([1, 2, -1], 2)
        core, c = w.cyclic_reduce()
        assert core.letters == (2,)
        assert c.letters == (1,)
        assert c * core * c.inverse() == w

    def test_cyclic_reduce_already_reduced(self):
        w = free_reduce([1, 2], 2)
        core, c = w.cyclic_reduce()
        assert core == w and c.letters == ()

    @given(words)
    def test_cyclic_reduce_conjugation_identity(self, u):
        w = free_reduce(u, 2)
        core, c = w.cyclic_reduce()
        assert c * core * c.inverse() == w
        if len(core) >= 2:
            assert core.letters[0] != -core.letters[-1]

    def test_random_word_length_and_reduced(self):
        rng = np.random.default_rng(14)
        for L in (0, 1, 5, 9):
            w = random_word(rng, 2, L)
            assert len(w) == L
            assert free_reduce(w.letters, 2) == w

    def test_json(self):
        w = word_from_json([1, -2, 1], 2)
        assert list(w.letters) == [1, -2, 1]


class TestPAdic:
    def test_valuations(self):
        assert padic_valuation(Fraction(12), 2) == 2
        assert padic_valuation(Fraction(5, 27), 3) == -3
        assert padic_valuation(Fraction(0), 5) == math.inf

    def test_valuation_additive_under_product(self):
        x, y = Fraction(18, 5), Fraction(3, 7)
        assert padic_valuation(x * y, 3) == padic_valuation(x, 3) + padic_valuation(y, 3)

    def test_prime_required(self):
        for p in (2, 3, 97, 1_000_003):
            require_prime(p)
        for p in (-7, 0, 1, 6, 49, 1_000_001):
            with pytest.raises(ConstraintViolation, match="not prime"):
                require_prime(p)


# A JSON form of measures that no command reads or writes yet, kept with its tests.


def measure_to_json(mu: FiniteMeasure, elem_to_json) -> list:
    return [
        {"elem": elem_to_json(elem), "num": w.numerator, "den": w.denominator}
        for elem, w in mu.atoms
    ]


def measure_from_json(data, elem_from_json) -> FiniteMeasure:
    pairs = []
    for entry in data:
        if not isinstance(entry.get("num"), int) or not isinstance(entry.get("den"), int):
            raise ConstraintViolation(f"measure weights must be integer num/den pairs: {entry!r}")
        pairs.append((elem_from_json(entry["elem"]), Fraction(entry["num"], entry["den"])))
    return FiniteMeasure.from_atoms(pairs)


class TestFiniteMeasure:
    def test_weights_sum_enforced(self):
        with pytest.raises(ConstraintViolation):
            FiniteMeasure.from_atoms([(free_reduce([1], 2), Fraction(1, 2))])

    def test_float_weight_rejected(self):
        with pytest.raises(ConstraintViolation):
            FiniteMeasure.from_atoms([(free_reduce([1], 2), 0.5), (free_reduce([2], 2), 0.5)])

    def test_duplicates_merged(self):
        w = free_reduce([1], 2)
        mu = FiniteMeasure.from_atoms([(w, Fraction(1, 3)), (w, Fraction(2, 3))])
        assert len(mu.atoms) == 1
        assert mu.atoms[0][1] == 1

    def test_convolution_free_words(self):
        a = free_reduce([1], 2)
        mu = FiniteMeasure.from_atoms([(a, Fraction(1, 2)), (a.inverse(), Fraction(1, 2))])
        nu = measure_convolve(mu, mu)
        # a*a, a*a^-1 = e (twice), a^-1*a^-1
        weights = dict((e.letters, w) for e, w in nu.atoms)
        assert weights[()] == Fraction(1, 2)
        assert weights[(1, 1)] == Fraction(1, 4)
        assert weights[(-1, -1)] == Fraction(1, 4)

    def test_convolution_total_mass(self):
        rng = np.random.default_rng(15)
        ws = random_rational_weights(rng, 4)
        mu = FiniteMeasure.from_atoms(
            [(random_word(rng, 2, k + 1), w) for k, w in enumerate(ws)]
        )
        nu = measure_convolve(mu, mu)
        assert sum((w for _, w in nu.atoms), Fraction(0)) == 1

    def test_type_mismatch(self):
        mu = delta_measure(free_reduce([1], 2))
        nu = delta_measure(su_boost(0.1))
        with pytest.raises(ConstraintViolation, match="types FreeWord and SuMatrix"):
            measure_convolve(mu, nu)

    def test_json_round_trip(self):
        mu = FiniteMeasure.from_atoms(
            [(free_reduce([1], 2), Fraction(1, 3)), (free_reduce([-2], 2), Fraction(2, 3))]
        )
        data = measure_to_json(mu, lambda w: list(w.letters))
        back = measure_from_json(data, lambda d: word_from_json(d, 2))
        assert back == mu

    def test_json_float_weights_rejected(self):
        with pytest.raises(ConstraintViolation):
            measure_from_json(
                [{"elem": [1], "num": 0.5, "den": 1}], lambda d: word_from_json(d, 2)
            )
