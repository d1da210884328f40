"""Scalar cocycle tests: branch-guarded phase defects against a scalar
oracle, the multiplier ratio against its exact telescoping form, and the
step-function group."""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from isoact import cocycles as co
from isoact.errors import ConstraintViolation
from isoact.groups import (
    FiniteMeasure,
    FreeWord,
    free_reduce,
    sp_exp,
    sp_form,
    su_boost,
    su_random,
)
from isoact.mobius import gamma_gram, gamma_vector, pi_matrix
from isoact.report import SuiteConfig, check_row, unresolved_row
from isoact.suites import REGISTRY, SP_TAU_STACK, resolve_config

from builders import (
    delta_measure,
    gauss_complex,
    gauss_div,
    gauss_mul,
    orthonormal_frame,
    random_rational_weights,
    rational_boost,
    rational_product,
    rational_rotation,
    sp_boost,
    sp_rotation,
    su_rational,
    su_rotation,
)


def random_measure(rng, elements):
    weights = random_rational_weights(rng, len(elements))
    return FiniteMeasure.from_atoms(list(zip(elements, weights)))


def random_su_measure(seed, count, max_ratio=0.7):
    rng = np.random.default_rng(seed)
    return random_measure(rng, [su_random(rng, max_ratio=max_ratio) for _ in range(count)])


# ---------------------------------------------------------------------------
# symplectic phase
# ---------------------------------------------------------------------------


def sp_sample(rng, n, scale=0.4):
    """The sp-tau suite's draw: ``expm(J S)`` for a normal ``2n x 2n`` raw matrix."""
    return sp_exp(rng.normal(0.0, scale, size=(2 * n, 2 * n)), n)


class BranchGuard(Exception):
    """The scalar oracle's refusal where an eigenvalue could reach the branch cut."""


def phase_factor(g):
    """``Phi(g) = ((A + D) + i (C - B)) / 2`` in n x n blocks."""
    n = len(g) // 2
    a, b, c, d = g[:n, :n], g[:n, n:], g[n:, :n], g[n:, n:]
    return 0.5 * ((a + d) + 1j * (c - b))


def checked_phase(g):
    p = phase_factor(g)
    smallest = float(np.linalg.svd(p, compute_uv=False)[-1])
    if smallest < co.PHI_SINGULAR_TOL:
        raise ConstraintViolation(f"phase factor has singular value {smallest:.3e}")
    return p


def tau(g1, g2):
    """Phase defect ``Im tr Log(Phi(g1)^-1 Phi(g1 g2) Phi(g2)^-1)``, one pair at a time.

    The scalar oracle of ``tau_terms``: an identity argument gives exactly
    ``0.0``, and a failed guard raises where the kernel clears its mask.
    """
    if np.array_equal(g1, np.eye(len(g1))) or np.array_equal(g2, np.eye(len(g2))):
        return 0.0
    p1, p2, p12 = checked_phase(g1), checked_phase(g2), checked_phase(g1 @ g2)
    defect = np.linalg.solve(p1, p12) @ np.linalg.inv(p2)
    distance = float(np.linalg.norm(defect - np.eye(len(g1) // 2), 2))
    if distance >= 1.0 - co.TAU_BRANCH_MARGIN:
        raise BranchGuard(f"defect matrix sits {distance:.6f} from the identity")
    return float(np.sum(np.angle(np.linalg.eigvals(defect))))


def tau_of(g1, g2):
    """``tau(g1, g2)`` through the package kernel, for a pair that passes its guards."""
    values, ok = co.tau_terms(np.stack([g1, g2, g1 @ g2])[:, None], [(0, 1, 2)])
    assert ok[0]
    return float(values[0, 0])


def test_phase_factor_frozen_values():
    theta, t = 0.7, 1.1
    rot = co._phase(sp_rotation(theta), 1)
    assert abs(complex(rot[0, 0]) - cmath.exp(-1j * theta)) < 1e-14
    boost = co._phase(sp_boost(t), 1)
    assert abs(complex(boost[0, 0]) - math.cosh(t)) < 1e-14
    g = sp_sample(np.random.default_rng(1), 2)
    assert np.array_equal(co._phase(g, 2), phase_factor(g))


def test_tau_identity_fast_path():
    rng = np.random.default_rng(2)
    g = sp_sample(rng, 2)
    values, ok = co.tau_terms(np.stack([np.eye(4), g])[:, None], [(0, 1, 1), (1, 0, 1), (0, 0, 0)])
    assert ok[0]
    assert [float(v).hex() for v in values[:, 0]] == [(0.0).hex()] * 3
    assert tau(np.eye(4), g) == tau(g, np.eye(4)) == 0.0


def test_tau_near_identity_honest_path():
    # an element a hair away from the identity misses the fast path and
    # must still come out at rounding scale
    g1 = sp_rotation(1e-13)
    g2 = sp_sample(np.random.default_rng(3), 1)
    assert not np.array_equal(g1, np.eye(2))
    assert abs(tau_of(g1, g2)) < 1e-12


def tau_det_arg(g1, g2):
    """Independent route to ``tau`` through determinants.

    ``arg det`` of the defect matrix agrees with the eigenvalue sum
    modulo ``2 pi``; under the branch guard they agree on the nose.
    """
    p1, p2, p12 = (phase_factor(g) for g in (g1, g2, g1 @ g2))
    return cmath.phase(np.linalg.det(p12) / (np.linalg.det(p1) * np.linalg.det(p2)))


def tau_cocycle_residual(g1, g2, g3):
    """Two-cocycle defect of ``tau`` one triple at a time, reduced modulo ``2 pi``.

    The scalar oracle of ``tau_cocycle_residuals``: it raises where a guard
    of ``tau`` fails, and the batch must match it bit for bit elsewhere.
    """
    lhs = tau(g1, g2) + tau(g1 @ g2, g3)
    rhs = tau(g2, g3) + tau(g1, g2 @ g3)
    wrapped = abs(lhs - rhs) % (2.0 * math.pi)
    return min(wrapped, 2.0 * math.pi - wrapped)


def test_tau_matches_determinant_route():
    for i in range(50):
        rng = np.random.default_rng([41, i])
        for n in (1, 2):
            g1, g2 = sp_sample(rng, n), sp_sample(rng, n)
            assert abs(tau_of(g1, g2) - tau_det_arg(g1, g2)) < 1e-10


def test_tau_frozen_value():
    rng = np.random.default_rng([31, 7])
    g1, g2 = sp_sample(rng, 1), sp_sample(rng, 1)
    assert abs(tau_of(g1, g2) - (-0.009263866437152865)) < 1e-12


def test_tau_cocycle_identity():
    triples = {1: [], 2: []}
    for i in range(300):
        rng = np.random.default_rng([43, i])
        for n in (1, 2):
            triples[n].append([sp_sample(rng, n) for _ in range(3)])
    for stack in triples.values():
        g1, g2, g3 = np.array(stack).transpose(1, 0, 2, 3)
        residuals, ok = co.tau_cocycle_residuals(g1, g2, g3)
        assert ok.all() and residuals.max() <= 1e-9
        # the identity is only evidence if the scalar itself is visible
        values, ok = co.tau_terms(np.stack([g1, g2, g1 @ g2]), [(0, 1, 2)])
        assert ok.all() and np.abs(values).max() > 0.01


def test_tau_block_diagonal_additivity():
    rng = np.random.default_rng(47)
    for _ in range(10):
        a1, a2 = sp_sample(rng, 1), sp_sample(rng, 1)
        b1, b2 = sp_sample(rng, 1), sp_sample(rng, 1)

        def embed(x, y):
            out = np.zeros((4, 4))
            out[0, 0], out[0, 2] = x[0, 0], x[0, 1]
            out[2, 0], out[2, 2] = x[1, 0], x[1, 1]
            out[1, 1], out[1, 3] = y[0, 0], y[0, 1]
            out[3, 1], out[3, 3] = y[1, 0], y[1, 1]
            return out

        big1, big2 = embed(a1, b1), embed(a2, b2)
        J = sp_form(2)
        assert np.max(np.abs(big1 @ J @ big1.T - J)) < 1e-12
        total = tau_of(big1, big2)
        parts = tau_of(a1, a2) + tau_of(b1, b2)
        assert abs(total - parts) < 1e-12


def test_tau_branch_guard():
    g1, g2 = sp_boost(12.0), sp_boost(-12.0)
    values, ok = co.tau_terms(np.stack([g1, g2, g1 @ g2])[:, None], [(0, 1, 2)])
    assert not ok[0] and np.isnan(values[0, 0])
    with pytest.raises(BranchGuard):
        tau(g1, g2)


def test_tau_rejects_non_symplectic():
    zero, g = np.zeros((2, 2)), sp_rotation(0.3)
    values, ok = co.tau_terms(np.stack([zero, g, zero @ g])[:, None], [(0, 1, 2)])
    assert not ok[0] and np.isnan(values[0, 0])
    with pytest.raises(ConstraintViolation, match="phase factor has singular value"):
        tau(zero, g)


def guarded_triples():
    """Forty Sp(2) triples at scale 1.2, where two hit a guard and one starts at the identity."""
    rng = np.random.default_rng(59)
    triples = [tuple(sp_sample(rng, 1, scale=1.2) for _ in range(3)) for _ in range(40)]
    g, h = sp_sample(rng, 1), sp_sample(rng, 1)
    triples[5] = (sp_boost(12.0), sp_boost(-12.0), g)
    triples[17] = (np.zeros((2, 2)), sp_rotation(0.3), h)
    triples[30] = (np.eye(2), g, h)
    return triples


def sp4_triples():
    rng = np.random.default_rng(61)
    return [tuple(sp_sample(rng, 2, scale=2.0) for _ in range(3)) for _ in range(100)]


def _stack(triples):
    return [np.array([t[i] for t in triples]) for i in range(3)]


@pytest.mark.parametrize("make", [guarded_triples, sp4_triples], ids=["sp2", "sp4"])
def test_tau_terms_match_scalar_oracle(make):
    triples = make()
    g1, g2, g3 = _stack(triples)
    terms = [(0, 1, 3), (1, 2, 4), (3, 2, 5)]
    values, ok = co.tau_terms(np.stack([g1, g2, g3, g1 @ g2, g2 @ g3, g1 @ g2 @ g3]), terms)
    for k, (x, y, z) in enumerate(triples):
        try:
            expected = [tau(x, y), tau(y, z), tau(x @ y, z)]
        except (BranchGuard, ConstraintViolation):
            assert not ok[k] and np.isnan(values[:, k]).all()
            continue
        assert ok[k]
        assert [float(v).hex() for v in values[:, k]] == [v.hex() for v in expected]


def test_tau_residuals_match_scalar_oracle_with_guards():
    triples = guarded_triples()
    guarded = {5: (BranchGuard, "from the identity"), 17: (ConstraintViolation, "singular value")}
    residuals, ok = co.tau_cocycle_residuals(*_stack(triples))
    assert [k for k in range(len(triples)) if not ok[k]] == sorted(guarded)
    for k, triple in enumerate(triples):
        if k in guarded:
            error, fragment = guarded[k]
            with pytest.raises(error, match=fragment):
                tau_cocycle_residual(*triple)
            assert np.isnan(residuals[k])
        else:
            assert float(residuals[k]).hex() == tau_cocycle_residual(*triple).hex()
    assert residuals[30] == 0.0


def test_tau_residuals_match_scalar_oracle_sp4():
    triples = sp4_triples()
    residuals, ok = co.tau_cocycle_residuals(*_stack(triples))
    assert ok.all()
    for k, triple in enumerate(triples):
        assert float(residuals[k]).hex() == tau_cocycle_residual(*triple).hex()


def svd_tau_terms(mats, terms):
    """``tau_terms`` with the spectral distance of every defect from an SVD:
    the oracle of the kernel's Frobenius screen."""
    n = mats.shape[-1] // 2
    phases = co._phase(mats, n)
    collapsed = np.linalg.svd(phases, compute_uv=False)[..., -1] < co.PHI_SINGULAR_TOL
    identity = np.all(mats == np.eye(2 * n), axis=(-2, -1))
    ok = np.ones(mats.shape[1], dtype=bool)
    values = np.zeros((len(terms), mats.shape[1]))
    for value, (left, right, prod) in zip(values, terms):
        live = ok & ~(identity[left] | identity[right])
        ok &= ~(live & (collapsed[left] | collapsed[right] | collapsed[prod]))
        live = np.flatnonzero(live & ok)
        p1, p2, p12 = phases[left, live], phases[right, live], phases[prod, live]
        defect = np.linalg.solve(p1, p12) @ np.linalg.inv(p2)
        distance = np.linalg.norm(defect - np.eye(n), 2, axis=(-2, -1))
        near_cut = distance >= 1.0 - co.TAU_BRANCH_MARGIN
        ok[live[near_cut]] = False
        eigenvalues = np.linalg.eigvals(defect[~near_cut])
        value[live[~near_cut]] = np.sum(np.angle(eigenvalues), axis=-1)
    values[:, ~ok] = np.nan
    return values, ok


def term_distances(mats, terms):
    """Frobenius and spectral distance from the identity of every term's defect."""
    n = mats.shape[-1] // 2
    phases = co._phase(mats, n)
    fro, spectral = [], []
    for left, right, prod in terms:
        defect = np.linalg.solve(phases[left], phases[prod]) @ np.linalg.inv(phases[right])
        fro.append(np.linalg.norm(defect - np.eye(n), "fro", axis=(-2, -1)))
        spectral.append(np.linalg.norm(defect - np.eye(n), 2, axis=(-2, -1)))
    return np.array(fro), np.array(spectral)


@pytest.mark.parametrize("scale", [0.4, 1.0, 2.0])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_tau_terms_screen_matches_svd_on_every_term(n, scale):
    rng = np.random.default_rng([67, n, int(10 * scale)])
    g1, g2, g3 = sp_exp(rng.normal(0.0, scale, size=(3, 200, 2 * n, 2 * n)), n)
    mats = np.stack([g1, g2, g3, g1 @ g2, g2 @ g3, g1 @ g2 @ g3, g1 @ (g2 @ g3)])
    terms = ((0, 1, 3), (3, 2, 5), (1, 2, 4), (0, 4, 6))
    values, ok = co.tau_terms(mats, terms)
    expected_values, expected_ok = svd_tau_terms(mats, terms)
    assert np.array_equal(ok, expected_ok)
    assert values.tobytes() == expected_values.tobytes()
    if n > 1 and scale >= 1.0:
        # some defects here are ones the Frobenius norm cannot clear and
        # the SVD does
        fro, spectral = term_distances(mats, terms)
        edge = 1.0 - co.TAU_BRANCH_MARGIN
        assert np.any((fro >= edge) & (spectral < edge))


def test_tau_terms_screen_on_planted_defects():
    # For block-diagonal boosts g = diag(e^s, e^-s) and h = diag(e^t, e^-t)
    # in each Sp(2) block, the defect is diagonal with entries
    # cosh(s + t) / (cosh s cosh t) = 1 + tanh s tanh t, so its distances
    # from the identity are known: the largest |tanh s tanh t| (spectral)
    # and their root sum of squares (Frobenius).
    def boost4(s1, s2):
        return np.diag([math.exp(s1), math.exp(s2), math.exp(-s1), math.exp(-s2)])

    cases = [
        ((1.5, 1.5), (1.5, -1.5)),  # Frobenius 1.16 cannot clear it, spectral 0.82 does
        ((0.5, 0.3), (0.5, -0.3)),  # Frobenius 0.23 clears it without an SVD
        ((12.0, 0.5), (-12.0, 0.5)),  # spectral 1 - 1.5e-10 trips the guard
    ]
    g = np.array([boost4(*s) for s, _ in cases])
    h = np.array([boost4(*t) for _, t in cases])
    mats = np.stack([g, h, g @ h])
    fro, spectral = term_distances(mats, [(0, 1, 2)])
    edge = 1.0 - co.TAU_BRANCH_MARGIN
    assert fro[0, 0] >= edge > spectral[0, 0]
    assert fro[0, 1] < edge
    assert spectral[0, 2] >= edge
    values, ok = co.tau_terms(mats, [(0, 1, 2)])
    expected_values, expected_ok = svd_tau_terms(mats, [(0, 1, 2)])
    assert list(ok) == list(expected_ok) == [True, True, False]
    assert values.tobytes() == expected_values.tobytes()


def test_tau_residuals_reject_mismatched_stacks():
    with pytest.raises(ConstraintViolation, match="three stacks of the same shape"):
        co.tau_cocycle_residuals(np.zeros((3, 2, 2)), np.zeros((3, 2, 2)), np.zeros((2, 2, 2)))


def _sp_tau_rows_by_loop(rc):
    """sp-tau one trial and one matrix at a time: the oracle of the batched suite."""
    rows = []
    for stream, half_dim in ((0, 1), (1, 2)):
        label = f"sp{2 * half_dim}"
        for k in range(rc.trials):
            rng = np.random.default_rng([rc.seed, stream, k])
            inputs = {"seed": rc.seed, "trial": k, "dim": 2 * half_dim}
            for _ in range(5):
                triple = [sp_sample(rng, half_dim, rc.params["scale"]) for _ in range(3)]
                try:
                    residual = tau_cocycle_residual(*triple)
                except (BranchGuard, ConstraintViolation):
                    continue
                rows.append(check_row(f"{label}-{k:04d}", inputs, residual, residual, rc.tolerance))
                break
            else:
                rows.append(unresolved_row(f"{label}-{k:04d}", inputs, "branch guards exhausted"))
        g = sp_sample(np.random.default_rng([rc.seed, stream + 10, 0]), half_dim, rc.params["scale"])
        e = np.eye(2 * half_dim)
        defect = abs(tau(e, g)) + abs(tau(g, e)) + abs(tau(e, e))
        rows.append(check_row(f"{label}-identity", {"dim": 2 * half_dim}, defect, defect, 0.0))
    return rows


@pytest.mark.parametrize("trials", [50, SP_TAU_STACK + 50])
def test_sp_tau_suite_matches_per_trial_loop(trials):
    rc = resolve_config(SuiteConfig.make("sp-tau", seed=42, trials=trials))
    assert REGISTRY["sp-tau"].run(rc) == _sp_tau_rows_by_loop(rc)


def test_sp_tau_suite_retries_like_the_loop(monkeypatch):
    # Every phase factor of a symplectic matrix has singular values >= 1,
    # so raising the floor just above 1 makes the guard fire on some
    # triples: some trials retry and pass, some exhaust their attempts.
    monkeypatch.setattr(co, "PHI_SINGULAR_TOL", 1.01)
    rc = resolve_config(SuiteConfig.make("sp-tau", seed=42, trials=50))
    rows = REGISTRY["sp-tau"].run(rc)
    assert {row.verdict for row in rows} == {"pass", "unresolved"}
    assert rows == _sp_tau_rows_by_loop(rc)


def test_planted_tau_defect_fails_identity_rows(monkeypatch):
    # The identity rows and the cocycle rows share one kernel, so a defect
    # planted in it reaches both.  A constant shift cancels in the cocycle
    # identity, so only the identity rows can catch this one.
    kernel = co.tau_terms

    def shifted(mats, terms):
        values, ok = kernel(mats, terms)
        return values + 1e-3, ok

    monkeypatch.setattr(co, "tau_terms", shifted)
    rows = REGISTRY["sp-tau"].run(resolve_config(SuiteConfig.make("sp-tau", seed=0, trials=20)))
    verdicts = {row.id: row.verdict for row in rows}
    assert verdicts.pop("sp2-identity") == verdicts.pop("sp4-identity") == "fail"
    assert set(verdicts.values()) == {"pass"}


# ---------------------------------------------------------------------------
# multiplier ratio and measure averages
# ---------------------------------------------------------------------------


def test_multiplier_ratio_telescopes_exactly():
    g = rational_boost(Fraction(1, 3))
    h = rational_product(rational_rotation(Fraction(1, 2)), rational_boost(Fraction(2, 5)))
    k = rational_product(rational_rotation(Fraction(-1, 4)), rational_boost(Fraction(1, 7)))

    def ratio(x, y):
        # W(x, y) = a(xy) / (a(x) a(y)) in Gaussian rationals
        return gauss_div(rational_product(x, y)[0], gauss_mul(x[0], y[0]))

    # the exact ratio telescopes over the triple, and the float ratio of the
    # rounded elements stays within rounding of it
    lhs = gauss_mul(ratio(g, h), ratio(rational_product(g, h), k))
    assert lhs == gauss_mul(ratio(h, k), ratio(g, rational_product(h, k)))
    for x, y in [(g, h), (h, k), (g, k), (k, g), (rational_product(g, h), k)]:
        w = co.multiplier_ratio(su_rational(x), su_rational(y))
        assert abs(w - gauss_complex(ratio(x, y))) < 1e-15


def test_sigma_pair_commuting_vanishes():
    assert co.sigma_pair(su_boost(0.8), su_boost(1.3)) == 0.0
    assert abs(co.sigma_pair(su_rotation(0.5), su_rotation(1.1))) < 1e-15


def test_sigma_pair_frozen_value():
    g = su_rotation(0.6) * su_boost(0.8) * su_rotation(-0.2)
    h = su_rotation(-0.4) * su_boost(0.5)
    assert abs(co.sigma_pair(g, h) - (-0.25191996425453267)) < 1e-12


def test_sigma_antisymmetric_under_inversion_of_order():
    # the ratio for (h, g) is the conjugate pattern, so swapping the
    # arguments negates the scalar only when the product entries conjugate;
    # check the actual relation sigma(g, h) + sigma(h^-1, g^-1) = 0
    rng = np.random.default_rng(59)
    for _ in range(20):
        g, h = su_random(rng, max_ratio=0.8), su_random(rng, max_ratio=0.8)
        assert abs(co.sigma_pair(g, h) + co.sigma_pair(h.inverse(), g.inverse())) < 1e-13


def test_sigma_convolution_identity():
    for seed in range(10):
        mu = random_su_measure([61, seed, 0], 3)
        nu = random_su_measure([61, seed, 1], 2)
        rho = random_su_measure([61, seed, 2], 3)
        assert co.sigma_convolution_residual(mu, nu, rho) < 1e-12


def test_sigma_swapped_orientation_fails():
    # reading the ratio off the reversed product breaks telescoping; the
    # defect is visible, not a rounding artefact
    def swapped(g, h):
        return -cmath.phase(co.multiplier_ratio(h, g))

    mu = random_su_measure([67, 0], 3)
    nu = random_su_measure([67, 1], 2)
    rho = random_su_measure([67, 2], 3)
    assert co.sigma_convolution_residual(mu, nu, rho, pair=swapped) > 0.01


def sigma_gram_form(mu, nu):
    """``sigma_measures`` through closed-form grams.

    Each pair contributes ``Im <gamma(h^{-1}), gamma(g)>``, so the whole
    sum is the imaginary pairing of the two averaged cocycle vectors.
    """
    total = 0.0
    for g, p in mu.atoms:
        for h, q in nu.atoms:
            total += float(p * q) * gamma_gram(h.inverse(), g).imag
    return total


def test_sigma_matches_gram_form():
    for seed in range(6):
        mu = random_su_measure([71, seed, 0], 3)
        nu = random_su_measure([71, seed, 1], 3)
        direct = co.sigma_measures(mu, nu)
        assert abs(direct - sigma_gram_form(mu, nu)) < 1e-12
        assert isinstance(direct, float)


def test_sigma_delta_measures_reduce_to_pair():
    g = su_rotation(0.6) * su_boost(0.8)
    h = su_boost(0.5) * su_rotation(-0.3)
    assert abs(co.sigma_measures(delta_measure(g), delta_measure(h)) - co.sigma_pair(g, h)) < 1e-15


def test_sigma_orthogonal_actions_exactly_zero():
    a, b = FreeWord((1,), 2), FreeWord((2, -1), 2)
    mu = FiniteMeasure.from_atoms([(a, Fraction(1, 2)), (b, Fraction(1, 2))])
    nu = FiniteMeasure.from_atoms([(a * b, Fraction(1, 3)), (b, Fraction(2, 3))])
    value = co.sigma_measures(mu, nu, pair=co.sigma_pair_orthogonal)
    assert value == Fraction(0)
    assert isinstance(value, Fraction)
    rho = delta_measure(a)
    assert co.sigma_convolution_residual(mu, nu, rho, pair=co.sigma_pair_orthogonal) == Fraction(0)


def test_sigma_orthogonal_rejects_wrong_atoms():
    with pytest.raises(ConstraintViolation, match="expects reduced words"):
        co.sigma_pair_orthogonal(su_boost(1.0), su_boost(2.0))


# Averages of the disc action over a measure, which no suite forms yet; kept with their tests.


def average_operator(mu, degree=60):
    """Average of the truncated function-space operators, in the orthonormal frame.

    Each summand is a corner of a unitary there, so the convex combination
    has operator norm at most one, up to truncation rounding.
    """
    return sum(float(p) * orthonormal_frame(pi_matrix(g, degree)) for g, p in mu.atoms)


def average_displacement_vector(mu, degree=60):
    """Average of the cocycle coefficient vectors over the measure."""
    return sum(float(p) * gamma_vector(g, degree) for g, p in mu.atoms)


def test_average_operator_contraction():
    for seed in range(5):
        mu = random_su_measure([73, seed], 3, max_ratio=0.6)
        norm = float(np.linalg.norm(average_operator(mu, 50), 2))
        assert norm <= 1.0 + 1e-10
    spread = FiniteMeasure.from_atoms(
        [(su_boost(0.9), Fraction(1, 2)), (su_rotation(2.0) * su_boost(0.9), Fraction(1, 2))]
    )
    assert float(np.linalg.norm(average_operator(spread, 50), 2)) < 0.99


def test_average_displacement_of_delta():
    g = su_rotation(0.4) * su_boost(0.7)
    vec = average_displacement_vector(delta_measure(g), 40)
    assert np.abs(vec - gamma_vector(g, 40)).max() < 1e-15


# ---------------------------------------------------------------------------
# exact lattice pairing
# ---------------------------------------------------------------------------


def q(re, im):
    """A Gaussian-rational lattice coordinate."""
    return (Fraction(re), Fraction(im))


def test_lattice_sigma_basis_value():
    one = (Fraction(1), (q(1, 0),))
    eye = (Fraction(1), (q(0, 1),))
    assert co.lattice_sigma([one], [eye]) == Fraction(-1)
    assert co.lattice_sigma([eye], [one]) == Fraction(1)


def test_lattice_sigma_bilinear_and_antisymmetric():
    v1 = (Fraction(2, 3), (q(1, 2), q(0, 1)))
    v2 = (Fraction(-1, 2), (q(3, 0), q(1, 1)))
    w = (Fraction(1, 5), (q(2, -1), q(1, 0)))
    combined = co.lattice_sigma([v1, v2], [w])
    assert combined == co.lattice_sigma([v1], [w]) + co.lattice_sigma([v2], [w])
    assert co.lattice_sigma([v1], [w]) == -co.lattice_sigma([w], [v1])
    assert isinstance(combined, Fraction)


def test_lattice_sigma_dimension_mismatch():
    a = (Fraction(1), (q(1, 0),))
    b = (Fraction(1), (q(1, 0), q(0, 1)))
    with pytest.raises(ConstraintViolation):
        co.lattice_sigma([a], [b])


# ---------------------------------------------------------------------------
# step-function group
# ---------------------------------------------------------------------------


def word(*letters):
    return FreeWord(tuple(letters), 2)


def random_word_step(rng, level):
    def factory(r):
        return free_reduce([int(x) for x in r.choice([1, -1, 2, -2], size=3)], 2)

    return co.random_step_automorphism(rng, level, factory)


def test_step_constructor_validation():
    with pytest.raises(ConstraintViolation):
        co.StepAutomorphism(1, (0, 0), (word(1), word(2)))
    with pytest.raises(ConstraintViolation):
        co.StepAutomorphism(1, (1, 0), (word(1),))


def test_step_refinement_structure():
    f = co.StepAutomorphism(1, (1, 0), (word(1), word(2)))
    r = f.refine()
    assert r.perm == (2, 3, 0, 1)
    assert r.values == (word(1), word(1), word(2), word(2))
    with pytest.raises(ConstraintViolation):
        r.at_level(0)


def test_step_product_commutes_with_refinement():
    rng = np.random.default_rng(79)
    for _ in range(10):
        f1 = random_word_step(rng, int(rng.integers(1, 3)))
        f2 = random_word_step(rng, int(rng.integers(1, 3)))
        level = max(f1.level, f2.level) + 1
        assert (f1 * f2).at_level(level) == f1.at_level(level) * f2.at_level(level)


def test_step_associativity():
    rng = np.random.default_rng(83)
    for _ in range(20):
        f1 = random_word_step(rng, int(rng.integers(1, 3)))
        f2 = random_word_step(rng, int(rng.integers(1, 3)))
        f3 = random_word_step(rng, int(rng.integers(1, 3)))
        assert (f1 * f2) * f3 == f1 * (f2 * f3)


def test_step_identity_neutral():
    rng = np.random.default_rng(89)
    f = random_word_step(rng, 2)
    e = co.StepAutomorphism(1, (0, 1), (FreeWord((), 2),) * 2)
    assert e * f == f
    assert f * e == f


def test_step_cocycle_hand_value():
    # toy scalar on integer values: pair(x, y) = x y as a fraction
    f1 = co.StepAutomorphism(1, (0, 1), (2, 3))
    f2 = co.StepAutomorphism(1, (0, 1), (5, 7))
    value = co.step_cocycle(f1, f2, lambda x, y: Fraction(x * y))
    assert value == Fraction(2 * 5 + 3 * 7, 2)


class SpElement:
    """An Sp(2n) array whose ``*`` is the matrix product, as step-group cell values need."""

    def __init__(self, entries):
        self.entries = entries

    def __mul__(self, other):
        return SpElement(self.entries @ other.entries)


def tau_of_elements(g, h):
    return tau_of(g.entries, h.entries)


def test_step_cocycle_identity_with_phase_values():
    def factory(r):
        return SpElement(sp_sample(r, 1, scale=0.4))

    magnitudes = []
    for seed in range(10):
        rng = np.random.default_rng([97, seed])
        f1 = co.random_step_automorphism(rng, int(rng.integers(1, 3)), factory)
        f2 = co.random_step_automorphism(rng, int(rng.integers(1, 3)), factory)
        f3 = co.random_step_automorphism(rng, int(rng.integers(1, 3)), factory)
        assert co.step_cocycle_residual(f1, f2, f3, tau_of_elements) <= 1e-9
        magnitudes.append(abs(co.step_cocycle(f1, f2, tau_of_elements)))
    assert max(magnitudes) > 1e-3
