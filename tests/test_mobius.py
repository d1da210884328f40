"""Disc-action tests: closed forms against truncated series, pointwise
function identities against coefficient arithmetic, and spectral checks
for the kernel conditions."""

import cmath
import math
from fractions import Fraction as Fr

import numpy as np
import pytest

from isoact import mobius as mo
from isoact.errors import ConstraintViolation
from isoact.groups import SuMatrix, su_boost, su_from_params, su_random

from builders import (
    disc_map,
    gauss_complex,
    gauss_conj,
    gauss_div,
    gauss_mul,
    orthonormal_frame,
    rational_boost,
    rational_product,
    rational_rotation,
    su_identity,
    su_rational,
    su_rotation,
)


def sample_elements(seed, count, max_ratio=0.7):
    rng = np.random.default_rng(seed)
    return [su_random(rng, max_ratio=max_ratio) for _ in range(count)]


# ---------------------------------------------------------------------------
# geometry: the hyperbolic distance, an oracle for displacements and lengths
# ---------------------------------------------------------------------------


def poincare_distance(z1: complex, z2: complex) -> float:
    """Hyperbolic distance in the unit disc, normalised by ``d(0, tanh t) = t``."""
    if abs(z1) >= 1 or abs(z2) >= 1:
        raise ValueError(f"points must lie strictly inside the disc: {z1}, {z2}")
    num = abs(1 - z1.conjugate() * z2)
    sep = abs(z2 - z1)
    return 0.5 * math.log((num + sep) / (num - sep))


def displacement(g: SuMatrix) -> float:
    """``d(0, g 0) = log(|a| + |b|)``."""
    a, b = (g.a, g.b)
    return math.log(abs(a) + abs(b))


def test_distance_along_radius():
    for t in [0.1, 0.5, 1.0, 2.5]:
        assert abs(poincare_distance(0.0, math.tanh(t)) - t) < 1e-12


def test_distance_axioms():
    rng = np.random.default_rng(3)
    pts = [complex(*p) for p in rng.uniform(-0.6, 0.6, size=(6, 2))]
    for x in pts:
        assert poincare_distance(x, x) == 0.0
        for y in pts:
            assert abs(poincare_distance(x, y) - poincare_distance(y, x)) < 1e-12
            for z in pts:
                assert (
                    poincare_distance(x, z)
                    <= poincare_distance(x, y) + poincare_distance(y, z) + 1e-12
                )


def test_distance_rejects_boundary():
    with pytest.raises(ValueError):
        poincare_distance(1.0, 0.0)


def test_displacement_is_orbit_distance():
    for g in sample_elements(11, 10, max_ratio=0.9):
        assert abs(displacement(g) - poincare_distance(0.0, disc_map(g, 0.0))) < 1e-12


def test_mobius_action_is_isometric():
    rng = np.random.default_rng(5)
    for g in sample_elements(6, 5):
        for _ in range(4):
            x, y = (complex(*rng.uniform(-0.55, 0.55, 2)) for _ in range(2))
            d1 = poincare_distance(x, y)
            d2 = poincare_distance(disc_map(g, x), disc_map(g, y))
            assert abs(d1 - d2) < 1e-11


# ---------------------------------------------------------------------------
# the cocycle as a function: pointwise identities need no truncation, and
# pointwise values are the oracle for the coefficient arithmetic
# ---------------------------------------------------------------------------


def gamma_eval(g: SuMatrix, z: complex) -> complex:
    a, b = (g.a, g.b)
    return b.conjugate() / (b.conjugate() * z + a.conjugate())


def pi_eval(g: SuMatrix, f, z: complex) -> complex:
    """Pointwise weight-two action on a callable function."""
    a, b = (g.a, g.b)
    denom = b.conjugate() * z + a.conjugate()
    return f((a * z + b) / denom) / (denom * denom)


def test_gamma_pointwise_cocycle_law():
    rng = np.random.default_rng(21)
    for _ in range(30):
        g1 = su_random(rng, max_ratio=0.8)
        g2 = su_random(rng, max_ratio=0.8)
        for z in [0.1 + 0.2j, -0.45j, 0.3, -0.2 + 0.1j]:
            lhs = gamma_eval(g1 * g2, z)
            rhs = pi_eval(g2, lambda w: gamma_eval(g1, w), z) + gamma_eval(g2, z)
            assert abs(lhs - rhs) < 1e-12


def test_gamma_vector_sums_to_gamma_eval():
    for g in sample_elements(9, 6):
        coeffs = mo.gamma_vector(g, 200)
        for z in [0.0, 0.3, -0.2 + 0.25j]:
            series = sum(c * z**k for k, c in enumerate(coeffs))
            assert abs(series - gamma_eval(g, z)) < 1e-12


def test_pi_eval_identity_and_weight():
    f = lambda z: 1 + 2 * z + z * z
    assert abs(pi_eval(su_identity(), f, 0.3 + 0.1j) - f(0.3 + 0.1j)) < 1e-15
    # rotation parameter theta moves points by angle 2 theta and carries
    # the weight conj(a)^{-2} = exp(2 i theta)
    g = su_rotation(0.4)
    z = 0.2 - 0.3j
    expected = f(z * cmath.exp(0.8j)) * cmath.exp(0.8j)
    assert abs(pi_eval(g, f, z) - expected) < 1e-14


# ---------------------------------------------------------------------------
# matrix truncations
# ---------------------------------------------------------------------------


def test_pi_matrix_identity():
    mat = mo.pi_matrix(su_identity(), 12)
    assert np.abs(mat - np.eye(13)).max() < 1e-15


def test_pi_matrix_matches_pointwise_action():
    # apply the truncation to a polynomial and compare with direct
    # evaluation; the result is a series evaluated well inside the disc
    f_coeffs = np.zeros(61, dtype=complex)
    f_coeffs[0], f_coeffs[1], f_coeffs[2] = 1.0, 2.0, 1.0
    f = lambda z: 1 + 2 * z + z * z
    for g in sample_elements(13, 5, max_ratio=0.5):
        image = mo.pi_matrix(g, 60) @ f_coeffs
        for z in [0.1, -0.2j, 0.15 + 0.1j]:
            series = sum(c * z**k for k, c in enumerate(image))
            assert abs(series - pi_eval(g, f, z)) < 1e-10


def test_pi_matrix_contravariant_composition():
    rng = np.random.default_rng(17)
    for _ in range(6):
        g1 = su_random(rng, max_ratio=0.5)
        g2 = su_random(rng, max_ratio=0.5)
        n, k = 70, 25
        prod = mo.pi_matrix(g1, n) @ mo.pi_matrix(g2, n)
        direct = mo.pi_matrix(g2 * g1, n)
        assert np.abs(prod[: k + 1, : k + 1] - direct[: k + 1, : k + 1]).max() < 1e-9


def test_orthonormal_frame_isometric_on_low_columns():
    # the k-th column of pi(g) carries coefficient mass out to degree
    # roughly k exp(2t), so only columns well below the truncation degree
    # see their full mass; stay inside that range
    for g in sample_elements(19, 4, max_ratio=0.6):
        frame = orthonormal_frame(mo.pi_matrix(g, 100))
        block = frame[:, :13]
        assert np.abs(block.conj().T @ block - np.eye(13)).max() < 1e-10


# ---------------------------------------------------------------------------
# coefficient-space cocycle residuals
# ---------------------------------------------------------------------------


def test_affine_cocycle_residual_tiny():
    rng = np.random.default_rng(29)
    for _ in range(20):
        g1 = su_random(rng, max_ratio=0.7)
        g2 = su_random(rng, max_ratio=0.7)
        assert mo.affine_cocycle_residual(g1, g2) < 1e-12


def test_affine_cocycle_residual_detects_wrong_orientation():
    # swapping which factor acts breaks the law by a visible margin
    g1 = su_boost(0.9)
    g2 = su_rotation(1.1) * su_boost(0.5) * su_rotation(-0.3)
    degree = 120
    v12 = mo.gamma_vector(g1 * g2, degree)
    v1 = mo.gamma_vector(g1, degree)
    v2 = mo.gamma_vector(g2, degree)
    wrong = v12 - mo.pi_matrix(g1, degree) @ v2 - v1
    assert math.sqrt(mo.bergman_norm2(wrong[:61])) > 1e-3


def test_inverse_cocycle_residual_tiny():
    # gamma(g^{-1}) + pi(g^{-1}) gamma(g) = 0, measured on the half-degree block
    degree = 120
    for g in sample_elements(31, 10):
        gi = g.inverse()
        defect = mo.gamma_vector(gi, degree) + mo.pi_matrix(gi, degree) @ mo.gamma_vector(g, degree)
        assert math.sqrt(mo.bergman_norm2(defect[: degree // 2 + 1])) < 1e-12


# ---------------------------------------------------------------------------
# closed-form grams
# ---------------------------------------------------------------------------


def test_gram_closed_form_matches_series():
    rng = np.random.default_rng(37)
    for _ in range(15):
        g1 = su_random(rng, max_ratio=0.8)
        g2 = su_random(rng, max_ratio=0.8)
        series = mo.bergman_inner(mo.gamma_vector(g1, 400), mo.gamma_vector(g2, 400))
        assert abs(series - mo.gamma_gram(g1, g2)) < 1e-12


def test_norm_closed_form_matches_series():
    for g in sample_elements(41, 10, max_ratio=0.8):
        series = mo.bergman_norm2(mo.gamma_vector(g, 400))
        assert abs(series - mo.phi(g)) < 1e-12
        gram = mo.gamma_gram(g, g)
        assert abs(gram.imag) < 1e-13
        assert abs(gram.real - mo.phi(g)) < 1e-12


RATIONAL_ELEMENTS = [
    rational_boost(Fr(1, 3)),
    rational_product(rational_rotation(Fr(1, 2)), rational_boost(Fr(2, 5))),
    rational_product(rational_boost(Fr(-3, 7)), rational_rotation(Fr(2, 9))),
    rational_product(rational_rotation(Fr(-1, 4)), rational_boost(Fr(1, 7))),
    rational_rotation(Fr(5, 6)),
]


def test_gram_ratio_exact_backend():
    # u = conj(b1) b2 / (conj(a1) a2) in Gaussian rationals; the float gram
    # of the rounded elements stays within rounding of its exact value
    for e1 in RATIONAL_ELEMENTS:
        for e2 in RATIONAL_ELEMENTS:
            (a1, b1), (a2, b2) = e1, e2
            u = gauss_div(gauss_mul(gauss_conj(b1), b2), gauss_mul(gauss_conj(a1), a2))
            # 1 - u equals conj(a)(g1 g2^{-1}) / (conj(a)(g1) conj(a)(g2^{-1}))
            a2_inverse = gauss_conj(a2)
            w = rational_product(e1, (a2_inverse, (-b2[0], -b2[1])))
            rhs = gauss_div(gauss_conj(w[0]), gauss_mul(gauss_conj(a1), gauss_conj(a2_inverse)))
            assert (1 - u[0], -u[1]) == rhs
            expected = -cmath.log(1 - gauss_complex(u))
            assert abs(mo.gamma_gram(su_rational(e1), su_rational(e2)) - expected) < 1e-15


# ---------------------------------------------------------------------------
# asymptotics of the norm against the displacement
# ---------------------------------------------------------------------------


def test_asymptotic_error_closed_form_on_boosts():
    for t in [0.5, 1.0, 2.0, 3.0, 5.0]:
        expected = 2.0 * math.log(1.0 + math.exp(-2.0 * t))
        assert abs(mo.asymptotic_error(su_boost(t)) - expected) < 1e-12


def test_asymptotic_error_decreasing_and_small():
    grid = [0.5 * k for k in range(1, 11)]
    values = [mo.asymptotic_error(su_boost(t)) for t in grid]
    assert all(x > y for x, y in zip(values, values[1:]))
    assert values[-1] < 1e-3


def test_asymptotic_error_nonnegative():
    for g in sample_elements(43, 20, max_ratio=0.95):
        assert mo.asymptotic_error(g) >= 0.0


def test_norm_identity_phi():
    # phi and displacement agree to leading order but differ by the
    # constant: phi = 2 delta - 2 log 2 + error
    g = su_boost(4.0)
    assert abs(mo.phi(g) - (2 * displacement(g) - 2 * math.log(2)) - mo.asymptotic_error(g)) < 1e-12


# ---------------------------------------------------------------------------
# translation lengths, against a grid search and the axis geometry
# ---------------------------------------------------------------------------


def min_displacement_grid(g: SuMatrix, r_max=0.95, nr=40, ntheta=160) -> float:
    """Brute-force displacement minimum over a polar grid.

    Never below the true length; exceeds it only by the grid resolution
    around the axis.
    """
    best = poincare_distance(0.0, disc_map(g, 0.0))
    for i in range(1, nr + 1):
        r = r_max * i / nr
        for j in range(ntheta):
            z = r * cmath.exp(2j * math.pi * j / ntheta)
            best = min(best, poincare_distance(z, disc_map(g, z)))
    return best


def conjugated_boost(u: SuMatrix, t: float) -> SuMatrix:
    """``u boost(t) u^{-1}``: a hyperbolic element with translated axis."""
    return u * su_boost(t) * u.inverse()


def axis_distance_from_origin(u: SuMatrix) -> float:
    """Distance from the origin to the axis of ``u boost u^{-1}``.

    The axis is the image of the real diameter under ``u``.  In the
    normalisation ``d(0, tanh t) = t`` the distance satisfies
    ``sinh(2 d) = 2 |Im(conj(p) q)|`` for ``u = (p, q)``.
    """
    p, q = (u.a, u.b)
    return 0.5 * math.asinh(2.0 * abs((p.conjugate() * q).imag))


def length_deviation_sequence(g: SuMatrix, n_max: int) -> list:
    """``|gamma(g^n)|^2 - 2 n length(g)`` for ``n = 1 .. n_max``.

    Stays bounded for hyperbolic ``g``: every term lies within
    ``2 log 2 + 2 log cosh(2 d)`` of zero, where ``d`` is the distance
    from the origin to the axis.
    """
    ell = mo.hyperbolic_length(g)
    out = []
    power = g
    for n in range(1, n_max + 1):
        out.append(mo.phi(power) - 2.0 * n * ell)
        power = power * g
    return out


def test_boost_length():
    for t in [0.3, 1.0, 2.7]:
        assert abs(mo.hyperbolic_length(su_boost(t)) - t) < 1e-12


def test_elliptic_and_parabolic_lengths_vanish():
    assert mo.hyperbolic_length(su_rotation(0.9)) == 0.0
    parabolic = su_from_params(1.0 + 0.7j, 0.7)
    assert abs(parabolic.trace() - 2.0) < 1e-12
    assert mo.hyperbolic_length(parabolic) == 0.0


def test_length_conjugation_invariance():
    rng = np.random.default_rng(47)
    for _ in range(10):
        g = su_boost(float(rng.uniform(0.2, 2.0)))
        h = su_random(rng, max_ratio=0.8)
        conj = h * g * h.inverse()
        assert abs(mo.hyperbolic_length(conj) - mo.hyperbolic_length(g)) < 1e-10


def test_length_homogeneity():
    u = su_rotation(0.5) * su_boost(0.8) * su_rotation(0.3)
    g = conjugated_boost(u, 0.7)
    power = g
    for n in range(1, 6):
        assert abs(mo.hyperbolic_length(power) - n * 0.7) < 1e-9
        power = power * g


def test_grid_oracle_brackets_length():
    u = su_rotation(0.7) * su_boost(0.4)
    for t in [1.0, 1.6]:
        g = conjugated_boost(u, t)
        ell = mo.hyperbolic_length(g)
        grid = min_displacement_grid(g)
        assert ell - 1e-9 <= grid <= ell + 0.3


def test_grid_oracle_elliptic():
    assert min_displacement_grid(su_rotation(1.3)) < 1e-12


def test_length_deviation_bounded():
    cases = [
        su_rotation(0.7) * su_boost(0.4),          # axis through the origin
        su_rotation(0.5) * su_boost(0.8) * su_rotation(0.3),
        su_from_params(math.sqrt(1.25), 0.5j),     # axis pushed off centre
    ]
    for u in cases:
        g = conjugated_boost(u, 1.1)
        d0 = axis_distance_from_origin(u)
        bound = 2.0 * math.log(2.0) + 2.0 * math.log(math.cosh(2.0 * d0)) + 1e-9
        deviations = length_deviation_sequence(g, 14)
        assert max(abs(x) for x in deviations) <= bound


def test_axis_distance_formula():
    # for u = boost conjugated by nothing the axis passes through 0
    assert axis_distance_from_origin(su_boost(0.9)) < 1e-15
    # numeric cross-check: the axis point nearest the origin realises the
    # distance, found by a crude scan over the axis image
    u = su_from_params(math.sqrt(2.0), 1.0j)
    d0 = axis_distance_from_origin(u)
    scan = min(
        poincare_distance(0.0, disc_map(u, math.tanh(s)))
        for s in np.linspace(-6.0, 6.0, 4001)
    )
    assert abs(scan - d0) < 1e-3


# ---------------------------------------------------------------------------
# growth probes
# ---------------------------------------------------------------------------


def test_power_growth_boost_slope():
    t = 0.45
    norms = [mo.phi(su_boost(n * t)) for n in range(1, 25)]
    sup, slope = mo.power_growth(norms)
    assert abs(slope - 2 * t) < 0.05
    assert sup == norms[-1]


def test_power_growth_elliptic_bounded():
    g = su_boost(0.6) * su_rotation(2.0) * su_boost(-0.6)
    power = g
    norms = []
    for _ in range(40):
        norms.append(mo.phi(power))
        power = power * g
    sup, slope = mo.power_growth(norms)
    assert sup <= 4 * mo.phi(su_boost(0.6)) + 2.0
    assert abs(slope) < 0.05


def coboundary_norm(h, g):
    """Norm of pi(g) gamma(h) - gamma(h), via closed forms only.

    The cocycle law rewrites it as gamma(h g) - gamma(g) - gamma(h), whose
    squared norm expands into six gram terms.
    """
    x, y, z = h * g, g, h
    def ip(p, q):
        return mo.gamma_gram(p, q).real
    return math.sqrt(
        max(
            0.0,
            ip(x, x) + ip(y, y) + ip(z, z)
            - 2 * ip(x, y) - 2 * ip(x, z) + 2 * ip(y, z),
        )
    )


def test_coboundary_stays_bounded_along_powers():
    h = su_rotation(0.8) * su_boost(0.7)
    g = su_boost(0.3)
    cap = 2.0 * math.sqrt(mo.phi(h)) + 1e-9
    power = g
    for _ in range(25):
        assert coboundary_norm(h, power) <= cap
        power = power * g


def test_direct_sum_norms_add():
    g = su_rotation(0.4) * su_boost(1.2)
    h = su_boost(0.5)
    total = mo.phi(g) + mo.phi(h)
    combined = mo.bergman_norm2(mo.gamma_vector(g, 300)) + mo.bergman_norm2(
        mo.gamma_vector(h, 300)
    )
    assert abs(total - combined) < 1e-12


# ---------------------------------------------------------------------------
# kernel conditions
# ---------------------------------------------------------------------------


def square_displacement(g: SuMatrix) -> float:
    """``d(0, g 0)^2``; a kernel that fails conditional negativity."""
    return displacement(g) ** 2


def test_phi_kernel_conditionally_negative():
    for seed, size in [(101, 6), (103, 8), (107, 10)]:
        els = sample_elements(seed, size, max_ratio=0.8)
        q = mo.kernel_matrix(els, mo.phi)
        assert np.abs(q - q.T).max() < 1e-12
        assert np.abs(np.diag(q)).max() < 1e-12
        assert mo.centered_max_eigenvalue(q) <= 1e-9


def test_squared_displacement_not_conditionally_negative():
    # identity plus three boosts pushed out along directions 120 degrees
    # apart: curvature makes the squared distance fail the condition
    third = 2.0 * math.pi / 3.0
    els = [
        su_identity(),
        su_boost(2.0),
        su_rotation(third) * su_boost(2.0) * su_rotation(-third),
        su_rotation(-third) * su_boost(2.0) * su_rotation(third),
    ]
    q = mo.kernel_matrix(els, square_displacement)
    assert mo.centered_max_eigenvalue(q) > 1.0


def test_squared_displacement_collinear_control():
    # along a single axis the displacement is a line metric, whose square
    # is conditionally negative; the failure above is genuinely about
    # curvature, not about squaring
    els = [su_boost(t) for t in (0.0, 0.5, 1.3, 2.1)]
    q = mo.kernel_matrix(els, square_displacement)
    assert mo.centered_max_eigenvalue(q) <= 1e-9


def test_gns_gram_closed_form():
    els = sample_elements(109, 7, max_ratio=0.8)
    gram = mo.gns_gram(els)
    closed = np.array([[mo.gamma_gram(a, b).real for b in els] for a in els])
    assert np.abs(gram - closed).max() < 1e-12


def test_gns_gram_positive_and_reproduces_distances():
    els = sample_elements(113, 8, max_ratio=0.8)
    gram = mo.gns_gram(els)
    assert float(np.linalg.eigvalsh((gram + gram.T) / 2)[0]) >= -1e-9
    vecs = mo.gns_vectors(gram)
    for i, gi in enumerate(els):
        for j, gj in enumerate(els):
            dist2 = float(np.sum((vecs[i] - vecs[j]) ** 2))
            assert abs(dist2 - mo.phi(gi * gj.inverse())) < 1e-9


def test_gns_vectors_rejects_non_gram():
    with pytest.raises(ConstraintViolation, match="negative beyond tolerance"):
        mo.gns_vectors(np.array([[0.0, 1.0], [1.0, 0.0]]))
