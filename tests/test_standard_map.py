"""Single-trajectory map, tangent dynamics, and leak absorption."""

import math
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from leakmap.standard_map import (
    RENORM_INTERVAL,
    TWO_PI,
    Leak,
    MapParams,
    TangentFrame,
    evolve_open,
    ftle,
    mod1,
    step,
    step_jacobian,
    tangent_step,
)

K10 = MapParams(10.0)
K0 = MapParams(0.0)


# ---------------------------------------------------------------------------
# torus reduction


def test_mod1_scalars():
    assert mod1(0.5) == 0.5
    assert mod1(2.5) == 0.5
    assert mod1(-0.25) == 0.75
    assert mod1(1.0) == 0.0
    assert mod1(0.0) == 0.0


def test_mod1_tiny_negative_folds_to_zero():
    # np.mod(-1e-18, 1.0) rounds to exactly 1.0, outside [0, 1)
    r = mod1(-1e-18)
    assert r == 0.0
    assert 0.0 <= r < 1.0


def test_mod1_array():
    x = np.array([-1e-18, 1.0, -0.25, 3.75])
    assert_array_equal(mod1(x), [0.0, 0.0, 0.75, 0.75])
    assert np.all((mod1(x) >= 0.0) & (mod1(x) < 1.0))


# ---------------------------------------------------------------------------
# one map step


def test_step_hand_oracle():
    # q' = 0.75, sin(2 pi 0.75) = -1, p' = (0.5 + 10/2pi) mod 1
    q1, p1 = step((0.25, 0.5), K10)
    assert_allclose(q1, 0.75, rtol=0, atol=1e-14)
    assert_allclose(p1, (0.5 + 10.0 / TWO_PI) % 1.0, rtol=0, atol=1e-14)


def test_step_origin_is_fixed_point():
    assert step((0.0, 0.0), K10) == (0.0, 0.0)


def test_step_zero_kick_is_shear():
    q1, p1 = step((0.3, 0.25), K0)
    assert_allclose(q1, 0.55, rtol=0, atol=1e-15)
    assert_allclose(p1, 0.25, rtol=0, atol=1e-15)


def test_step_stays_on_torus():
    rng = np.random.default_rng(7)
    x = (rng.random(), rng.random())
    for _ in range(100):
        x = step(x, K10)
        assert 0.0 <= x[0] < 1.0
        assert 0.0 <= x[1] < 1.0


def test_params_validation():
    with pytest.raises(ValueError):
        MapParams(math.nan)
    with pytest.raises(ValueError):
        MapParams(math.inf)


# ---------------------------------------------------------------------------
# tangent dynamics


def test_step_jacobian_entries():
    j = step_jacobian(0.0, K10)
    assert_array_equal(j, [[1.0, 1.0], [-10.0, -9.0]])
    # determinant is 1 in exact arithmetic for any kick angle
    kc = Fraction(10) * Fraction(math.cos(TWO_PI * 0.137))
    assert Fraction(1) * (1 - kc) - Fraction(1) * (-kc) == 1


def test_tangent_step_matches_matrix_product():
    rng = np.random.default_rng(3)
    frame = TangentFrame.identity()
    m = np.eye(2)
    for q in rng.random(15):  # below RENORM_INTERVAL: no rescaling yet
        frame = tangent_step(float(q), frame, K10)
        m = step_jacobian(float(q), K10) @ m
    assert frame.log_scale == 0.0
    assert frame.n_steps == 15
    assert_allclose(frame.matrix, m, rtol=1e-13)


def test_sigma_max_log_matches_svd():
    rng = np.random.default_rng(11)
    frame = TangentFrame.identity()
    qs = rng.random(15)
    for q in qs:
        frame = tangent_step(float(q), frame, K10)
    m = np.eye(2)
    for q in qs:
        m = step_jacobian(float(q), K10) @ m
    smax = np.linalg.svd(m, compute_uv=False)[0]
    assert_allclose(frame.sigma_max_log(), math.log(smax), rtol=1e-12)


def test_renormalization_preserves_true_jacobian():
    rng = np.random.default_rng(5)
    frame = TangentFrame.identity()
    qs = rng.random(3 * RENORM_INTERVAL)
    for q in qs:
        frame = tangent_step(float(q), frame, K10)
    assert frame.log_scale > 0.0  # renormalized three times
    assert np.abs(frame.matrix).max() <= 1.0 + 1e-12
    # compare against a renorm-free product built in log space pairwise
    lam = frame.sigma_max_log() / len(qs)
    lam_ref = ftle_reference(qs, K10)
    assert_allclose(lam, lam_ref, rtol=1e-10)


def ftle_reference(qs, params):
    """Renorm-free FTLE over a prescribed q' sequence, via per-step SVD bound."""
    m = np.eye(2)
    s = 0.0
    for q in qs:
        m = step_jacobian(float(q), params) @ m
        norm = np.abs(m).max()
        m /= norm
        s += math.log(norm)
    return (s + math.log(np.linalg.svd(m, compute_uv=False)[0])) / len(qs)


def test_determinant_product_stays_near_one():
    rng = np.random.default_rng(13)
    for _ in range(5):
        frame = TangentFrame.identity()
        q, p = rng.random(2)
        x = (q, p)
        for _ in range(500):
            x = step(x, K10)
            frame = tangent_step(x[0], frame, K10)
        assert abs(frame.det - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# finite-time Lyapunov exponents


def test_ftle_fixed_point_analytic():
    # tangent matrix at the origin is [[1, 1], [-10, -9]], spectral radius
    # 4 + sqrt(15); the FTLE converges to its log
    lam = ftle((0.0, 0.0), 1000, K10)
    assert_allclose(lam, math.log(4.0 + math.sqrt(15.0)), rtol=0, atol=1e-3)


def test_ftle_zero_kick_shear():
    # J_n = [[1, n], [0, 1]]; closed-form largest singular value
    n = 10
    lam = ftle((0.123, 0.456), n, K0)
    e = 2.0 + n * n
    smax = 0.5 * (math.sqrt(e + 2.0) + math.sqrt(e - 2.0))
    assert_allclose(lam, math.log(smax) / n, rtol=1e-12)


def test_ftle_positive_and_near_ergodic_value():
    rng = np.random.default_rng(17)
    lams = [ftle((rng.random(), rng.random()), 2000, K10) for _ in range(8)]
    # ln(K/2) = ln 5 is the large-K ergodic estimate
    assert_allclose(np.mean(lams), math.log(5.0), rtol=0.05)
    assert min(lams) > 0.0


def test_ftle_rejects_zero_steps():
    with pytest.raises(ValueError):
        ftle((0.1, 0.2), 0, K10)


# ---------------------------------------------------------------------------
# absorbing strip


def test_leak_half_open_interval():
    leak = Leak(0.5, 0.5)  # [0.25, 0.75)
    assert leak.lower == 0.25
    assert leak.contains(0.25)
    assert leak.contains(0.5)
    assert leak.contains(0.7499999)
    assert not leak.contains(0.75)
    assert not leak.contains(0.2)
    assert not leak.contains(0.9)


def test_leak_wraparound():
    leak = Leak(0.0, 0.5)  # [0.75, 1) U [0, 0.25)
    assert leak.lower == 0.75
    assert leak.contains(0.75)
    assert leak.contains(0.9)
    assert leak.contains(0.0)
    assert leak.contains(0.2499)
    assert not leak.contains(0.25)
    assert not leak.contains(0.5)
    assert not leak.contains(0.749)


def test_leak_array_membership_matches_scalar():
    leak = Leak(0.2, 0.2)
    q = np.linspace(0.0, 1.0, 41)
    got = leak.contains(q)
    want = np.array([leak.contains(float(v)) for v in q])
    assert_array_equal(got, want)
    assert got.dtype == bool


@pytest.mark.parametrize(
    "center,width",
    [(0.5, 0.2), (0.2, 0.2), (0.05, 0.2), (0.9, 0.3), (0.0, 0.5), (0.5, 0.0), (0.5, 1.0), (0.3, 0.999)],
)
def test_leak_scalar_path_matches_array_path(center, width):
    leak = Leak(center, width)
    lo = leak.lower
    hi = lo + width
    eps = np.finfo(float).eps
    # -1e-18 and -2**-60 are among the inputs np.mod rounds up to 1.0
    assert np.mod(-1e-18, 1.0) == 1.0 and np.mod(-(2.0**-60), 1.0) == 1.0
    edges = [lo, hi, hi - 1.0, np.nextafter(lo, -1.0), np.nextafter(hi, 2.0), -0.0, 0.0, -1e-300,
             1.0 - eps / 2, 1.0 - eps, 1.0, -1e-18, -(2.0**-60), 2.0 - eps, -3.0 + lo, 7.0 + hi]
    rng = np.random.default_rng(11)
    for q in edges + list(rng.uniform(-3.0, 3.0, 500)):
        want = bool(leak.contains(np.array([q]))[0])
        assert leak.contains(float(q)) is want, q
        assert leak.contains(np.float64(q)) is want, q


def test_leak_scalar_path_builds_no_numpy_object(monkeypatch):
    from leakmap import standard_map

    leaks = [Leak(0.5, 0.2), Leak(0.05, 0.2), Leak(0.5, 0.0), Leak(0.5, 1.0)]
    monkeypatch.setattr(standard_map, "np", None)  # any numpy use raises
    assert [leak.contains(0.51) for leak in leaks] == [True, False, False, True]
    assert [leak.contains(0.99) for leak in leaks] == [False, True, False, True]


def test_mod1_float_path_matches_array_path():
    rng = np.random.default_rng(12)
    xs = [-0.0, -1e-300, -1e-18, 1.0, -1.0, 1.0 - 2.0**-53, 3.5] + list(rng.uniform(-5.0, 5.0, 200))
    for x in xs:
        assert mod1(float(x)) == float(mod1(np.array([x]))[0])
        assert type(mod1(float(x))) is float


def test_leak_degenerate_widths():
    assert not Leak(0.5, 0.0).contains(0.5)
    assert Leak(0.5, 1.0).contains(0.0)
    assert Leak(0.5, 1.0).contains(0.999)


def test_leak_validation():
    with pytest.raises(ValueError):
        Leak(0.5, -0.1)
    with pytest.raises(ValueError):
        Leak(0.5, 1.5)
    with pytest.raises(ValueError):
        Leak(math.nan, 0.2)


# ---------------------------------------------------------------------------
# open evolution


def manual_escape(x0, leak, t_max, params):
    """Reference reimplementation of the absorption loop (same float path)."""
    q, p = float(x0[0]), float(x0[1])
    if leak.contains(q):
        return 0, True
    for t in range(1, t_max + 1):
        q = (q + p) % 1.0
        if q == 1.0:
            q = 0.0
        p = (p - params.K / TWO_PI * math.sin(TWO_PI * q)) % 1.0
        if p == 1.0:
            p = 0.0
        if leak.contains(q):
            return t, True
    return t_max, False


def test_evolve_open_inside_leak():
    rec = evolve_open((0.2, 0.4), Leak(0.2, 0.2), 100, K10)
    assert rec.tau == 0
    assert rec.escaped
    assert math.isnan(rec.ftle)


def test_evolve_open_matches_manual_loop():
    leak = Leak(0.5, 0.2)
    rng = np.random.default_rng(23)
    for _ in range(25):
        x0 = (rng.random(), rng.random())
        rec = evolve_open(x0, leak, 300, K10)
        tau, escaped = manual_escape(x0, leak, 300, K10)
        assert rec.tau == tau
        assert rec.escaped == escaped


def tangent_frame_escape(x0, leak, t_max, params):
    """(tau, ftle) of one leaked orbit from the matrix-form reference:
    step, then tangent_step, then the leak test, as in evolve_open."""
    x, frame = x0, TangentFrame.identity()
    for t in range(1, t_max + 1):
        x = step(x, params)
        frame = tangent_step(x[0], frame, params)
        if leak.contains(x[0]):
            return t, frame.sigma_max_log() / t
    return t_max, frame.sigma_max_log() / t_max


def test_evolve_open_ftle_consistent_with_ftle_function():
    # ftle is evolve_open with the empty leak, so check the loop against the
    # step/tangent_step reference instead: same orbit, same frame up to the
    # rounding of the matrix product
    leak = Leak(0.3, 0.2)
    rng = np.random.default_rng(29)
    hits = 0
    for _ in range(300):
        x0 = (rng.random(), rng.random())
        rec = evolve_open(x0, leak, 400, K10)
        if rec.tau >= 1:
            tau, lam = tangent_frame_escape(x0, leak, 400, K10)
            assert rec.tau == tau
            assert_allclose(rec.ftle, lam, rtol=1e-12)
            hits += 1
    assert hits > 200


def test_evolve_open_survivor():
    # hairline leak and short horizon: the orbit should survive
    rec = evolve_open((0.123, 0.654), Leak(0.011, 1e-6), 5, K10)
    assert not rec.escaped
    assert rec.tau == 5
    assert math.isfinite(rec.ftle)


def test_evolve_open_rejects_bad_horizon():
    with pytest.raises(ValueError):
        evolve_open((0.1, 0.2), Leak(0.5, 0.2), 0, K10)
