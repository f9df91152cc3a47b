"""Grid ensembles: FTLE fields, dwell statistics, survival curves, scans."""

import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from leakmap.ensemble import (
    ClassicalScan,
    EscapeEnsemble,
    PhaseSpaceGrid,
    ScalarField,
    SurvivalCurve,
    dwell_ftle_field,
    escape_ensemble,
    exponential_tail_fit,
    ftle_ensemble,
    ftle_field,
    ftle_histogram,
    histogram_mean,
    leak_scan_classical,
    mean_ftle_by_dwell,
    short_dwell_cutoff,
    strip_mean_ftle,
    strip_scan,
    survival_probability,
)
from leakmap.standard_map import RENORM_INTERVAL, Leak, MapParams, evolve_open, ftle

PARAMS = MapParams(K=10.0)


def make_ensemble(tau, escaped, ftle_vals, grid=None, t_max=100):
    tau = np.asarray(tau, dtype=np.int64)
    if grid is None:
        grid = PhaseSpaceGrid(tau.shape[0], tau.shape[1])
    return EscapeEnsemble(
        grid=grid,
        leak=Leak(0.5, 0.2),
        params=PARAMS,
        t_max=t_max,
        tau=tau,
        ftle=np.asarray(ftle_vals, dtype=float),
        escaped=np.asarray(escaped, dtype=bool),
    )


# ---------------------------------------------------------------------------
# grids and fields


def test_grid_centers_and_points():
    g = PhaseSpaceGrid(4, 2)
    assert g.size == 8
    assert_allclose(g.q_centers, [0.125, 0.375, 0.625, 0.875])
    assert_allclose(g.p_centers, [0.25, 0.75])
    q, p = g.points()
    assert q.shape == p.shape == (8,)
    assert_allclose(q[:2], [0.125, 0.125])  # row-major: q varies slowest
    assert_allclose(p[:2], [0.25, 0.75])


def test_grid_validation():
    with pytest.raises(ValueError):
        PhaseSpaceGrid(1, 10)


def test_scalar_field_validation():
    g = PhaseSpaceGrid(2, 2)
    with pytest.raises(ValueError):
        ScalarField(g, np.zeros((2, 3)))
    with pytest.raises(ValueError):
        ScalarField(g, np.zeros((2, 2)), np.ones((3, 2), dtype=bool))
    with pytest.raises(ValueError):
        ScalarField(g, np.array([[1.0, np.nan], [0.0, 0.0]]))
    # NaN is fine on masked-out cells
    f = ScalarField(g, np.array([[1.0, np.nan], [2.0, 3.0]]),
                    np.array([[True, False], [True, True]]))
    assert_array_equal(np.sort(f.masked_values()), [1.0, 2.0, 3.0])


def test_ftle_field_matches_single_orbit_routine():
    g = PhaseSpaceGrid(5, 4)
    f = ftle_field(g, 30, PARAMS)
    assert f.mask.all()
    q, p = g.points()
    ref = np.array([ftle((qi, pi), 30, PARAMS) for qi, pi in zip(q, p)])
    assert_allclose(f.values.ravel(), ref, rtol=1e-12)


def test_ftle_ensemble_validation():
    with pytest.raises(ValueError):
        ftle_ensemble([0.1], [0.2], 0, PARAMS)
    with pytest.raises(ValueError):
        ftle_field(PhaseSpaceGrid(3, 3), 0, PARAMS)


# ---------------------------------------------------------------------------
# escape ensembles: vectorized evolution against the scalar routine


def test_escape_ensemble_matches_scalar_evolution():
    # the second input absorbs orbits at renormalization steps, where the
    # vectorized loop renormalizes after the leak test and the scalar one
    # before it: tau stays exact, the FTLE differs in the last bits
    renorm_steps = 0
    for grid, leak, t_max in (
        (PhaseSpaceGrid(12, 11), Leak(0.3, 0.2), 60),
        (PhaseSpaceGrid(60, 60), Leak(0.3, 0.2), 400),
    ):
        ens = escape_ensemble(grid, leak, t_max, PARAMS)
        q, p = grid.points()
        for k in range(q.size):
            rec = evolve_open((q[k], p[k]), leak, t_max, PARAMS)
            i, j = divmod(k, grid.n_p)
            assert ens.tau[i, j] == rec.tau
            assert ens.escaped[i, j] == rec.escaped
            if rec.tau > 0:
                assert_allclose(ens.ftle[i, j], rec.ftle, rtol=1e-12)
            else:
                assert math.isnan(ens.ftle[i, j])
        renorm_steps += int(((ens.tau > 0) & (ens.tau % RENORM_INTERVAL == 0)).sum())
    assert renorm_steps >= 1


def test_escape_ensemble_inside_leak_cells():
    ens = escape_ensemble(PhaseSpaceGrid(10, 3), Leak(0.5, 0.2), 50, PARAMS)
    inside = Leak(0.5, 0.2).contains(ens.grid.q_centers)
    assert_array_equal(ens.tau[inside, :], 0)
    assert ens.escaped[inside, :].all()
    assert np.isnan(ens.ftle[inside, :]).all()


def test_escape_ensemble_validation():
    with pytest.raises(ValueError):
        escape_ensemble(PhaseSpaceGrid(4, 4), Leak(0.5, 0.2), 0, PARAMS)


# ---------------------------------------------------------------------------
# survival curves


def test_survival_from_synthetic_records():
    # 6 cells: two absorbed at start, escapes at 1, 2, 2, one survivor
    tau = [[0, 0, 1], [2, 2, 100]]
    esc = [[True, True, True], [True, True, False]]
    lam = [[np.nan, np.nan, 1.0], [1.0, 1.0, 1.0]]
    curve = survival_probability(make_ensemble(tau, esc, lam))
    assert curve.total == 6
    assert curve.n_unescaped == 1
    assert_array_equal(curve.n[:4], [0, 1, 2, 3])
    assert_allclose(curve.p[:4], [4 / 6, 3 / 6, 1 / 6, 1 / 6])
    assert_allclose(curve.p[-1], 1 / 6)  # survivor never counted out
    assert np.all(np.diff(curve.p) <= 0.0)


def test_survival_initial_value_is_leak_complement():
    # strip [0.4, 0.6) catches exactly 40 of 200 column centers
    ens = escape_ensemble(PhaseSpaceGrid(200, 10), Leak(0.5, 0.2), 400, PARAMS)
    curve = survival_probability(ens)
    assert curve.p[0] == 0.8


def test_tail_fit_on_pure_exponential():
    n = np.arange(61)
    p = 0.8**n
    fit = exponential_tail_fit(SurvivalCurve(n=n, p=p, total=10**6, n_unescaped=0))
    assert_allclose(fit.gamma, -math.log(0.8), rtol=1e-12)
    assert fit.rms_residual <= 1e-12
    # window [1e-3, 1e-1]: 0.8^11 = 0.086 is the first point below 0.1,
    # 0.8^30 = 1.2e-3 the last above 1e-3
    assert (fit.n_lo, fit.n_hi, fit.n_points) == (11, 30, 20)


def test_tail_fit_needs_points_in_window():
    n = np.arange(5)
    with pytest.raises(RuntimeError):
        exponential_tail_fit(SurvivalCurve(n=n, p=0.8**n, total=100, n_unescaped=0))


def test_tail_fit_rejects_nondecaying_tail():
    n = np.arange(12)
    p = 0.01 * (1.0 + 0.01 * n)  # rises inside the fit window
    with pytest.raises(RuntimeError):
        exponential_tail_fit(SurvivalCurve(n=n, p=p, total=100, n_unescaped=0))


def test_short_dwell_cutoff_zero_for_pure_exponential():
    n = np.arange(61)
    curve = SurvivalCurve(n=n, p=0.8**n, total=10**6, n_unescaped=0)
    assert short_dwell_cutoff(curve) == 0


def test_short_dwell_cutoff_skips_flat_transient():
    # no decay for 5 steps, then exactly exponential: local rate first
    # matches the tail at n = 5
    n = np.arange(66)
    p = np.where(n <= 5, 1.0, 0.8 ** (n - 5.0))
    curve = SurvivalCurve(n=n, p=p, total=10**6, n_unescaped=0)
    assert short_dwell_cutoff(curve) == 5


def test_short_dwell_cutoff_rejects_power_law():
    n = np.arange(400)
    p = (1.0 + n) ** -2.0
    curve = SurvivalCurve(n=n, p=p, total=10**6, n_unescaped=0)
    with pytest.raises(RuntimeError):
        short_dwell_cutoff(curve)


# ---------------------------------------------------------------------------
# dwell-conditioned FTLE statistics


def test_mean_ftle_by_dwell_synthetic_groups():
    tau = [[0, 1, 1], [3, 3, 50]]
    esc = [[True, True, True], [True, True, False]]
    lam = [[np.nan, 2.0, 4.0], [1.0, 2.0, 9.0]]
    table = mean_ftle_by_dwell(make_ensemble(tau, esc, lam, t_max=50))
    assert_array_equal(table.tau, [1, 3])
    assert_allclose(table.mean_ftle, [3.0, 1.5])
    assert_array_equal(table.count, [2, 2])


def test_mean_ftle_by_dwell_weighted_mean_identity():
    ens = escape_ensemble(PhaseSpaceGrid(40, 40), Leak(0.5, 0.2), 600, PARAMS)
    table = mean_ftle_by_dwell(ens)
    sel = ens.escaped & (ens.tau >= 1)
    grand = (table.mean_ftle * table.count).sum() / table.count.sum()
    assert_allclose(grand, ens.ftle[sel].mean(), rtol=1e-12)
    assert table.count.sum() == sel.sum()


def test_mean_ftle_by_dwell_requires_escapes():
    tau = [[0, 0], [100, 100]]
    esc = [[True, True], [False, False]]
    lam = [[np.nan, np.nan], [1.0, 1.0]]
    with pytest.raises(ValueError):
        mean_ftle_by_dwell(make_ensemble(tau, esc, lam))


def test_dwell_ftle_field_masking():
    tau = [[0, 2, 5], [7, 40, 100]]
    esc = [[True, True, True], [True, True, False]]
    lam = [[np.nan, 1.0, 2.0], [3.0, 4.0, 5.0]]
    ens = make_ensemble(tau, esc, lam)
    with pytest.warns(UserWarning):  # 5 of 6 escaped < 99%
        dwell, f = dwell_ftle_field(ens, cutoff=5)
    expected = np.array([[False, False, True], [True, True, True]])
    assert_array_equal(dwell.mask, expected)
    assert_array_equal(f.mask, expected)
    assert_allclose(dwell.values[expected], [5.0, 7.0, 40.0, 100.0])
    assert_allclose(f.masked_values(), [2.0, 3.0, 4.0, 5.0])
    with pytest.raises(ValueError):
        dwell_ftle_field(ens, cutoff=-1)


def test_dwell_ftle_field_always_masks_leak_interior():
    ens = escape_ensemble(PhaseSpaceGrid(20, 20), Leak(0.5, 0.2), 500, PARAMS)
    _, f = dwell_ftle_field(ens, cutoff=0)
    inside = Leak(0.5, 0.2).contains(ens.grid.q_centers)
    assert not f.mask[inside, :].any()
    assert f.mask[~inside, :].all()


def test_full_torus_leak_yields_empty_field():
    ens = escape_ensemble(PhaseSpaceGrid(8, 8), Leak(0.5, 1.0), 10, PARAMS)
    assert ens.escape_fraction == 1.0
    _, f = dwell_ftle_field(ens)
    assert not f.mask.any()
    with pytest.raises(ValueError):
        ftle_histogram(f)


# ---------------------------------------------------------------------------
# histograms and strip means


def test_ftle_histogram_normalization():
    g = PhaseSpaceGrid(10, 10)
    rng = np.random.default_rng(5)
    f = ScalarField(g, rng.normal(size=(10, 10)))
    edges, probs = ftle_histogram(f, bins=17)
    assert edges.shape == (18,)
    assert_allclose(probs.sum(), 1.0, rtol=1e-12)


def test_histogram_mean_recovers_constant():
    g = PhaseSpaceGrid(4, 4)
    f = ScalarField(g, np.full((4, 4), 2.5))
    edges, probs = ftle_histogram(f, bins=9)
    assert_allclose(histogram_mean(edges, probs), 2.5, rtol=1e-12)
    with pytest.raises(ValueError):
        histogram_mean(edges, np.zeros_like(probs))


def test_strip_mean_ftle_column_selection():
    g = PhaseSpaceGrid(10, 4)
    vals = np.tile(np.arange(10.0)[:, None], (1, 4))
    f = ScalarField(g, vals)
    # strip [0.2, 0.4) catches centers 0.25 and 0.35 (columns 2 and 3)
    assert strip_mean_ftle(f, Leak(0.3, 0.2)) == 2.5
    mask = np.ones((10, 4), dtype=bool)
    mask[3, :] = False
    f2 = ScalarField(g, vals, mask)
    assert strip_mean_ftle(f2, Leak(0.3, 0.2)) == 2.0


def test_strip_mean_ftle_errors():
    g = PhaseSpaceGrid(10, 4)
    f = ScalarField(g, np.zeros((10, 4)))
    with pytest.raises(ValueError):
        strip_mean_ftle(f, Leak(0.2, 0.001))  # falls between centers
    mask = np.ones((10, 4), dtype=bool)
    mask[2:4, :] = False
    f2 = ScalarField(g, np.zeros((10, 4)), mask)
    with pytest.raises(ValueError):
        strip_mean_ftle(f2, Leak(0.3, 0.2))


def test_strip_scan_matches_pointwise_calls():
    g = PhaseSpaceGrid(20, 5)
    rng = np.random.default_rng(11)
    f = ScalarField(g, rng.normal(size=(20, 5)))
    centers = [0.1, 0.5, 0.9]
    out = strip_scan(f, centers, 0.2)
    ref = [strip_mean_ftle(f, Leak(c, 0.2)) for c in centers]
    assert_allclose(out, ref, rtol=0, atol=0)


# ---------------------------------------------------------------------------
# regression values for the reference leaks (200x200 grid, t_max 1000)


@pytest.fixture(scope="module")
def reference_ensembles():
    grid = PhaseSpaceGrid(200, 200)
    return {
        c: escape_ensemble(grid, Leak(c, 0.2), 1000, PARAMS) for c in (0.2, 0.5)
    }


def test_escape_rate_regression(reference_ensembles):
    # frozen rates: the leak on the sticky strip decays near the ergodic
    # estimate -ln(0.8), the centered leak decays measurably slower
    gamma = {
        c: exponential_tail_fit(survival_probability(e)).gamma
        for c, e in reference_ensembles.items()
    }
    assert_allclose(gamma[0.2], 0.213, atol=0.005)
    assert_allclose(gamma[0.5], 0.161, atol=0.005)


def test_short_dwell_cutoff_regression(reference_ensembles):
    # frozen: survival for the leak at 0.2 is exponential from the start
    cut = {
        c: short_dwell_cutoff(survival_probability(e))
        for c, e in reference_ensembles.items()
    }
    assert cut[0.2] == 0
    assert cut[0.5] == 2


def test_mean_dwell_reflection_symmetry(reference_ensembles):
    # map commutes with (q, p) -> (1-q, 1-p); compare leak 0.2 against 0.8
    base = reference_ensembles[0.2]
    mirrored = escape_ensemble(base.grid, Leak(0.8, 0.2), 1000, PARAMS)
    for ens in (base, mirrored):
        assert ens.escape_fraction > 0.99
    stats = []
    for ens in (base, mirrored):
        sel = ens.tau >= 1
        tau = ens.tau[sel].astype(float)
        stats.append((tau.mean(), tau.std(ddof=1) / math.sqrt(tau.size)))
    (m1, s1), (m2, s2) = stats
    assert abs(m1 - m2) <= 3.0 * math.hypot(s1, s2)


# ---------------------------------------------------------------------------
# leak-position scans


def test_leak_scan_classical_full_torus():
    scan = leak_scan_classical([0.3], 1.0, PhaseSpaceGrid(6, 6), 10, PARAMS)
    assert isinstance(scan, ClassicalScan)
    assert scan.mean_tau[0] == 0.0
    assert math.isnan(scan.mean_ftle[0])
    # next to an empty selection, the smallest one: the strip [0, 0.5)
    # swallows one of two columns and leaves the other column's n_p = 2
    # orbits, enough for finite standard errors
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scan = leak_scan_classical([0.25], 0.5, PhaseSpaceGrid(2, 2), 10, PARAMS)
    assert scan.mean_tau[0] >= 1.0
    assert np.isfinite(scan.se_tau[0])
    assert np.isfinite(scan.se_ftle[0])


def test_leak_scan_classical_symmetry_and_errors():
    grid = PhaseSpaceGrid(80, 80)
    scan = leak_scan_classical([0.2, 0.8], 0.2, grid, 800, PARAMS)
    dev = abs(scan.mean_tau[0] - scan.mean_tau[1])
    assert dev <= 3.0 * math.hypot(scan.se_tau[0], scan.se_tau[1])
    dev = abs(scan.mean_ftle[0] - scan.mean_ftle[1])
    assert dev <= 3.0 * math.hypot(scan.se_ftle[0], scan.se_ftle[1])
    assert np.all(scan.unescaped_fraction < 0.01)
