"""Grid ensembles: FTLE fields, dwell statistics, survival curves, scans."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from leakmap import ensemble
from leakmap.ensemble import (
    HISTOGRAM_BINS,
    EscapeEnsemble,
    PhaseSpaceGrid,
    dwell_mask,
    escape_ensemble,
    exponential_tail_fit,
    ftle_ensemble,
    ftle_field,
    ftle_histogram,
    mean_ftle_by_dwell,
    short_dwell_cutoff,
    strip_scan,
    survival_probability,
    _orbits,
    _strip_table,
)
from leakmap.config import ExperimentConfig
from leakmap.runner import leak_scan
from leakmap.standard_map import RENORM_INTERVAL, Leak, MapParams, evolve_open, ftle

from conftest import scan_inputs

PARAMS = MapParams(K=10.0)


def make_ensemble(tau, escaped, ftle_vals, t_max=100):
    return EscapeEnsemble(
        t_max=t_max,
        tau=np.asarray(tau, dtype=np.int64),
        ftle=np.asarray(ftle_vals, dtype=float),
        escaped=np.asarray(escaped, dtype=bool),
    )


# ---------------------------------------------------------------------------
# grids and fields


def test_grid_centers_and_points():
    g = PhaseSpaceGrid(4, 2)
    assert_allclose(g.q_centers, [0.125, 0.375, 0.625, 0.875])
    assert_allclose(g.p_centers, [0.25, 0.75])
    q, p = g.points()
    assert q.shape == p.shape == (8,)
    assert_allclose(q[:2], [0.125, 0.125])  # row-major: q varies slowest
    assert_allclose(p[:2], [0.25, 0.75])


def test_grid_validation():
    with pytest.raises(ValueError):
        PhaseSpaceGrid(1, 10)


def test_ftle_field_matches_single_orbit_routine():
    g = PhaseSpaceGrid(5, 4)
    f = ftle_field(g, 30, PARAMS)
    assert f.shape == (5, 4)
    q, p = g.points()
    ref = np.array([ftle((qi, pi), 30, PARAMS) for qi, pi in zip(q, p)])
    assert_allclose(f.ravel(), ref, rtol=1e-12)


def test_ftle_ensemble_validation():
    with pytest.raises(ValueError):
        ftle_ensemble([0.1], [0.2], 0, PARAMS)
    with pytest.raises(ValueError):
        ftle_field(PhaseSpaceGrid(3, 3), 0, PARAMS)


def test_tangent_frame_overflow_names_the_kick():
    # at |K| = 1e16 the frame overflows between renormalizations; the pass
    # raises with the kick named instead of returning non-finite exponents
    with pytest.raises(RuntimeError, match=r"map\.k = 1e\+16.*RENORM_INTERVAL"):
        ftle_field(PhaseSpaceGrid(4, 4), 40, MapParams(1e16))
    with pytest.raises(RuntimeError, match="map.k"):
        escape_ensemble(PhaseSpaceGrid(4, 4), Leak(0.5, 0.1), 40, MapParams(-1e300))


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
    grid = PhaseSpaceGrid(10, 3)
    ens = escape_ensemble(grid, Leak(0.5, 0.2), 50, PARAMS)
    inside = Leak(0.5, 0.2).contains(grid.q_centers)
    assert_array_equal(ens.tau[inside, :], 0)
    assert ens.escaped[inside, :].all()
    assert np.isnan(ens.ftle[inside, :]).all()


def test_escape_ensemble_validation():
    with pytest.raises(ValueError):
        escape_ensemble(PhaseSpaceGrid(4, 4), Leak(0.5, 0.2), 0, PARAMS)


# Strips of one pass: wrapping (centers 0.0 and 0.95), overlapping,
# duplicated, empty and full, and one whose lower edge is 0.0 (alone, its
# only edge inside the torus is the upper one).
PASS_STRIPS = [
    Leak(0.1, 0.2),
    Leak(0.0, 0.2),
    Leak(0.95, 0.2),
    Leak(0.3, 0.2),
    Leak(0.35, 0.1),
    Leak(0.3, 0.2),
    Leak(0.6, 0.0),
    Leak(0.7, 1.0),
    Leak(0.5, 0.25),
]


def test_one_pass_over_many_strips_equals_one_pass_per_strip(monkeypatch):
    # 23 x 31 = 713 cells run in 12 chunks of 64, the last one partial; the
    # single-strip ensembles run in one chunk
    grid = PhaseSpaceGrid(23, 31)
    single = [escape_ensemble(grid, leak, 300, PARAMS) for leak in PASS_STRIPS]
    monkeypatch.setattr(ensemble, "_CHUNK", 64)
    tau, lam, escaped = _orbits(*grid.points(), PASS_STRIPS, 300, PARAMS)
    assert tau.shape == lam.shape == escaped.shape == (len(PASS_STRIPS), grid.n_q * grid.n_p)
    for k, ens in enumerate(single):
        assert np.array_equal(tau[k], ens.tau.ravel()), PASS_STRIPS[k]
        assert np.array_equal(lam[k], ens.ftle.ravel(), equal_nan=True), PASS_STRIPS[k]
        assert np.array_equal(escaped[k], ens.escaped.ravel()), PASS_STRIPS[k]
    # the empty strip keeps every orbit to the horizon, the full one none
    assert (tau[6] == 300).all() and not escaped[6].any()
    assert (tau[7] == 0).all() and escaped[7].all()
    with pytest.raises(ValueError, match="at most 64 strips"):
        _orbits(*grid.points(), PASS_STRIPS * 9, 300, PARAMS)


def test_floor_reduction_is_np_mod_bit_for_bit():
    # the orbit loop reduces q and p to [0, 1) as x - floor(x)
    rng = np.random.default_rng(7)
    x = np.concatenate([
        rng.uniform(-3.0, 3.0, 10000),
        rng.uniform(-1e-15, 1e-15, 100),
        [-0.0, 0.0, -1.0, 2.0, -1e-18, -5e-324, np.nextafter(1.0, 0.0), -np.nextafter(1.0, 0.0)],
    ])
    assert np.array_equal((x - np.floor(x)).view(np.int64), np.mod(x, 1.0).view(np.int64))


def test_strip_bits_are_the_strips_own_membership():
    # probes at every strip edge, at the bucket edges and their float
    # neighbours, and at random; Leak(0.5, 0.25) has its edges on bucket
    # edges, the others split buckets
    strips = [*PASS_STRIPS, Leak(0.9, 0.2), Leak(1.0 / 3.0, 0.7)]
    edges = [*np.arange(ensemble._BUCKETS) / ensemble._BUCKETS]
    for leak in strips:
        lo = leak.lower
        hi = lo + leak.width
        edges += [lo, hi, hi - 1.0]
    probes = np.concatenate([edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)])
    q = np.concatenate([probes[(probes >= 0.0) & (probes < 1.0)], np.random.default_rng(3).random(20000)])
    masks = ensemble._strip_bits(q, _strip_table(strips))
    for k, leak in enumerate(strips):
        assert np.array_equal((masks >> np.uint64(k)) & np.uint64(1) == 1, leak.contains(q)), leak


# ---------------------------------------------------------------------------
# survival curves


def test_survival_from_synthetic_records():
    # 6 cells: two absorbed at start, escapes at 1, 2, 2, one survivor
    tau = [[0, 0, 1], [2, 2, 100]]
    esc = [[True, True, True], [True, True, False]]
    lam = [[np.nan, np.nan, 1.0], [1.0, 1.0, 1.0]]
    p = survival_probability(make_ensemble(tau, esc, lam))
    assert p.shape == (101,)  # n = 0 .. t_max
    assert_allclose(p[:4], [4 / 6, 3 / 6, 1 / 6, 1 / 6])
    assert_allclose(p[-1], 1 / 6)  # survivor never counted out
    assert np.all(np.diff(p) <= 0.0)


def test_survival_initial_value_is_leak_complement():
    # strip [0.4, 0.6) catches exactly 40 of 200 column centers
    ens = escape_ensemble(PhaseSpaceGrid(200, 10), Leak(0.5, 0.2), 400, PARAMS)
    assert survival_probability(ens)[0] == 0.8


def test_tail_fit_on_pure_exponential():
    n = np.arange(61)
    p = 0.8**n
    fit = exponential_tail_fit(p)
    assert_allclose(fit.gamma, -math.log(0.8), rtol=1e-12)
    assert fit.rms_residual <= 1e-12
    # window [1e-3, 1e-1]: 0.8^30 = 1.2e-3 is the last point above 1e-3
    assert fit.n_hi == 30


def test_tail_fit_needs_points_in_window():
    n = np.arange(5)
    with pytest.raises(RuntimeError):
        exponential_tail_fit(0.8**n)


def test_tail_fit_rejects_nondecaying_tail():
    n = np.arange(12)
    p = 0.01 * (1.0 + 0.01 * n)  # rises inside the fit window
    with pytest.raises(RuntimeError):
        exponential_tail_fit(p)


def test_short_dwell_cutoff_zero_for_pure_exponential():
    p = 0.8 ** np.arange(61)
    assert short_dwell_cutoff(p, exponential_tail_fit(p)) == 0


def test_short_dwell_cutoff_skips_flat_transient():
    # no decay for 5 steps, then exactly exponential: local rate first
    # matches the tail at n = 5
    n = np.arange(66)
    p = np.where(n <= 5, 1.0, 0.8 ** (n - 5.0))
    assert short_dwell_cutoff(p, exponential_tail_fit(p)) == 5


def test_short_dwell_cutoff_rejects_power_law():
    n = np.arange(400)
    p = (1.0 + n) ** -2.0
    with pytest.raises(RuntimeError):
        short_dwell_cutoff(p, exponential_tail_fit(p))


# ---------------------------------------------------------------------------
# dwell-conditioned FTLE statistics


def test_mean_ftle_by_dwell_synthetic_groups():
    tau = [[0, 1, 1], [3, 3, 50]]
    esc = [[True, True, True], [True, True, False]]
    lam = [[np.nan, 2.0, 4.0], [1.0, 2.0, 9.0]]
    groups, mean = mean_ftle_by_dwell(make_ensemble(tau, esc, lam, t_max=50))
    assert_array_equal(groups, [1, 3])
    assert_allclose(mean, [3.0, 1.5])


def test_mean_ftle_by_dwell_weighted_mean_identity():
    ens = escape_ensemble(PhaseSpaceGrid(40, 40), Leak(0.5, 0.2), 600, PARAMS)
    groups, mean = mean_ftle_by_dwell(ens)
    sel = ens.escaped & (ens.tau >= 1)
    count = np.bincount(ens.tau[sel])[groups]
    grand = (mean * count).sum() / count.sum()
    assert_allclose(grand, ens.ftle[sel].mean(), rtol=1e-12)
    assert count.sum() == sel.sum()


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
        mask = dwell_mask(ens, cutoff=5)
    expected = np.array([[False, False, True], [True, True, True]])
    assert_array_equal(mask, expected)
    assert_allclose(ens.tau[mask], [5.0, 7.0, 40.0, 100.0])
    assert_allclose(ens.ftle[mask], [2.0, 3.0, 4.0, 5.0])
    with pytest.raises(ValueError):
        dwell_mask(ens, cutoff=-1)


def test_dwell_ftle_field_always_masks_leak_interior():
    grid = PhaseSpaceGrid(20, 20)
    ens = escape_ensemble(grid, Leak(0.5, 0.2), 500, PARAMS)
    mask = dwell_mask(ens, cutoff=0)
    inside = Leak(0.5, 0.2).contains(grid.q_centers)
    assert not mask[inside, :].any()
    assert mask[~inside, :].all()


def test_full_torus_leak_yields_empty_field():
    ens = escape_ensemble(PhaseSpaceGrid(8, 8), Leak(0.5, 1.0), 10, PARAMS)
    assert ens.escape_fraction == 1.0
    mask = dwell_mask(ens, 0)
    assert not mask.any()
    with pytest.raises(ValueError):
        ftle_histogram(ens.ftle[mask])


# ---------------------------------------------------------------------------
# histograms and strip means


def test_ftle_histogram_normalization():
    rng = np.random.default_rng(5)
    edges, probs = ftle_histogram(rng.normal(size=100))
    assert edges.shape == (HISTOGRAM_BINS + 1,)
    assert_allclose(probs.sum(), 1.0, rtol=1e-12)


def test_strip_mean_ftle_column_selection():
    vals = np.tile(np.arange(10.0)[:, None], (1, 4))
    # strip [0.2, 0.4) catches centers 0.25 and 0.35 (columns 2 and 3)
    assert strip_scan(vals, [0.3], 0.2)[0] == 2.5


def test_strip_mean_ftle_of_an_empty_strip_is_nan():
    # a strip between two column centers, or of width 0, holds no column
    vals = np.tile(np.arange(10.0)[:, None], (1, 4))
    assert np.isnan(strip_scan(vals, [0.2, 0.5], 0.0)).all()
    # only the empty strip is undefined: [0.1495, 0.1505) holds the
    # center 0.15 of column 1, [0.1995, 0.2005) no center
    assert_array_equal(strip_scan(vals, [0.15, 0.2], 0.001), [1.0, np.nan])


def test_strip_scan_matches_pointwise_calls():
    g = PhaseSpaceGrid(20, 5)
    rng = np.random.default_rng(11)
    f = rng.normal(size=(20, 5))
    centers = [0.1, 0.5, 0.9]
    out = strip_scan(f, centers, 0.2)
    ref = [f[Leak(c, 0.2).contains(g.q_centers)].mean() for c in centers]
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
    cut = {}
    for c, e in reference_ensembles.items():
        p = survival_probability(e)
        cut[c] = short_dwell_cutoff(p, exponential_tail_fit(p))
    assert cut[0.2] == 0
    assert cut[0.5] == 2


def test_dwell_ftle_is_finite_on_the_dwell_mask(reference_ensembles):
    # FTLE is NaN only where tau = 0, and every mask requires tau >= 1
    for e in reference_ensembles.values():
        p = survival_probability(e)
        mask = dwell_mask(e, short_dwell_cutoff(p, exponential_tail_fit(p)))
        assert mask.any()
        assert np.isfinite(e.ftle[mask]).all()


def test_mean_dwell_reflection_symmetry(reference_ensembles):
    # map commutes with (q, p) -> (1-q, 1-p); compare leak 0.2 against 0.8
    base = reference_ensembles[0.2]
    mirrored = escape_ensemble(PhaseSpaceGrid(200, 200), Leak(0.8, 0.2), 1000, PARAMS)
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
# per-position statistics of the leak-position scan


def test_leak_scan_full_torus_and_smallest_selection():
    cfg = ExperimentConfig(
        grid_q=6, grid_p=6, t_max=10, leak_width=1.0, dim=8, scan_positions=1, scan_husimi_q=20, scan_husimi_p=20
    )
    scan = leak_scan(cfg, None, *scan_inputs(cfg))[0]
    assert scan["mean_tau"][0] == 0.0
    assert scan["se_tau"][0] == 0.0
    assert math.isnan(scan["mean_lambda"][0])
    # next to an empty selection, the smallest one: the strip [0, 0.5)
    # swallows one of two columns and leaves the other column's n_p = 2
    # orbits, enough for finite standard errors
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cfg = dataclasses.replace(cfg, grid_q=2, grid_p=2, leak_width=0.5, scan_positions=4)
        scan = leak_scan(cfg, None, *scan_inputs(cfg))[0]
    assert scan["q_L"][1] == 0.25
    assert scan["mean_tau"][1] >= 1.0
    assert np.isfinite(scan["se_tau"][1])
    assert np.isfinite(scan["se_lambda"][1])


def test_leak_scan_classical_symmetry_and_errors():
    # q -> 1 - q maps the leaked map onto itself, so the classical columns
    # are mirror symmetric within three standard errors; the horizon is long
    # enough that almost every orbit escapes
    cfg = ExperimentConfig(grid_q=80, grid_p=80, t_max=800, dim=32, scan_positions=10, scan_husimi_q=100, scan_husimi_p=100)
    scan = leak_scan(cfg, None, *scan_inputs(cfg))[0]
    i = np.arange(1, 5)
    j = 10 - i
    for k in ("tau", "lambda"):
        mean, se = scan[f"mean_{k}"], scan[f"se_{k}"]
        assert np.all(np.abs(mean[i] - mean[j]) <= 3.0 * np.hypot(se[i], se[j])), k
    assert np.all(scan["unescaped_fraction"] < 0.01)
