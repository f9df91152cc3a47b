"""Coherent states, Husimi fields, and Wehrl localization."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from leakmap.quantum import (
    QuantumParams,
    build_projector,
    build_unitary,
    open_propagator,
    resonance_spectrum,
)
from leakmap.quantum import leak_scan_quantum
from leakmap.standard_map import Leak
from leakmap.tomography import (
    M_RANGE,
    PLAN_CACHE_SIZE,
    WINDOW_LOG_CUT,
    HusimiField,
    HusimiTransform,
    _plan,
    _raw_entropy,
    coherent_state,
    entropy_vs_dwell,
    husimi,
    leak_scan,
    mean_husimi,
    state_entropies,
    wehrl_entropy,
)


def open_resonances(n, center, width=0.2):
    qp = QuantumParams(n, 10.0)
    u = build_unitary(qp)
    return resonance_spectrum(open_propagator(u, build_projector(qp, Leak(center, width))))


# ---------------------------------------------------------------------------
# coherent states


def test_coherent_state_normalized():
    for n in (8, 33, 64):
        psi = coherent_state((0.3, 0.7), n)
        assert abs(np.linalg.norm(psi) - 1.0) <= 1e-12


def test_coherent_far_separation_overlap():
    # q-separation 1/2 has two equidistant torus images; with N p0 integer
    # they interfere constructively, doubling the single-Gaussian bound
    n = 64
    bound = math.exp(-math.pi * n / 8.0)
    a = coherent_state((0.25, 0.25), n)
    b = coherent_state((0.75, 0.25), n)
    assert 1.99 * bound <= abs(np.vdot(a, b)) <= 2.01 * bound
    # half-integer N p0 flips the relative image phase and nulls the overlap
    a = coherent_state((0.25, 0.25 + 1.0 / 128.0), n)
    b = coherent_state((0.75, 0.25 + 1.0 / 128.0), n)
    assert abs(np.vdot(a, b)) <= 0.01 * bound


def test_coherent_torus_periodicity():
    n = 32
    base = coherent_state((0.3, 0.7), n)
    shifted_q = coherent_state((1.3, 0.7), n)
    phase = np.exp(2j * np.pi * n * 0.7)
    assert_allclose(shifted_q, phase * base, rtol=0, atol=1e-13)
    shifted_p = coherent_state((0.3, 1.7), n)
    assert_allclose(shifted_p, base, rtol=0, atol=1e-13)


def test_coherent_state_validation():
    with pytest.raises(ValueError):
        coherent_state((0.5, 0.5), 1)


# ---------------------------------------------------------------------------
# Husimi transform: fast path against naive overlaps


def brute_husimi_overlaps(state, n, n_q, n_p):
    q = (np.arange(n_q) + 0.5) / n_q
    p = (np.arange(n_p) + 0.5) / n_p
    out = np.empty((n_q, n_p))
    for i in range(n_q):
        for j in range(n_p):
            alpha = coherent_state((q[i], p[j]), n)
            out[i, j] = abs(np.vdot(alpha, state)) ** 2
    return out


@pytest.mark.parametrize("n,n_q,n_p", [(7, 11, 13), (16, 9, 17)])
def test_overlap_field_matches_brute_force(n, n_q, n_p):
    rng = np.random.default_rng(42)
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    v /= np.linalg.norm(v)
    plan = HusimiTransform(n, n_q, n_p)
    fast = plan.overlap_field(v)
    slow = brute_husimi_overlaps(v, n, n_q, n_p)
    assert_allclose(fast, slow, rtol=1e-10, atol=1e-14 * slow.max())


def test_husimi_mass_sum_and_positivity():
    rng = np.random.default_rng(1)
    v = rng.normal(size=24) + 1j * rng.normal(size=24)
    f = husimi(v, 24, (50, 60))
    assert f.shape == (50, 60)
    assert np.all(f.values >= 0.0)
    assert abs(f.values.sum() - 1.0) <= 1e-12


def test_husimi_peak_at_coherent_center():
    n = 32
    f = husimi(coherent_state((0.5, 0.5), n), n, (101, 101))
    assert np.unravel_index(np.argmax(f.values), f.shape) == (50, 50)


def test_husimi_uniform_position_state_constant_along_q():
    # equal position amplitudes = momentum eigenstate: mass depends on p only
    n = 64
    f = husimi(np.full(n, n ** -0.5, dtype=complex), n, (40, 48))
    sig = f.values.max(axis=0) > 1e-10 * f.values.max()
    ripple = f.values.max(axis=0)[sig] / f.values.min(axis=0)[sig] - 1.0
    assert ripple.max() <= 1e-6


def test_husimi_translation_covariance():
    # shifting the state by one site rolls the field by one site block
    n = 16
    n_q = 64  # multiple of N so a site shift is a whole number of cells
    rng = np.random.default_rng(3)
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    v /= np.linalg.norm(v)
    f0 = husimi(v, n, (n_q, 32)).values
    f1 = husimi(np.roll(v, 1), n, (n_q, 32)).values
    assert_allclose(f1, np.roll(f0, n_q // n, axis=0), rtol=0, atol=1e-12 * f0.max())


def test_husimi_reflection_pairs_with_reflected_leak():
    # site permutation k -> N-k reflects both axes of the top-state field
    n = 16
    ra = open_resonances(n, 0.2, 0.25)
    rb = open_resonances(n, 0.8, 0.25)
    fa = husimi(ra.vectors[:, 0], n, (40, 40)).values
    fb = husimi(rb.vectors[:, 0], n, (40, 40)).values
    assert_allclose(fa, np.flip(fb), rtol=0, atol=1e-12)


def zero_filled_fold_overlaps(plan, state):
    """Overlaps through a zero-padded (n_q, blocks * n_p) buffer folded by a
    reshape-sum: the layout the cyclic placement replaces."""
    n, n_p = plan.N, plan.n_p
    u_max = math.sqrt(WINDOW_LOG_CUT / (math.pi * n))
    k_lo = max(1 - M_RANGE * n, math.floor(-u_max * n))
    k_hi = min((M_RANGE + 1) * n, math.ceil((1.0 + u_max) * n))
    kex = np.arange(k_lo, k_hi + 1)
    w = plan._window * (state[(kex - 1) % n] * np.exp(-1j * np.pi * kex / n_p))[None, :]
    left = int(kex[0] % n_p)
    blocks = -(-(left + kex.size) // n_p)
    buf = np.zeros((plan.n_q, blocks * n_p), dtype=complex)
    buf[:, left : left + kex.size] = w
    amp = np.fft.fft(buf.reshape(plan.n_q, blocks, n_p).sum(axis=1), axis=1)
    return (amp.real**2 + amp.imag**2) / plan._norm2


def reference_entropy(masses):
    m = masses.ravel()
    nz = m > 0.0
    return float(-(m[nz] * np.log(m[nz] * m.size)).sum())


# extended lattice of 49 sites on 17 columns (wraps twice), 127 on 63
# (twice), 77 on 100 (shorter than the grid), 31 on 3 (ten times)
WRAP_CASES = [(16, 17, 17), (64, 63, 63), (32, 100, 100), (8, 200, 3)]


@pytest.mark.parametrize("n,n_q,n_p", WRAP_CASES)
def test_cyclic_placement_equals_zero_filled_fold(n, n_q, n_p):
    rng = np.random.default_rng(5)
    plan = HusimiTransform(n, n_q, n_p)
    for _ in range(3):
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        v /= np.linalg.norm(v)
        assert np.array_equal(plan.overlap_field(v), zero_filled_fold_overlaps(plan, v))


def test_overlap_field_workspace_output_is_not_aliased():
    rng = np.random.default_rng(6)
    plan = HusimiTransform(16, 17, 17)
    a, b = (rng.normal(size=16) + 1j * rng.normal(size=16) for _ in range(2))
    fresh_a = plan.overlap_field(a)
    work = plan.workspace()
    assert np.array_equal(plan.overlap_field(a, work), fresh_a)
    kept = fresh_a.copy()
    fresh_b = plan.overlap_field(b)
    into = plan.overlap_field(b, work)
    assert into is work.mass
    assert np.array_equal(into, fresh_b)
    assert np.array_equal(fresh_a, kept)
    assert not np.shares_memory(fresh_a, fresh_b)
    assert not np.shares_memory(fresh_a, work.mass)


@pytest.mark.parametrize("n,n_q,n_p,center", [(16, 17, 17, 0.3), (64, 63, 63, 0.7), (32, 100, 100, 0.2)])
def test_batch_loops_equal_per_state_path(n, n_q, n_p, center):
    res = open_resonances(n, center)
    plan = _plan(n, n_q, n_p)
    s_coh = plan.coherent_entropy
    fields = [plan.field(res.vectors[:, j]).values for j in range(n)]
    raw = np.array([reference_entropy(f) for f in fields])
    expect = np.clip((raw - s_coh) / (0.0 - s_coh), 0.0, 1.0)
    assert np.array_equal(state_entropies(res, (n_q, n_p)), expect)
    acc = np.zeros((n_q, n_p))
    for f in fields[:5]:
        acc += f
    assert np.array_equal(mean_husimi(res, 5, (n_q, n_p)).values, acc / acc.sum())


@pytest.mark.parametrize("n,cuts", [(32, (0, 16, 32)), (17, (0, 5, 6, 17)), (8, (0, 8))])
def test_state_entropies_in_column_blocks_concatenate_to_the_whole(n, cuts):
    res = open_resonances(n, 0.4)
    whole = state_entropies(res, (30, 31))
    blocks = [state_entropies(res, (30, 31), slice(a, b)) for a, b in zip(cuts[:-1], cuts[1:])]
    assert np.array_equal(np.concatenate(blocks), whole)


@pytest.mark.parametrize("seed", range(5))
def test_entropy_reduction_with_zero_cells(seed):
    # summing the zero cells' terms too regroups the pairwise sum, which
    # changes the result's last bits for most of these seeds
    rng = np.random.default_rng(seed)
    masses = rng.random((30, 40)) ** 4
    masses[rng.random(masses.shape) < 0.2] = 0.0
    masses /= masses.sum()
    work = HusimiTransform(8, 30, 40).workspace()
    expect = reference_entropy(masses)
    assert np.array_equal(_raw_entropy(masses), expect)
    assert np.array_equal(_raw_entropy(masses, work.entropy_scratch), expect)
    dense = masses + 1e-9
    assert np.array_equal(_raw_entropy(dense, work.entropy_scratch), reference_entropy(dense))


def test_plan_cache_is_bounded_and_holds_no_workspace():
    for n in range(8, 8 + PLAN_CACHE_SIZE + 2):
        state_entropies(open_resonances(n, 0.5), (12, 14))
    info = _plan.cache_info()
    assert info.maxsize == PLAN_CACHE_SIZE
    assert info.currsize <= PLAN_CACHE_SIZE
    arrays = [a for a in vars(_plan(8 + PLAN_CACHE_SIZE + 1, 12, 14)).values() if isinstance(a, np.ndarray)]
    assert not any(a.shape == (12, 14) and a.dtype == complex for a in arrays)


def test_transform_validation():
    with pytest.raises(ValueError):
        HusimiTransform(1, 10, 10)
    with pytest.raises(ValueError):
        HusimiTransform(8, 1, 10)
    plan = HusimiTransform(8, 10, 10)
    with pytest.raises(ValueError):
        plan.overlap_field(np.ones(9, dtype=complex))


# ---------------------------------------------------------------------------
# Wehrl localization


def test_wehrl_uniform_is_one_exactly():
    f = HusimiField(np.full((40, 40), 1.0 / 1600.0))
    rec = wehrl_entropy(f, 16)
    assert rec.s_w == 1.0
    assert rec.raw_entropy == 0.0


def test_wehrl_reference_coherent_is_zero_exactly():
    n = 16
    f = husimi(coherent_state((0.5, 0.5), n), n, (80, 80))
    assert wehrl_entropy(f, n).s_w == 0.0


def test_wehrl_translated_coherent_stays_near_zero():
    # the anchor is translation covariant up to grid discretization
    n = 16
    f = husimi(coherent_state((0.3, 0.7), n), n, (80, 80))
    assert wehrl_entropy(f, n).s_w <= 0.05


def test_wehrl_bounds_random_states():
    rng = np.random.default_rng(9)
    for _ in range(10):
        v = rng.normal(size=32) + 1j * rng.normal(size=32)
        v /= np.linalg.norm(v)
        rec = wehrl_entropy(husimi(v, 32, (200, 200)), 32)
        assert 0.0 < rec.s_w <= 1.0


def test_wehrl_resolution_stability():
    res = open_resonances(64, 0.2)
    v = res.vectors[:, 0]
    a = wehrl_entropy(husimi(v, 64, (250, 250)), 64).s_w
    b = wehrl_entropy(husimi(v, 64, (500, 500)), 64).s_w
    assert abs(a - b) < 0.01


def test_degenerate_coherent_reference_raises():
    # a 2x2 grid cannot resolve the N = 4 coherent state: its raw entropy
    # comes out at about +8e-17, so the Wehrl scale has no length, and
    # the per-state path must refuse it just as the single-field one does
    res = open_resonances(4, 0.2, 0.3)
    with pytest.raises(RuntimeError, match="degenerate coherent reference entropy"):
        state_entropies(res, (2, 2))
    with pytest.raises(RuntimeError, match="degenerate coherent reference entropy"):
        wehrl_entropy(husimi(res.vectors[:, 0], 4, (2, 2)), 4)


def test_closed_map_states_cluster_at_high_entropy():
    # frozen regression band: chaotic eigenstates are strongly delocalized
    res = resonance_spectrum(build_unitary(QuantumParams(128, 10.0)))
    sw = state_entropies(res, (500, 500))
    assert sw.min() >= 0.75
    assert sw.max() <= 0.95
    assert 0.84 <= sw.mean() <= 0.91


# ---------------------------------------------------------------------------
# state ensembles


def test_mean_husimi_single_state_identity():
    res = open_resonances(16, 0.2)
    m1 = mean_husimi(res, 1, (60, 60))
    top = husimi(res.vectors[:, 0], 16, (60, 60))
    assert_allclose(m1.values, top.values, rtol=0, atol=1e-14)


def test_mean_husimi_needs_enough_live_states():
    res = open_resonances(10, 0.2)
    with pytest.raises(RuntimeError):
        mean_husimi(res, res.vectors.shape[1] + 1, (30, 30))


def test_mean_husimi_normalized():
    res = open_resonances(16, 0.5)
    f = mean_husimi(res, 5, (40, 40))
    assert abs(f.values.sum() - 1.0) <= 1e-12


def test_entropy_vs_dwell_binning():
    res = open_resonances(32, 0.2)
    sc = entropy_vs_dwell(res, 0.08, (100, 100))
    assert sc.dwell.shape == sc.s_w.shape == (32,)
    for b, mean in zip(np.unique(sc.bin_index), sc.bin_mean):
        members = sc.s_w[sc.bin_index == b]
        assert members.min() - 1e-12 <= mean <= members.max() + 1e-12


def test_entropy_vs_dwell_rejects_closed_system():
    res = resonance_spectrum(build_unitary(QuantumParams(8, 10.0)))
    with pytest.raises(ValueError):
        entropy_vs_dwell(res, 0.08, (50, 50))


def test_leak_scan_entropy_symmetry():
    scan = leak_scan(QuantumParams(32, 10.0), [0.2, 0.3, 0.7, 0.8], 0.2, (100, 100))[1]
    se = np.hypot(scan.se_s_w[:2], scan.se_s_w[::-1][:2])
    dev = np.abs(scan.mean_s_w[:2] - scan.mean_s_w[::-1][:2])
    assert np.all(dev <= 3.0 * se)


def test_leak_scan_shares_one_spectrum_per_position():
    qp = QuantumParams(16, 10.0)
    positions = [0.2, 0.5, 0.8]
    qs, es = leak_scan(qp, positions, 0.2, (40, 40))
    alone = leak_scan_quantum(qp, positions, 0.2)
    assert np.array_equal(qs.mean_dwell, alone.mean_dwell)
    assert np.array_equal(qs.se_dwell, alone.se_dwell)
    for i, center in enumerate(positions):
        s_w = state_entropies(open_resonances(16, center), (40, 40))
        assert es.mean_s_w[i] == s_w.mean()
        assert es.se_s_w[i] == s_w.std(ddof=1) / math.sqrt(16)
