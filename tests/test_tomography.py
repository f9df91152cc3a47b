"""Coherent states, Husimi fields, and Wehrl localization."""

import math
import pickle
import re
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from leakmap.config import ExperimentConfig
from leakmap.quantum import (
    QuantumParams,
    build_projector,
    build_unitary,
    open_propagator,
    resonance_spectrum,
)
from leakmap import runner, tomography
from leakmap.runner import leak_scan
from leakmap.standard_map import Leak
from leakmap.tomography import (
    BIN_INDEX_LIMIT,
    BLOCK_CELLS,
    M_RANGE,
    WINDOW_LOG_CUT,
    HusimiTransform,
    _coherent_entropy,
    _raw_entropy,
    _wehrl_scale,
    bin_means,
    coherent_state,
    dwell_bins,
    entropy_grid,
    mean_husimi,
    state_entropies,
)

from conftest import scan_inputs


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


# at N = 128 the band (87 sites) is well short of the lattice (217)
@pytest.mark.parametrize("n,n_q,n_p", [(7, 11, 13), (16, 9, 17), (128, 31, 37)])
def test_overlap_field_matches_brute_force(n, n_q, n_p):
    rng = np.random.default_rng(42)
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    v /= np.linalg.norm(v)
    plan = HusimiTransform(n, n_q, n_p)
    assert band_sites(plan)[0].shape[1] < extended_sites(n).size
    fast = plan.overlap_field(v, plan.workspace())
    slow = brute_husimi_overlaps(v, n, n_q, n_p)
    assert_allclose(fast, slow, rtol=1e-10, atol=1e-14 * slow.max())


def test_husimi_mass_sum_and_positivity():
    rng = np.random.default_rng(1)
    v = rng.normal(size=24) + 1j * rng.normal(size=24)
    f = HusimiTransform(24, 50, 60).field(v)
    assert f.shape == (50, 60)
    assert np.all(f >= 0.0)
    assert abs(f.sum() - 1.0) <= 1e-12


def test_husimi_peak_at_coherent_center():
    n = 32
    f = HusimiTransform(n, 101, 101).field(coherent_state((0.5, 0.5), n))
    assert np.unravel_index(np.argmax(f), f.shape) == (50, 50)


def test_husimi_uniform_position_state_constant_along_q():
    # equal position amplitudes = momentum eigenstate: mass depends on p only
    n = 64
    f = HusimiTransform(n, 40, 48).field(np.full(n, n ** -0.5, dtype=complex))
    sig = f.max(axis=0) > 1e-10 * f.max()
    ripple = f.max(axis=0)[sig] / f.min(axis=0)[sig] - 1.0
    assert ripple.max() <= 1e-6


def test_husimi_translation_covariance():
    # shifting the state by one site rolls the field by one site block
    n = 16
    n_q = 64  # multiple of N so a site shift is a whole number of cells
    rng = np.random.default_rng(3)
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    v /= np.linalg.norm(v)
    plan = HusimiTransform(n, n_q, 32)
    f0 = plan.field(v)
    f1 = plan.field(np.roll(v, 1))
    assert_allclose(f1, np.roll(f0, n_q // n, axis=0), rtol=0, atol=1e-12 * f0.max())


def test_husimi_reflection_pairs_with_reflected_leak():
    # site permutation k -> N-k reflects both axes of the top-state field
    n = 16
    ra = open_resonances(n, 0.2, 0.25)
    rb = open_resonances(n, 0.8, 0.25)
    plan = HusimiTransform(n, 40, 40)
    fa = plan.field(ra.vectors[:, 0])
    fb = plan.field(rb.vectors[:, 0])
    assert_allclose(fa, np.flip(fb), rtol=0, atol=1e-12)


def extended_sites(n):
    """The extended lattice k' = k - m N on which the plan's bands lie."""
    u_max = math.sqrt(WINDOW_LOG_CUT / (math.pi * n))
    k_lo = max(1 - M_RANGE * n, math.floor(-u_max * n))
    k_hi = min((M_RANGE + 1) * n, math.ceil((1.0 + u_max) * n))
    return np.arange(k_lo, k_hi + 1)


def band_sites(plan):
    """The plan's (n_q, L) band: extended-lattice offsets and window weights."""
    index = np.hstack([index for index, _ in plan._chunks])
    window = np.hstack([window for _, window in plan._chunks])
    return index, window


def phased_sites(plan, state):
    kex = extended_sites(plan.N)
    return state[(kex - 1) % plan.N] * np.exp(-1j * np.pi * kex / plan.n_p)


def folded_overlaps(plan, buf):
    """|FFT|^2 / norm of a zero-filled (n_q, blocks * n_p) buffer folded on
    n_p columns by a reshape-sum."""
    amp = np.fft.fft(buf.reshape(plan.n_q, -1, plan.n_p).sum(axis=1), axis=1)
    return (amp.real**2 + amp.imag**2) / plan._norm2


def zero_filled_band_overlaps(plan, state):
    """Overlaps through a zero-padded buffer holding each row's band from
    column 0, folded by a reshape-sum: the layout the chunked fold
    replaces."""
    index, window = band_sites(plan)
    length = index.shape[1]
    buf = np.zeros((plan.n_q, -(-length // plan.n_p) * plan.n_p), dtype=complex)
    buf[:, :length] = phased_sites(plan, state)[index] * window
    return folded_overlaps(plan, buf)


def full_lattice_overlaps(plan, state):
    """Overlaps with every row windowed over the whole extended lattice,
    site k' on column k' mod n_p: the arithmetic the per-row band replaces."""
    n, n_p = plan.N, plan.n_p
    kex = extended_sites(n)
    window = np.exp(-np.pi * n * (kex[None, :] / n - plan.q[:, None]) ** 2)
    left = int(kex[0] % n_p)
    buf = np.zeros((plan.n_q, -(-(left + kex.size) // n_p) * n_p), dtype=complex)
    buf[:, left : left + kex.size] = window * phased_sites(plan, state)[None, :]
    return folded_overlaps(plan, buf)


def reference_norm_field(plan):
    """The coherent-state norm field summed over every image pair."""
    u = np.arange(1, plan.N + 1)[None, :] / plan.N - plan.q[:, None]
    coeff = np.zeros((2 * M_RANGE + 1, plan.n_q))
    for d in range(0, 2 * M_RANGE + 1):
        for m in range(max(-M_RANGE, d - M_RANGE), M_RANGE + 1):
            expo = (u - m) ** 2 + (u - m + d) ** 2
            coeff[d] += np.exp(-np.pi * plan.N * expo).sum(axis=1)
    norm2 = np.repeat(coeff[0][:, None], plan.n_p, axis=1)
    for d in range(1, 2 * M_RANGE + 1):
        norm2 += 2.0 * np.cos(2 * np.pi * plan.N * plan.p * d)[None, :] * coeff[d][:, None]
    return norm2


def reference_entropy(masses):
    m = masses.ravel()
    nz = m > 0.0
    return float(-(m[nz] * np.log(m[nz] * m.size)).sum())


# bands of 31 sites on 17 columns (wraps once), 62 on 63 (one column to
# spare), 44 on 100 (shorter than the grid), 22 on 3 (eight chunks)
WRAP_CASES = [(16, 17, 17), (64, 63, 63), (32, 100, 100), (8, 200, 3)]


@pytest.mark.parametrize("n,n_q,n_p", WRAP_CASES)
def test_cyclic_placement_equals_zero_filled_fold(n, n_q, n_p):
    rng = np.random.default_rng(5)
    plan = HusimiTransform(n, n_q, n_p)
    for _ in range(3):
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        v /= np.linalg.norm(v)
        assert np.array_equal(plan.overlap_field(v, plan.workspace()), zero_filled_band_overlaps(plan, v))


@pytest.mark.parametrize("n,n_q,n_p", WRAP_CASES + [(512, 100, 100), (512, 500, 500)])
def test_band_fold_matches_full_lattice_fold(n, n_q, n_p):
    # the band drops only window weights below exp(-WINDOW_LOG_CUT) and
    # moves each row's phase, which |.|^2 removes; the last state is a
    # unit vector on one site, the form of a leaked map's zero mode (the
    # Schur vector of an absorbed site)
    rng = np.random.default_rng(7)
    plan = HusimiTransform(n, n_q, n_p)
    states = [rng.normal(size=n) + 1j * rng.normal(size=n) for _ in range(2)]
    states.append(np.eye(n, dtype=complex)[int(0.3 * n)])
    for v in states:
        full = full_lattice_overlaps(plan, v)
        assert_allclose(plan.overlap_field(v, plan.workspace()), full, rtol=0, atol=1e-14 * full.max())


@pytest.mark.parametrize("n,n_q,n_p", WRAP_CASES + [(7, 11, 13), (512, 100, 100), (512, 31, 500)])
def test_band_holds_every_site_the_window_reaches(n, n_q, n_p):
    plan = HusimiTransform(n, n_q, n_p)
    kex = extended_sites(n)
    window = np.exp(-np.pi * n * (kex[None, :] / n - plan.q[:, None]) ** 2)
    index, band_window = band_sites(plan)
    start, length = index[:, 0], index.shape[1]
    assert np.array_equal(index, start[:, None] + np.arange(length))
    assert start.min() >= 0 and start.max() + length <= kex.size
    assert np.array_equal(band_window, np.take_along_axis(window, index, axis=1))
    rows, sites = np.nonzero(window >= math.exp(-WINDOW_LOG_CUT))
    offset = sites - start[rows]
    assert offset.min() >= 0 and offset.max() < length


@pytest.mark.parametrize("n,n_q,n_p", WRAP_CASES + [(7, 11, 13), (512, 100, 100), (512, 500, 500)])
def test_norm_field_equals_every_image_pair_summed(n, n_q, n_p):
    plan = HusimiTransform(n, n_q, n_p)
    assert plan._norm2.tobytes() == reference_norm_field(plan).tobytes()


def test_overlap_field_workspace_output_is_not_aliased():
    rng = np.random.default_rng(6)
    plan = HusimiTransform(16, 17, 17)
    a, b = (rng.normal(size=16) + 1j * rng.normal(size=16) for _ in range(2))
    fresh_a = plan.overlap_field(a, plan.workspace())
    work = plan.workspace()
    assert np.array_equal(plan.overlap_field(a, work), fresh_a)
    kept = fresh_a.copy()
    fresh_b = plan.overlap_field(b, plan.workspace())
    into = plan.overlap_field(b, work)
    assert into is work.mass
    assert np.array_equal(into, fresh_b)
    assert np.array_equal(fresh_a, kept)
    assert not np.shares_memory(fresh_a, fresh_b)
    assert not np.shares_memory(fresh_a, work.mass)


# 90 x 70 in blocks of 7 rows (the last one 6) or of one row; 90 x 17,
# narrower than the 62-site band, so the wrap chunks are blocked too
@pytest.mark.parametrize("n_p", [70, 17])
@pytest.mark.parametrize("block_cells", [500, 1])
def test_row_blocks_change_no_bit(monkeypatch, n_p, block_cells):
    res = open_resonances(64, 0.3)
    whole = HusimiTransform(64, 90, n_p)
    assert len(whole._blocks) == 1
    monkeypatch.setattr(tomography, "BLOCK_CELLS", block_cells)
    blocked = HusimiTransform(64, 90, n_p)
    assert len(blocked._blocks) == -(-90 // max(1, block_cells // n_p)) > 1
    assert len(whole._chunks) == len(blocked._chunks) == (1 if n_p == 70 else 4)
    work = blocked.workspace()
    assert work.fold.size <= max(block_cells, n_p)
    for j in (0, 5, 63):
        v = res.vectors[:, j]
        assert np.array_equal(blocked.overlap_field(v, work), whole.overlap_field(v, whole.workspace()))
    assert np.array_equal(state_entropies(res.vectors, blocked), state_entropies(res.vectors, whole))
    assert np.array_equal(mean_husimi(res.vectors[:, :6], blocked), mean_husimi(res.vectors[:, :6], whole))


# N and grids from 7 x 2000 to 1000^2; 90 x 17, 333 x 41 and 200 x 3 are
# narrower than their band, so their chunks wrap
@pytest.mark.parametrize(
    "n,n_q,n_p",
    [(512, 7, 2000), (8, 200, 3), (16, 17, 17), (64, 90, 17), (13, 12, 14), (256, 333, 41),
     (512, 120, 120), (128, 300, 300), (512, 500, 500), (512, 1000, 1000)],
)
def test_plan_build_in_row_blocks_changes_no_bit(monkeypatch, n, n_q, n_p):
    # the window, the reached sites and the norm field's image-pair sums are
    # built per row, so one row at a time equals the whole grid at once
    plans = []
    for block_cells in (1, 2**30):
        monkeypatch.setattr(tomography, "BLOCK_CELLS", block_cells)
        plans.append(HusimiTransform(n, n_q, n_p))
    rows, whole = plans
    assert len(rows._blocks) == n_q and len(whole._blocks) == 1
    assert np.array_equal(rows._norm2, whole._norm2)
    assert len(rows._chunks) == len(whole._chunks)
    for (index_a, window_a), (index_b, window_b) in zip(rows._chunks, whole._chunks):
        assert np.array_equal(index_a, index_b) and np.array_equal(window_a, window_b)


def test_plan_build_memory_at_1000_squared():
    # the plan's norm field (8 MB), its band sites and window (2.8 MB) and
    # row blocks of temporaries; whole-grid windows and norm-field products
    # took the peak to 26.6 MiB
    tracemalloc.start()
    try:
        HusimiTransform(512, 1000, 1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 14e6


def test_mean_husimi_holds_the_field_the_mean_and_one_block():
    # the field, the accumulator that is normalized in place, one block's
    # fold and FFT buffers and 1 MB for the rest; the entropy buffers are
    # never allocated, and a fresh normalized mean would add 8 MB
    res = open_resonances(256, 0.3)
    plan = HusimiTransform(256, 1000, 1000)
    tracemalloc.start()
    try:
        mean_husimi(res.vectors[:, :2], plan)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 8 * 1000 * 1000 + 2 * 16 * BLOCK_CELLS + 1_000_000


def test_entropy_buffers_are_allocated_on_first_use():
    work = HusimiTransform(16, 30, 40).workspace()
    assert "entropy_scratch" not in vars(work)
    positive, kept, terms = work.entropy_scratch
    assert positive.size == kept.size == terms.size == 1200
    assert work.entropy_scratch[1] is kept
    assert not np.shares_memory(kept, work.amp) and not np.shares_memory(terms, work.amp)


@pytest.mark.parametrize("n,n_q,n_p,center", [(16, 17, 17, 0.3), (64, 63, 63, 0.7), (32, 100, 100, 0.2)])
def test_batch_loops_equal_per_state_path(n, n_q, n_p, center):
    res = open_resonances(n, center)
    plan = HusimiTransform(n, n_q, n_p)
    s_coh = reference_entropy(plan.field(coherent_state((0.5, 0.5), n)))
    assert _coherent_entropy(plan, plan.workspace()) == s_coh
    fields = [plan.field(res.vectors[:, j]) for j in range(n)]
    raw = np.array([reference_entropy(f) for f in fields])
    expect = np.clip((raw - s_coh) / (0.0 - s_coh), 0.0, 1.0)
    assert np.array_equal(state_entropies(res.vectors, plan), expect)
    acc = np.zeros((n_q, n_p))
    for f in fields[:5]:
        acc += f
    assert np.array_equal(mean_husimi(res.vectors[:, :5], plan), acc / acc.sum())


@pytest.mark.parametrize("n,cuts", [(32, (0, 16, 32)), (17, (0, 5, 6, 17)), (8, (0, 8))])
def test_state_entropies_in_column_blocks_concatenate_to_the_whole(n, cuts):
    res = open_resonances(n, 0.4)
    plan = HusimiTransform(n, 30, 31)
    whole = state_entropies(res.vectors, plan)
    blocks = [state_entropies(res.vectors[:, a:b], plan) for a, b in zip(cuts[:-1], cuts[1:])]
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
    assert np.array_equal(_raw_entropy(masses, work.entropy_scratch), expect)
    dense = masses + 1e-9
    assert np.array_equal(_raw_entropy(dense, work.entropy_scratch), reference_entropy(dense))


def test_plan_holds_no_workspace():
    # per-call buffers live in a workspace, never on the plan that a batch used
    plan = HusimiTransform(13, 12, 14)
    state_entropies(open_resonances(13, 0.5).vectors, plan)
    arrays = [a for a in vars(plan).values() if isinstance(a, np.ndarray)]
    assert not any(a.shape == (12, 14) and a.dtype == complex for a in arrays)


def plan_snapshot(plan):
    return {key: (id(value), pickle.dumps(value)) for key, value in vars(plan).items()}


def test_plan_is_immutable_and_shared_by_concurrent_batches():
    # nothing on a plan changes once it is built, so threads may run entropy
    # batches on one plan at once; three threads on a 1 us switch interval
    res = open_resonances(48, 0.3)
    plan = HusimiTransform(48, 37, 41)
    before = plan_snapshot(plan)
    serial = state_entropies(res.vectors, plan)
    assert plan_snapshot(plan) == before
    barrier = threading.Barrier(3)

    def batch(_):
        barrier.wait(timeout=10.0)
        return state_entropies(res.vectors, plan)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(3) as pool:
            results = [job.result(timeout=60.0) for job in [pool.submit(batch, k) for k in range(3)]]
    finally:
        sys.setswitchinterval(interval)
    assert plan_snapshot(plan) == before
    for s_w in results:
        assert np.array_equal(s_w, serial)


def test_transform_validation():
    with pytest.raises(ValueError):
        HusimiTransform(1, 10, 10)
    with pytest.raises(ValueError):
        HusimiTransform(8, 1, 10)
    plan = HusimiTransform(8, 10, 10)
    with pytest.raises(ValueError):
        plan.overlap_field(np.ones(9, dtype=complex), plan.workspace())


def test_plan_for_another_n_fails_in_both_entry_points():
    res = open_resonances(16, 0.2)
    plan = HusimiTransform(17, 30, 30)
    with pytest.raises(ValueError, match=re.escape("state length 16 != N = 17")):
        state_entropies(res.vectors, plan)
    with pytest.raises(ValueError, match=re.escape("state length 16 != N = 17")):
        mean_husimi(res.vectors, plan)


# ---------------------------------------------------------------------------
# Wehrl localization


def test_wehrl_uniform_is_one_exactly():
    plan = HusimiTransform(16, 40, 40)
    raw = _raw_entropy(np.full((40, 40), 1.0 / 1600.0), plan.workspace().entropy_scratch)
    assert type(raw) is float
    assert raw == 0.0
    assert _wehrl_scale(raw, _coherent_entropy(plan, plan.workspace())) == 1.0


def test_wehrl_reference_coherent_is_zero_exactly():
    n = 16
    assert np.array_equal(state_entropies(coherent_state((0.5, 0.5), n)[:, None], HusimiTransform(n, 80, 80)), [0.0])


def test_wehrl_translated_coherent_stays_near_zero():
    # the anchor is translation covariant up to grid discretization
    n = 16
    assert state_entropies(coherent_state((0.3, 0.7), n)[:, None], HusimiTransform(n, 80, 80))[0] <= 0.05


def test_wehrl_bounds_random_states():
    rng = np.random.default_rng(9)
    plan = HusimiTransform(32, 200, 200)
    for _ in range(10):
        v = rng.normal(size=32) + 1j * rng.normal(size=32)
        v /= np.linalg.norm(v)
        s_w = state_entropies(v[:, None], plan)[0]
        assert 0.0 < s_w <= 1.0


def test_wehrl_resolution_stability():
    res = open_resonances(64, 0.2)
    v = res.vectors[:, :1]
    a = state_entropies(v, HusimiTransform(64, 250, 250))[0]
    b = state_entropies(v, HusimiTransform(64, 500, 500))[0]
    assert abs(a - b) < 0.01


def test_degenerate_coherent_reference_raises():
    # a 2x2 grid cannot resolve the N = 4 coherent state: its raw entropy
    # comes out at about +8e-17, so the Wehrl scale has no length, and
    # neither the batch nor the reference on its own may be used
    res = open_resonances(4, 0.2, 0.3)
    plan = HusimiTransform(4, 2, 2)
    with pytest.raises(RuntimeError, match="degenerate coherent reference entropy"):
        state_entropies(res.vectors, plan)
    with pytest.raises(RuntimeError, match="degenerate coherent reference entropy"):
        _coherent_entropy(plan, plan.workspace())


def test_closed_map_states_cluster_at_high_entropy():
    # frozen regression band: chaotic eigenstates are strongly delocalized
    res = resonance_spectrum(build_unitary(QuantumParams(128, 10.0)))
    sw = state_entropies(res.vectors, HusimiTransform(128, 500, 500))
    assert sw.min() >= 0.75
    assert sw.max() <= 0.95
    assert 0.84 <= sw.mean() <= 0.91


# ---------------------------------------------------------------------------
# entropy quadrature grid


def test_husimi_fourier_modes_lie_under_the_coherent_envelope():
    # a state's Husimi field is its Wigner function smoothed by the
    # coherent state, so no Fourier mode beyond n exceeds exp(-pi n^2 / 2N),
    # down to the double-precision floor where entropy_grid stops
    N, n = 64, 256
    k = np.abs(np.fft.fftfreq(n, 1.0 / n))
    beyond = np.maximum(k[:, None], k[None, :])
    last = math.floor(math.sqrt(2.0 * N * math.log(2.0**52) / math.pi))
    assert last == 38
    rng = np.random.default_rng(3)
    for _ in range(3):
        v = rng.normal(size=N) + 1j * rng.normal(size=N)
        modes = np.abs(np.fft.fft2(HusimiTransform(N, n, n).field(v)))
        for m in range(1, last + 1):
            assert modes[beyond >= m].max() <= math.exp(-math.pi * m * m / (2 * N)), m


def test_entropy_grid_is_the_smallest_5_smooth_size_past_the_envelope():
    assert [entropy_grid(N) for N in (16, 64, 128, 256, 512)] == [20, 40, 60, 80, 120]
    smooth = sorted(2**a * 3**b * 5**c for a in range(12) for b in range(8) for c in range(6))
    for N in range(2, 1100):
        bound = math.sqrt(2.0 * N * 52 * math.log(2.0) / math.pi)
        assert entropy_grid(N) == next(x for x in smooth if x >= bound), N


# ---------------------------------------------------------------------------
# state ensembles


def test_mean_husimi_single_state_identity():
    res = open_resonances(16, 0.2)
    plan = HusimiTransform(16, 60, 60)
    m1 = mean_husimi(res.vectors[:, :1], plan)
    top = plan.field(res.vectors[:, 0])
    assert_allclose(m1, top, rtol=0, atol=1e-14)


def test_mean_husimi_needs_enough_live_states(tmp_path, monkeypatch):
    # an empty set of states has no mean field
    res = open_resonances(10, 0.2)
    plan = HusimiTransform(10, 30, 30)
    with pytest.raises(RuntimeError, match="no mass"):
        mean_husimi(res.vectors[:, :0], plan)
    # the quantum stage picks the top states: asking for more than there
    # are nonzero-dwell states fails before any mean field is imaged
    calls = []
    monkeypatch.setattr(runner, "mean_husimi", lambda *a: calls.append(1))
    n_alive = int((res.dwell > 0.0).sum())
    cfg = ExperimentConfig(dim=10, leak_center=0.2, top_states=res.vectors.shape[1] + 1, output=str(tmp_path))
    with pytest.raises(RuntimeError, match=f"only {n_alive} nonzero-dwell states available, need m=11"):
        runner.cmd_quantum(cfg, None)
    assert calls == []


def test_mean_husimi_normalized():
    res = open_resonances(16, 0.5)
    f = mean_husimi(res.vectors[:, :5], HusimiTransform(16, 40, 40))
    assert abs(f.sum() - 1.0) <= 1e-12


def test_entropy_vs_dwell_binning():
    res = open_resonances(32, 0.2)
    bins = dwell_bins(res.dwell, 0.08)
    s_w = state_entropies(res.vectors, HusimiTransform(32, 100, 100))
    assert bins.dtype == np.int64
    assert np.array_equal(bins, np.floor(res.dwell / 0.08))
    index, center, mean, count = bin_means(bins, s_w, 0.08)
    assert np.array_equal(index, np.unique(bins))
    assert np.array_equal(center, (index + 0.5) * 0.08)
    assert count.sum() == 32
    for b, m, c in zip(index, mean, count):
        members = s_w[bins == b]
        assert c == members.size
        assert members.min() - 1e-12 <= m <= members.max() + 1e-12


def test_entropy_vs_dwell_rejects_closed_system():
    res = resonance_spectrum(build_unitary(QuantumParams(8, 10.0)))
    with pytest.raises(ValueError):
        dwell_bins(res.dwell, 0.08)


@pytest.mark.parametrize("width", [0.0, math.nan, math.inf])
def test_entropy_vs_dwell_rejects_bad_bin_width(width):
    with pytest.raises(ValueError, match="bin width"):
        dwell_bins(open_resonances(8, 0.2).dwell, width)


def test_bin_centers_lie_strictly_inside_their_bins_up_to_the_limit():
    # indices just below 2^52, where rounding (index + 1/2) * width is
    # nearly half a bin, checked in exact arithmetic
    rng = np.random.default_rng(7)
    for width in (1e-15, 0.08, 0.3, 7.0, *10.0 ** rng.uniform(-12, 3, 20)):
        top = BIN_INDEX_LIMIT - np.arange(2, 200)
        dwell = np.concatenate([top * width, rng.uniform(0.0, 1.0, 50) * top[0] * width])
        bins = dwell_bins(dwell, width)
        assert bins.max() >= BIN_INDEX_LIMIT - 300
        index, center, _, _ = bin_means(bins, np.zeros(dwell.size), width)
        w = Fraction(width)
        for i, c in zip(index.tolist(), center.tolist()):
            assert i * w < Fraction(c) < (i + 1) * w, (width, i)
    with pytest.raises(ValueError, match="bin index reaches 2\\^52"):
        dwell_bins(np.array([0.5, BIN_INDEX_LIMIT * 0.08]), 0.08)


def test_entropy_vs_dwell_rejects_bin_index_past_int64():
    res = open_resonances(8, 0.2)
    message = f"bin width 1e-300 is too small for the largest dwell time {res.dwell.max()}"
    with pytest.raises(ValueError, match=re.escape(message)):
        dwell_bins(res.dwell, 1e-300)


def test_bin_index_overflowing_a_double_gets_only_the_range_message():
    # dwell / 5e-324 overflows; the suite turns numpy's overflow warning into
    # an error, so only the precise message may surface
    res = open_resonances(8, 0.2)
    with pytest.raises(ValueError, match="bin width 5e-324 is too small"):
        dwell_bins(res.dwell, 5e-324)


def test_leak_scan_entropy_symmetry():
    # q -> 1 - q maps the leaked map onto itself, so the quantum dwell time
    # and the Wehrl entropy are mirror symmetric within three standard errors
    cfg = ExperimentConfig(grid_q=80, grid_p=80, t_max=800, dim=32, scan_positions=10, scan_husimi_q=100, scan_husimi_p=100)
    scan = leak_scan(cfg, None, *scan_inputs(cfg))[0]
    i = np.arange(1, 5)
    j = 10 - i
    for k in ("T", "SW"):
        mean, se = scan[f"mean_{k}"], scan[f"se_{k}"]
        assert np.all(np.abs(mean[i] - mean[j]) <= 3.0 * np.hypot(se[i], se[j])), k
