"""Quantized map, projection, and Schur resonance spectra."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.linalg import lapack
from scipy.optimize import linear_sum_assignment

from leakmap.quantum import (
    QuantumParams,
    build_projector,
    build_unitary,
    open_propagator,
    resonance_spectrum,
    unitarity_defect,
)
from leakmap.config import ExperimentConfig
from leakmap.runner import leak_scan
from leakmap.standard_map import Leak

from conftest import scan_inputs


# ---------------------------------------------------------------------------
# propagator construction


def test_unitarity_small_dimensions():
    for n in (2, 3, 4, 16, 64, 65):
        u = build_unitary(QuantumParams(n, 10.0))
        assert unitarity_defect(u) <= 1e-12


def test_n2_zero_kick_matrix():
    # entries (1/sqrt 2) exp(i pi (k-k')^2 / 2): diagonal 1, off-diagonal i
    u = build_unitary(QuantumParams(2, 0.0))
    want = np.array([[1.0, 1j], [1j, 1.0]]) / math.sqrt(2.0)
    assert_allclose(u, want, rtol=0, atol=1e-15)


def test_constant_modulus_entries():
    u = build_unitary(QuantumParams(5, 10.0))
    assert_allclose(np.abs(u), 1.0 / math.sqrt(5.0), rtol=0, atol=1e-14)


def test_zero_kick_removes_cosine_term():
    # K only enters through the kick phase, which multiplies columns
    u0 = build_unitary(QuantumParams(8, 0.0))
    u1 = build_unitary(QuantumParams(8, 10.0))
    phase = np.exp(1j * (8 * 10.0 / (2.0 * np.pi)) * np.cos(2.0 * np.pi * np.arange(1, 9) / 8))
    assert_allclose(u1, u0 * phase[None, :], rtol=0, atol=1e-14)


def test_params_validation():
    with pytest.raises(ValueError):
        QuantumParams(1, 10.0)
    with pytest.raises(ValueError):
        QuantumParams(16, math.nan)


# ---------------------------------------------------------------------------
# leak projection


def test_projector_site_enumeration():
    # sites k/10 for k=1..10; strip [0.1, 0.3) absorbs k = 1, 2
    keep = build_projector(QuantumParams(10, 10.0), Leak(0.2, 0.2))
    assert_array_equal(~keep, [True, True] + [False] * 8)


def test_projector_wraparound_sites():
    # strip [0.9, 1) U [0, 0.1): absorbs q = 0.9 (k=9) and q = 0 (k=10)
    keep = build_projector(QuantumParams(10, 10.0), Leak(0.0, 0.2))
    assert_array_equal(np.nonzero(~keep)[0], [8, 9])


def test_projector_degenerate_widths():
    qp = QuantumParams(7, 10.0)
    assert build_projector(qp, Leak(0.5, 0.0)).all()
    assert not build_projector(qp, Leak(0.5, 1.0)).any()


def test_open_propagator_zeroes_rows():
    qp = QuantumParams(6, 10.0)
    u = build_unitary(qp)
    keep = build_projector(qp, Leak(0.5, 0.3))
    ut = open_propagator(u, keep)
    assert_array_equal(ut[~keep, :], 0.0)
    assert_array_equal(ut[keep, :], u[keep, :])


def test_open_propagator_shape_mismatch():
    u = build_unitary(QuantumParams(4, 10.0))
    with pytest.raises(ValueError):
        open_propagator(u, np.ones(5, dtype=bool))


# ---------------------------------------------------------------------------
# resonance spectra


def test_closed_spectrum_is_unitary():
    u = build_unitary(QuantumParams(16, 10.0))
    res = resonance_spectrum(u)
    assert_allclose(np.abs(res.z), 1.0, rtol=0, atol=1e-10)
    assert np.all(res.gamma == 0.0)
    assert np.all(np.isinf(res.dwell))
    assert res.n_zero_modes == 0


def test_spectrum_ordering_and_containment():
    qp = QuantumParams(64, 10.0)
    ut = open_propagator(build_unitary(qp), build_projector(qp, Leak(0.2, 0.2)))
    res = resonance_spectrum(ut.copy())  # the Schur overwrites its argument
    mod = np.abs(res.z)
    assert np.all(np.diff(mod) <= 1e-12)  # non-increasing
    assert mod.max() <= 1.0 + 1e-10
    v = res.vectors
    assert_allclose(v.conj().T @ v, np.eye(64), rtol=0, atol=1e-10)
    t = v.conj().T @ ut @ v
    assert np.abs(np.tril(t, -1)).max() <= 1e-10


def test_diagonal_matrix_spectrum():
    d = np.array([0.5 * np.exp(0.7j), 0.9, 0.2, 0.0], dtype=complex)
    res = resonance_spectrum(np.diag(d))
    assert_allclose(np.abs(res.z), [0.9, 0.5, 0.2, 0.0], rtol=0, atol=1e-15)
    assert_allclose(res.gamma[:3], -2.0 * np.log([0.9, 0.5, 0.2]), rtol=1e-12)
    assert np.array_equal(res.dwell[:3], 1.0 / res.gamma[:3])
    assert res.n_zero_modes == 1
    assert res.dwell[3] == 0.0
    assert np.isinf(res.gamma[3])
    assert_allclose(np.angle(res.z[1]), 0.7, rtol=1e-12)


def test_n4_characteristic_polynomial_oracle():
    # independent eigenvalue route: Newton's identities on power-sum traces
    qp = QuantumParams(4, 10.0)
    m = open_propagator(build_unitary(qp), build_projector(qp, Leak(0.2, 0.2)))
    s = [np.trace(np.linalg.matrix_power(m, j)) for j in range(1, 5)]
    c3 = -s[0]
    c2 = -(s[1] + c3 * s[0]) / 2.0
    c1 = -(s[2] + c3 * s[1] + c2 * s[0]) / 3.0
    c0 = -(s[3] + c3 * s[2] + c2 * s[1] + c1 * s[0]) / 4.0
    roots = np.roots([1.0, c3, c2, c1, c0])
    res = resonance_spectrum(m)
    cost = np.abs(res.z[:, None] - roots[None, :])
    rows, cols = linear_sum_assignment(cost)
    assert cost[rows, cols].max() <= 1e-10


def test_rank_bound_zero_modes():
    # 4 of 16 sites absorbed -> rank <= 12 -> >= 4 zero modes
    qp = QuantumParams(16, 10.0)
    leak = Leak(0.2, 0.25)
    keep = build_projector(qp, leak)
    assert (~keep).sum() == 4
    res = resonance_spectrum(open_propagator(build_unitary(qp), keep))
    assert res.n_zero_modes >= 4
    for center in (0.2, 0.5):
        res = resonance_spectrum(open_propagator(build_unitary(qp), build_projector(qp, Leak(center, 0.2))))
        assert res.n_zero_modes >= 3  # floor(N dq) = 3


def test_reflection_symmetric_spectra():
    # site permutation k -> N-k maps the strip at c to the strip at 1-c and
    # leaves U invariant for even N, so the spectra must coincide
    qp = QuantumParams(16, 10.0)
    u = build_unitary(qp)
    za = resonance_spectrum(open_propagator(u, build_projector(qp, Leak(0.2, 0.25)))).z
    zb = resonance_spectrum(open_propagator(u, build_projector(qp, Leak(0.8, 0.25)))).z
    cost = np.abs(za[:, None] - zb[None, :])
    rows, cols = linear_sum_assignment(cost)
    assert cost[rows, cols].max() <= 1e-10


def test_spectrum_factorizes_the_open_propagator_in_place():
    # open_propagator's Fortran-ordered copy becomes the triangular factor;
    # any other layout is copied first and left as it was
    qp = QuantumParams(32, 10.0)
    u = build_unitary(qp)
    keep = build_projector(qp, Leak(0.3, 0.2))
    m = open_propagator(u, keep)
    assert m.flags.f_contiguous and np.array_equal(m, np.where(keep[:, None], u, 0.0))
    res = resonance_spectrum(m)
    assert np.abs(np.tril(m, -1)).max() == 0.0
    assert_allclose(np.sort_complex(np.diag(m)), np.sort_complex(res.z), rtol=0, atol=1e-12)
    c = np.ascontiguousarray(open_propagator(u, keep))
    before = c.copy()
    assert np.array_equal(resonance_spectrum(c).z, res.z)
    assert np.array_equal(c, before)
    # a real Fortran-ordered matrix is converted, not overwritten
    r = np.asfortranarray(np.diag([0.5, 0.9, 0.2]))
    before = r.copy()
    assert_allclose(resonance_spectrum(r).z, [0.9, 0.5, 0.2], rtol=0, atol=1e-15)
    assert np.array_equal(r, before)


def test_spectrum_rejects_a_non_finite_matrix_before_lapack(monkeypatch):
    # the check scipy.linalg.schur(check_finite=True) made, before any
    # LAPACK call
    calls = []
    monkeypatch.setattr(lapack, "zgees", lambda *args, **kw: calls.append(1))
    qp = QuantumParams(16, 10.0)
    m = open_propagator(build_unitary(qp), build_projector(qp, Leak(0.3, 0.2)))
    m[3, 5] = np.nan
    with pytest.raises(ValueError, match="must not contain infs or NaNs"):
        resonance_spectrum(m)
    assert calls == []


def test_spectrum_reports_a_failed_factorization(monkeypatch):
    # zgees' info is checked: the workspace query passes, the
    # factorization reports failure
    real = lapack.zgees

    def failing(*args, lwork, **kw):
        out = real(*args, lwork=lwork, **kw)
        return out if lwork == -1 else (*out[:-1], 7)

    monkeypatch.setattr(lapack, "zgees", failing)
    qp = QuantumParams(16, 10.0)
    m = open_propagator(build_unitary(qp), build_projector(qp, Leak(0.3, 0.2)))
    with pytest.raises(RuntimeError, match=r"Schur factorization failed for 16x16 matrix: zgees info=7"):
        resonance_spectrum(m)


def traced_peak(fn, *args):
    """Bytes of the largest traced allocation total while fn(*args) runs,
    above what was allocated before."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_spectrum_memory_at_n256():
    # the factor overwrites the input and the workspace query's outputs are
    # dropped before the factorization, so V and LAPACK's workspace make up
    # the rest: 1.14 N^2 complex (3.14 while the query's V and copy of the
    # input lived through the factorization; 2.14 when the input is copied)
    qp = QuantumParams(256, 10.0)
    m = open_propagator(build_unitary(qp), build_projector(qp, Leak(0.3, 0.2)))
    assert traced_peak(resonance_spectrum, m) <= 1.5e6


def test_propagator_memory_at_n512():
    # build_unitary allocates its result only, unitarity_defect the Gram
    # matrix and the conjugate copy its product reads
    qp = QuantumParams(512, 10.0)
    square = 512 * 512 * 16
    assert traced_peak(build_unitary, qp) <= 1.1 * square
    u = build_unitary(qp)
    assert traced_peak(unitarity_defect, u) <= 2.1 * square


def test_spectrum_rejects_nonsquare():
    with pytest.raises(ValueError):
        resonance_spectrum(np.ones((3, 4), dtype=complex))
    with pytest.raises(ValueError, match="non-empty"):
        resonance_spectrum(np.ones((0, 0), dtype=complex))


# ---------------------------------------------------------------------------
# per-position statistics of the leak-position scan


def _dwell_scan_config():
    # positions 0.0, 0.1, ..., 0.9 include the leaks at 0.2 and 0.5
    return ExperimentConfig(
        grid_q=6, grid_p=6, t_max=10, leak_width=0.2, dim=16, scan_positions=10, scan_husimi_q=20, scan_husimi_p=20
    )


def test_dwell_stats_basic():
    cfg = _dwell_scan_config()
    scan = leak_scan(cfg, None, *scan_inputs(cfg))[0]
    assert np.all(np.isfinite(scan["mean_T"])) and np.all(scan["mean_T"] > 0.0)
    assert np.all(np.isfinite(scan["se_T"]))


def test_dwell_stats_closed_is_nan():
    # an infinite dwell time (the closed system) leaves the mean undefined
    cfg = dataclasses.replace(_dwell_scan_config(), leak_width=0.0, dim=8, scan_positions=1)
    closed = leak_scan(cfg, None, *scan_inputs(cfg))[0]
    assert math.isnan(closed["mean_T"][0])
    assert math.isnan(closed["se_T"][0])
