"""Acceptance gate: end-to-end checks of the physics pipeline.

Each test here covers one headline guarantee at its reference scale and
tolerance; run with `pytest tests/test_acceptance.py -v` for one pass/fail
line per guarantee.  Three checks probe orderings that the reference
setup does not actually produce at these scales; they fail and are kept
red deliberately (see notes in the repository history / decision ledger):

  * test_escape_rate_near_ergodic_estimate - the centered leak decays
    ~27% slower than the ergodic single-strip estimate because residual
    stickiness at q = 0.2/0.8 bends the survival tail.
  * test_reference_leak_ordering_of_chaos_measures - at these grid and
    matrix sizes both orderings land slightly on the wrong side.
  * test_leak_position_scan_correspondence - the quantum mean-dwell
    minimum sits at q = 0.74, 0.06 from the sticky position 0.8 against a
    tolerance of 0.05, so near_sticky(argmin_T) fails first.  Beyond it,
    the unmasked stretching-rate average dips (rather than peaks) where
    the leak swallows the kick null at q = 1/4, 3/4, and the mean-entropy
    curve is flat to within sampling noise, so the stretching/entropy
    correlation is far below the target.
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.optimize import linear_sum_assignment

from leakmap.ensemble import (
    PhaseSpaceGrid,
    dwell_mask,
    escape_ensemble,
    exponential_tail_fit,
    ftle_field,
    short_dwell_cutoff,
    strip_scan,
    survival_probability,
)
from leakmap.quantum import (
    QuantumParams,
    build_projector,
    build_unitary,
    open_propagator,
    resonance_spectrum,
    unitarity_defect,
)
from leakmap.config import ExperimentConfig
from leakmap.runner import _reliability, leak_scan
from leakmap.standard_map import Leak, MapParams, ftle
from leakmap.tomography import (
    HusimiTransform,
    _coherent_entropy,
    _raw_entropy,
    _wehrl_scale,
    coherent_state,
    state_entropies,
)

from conftest import TangentFrame, component_rng, scan_inputs, step, tangent_step

PARAMS = MapParams(K=10.0)


def open_spectrum(n, center, width=0.2):
    qp = QuantumParams(n, 10.0)
    u = build_unitary(qp)
    keep = build_projector(qp, Leak(center, width))
    return u, resonance_spectrum(open_propagator(u, keep))


def report(name, **values):
    pairs = "  ".join(f"{k}={v}" for k, v in values.items())
    print(f"[{name}] {pairs}")


# ---------------------------------------------------------------------------


def test_propagator_unitarity_bound():
    worst = {}
    for n in (4, 64, 128, 513):
        worst[n] = unitarity_defect(build_unitary(QuantumParams(n, 10.0)))
    report("unitarity", **{f"N{n}": f"{d:.2e}" for n, d in worst.items()})
    assert max(worst.values()) <= 1e-12


def test_jacobian_determinant_drift():
    rng = component_rng(1, "classical")
    worst = 0.0
    for _ in range(100):
        x = (rng.random(), rng.random())
        frame = TangentFrame.identity()
        for _ in range(1000):
            x = step(x, PARAMS)
            frame = tangent_step(x[0], frame, PARAMS)
        worst = max(worst, abs(frame.det - 1.0))
    report("det-drift", worst=f"{worst:.2e}")
    assert worst <= 1e-9


def test_fixed_point_stretching_rate():
    lam = ftle((0.0, 0.0), 1000, PARAMS)
    target = math.log(4.0 + math.sqrt(15.0))
    report("fixed-point", lam=f"{lam:.6f}", target=f"{target:.6f}")
    assert_allclose(lam, target, rtol=0, atol=1e-3)


def test_ergodic_mean_stretching_rate():
    from leakmap.ensemble import ftle_ensemble

    rng = component_rng(1, "classical")
    q0 = rng.random(1000)
    p0 = rng.random(1000)
    grand = float(ftle_ensemble(q0, p0, 10**5, PARAMS).mean())
    report("ergodic-mean", grand=f"{grand:.5f}", target=f"{math.log(5.0):.5f}")
    assert abs(grand - math.log(5.0)) <= 0.05 * math.log(5.0)


def test_strip_mean_dips_at_sticky_positions():
    field = ftle_field(PhaseSpaceGrid(500, 500), 10, PARAMS)
    positions = np.arange(50) / 50.0
    means = strip_scan(field, positions, 0.2)
    left = positions[positions < 0.5]
    right = positions[positions >= 0.5]
    min_left = left[np.argmin(means[positions < 0.5])]
    min_right = right[np.argmin(means[positions >= 0.5])]
    peak = positions[np.argmax(means)]
    report("strip-scan", min_left=min_left, min_right=min_right, peak=peak)
    assert abs(min_left - 0.2) <= 0.05
    assert abs(min_right - 0.8) <= 0.05
    assert 0.4 <= peak <= 0.6


def test_escape_rate_near_ergodic_estimate():
    ens = escape_ensemble(PhaseSpaceGrid(500, 500), Leak(0.5, 0.2), 1000, PARAMS)
    fit = exponential_tail_fit(survival_probability(ens))
    target = -math.log(0.8)
    report("escape-rate", gamma=f"{fit.gamma:.4f}", target=f"{target:.4f}")
    assert abs(fit.gamma - target) <= 0.2 * target


def test_spectrum_containment_and_zero_modes():
    u, res = open_spectrum(256, 0.2)
    keep = build_projector(QuantumParams(256, 10.0), Leak(0.2, 0.2))
    ut = open_propagator(u, keep)
    mods = np.abs(res.z)
    gram = res.vectors.conj().T @ res.vectors
    ortho = float(np.abs(gram - np.eye(256)).max())
    # the Schur form's defect: V^H M V off its upper triangle
    t = res.vectors.conj().T @ ut @ res.vectors
    resid = float(np.abs(np.tril(t, -1)).max())
    n_zero = int((mods < 1e-8).sum())
    report(
        "spectrum",
        max_mod=f"{mods.max():.12f}",
        n_zero=n_zero,
        ortho=f"{ortho:.2e}",
        residual=f"{resid:.2e}",
    )
    assert mods.max() <= 1.0 + 1e-10
    assert n_zero >= 51
    assert ortho <= 1e-10
    assert resid <= 1e-10


def test_small_dimension_eigenvalues_match_polynomial_roots():
    u, res = open_spectrum(4, 0.2)
    keep = build_projector(QuantumParams(4, 10.0), Leak(0.2, 0.2))
    ut = open_propagator(u, keep)
    # characteristic polynomial coefficients from power-sum traces
    powers = [np.trace(np.linalg.matrix_power(ut, j)) for j in range(1, 5)]
    coeff = [1.0 + 0j]
    for j in range(1, 5):
        s = sum(coeff[j - i] * powers[i - 1] for i in range(1, j + 1))
        coeff.append(-s / j)
    roots = np.roots(np.array(coeff))
    cost = np.abs(res.z[:, None] - roots[None, :])
    rows, cols = linear_sum_assignment(cost)
    worst = float(cost[rows, cols].max())
    report("small-N", worst=f"{worst:.2e}")
    assert worst <= 1e-10


def test_entropy_endpoints_and_bounds():
    n = 128
    resolution = (500, 500)
    plan = HusimiTransform(n, *resolution)
    work = plan.workspace()
    uniform = np.full(resolution, 1.0 / (resolution[0] * resolution[1]))
    assert _wehrl_scale(_raw_entropy(uniform, work.entropy_scratch), _coherent_entropy(plan, work)) == 1.0
    assert state_entropies(coherent_state((0.5, 0.5), n)[:, None], plan)[0] == 0.0
    rng = component_rng(1, "tomography")
    states = []
    for _ in range(100):
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        states.append(v / np.linalg.norm(v))
    s_w = state_entropies(np.stack(states, axis=1), plan)
    lo, hi = s_w.min(), s_w.max()
    report("entropy-endpoints", random_min=f"{lo:.4f}", random_max=f"{hi:.4f}")
    assert 0.0 < lo and hi <= 1.0


def test_reference_leak_ordering_of_chaos_measures():
    # classical side: mean of the dwell-FTLE field, transients below the
    # fitted short-dwell cutoff removed
    mean_ftle = {}
    for center in (0.2, 0.5):
        ens = escape_ensemble(PhaseSpaceGrid(500, 500), Leak(center, 0.2), 1000, PARAMS)
        p = survival_probability(ens)
        n_c = short_dwell_cutoff(p, exponential_tail_fit(p))
        mean_ftle[center] = float(ens.ftle[dwell_mask(ens, n_c)].mean())
    # quantum side: largest Wehrl entropy over the dwell/entropy scatter
    max_sw = {}
    plan = HusimiTransform(512, 1000, 1000)
    for center in (0.2, 0.5):
        _, res = open_spectrum(512, center)
        max_sw[center] = float(state_entropies(res.vectors, plan).max())
    report(
        "reference-ordering",
        mean_ftle_02=f"{mean_ftle[0.2]:.4f}",
        mean_ftle_05=f"{mean_ftle[0.5]:.4f}",
        max_sw_02=f"{max_sw[0.2]:.4f}",
        max_sw_05=f"{max_sw[0.5]:.4f}",
    )
    assert mean_ftle[0.2] > mean_ftle[0.5]
    assert max_sw[0.2] > max_sw[0.5]


def test_leak_position_scan_correspondence():
    positions = np.arange(50) / 50.0
    # the defaults are the gate's data: 50 positions of a width-0.2 leak,
    # K = 10, a 500^2 grid to t_max = 1000, 500^2 Husimi grids
    cfg = ExperimentConfig(dim=256)
    scan = leak_scan(cfg, 1, *scan_inputs(cfg))[0]

    def near_sticky(x):
        return min(abs(x - 0.2), abs(x - 0.8)) <= 0.05

    argmin_tau = positions[np.argmin(scan["mean_tau"])]
    argmin_t = positions[np.argmin(scan["mean_T"])]
    corr_tau_t = float(np.corrcoef(scan["mean_tau"], scan["mean_T"])[0, 1])
    corr_lam_sw = float(np.corrcoef(scan["mean_lambda"], scan["mean_SW"])[0, 1])

    # mirror symmetry q -> 1-q, pairwise within three standard errors
    i = np.arange(1, 25)
    j = 50 - i
    sym_ok = True
    for mean, se in ((scan[f"mean_{k}"], scan[f"se_{k}"]) for k in ("tau", "lambda", "T", "SW")):
        dev = np.abs(mean[i] - mean[j])
        bound = 3.0 * np.hypot(se[i], se[j])
        sym_ok = sym_ok and bool(np.all(dev <= bound))
    # each column's spread across positions against its own standard errors
    reliability = {
        f"rel_{k}": f"{_reliability(scan[f'mean_{k}'], scan[f'se_{k}']):.4f}" for k in ("tau", "lambda", "T", "SW")
    }

    report(
        "scan-correspondence",
        argmin_tau=argmin_tau,
        argmin_T=argmin_t,
        corr_tau_T=f"{corr_tau_t:.4f}",
        corr_lam_SW=f"{corr_lam_sw:.4f}",
        symmetric=sym_ok,
        **reliability,
    )
    assert near_sticky(argmin_tau)
    assert near_sticky(argmin_t)
    assert corr_tau_t > 0.8
    assert corr_lam_sw > 0.7
    assert sym_ok


def test_quantum_dwell_curves_converge_with_dimension():
    positions = np.arange(20) / 20.0

    def mean_dwell(n):
        qp = QuantumParams(n, 10.0)
        u = build_unitary(qp)
        keeps = [build_projector(qp, Leak(float(c), 0.2)) for c in positions]
        return np.array([resonance_spectrum(open_propagator(u, keep)).dwell.mean() for keep in keeps])

    curves = {n: mean_dwell(n) for n in (128, 256, 512)}
    rms_small = float(np.sqrt(np.mean((curves[128] - curves[256]) ** 2)))
    rms_large = float(np.sqrt(np.mean((curves[256] - curves[512]) ** 2)))
    report("dwell-convergence", rms_128_256=f"{rms_small:.4f}", rms_256_512=f"{rms_large:.4f}")
    assert rms_large < rms_small
