"""Grid ensembles on the torus: FTLE fields, dwell statistics, survival.

Initial conditions sit at cell centers of a uniform n_q x n_p grid.  One
vectorized map-and-tangent loop, `_orbits`, evolves every ensemble: an
active set that shrinks as trajectories get absorbed, and the closed-map
FTLE is the same loop with the empty leak.  The scalar
`standard_map.evolve_open` is its independent reference.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .standard_map import TWO_PI, RENORM_INTERVAL, Leak, MapParams, _sigma_max

__all__ = [
    "PhaseSpaceGrid",
    "ScalarField",
    "EscapeEnsemble",
    "SurvivalCurve",
    "TailFit",
    "DwellFtleTable",
    "ClassicalScan",
    "ftle_ensemble",
    "ftle_field",
    "escape_ensemble",
    "dwell_ftle_field",
    "survival_probability",
    "exponential_tail_fit",
    "short_dwell_cutoff",
    "mean_ftle_by_dwell",
    "strip_mean_ftle",
    "strip_scan",
    "ftle_histogram",
    "histogram_mean",
    "escape_stats",
    "leak_scan_classical",
]

# ln P window used for tail fits: late enough to clear transients, early
# enough that counting noise in P is mild.
TAIL_WINDOW = (1e-3, 1e-1)

# rms residual (in ln P) above which the tail is not considered exponential.
TAIL_RESIDUAL_MAX = 0.2


@dataclass(frozen=True)
class PhaseSpaceGrid:
    """Uniform grid of cell centers ((i+1/2)/n_q, (j+1/2)/n_p) on the torus.

    Cell centers never coincide with typical leak edges (multiples of 0.01),
    since (2i+1)/(2 n_q) has an odd numerator.
    """

    n_q: int
    n_p: int

    def __post_init__(self):
        if self.n_q < 2 or self.n_p < 2:
            raise ValueError(f"grid needs >= 2 cells per axis, got {self.n_q}x{self.n_p}")

    @property
    def size(self) -> int:
        return self.n_q * self.n_p

    @property
    def q_centers(self) -> np.ndarray:
        return (np.arange(self.n_q) + 0.5) / self.n_q

    @property
    def p_centers(self) -> np.ndarray:
        return (np.arange(self.n_p) + 0.5) / self.n_p

    def points(self):
        """All cell centers as flat arrays (q, p), row-major in (i, j)."""
        qq, pp = np.meshgrid(self.q_centers, self.p_centers, indexing="ij")
        return qq.ravel(), pp.ravel()


@dataclass
class ScalarField:
    """Scalar observable sampled on a PhaseSpaceGrid, with a validity mask.

    values[i, j] belongs to cell center (q_i, p_j).  Values must be finite
    wherever mask is true; masked-out cells may hold anything (often NaN).
    """

    grid: PhaseSpaceGrid
    values: np.ndarray
    mask: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        shape = (self.grid.n_q, self.grid.n_p)
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != shape:
            raise ValueError(f"values shape {self.values.shape} != grid shape {shape}")
        if self.mask is None:
            self.mask = np.ones(shape, dtype=bool)
        self.mask = np.asarray(self.mask, dtype=bool)
        if self.mask.shape != shape:
            raise ValueError(f"mask shape {self.mask.shape} != grid shape {shape}")
        if not np.all(np.isfinite(self.values[self.mask])):
            raise ValueError("non-finite values on masked-in cells")

    def masked_values(self) -> np.ndarray:
        return self.values[self.mask]


def _orbits(q0, p0, leak: Leak, t_max: int, params: MapParams):
    """Evolve flat arrays of initial points under the leaked map.

    Returns (tau, ftle, escaped) per point, with the conventions of
    EscapeEnsemble.  Each step applies the map and the tangent update, then
    the leak test, then the renormalization of the surviving frames.
    """
    total = q0.size
    tau = np.zeros(total, dtype=np.int64)
    lam = np.full(total, np.nan)
    escaped = np.zeros(total, dtype=bool)

    inside = leak.contains(q0)
    escaped[inside] = True  # absorbed before the first step, tau stays 0
    idx = np.nonzero(~inside)[0]

    q = q0[idx]  # index arrays copy, so the in-place updates below
    p = p0[idx]  # never reach the caller's arrays
    K = params.K
    a = np.ones_like(q)
    b = np.zeros_like(q)
    c = np.zeros_like(q)
    d = np.ones_like(q)
    s = np.zeros_like(q)

    for t in range(1, t_max + 1):
        if idx.size == 0:
            break
        q += p
        np.mod(q, 1.0, out=q)
        q[q == 1.0] = 0.0
        p -= K / TWO_PI * np.sin(TWO_PI * q)
        np.mod(p, 1.0, out=p)
        p[p == 1.0] = 0.0
        kc = K * np.cos(TWO_PI * q)
        a2 = a + c
        b2 = b + d
        c = c - kc * a2
        d = d - kc * b2
        a, b = a2, b2

        hit = leak.contains(q)
        if hit.any():
            done = idx[hit]
            tau[done] = t
            escaped[done] = True
            lam[done] = (s[hit] + np.log(_sigma_max(a[hit], b[hit], c[hit], d[hit]))) / t
            keep = ~hit
            idx = idx[keep]
            q, p = q[keep], p[keep]
            a, b, c, d, s = a[keep], b[keep], c[keep], d[keep], s[keep]

        if t % RENORM_INTERVAL == 0 and idx.size:
            m = np.maximum.reduce([np.abs(a), np.abs(b), np.abs(c), np.abs(d)])
            a /= m
            b /= m
            c /= m
            d /= m
            s += np.log(m)

    if idx.size:  # survivors of the full horizon
        tau[idx] = t_max
        lam[idx] = (s + np.log(_sigma_max(a, b, c, d))) / t_max
    return tau, lam, escaped


def ftle_ensemble(q0, p0, n: int, params: MapParams) -> np.ndarray:
    """Finite-time Lyapunov exponents for arbitrary arrays of initial points."""
    if n < 1:
        raise ValueError(f"need at least one step, got n={n}")
    q0 = np.asarray(q0, float).ravel()
    p0 = np.asarray(p0, float).ravel()
    return _orbits(q0, p0, Leak(0.0, 0.0), n, params)[1]


def ftle_field(grid: PhaseSpaceGrid, n: int, params: MapParams) -> ScalarField:
    """Closed-map FTLE field over the grid; every cell is valid."""
    lam = ftle_ensemble(*grid.points(), n, params).reshape(grid.n_q, grid.n_p)
    return ScalarField(grid=grid, values=lam)


@dataclass
class EscapeEnsemble:
    """Per-cell escape data for a leaked grid ensemble.

    tau[i, j] is the absorption time (0 = started inside the leak, t_max =
    survived the horizon), ftle[i, j] the Lyapunov exponent accumulated over
    tau steps (NaN where tau = 0), escaped[i, j] whether the orbit was
    absorbed within the horizon.
    """

    grid: PhaseSpaceGrid
    leak: Leak
    params: MapParams
    t_max: int
    tau: np.ndarray
    ftle: np.ndarray
    escaped: np.ndarray

    @property
    def escape_fraction(self) -> float:
        return float(self.escaped.mean())


def escape_ensemble(grid: PhaseSpaceGrid, leak: Leak, t_max: int, params: MapParams) -> EscapeEnsemble:
    """Evolve every grid cell under the leaked map for up to t_max steps.

    The leak test runs after each full map iteration; cells starting inside
    the strip get tau = 0 and no Lyapunov exponent.
    """
    if t_max < 1:
        raise ValueError(f"t_max must be >= 1, got {t_max}")
    tau, lam, escaped = _orbits(*grid.points(), leak, t_max, params)
    shape = (grid.n_q, grid.n_p)
    return EscapeEnsemble(
        grid=grid,
        leak=leak,
        params=params,
        t_max=t_max,
        tau=tau.reshape(shape),
        ftle=lam.reshape(shape),
        escaped=escaped.reshape(shape),
    )


def dwell_ftle_field(ensemble: EscapeEnsemble, cutoff: int = 0):
    """Dwell-time and dwell-FTLE fields from an escape ensemble.

    Cells with tau < cutoff are masked out (short transients), as are cells
    that started inside the leak (tau = 0, no exponent defined).  Survivors
    of the horizon keep their t_max-step values.  Returns (dwell, ftle)
    ScalarFields sharing one mask.
    """
    if cutoff < 0:
        raise ValueError(f"cutoff must be >= 0, got {cutoff}")
    frac = ensemble.escape_fraction
    if frac < 0.99:
        warnings.warn(
            f"only {frac:.1%} of trajectories escaped within t_max={ensemble.t_max}; "
            "dwell statistics may be horizon-limited",
            stacklevel=2,
        )
    mask = (ensemble.tau >= max(cutoff, 1))
    dwell = ScalarField(ensemble.grid, ensemble.tau.astype(float), mask.copy())
    lam = ScalarField(ensemble.grid, ensemble.ftle, mask.copy())
    return dwell, lam


@dataclass
class SurvivalCurve:
    """P(n): fraction of initial conditions still inside at step n.

    P(0) counts everything not absorbed before the first step, i.e.
    1 - (leak area fraction) up to grid discretization.
    """

    n: np.ndarray
    p: np.ndarray
    total: int
    n_unescaped: int


def survival_probability(ensemble: EscapeEnsemble) -> SurvivalCurve:
    """Survival probability over n = 0 .. t_max from escape records.

    P(n) = [#(escaped with tau > n) + #(never escaped)] / total.  The curve
    is non-increasing by construction and counts survivors of the horizon
    as still inside at every n.
    """
    t_max = ensemble.t_max
    tau = ensemble.tau.ravel()
    escaped = ensemble.escaped.ravel()
    total = tau.size
    # histogram of absorption times; non-escaped cells are never counted out
    counts = np.bincount(tau[escaped], minlength=t_max + 1)[: t_max + 1]
    absorbed_by_n = np.cumsum(counts)
    p = 1.0 - absorbed_by_n / total
    return SurvivalCurve(
        n=np.arange(t_max + 1),
        p=p,
        total=total,
        n_unescaped=int((~escaped).sum()),
    )


@dataclass(frozen=True)
class TailFit:
    """Least-squares exponential fit ln P(n) = intercept - gamma n."""

    gamma: float
    intercept: float
    n_lo: int
    n_hi: int
    n_points: int
    rms_residual: float


def exponential_tail_fit(curve: SurvivalCurve, window=TAIL_WINDOW) -> TailFit:
    """Fit the exponential tail of a survival curve on the P-window.

    The fit runs over all n with window[0] <= P(n) <= window[1]; fewer than
    three such points means no exponential regime was reached within the
    horizon and is an error.
    """
    lo, hi = window
    sel = (curve.p >= lo) & (curve.p <= hi) & (curve.p > 0.0)
    n_points = int(sel.sum())
    if n_points < 3:
        raise RuntimeError(
            f"no exponential regime within horizon: {n_points} survival points "
            f"with P in [{lo:g}, {hi:g}] (t_max={curve.n[-1]}, final P={curve.p[-1]:.3g})"
        )
    x = curve.n[sel].astype(float)
    y = np.log(curve.p[sel])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    gamma = -float(slope)
    if gamma <= 0.0:
        raise RuntimeError(f"survival tail does not decay (fitted rate {gamma:.3g})")
    return TailFit(
        gamma=gamma,
        intercept=float(intercept),
        n_lo=int(x[0]),
        n_hi=int(x[-1]),
        n_points=n_points,
        rms_residual=float(np.sqrt(np.mean(resid**2))),
    )


def short_dwell_cutoff(curve: SurvivalCurve, tol: float = 0.1, window=TAIL_WINDOW) -> int:
    """Smallest n whose local decay rate matches the asymptotic tail rate.

    The local rate is r(n) = ln P(n) - ln P(n+1); the cutoff is the first n
    with |r(n) - gamma| <= tol * gamma, where gamma comes from the tail fit.
    Orbits absorbed earlier than the cutoff are transients that have not yet
    relaxed onto the exponential decay.
    """
    fit = exponential_tail_fit(curve, window)
    if fit.rms_residual > TAIL_RESIDUAL_MAX:
        raise RuntimeError(
            f"survival tail is not exponential (rms ln-residual {fit.rms_residual:.3f} "
            f"> {TAIL_RESIDUAL_MAX})"
        )
    p = curve.p
    for n in range(fit.n_hi):
        if p[n + 1] <= 0.0 or p[n] <= 0.0:
            break
        r = math.log(p[n]) - math.log(p[n + 1])
        if abs(r - fit.gamma) <= tol * fit.gamma:
            return n
    raise RuntimeError(
        f"no step with local rate within {tol:.0%} of tail rate {fit.gamma:.4f}"
    )


@dataclass
class DwellFtleTable:
    """Mean FTLE conditioned on absorption time tau (escaped orbits only)."""

    tau: np.ndarray
    mean_ftle: np.ndarray
    count: np.ndarray


def mean_ftle_by_dwell(ensemble: EscapeEnsemble) -> DwellFtleTable:
    """Group escaped orbits by tau and average their Lyapunov exponents.

    Orbits with tau = 0 (started inside the leak) and survivors of the
    horizon are excluded.  The count-weighted mean over groups equals the
    plain mean over the included orbits.
    """
    sel = ensemble.escaped & (ensemble.tau >= 1)
    if not sel.any():
        raise ValueError("no escaped orbits with tau >= 1")
    tau = ensemble.tau[sel]
    lam = ensemble.ftle[sel]
    sums = np.bincount(tau, weights=lam)
    counts = np.bincount(tau)
    nz = counts > 0
    return DwellFtleTable(
        tau=np.nonzero(nz)[0],
        mean_ftle=sums[nz] / counts[nz],
        count=counts[nz],
    )


def strip_mean_ftle(field: ScalarField, strip: Leak) -> float:
    """Mean field value over cells whose q center lies in the strip."""
    sel_q = strip.contains(field.grid.q_centers)
    if not sel_q.any():
        raise ValueError(f"no grid columns inside strip at {strip.center} width {strip.width}")
    block = field.mask[sel_q, :]
    if not block.any():
        raise ValueError("strip contains no masked-in cells")
    return float(field.values[sel_q, :][block].mean())


def strip_scan(field: ScalarField, centers, width: float) -> np.ndarray:
    """strip_mean_ftle evaluated at several strip centers."""
    return np.array([strip_mean_ftle(field, Leak(float(c), width)) for c in centers])


def ftle_histogram(field: ScalarField, bins=60):
    """Normalized histogram of field values over masked-in cells.

    Returns (edges, probs) with probs summing to 1.
    """
    vals = field.masked_values()
    if vals.size == 0:
        raise ValueError("field has no masked-in cells")
    counts, edges = np.histogram(vals, bins=bins)
    return edges, counts / vals.size


def histogram_mean(edges: np.ndarray, probs: np.ndarray) -> float:
    """Mean of a histogram via bin midpoints."""
    total = probs.sum()
    if total <= 0.0:
        raise ValueError("histogram carries no mass")
    mid = 0.5 * (edges[:-1] + edges[1:])
    return float((mid * probs).sum() / total)


@dataclass
class ClassicalScan:
    """Leak-position scan of classical dwell and FTLE averages.

    Averages run over orbits with tau >= 1, survivors of the horizon
    included with tau = t_max.  unescaped_fraction flags positions where
    the horizon bit."""

    positions: np.ndarray
    mean_tau: np.ndarray
    se_tau: np.ndarray
    mean_ftle: np.ndarray
    se_ftle: np.ndarray
    unescaped_fraction: np.ndarray

    @classmethod
    def from_rows(cls, positions, rows) -> "ClassicalScan":
        """Assemble a scan from one `escape_stats` row per position."""
        return cls(np.asarray(positions, dtype=float), *np.array(rows, dtype=float).reshape(-1, 5).T)


def escape_stats(ens: EscapeEnsemble) -> tuple:
    """(mean_tau, se_tau, mean_ftle, se_ftle, unescaped_fraction) of one
    ensemble: the per-position statistics of `ClassicalScan`."""
    sel = ens.tau >= 1
    count = int(sel.sum())
    if count == 0:
        # every orbit was absorbed before its first step (leak covers
        # the full torus): zero dwell, no exponent defined
        return 0.0, 0.0, math.nan, math.nan, 0.0
    tau = ens.tau[sel].astype(float)
    lam = ens.ftle[sel]
    return (
        tau.mean(),
        tau.std(ddof=1) / math.sqrt(count),
        lam.mean(),
        lam.std(ddof=1) / math.sqrt(count),
        1.0 - ens.escape_fraction,
    )


def leak_scan_classical(
    positions,
    width: float,
    grid: PhaseSpaceGrid,
    t_max: int,
    params: MapParams,
) -> ClassicalScan:
    """Mean dwell time and mean dwell-FTLE as the leak center scans [0, 1)."""
    positions = np.asarray(positions, dtype=float)
    rows = [escape_stats(escape_ensemble(grid, Leak(float(c), width), t_max, params)) for c in positions]
    return ClassicalScan.from_rows(positions, rows)
