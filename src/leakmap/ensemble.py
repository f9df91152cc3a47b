"""Grid ensembles on the torus: FTLE fields, dwell statistics, survival.

Initial conditions sit at cell centers of a uniform n_q x n_p grid, and
every field is a plain (n_q, n_p) array whose entry [i, j] belongs to
cell center (q_i, p_j); `dwell_mask` marks the cells a dwell statistic
keeps.  One vectorized map-and-tangent loop, `_orbits`, evolves every
ensemble: it follows a set of absorbing strips in a single pass, because
the orbits of the closed map do not depend on where a strip sits, and runs
the grid in fixed chunks of cells, each an active set that shrinks as its
points have met every strip.  `escape_ensemble` is the one-strip case, the
closed-map FTLE the case of the empty strip, and `leak_scan` (runner)
passes a group of scan positions at once.  The scalar
`standard_map.evolve_open` is its independent reference.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .standard_map import TWO_PI, RENORM_INTERVAL, Leak, MapParams, _sigma_max

__all__ = [
    "PhaseSpaceGrid",
    "EscapeEnsemble",
    "TailFit",
    "ftle_ensemble",
    "ftle_field",
    "escape_ensemble",
    "dwell_mask",
    "survival_probability",
    "exponential_tail_fit",
    "short_dwell_cutoff",
    "mean_ftle_by_dwell",
    "strip_scan",
    "ftle_histogram",
]

# ln P window used for tail fits: late enough to clear transients, early
# enough that counting noise in P is mild.
TAIL_WINDOW = (1e-3, 1e-1)

# rms residual (in ln P) above which the tail is not considered exponential.
TAIL_RESIDUAL_MAX = 0.2

# Relative distance from the tail rate within which a local decay rate
# counts as relaxed (`short_dwell_cutoff`).
CUTOFF_TOL = 0.1

# Bins of the dwell-FTLE histogram (`ftle_histogram`).
HISTOGRAM_BINS = 60


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
    def q_centers(self) -> np.ndarray:
        return (np.arange(self.n_q) + 0.5) / self.n_q

    @property
    def p_centers(self) -> np.ndarray:
        return (np.arange(self.n_p) + 0.5) / self.n_p

    def points(self):
        """All cell centers as flat arrays (q, p), row-major in (i, j)."""
        qq, pp = np.meshgrid(self.q_centers, self.p_centers, indexing="ij")
        return qq.ravel(), pp.ravel()


# Grid cells the orbit loop runs at a time: its working set stays near this
# many points whatever the grid size.
_CHUNK = 1 << 15


# Buckets of the strip lookup.  Scaling by a power of two is exact, so
# bucket int(q * _BUCKETS) holds exactly the q in [b, b + 1) / _BUCKETS.
_BUCKETS = 1 << 12


def _strip_table(leaks):
    """Strip edges and bitmasks of a set of leaks, for `_strip_bits`.

    Returns (edges, table, bucket_bits, split): edges holds 0.0 and every
    strip edge in (0, 1), sorted, and bit k of table[np.searchsorted(edges,
    q, side="right")] is set when strip k holds q, for every q in [0, 1).
    Membership cannot change between two adjacent edges, so each cell's
    bits are `Leak.contains` at the cell's left edge: the same half-open
    float comparisons as the strip's own test.  table[0] belongs to no
    cell.  bucket_bits holds each bucket's bits, valid where split is
    False: no edge lies strictly inside the bucket.
    """
    cuts = [0.0]
    for leak in leaks:
        if 0.0 < leak.width < 1.0:
            lo = leak.lower
            hi = lo + leak.width  # the upper edge exactly as `contains` forms it
            cuts += [lo, hi if hi <= 1.0 else hi - 1.0]
    edges = np.unique(cuts)
    edges = edges[edges < 1.0]
    table = np.zeros(edges.size + 1, dtype=np.uint64)
    for k, leak in enumerate(leaks):
        table[1:] |= leak.contains(edges).astype(np.uint64) << np.uint64(k)
    left = np.arange(_BUCKETS) / _BUCKETS
    cell = np.searchsorted(edges, left, side="right")
    split = np.searchsorted(edges, left + 1.0 / _BUCKETS, side="left") > cell
    return edges, table, table[cell], split


def _strip_bits(q, strips):
    """Bitmask of the strips holding each q in [0, 1), from the tables
    `_strip_table` built: a bucket's bits, or one np.searchsorted on the
    edges where an edge splits the bucket."""
    edges, table, bucket_bits, split = strips
    b = (q * _BUCKETS).astype(np.intp)
    bits = bucket_bits[b]
    mixed = np.flatnonzero(split[b])
    if mixed.size:
        bits[mixed] = table[np.searchsorted(edges, q[mixed], side="right")]
    return bits


def _orbits(q0, p0, leaks, t_max: int, params: MapParams):
    """Evolve flat arrays of initial points under the map with each of up
    to 64 absorbing strips, in one pass.

    Returns (tau, ftle, escaped), each of shape (len(leaks), q0.size) and
    tau as int32: row k holds the conventions of EscapeEnsemble for strip k
    alone.  The orbits of the map do not depend on the strips, so a point
    keeps moving until every strip has caught it; on a strip's first hit
    it records tau = t and its exponent, from the same arithmetic on the
    same frame as a pass with that strip alone.  The points run in chunks
    of _CHUNK cells.  A kick so large that the tangent frame overflows
    between renormalizations leaves a non-finite exponent, which raises
    RuntimeError naming map.k (numpy's overflow warnings are silenced, as
    this check replaces them).
    """
    if len(leaks) > 64:
        raise ValueError(f"at most 64 strips per pass, got {len(leaks)}")
    strips = _strip_table(leaks)
    shape = (len(leaks), q0.size)
    tau = np.zeros(shape, dtype=np.int32)
    lam = np.full(shape, np.nan)
    escaped = np.zeros(shape, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, q0.size, _CHUNK):
            cells = slice(start, start + _CHUNK)
            _orbit_chunk(q0[cells], p0[cells], strips, t_max, params, tau[:, cells], lam[:, cells], escaped[:, cells])
            # checked a chunk at a time, so the check adds no array of the full size
            if not np.isfinite(lam[:, cells][tau[:, cells] > 0]).all():
                raise RuntimeError(
                    f"tangent frame overflowed at map.k = {params.K:g}: the kick is too large for "
                    f"renormalization every RENORM_INTERVAL = {RENORM_INTERVAL} steps"
                )
    return tau, lam, escaped


def _orbit_chunk(q0, p0, strips, t_max, params, tau, lam, escaped):
    """The orbit loop of `_orbits` over one chunk of points, writing into the
    chunk's columns of tau, lam and escaped.

    Each step applies the map and the tangent update, then the strip test,
    then the renormalization of the frames still moving.
    """
    bits = np.uint64(1) << np.arange(tau.shape[0], dtype=np.uint64)
    every = np.uint64(2 ** tau.shape[0] - 1)
    # with no edge inside (0, 1) every q lies in the same strips
    lookup = strips[0].size > 1

    qq = np.mod(q0, 1.0)
    qq[qq == 1.0] = 0.0
    caught = _strip_bits(qq, strips)
    escaped |= (caught[None, :] & bits[:, None]) != 0  # absorbed before the first step, tau stays 0
    idx = np.nonzero(caught != every)[0]
    caught = caught[idx]

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
        # x - floor(x) is np.mod(x, 1.0) bit for bit (both are the one
        # rounding of the exact x - floor(x)), at a tenth of its cost
        q += p
        q -= np.floor(q)
        q[q == 1.0] = 0.0
        x = TWO_PI * q
        p -= K / TWO_PI * np.sin(x)
        p -= np.floor(p)
        p[p == 1.0] = 0.0
        kc = K * np.cos(x)
        a2 = a + c
        b2 = b + d
        c = c - kc * a2
        d = d - kc * b2
        a, b = a2, b2

        if lookup:
            new = _strip_bits(q, strips) & ~caught
            hit = np.flatnonzero(new)
            if hit.size:
                values = (s[hit] + np.log(_sigma_max(a[hit], b[hit], c[hit], d[hit]))) / t
                # (point, strip) pairs of this step's first hits
                j, k = np.nonzero((new[hit, None] & bits) != 0)
                cells = idx[hit[j]]
                tau[k, cells] = t
                escaped[k, cells] = True
                lam[k, cells] = values[j]
                caught |= new
                keep = np.flatnonzero(caught != every)
                idx = idx[keep]
                q, p = q[keep], p[keep]
                a, b, c, d, s = a[keep], b[keep], c[keep], d[keep], s[keep]
                caught = caught[keep]

        if t % RENORM_INTERVAL == 0 and idx.size:
            m = np.maximum.reduce([np.abs(a), np.abs(b), np.abs(c), np.abs(d)])
            a /= m
            b /= m
            c /= m
            d /= m
            s += np.log(m)

    if idx.size:  # survivors of the full horizon, for each strip they never met
        values = (s + np.log(_sigma_max(a, b, c, d))) / t_max
        j, k = np.nonzero((caught[:, None] & bits) == 0)
        tau[k, idx[j]] = t_max
        lam[k, idx[j]] = values[j]


def ftle_ensemble(q0, p0, n: int, params: MapParams) -> np.ndarray:
    """Finite-time Lyapunov exponents for arbitrary arrays of initial points."""
    if n < 1:
        raise ValueError(f"need at least one step, got n={n}")
    q0 = np.asarray(q0, float).ravel()
    p0 = np.asarray(p0, float).ravel()
    return _orbits(q0, p0, [Leak(0.0, 0.0)], n, params)[1][0]


def ftle_field(grid: PhaseSpaceGrid, n: int, params: MapParams) -> np.ndarray:
    """Closed-map FTLE field over the grid, an (n_q, n_p) array."""
    return ftle_ensemble(*grid.points(), n, params).reshape(grid.n_q, grid.n_p)


@dataclass
class EscapeEnsemble:
    """Per-cell escape data for a leaked grid ensemble.

    tau[i, j] is the absorption time (0 = started inside the leak, t_max =
    survived the horizon), ftle[i, j] the Lyapunov exponent accumulated over
    tau steps (NaN where tau = 0), escaped[i, j] whether the orbit was
    absorbed within the horizon.
    """

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
    tau, lam, escaped = _orbits(*grid.points(), [leak], t_max, params)
    shape = (grid.n_q, grid.n_p)
    return EscapeEnsemble(
        t_max=t_max,
        tau=tau.reshape(shape),
        ftle=lam.reshape(shape),
        escaped=escaped.reshape(shape),
    )


def dwell_mask(ensemble: EscapeEnsemble, cutoff: int) -> np.ndarray:
    """Cells of the dwell-time and dwell-FTLE fields (`ensemble.tau`,
    `ensemble.ftle`) that dwell statistics keep.

    Cells with tau < cutoff are masked out (short transients), as are cells
    that started inside the leak (tau = 0, no exponent defined), so the
    FTLE is finite on every kept cell.  Survivors of the horizon keep their
    t_max-step values.
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
    return ensemble.tau >= max(cutoff, 1)


def survival_probability(ensemble: EscapeEnsemble) -> np.ndarray:
    """Survival probability P(n), n = 0 .. t_max, from escape records.

    P(n) = [#(escaped with tau > n) + #(never escaped)] / total.  The curve
    is non-increasing by construction and counts survivors of the horizon
    as still inside at every n.  P(0) counts everything not absorbed before
    the first step, i.e. 1 - (leak area fraction) up to grid discretization.
    """
    t_max = ensemble.t_max
    tau = ensemble.tau.ravel()
    escaped = ensemble.escaped.ravel()
    total = tau.size
    # histogram of absorption times; non-escaped cells are never counted out
    counts = np.bincount(tau[escaped], minlength=t_max + 1)[: t_max + 1]
    absorbed_by_n = np.cumsum(counts)
    return 1.0 - absorbed_by_n / total


@dataclass(frozen=True)
class TailFit:
    """Least-squares exponential fit ln P(n) = c - gamma n."""

    gamma: float
    n_hi: int
    rms_residual: float


def exponential_tail_fit(p: np.ndarray) -> TailFit:
    """Fit the exponential tail of a survival curve P(n), n = 0, 1, ...,
    on the P-window.

    The fit runs over all n with TAIL_WINDOW[0] <= P(n) <= TAIL_WINDOW[1];
    fewer than three such points means no exponential regime was reached
    within the horizon and is an error.
    """
    lo, hi = TAIL_WINDOW
    sel = (p >= lo) & (p <= hi) & (p > 0.0)
    n_points = int(sel.sum())
    if n_points < 3:
        raise RuntimeError(
            f"no exponential regime within horizon: {n_points} survival points "
            f"with P in [{lo:g}, {hi:g}] (t_max={p.size - 1}, final P={p[-1]:.3g})"
        )
    x = np.flatnonzero(sel).astype(float)
    y = np.log(p[sel])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    gamma = -float(slope)
    if gamma <= 0.0:
        raise RuntimeError(f"survival tail does not decay (fitted rate {gamma:.3g})")
    return TailFit(gamma=gamma, n_hi=int(x[-1]), rms_residual=float(np.sqrt(np.mean(resid**2))))


def short_dwell_cutoff(p: np.ndarray, fit: TailFit) -> int:
    """Smallest n whose local decay rate matches the asymptotic tail rate.

    The local rate is r(n) = ln P(n) - ln P(n+1); the cutoff is the first n
    with |r(n) - gamma| <= CUTOFF_TOL * gamma, where gamma comes from `fit`,
    the tail fit of the same curve P.  Orbits absorbed earlier than the
    cutoff are transients that have not yet relaxed onto the exponential
    decay.
    """
    if fit.rms_residual > TAIL_RESIDUAL_MAX:
        raise RuntimeError(
            f"survival tail is not exponential (rms ln-residual {fit.rms_residual:.3f} "
            f"> {TAIL_RESIDUAL_MAX})"
        )
    for n in range(fit.n_hi):
        if p[n + 1] <= 0.0 or p[n] <= 0.0:
            break
        r = math.log(p[n]) - math.log(p[n + 1])
        if abs(r - fit.gamma) <= CUTOFF_TOL * fit.gamma:
            return n
    raise RuntimeError(
        f"no step with local rate within {CUTOFF_TOL:.0%} of tail rate {fit.gamma:.4f}"
    )


def mean_ftle_by_dwell(ensemble: EscapeEnsemble) -> tuple:
    """Group escaped orbits by tau and average their Lyapunov exponents.

    Returns (tau, mean_ftle): the absorption times that occur and the mean
    FTLE of each group.  Orbits with tau = 0 (started inside the leak) and
    survivors of the horizon are excluded.  The count-weighted mean over
    groups equals the plain mean over the included orbits.
    """
    sel = ensemble.escaped & (ensemble.tau >= 1)
    if not sel.any():
        raise ValueError("no escaped orbits with tau >= 1")
    tau = ensemble.tau[sel]
    lam = ensemble.ftle[sel]
    sums = np.bincount(tau, weights=lam)
    counts = np.bincount(tau)
    nz = counts > 0
    return np.nonzero(nz)[0], sums[nz] / counts[nz]


def strip_scan(field: np.ndarray, centers, width: float) -> np.ndarray:
    """Mean of an (n_q, n_p) field over the cells whose q center lies in a
    strip of the given width, at each of the strip centers; NaN where the
    strip holds no grid column (width 0, or narrower than a column)."""
    q = PhaseSpaceGrid(*field.shape).q_centers
    means = []
    for c in centers:
        sel_q = Leak(float(c), width).contains(q)
        means.append(field[sel_q, :].mean() if sel_q.any() else math.nan)
    return np.array(means)


def ftle_histogram(values: np.ndarray):
    """Normalized HISTOGRAM_BINS-bin histogram of 1-D field values, such as
    `ens.ftle[dwell_mask(ens, cutoff)]`.

    Returns (edges, probs) with probs summing to 1.
    """
    if values.size == 0:
        raise ValueError("no field values to histogram")
    counts, edges = np.histogram(values, bins=HISTOGRAM_BINS)
    return edges, counts / values.size

