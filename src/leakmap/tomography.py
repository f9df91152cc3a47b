"""Phase-space tomography: Husimi fields and Wehrl entropies of lattice states.

The analyzer is a torus coherent state centered on (q0, p0): a periodized
Gaussian over position sites k/N,

    alpha_k  propto  sum_m exp[-pi N (k/N - q0 - m)^2 + 2 pi i N p0 (k/N - m)]

with the image sum truncated at |m| <= 3 (double precision saturates long
before that).  The Husimi mass of a state v on a grid cell is
|<alpha(q_i, p_j)|v>|^2, normalized so the whole field sums to 1.

Evaluating the overlaps naively costs O(N) per grid cell.  Instead the
m-sum is absorbed into an extended site lattice k', and the p dependence
exp(-2 pi i p_j k') collapses to a length-n_p FFT after folding k' modulo
n_p.  The Gaussian window of q row i matters only on a band of L
contiguous extended sites starting at a_i: L is the widest row's count of
sites with weight >= exp(-WINDOW_LOG_CUT), and a_i is clipped so the band
stays on the lattice.  Each row folds only its band, site a_i + t landing
on FFT column t mod n_p.  Shifting a row's sites by a_i multiplies its DFT
by exp(-2 pi i j a_i / n_p), a phase that |.|^2 removes; the half-cell
offset of the p grid stays a phase of the absolute site k'.  The band is
split once per plan into chunks of n_p sites: the first is written onto
the FFT columns, later ones (wraps) are added, in lattice order.  Rows
are folded and transformed in blocks, and each row's FFT is the one a
whole-grid transform gives it, bit for bit.  The result is identical to
the naive overlaps at machine precision; only terms with Gaussian weight
below ~1e-20 are dropped.

Every field and every s_w comes from a plan (`HusimiTransform`), which the
caller builds once per grid and passes to every call, and one workspace
per batch of states, so the per-state loop allocates no grid-sized array;
each entropy batch takes the coherent reference that fixes the s_w scale
in its own workspace, before any of its states.  States come as the
columns of a 2-D array and dwell times as an array: which Schur states
are imaged is the caller's rule, so nothing here reads a spectrum.

A Wehrl entropy is an integral over the torus, and the grid that images a
field need not be the grid that integrates it: `entropy_grid(N)` is the
quadrature grid at which the Husimi field's Fourier modes have fallen
below double precision.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .ensemble import PhaseSpaceGrid
from .standard_map import TWO_PI

__all__ = [
    "HusimiTransform",
    "coherent_state",
    "entropy_grid",
    "mean_husimi",
    "state_entropies",
    "dwell_bins",
    "bin_means",
]

# Torus image cutoff for the coherent state.
M_RANGE = 3

# Gaussian window weights below exp(-46) ~ 1e-20 are dropped in the fast path.
WINDOW_LOG_CUT = 46.0

# Most cells in one block of rows that `overlap_field` folds and
# transforms at a time (1 MiB of complex values), and that a plan's build
# computes its windows and norm field in, so that neither's buffers beyond
# the field and the plan grow with the grid.  A row's FFT, window and
# image-pair sums do not depend on the rows computed with it, so the
# blocks change no bit.
BLOCK_CELLS = 2**16

# exp(-x) is exactly 0.0 in double precision for x > 745.14; image pairs of
# the norm field whose exponent exceeds this everywhere add nothing.
EXP_ZERO_EXPONENT = 746.0


def _row_blocks(n_rows: int, width: int) -> list:
    """Slices of consecutive rows of an (n_rows, width) array, each of at
    most BLOCK_CELLS cells and at least one row."""
    rows = max(1, BLOCK_CELLS // width)
    return [slice(a, min(a + rows, n_rows)) for a in range(0, n_rows, rows)]


def _window(N: int, k: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Gaussian window exp(-pi N (k/N - q)^2) of each q row: k is one row
    of extended sites shared by every q, or one row of sites per q."""
    return np.exp(-np.pi * N * (k / N - q[:, None]) ** 2)


def coherent_state(center, N: int) -> np.ndarray:
    """Normalized torus coherent state at (q0, p0), length-N complex vector."""
    if N < 2:
        raise ValueError(f"N must be >= 2, got {N}")
    q0, p0 = float(center[0]), float(center[1])
    x = np.arange(1, N + 1) / N
    psi = np.zeros(N, dtype=complex)
    for m in range(-M_RANGE, M_RANGE + 1):
        psi += np.exp(-np.pi * N * (x - q0 - m) ** 2 + 2j * np.pi * N * p0 * (x - m))
    nrm = np.linalg.norm(psi)
    if nrm == 0.0:
        raise RuntimeError(f"coherent state underflowed at center ({q0}, {p0})")
    return psi / nrm


def _raw_entropy(masses: np.ndarray, scratch: tuple) -> float:
    """-sum m ln(m M) over cells, with 0 ln 0 := 0.

    This is the differential entropy of the field relative to the uniform
    density; keeping the cell count M inside the log makes the uniform
    field evaluate to 0 up to one rounding per cell instead of a large
    cancellation.

    The positive masses are compressed to a contiguous run before the
    log and the sum, so cells of exact zero mass leave the pairwise sum
    untouched.  scratch is a (bool, float, float) triple of length-M
    buffers, `_Workspace.entropy_scratch`.
    """
    m = masses.ravel()
    big = m.size
    positive, kept, terms = scratch
    np.greater(m, 0.0, out=positive)
    n = int(np.count_nonzero(positive))
    if n < big:
        m = np.compress(positive, m, out=kept[:n])
    t = np.multiply(m, big, out=terms[:n])
    np.log(t, out=t)
    np.multiply(m, t, out=t)
    return float(-t.sum())


def _normalize(raw: np.ndarray) -> np.ndarray:
    """Divide overlaps by their total in place, making the masses sum to 1."""
    total = raw.sum()
    if total <= 0.0:
        raise RuntimeError("Husimi field has no mass")
    return np.divide(raw, total, out=raw)


class _Workspace:
    """Buffers for a batch of transforms with one plan.

    mass receives the field itself, the one grid-sized buffer (8 B a
    cell).  fold and amp hold one block of rows (`HusimiTransform` folds
    and transforms a field block by block, at most BLOCK_CELLS cells, 1 MiB
    each): fold receives the windowed band sites placed on the n_p
    columns, and columns no band site reaches (when the band is shorter
    than n_p) stay zero from allocation; amp receives the block's FFT, and
    before that its memory holds each chunk's gathered sites as a
    contiguous (rows, width) block (gather).  The entropy reduction's
    buffers (17 B a cell) are allocated on first use, so a batch that
    takes no entropy, such as `mean_husimi`'s, holds the field and two
    blocks: about 10 MB on a 1000^2 grid.
    """

    def __init__(self, n_q: int, n_p: int, rows: int):
        self.fold = np.zeros((rows, n_p), dtype=complex)
        self.amp = np.empty((rows, n_p), dtype=complex)
        self.mass = np.empty((n_q, n_p))
        self.gather = self.amp.reshape(-1)

    @functools.cached_property
    def entropy_scratch(self) -> tuple:
        """(positive, kept, terms): a bool and two float buffers of one
        value per cell, for `_raw_entropy`."""
        cells = self.mass.size
        return np.empty(cells, dtype=bool), np.empty(cells), np.empty(cells)


class HusimiTransform:
    """Precomputed Husimi analyzer for one (N, n_q, n_p) combination.

    Holds, for every q row, the band of extended sites its Gaussian window
    reaches, as chunks of n_p site indices and window weights that fold
    onto the p-axis FFT columns; the per-site half-cell phase; and the
    exact coherent-state norm field used as denominator.  Build one per
    grid and pass it to every call on that grid; building it costs about as
    much as a handful of transforms, and a 1000^2 plan at N = 512 holds
    about 11 MB (8 MB of it the norm field), and its build allocates
    little beyond that, since it runs in row blocks too (12.2 MiB traced
    in all).  The plan also fixes the row blocks (at most BLOCK_CELLS cells
    each) in which `overlap_field` folds and transforms a field, so a
    workspace holds one grid-sized array, the field, and two blocks.
    The cell centers and the check of at least 2 cells per axis are
    `PhaseSpaceGrid`'s.  Nothing is set on a plan once `__init__`
    returns, so batches may share one: per-call buffers live in a
    `workspace()`, which each batch allocates once and passes to every
    `overlap_field`.
    """

    def __init__(self, N: int, n_q: int, n_p: int):
        if N < 2:
            raise ValueError(f"N must be >= 2, got {N}")
        grid = PhaseSpaceGrid(n_q, n_p)
        self.N = N
        self.n_q = n_q
        self.n_p = n_p
        self.q = grid.q_centers
        self.p = grid.p_centers

        # Extended lattice k' = k - m N restricted to where the Gaussian
        # window can matter for some q in [0, 1).
        u_max = math.sqrt(WINDOW_LOG_CUT / (math.pi * N))
        k_lo = max(1 - M_RANGE * N, math.floor(-u_max * N))
        k_hi = min((M_RANGE + 1) * N, math.ceil((1.0 + u_max) * N))
        kex = np.arange(k_lo, k_hi + 1)
        self._src = (kex - 1) % N
        # Half-cell offset of the p grid, folded into a phase of the
        # absolute site, so it does not depend on where a row's band starts.
        self._half_phase = np.exp(-1j * np.pi * kex / n_p)
        # Each row's first and last reached site, then its band's window,
        # in row blocks, so no (n_q, extended lattice) array is allocated.
        lo = np.empty(n_q, dtype=np.intp)
        hi = np.empty(n_q, dtype=np.intp)
        for rows in _row_blocks(n_q, kex.size):
            reached = _window(N, kex[None, :], self.q[rows]) >= math.exp(-WINDOW_LOG_CUT)
            lo[rows] = reached.argmax(axis=1)
            hi[rows] = kex.size - 1 - reached[:, ::-1].argmax(axis=1)
        length = int((hi - lo).max()) + 1
        band = np.minimum(lo, kex.size - length)[:, None] + np.arange(length)
        window = np.empty(band.shape)
        for rows in _row_blocks(n_q, length):
            window[rows] = _window(N, kex[band[rows]], self.q[rows])
        # Band site t lands on FFT column t mod n_p: chunks of n_p sites,
        # each a contiguous (n_q, width) site index and window.
        self._chunks = tuple(
            (np.ascontiguousarray(band[:, a : a + n_p]), np.ascontiguousarray(window[:, a : a + n_p]))
            for a in range(0, length, n_p)
        )
        self._norm2 = self._norm_field()
        # Row blocks of at most BLOCK_CELLS cells (at least one row each):
        # each block's rows, its rows of every chunk and its norm field.
        self._blocks = tuple(
            (block, tuple((index[block], window[block]) for index, window in self._chunks), self._norm2[block])
            for block in _row_blocks(n_q, n_p)
        )

    def _norm_field(self) -> np.ndarray:
        """Squared norm of the unnormalized coherent state at every grid
        cell: a cosine series in p whose coefficients couple image pairs.

        An image pair (d, m) is skipped when its exponent, minimized over
        the rows' range of u (the analytic minimum sits at u = m - d/2),
        puts every term past exp's underflow to exactly zero: adding those
        zeros would not change a bit."""
        x = np.arange(1, self.N + 1)[None, :] / self.N
        # rounding is monotone, so these are the extremes of x - q
        u_lo, u_hi = float(x.min() - self.q.max()), float(x.max() - self.q.min())
        pairs = []
        for d in range(0, 2 * M_RANGE + 1):
            for m in range(max(-M_RANGE, d - M_RANGE), M_RANGE + 1):
                u_min = min(max(m - d / 2, u_lo), u_hi)
                if math.pi * self.N * ((u_min - m) ** 2 + (u_min - m + d) ** 2) <= EXP_ZERO_EXPONENT:
                    pairs.append((d, m))
        coeff = np.zeros((2 * M_RANGE + 1, self.n_q))
        for rows in _row_blocks(self.n_q, self.N):
            u = x - self.q[rows, None]
            for d, m in pairs:
                expo = (u - m) ** 2 + (u - m + d) ** 2
                coeff[d, rows] += np.exp(-np.pi * self.N * expo).sum(axis=1)
        twice_cos = [2.0 * np.cos(TWO_PI * self.N * self.p * d)[None, :] for d in range(1, 2 * M_RANGE + 1)]
        norm2 = np.empty((self.n_q, self.n_p))
        for rows in _row_blocks(self.n_q, self.n_p):
            block = norm2[rows]
            block[...] = coeff[0, rows, None]
            for d in range(1, 2 * M_RANGE + 1):
                block += twice_cos[d - 1] * coeff[d, rows, None]
        if not (norm2 > 0.0).all():
            raise RuntimeError("coherent norm field is not positive; grid too coarse?")
        return norm2

    def workspace(self) -> _Workspace:
        """Fresh buffers for `overlap_field`; one per batch of states."""
        return _Workspace(self.n_q, self.n_p, self._blocks[0][0].stop)

    def overlap_field(self, state: np.ndarray, work: _Workspace) -> np.ndarray:
        """|<alpha(q_i, p_j)|state>|^2 before mass normalization, written
        into work.mass, which the next call with that workspace overwrites;
        nothing grid-sized is allocated.
        """
        v = np.asarray(state, dtype=complex).ravel()
        if v.size != self.N:
            raise ValueError(f"state length {v.size} != N = {self.N}")
        phased = v[self._src] * self._half_phase
        for rows, chunks, norm2 in self._blocks:
            fold = work.fold[: rows.stop - rows.start]
            # The first chunk is written onto columns 0 .. width-1, later
            # ones (wraps) are added, so each column sums its sites in
            # lattice order.
            for k, (index, window) in enumerate(chunks):
                cols = fold[:, : index.shape[1]]
                # mode="wrap" (the indices are in range) lets take write into
                # the contiguous gather block without buffering
                sites = np.take(phased, index, out=work.gather[: index.size].reshape(index.shape), mode="wrap")
                if k == 0:
                    np.multiply(sites, window, out=cols)
                else:
                    cols += np.multiply(sites, window, out=sites)
            # |.|^2 over the FFT output's interleaved (re, im) floats
            amp = np.fft.fft(fold, axis=1, out=work.amp[: fold.shape[0]]).view(float)
            np.square(amp, out=amp)
            mass = np.add(amp[:, 0::2], amp[:, 1::2], out=work.mass[rows])
            mass /= norm2
        return work.mass

    def field(self, state: np.ndarray) -> np.ndarray:
        """Mass-normalized Husimi field of a state, a fresh array: masses
        at the cell centers ((i+1/2)/n_q, (j+1/2)/n_p), summing to 1."""
        return _normalize(self.overlap_field(state, self.workspace()))


def entropy_grid(N: int) -> int:
    """Cells per axis of the square grid on which the Wehrl entropy of a
    length-N state is integrated.

    The torus Husimi function is the Wigner function smoothed by the
    coherent state, a Gaussian of variance 1/(4 pi N) per axis, so its
    Fourier coefficient at integer mode (n, m) is the state's expectation
    of a phase-space translation, at most 1 in modulus, times the
    Gaussian's transform exp(-pi (n^2 + m^2) / (2N)).  The periodic
    midpoint sum on n cells per axis integrates every mode exactly except
    those aliased from multiples of n, whose weight is at most about
    exp(-pi n^2 / (2N)).  That drops below double-precision epsilon, 2^-52,
    at n >= sqrt(2N ln(2^52) / pi), so the grid then sees every mode the
    field has.  n is the smallest 5-smooth integer (2^a 3^b 5^c) at or above
    that bound, a size the FFT handles without a slow prime factor: 20, 40,
    60, 80 and 120 at N = 16, 64, 128, 256 and 512.

    The entropy integrand -H ln H is broader in Fourier space than H
    itself, so the bound does not make s_w exact; `quantum` records the
    change of its top states' s_w between n and 2n as a check.
    """
    n = math.ceil(math.sqrt(2.0 * N * math.log(2.0**52) / math.pi))
    while not _five_smooth(n):
        n += 1
    return n


def _five_smooth(n: int) -> bool:
    for p in (2, 3, 5):
        while n % p == 0:
            n //= p
    return n == 1


def mean_husimi(vectors: np.ndarray, plan: HusimiTransform) -> np.ndarray:
    """Mean of the mass-normalized Husimi fields on plan's grid of the
    columns of vectors, a 2-D array of length-N states (such as the
    longest-lived Schur states), renormalized: one transform per column,
    all in one workspace."""
    work = plan.workspace()
    acc = np.zeros((plan.n_q, plan.n_p))
    for j in range(vectors.shape[1]):
        acc += _normalize(plan.overlap_field(vectors[:, j], work))
    return _normalize(acc)


def _coherent_entropy(plan: HusimiTransform, work: _Workspace) -> float:
    """Raw entropy of the reference coherent state at (0.5, 0.5) on plan's
    grid, taken in work; it anchors the localized end of the Wehrl scale.

    Raises RuntimeError when it is not clearly negative: on a grid too
    coarse to resolve the coherent state the scale has no length.
    """
    state = coherent_state((0.5, 0.5), plan.N)
    s_coh = _raw_entropy(_normalize(plan.overlap_field(state, work)), work.entropy_scratch)
    if s_coh >= -1e-9:
        raise RuntimeError(f"degenerate coherent reference entropy {s_coh:.3g}")
    return s_coh


def _wehrl_scale(s, s_coh: float):
    """Normalized Wehrl localization of raw entropy s (a number or an array
    of them) against the reference's raw entropy s_coh: (s - s_coh) /
    (0 - s_coh) clipped to [0, 1], so the uniform field maps to 1 and the
    reference coherent state to 0."""
    return np.clip((s - s_coh) / (0.0 - s_coh), 0.0, 1.0)


def state_entropies(vectors: np.ndarray, plan: HusimiTransform) -> np.ndarray:
    """s_w on plan's grid of each column of vectors, a 2-D array of
    length-N states (such as Schur states), in column order, all in one
    workspace, which takes the coherent reference first: a degenerate grid
    fails before any state."""
    work = plan.workspace()
    s_coh = _coherent_entropy(plan, work)
    raw = np.empty(vectors.shape[1])
    for j in range(raw.size):
        raw[j] = _raw_entropy(_normalize(plan.overlap_field(vectors[:, j], work)), work.entropy_scratch)
    return _wehrl_scale(raw, s_coh)


# Dwell-bin indices stay below this.  Below 2^52, index + 1/2 is a
# double, and rounding the product (index + 1/2) * width moves it by at
# most (index + 1/2) * width * 2^-53 < width / 2, so every bin center lies
# strictly inside its bin.
BIN_INDEX_LIMIT = 2.0**52


def dwell_bins(dwell: np.ndarray, bin_width: float) -> np.ndarray:
    """Bin index floor(dwell / bin_width) of every dwell time (such as a
    spectrum's), as int64.  Raises ValueError for a bin width that is not
    finite and positive, for infinite dwell times (a closed system), and
    for an index of BIN_INDEX_LIMIT or more, past which a bin center is no
    longer a double inside its bin."""
    if not (math.isfinite(bin_width) and bin_width > 0.0):
        raise ValueError(f"bin width must be finite and positive, got {bin_width}")
    if np.isinf(dwell).any():
        raise ValueError("dwell times are infinite (closed system); open the propagator first")
    with np.errstate(over="ignore"):  # an index that overflows to inf fails the check below
        bins = np.floor(dwell / bin_width)
    if not bins.max() < BIN_INDEX_LIMIT:
        raise ValueError(
            f"bin width {bin_width} is too small for the largest dwell time {dwell.max()}: "
            "its bin index reaches 2^52, past which a bin center can fall outside its bin"
        )
    return bins.astype(np.int64)


def bin_means(bins: np.ndarray, s_w: np.ndarray, bin_width: float) -> tuple:
    """(index, center, mean s_w, count) of each occupied dwell bin, in index
    order, for the `dwell_bins` indices of the states whose s_w are given; a
    bin's center is (index + 1/2) * bin_width."""
    index = np.unique(bins)
    mean = np.array([s_w[bins == b].mean() for b in index])
    count = np.array([(bins == b).sum() for b in index])
    return index, (index + 0.5) * bin_width, mean, count
