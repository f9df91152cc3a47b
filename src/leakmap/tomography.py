"""Phase-space tomography: Husimi fields and Wehrl entropies of lattice states.

The analyzer is a torus coherent state centered on (q0, p0): a periodized
Gaussian over position sites k/N,

    alpha_k  propto  sum_m exp[-pi N (k/N - q0 - m)^2 + 2 pi i N p0 (k/N - m)]

with the image sum truncated at |m| <= 3 (double precision saturates long
before that).  The Husimi mass of a state v on a grid cell is
|<alpha(q_i, p_j)|v>|^2, normalized so the whole field sums to 1.

Evaluating the overlaps naively costs O(N) per grid cell.  Instead the
m-sum is absorbed into an extended site lattice k', the Gaussian window is
applied once per q row, and the p dependence exp(-2 pi i p_j k') collapses
to a length-n_p FFT after folding k' modulo n_p.  The fold is a cyclic
placement computed once per plan: runs of consecutive extended sites, each
landing on a contiguous block of FFT columns, are written (first touch) or
added (later wraps) in lattice order.  The result is identical to the naive
overlaps at machine precision; only terms with Gaussian weight below ~1e-20
are dropped.

Batches of states (`state_entropies`, `mean_husimi`) run every transform,
normalization and entropy reduction inside one workspace allocated per
call, so the per-state loop allocates no grid-sized array.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .quantum import QuantumParams, ResonanceSet, leak_scan_quantum
from .standard_map import TWO_PI

__all__ = [
    "HusimiField",
    "HusimiTransform",
    "WehrlRecord",
    "EntropyScatter",
    "EntropyScan",
    "coherent_state",
    "husimi_plan",
    "husimi",
    "mean_husimi",
    "wehrl_entropy",
    "state_entropies",
    "entropy_vs_dwell",
    "wehrl_stats",
    "leak_scan",
]

# Torus image cutoff for the coherent state.
M_RANGE = 3

# Gaussian window weights below exp(-46) ~ 1e-20 are dropped in the fast path.
WINDOW_LOG_CUT = 46.0


@dataclass
class HusimiField:
    """Non-negative Husimi masses on an n_q x n_p grid of cell centers
    ((i+1/2)/n_q, (j+1/2)/n_p); masses sum to 1."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2:
            raise ValueError(f"Husimi field must be 2-D, got shape {self.values.shape}")

    @property
    def shape(self):
        return self.values.shape


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


def _raw_entropy(masses: np.ndarray, scratch=None) -> float:
    """-sum m ln(m M) over cells, with 0 ln 0 := 0.

    This is the differential entropy of the field relative to the uniform
    density; keeping the cell count M inside the log makes the uniform
    field evaluate to 0 up to one rounding per cell instead of a large
    cancellation.

    The positive masses are compressed to a contiguous run before the
    log and the sum, so cells of exact zero mass leave the pairwise sum
    untouched.  scratch, a (bool, float, float) triple of length-M
    buffers such as `_Workspace.entropy_scratch`, avoids allocating them.
    """
    m = masses.ravel()
    big = m.size
    if scratch is None:
        scratch = (np.empty(big, dtype=bool), np.empty(big), np.empty(big))
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


def _cyclic_runs(first_col: int, length: int, n_p: int) -> tuple:
    """Placement of extended sites 0 .. length-1 on FFT columns
    (first_col + site) mod n_p, as (start, stop, column, first) runs in
    lattice order.

    Sites start .. stop-1 land on columns column .. column+stop-start-1
    without wrapping.  `first` marks runs whose columns no earlier site has
    reached (every site below n_p): they are written, later runs are added,
    so each column sums its sites in lattice order.
    """
    runs = []
    e = 0
    while e < length:
        col = (first_col + e) % n_p
        stop = min(length, e + n_p - col)
        if e < n_p < stop:
            stop = n_p
        runs.append((e, stop, col, e < n_p))
        e = stop
    return tuple(runs)


class _Workspace:
    """Grid-sized buffers for a batch of transforms with one plan.

    fold receives the windowed sites placed on the n_p columns; columns no
    extended site reaches (only when the lattice is shorter than n_p) stay
    zero from allocation.  amp receives the FFT; once a field's masses are
    out, its memory serves as the entropy reduction's compress and term
    buffers.  mass receives the field itself.
    """

    def __init__(self, n_q: int, n_p: int):
        self.fold = np.zeros((n_q, n_p), dtype=complex)
        self.amp = np.empty((n_q, n_p), dtype=complex)
        self.mass = np.empty((n_q, n_p))
        kept, terms = self.amp.view(float).reshape(2, -1)
        self.entropy_scratch = (np.empty(n_q * n_p, dtype=bool), kept, terms)


class HusimiTransform:
    """Precomputed Husimi analyzer for one (N, n_q, n_p) combination.

    Holds the Gaussian window over the extended site lattice, its cyclic
    placement on the p-axis FFT columns, the exact coherent-state norm
    field used as denominator, and the Wehrl scale (`coherent_entropy`,
    `s_w`).  Reuse one instance across many states; building it costs
    about as much as a handful of transforms.  The plan itself is
    read-only: per-call buffers live in a `workspace()`, which the batch
    functions allocate once per call and pass to every `overlap_field`.
    """

    def __init__(self, N: int, n_q: int, n_p: int):
        if N < 2:
            raise ValueError(f"N must be >= 2, got {N}")
        if n_q < 2 or n_p < 2:
            raise ValueError(f"grid needs >= 2 cells per axis, got {n_q}x{n_p}")
        self.N = N
        self.n_q = n_q
        self.n_p = n_p
        self.q = (np.arange(n_q) + 0.5) / n_q
        self.p = (np.arange(n_p) + 0.5) / n_p

        # Extended lattice k' = k - m N restricted to where the Gaussian
        # window can matter for some q in [0, 1).
        u_max = math.sqrt(WINDOW_LOG_CUT / (math.pi * N))
        k_lo = max(1 - M_RANGE * N, math.floor(-u_max * N))
        k_hi = min((M_RANGE + 1) * N, math.ceil((1.0 + u_max) * N))
        kex = np.arange(k_lo, k_hi + 1)
        self._src = (kex - 1) % N
        self._window = np.exp(-np.pi * N * (kex[None, :] / N - self.q[:, None]) ** 2)
        # Half-cell offset of the p grid, folded into a per-site phase.
        self._half_phase = np.exp(-1j * np.pi * kex / n_p)
        self._runs = _cyclic_runs(int(kex[0] % n_p), kex.size, n_p)
        self._norm2 = self._norm_field()
        self._s_coh = None

    def _norm_field(self) -> np.ndarray:
        """Squared norm of the unnormalized coherent state at every grid
        cell: a cosine series in p whose coefficients couple image pairs."""
        u = np.arange(1, self.N + 1)[None, :] / self.N - self.q[:, None]
        coeff = np.zeros((2 * M_RANGE + 1, self.n_q))
        for d in range(0, 2 * M_RANGE + 1):
            for m in range(max(-M_RANGE, d - M_RANGE), M_RANGE + 1):
                expo = (u - m) ** 2 + (u - m + d) ** 2
                coeff[d] += np.exp(-np.pi * self.N * expo).sum(axis=1)
        norm2 = np.repeat(coeff[0][:, None], self.n_p, axis=1)
        for d in range(1, 2 * M_RANGE + 1):
            norm2 += 2.0 * np.cos(TWO_PI * self.N * self.p * d)[None, :] * coeff[d][:, None]
        if not (norm2 > 0.0).all():
            raise RuntimeError("coherent norm field is not positive; grid too coarse?")
        return norm2

    def workspace(self) -> _Workspace:
        """Fresh buffers for `overlap_field`; one per batch of states."""
        return _Workspace(self.n_q, self.n_p)

    def overlap_field(self, state: np.ndarray, work: _Workspace | None = None) -> np.ndarray:
        """|<alpha(q_i, p_j)|state>|^2 before mass normalization.

        With a workspace the result is written into work.mass, which the
        next call with that workspace overwrites, and nothing grid-sized is
        allocated.  Without one the result is a fresh array.
        """
        v = np.asarray(state, dtype=complex).ravel()
        if v.size != self.N:
            raise ValueError(f"state length {v.size} != N = {self.N}")
        if work is None:
            work = self.workspace()
        phased = v[self._src] * self._half_phase
        fold, amp = work.fold, work.amp
        for start, stop, col, first in self._runs:
            dst = fold[:, col : col + stop - start]
            if first:
                np.multiply(self._window[:, start:stop], phased[start:stop], out=dst)
            else:
                term = np.multiply(self._window[:, start:stop], phased[start:stop], out=amp[:, : stop - start])
                dst += term
        np.fft.fft(fold, axis=1, out=amp)
        mass = np.square(amp.real, out=work.mass)
        mass += np.square(amp.imag, out=amp.imag)
        mass /= self._norm2
        return mass

    def field(self, state: np.ndarray) -> HusimiField:
        """Mass-normalized Husimi field of a state."""
        return HusimiField(values=_normalize(self.overlap_field(state)))

    @property
    def coherent_entropy(self) -> float:
        """Raw entropy of the reference coherent state at (0.5, 0.5);
        anchors the localized end of the Wehrl scale.

        Raises RuntimeError when it is not clearly negative: on a grid too
        coarse to resolve the coherent state the scale has no length.
        """
        if self._s_coh is None:
            s_coh = _raw_entropy(self.field(coherent_state((0.5, 0.5), self.N)).values)
            if s_coh >= -1e-9:
                raise RuntimeError(f"degenerate coherent reference entropy {s_coh:.3g}")
            self._s_coh = s_coh
        return self._s_coh

    def s_w(self, s: float) -> float:
        """Normalized Wehrl localization of raw entropy s on this grid:
        (s - S_coh) / (0 - S_coh) clipped to [0, 1], so the uniform field
        maps to 1 and the reference coherent state to 0."""
        s_coh = self.coherent_entropy
        return float(np.clip((s - s_coh) / (0.0 - s_coh), 0.0, 1.0))


# Recently used plans kept alive; a 1000^2 plan at N = 512 holds ~14 MB.
PLAN_CACHE_SIZE = 4


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def _plan(N: int, n_q: int, n_p: int) -> HusimiTransform:
    return HusimiTransform(N, n_q, n_p)


def husimi_plan(N: int, resolution=(1000, 1000)) -> HusimiTransform:
    """The cached analyzer of length-N states on an n_q x n_p grid, the one
    every function here uses; building it ahead of a fork lets worker
    processes inherit it."""
    return _plan(int(N), int(resolution[0]), int(resolution[1]))


def husimi(state: np.ndarray, N: int, resolution=(1000, 1000)) -> HusimiField:
    """Husimi field of a length-N state on an n_q x n_p grid."""
    return husimi_plan(N, resolution).field(state)


def mean_husimi(res: ResonanceSet, m: int = 20, resolution=(1000, 1000)) -> HusimiField:
    """Mean Husimi field of the m longest-lived Schur states, renormalized.

    Requires at least m states with nonzero dwell time; zero modes carry no
    lifetime and are never averaged in.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    n_alive = int((res.dwell > 0.0).sum())
    if n_alive < m:
        raise RuntimeError(f"only {n_alive} nonzero-dwell states available, need m={m}")
    plan = husimi_plan(res.vectors.shape[0], resolution)
    work = plan.workspace()
    acc = np.zeros((plan.n_q, plan.n_p))
    for j in range(m):
        acc += _normalize(plan.overlap_field(res.vectors[:, j], work))
    return HusimiField(values=acc / acc.sum())


@dataclass(frozen=True)
class WehrlRecord:
    """Normalized Wehrl localization of one field: s_w from
    `HusimiTransform.s_w` and the raw entropy it maps."""

    s_w: float
    raw_entropy: float


def wehrl_entropy(field: HusimiField, N: int) -> WehrlRecord:
    """Wehrl localization measure of a Husimi field for dimension N."""
    plan = _plan(N, field.values.shape[0], field.values.shape[1])
    s = _raw_entropy(field.values)
    return WehrlRecord(s_w=plan.s_w(s), raw_entropy=s)


def state_entropies(res: ResonanceSet, resolution=(1000, 1000), cols=slice(None)) -> np.ndarray:
    """s_w of the Schur states res.vectors[:, cols] (all of them by
    default), in lifetime order.  Each state's value does not depend on
    the others, so contiguous blocks of columns concatenate to the whole."""
    vectors = res.vectors[:, cols]
    plan = husimi_plan(vectors.shape[0], resolution)
    # Anchor the scale (or fail) before the batch workspace exists, so the
    # reference transform's buffers are freed before these are allocated.
    plan.coherent_entropy
    work = plan.workspace()
    out = np.empty(vectors.shape[1])
    for j in range(out.size):
        s = _raw_entropy(_normalize(plan.overlap_field(vectors[:, j], work)), work.entropy_scratch)
        out[j] = plan.s_w(s)
    return out


@dataclass
class EntropyScatter:
    """Per-state (dwell, s_w) pairs plus a binned summary.

    bin_index = floor(dwell / bin_width); bin means are over states in the
    bin, bin centers at (index + 1/2) * bin_width.
    """

    dwell: np.ndarray
    s_w: np.ndarray
    bin_index: np.ndarray
    bin_width: float
    bin_centers: np.ndarray
    bin_mean: np.ndarray
    bin_count: np.ndarray


def entropy_vs_dwell(
    res: ResonanceSet, bin_width: float = 0.08, resolution=(1000, 1000), entropies=None
) -> EntropyScatter:
    """Wehrl localization against dwell time for all Schur states.

    entropies(res, resolution), when given, replaces `state_entropies`
    (say, by one that spreads blocks of states over worker processes); it
    runs only after the inputs have passed their checks."""
    if bin_width <= 0.0:
        raise ValueError(f"bin width must be positive, got {bin_width}")
    if np.isinf(res.dwell).any():
        raise ValueError("dwell times are infinite (closed system); open the propagator first")
    s_w = (entropies or state_entropies)(res, resolution)
    idx = np.floor(res.dwell / bin_width).astype(np.int64)
    uniq = np.unique(idx)
    mean = np.array([s_w[idx == b].mean() for b in uniq])
    count = np.array([(idx == b).sum() for b in uniq])
    return EntropyScatter(
        dwell=res.dwell.copy(),
        s_w=s_w,
        bin_index=idx,
        bin_width=bin_width,
        bin_centers=(uniq + 0.5) * bin_width,
        bin_mean=mean,
        bin_count=count,
    )


@dataclass
class EntropyScan:
    """Leak-position scan of the mean Wehrl localization over all states."""

    positions: np.ndarray
    mean_s_w: np.ndarray
    se_s_w: np.ndarray

    @classmethod
    def from_rows(cls, positions, rows) -> "EntropyScan":
        """Assemble a scan from one `wehrl_stats` row per position."""
        return cls(np.asarray(positions, dtype=float), *np.array(rows, dtype=float).reshape(-1, 2).T)


def wehrl_stats(res: ResonanceSet, resolution) -> tuple:
    """(mean s_w, its standard error) over all states of one resonance set:
    the per-position statistics of `EntropyScan`."""
    s_w = state_entropies(res, resolution)
    return s_w.mean(), s_w.std(ddof=1) / math.sqrt(s_w.size)


def leak_scan(params: QuantumParams, positions, width: float, resolution=(500, 500)):
    """Dwell and Wehrl statistics over leak positions from one Schur
    spectrum per position: (QuantumScan, EntropyScan)."""
    rows = []
    qs = leak_scan_quantum(params, positions, width, each=lambda i, res: rows.append(wehrl_stats(res, resolution)))
    return qs, EntropyScan.from_rows(qs.positions, rows)
