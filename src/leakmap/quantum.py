"""Quantized standard map on an N-site torus lattice, closed and leaked.

The one-kick propagator in the position basis (k, k' = 1 .. N) is

    U[k, k'] = N^{-1/2} exp[ i pi (k - k')^2 / N + i (N K / 2 pi) cos(2 pi k'/N) ]

which is unitary for every N, not just special values: the free part is a
quadratic Gauss kernel and the kick is a diagonal phase.  Opening the system
projects out lattice sites inside the leak strip; decay rates and dwell
times come from the moduli of the resulting non-unitary spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy.linalg
from scipy.linalg import lapack

from .standard_map import TWO_PI, Leak

__all__ = [
    "QuantumParams",
    "ResonanceSet",
    "QuantumScan",
    "ZERO_MODE_TOL",
    "build_unitary",
    "unitarity_defect",
    "build_projector",
    "open_propagator",
    "resonance_spectrum",
    "leak_spectrum",
    "dwell_stats",
    "leak_scan_quantum",
]

# |z| below this counts as a structural zero mode: infinite decay rate,
# zero dwell time.
ZERO_MODE_TOL = 1e-14

# |z| within this distance of 1 counts as a unit-modulus (non-decaying) mode:
# gamma is snapped to 0 and the dwell time to +inf.  The closed map produces
# |z| = 1 +- few eps; the slowest genuine resonance at desk scale sits orders
# of magnitude further inside the disk.
UNIT_MODULUS_TOL = 5e-13


@dataclass(frozen=True)
class QuantumParams:
    """Hilbert-space dimension (inverse effective Planck constant) and kick."""

    N: int
    K: float = 10.0

    def __post_init__(self):
        if int(self.N) != self.N or self.N < 2:
            raise ValueError(f"N must be an integer >= 2, got {self.N}")
        if not math.isfinite(self.K):
            raise ValueError(f"K must be finite, got {self.K}")


def build_unitary(params: QuantumParams) -> np.ndarray:
    """Dense one-kick propagator, shape (N, N) complex."""
    N = params.N
    k = np.arange(1, N + 1)
    dk2 = (k[:, None] - k[None, :]) ** 2
    kick = (N * params.K / TWO_PI) * np.cos(TWO_PI * k / N)
    return np.exp(1j * (np.pi / N) * dk2 + 1j * kick[None, :]) / math.sqrt(N)


def unitarity_defect(u: np.ndarray) -> float:
    """max |U^H U - I|; ~1e-14 for the exact propagator at any N."""
    n = u.shape[0]
    return float(np.abs(u.conj().T @ u - np.eye(n)).max())


def build_projector(params: QuantumParams, leak: Leak) -> np.ndarray:
    """Boolean survival mask over lattice sites: True where q_k = k/N mod 1
    lies outside the leak strip.

    Membership follows the same half-open wraparound rule as Leak.contains,
    but is evaluated in exact rational arithmetic on the decimal values of
    center and width.  Lattice sites land exactly on strip edges for typical
    inputs (k/N = 3/10 on the edge 0.2 + 0.2/2), where accumulated float
    rounding would absorb sites that the half-open rule excludes.

    The number of absorbed sites is floor(N dq) or ceil(N dq).
    """
    center = Fraction(repr(float(leak.center)))
    width = Fraction(repr(float(leak.width)))
    lo = (center - width / 2) % 1
    keep = np.empty(params.N, dtype=bool)
    for k in range(1, params.N + 1):
        d = (Fraction(k, params.N) - lo) % 1
        keep[k - 1] = not d < width
    return keep


def open_propagator(u: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Project the propagator on surviving sites: rows of absorbed sites
    are zeroed, so amplitude entering the leak is removed once per kick."""
    keep = np.asarray(keep, dtype=bool)
    if keep.shape != (u.shape[0],):
        raise ValueError(f"mask shape {keep.shape} does not match propagator {u.shape}")
    out = u.copy()
    out[~keep, :] = 0.0
    return out


@dataclass
class ResonanceSet:
    """Complex-Schur spectrum of an open propagator, ordered by lifetime.

    z: unit-modulus-or-less eigenvalues, |z| non-increasing.
    theta: phases in (-pi, pi].
    gamma: decay rates -2 ln|z|; +inf for zero modes (|z| < ZERO_MODE_TOL),
        clamped at 0 against roundoff for unit-modulus modes.
    dwell: dwell times 1/gamma; 0 for zero modes, +inf for unit modulus.
    vectors: unitary matrix whose k-th column is the k-th Schur vector; the
        leading m columns span the invariant subspace of the m longest-lived
        resonances.
    triangular: reordered upper-triangular factor, diag == z.
    """

    z: np.ndarray
    theta: np.ndarray
    gamma: np.ndarray
    dwell: np.ndarray
    vectors: np.ndarray
    triangular: np.ndarray

    @property
    def n_zero_modes(self) -> int:
        return int((np.abs(self.z) < ZERO_MODE_TOL).sum())

    def residual(self, m: np.ndarray) -> float:
        """max |m V - V T|, the factorization defect."""
        return float(np.abs(m @ self.vectors - self.vectors @ self.triangular).max())


def _sorted_schur(m: np.ndarray):
    """Complex Schur factorization reordered to non-increasing |diag|.

    Reordering is a selection sort of unitary similarity swaps (LAPACK
    ztrexc), which moves one diagonal entry to the front at a time while
    keeping the factorization exact to roundoff.
    """
    try:
        t, v = scipy.linalg.schur(m, output="complex")
    except scipy.linalg.LinAlgError as exc:
        raise RuntimeError(
            f"Schur factorization failed for {m.shape[0]}x{m.shape[1]} matrix "
            f"(max |entry| {np.abs(m).max():.3g}, finite={np.isfinite(m).all()}): {exc}"
        ) from exc
    t = np.asfortranarray(t)
    v = np.asfortranarray(v)
    n = t.shape[0]
    for i in range(n - 1):
        d = np.abs(np.diag(t))
        j = i + int(np.argmax(d[i:]))
        if j != i:
            t, v, info = lapack.ztrexc(t, v, j + 1, i + 1, overwrite_a=1, overwrite_q=1)
            if info != 0:
                raise RuntimeError(f"ztrexc failed with info={info} moving {j} -> {i}")
    return t, v


def resonance_spectrum(m: np.ndarray) -> ResonanceSet:
    """Lifetime-ordered resonances of an open (sub-unitary) propagator."""
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"propagator must be square, got {m.shape}")
    t, v = _sorted_schur(m)
    z = np.diag(t).copy()
    modz = np.abs(z)
    if np.any(np.diff(modz) > 1e-12):
        raise RuntimeError("Schur reordering left |z| non-monotone")
    zero = modz < ZERO_MODE_TOL
    unit = modz >= 1.0 - UNIT_MODULUS_TOL
    with np.errstate(divide="ignore"):
        gamma = np.where(zero, np.inf, -2.0 * np.log(np.maximum(modz, ZERO_MODE_TOL)))
    gamma = np.maximum(gamma, 0.0)  # |z| can exceed 1 by roundoff when closed
    gamma[unit & ~zero] = 0.0
    with np.errstate(divide="ignore"):
        dwell = np.where(zero, 0.0, np.where(gamma == 0.0, np.inf, 1.0 / np.maximum(gamma, 1e-300)))
    return ResonanceSet(
        z=z,
        theta=np.angle(z),
        gamma=gamma,
        dwell=dwell,
        vectors=np.ascontiguousarray(v),
        triangular=np.ascontiguousarray(t),
    )


def leak_spectrum(u: np.ndarray, keep: np.ndarray) -> ResonanceSet:
    """Resonances of the propagator u opened on the sites keep marks
    (`build_projector`)."""
    return resonance_spectrum(open_propagator(u, keep))


@dataclass
class QuantumScan:
    """Leak-position scan of the mean dwell time over all N Schur states.

    Zero modes enter the average with dwell 0; n_zero_modes reports how many
    per position."""

    positions: np.ndarray
    mean_dwell: np.ndarray
    se_dwell: np.ndarray
    n_zero_modes: np.ndarray

    @classmethod
    def from_rows(cls, positions, rows) -> "QuantumScan":
        """Assemble a scan from one `dwell_stats` row per position."""
        mean, se, n_zero = np.array(rows, dtype=float).reshape(-1, 3).T
        return cls(np.asarray(positions, dtype=float), mean, se, n_zero.astype(np.int64))


def dwell_stats(res: ResonanceSet) -> tuple:
    """(mean dwell, its standard error, zero-mode count) over all states of
    one resonance set: the per-position statistics of `QuantumScan`.  An
    infinite dwell time (a closed system) makes the mean meaningless (NaN)."""
    if np.isinf(res.dwell).any():
        return math.nan, math.nan, res.n_zero_modes
    return res.dwell.mean(), res.dwell.std(ddof=1) / math.sqrt(res.dwell.size), res.n_zero_modes


def leak_scan_quantum(params: QuantumParams, positions, width: float, each=None) -> QuantumScan:
    """Mean quantum dwell time as the leak center scans [0, 1).

    The closed propagator is built once; each position only changes the
    projector.  width = 0 makes every dwell time infinite and the mean
    meaningless (NaN).  each(i, res), when given, is called with the
    resonance set of every position i, so further statistics share its one
    Schur factorization."""
    positions = np.asarray(positions, dtype=float)
    u = build_unitary(params)
    rows = []
    for i, center in enumerate(positions):
        res = leak_spectrum(u, build_projector(params, Leak(float(center), width)))
        if each is not None:
            each(i, res)
        rows.append(dwell_stats(res))
    return QuantumScan.from_rows(positions, rows)
