"""Quantized standard map on an N-site torus lattice, closed and leaked.

The one-kick propagator in the position basis (k, k' = 1 .. N) is

    U[k, k'] = N^{-1/2} exp[ i pi (k - k')^2 / N + i (N K / 2 pi) cos(2 pi k'/N) ]

which is unitary for every N, not just special values: the free part is a
quadratic Gauss kernel and the kick is a diagonal phase.  Opening the system
projects out lattice sites inside the leak strip; decay rates and dwell
times come from the moduli of the resulting non-unitary spectrum.

The kick acts first: U = F K, with K the diagonal kick phase and F the
Gauss kernel, while the classical map (`standard_map`) kicks last.  A
state v of U, and so every Schur vector, lives on the pre-kick section;
every classical field is indexed by the post-kick (q, p), where the
matching state is K v.  P F K and P K F are similar through K, so the
spectrum and the dwell times do not depend on the choice; the Husimi
fields and Wehrl entropies do (ROADMAP, open item 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.linalg import lapack

from .standard_map import TWO_PI, Leak

__all__ = [
    "QuantumParams",
    "ResonanceSet",
    "ZERO_MODE_TOL",
    "build_unitary",
    "unitarity_defect",
    "build_projector",
    "open_propagator",
    "resonance_spectrum",
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
    K: float

    def __post_init__(self):
        if int(self.N) != self.N or self.N < 2:
            raise ValueError(f"N must be an integer >= 2, got {self.N}")
        if not math.isfinite(self.K):
            raise ValueError(f"K must be finite, got {self.K}")


def build_unitary(params: QuantumParams) -> np.ndarray:
    """Dense one-kick propagator, shape (N, N) complex.

    The phases are built in the imaginary part of the result and
    exponentiated in place, so no other (N, N) array is allocated."""
    N = params.N
    k = np.arange(1, N + 1)
    kick = (N * params.K / TWO_PI) * np.cos(TWO_PI * k / N)
    u = np.zeros((N, N), dtype=complex)
    phase = u.imag
    np.subtract.outer(k, k, out=phase)
    np.square(phase, out=phase)
    phase *= np.pi / N
    phase += kick
    np.exp(u, out=u)
    u /= math.sqrt(N)
    return u


def unitarity_defect(u: np.ndarray) -> float:
    """max |U^H U - I|; ~1e-14 for the exact propagator at any N."""
    gram = u.conj().T @ u
    gram.flat[:: u.shape[0] + 1] -= 1.0
    return float(np.abs(gram).max())


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
    are zeroed, so amplitude entering the leak is removed once per kick.
    Returns a Fortran-ordered copy, the layout `resonance_spectrum`
    factorizes in place."""
    keep = np.asarray(keep, dtype=bool)
    if keep.shape != (u.shape[0],):
        raise ValueError(f"mask shape {keep.shape} does not match propagator {u.shape}")
    out = np.array(u, order="F")
    out[~keep, :] = 0.0
    return out


@dataclass
class ResonanceSet:
    """Complex-Schur spectrum of an open propagator, ordered by lifetime.

    z: unit-modulus-or-less eigenvalues, |z| non-increasing; their phases
        are np.angle(z).
    gamma: decay rates -2 ln|z|; +inf for zero modes (|z| < ZERO_MODE_TOL),
        0 for unit-modulus modes (|z| >= 1 - UNIT_MODULUS_TOL).
    dwell: dwell times 1/gamma; 0 for zero modes, +inf for unit modulus.
    vectors: unitary matrix V whose k-th column is the k-th Schur vector;
        the leading m columns span the invariant subspace of the m
        longest-lived resonances.  V^H M V of the propagator M is upper
        triangular with diagonal z.  V is LAPACK's Fortran-ordered factor,
        not copied, so each Schur vector is one contiguous column.
    """

    z: np.ndarray
    gamma: np.ndarray
    dwell: np.ndarray
    vectors: np.ndarray

    @property
    def n_zero_modes(self) -> int:
        return int((np.abs(self.z) < ZERO_MODE_TOL).sum())


def _no_select(z):
    """zgees' eigenvalue selector, unused: sort_t = 0 sorts nothing."""


def _sorted_schur(m: np.ndarray):
    """Diagonal and Schur vectors of a complex Schur factorization
    reordered to non-increasing |diag|.

    The factorization is LAPACK's zgees, called as scipy.linalg.schur
    calls it (finite input checked first, workspace size queried, then the
    factorization at that size), but the query's outputs, an (N, N) V
    among them, are dropped before the factorization allocates its own.
    A complex Fortran-ordered m is overwritten by the factorization; any
    other is copied first.  Reordering is a selection sort of unitary
    similarity swaps (LAPACK ztrexc), which moves one diagonal entry to
    the front at a time while keeping the factorization exact to roundoff.
    """
    t = np.asfortranarray(np.asarray_chkfinite(m), dtype=complex)
    # with lwork = -1 zgees returns the workspace size before it reads t
    lwork = int(lapack.zgees(_no_select, t, lwork=-1, overwrite_a=1)[-2][0].real)
    t, _, _, v, _, info = lapack.zgees(_no_select, t, lwork=lwork, overwrite_a=1)
    if info != 0:
        raise RuntimeError(f"Schur factorization failed for {m.shape[0]}x{m.shape[1]} matrix: zgees info={info}")
    n = t.shape[0]
    for i in range(n - 1):
        d = np.abs(np.diag(t))
        j = i + int(np.argmax(d[i:]))
        if j != i:
            t, v, info = lapack.ztrexc(t, v, j + 1, i + 1, overwrite_a=1, overwrite_q=1)
            if info != 0:
                raise RuntimeError(f"ztrexc failed with info={info} moving {j} -> {i}")
    return np.diag(t).copy(), v


def resonance_spectrum(m: np.ndarray) -> ResonanceSet:
    """Lifetime-ordered resonances of an open (sub-unitary) propagator m,
    such as `open_propagator(u, keep)`; the Schur vectors are kept as
    LAPACK returned them (Fortran order).  m may be overwritten: a
    Fortran-ordered complex m, such as `open_propagator` returns, is
    factorized in place, so pass a copy of a matrix you read afterwards."""
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
        raise ValueError(f"propagator must be square and non-empty, got {m.shape}")
    z, v = _sorted_schur(m)
    modz = np.abs(z)
    if np.any(np.diff(modz) > 1e-12):
        raise RuntimeError("Schur reordering left |z| non-monotone")
    zero = modz < ZERO_MODE_TOL
    unit = modz >= 1.0 - UNIT_MODULUS_TOL
    gamma = -2.0 * np.log(np.maximum(modz, ZERO_MODE_TOL))
    gamma[zero] = np.inf
    gamma[unit] = 0.0  # |z| can exceed 1 by roundoff when closed
    with np.errstate(divide="ignore"):
        dwell = 1.0 / gamma
    return ResonanceSet(z=z, gamma=gamma, dwell=dwell, vectors=v)
