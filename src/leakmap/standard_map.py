"""Chirikov standard map on the unit torus, closed and with a leak.

Single-trajectory building blocks: the area-preserving map

    q' = q + p           (mod 1)
    p' = p - (K/2pi) sin(2pi q')   (mod 1)

its tangent-space linearization, finite-time Lyapunov exponents, and
escape through an absorbing strip in q.  Kick strength K = 10 puts the
closed map deep in the strongly chaotic regime.

`evolve_open` is the one scalar map-and-tangent loop; `ftle` is that loop
with the empty leak.  It is the reference that the vectorized ensemble
loop is tested against.  The matrix-form reference for it in turn (`step`,
`tangent_step`, `TangentFrame`) lives with the tests, in tests/conftest.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["MapParams", "Leak", "EscapeRecord", "mod1", "ftle", "evolve_open"]

TWO_PI = 2.0 * math.pi

# Steps between tangent-frame renormalizations.  exp(20 * lambda) stays far
# below float64 overflow for any sane K, so norms never blow up in between.
RENORM_INTERVAL = 20


def mod1(x: float) -> float:
    """Reduce a float to the half-open interval [0, 1).

    Python's % rounds exactly like np.mod and can return exactly 1.0 for
    tiny negative inputs (e.g. -1e-18), which would violate the torus
    convention, so that case is folded to 0.
    """
    r = float(x) % 1.0
    return 0.0 if r == 1.0 else r


@dataclass(frozen=True)
class MapParams:
    """Kick strength of the standard map."""

    K: float

    def __post_init__(self):
        if not math.isfinite(self.K):
            raise ValueError(f"K must be finite, got {self.K}")


@dataclass(frozen=True)
class Leak:
    """Absorbing strip in position: q in [center - width/2, center + width/2).

    The strip is half-open and lives on the torus, so it may wrap around
    q = 0.  width = 0 means no leak, width = 1 absorbs everything.
    """

    center: float
    width: float

    def __post_init__(self):
        if not (0.0 <= self.width <= 1.0):
            raise ValueError(f"leak width must lie in [0, 1], got {self.width}")
        if not math.isfinite(self.center):
            raise ValueError(f"leak center must be finite, got {self.center}")

    @property
    def lower(self) -> float:
        """Left edge of the strip, reduced to [0, 1)."""
        return mod1(self.center - 0.5 * self.width)

    def contains(self, q):
        """Half-open membership test on q (mod 1), a float or an array: a
        float (np.float64 included) takes a path that builds no numpy
        object (see mod1) and gives a bool, an array a bool array."""
        if isinstance(q, float):
            if self.width == 0.0 or self.width == 1.0:
                return self.width == 1.0
            qq = mod1(q)
            lo = self.lower
            hi = lo + self.width
            if hi <= 1.0:
                return lo <= qq < hi
            return qq >= lo or qq < hi - 1.0
        if self.width == 0.0 or self.width == 1.0:
            return np.full(np.shape(q), self.width == 1.0)
        qq = np.mod(np.asarray(q, dtype=float), 1.0)
        qq = np.where(qq == 1.0, 0.0, qq)
        lo = self.lower
        hi = lo + self.width
        if hi <= 1.0:
            return (qq >= lo) & (qq < hi)
        return (qq >= lo) | (qq < hi - 1.0)  # strip wraps through q = 0


def _sigma_max(a, b, c, d):
    """Largest singular value of [[a, b], [c, d]], closed form.

    Uses sigma_max + sigma_min = sqrt(E + 2|D|), sigma_max - sigma_min =
    sqrt(E - 2|D|) with E = a^2+b^2+c^2+d^2 and D = det.  The second
    radicand is clamped at 0 against roundoff.
    """
    e = a * a + b * b + c * c + d * d
    twod = 2.0 * np.abs(a * d - b * c)
    return 0.5 * (np.sqrt(e + twod) + np.sqrt(np.maximum(e - twod, 0.0)))


def ftle(x0, n: int, params: MapParams) -> float:
    """Finite-time Lyapunov exponent over n steps from x0 = (q, p).

    lambda_n = (1/n) log sigma_max(J_n) with J_n the accumulated Jacobian
    along the orbit.  Positive for chaotic orbits, ~ log(K/2) for K >> 1.
    """
    if n < 1:
        raise ValueError(f"need at least one step, got n={n}")
    return evolve_open(x0, Leak(0.0, 0.0), n, params).ftle


@dataclass(frozen=True)
class EscapeRecord:
    """Outcome of one leaked trajectory.

    tau: first iteration index n >= 1 at which the orbit lands in the leak,
         0 if the initial condition starts inside it, t_max if it never
         escapes within the horizon.
    ftle: finite-time Lyapunov exponent accumulated over tau steps (over
         t_max steps for survivors); NaN when tau = 0.
    escaped: whether the orbit entered the leak within the horizon.
    """

    tau: int
    ftle: float
    escaped: bool


def evolve_open(x0, leak: Leak, t_max: int, params: MapParams) -> EscapeRecord:
    """Iterate the leaked map from x0 until absorption or t_max steps.

    The leak test runs after each full (q, p) update.  Initial conditions
    already inside the strip are absorbed before the first step: tau = 0,
    no Lyapunov exponent is defined for them.  The tangent frame is
    renormalized before the leak test, the vectorized ensemble loop does it
    after, so at an absorption step that is a multiple of RENORM_INTERVAL
    the two FTLEs differ in the last bits.
    """
    if t_max < 1:
        raise ValueError(f"t_max must be >= 1, got {t_max}")
    q, p = float(x0[0]), float(x0[1])
    if leak.contains(q):
        return EscapeRecord(tau=0, ftle=math.nan, escaped=True)
    K = params.K
    # Unrolled tangent frame: entries a b / c d, log_scale s, as plain floats.
    a, b, c, d = 1.0, 0.0, 0.0, 1.0
    s = 0.0
    for t in range(1, t_max + 1):
        q = (q + p) % 1.0
        if q == 1.0:
            q = 0.0
        p = (p - K / TWO_PI * math.sin(TWO_PI * q)) % 1.0
        if p == 1.0:
            p = 0.0
        kc = K * math.cos(TWO_PI * q)
        a, b, c, d = a + c, b + d, c - kc * (a + c), d - kc * (b + d)
        if t % RENORM_INTERVAL == 0:
            m = max(abs(a), abs(b), abs(c), abs(d))
            a, b, c, d = a / m, b / m, c / m, d / m
            s += math.log(m)
        if leak.contains(q):
            lam = (s + math.log(_sigma_max(a, b, c, d))) / t
            return EscapeRecord(tau=t, ftle=lam, escaped=True)
    lam = (s + math.log(_sigma_max(a, b, c, d))) / t_max
    return EscapeRecord(tau=t_max, ftle=lam, escaped=False)
