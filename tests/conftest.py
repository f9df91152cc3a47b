"""Shared test helpers.

Tests import these with `from conftest import ...`: pytest puts this
directory on sys.path when it loads the file.
"""

import math
import sys
from dataclasses import dataclass

from leakmap.cli import apply_thread_env

# Compute with one BLAS thread, as every CLI process does, so the suite
# reports the numbers the commands produce.  The pin takes effect only
# before numpy loads.
assert "numpy" not in sys.modules, "numpy was loaded before the BLAS thread pin"
apply_thread_env()

import numpy as np  # noqa: E402

from leakmap.standard_map import RENORM_INTERVAL, TWO_PI, MapParams, _sigma_max, mod1

# Deterministic per-component RNG streams for tests that draw random
# initial conditions or states.  The stream identities are fixed so that
# the drawn samples, and the acceptance numbers built on them, do not change.
_RNG_STREAMS = {"classical": 0, "quantum": 1, "tomography": 2}


def component_rng(seed: int, component: str) -> np.random.Generator:
    if component not in _RNG_STREAMS:
        raise ValueError(f"unknown component {component!r}, have {sorted(_RNG_STREAMS)}")
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(_RNG_STREAMS[component],))
    return np.random.default_rng(ss)


# ---------------------------------------------------------------------------
# Matrix-form reference for the scalar map-and-tangent loop
# `leakmap.standard_map.evolve_open`: one map step, its Jacobian, and the
# accumulated tangent frame, each written out as a 2x2 matrix product.


def step(x, params: MapParams):
    """One iteration of the closed map.  x = (q, p), returns (q', p').

    Position updates first; the kick is evaluated at the updated position.
    Both coordinates are reduced to [0, 1).
    """
    q, p = x
    q1 = mod1(q + p)
    p1 = mod1(p - params.K / TWO_PI * np.sin(TWO_PI * q1))
    return q1, p1


def step_jacobian(q_next: float, params: MapParams) -> np.ndarray:
    """One-step Jacobian evaluated at the updated position q'.

    d(q', p')/d(q, p) = [[1, 1], [-Kc, 1 - Kc]] with c = cos(2pi q').
    Its determinant is exactly 1: the map is area preserving.
    """
    kc = params.K * math.cos(TWO_PI * q_next)
    return np.array([[1.0, 1.0], [-kc, 1.0 - kc]])


@dataclass
class TangentFrame:
    """Accumulated tangent map with periodic renormalization.

    The true n-step Jacobian is exp(log_scale) * matrix.  Every
    RENORM_INTERVAL steps the matrix is divided by its largest absolute
    entry and the log of that factor is added to log_scale, so entries
    never overflow even for millions of strongly chaotic steps.

    det is the running product of one-step determinants.  Each factor is
    evaluated fresh from the one-step matrix (where it equals 1 up to one
    rounding), not from the accumulated matrix: after a few hundred chaotic
    steps the accumulated determinant is pure cancellation noise, while the
    product form stays within ~1e-12 of 1 over 1e3 steps.
    """

    matrix: np.ndarray
    log_scale: float = 0.0
    n_steps: int = 0
    det: float = 1.0

    @classmethod
    def identity(cls) -> "TangentFrame":
        return cls(matrix=np.eye(2))

    def sigma_max_log(self) -> float:
        """log of the largest singular value of the true accumulated Jacobian."""
        a, b = self.matrix[0]
        c, d = self.matrix[1]
        return self.log_scale + math.log(_sigma_max(a, b, c, d))


def tangent_step(q_next: float, frame: TangentFrame, params: MapParams) -> TangentFrame:
    """Advance the tangent frame by the one-step Jacobian at q'.

    Returns a new frame; the input is not modified.
    """
    j = step_jacobian(q_next, params)
    m = j @ frame.matrix
    det = frame.det * (j[0, 0] * j[1, 1] - j[0, 1] * j[1, 0])
    n = frame.n_steps + 1
    log_scale = frame.log_scale
    if n % RENORM_INTERVAL == 0:
        s = np.abs(m).max()
        m = m / s
        log_scale += math.log(s)
    return TangentFrame(matrix=m, log_scale=log_scale, n_steps=n, det=det)
