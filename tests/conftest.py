"""Shared test helpers.

Tests import these with `from conftest import ...`: pytest puts this
directory on sys.path when it loads the file.
"""

import numpy as np

# Deterministic per-component RNG streams for tests that draw random
# initial conditions or states.  The stream identities are fixed so that
# the drawn samples, and the acceptance numbers built on them, do not change.
_RNG_STREAMS = {"classical": 0, "quantum": 1, "tomography": 2}


def component_rng(seed: int, component: str) -> np.random.Generator:
    if component not in _RNG_STREAMS:
        raise ValueError(f"unknown component {component!r}, have {sorted(_RNG_STREAMS)}")
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(_RNG_STREAMS[component],))
    return np.random.default_rng(ss)
