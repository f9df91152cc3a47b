"""The shared test helpers in conftest.py."""

import numpy as np
import pytest

from conftest import component_rng


def test_component_rng_streams():
    a = component_rng(7, "classical")
    b = component_rng(7, "classical")
    c = component_rng(7, "quantum")
    x = a.random(4)
    np.testing.assert_array_equal(x, b.random(4))
    assert not np.array_equal(x, c.random(4))
    with pytest.raises(ValueError):
        component_rng(7, "husimi")
