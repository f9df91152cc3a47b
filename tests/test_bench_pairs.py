"""tools/bench_pairs.py: the verdict on alternated benchmark pairs."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


verdict = load_tool().verdict

# ten parent runs: quartiles 0.62 and 0.68 (inclusive), median 0.645, IQR 0.06
PARENT = [0.60, 0.61, 0.62, 0.63, 0.64, 0.65, 0.66, 0.68, 0.70, 0.72]


def test_gain_needs_nine_tenths_of_the_pairs_and_a_gap_past_the_parent_iqr():
    v = verdict(PARENT, [p - 0.1 for p in PARENT], "lower", 0.25)
    assert v["parent"] == pytest.approx((0.6225, 0.645, 0.675))
    assert v["wins"] == 10 and v["gain"] and v["bound_status"] == "within"
    assert v["worse"] == pytest.approx(-0.1 / 0.645)
    # nine wins and one tie still claim it; eight wins do not
    change = [p - 0.1 for p in PARENT[:9]] + [PARENT[9]]
    assert verdict(PARENT, change, "lower", 0.25)["wins"] == 9
    assert verdict(PARENT, change, "lower", 0.25)["gain"]
    change = [p - 0.1 for p in PARENT[:8]] + PARENT[8:]
    assert not verdict(PARENT, change, "lower", 0.25)["gain"]
    # ten wins by less than the parent's own spread are no gain
    v = verdict(PARENT, [p - 0.01 for p in PARENT], "lower", 0.25)
    assert v["wins"] == 10 and not v["gain"]


def test_higher_is_better_metrics_turn_the_comparison_round():
    rates = [1.0 / p for p in PARENT]
    v = verdict(rates, [r * 1.2 for r in rates], "higher", 0.25)
    assert v["wins"] == 10 and v["gain"] and v["worse"] == pytest.approx(-0.2)
    v = verdict(rates, [r * 0.7 for r in rates], "higher", 0.25)
    assert v["wins"] == 0 and not v["gain"]
    assert v["worse"] == pytest.approx(0.3) and v["bound_status"] == "regression"


def test_bound_reads_regression_within_or_unresolved():
    assert verdict(PARENT, [p * 1.3 for p in PARENT], "lower", 0.25)["bound_status"] == "regression"
    assert verdict(PARENT, [p * 1.2 for p in PARENT], "lower", 0.25)["bound_status"] == "within"
    # parent runs spread wider than the bound: unresolved, unless every
    # change run beats every parent run
    wide = [1.0, 1.0, 1.0, 2.0, 2.0, 2.0]
    assert verdict(wide, [1.5] * 6, "lower", 0.25)["bound_status"] == "unresolved"
    assert verdict(wide, [0.9] * 6, "lower", 0.25)["bound_status"] == "within"


def test_sides_must_pair_up():
    with pytest.raises(ValueError, match="equal, non-empty"):
        verdict(PARENT, PARENT[:9], "lower", 0.25)
