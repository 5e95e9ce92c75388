"""The statistics and the verdict of ``tools/ab.py`` on fixed samples.

The tool itself runs benchmarks for minutes, so it stays out of tier-1.
"""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "ab.py"


@pytest.fixture(scope="module")
def ab():
    spec = importlib.util.spec_from_file_location("_ab", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# ten pairs: the head is 0.010 lower in each but pair 3, where it loses
BASE = [0.080, 0.081, 0.079, 0.080, 0.082, 0.080, 0.081, 0.078, 0.080, 0.079]
HEAD = [0.070, 0.071, 0.069, 0.081, 0.072, 0.070, 0.071, 0.068, 0.070, 0.069]


def test_quartiles_are_inclusive(ab):
    assert ab.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (2.0, 3.0, 4.0)
    assert ab.quartiles([1.0, 2.0, 3.0, 4.0]) == (1.75, 2.5, 3.25)
    assert ab.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_nine_wins_and_a_wide_gap_claim_a_gain(ab):
    cmp = ab.compare(BASE, HEAD)
    assert cmp["head_wins"] == 9 and cmp["pairs"] == 10
    assert cmp["base"]["median"] == 0.080
    assert cmp["head"]["median"] == pytest.approx(0.070)
    assert cmp["base"]["quartiles"] == pytest.approx([0.07925, 0.08075])
    assert cmp["median_gap"] == pytest.approx(0.010)
    assert cmp["base_quartile_distance"] == pytest.approx(0.0015)
    assert cmp["head_over_base"] == pytest.approx(0.875)
    assert cmp["verdict"] == "gain"


def test_eight_wins_claim_none(ab):
    head = list(HEAD)
    head[5] = 0.0801
    cmp = ab.compare(BASE, head)
    assert cmp["head_wins"] == 8 and cmp["verdict"] == "no gain"


def test_a_gap_within_the_base_spread_claims_none(ab):
    # the head wins every pair by 0.0005, below the base's quartile distance
    head = [b - 0.0005 for b in BASE]
    cmp = ab.compare(BASE, head)
    assert cmp["head_wins"] == 10
    assert cmp["median_gap"] < cmp["base_quartile_distance"]
    assert cmp["verdict"] == "no gain"


def test_fewer_than_ten_pairs_claim_none(ab):
    cmp = ab.compare(BASE[:9], [b - 0.01 for b in BASE[:9]])
    assert cmp["head_wins"] == 9 and cmp["verdict"] == "no gain"


def test_more_pairs_need_the_same_share_of_wins(ab):
    twenty = ab.compare(BASE * 2, HEAD * 2)
    assert twenty["head_wins"] == 18 and twenty["verdict"] == "gain"
    head = HEAD * 2
    head[0] = 0.0801
    assert ab.compare(BASE * 2, head)["head_wins"] == 17
    assert ab.compare(BASE * 2, head)["verdict"] == "no gain"


def test_higher_is_better_counts_the_other_way(ab):
    cmp = ab.compare(HEAD, BASE, better="higher")
    assert cmp["head_wins"] == 9
    assert cmp["median_gap"] == pytest.approx(0.010)
    assert cmp["verdict"] == "gain"


def test_equal_counts_claim_none(ab):
    cmp = ab.compare([4465] * 10, [4465] * 10)
    assert cmp["head_wins"] == 0 and cmp["median_gap"] == 0
    assert cmp["verdict"] == "no gain"


def test_unpaired_samples_refused(ab):
    with pytest.raises(ValueError, match="one base and one head sample"):
        ab.compare(BASE, HEAD[:9])
    with pytest.raises(ValueError):
        ab.compare([], [])


def test_run_length_and_metrics_come_from_the_benchmark_declaration(ab):
    seconds, metrics = ab.declared()
    assert seconds > 0 and metrics["run_s"] == "lower"
    assert set(ab.COUNTS) <= set(metrics)
