import importlib.util
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "bench", os.path.join(ROOT, "scripts", "bench.py")
)
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)

PARENT = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.1]


@pytest.mark.parametrize(
    "parent, change, better, want",
    [
        # every change run under every parent run
        (PARENT, [x - 2.0 for x in PARENT], "lower", "better"),
        # one change run overlaps the parent's range: a gain too small to show
        (PARENT, [x - 2.0 for x in PARENT[:-1]] + [9.8], "lower", "ok"),
        # the parent's quartiles 6 and 14 about a median of 10 exceed the bound
        ([6.0, 6.0, 6.0, 6.0, 10.0, 10.0, 14.0, 14.0, 14.0, 14.0], PARENT, "lower", "unresolved"),
        # median 13 against 10: 30 % worse, over the 0.25 bound
        (PARENT, [x + 3.0 for x in PARENT], "lower", "worse"),
        # 20 % slower stays inside the bound
        (PARENT, [x + 2.0 for x in PARENT], "lower", "ok"),
        # higher is better: more records a second on every run
        (PARENT, [x + 5.0 for x in PARENT], "higher", "better"),
        # and 30 % fewer is worse
        (PARENT, [x - 3.0 for x in PARENT], "higher", "worse"),
        # a flat metric, as ok_frac at 1.0 on both sides
        ([1.0] * 10, [1.0] * 10, "higher", "ok"),
    ],
    ids=[
        "wall_s-better", "wall_s-overlap-ok", "wall_s-unresolved", "wall_s-worse",
        "wall_s-ok", "records_per_s-better", "records_per_s-worse", "ok_frac-ok",
    ],
)
def test_verdict(parent, change, better, want):
    assert bench.verdict(parent, change, better, 0.25) == want


@pytest.mark.parametrize(
    "change, better, wins, shown",
    [
        # 20 % lower on every pair: a gain far past the quartile spread
        ([0.8 * x for x in PARENT], "lower", 10, True),
        # the same runs read as a loss where higher is better
        ([0.8 * x for x in PARENT], "higher", 0, False),
        # 9 of 10 pairs won, median 2 below a quartile spread of 0.2
        ([x - 2.0 for x in PARENT[:-1]] + [11.0], "lower", 9, True),
        # 8 of 10 pairs won: too few, however large the gain
        ([x - 2.0 for x in PARENT[:-2]] + [11.0, 11.0], "lower", 8, False),
        # every pair won by 0.05, inside the parent's quartile spread
        ([x - 0.05 for x in PARENT], "lower", 10, False),
        # higher is better: more records a second on every pair
        ([x + 5.0 for x in PARENT], "higher", 10, True),
    ],
    ids=["lower-all", "lower-read-as-higher", "nine-of-ten", "eight-of-ten",
         "inside-spread", "higher-all"],
)
def test_pair_stats(change, better, wins, shown):
    stats = bench.pair_stats(PARENT, change, better)
    assert stats["change_wins"] == wins
    assert stats["parent_quartiles"] == [9.875, 10.12]
    assert stats["gain_shown"] is shown


def test_rss_per_pass_fits_a_line():
    # 0.02 MB more per kept pass over 88 MB, as oracle-lowd reads
    passes = [100, 110, 120, 130, 140, 150]
    rss = [88.0 + 0.02 * n for n in passes]
    fit = bench.rss_per_pass(rss, passes)
    assert fit["slope"] == pytest.approx(0.02)
    assert fit["intercept"] == pytest.approx(88.0)


def test_rss_per_pass_needs_two_pass_counts():
    assert bench.rss_per_pass([88.0, 88.5], [120, 120]) is None
