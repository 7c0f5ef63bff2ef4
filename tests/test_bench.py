"""The verdict that ``tools/bench.py`` gives each metric, on fixed runs."""

import runpy
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "tools" / "bench.py"
verdict = runpy.run_path(str(BENCH))["verdict"]

#: ten parent runs with median 100 and quartiles 98.5 and 101.5, an IQR of 3
PARENT = [96, 97, 99, 99, 100, 100, 101, 101, 103, 104]


@pytest.mark.parametrize("change, higher, bound, want", [
    # lower is better: 10/10 pairs, and 5 below the median is more than the IQR
    ([y - 5 for y in PARENT], False, 0.25, (10, "gain")),
    # 9/10 pairs are enough; the tenth is a tie, which counts for neither side
    ([y - 5 for y in PARENT[:9]] + [PARENT[9]], False, 0.25, (9, "gain")),
    # 8/10 pairs are not, however far the medians lie apart
    ([y - 50 for y in PARENT[:8]] + [200, 200], False, 0.25, (8, "same")),
    # 10/10 pairs, but the medians lie only 1 apart, inside the IQR
    ([y - 1 for y in PARENT], False, 0.25, (10, "same")),
    # higher is better: the same runs read the other way round
    ([y + 5 for y in PARENT], True, 0.25, (10, "gain")),
    ([y - 5 for y in PARENT], True, 0.25, (0, "same")),
    # worse by more than the bound: 30 % on a 25 % bound, either direction
    ([y * 1.3 for y in PARENT], False, 0.25, (0, "worse")),
    ([y * 0.7 for y in PARENT], True, 0.25, (0, "worse")),
    # worse by 4 %, inside a 10 % bound that the parent's 3 % IQR resolves
    ([y + 4 for y in PARENT], False, 0.1, (0, "same")),
    # a 2 % bound is narrower than the IQR: unresolved, even where 10/10 pairs
    # read better
    ([y + 1 for y in PARENT], False, 0.02, (0, "unresolved")),
    ([y - 0.5 for y in PARENT], False, 0.02, (10, "unresolved")),
    # no bound: nothing but a gain is resolved
    ([y - 5 for y in PARENT], False, None, (10, "gain")),
    (PARENT, False, None, (0, "unresolved")),
], ids=["gain", "gain-9-of-10", "8-of-10", "inside-iqr", "gain-higher", "loss-higher",
        "worse", "worse-higher", "worse-inside-bound", "unresolved", "unresolved-10-of-10",
        "gain-unbounded", "unbounded"])
def test_each_metric_reads_the_first_verdict_that_holds(change, higher, bound, want):
    assert verdict(PARENT, change, higher, bound) == want


def test_a_change_that_beat_every_parent_run_is_resolved():
    # skewed parent runs: median 95.2, IQR 32.3, far wider than the bound; each
    # change run is below every parent run, yet 6.2 below the median is no gain
    parent = [90, 90.1, 90.2, 90.3, 90.4, 100, 110, 120, 130, 140]
    assert verdict(parent, [89] * 10, False, 0.02) == (10, "same")
    assert verdict(parent, [91] * 10, False, 0.02) == (5, "unresolved")
