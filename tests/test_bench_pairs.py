"""tools/bench_pairs.py's statistics on hand-made runs; no benchmark is run."""

import argparse
import importlib.util
from pathlib import Path

import pytest

SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_pairs)

# a parent near 1.0 with quartiles 0.99 and 1.01, one spread past a 0.25
# bound (quartiles 0.8 and 1.2), and changes against them, as metrics whose
# lower values are better; 2 - v mirrors a run for one whose higher are
NARROW = [0.98, 1.0, 1.02, 0.99, 1.01]
WIDE = [0.6, 0.8, 1.0, 1.2, 1.4]
CASES = [
    (NARROW, [1.18, 1.2, 1.22, 1.19, 1.21], "holds"),  # worse by 0.2 of 1.0
    (NARROW, [1.28, 1.3, 1.32, 1.29, 1.31], "regressed"),  # worse by 0.3
    (WIDE, [0.9, 1.0, 1.1, 1.0, 0.95], "unresolved"),
    (WIDE, [0.5, 0.55, 0.52, 0.4, 0.45], "holds"),  # every run beats every parent run
]


def verdict(better, parent, change):
    metric = {"name": "wall_s", "unit": "s", "better": better, "bound": 0.25}
    return bench_pairs.verdict(metric, {"parent": parent, "change": change},
                               bench_pairs.summary(parent), bench_pairs.summary(change))


@pytest.mark.parametrize("parent,change,expect", CASES,
                         ids=["within-bound", "past-bound", "wide-parent", "all-better"])
def test_verdict(parent, change, expect):
    assert verdict("lower", parent, change) == expect
    assert verdict("higher", [2 - v for v in parent], [2 - v for v in change]) == expect


def test_summary():
    assert bench_pairs.summary([0.3]) == (0.3, 0.3, 0.3)
    assert bench_pairs.summary(WIDE) == pytest.approx((0.8, 1.0, 1.2))


def test_seed_range():
    assert bench_pairs.seed_range("5") == [5]
    assert bench_pairs.seed_range("3-7") == [3, 4, 5, 6, 7]
    with pytest.raises(argparse.ArgumentTypeError, match="empty seed range"):
        bench_pairs.seed_range("7-3")
