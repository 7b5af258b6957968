"""Unit tests of the end-to-end benchmark's own helpers."""

import json
import os
import statistics
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

from metrics import check_name, lateness, quantile, spread, \
    tail_percentile  # noqa: E402
from spans import NullTracer, Span, Tracer, covered, layer_self_times, \
    self_times  # noqa: E402


# -- the tail-percentile rule --------------------------------------------

def test_tail_needs_more_than_ten_samples():
    assert tail_percentile(10) is None
    assert tail_percentile(0) is None


def test_tail_leaves_exactly_ten_samples_beyond():
    assert tail_percentile(40) == 0.75
    assert tail_percentile(11) == pytest.approx(1 / 11)
    assert tail_percentile(100) == 0.9
    assert tail_percentile(1000) == 0.99


def test_quantile_is_harrell_davis():
    assert quantile([3.0] * 7, 0.5) == pytest.approx(3.0)
    assert quantile(range(1, 102), 0.5) == pytest.approx(51.0)
    # reference values from scipy.stats.mstats.hdquantiles
    assert quantile([1, 2, 3, 4, 10], 0.5) == pytest.approx(3.2896, 1e-6)
    assert quantile([1, 2, 3, 4, 10], 0.8) == pytest.approx(7.36292633, 1e-6)
    values = [0.1 * i for i in range(40)]
    assert quantile(values, 0.5) < quantile(values, 0.75) < max(values)


def test_quantile_moves_smoothly_across_a_gap():
    # the median of two equal clusters sits in the gap; one sample
    # crossing over moves the plain median by half the gap
    before = [1.0] * 20 + [2.0] * 20
    after = [1.0] * 19 + [2.0] * 21
    assert statistics.median(after) - statistics.median(before) == 0.5
    assert quantile(before, 0.5) == pytest.approx(1.5)
    assert quantile(after, 0.5) - quantile(before, 0.5) < 0.15


# -- self-time arithmetic ---------------------------------------------

def test_covered_merges_overlaps_and_clips():
    assert covered(0, 10, [(1, 3), (2, 5), (8, 12)]) == 6
    assert covered(0, 10, []) == 0
    assert covered(0, 10, [(-5, -1), (11, 12)]) == 0
    assert covered(0, 10, [(0, 10), (2, 3)]) == 10


def test_self_times_sum_to_root_wall():
    spans = [Span(0, "a", "op", 0.0, 10.0),
             Span(1, "a", "stress", 1.0, 4.0, 0),
             Span(2, "a", "search.chess", 4.0, 9.0, 0),
             Span(3, "a", "inner", 5.0, 6.0, 2)]
    own = self_times(spans)
    assert own == {0: 2.0, 1: 3.0, 2: 4.0, 3: 1.0}
    assert sum(own.values()) == pytest.approx(spans[0].duration)


def test_overlapping_children_are_not_double_counted():
    spans = [Span(0, "j", "op", 0.0, 4.0),
             Span(1, "j", "service.submit", 0.0, 2.0, 0),
             Span(2, "j", "service.queue", 1.0, 3.0, 0)]
    assert self_times(spans)[0] == pytest.approx(1.0)


def test_tracer_nests_and_totals_by_layer():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    with tracer.span("op", "x"):
        with tracer.span("stress", "x"):
            pass
        with tracer.span("stress", "x"):
            pass
    op, first, second = tracer.spans
    assert first.parent == second.parent == op.id
    assert op.op == first.op == "x"
    totals = layer_self_times(tracer.spans)
    assert totals["stress"] == (2.0, 2)
    assert totals["op"] == (op.duration - 2.0, 1)


def test_null_tracer_records_nothing():
    tracer = NullTracer()
    with tracer.span("op", "x"):
        pass
    assert not tracer.enabled and list(tracer.spans) == []


# -- open-loop lateness -----------------------------------------------

def test_lateness_is_send_minus_due_never_negative():
    assert lateness([0.0, 1.0, 2.0], [0.1, 0.9, 2.5]) == \
        pytest.approx([0.1, 0.0, 0.5])


def test_lateness_rejects_mismatched_schedules():
    with pytest.raises(ValueError):
        lateness([0.0], [])


# -- spreads --------------------------------------------

def test_spread_is_iqr_over_median():
    assert spread([1.0] * 10) == 0.0
    assert spread([1, 2, 3, 4, 5]) == pytest.approx(
        (4.5 - 1.5) / 3)


# -- metric names -----------------------------------------------------

@pytest.mark.parametrize("name", ["repro_s.p50", "search.chessX-dep.s",
                                  "1_s", "a" * 64])
def test_valid_names(name):
    assert check_name(name) == name


@pytest.mark.parametrize("name", ["", "chessX+dep", "_lead", ".lead",
                                  "a b", "a" * 65, "ms/op", None])
def test_invalid_names(name):
    with pytest.raises(ValueError):
        check_name(name)


def test_service_schedule_is_seeded_and_causal():
    import service

    names = ["bug-%d" % i for i in range(10)]
    events = service.schedule(names, 1, 25.0)
    assert events == service.schedule(names, 1, 25.0)
    assert events != service.schedule(names, 2, 25.0)
    kinds = [kind for _due, kind, _name, _stop in events]
    assert kinds.count("first") == 10
    assert kinds.count("reoccur") == 50      # (25 * 0.8 - 5) / 3 rounds
    assert kinds.count("dup") == 2
    assert max(due for due, *_rest in events) <= 25.0 * 0.8
    first = {name: due for due, kind, name, _stop in events
             if kind == "first"}
    assert all(due > first[name] for due, kind, name, _stop in events
               if kind in ("reoccur", "dup"))
    # every re-occurrence is a distinct submission of its bug
    stops = [(name, stop) for _due, kind, name, stop in events
             if kind == "reoccur"]
    assert len(set(stops)) == len(stops)
    assert all(stop > service.SEED_STOP for _name, stop in stops)


def test_benchmark_file_matches_the_runner():
    import run

    root = os.path.dirname(BENCH)
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert e2e == run.END_TO_END
    assert layers == run.PER_LAYER
    names = [w["name"] for w in bench["workloads"]] + list(e2e) + \
        list(layers)
    assert len(set(names)) == len(names)
    for name in names:
        check_name(name)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
