"""Metric arithmetic of the benchmark: self time, busy time, percentiles,
and the host-speed scale.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from hostspeed import REF_S, Scale  # noqa: E402
from tracing import (  # noqa: E402
    Span,
    TooFewSamples,
    busy_time,
    layer_metrics,
    percentile,
    self_times,
    union_length,
)


def span(sid, parent, start, end, layer="placement", name="f", pid=1, measure=None):
    return Span(pid, sid, parent, layer, name, float(start), float(end), measure)


def test_union_length_merges_overlaps_and_keeps_gaps():
    assert union_length([]) == 0.0
    assert union_length([(0, 2), (1, 3), (5, 6)]) == 4.0
    assert union_length([(0, 10), (2, 3), (4, 5)]) == 10.0


def test_self_time_on_nested_and_overlapping_children():
    spans = [
        span(0, -1, 0, 10),   # root
        span(1, 0, 1, 4),     # child
        span(2, 0, 3, 6),     # child overlapping the first by 1
        span(3, 1, 2, 3),     # grandchild, inside child 1
        span(4, 0, 9, 12),    # child running past the root's end
    ]
    own = self_times(spans)
    # children of the root cover [1, 6] and [9, 10] inside it
    assert own[(1, 0)] == pytest.approx(10 - 5 - 1)
    assert own[(1, 1)] == pytest.approx(3 - 1)
    assert own[(1, 2)] == pytest.approx(3)
    assert own[(1, 3)] == pytest.approx(1)
    assert own[(1, 4)] == pytest.approx(3)


def test_self_time_keeps_processes_apart():
    # same span ids in two processes: a worker's child is not the parent's
    spans = [span(0, -1, 0, 10, pid=1), span(1, 0, 2, 4, pid=2), span(0, -1, 0, 5, pid=2)]
    own = self_times(spans)
    assert own[(1, 0)] == pytest.approx(10)
    assert own[(2, 0)] == pytest.approx(3)


def test_busy_time_counts_nesting_once_and_processes_side_by_side():
    spans = [
        span(0, -1, 0, 4, pid=1),
        span(1, 0, 1, 2, pid=1),
        span(0, -1, 1, 3, pid=2),
    ]
    assert busy_time(spans) == pytest.approx(4 + 2)


def test_percentile_refuses_p99_with_fewer_than_ten_samples_beyond():
    samples = list(range(1, 1000))  # 999 samples: p99 has 9 beyond it
    with pytest.raises(TooFewSamples):
        percentile(samples, 99)
    assert percentile(samples + [1000], 99) == 990
    with pytest.raises(TooFewSamples):
        percentile(list(range(19)), 50)
    with pytest.raises(TooFewSamples):
        percentile([], 50)


def test_percentile_is_nearest_rank():
    samples = [5.0, 1.0, 4.0, 2.0, 3.0] * 4  # 20 samples, 10 beyond p50
    assert percentile(samples, 50) == 3.0


def test_layer_metrics_counts_repeats_and_self_time():
    key_a, key_b = ("a",), ("b",)
    spans = [
        span(0, -1, 0, 10, name="bisection_solve"),
        span(1, 0, 1, 3, name="fine_tune", measure=key_a),
        span(2, 0, 4, 6, name="fine_tune", measure=key_a),
        span(3, 0, 7, 8, name="fine_tune", measure=key_b),
        span(4, 1, 1, 2, layer="channel", name="phases_and_distances", measure=7),
        span(5, -1, 11, 12, layer="noma", name="rate_report"),
        span(6, 5, 11, 11.5, layer="noma", name="optimal_alpha2"),
    ]
    m = layer_metrics(spans)
    assert m["placement.fine_tune.calls"] == 3
    assert m["placement.fine_tune.repeat_ratio"] == pytest.approx(1 / 3)
    assert m["placement.fine_tune.busy_s"] == pytest.approx(5)
    assert m["placement.fine_tune.self_s"] == pytest.approx(4)
    assert m["placement.bisection_solve.self_s"] == pytest.approx(5)
    assert m["channel.phases_and_distances.elements"] == 7
    assert m["noma.busy_s"] == pytest.approx(1)
    assert m["oracle.feasible_row_ratio"] == 0.0


def test_scale_interpolates_between_kernel_samples():
    # kernel runs at reference speed around t=1, at half speed around t=3
    scale = Scale([(3.0, 3.0 + 2 * REF_S, 2 * REF_S), (1.0, 1.0 + REF_S, REF_S)])
    assert scale.at(0.0) == pytest.approx(1.0)
    assert scale.at(1.0 + REF_S / 2) == pytest.approx(1.0)
    assert scale.at(2.0 + REF_S * 0.75) == pytest.approx(0.75)
    assert scale.at(9.0) == pytest.approx(0.5)
    # no kernel run inside: the factor at the middle
    assert scale.duration(2.0, 2.0 + 1.5 * REF_S) == pytest.approx(1.5 * REF_S * 0.75)


def test_scale_takes_kernel_runs_out_of_an_interval():
    samples = [(1.0, 1.0 + 2 * REF_S, 2 * REF_S), (2.0, 2.0 + 2 * REF_S, 2 * REF_S)]
    scale = Scale(samples)
    # both runs inside [0, 4]: 4 s minus their 4 * REF_S, at half speed
    assert scale.duration(0.0, 4.0) == pytest.approx((4.0 - 4 * REF_S) * 0.5)
    # the same runs shared by two processes working side by side
    assert scale.duration(0.0, 4.0, processes=2) == pytest.approx((4.0 - 2 * REF_S) * 0.5)


def test_scale_needs_samples():
    with pytest.raises(ValueError):
        Scale([])


def test_scale_follows_cpu_time_not_waiting():
    # the second run waited as long as it ran; its CPU time shows full speed
    scale = Scale([(1.0, 1.0 + REF_S, REF_S), (2.0, 2.0 + 2 * REF_S, REF_S)])
    assert scale.at(2.0) == pytest.approx(1.0)
    assert scale.duration(0.0, 4.0) == pytest.approx(4.0 - 3 * REF_S)
