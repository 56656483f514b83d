"""The benchmark's own arithmetic: self time, tail choice, due-time latency."""

import math

import pytest

from common import due_latency, finite_ms, percentile, tail_percentile
from tracer import Tracer, inclusive_times, self_times, top_self_layer


def span(sid, parent, name, start, end):
    return (sid, parent, name, start, end, None)


def test_self_time_subtracts_children():
    spans = [
        span(1, 0, "run", 0.0, 10.0),
        span(2, 1, "parse", 1.0, 3.0),
        span(3, 1, "compute", 4.0, 8.0),
    ]
    assert self_times(spans) == pytest.approx({"run": 4.0, "parse": 2.0, "compute": 4.0})


def test_self_time_counts_overlapping_children_once():
    spans = [
        span(1, 0, "pump", 0.0, 10.0),
        span(2, 1, "apply", 2.0, 6.0),
        span(3, 1, "apply", 4.0, 9.0),
        span(4, 1, "apply", 9.5, 12.0),  # runs past its parent: clipped
    ]
    assert self_times(spans)["pump"] == pytest.approx(10.0 - 7.0 - 0.5)


def test_inclusive_time_skips_same_name_nesting():
    spans = [
        span(1, 0, "scheme.compute", 0.0, 5.0),
        span(2, 1, "scheme.compute", 1.0, 2.0),
        span(3, 0, "scheme.compute", 6.0, 7.0),
    ]
    assert inclusive_times(spans) == pytest.approx({"scheme.compute": 6.0})


def test_top_self_layer_share():
    spans = [span(1, 0, "run", 0.0, 4.0), span(2, 1, "store", 0.0, 3.0)]
    assert top_self_layer(spans) == ("store", pytest.approx(0.75))


def test_tracer_records_parent_and_counts():
    class Box:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    tracer = Tracer()
    tracer.patch_method(Box, "outer", "outer")
    tracer.patch_method(Box, "inner", "inner", count=lambda t, a, k, r, p: t.add("inner", r))
    assert Box().outer() == 2
    by_name = {s[2]: s for s in tracer.spans}
    assert by_name["inner"][1] == by_name["outer"][0]
    assert tracer.counts["inner"] == 1
    tracer.enabled = False
    Box().outer()
    assert len(tracer.spans) == 2


def test_span_cost_is_measured_and_leaves_no_spans():
    tracer = Tracer(enabled=False)
    cost = tracer.span_cost(calls=2000)
    assert 0.0 <= cost < 1e-3
    assert tracer.spans == [] and tracer.enabled is False


def test_tail_percentile_leaves_ten_samples_beyond():
    assert tail_percentile(19) == 50.0
    assert tail_percentile(40) == 75.0
    assert tail_percentile(99) == 75.0
    assert tail_percentile(100) == 90.0
    assert tail_percentile(999) == 90.0
    assert tail_percentile(1000) == 99.0
    for n in (20, 45, 150, 5000, 20000):
        p = tail_percentile(n)
        assert n * (1 - p / 100) >= 10


def test_percentile_is_nearest_rank():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert percentile(values, 50) == 3.0
    assert percentile(values, 75) == 4.0
    assert percentile(values, 100) == 5.0
    assert percentile([1.0, math.inf], 90) == math.inf


def test_due_time_latency_counts_from_due_and_fails_as_infinite():
    # Sent late because the connection was busy: the wait counts.
    assert due_latency(due=10.0, done=10.5, ok=True) == pytest.approx(0.5)
    assert due_latency(due=10.0, done=10.01, ok=False) == math.inf
    assert due_latency(due=10.0, done=None, ok=True) == math.inf
    assert finite_ms(math.inf, cap_s=10.0) == 10000.0
    assert finite_ms(0.25, cap_s=10.0) == 250.0


def test_median_each_takes_each_position_from_its_median_run():
    from pipelines import median_each

    assert median_each([[1.0, 5.0, 2.0], [2.0, 4.0, 3.0], [3.0, 6.0, 9.0]]) == [2.0, 5.0, 3.0]


def test_quiet_mask_keeps_quiet_stretches_or_the_quietest_half():
    from common import QUIET_STEAL, quiet_mask

    low, high = QUIET_STEAL / 2, QUIET_STEAL * 4
    assert quiet_mask([low, high, low, high]) == [True, False, True, False]
    assert quiet_mask([low, low, low]) == [True, True, True]
    # Too few quiet stretches: the quietest half, whatever their steal.
    assert quiet_mask([high, 3 * high, 2 * high, 4 * high, low]) == [True, False, True, False, True]
    # Unknown steal (no /proc/stat) counts as quiet.
    assert quiet_mask([None, None]) == [True, True]


def test_unstolen_removes_the_steal_share_and_keeps_failures_infinite():
    from common import unstolen

    assert unstolen(2.0, 0.25) == pytest.approx(1.5)
    assert unstolen(2.0, None) == 2.0
    assert unstolen(math.inf, 0.5) == math.inf


def test_fastest_takes_each_key_at_its_least_less_that_episodes_steal():
    from service import fastest

    episodes = [{"similar#0": 3.0, "similar#1": 9.0, "ingest#0": 2.0},
                {"similar#0": 5.0, "similar#1": 4.0, "ingest#0": math.inf},
                {"similar#0": 4.0, "similar#1": 6.0}]
    # A key some episode did not measure is left out.
    assert fastest(episodes, [None] * 3) == {"similar#0": 3.0, "similar#1": 4.0}
    assert fastest(episodes[:2], [None, None])["ingest#0"] == 2.0
    # The least measured value counts, then loses its own episode's steal:
    # a heavy correction elsewhere does not pick the episode.
    got = fastest(episodes, [0.5, 0.0, 0.75])
    assert got == {"similar#0": pytest.approx(1.5), "similar#1": pytest.approx(4.0)}
    assert fastest([{"a": math.inf}, {"a": math.inf}], [None, 0.2]) == {"a": math.inf}


def test_poisson_times_fix_the_count_and_stay_inside_the_run():
    import random

    from service import poisson_times

    times = poisson_times(random.Random(3), rate=8.0, length=10.0)
    assert len(times) == 80
    assert times == sorted(times) and 0.0 <= times[0] and times[-1] < 10.0
    assert poisson_times(random.Random(3), 8.0, 10.0) == times
