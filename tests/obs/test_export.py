"""Tests for the JSON/Prometheus exporters and the payload validator."""

import json

import pytest

from repro import obs
from repro.obs.export import (
    SCHEMA_ID,
    build_payload,
    format_profile_report,
    to_prometheus,
    validate_payload,
    write_json,
    write_prometheus,
)


def sample_registry() -> obs.MetricsRegistry:
    registry = obs.MetricsRegistry()
    registry.counter("kernel.calls", op="pairwise", path="batch").inc(3)
    registry.gauge("parallel.workers").set(4)
    registry.digest("retry.delay_s").observe(0.5)
    with obs.use_registry(registry):
        with obs.span("experiment", dataset="network"):
            with obs.span("cell", scheme="TT", pairs=100):
                pass
            with obs.span("cell", scheme="UT", pairs=50):
                pass
    return registry


class TestBuildPayload:
    def test_sections_and_rendered_keys(self):
        payload = build_payload(sample_registry().snapshot(), meta={"command": "fig1"})
        assert payload["schema"] == SCHEMA_ID
        assert payload["meta"] == {"command": "fig1"}
        assert payload["counters"] == {
            "kernel.calls{op=pairwise,path=batch}": 3.0
        }
        assert payload["gauges"] == {"parallel.workers": 4.0}
        assert set(payload["digests"]) == {"retry.delay_s"}
        assert "histograms" not in payload

    def test_span_tree_is_nested(self):
        payload = build_payload(sample_registry().snapshot())
        [root] = payload["spans"]
        assert root["name"] == "experiment{dataset=network}"
        children = {child["name"]: child for child in root["children"]}
        assert set(children) == {"cell{scheme=TT}", "cell{scheme=UT}"}
        assert children["cell{scheme=TT}"]["values"] == {"pairs": 100.0}

    def test_validates_clean(self):
        payload = build_payload(sample_registry().snapshot(), meta={})
        assert validate_payload(payload) == []

    def test_write_json_round_trips(self, tmp_path):
        path = tmp_path / "obs.json"
        written = write_json(path, sample_registry().snapshot(), meta={"n": 1})
        loaded = json.loads(path.read_text())
        assert loaded == written
        assert validate_payload(loaded) == []


class TestValidator:
    def test_rejects_non_object(self):
        assert validate_payload([]) == ["payload must be an object"]

    def test_rejects_wrong_schema_id(self):
        payload = build_payload(obs.MetricsRegistry().snapshot())
        payload["schema"] = "something/else"
        assert any("schema must be" in error for error in validate_payload(payload))

    def test_rejects_non_numeric_counter(self):
        payload = build_payload(obs.MetricsRegistry().snapshot())
        payload["counters"]["bad"] = "three"
        assert any("must be a number" in error for error in validate_payload(payload))

    def test_rejects_unsorted_digest_buckets(self):
        registry = obs.MetricsRegistry()
        registry.digest("d").observe(0.5)
        registry.digest("d").observe(2.0)
        payload = build_payload(registry.snapshot())
        payload["digests"]["d"]["buckets"].reverse()
        assert any("sorted" in error for error in validate_payload(payload))

    def test_rejects_span_timing_violation(self):
        registry = obs.MetricsRegistry()
        with obs.use_registry(registry):
            with obs.span("root"):
                pass
        payload = build_payload(registry.snapshot())
        payload["spans"][0]["min_s"] = 100.0
        assert any("timing invariant" in error for error in validate_payload(payload))

    def test_rejects_zero_count_span(self):
        registry = obs.MetricsRegistry()
        with obs.use_registry(registry):
            with obs.span("root"):
                pass
        payload = build_payload(registry.snapshot())
        payload["spans"][0]["count"] = 0
        assert any("count must be >= 1" in error for error in validate_payload(payload))


class TestPrometheus:
    def test_counter_gauge_lines(self):
        text = to_prometheus(sample_registry().snapshot())
        assert "# TYPE repro_kernel_calls_total counter" in text
        assert 'repro_kernel_calls_total{op="pairwise",path="batch"} 3' in text
        assert "repro_parallel_workers 4" in text

    def test_digests_are_summaries_without_bucket_lines(self):
        text = to_prometheus(sample_registry().snapshot())
        assert "# TYPE repro_retry_delay_s summary" in text
        assert "repro_retry_delay_s_count 1" in text
        assert "_bucket" not in text

    def test_spans_exported_as_summaries(self):
        text = to_prometheus(sample_registry().snapshot())
        assert (
            'repro_span_seconds_count{path="experiment{dataset=network}/'
            'cell{scheme=TT}"} 1' in text
        )

    def test_write_prometheus(self, tmp_path):
        path = tmp_path / "metrics.prom"
        text = write_prometheus(path, sample_registry().snapshot())
        assert path.read_text() == text
        assert text.endswith("\n")


def busy_work() -> float:
    total = 0.0
    for i in range(20000):
        total += i * 0.5
    return total


class TestProfiling:
    def test_hotspots_captured_on_opted_in_span(self):
        registry = obs.MetricsRegistry(profile=True, profile_top=5)
        with obs.use_registry(registry):
            with obs.span("hot", profile=True):
                busy_work()
        [record] = registry.snapshot()["spans"]
        hotspots = record["hotspots"]
        assert hotspots is not None
        assert len(hotspots) <= 5
        assert any("busy_work" in row[0] for row in hotspots)

    def test_no_capture_when_registry_profiling_off(self):
        registry = obs.MetricsRegistry(profile=False)
        with obs.use_registry(registry):
            with obs.span("hot", profile=True):
                busy_work()
        [record] = registry.snapshot()["spans"]
        assert record["hotspots"] is None

    def test_no_capture_when_span_not_opted_in(self):
        registry = obs.MetricsRegistry(profile=True)
        with obs.use_registry(registry):
            with obs.span("cold"):
                busy_work()
        [record] = registry.snapshot()["spans"]
        assert record["hotspots"] is None

    def test_profile_report_lists_hotspot_table(self):
        registry = obs.MetricsRegistry(profile=True)
        with obs.use_registry(registry):
            with obs.span("hot", profile=True):
                busy_work()
        report = format_profile_report(build_payload(registry.snapshot()))
        assert "hot (" in report
        assert "busy_work" in report

    def test_profile_report_empty_message(self):
        payload = build_payload(obs.MetricsRegistry().snapshot())
        assert "no profiled spans" in format_profile_report(payload)


class TestPrometheusLabelEscaping:
    """Regression tests for raw label-value interpolation: `\\`, `"` and
    newlines must be escaped per the exposition format (they used to pass
    through raw, producing unparseable scrape output)."""

    def test_double_quote_escaped(self):
        registry = obs.MetricsRegistry()
        registry.counter("evil", label='say "hi"').inc()
        text = to_prometheus(registry.snapshot())
        assert 'label="say \\"hi\\""' in text
        assert obs.validate_prometheus(text) == []

    def test_backslash_escaped(self):
        registry = obs.MetricsRegistry()
        registry.counter("evil", path="C:\\temp\\x").inc()
        text = to_prometheus(registry.snapshot())
        assert 'path="C:\\\\temp\\\\x"' in text
        assert obs.validate_prometheus(text) == []

    def test_newline_escaped(self):
        registry = obs.MetricsRegistry()
        registry.counter("evil", note="line1\nline2").inc()
        text = to_prometheus(registry.snapshot())
        # One sample line, with a literal backslash-n escape sequence.
        [sample] = [line for line in text.splitlines() if line.startswith("repro_evil")]
        assert 'note="line1\\nline2"' in sample
        assert obs.validate_prometheus(text) == []

    def test_escaping_applies_to_span_paths_and_digests(self):
        registry = obs.MetricsRegistry()
        registry.digest("lat", label='q="x"').observe(0.01)
        with obs.use_registry(registry):
            with obs.span("cell", scheme='S"1"'):
                pass
        text = to_prometheus(registry.snapshot())
        assert obs.validate_prometheus(text) == []
        assert '\\"x\\"' in text
        assert '\\"1\\"' in text


class TestValidatePrometheus:
    def test_accepts_exporter_output(self):
        text = to_prometheus(sample_registry().snapshot())
        assert obs.validate_prometheus(text) == []

    def test_rejects_raw_quote_in_label(self):
        bad = 'metric{label="say "hi""} 1\n'
        assert obs.validate_prometheus(bad)

    def test_rejects_garbage_line(self):
        assert obs.validate_prometheus("not a metric line at all!\n")

    def test_rejects_unparseable_value(self):
        assert obs.validate_prometheus("metric twelve\n")

    def test_rejects_malformed_type_comment(self):
        assert obs.validate_prometheus("# TYPE weird kind-of-thing\n")

    def test_accepts_special_values(self):
        assert obs.validate_prometheus("m 1.5e-3\nn +Inf\no NaN\n") == []


def digest_registry() -> obs.MetricsRegistry:
    registry = obs.MetricsRegistry()
    digest = registry.digest("service.latency_s", endpoint="/similar")
    for value in (0.010, 0.020, 0.040, 0.080, 0.500):
        digest.observe(value)
    return registry


class TestDigestExport:
    def test_payload_carries_states_and_quantiles(self):
        payload = build_payload(digest_registry().snapshot())
        assert validate_payload(payload) == []
        entries = payload["digests"]
        assert list(entries) == ["service.latency_s{endpoint=/similar}"]
        entry = entries["service.latency_s{endpoint=/similar}"]
        assert entry["count"] == 5
        quantiles = entry["quantiles"]
        assert quantiles["p50"] == pytest.approx(0.040, rel=0.011)
        assert quantiles["p99"] == pytest.approx(0.500, rel=0.011)

    def test_payload_omits_digests_when_absent(self):
        registry = obs.MetricsRegistry()
        registry.counter("events").inc()
        payload = build_payload(registry.snapshot())
        assert "digests" not in payload
        assert validate_payload(payload) == []

    def test_payload_round_trips_through_json(self, tmp_path):
        path = tmp_path / "payload.json"
        write_json(path, digest_registry().snapshot())
        restored = json.loads(path.read_text())
        assert validate_payload(restored) == []
        (state,) = restored["digests"].values()
        merged = obs.merge_digest_states([state, state])
        assert merged.count == 10

    def test_prometheus_summary_lines(self):
        text = to_prometheus(digest_registry().snapshot())
        assert obs.validate_prometheus(text) == []
        assert "# TYPE repro_service_latency_s summary" in text
        assert (
            'repro_service_latency_s{endpoint="/similar",quantile="0.5"}' in text
        )
        assert 'repro_service_latency_s_count{endpoint="/similar"} 5' in text
        assert 'repro_service_latency_s_sum{endpoint="/similar"}' in text

    def test_validate_payload_rejects_corrupt_digest(self):
        payload = build_payload(digest_registry().snapshot())
        (entry,) = payload["digests"].values()
        entry["count"] = 99  # buckets no longer sum to count
        assert any(
            "digest" in problem for problem in validate_payload(payload)
        )

    def test_validate_payload_rejects_bad_accuracy(self):
        payload = build_payload(digest_registry().snapshot())
        (entry,) = payload["digests"].values()
        entry["relative_accuracy"] = 1.5
        assert validate_payload(payload)


class TestValidatePrometheusSummaries:
    def test_rejects_quantile_label_out_of_range(self):
        bad = 's{quantile="1.5"} 3\ns_count 1\n'
        problems = obs.validate_prometheus(bad)
        assert any("quantile" in problem for problem in problems)

    def test_rejects_non_monotone_quantile_values(self):
        bad = (
            's{quantile="0.5"} 5\n'
            's{quantile="0.99"} 3\n'
            "s_count 2\n"
        )
        problems = obs.validate_prometheus(bad)
        assert any("non-decreasing" in problem for problem in problems)

    def test_rejects_summary_without_count(self):
        bad = 's{quantile="0.5"} 3\n'
        problems = obs.validate_prometheus(bad)
        assert any("_count" in problem for problem in problems)

    def test_accepts_well_formed_summary(self):
        good = (
            's{quantile="0.5"} 3\n'
            's{quantile="0.99"} 7\n'
            "s_sum 10\n"
            "s_count 2\n"
        )
        assert obs.validate_prometheus(good) == []
