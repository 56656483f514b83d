"""Unit tests for the fault-tolerant pipeline runner."""

import pytest

from repro.core.scheme import create_scheme
from repro.exceptions import CheckpointError, ErrorBudgetExceeded, PipelineError
from repro.graph.builders import aggregate_records
from repro.graph.stream import EdgeRecord, write_edge_records
from repro.pipeline import (
    CheckpointStore,
    CsvRecordSource,
    IterableRecordSource,
    PipelineConfig,
    SignaturePipeline,
    mean_topk_overlap,
)
from repro.pipeline.faults import (
    CrashInjector,
    FlakyCheckpointStore,
    FlakySource,
    SimulatedCrash,
)
from repro.pipeline.report import MODE_CACHED, MODE_DEGRADED, MODE_EXACT


def make_records(num_windows=3, hosts=5, per_window=40):
    records = []
    for window in range(num_windows):
        for i in range(per_window):
            records.append(
                EdgeRecord(
                    time=float(window),
                    src=f"h{i % hosts}",
                    dst=f"e{(i * 3 + window) % 11}",
                    weight=1.0 + i % 4,
                )
            )
    return records


@pytest.fixture
def trace(tmp_path):
    path = tmp_path / "trace.csv"
    write_edge_records(make_records(), path)
    return path


def make_pipeline(trace, tmp_path, config=None, **kwargs):
    return SignaturePipeline(
        CsvRecordSource(trace),
        CheckpointStore(tmp_path / "ckpt"),
        config or PipelineConfig(scheme="tt", k=5),
        **kwargs,
    )


class TestConfigValidation:
    def test_bad_k(self):
        with pytest.raises(PipelineError):
            PipelineConfig(k=0)

    def test_both_window_specs(self):
        with pytest.raises(PipelineError):
            PipelineConfig(num_windows=3, window_length=1.0)

    def test_bad_budgets(self):
        with pytest.raises(PipelineError):
            PipelineConfig(error_budget=-0.1)
        with pytest.raises(PipelineError):
            PipelineConfig(max_memory_cells=0)
        with pytest.raises(PipelineError):
            PipelineConfig(window_deadline=0.0)


class TestRun:
    def test_exact_run_matches_direct_computation(self, trace, tmp_path):
        result = make_pipeline(trace, tmp_path).run()
        assert len(result.signatures) == 3
        assert all(w.mode == MODE_EXACT for w in result.report.windows)
        # Window 0 must equal computing the scheme by hand.
        records = [r for r in make_records() if r.time == 0.0]
        graph = aggregate_records(records)
        scheme = create_scheme("tt", k=5)
        for owner, signature in result.signatures[0].items():
            assert signature == scheme.compute(graph, owner)

    def test_integer_times_define_windows(self, trace, tmp_path):
        result = make_pipeline(trace, tmp_path).run()
        assert [w.num_records for w in result.report.windows] == [40, 40, 40]

    def test_num_windows_split(self, trace, tmp_path):
        config = PipelineConfig(scheme="tt", k=5, num_windows=2)
        result = make_pipeline(trace, tmp_path, config).run()
        assert len(result.report.windows) == 2

    def test_non_integer_times_require_window_spec(self, tmp_path):
        source = IterableRecordSource([(0.5, "a", "b", 1.0)])
        pipeline = SignaturePipeline(
            source, CheckpointStore(tmp_path / "ckpt"), PipelineConfig()
        )
        with pytest.raises(PipelineError):
            pipeline.run()

    def test_empty_source_produces_empty_result(self, tmp_path):
        source = IterableRecordSource([])
        result = SignaturePipeline(
            source, CheckpointStore(tmp_path / "ckpt"), PipelineConfig()
        ).run()
        assert result.signatures == []

    def test_fresh_run_clears_stale_checkpoints(self, trace, tmp_path):
        pipeline = make_pipeline(trace, tmp_path)
        pipeline.run()
        result = pipeline.run()  # fresh again, not resumed
        assert result.report.resumed_from is None
        assert all(w.mode == MODE_EXACT for w in result.report.windows)


class TestErrorBudget:
    def make_dirty_source(self, bad=3, good=97):
        items = [(float(i % 2), f"h{i % 4}", f"e{i % 7}", 1.0) for i in range(good)]
        items += [("garbage", "x", "y", "z")] * bad
        return IterableRecordSource(items, errors="skip")

    def test_within_budget_passes(self, tmp_path):
        source = self.make_dirty_source(bad=3)
        config = PipelineConfig(error_budget=0.05)
        result = SignaturePipeline(
            source, CheckpointStore(tmp_path / "c"), config
        ).run()
        assert result.report.records_rejected == 3

    def test_fraction_budget_trips(self, tmp_path):
        source = self.make_dirty_source(bad=10)
        config = PipelineConfig(error_budget=0.05)
        with pytest.raises(ErrorBudgetExceeded) as excinfo:
            SignaturePipeline(source, CheckpointStore(tmp_path / "c"), config).run()
        assert excinfo.value.rejected == 10

    def test_absolute_budget_trips(self, tmp_path):
        source = self.make_dirty_source(bad=3)
        config = PipelineConfig(error_budget=2)
        with pytest.raises(ErrorBudgetExceeded):
            SignaturePipeline(source, CheckpointStore(tmp_path / "c"), config).run()

    def test_budget_is_catchable_as_pipeline_error(self, tmp_path):
        source = self.make_dirty_source(bad=10)
        config = PipelineConfig(error_budget=0.01)
        with pytest.raises(PipelineError):
            SignaturePipeline(source, CheckpointStore(tmp_path / "c"), config).run()


class TestDegradation:
    def test_memory_budget_degrades_to_streaming(self, trace, tmp_path):
        config = PipelineConfig(scheme="tt", k=5, max_memory_cells=10)
        result = make_pipeline(trace, tmp_path, config).run()
        assert result.report.degraded_windows == [0, 1, 2]
        for window in result.report.windows:
            assert window.mode == MODE_DEGRADED
            assert "memory budget" in window.reason

    def test_deadline_degrades_to_streaming(self, trace, tmp_path):
        # Fake clock: every call advances one second, so any per-window
        # deadline below the population size trips mid-computation.
        ticks = iter(range(100000))
        config = PipelineConfig(scheme="tt", k=5, window_deadline=1.5)
        result = make_pipeline(
            trace, tmp_path, config, clock=lambda: float(next(ticks))
        ).run()
        assert result.report.degraded_windows == [0, 1, 2]
        assert all("deadline" in w.reason for w in result.report.windows)

    def test_degraded_signatures_stay_close_to_exact(self, trace, tmp_path):
        exact = make_pipeline(trace, tmp_path / "a").run()
        config = PipelineConfig(scheme="tt", k=5, max_memory_cells=10)
        degraded = make_pipeline(trace, tmp_path / "b", config).run()
        for window in range(3):
            overlap = mean_topk_overlap(
                exact.signatures[window], degraded.signatures[window]
            )
            assert overlap >= 0.9

    def test_degradation_recorded_in_checkpoint_mode(self, trace, tmp_path):
        config = PipelineConfig(scheme="tt", k=5, max_memory_cells=10)
        pipeline = make_pipeline(trace, tmp_path, config)
        pipeline.run()
        scan = pipeline.store.scan()
        assert all(entry.mode == MODE_DEGRADED for entry in scan.good)

    def test_non_streaming_scheme_notes_fallback(self, trace, tmp_path):
        config = PipelineConfig(
            scheme="rwr",
            k=5,
            max_memory_cells=10,
            scheme_params={"reset_probability": 0.1, "max_hops": 2},
        )
        result = make_pipeline(trace, tmp_path, config).run()
        assert all("approximates 'tt'" in w.reason for w in result.report.windows)


class TestTransientFailures:
    def test_flaky_source_is_retried(self, trace, tmp_path):
        source = FlakySource(CsvRecordSource(trace), failures=2)
        pipeline = SignaturePipeline(
            source,
            CheckpointStore(tmp_path / "ckpt"),
            PipelineConfig(scheme="tt", k=5),
            sleep=lambda _s: None,
        )
        result = pipeline.run()
        assert result.report.retries == 2
        assert len(result.report.windows) == 3

    def test_flaky_store_is_retried(self, trace, tmp_path):
        store = FlakyCheckpointStore(tmp_path / "ckpt", failures=1)
        pipeline = SignaturePipeline(
            CsvRecordSource(trace),
            store,
            PipelineConfig(scheme="tt", k=5),
            sleep=lambda _s: None,
        )
        result = pipeline.run()
        assert result.report.retries == 1
        assert store.scan().next_window == 3

    def test_persistent_failure_escapes_after_retries(self, trace, tmp_path):
        source = FlakySource(CsvRecordSource(trace), failures=100)
        pipeline = SignaturePipeline(
            source,
            CheckpointStore(tmp_path / "ckpt"),
            PipelineConfig(scheme="tt", k=5),
            sleep=lambda _s: None,
        )
        with pytest.raises(OSError):
            pipeline.run()


class TestResume:
    def test_resume_with_no_checkpoints_runs_everything(self, trace, tmp_path):
        result = make_pipeline(trace, tmp_path).run(resume=True)
        assert result.report.resumed_from is None
        assert len(result.signatures) == 3

    def test_resume_replays_prefix(self, trace, tmp_path):
        pipeline = make_pipeline(trace, tmp_path)
        full = pipeline.run()
        resumed = make_pipeline(trace, tmp_path).run(resume=True)
        assert resumed.report.resumed_from == 3
        assert all(w.mode == MODE_CACHED for w in resumed.report.windows)
        assert resumed.signatures == full.signatures


class TestRunStateGuard:
    def test_scheme_mismatch_rejected(self, trace, tmp_path):
        make_pipeline(trace, tmp_path, PipelineConfig(scheme="tt", k=5)).run()
        resuming = make_pipeline(trace, tmp_path, PipelineConfig(scheme="ut", k=5))
        with pytest.raises(CheckpointError, match="scheme"):
            resuming.run(resume=True)

    def test_fresh_run_ignores_stale_state(self, trace, tmp_path):
        make_pipeline(trace, tmp_path, PipelineConfig(scheme="tt", k=5)).run()
        # resume=False clears the store, so no conflict arises.
        result = make_pipeline(
            trace, tmp_path, PipelineConfig(scheme="ut", k=5)
        ).run()
        assert len(result.signatures) == 3

    def test_resumes_checkpoints_stamped_with_incremental_engine(
        self, trace, tmp_path
    ):
        # Checkpoints written by the removed incremental pipeline carry
        # "engine": "incremental" in their run state.  That path's output
        # was byte-identical to the full one, so the prefix is replayed.
        baseline_dir = tmp_path / "baseline"
        baseline = SignaturePipeline(
            CsvRecordSource(trace),
            CheckpointStore(baseline_dir),
            PipelineConfig(scheme="tt", k=5),
        ).run()
        with pytest.raises(SimulatedCrash):
            make_pipeline(trace, tmp_path, hooks=[CrashInjector(at_window=1)]).run()
        store = CheckpointStore(tmp_path / "ckpt")
        store.set_run_state({**store.run_state(), "engine": "incremental"})

        resumed = make_pipeline(trace, tmp_path).run(resume=True)
        assert resumed.report.resumed_from == 2
        assert [w.mode for w in resumed.report.windows] == [
            MODE_CACHED, MODE_CACHED, MODE_EXACT,
        ]
        assert resumed.signatures == baseline.signatures
        assert "engine" not in store.run_state()
        for path in sorted(baseline_dir.glob("window-*.json")):
            assert (tmp_path / "ckpt" / path.name).read_bytes() == path.read_bytes()


class TestRunObservability:
    """The run report's metrics block and the obs merge contract."""

    def test_report_metrics_always_populated(self, trace, tmp_path):
        # No registry active: the run still collects its own counters.
        result = make_pipeline(trace, tmp_path).run()
        metrics = result.report.metrics
        assert metrics["pipeline.records_accepted"] == 120
        assert metrics["pipeline.windows{mode=exact}"] == 3
        assert metrics["pipeline.checkpoint_writes"] == 3
        assert "pipeline.records_rejected" not in metrics
        assert result.report.to_dict()["metrics"] == metrics

    def test_retries_and_kernel_traffic_counted(self, trace, tmp_path):
        source = FlakySource(CsvRecordSource(trace), failures=2)
        pipeline = SignaturePipeline(
            source,
            CheckpointStore(tmp_path / "ckpt"),
            PipelineConfig(scheme="tt", k=5),
            sleep=lambda _s: None,
        )
        metrics = pipeline.run().report.metrics
        assert metrics["pipeline.retries{op=read}"] == 2
        assert metrics["retry.transient_failures"] == 2

    def test_resume_counts_cached_windows(self, trace, tmp_path):
        make_pipeline(trace, tmp_path).run()
        resumed = make_pipeline(trace, tmp_path).run(resume=True)
        metrics = resumed.report.metrics
        assert metrics["pipeline.windows{mode=cached}"] == 3
        assert "pipeline.windows{mode=exact}" not in metrics

    def test_degradation_counted(self, trace, tmp_path):
        config = PipelineConfig(scheme="tt", k=5, max_memory_cells=10)
        metrics = make_pipeline(trace, tmp_path, config).run().report.metrics
        assert metrics["pipeline.degradations"] == 3
        assert metrics[f"pipeline.windows{{mode={MODE_DEGRADED}}}"] == 3

    def test_merges_into_parent_registry_under_active_span(self, trace, tmp_path):
        from repro import obs

        registry = obs.MetricsRegistry()
        with obs.use_registry(registry):
            with obs.span("driver"):
                result = make_pipeline(trace, tmp_path).run()
        assert registry.counter_value("pipeline.records_accepted") == 120
        paths = {tuple(r["path"]) for r in registry.snapshot()["spans"]}
        assert ("driver", "pipeline.run{scheme=tt}") in paths
        assert ("driver", "pipeline.run{scheme=tt}", "pipeline.window") in paths
        # The report still carries its own copy.
        assert result.report.metrics["pipeline.records_accepted"] == 120


class TestLiveObservability:
    """Event-log routing, per-window time series, and the in-run server."""

    def run_with_log(self, pipeline):
        import io
        import json

        from repro import obs

        buffer = io.StringIO()
        log = obs.EventLog(buffer, run_id="p", clock=lambda: 0.0)
        with obs.use_event_log(log):
            result = pipeline.run()
        events = [json.loads(line) for line in buffer.getvalue().splitlines()]
        return result, events

    def test_run_brackets_and_window_events(self, trace, tmp_path):
        _result, events = self.run_with_log(make_pipeline(trace, tmp_path))
        names = [event["event"] for event in events]
        assert names[0] == "pipeline.run.start"
        assert names[-1] == "pipeline.run.finish"
        windows = [event for event in events if event["event"] == "pipeline.window"]
        assert [event["window"] for event in windows] == [0, 1, 2]
        assert all(
            event["span"].startswith("pipeline.run{scheme=tt}") for event in windows
        )

    def test_retry_warnings_routed(self, trace, tmp_path):
        source = FlakySource(CsvRecordSource(trace), failures=2)
        pipeline = SignaturePipeline(
            source,
            CheckpointStore(tmp_path / "ckpt"),
            PipelineConfig(scheme="tt", k=5),
            sleep=lambda _s: None,
        )
        _result, events = self.run_with_log(pipeline)
        retries = [event for event in events if event["event"] == "pipeline.retry"]
        assert len(retries) == 2
        assert all(event["level"] == "warning" for event in retries)
        assert all(event["op"] == "read" for event in retries)
        assert [event["attempt"] for event in retries] == [1, 2]

    def test_quarantine_warning_routed(self, tmp_path):
        items = [(float(i % 2), f"h{i % 4}", f"e{i % 7}", 1.0) for i in range(50)]
        items += [("garbage", "x", "y", "z")] * 2
        pipeline = SignaturePipeline(
            IterableRecordSource(items, errors="skip"),
            CheckpointStore(tmp_path / "c"),
            PipelineConfig(error_budget=0.1),
        )
        _result, events = self.run_with_log(pipeline)
        [event] = [e for e in events if e["event"] == "pipeline.records_rejected"]
        assert event["level"] == "warning"
        assert event["rejected"] == 2
        assert len(event["rows"]) == 2

    def test_error_budget_event_routed(self, tmp_path):
        items = [(float(i % 2), f"h{i % 4}", f"e{i % 7}", 1.0) for i in range(50)]
        items += [("garbage", "x", "y", "z")] * 10
        pipeline = SignaturePipeline(
            IterableRecordSource(items, errors="skip"),
            CheckpointStore(tmp_path / "c"),
            PipelineConfig(error_budget=0.05),
        )
        import io
        import json

        from repro import obs

        buffer = io.StringIO()
        log = obs.EventLog(buffer, run_id="p", clock=lambda: 0.0)
        with obs.use_event_log(log):
            with pytest.raises(ErrorBudgetExceeded):
                pipeline.run()
        events = [json.loads(line) for line in buffer.getvalue().splitlines()]
        [budget] = [
            e for e in events if e["event"] == "pipeline.error_budget_exceeded"
        ]
        assert budget["level"] == "error"
        assert budget["rejected"] == 10

    def test_degradation_warning_routed(self, trace, tmp_path):
        config = PipelineConfig(scheme="tt", k=5, max_memory_cells=10)
        _result, events = self.run_with_log(make_pipeline(trace, tmp_path, config))
        degraded = [e for e in events if e["event"] == "pipeline.degraded"]
        assert [event["window"] for event in degraded] == [0, 1, 2]
        assert all("memory budget" in event["reason"] for event in degraded)

    def test_resume_event_routed(self, trace, tmp_path):
        make_pipeline(trace, tmp_path).run()
        _result, events = self.run_with_log(
            make_pipeline(trace, tmp_path)
        )  # fresh run emits no resume event
        assert not [e for e in events if e["event"] == "pipeline.resumed"]
        import io
        import json

        from repro import obs

        buffer = io.StringIO()
        log = obs.EventLog(buffer, run_id="p", clock=lambda: 0.0)
        with obs.use_event_log(log):
            make_pipeline(trace, tmp_path).run(resume=True)
        events = [json.loads(line) for line in buffer.getvalue().splitlines()]
        [resumed] = [e for e in events if e["event"] == "pipeline.resumed"]
        assert resumed["windows"] == 3

    def test_timeseries_records_per_window_trajectory(self, trace, tmp_path):
        result = make_pipeline(trace, tmp_path).run()
        series = result.timeseries["pipeline.windows{mode=exact}"]
        assert [value for _t, value in series] == [1.0, 2.0, 3.0]
        accepted = result.timeseries["pipeline.records_accepted"]
        assert accepted[-1][1] == 120.0

    def test_obs_port_serves_live_registry_mid_run(self, trace, tmp_path):
        import json
        import urllib.request

        from repro import obs

        scrapes = []

        def scrape(url):
            with urllib.request.urlopen(url, timeout=10) as response:
                return response.read().decode("utf-8")

        class SpyStore(CheckpointStore):
            """Scrapes the pipeline's own server from inside the run.

            Each checkpoint write happens mid-run, after the server started;
            the ephemeral port is read from the ``obs.server.started`` event.
            """

            def save_window(self, window, signatures, meta, mode):
                for line in buffer.getvalue().splitlines():
                    event = json.loads(line)
                    if event["event"] == "obs.server.started":
                        port = int(event["url"].rsplit(":", 1)[1])
                        scrapes.append(
                            scrape(f"http://127.0.0.1:{port}/metrics")
                        )
                        break
                return super().save_window(window, signatures, meta, mode=mode)

        config = PipelineConfig(scheme="tt", k=5, obs_port=0)
        import io

        buffer = io.StringIO()
        log = obs.EventLog(buffer, run_id="p", clock=lambda: 0.0)
        store = SpyStore(tmp_path / "ckpt")
        pipeline = SignaturePipeline(CsvRecordSource(trace), store, config)
        with obs.use_event_log(log):
            result = pipeline.run()
        assert scrapes, "server never scraped mid-run"
        for body in scrapes:
            assert obs.validate_prometheus(body) == []
        assert "repro_pipeline_windows_total" in scrapes[-1]
        assert result.report.metrics["pipeline.windows{mode=exact}"] == 3

    def test_sampler_attaches_when_interval_configured(self, trace, tmp_path):
        config = PipelineConfig(scheme="tt", k=5, sample_interval=0.005)
        result = make_pipeline(trace, tmp_path, config).run()
        # Both the per-window samples and the background sampler land in the
        # same store; the trajectory still ends at the final totals.
        assert result.timeseries["pipeline.records_accepted"][-1][1] == 120.0

    def test_config_validation(self):
        with pytest.raises(PipelineError):
            PipelineConfig(obs_port=-1)
        with pytest.raises(PipelineError):
            PipelineConfig(obs_port=65536)
        with pytest.raises(PipelineError):
            PipelineConfig(sample_interval=0.0)
