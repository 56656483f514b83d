"""Pipeline integration of the shared-memory recompute engine.

``strategy="shm"`` must leave every pipeline output byte-identical —
window signatures, checkpoints, report — and the run must release its
worker pool and segments whether it succeeds or dies mid-window.
"""

import random

import pytest

from repro.exceptions import PipelineError
from repro.parallel.shm import ShmEngine, active_segment_names
from repro.pipeline import (
    CheckpointStore,
    CsvRecordSource,
    PipelineConfig,
    SignaturePipeline,
)


@pytest.fixture()
def trace(tmp_path):
    rng = random.Random(7)
    rows = ["time,src,dst,weight"]
    for t in range(300):
        rows.append(
            f"{t},h{rng.randrange(15)},h{rng.randrange(15)},{rng.randrange(1, 6)}"
        )
    path = tmp_path / "trace.csv"
    path.write_text("\n".join(rows) + "\n")
    return path


def run_pipeline(trace, tmp_path, tag, **config_kwargs):
    config = PipelineConfig(k=5, window_length=100.0, **config_kwargs)
    pipeline = SignaturePipeline(
        CsvRecordSource(str(trace)),
        CheckpointStore(tmp_path / f"ckpt-{tag}"),
        config,
    )
    result = pipeline.run()
    return [
        {node: sig.entries for node, sig in sigs.items()}
        for sigs in result.signatures
    ]


class TestPipelineShmStrategy:
    @pytest.mark.parametrize(
        "scheme,params",
        [("tt", {}), ("rwr", {"max_hops": 3}), ("rwr", {})],
    )
    def test_byte_identical_to_serial(self, trace, tmp_path, scheme, params):
        serial = run_pipeline(
            trace, tmp_path, "serial",
            scheme=scheme, scheme_params=params,
        )
        shm = run_pipeline(
            trace, tmp_path, "shm",
            scheme=scheme, scheme_params=params, strategy="shm", jobs=2,
        )
        assert shm == serial
        assert active_segment_names() == []

    def test_injected_engine_is_not_closed(self, trace, tmp_path):
        with ShmEngine(jobs=2) as engine:
            config = PipelineConfig(k=5, window_length=100.0, strategy="shm")
            pipeline = SignaturePipeline(
                CsvRecordSource(str(trace)),
                CheckpointStore(tmp_path / "ckpt-injected"),
                config,
                engine=engine,
            )
            pipeline.run()
            # Caller-owned pool survives the run for reuse.
            assert not engine.closed
        assert engine.closed

    def test_owned_engine_released_after_run(self, trace, tmp_path):
        config = PipelineConfig(k=5, window_length=100.0, strategy="shm", jobs=2)
        pipeline = SignaturePipeline(
            CsvRecordSource(str(trace)),
            CheckpointStore(tmp_path / "ckpt-owned"),
            config,
        )
        pipeline.run()
        assert active_segment_names() == []

    def test_unknown_strategy_rejected(self):
        with pytest.raises(PipelineError, match="strategy"):
            PipelineConfig(strategy="smoke-signals")

    def test_negative_jobs_rejected(self):
        with pytest.raises(PipelineError, match="jobs"):
            PipelineConfig(jobs=-2)
