"""``tools/bench.py`` payload writing: only full-mode records reach the repo root."""

import importlib.util
import json
from pathlib import Path

import pytest

BENCH_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench.py"


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("repro_bench_tool", BENCH_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def repo_root(bench, tmp_path, monkeypatch):
    root = tmp_path / "repo"
    root.mkdir()
    monkeypatch.setattr(bench, "REPO_ROOT", root)
    return root


def committed_record(root: Path) -> Path:
    path = root / "BENCH_sketch_tier.json"
    path.write_text(json.dumps({"benchmark": "sketch_tier", "mode": "full"}) + "\n")
    return path


class TestWritePayload:
    def test_quick_payload_leaves_root_record_byte_identical(self, bench, repo_root):
        record = committed_record(repo_root)
        before = record.read_bytes()
        output = repo_root / "out" / "quick.json"
        bench._write_payload({"benchmark": "sketch_tier", "mode": "quick"}, output)
        assert json.loads(output.read_text())["mode"] == "quick"
        assert record.read_bytes() == before

    def test_full_payload_is_mirrored_to_root(self, bench, repo_root):
        record = committed_record(repo_root)
        output = repo_root / "out" / "full.json"
        payload = {"benchmark": "sketch_tier", "mode": "full", "rows": 3}
        bench._write_payload(payload, output)
        assert json.loads(record.read_text()) == payload
