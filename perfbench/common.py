"""Shared helpers: locating the program, seeded inputs, statistics, provenance."""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import platform
import random
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CACHE_DIR = BENCH_DIR / ".cache"
WORK_DIR = BENCH_DIR / ".work"
RESULTS_DIR = BENCH_DIR / ".results"

#: Percentiles a ``_tail`` metric may use, lowest first: the conventional
#: p90/p99/p99.9 plus p75 for small samples.  A sparse ladder keeps more
#: samples beyond the chosen percentile, which steadies its estimate.
TAIL_LADDER = (50.0, 75.0, 90.0, 99.0, 99.9)
#: Samples that must lie beyond the tail percentile.
TAIL_BEYOND = 10


class BenchError(RuntimeError):
    """The benchmark cannot run (missing program, failed child, ...)."""


def require_program() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"program sources not found under {SRC}")


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def tail_percentile(expected_samples: float, beyond: int = TAIL_BEYOND) -> float:
    """The highest ladder percentile leaving at least ``beyond`` samples above it."""
    chosen = TAIL_LADDER[0]
    for p in TAIL_LADDER:
        if expected_samples * (100.0 - p) >= beyond * 100.0 - 1e-9:
            chosen = p
    return chosen


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile (the smallest value with at least p% at or below)."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def median(values: Sequence[float]) -> float:
    """The nearest-rank 50th percentile, consistent with :func:`percentile`."""
    return percentile(values, 50.0)


def due_latency(due: float, done: Optional[float], ok: bool) -> float:
    """Latency of an open-loop request, counted from when it was due.

    A failed or refused request (``ok`` false, or never completed) has
    missed every limit: it counts as +inf.
    """
    if not ok or done is None:
        return math.inf
    return done - due


def finite_ms(value_s: float, cap_s: float) -> float:
    """Seconds to milliseconds; +inf (a failed request) reads as ``cap_s``."""
    return 1000.0 * (cap_s if math.isinf(value_s) else value_s)


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def _atomic_write_text(path: Path, write) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    with open(tmp, "w", newline="", encoding="utf-8") as handle:
        write(handle)
    os.replace(tmp, path)


def _param_key(params: Dict) -> str:
    return hashlib.sha256(json.dumps(params, sort_keys=True).encode()).hexdigest()[:12]


def enterprise_trace(workload: str, params: Dict, seed: int) -> Path:
    """CSV trace from ``EnterpriseFlowGenerator``, generated once per
    (workload, parameters, seed) into the cache and reused afterwards.

    ``params`` holds generator fields plus, optionally, ``shuffle``: the
    records of each trace window are then written in a seeded random order
    (hosts interleaved), as a live feed would deliver them.
    """
    path = CACHE_DIR / f"{workload}-{_param_key(params)}-seed{seed}.csv"
    if path.is_file():
        return path
    sys.path.insert(0, str(SRC))
    from repro.datasets import EnterpriseFlowGenerator, EnterpriseParams

    fields = {key: value for key, value in params.items() if key != "shuffle"}
    data = EnterpriseFlowGenerator(EnterpriseParams(seed=seed, **fields)).generate()
    rng = random.Random(seed)

    def write(handle) -> None:
        writer = csv.writer(handle)
        writer.writerow(["time", "src", "dst", "weight"])
        for window, graph in enumerate(data.graphs.graphs):
            rows = [(float(window), src, dst, repr(float(weight))) for src, dst, weight in graph.edges()]
            if params.get("shuffle"):
                rng.shuffle(rows)
            writer.writerows(rows)

    _atomic_write_text(path, write)
    return path


def read_trace(path: Path) -> List[tuple]:
    """The trace's rows as ``(time, src, dst, weight)`` with floats parsed."""
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        next(reader)
        return [(float(t), s, d, float(w)) for t, s, d, w in reader]


# ----------------------------------------------------------------------
# Host speed
# ----------------------------------------------------------------------
#: Seconds :func:`reference_work` took on the 2-CPU test host in its usual
#: state.  Pipeline timings are scaled to that speed (see README.md).
REFERENCE_S = 0.030


def reference_work() -> None:
    """A fixed piece of allocation- and dict-heavy Python that does not use
    the program: parse 5,000 flow-like lines, sum weights per source and
    destination, rank the sources.  Its time tracks the host's speed for
    work like the program's."""
    rng = random.Random(1)
    totals: Dict[str, Dict[str, float]] = {}
    for i in range(5000):
        line = f"{i},10.{rng.randrange(256)}.{rng.randrange(64)}.1,{i % 977},{rng.random():.6f}"
        _t, source, target, weight = line.split(",")
        row = totals.setdefault(source, {})
        row[target] = row.get(target, 0.0) + float(weight)
    ranked = sorted(totals.items(), key=lambda item: -sum(item[1].values()))
    json.loads(json.dumps(ranked[:200]))


def reference_times(repeats: int = 3) -> List[float]:
    """Seconds of ``repeats`` back-to-back runs of :func:`reference_work`."""
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        reference_work()
        times.append(time.perf_counter() - started)
    return times


# ----------------------------------------------------------------------
# Provenance
# ----------------------------------------------------------------------
#: A stretch of a run counts as quiet when the hypervisor ran other guests
#: for at most this share of the CPU time the stretch wanted.
QUIET_STEAL = 0.05


def cpu_ticks() -> Optional[List[int]]:
    """``[steal, wanted]`` jiffies of all CPUs so far, from /proc/stat:
    time the hypervisor ran other guests while this one was runnable, and
    that time plus the time this guest ran.  None off Linux."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = [int(x) for x in handle.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    if len(fields) < 8:
        return None
    user, nice, system, _idle, _iowait, irq, softirq, steal = fields[:8]
    return [steal, user + nice + system + irq + softirq + steal]


def steal_share(before: Optional[List[int]], after: Optional[List[int]]) -> Optional[float]:
    """Share of the CPU time wanted in between that went to other guests."""
    if before is None or after is None or after[1] <= before[1]:
        return None
    return (after[0] - before[0]) / (after[1] - before[1])


def unstolen(seconds: float, steal: Optional[float]) -> float:
    """``seconds`` less the steal share of it: the time the work would have
    taken had the hypervisor not run other guests meanwhile.  A failed
    request's +inf stays +inf."""
    if math.isinf(seconds):
        return seconds
    return seconds * (1.0 - (steal or 0.0))


def quiet_mask(steals: Sequence[Optional[float]], limit: float = QUIET_STEAL) -> List[bool]:
    """Which stretches of a run to measure: every one with at most
    ``limit`` steal or, when that is fewer than half of them, the quietest
    half.  Steal is set by the other guests on the host, not by the
    program, so choosing by it does not favour a faster program."""
    known = [0.0 if value is None else value for value in steals]
    keep = [value <= limit for value in known]
    if 2 * sum(keep) >= len(known):
        return keep
    order = sorted(range(len(known)), key=lambda i: known[i])
    half = set(order[:(len(known) + 1) // 2])
    return [i in half for i in range(len(known))]


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit() -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def provenance(workload: str, seed: int, seconds: int, trace: bool, params: Dict) -> Dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "params": params,
        "host_cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": git_commit(),
        "source_sha256": source_digest(),
    }


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())
