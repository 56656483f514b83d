"""The service workload: a sharded ``SignatureService`` over real HTTP.

One run is a few identical episodes.  Each starts a fresh server (in its
own process), times the start to the first answered query, and drives it
from a load client in its own process: an open loop of reads and ingests
at fixed Poisson rates, the same requests on the same schedule in every
episode.  Each request's latency, and each window's lag and apply time, is
its fastest over the episodes, less the steal share of the episode it came
from (``unstolen``): every episode does the same work, and host noise
(above all the hypervisor's steal, which delays many of the short wake-ups
a request makes) only slows it down.  After the last episode, let
its last windows land, ask 200 sampled questions over HTTP and compare the
answers with an in-process service that replays the ingest batches in the
order the server admitted them.
"""

from __future__ import annotations

import json
import os
import random
import select
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from common import (
    BENCH_DIR,
    SRC,
    WORK_DIR,
    BenchError,
    child_env,
    cpu_ticks,
    dir_bytes,
    due_latency,
    enterprise_trace,
    finite_ms,
    median,
    percentile,
    read_trace,
    steal_share,
    tail_percentile,
    unstolen,
)
import checks
from client import http_request
from shims import layer_figures
from tracer import top_self_layer

WORKLOADS = {
    "service-mixed": {
        # Hosts of one trace window are shuffled (seeded) and fed in order.
        "generator": {"num_hosts": 2000, "num_external": 20000, "num_services": 30,
                      "num_windows": 2, "shuffle": True},
        "config": {"scheme": "tt", "k": 10, "num_shards": 4, "window_records": 16,
                   "window_buckets": 4},
        "pump_interval_s": 0.05,
        "warmup_windows": 4,
        # Both rates keep the server far from saturation even when the host
        # runs 2-3x slower, as it did for minutes at a time on a 2-CPU test
        # host: ingest at about a fifth of what the shards apply there
        # (records_per_s ≈ 300), reads at an eighth of the ≈350/s that two
        # connections sending back to back got answered there.
        "ingest_records_per_s": 64,
        "ingest_batch": 8,
        "reads_per_s": 45,
        # The default mix of the program's own load harness (LoadProfile:
        # signature .35, similar .30, anomaly .20, ingest .15), with the
        # ingest share given to /history: ingest here has its own rate.
        "mix": {"signature": 0.35, "similar": 0.30, "anomaly": 0.20, "history": 0.15},
        "read_lag_s": 0.4,
        # Episodes of --seconds / episodes each: 10 s at --seconds 40, long
        # enough for 40 windows, so the visible-lag tail is a p75.
        "episodes": 4,
        "check_requests": 200,
        "connections": min(2, os.cpu_count() or 1),
        "timeout_s": 10.0,
    },
}

PATHS = {
    "similar": "/similar/{node}?k=5",
    "signature": "/signature/{node}",
    "anomaly": "/anomaly/{node}",
    "history": "/history/{node}?k=5",
}
QUERY_KINDS = ("signature", "anomaly", "history")
START_TIMEOUT_S = 60.0
#: Pause after the last window shows in /status, for its history append.
SETTLE_S = 0.5
#: Length of the alternating traced / untraced slots of a traced run.
TRACE_SLOT_S = 1.0


def is_error(status) -> bool:
    return status == "error" or status == 429 or (isinstance(status, int) and status >= 500)


# ----------------------------------------------------------------------
# Plan
# ----------------------------------------------------------------------
def ingest_body(rows: List[tuple]) -> str:
    return json.dumps({"records": [[t, s, d, w] for t, s, d, w in rows]})


def poisson_times(rng: random.Random, rate: float, length: float) -> List[float]:
    """Arrival times of a Poisson process at ``rate`` over ``length``
    seconds, given that it makes ``round(rate * length)`` arrivals: that
    many uniform times, sorted.  Fixing the count keeps the offered load
    the same for every seed (a free count varies by ±11% at 80 arrivals)."""
    return sorted(rng.uniform(0.0, length) for _ in range(round(rate * length)))


def mixed_kinds(rng: random.Random, mix: Dict[str, float], count: int) -> List[str]:
    """Request kinds in the mix's exact proportions per block of 20, in a
    seeded order, so the seed varies the order but not the mix."""
    block = [kind for kind, share in mix.items() for _ in range(round(20 * share))]
    kinds: List[str] = []
    while len(kinds) < count:
        rng.shuffle(block)
        kinds.extend(block)
    return kinds[:count]


class Plan:
    """All inputs of one run, derived from the seed."""

    def __init__(self, config: Dict, rows: List[tuple], seed: int, seconds: float, trace: bool):
        rng = random.Random(seed)
        window = config["config"]["window_records"]
        batch = config["ingest_batch"]
        self.config = config
        self.batches: List[List[tuple]] = []
        self.warmup = [self._batch(rows, window) for _ in range(config["warmup_windows"])]
        self.warmup_rows = [row for b in self.warmup for row in b]
        rate = config["ingest_records_per_s"] / batch
        # A traced run is one episode (the slots it alternates tracing in
        # are its repeats); see the module doc.
        self.episodes = 1 if trace else config["episodes"]
        self.open_s = seconds / self.episodes

        requests: List[list] = []
        ingested = [(0.0, len(self.warmup_rows))]
        for t in poisson_times(rng, rate, self.open_s):
            batch_id = len(self.batches)
            rows_now = self._batch(rows, batch)
            requests.append([t, f"ingest#{batch_id}", "/ingest", ingest_body(rows_now)])
            ingested.append((t, ingested[-1][1] + batch))
        fed = [row for b in self.batches for row in b]
        self.expected = {k: config["reads_per_s"] * share * self.open_s
                         for k, share in config["mix"].items()}
        read_times = poisson_times(rng, config["reads_per_s"], self.open_s)
        kinds = mixed_kinds(rng, config["mix"], len(read_times))
        for index, (t, kind) in enumerate(zip(read_times, kinds)):
            # A node of the last full window admitted read_lag_s ago: visible
            # by then, and not yet slid out of the live window.
            count = max(c for at, c in ingested if at <= max(0.0, t - config["read_lag_s"]))
            end = (count // window) * window
            node = rng.choice(fed[end - window:end])[1]
            requests.append([t, f"{kind}#{index}", PATHS[kind].format(node=node), None])
        requests.sort(key=lambda r: r[0])
        self.open_requests = requests
        self.expected["ingest"] = rate * self.open_s
        self.expected["visible_lag"] = config["ingest_records_per_s"] * self.open_s / window
        self.check_seed = rng.randrange(1 << 30)

    def _batch(self, rows: List[tuple], size: int) -> List[tuple]:
        start = sum(len(b) for b in self.batches)
        if start + size > len(rows):
            raise BenchError("the service trace is too short for this run length")
        self.batches.append(rows[start:start + size])
        return self.batches[-1]

    def client_plan(self, port: int, start_at: float, toggle_pid: Optional[int]) -> Dict:
        open_phase = {"name": "open", "start": 0.0,
                      "requests": self.open_requests}
        if toggle_pid is not None:
            # Tracing on in every other slot: traced and untraced requests
            # interleave in time, so host-speed drift does not bias the
            # overhead estimate.
            slots = int(self.open_s / TRACE_SLOT_S)
            open_phase["toggles"] = {
                "pid": toggle_pid,
                "at": [[i * TRACE_SLOT_S, i % 2 == 1] for i in range(1, slots)],
            }
        return {"host": "127.0.0.1", "port": port, "start_at": start_at,
                "connections": self.config["connections"],
                "timeout_s": self.config["timeout_s"], "phases": [open_phase]}

    def batch_key(self, batch: List[tuple]) -> Tuple[str, str, float]:
        t, s, d, _w = batch[0]
        return (s, d, float(t))


# ----------------------------------------------------------------------
# Server process
# ----------------------------------------------------------------------
class Server:
    def __init__(self, config: Dict, work: Path, trace: bool) -> None:
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        self.dump_path = work / "dump.json"
        self.history_dir = work / "history"
        spec = {
            "config": config["config"],
            "history_dir": str(self.history_dir),
            "pump_interval_s": config["pump_interval_s"],
            "trace": trace,
            "dump": str(self.dump_path),
        }
        (work / "server-spec.json").write_text(json.dumps(spec))
        self.stderr = open(work / "server.err", "w")
        self.spawned = time.monotonic()
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "server.py"), str(work / "server-spec.json")],
            env=child_env(), stdout=subprocess.PIPE, stderr=self.stderr, text=True,
        )
        ready, _, _ = select.select([self.proc.stdout], [], [], START_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            self.kill()
            raise BenchError("service did not start; see " + str(work / "server.err"))
        self.port = json.loads(line)["port"]

    def get(self, path: str) -> Tuple[int, str]:
        return http_request("127.0.0.1", self.port, path)[:2]

    def post(self, path: str, body: str) -> int:
        return http_request("127.0.0.1", self.port, path, body)[0]

    def status(self) -> Dict:
        return json.loads(self.get("/status")[1])

    def wait_windows(self, last_window: int, timeout: float = 60.0) -> None:
        """Until /status shows every shard at window >= ``last_window``.

        Uses the per-shard windows: the top-level ``window`` is bumped
        before the shards apply the window, so it runs ahead of them.
        """
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if all(s["window"] >= last_window for s in self.status()["shards"]):
                return
            time.sleep(0.01)
        raise BenchError(f"service never reached window {last_window}")

    def stop(self) -> Dict:
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.kill()
            raise BenchError("service did not stop")
        finally:
            self.proc.stdout.close()
            self.stderr.close()
        return json.loads(self.dump_path.read_text())

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(timeout=30)
        self.proc.stdout.close()
        self.stderr.close()


def start_and_warm(config: Dict, plan: Plan, work: Path, trace: bool) -> Tuple[Server, float]:
    """Spawn the server, apply the warm-up windows, wait for a 200 answer.

    Returns the server and its set-up time (spawn to first answered query).
    """
    server = Server(config, work, trace)
    try:
        for batch in plan.warmup:
            if server.post("/ingest", ingest_body(batch)) != 202:
                raise BenchError("warm-up ingest refused")
        server.wait_windows(config["warmup_windows"] - 1)
        node = plan.warmup[-1][0][1]
        while server.get(PATHS["signature"].format(node=node))[0] != 200:
            time.sleep(0.005)
        return server, time.monotonic() - server.spawned
    except BaseException:
        server.kill()
        raise


# ----------------------------------------------------------------------
# Run
# ----------------------------------------------------------------------
def run(workload: str, seed: int, seconds: float, trace: bool) -> Dict:
    config = WORKLOADS[workload]
    rows = read_trace(enterprise_trace(workload, config["generator"], seed))
    plan = Plan(config, rows, seed, seconds, trace)
    work = WORK_DIR / workload
    shutil.rmtree(work, ignore_errors=True)
    phases = {"started": time.monotonic()}
    setups: List[float] = []
    episodes: List[Tuple[List[list], Dict, Optional[float]]] = []
    ticks = cpu_ticks()
    for episode in range(plan.episodes):
        before = cpu_ticks()
        server, setup_s = start_and_warm(config, plan, work / f"episode-{episode}", trace)
        setups.append(unstolen(setup_s, steal_share(before, cpu_ticks())))
        try:
            before = cpu_ticks()
            records = drive(plan, server, work / f"episode-{episode}", trace)
            drive_steal = steal_share(before, cpu_ticks())
            if episode == plan.episodes - 1:
                checked = query_checks(plan, server)
                stored = dir_bytes(server.history_dir)
                metrics_text = server.get("/metrics")[1]
        except BaseException:
            server.kill()
            raise
        episodes.append((records, server.stop(), drive_steal))
    steal = steal_share(ticks, cpu_ticks())
    phases["episodes"] = time.monotonic()
    records, dump, _steal = episodes[-1]
    problems = (compare_with_replay(config, plan, dump, checked, work / "replay")
                or check_signatures(config, plan, dump, checked))
    phases["replay"] = time.monotonic()

    detail = summarize(config, plan, episodes, setups)
    detail["stored_bytes_per_signature"] = stored / rows_archived(server.history_dir)
    detail["host_steal_share"] = steal
    detail["checked"] = problems or (
        f"ok ({len(checked)} answers match the replay; /signature answers match Top Talkers)")
    marks = list(phases.items())
    detail["phase_s"] = {name: round(t - prev, 2) for (_p, prev), (name, t) in zip(marks, marks[1:])}
    sent = [r for records, _dump, _steal in episodes for r in records if r[0] != "mark"]
    result = {
        "correct": not problems,
        "attempted": len(sent),
        "failed": sum(1 for r in sent if is_error(r[5])),
        "detail": detail,
    }
    if trace:
        result["per_layer"] = per_layer(plan, records, dump, detail, metrics_text)
    return result


def drive(plan: Plan, server: Server, work: Path, trace: bool) -> List[list]:
    start_at = time.monotonic() + 0.5
    plan_path, out_path = work / "plan.json", work / "client-out.json"
    plan_path.write_text(json.dumps(plan.client_plan(
        server.port, start_at, server.proc.pid if trace else None)))
    with open(work / "client.err", "w") as stderr:
        client = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "client.py"), str(plan_path), str(out_path)],
            stdout=subprocess.DEVNULL, stderr=stderr,
        )
        try:
            code = client.wait(timeout=plan.open_s + 120)
        except BaseException as error:
            client.kill()
            client.wait(timeout=30)
            if isinstance(error, subprocess.TimeoutExpired):
                raise BenchError("load client did not finish") from error
            raise
    if code != 0:
        raise BenchError("load client failed; see " + str(work / "client.err"))
    return json.loads(out_path.read_text())


def query_checks(plan: Plan, server: Server) -> List[list]:
    """Let every admitted window land, then ask the sampled questions."""
    status = server.status()
    window = plan.config["config"]["window_records"]
    server.wait_windows(status["queue"]["accepted"] // window - 1)
    # A shard reports its new window before appending it to its history
    # store; let that last append finish (no ingest is arriving now).
    time.sleep(SETTLE_S)
    live = plan.config["config"]["window_buckets"] * window
    accepted = status["queue"]["accepted"]
    fed = [row for b in plan.batches for row in b]
    # Nodes of the live window, from the records admitted last.  Admission
    # order can differ from plan order only within the last few batches.
    nodes = sorted({row[1] for row in fed[max(0, accepted - live):accepted]})
    rng = random.Random(plan.check_seed)
    answers = []
    for _ in range(plan.config["check_requests"]):
        kind = rng.choice(list(PATHS))
        path = PATHS[kind].format(node=rng.choice(nodes))
        code, body = server.get(path)
        answers.append([path, code, body])
    # Whole windows of window_records each, and nothing more, were applied.
    status = server.status()
    expected = (accepted // window - 1, accepted % window)
    got = (max(s["window"] for s in status["shards"]), status["queue"]["depth"])
    if got != expected:
        answers.append(["/status", 200, f"(last window, queued) = {got}, expected {expected}"])
    return answers


def compare_with_replay(config: Dict, plan: Plan, dump: Dict, answers: List[list],
                        replay_dir: Path) -> List[str]:
    """Replay the admitted batches in admission order through an in-process
    service and compare its answers with the ones the server gave."""
    sys.path.insert(0, str(SRC))
    from repro.service import ServiceConfig, SignatureService, SketchTier

    by_key = {plan.batch_key(b): b for b in plan.batches}
    shutil.rmtree(replay_dir, ignore_errors=True)
    replay = SignatureService(ServiceConfig(**config["config"]), history_dir=replay_dir)
    # Healthy shards answer from the exact tier only, so the replay skips
    # the sketch tier: most of the apply cost, none of the compared answers.
    advance = SketchTier.advance
    SketchTier.advance = lambda self, bucket: None
    try:
        for _at, size, key in dump["stamps"]["offers"]:
            batch = by_key.get((key[0], key[1], float(key[2])))
            if batch is None or len(batch) != size:
                return [f"admitted batch {key} is not one the client sent"]
            replay.respond("POST", "/ingest", ingest_body(batch))
            replay.pump()
    finally:
        SketchTier.advance = advance
    problems = [body for path, _code, body in answers if path == "/status"]
    for path, code, body in answers:
        if path == "/status":
            continue
        r_code, _headers, r_body = replay.respond("GET", path)
        if code != r_code or json.loads(body) != json.loads(r_body):
            problems.append(f"{path}: server answered {code} {body[:200]}, replay {r_code} {r_body[:200]}")
    return problems[:20]


def check_signatures(config: Dict, plan: Plan, dump: Dict, answers: List[list]) -> List[str]:
    """``/signature`` answers against Top Talkers computed from the raw
    records of the live window (the last ``window_buckets`` full windows,
    in admission order), independently of the program."""
    window = config["config"]["window_records"]
    by_key = {plan.batch_key(b): b for b in plan.batches}
    admitted = [row for _at, _size, key in dump["stamps"]["offers"]
                for row in by_key[(key[0], key[1], float(key[2]))]]
    applied = len(admitted) // window * window
    live = admitted[max(0, applied - config["config"]["window_buckets"] * window):applied]
    adjacency = checks.window_adjacency((0.0, s, d, w) for _t, s, d, w in live)[0]
    problems = []
    for path, code, body in answers:
        if not path.startswith("/signature/") or code != 200:
            continue
        answer = json.loads(body)
        reference = checks.tt_reference(adjacency, answer["node"])
        why = checks.compare_top_k(list(answer["signature"].items()), reference,
                                   config["config"]["k"])
        if why:
            problems.append(f"{path}: {why}")
    return problems[:20]


def rows_archived(history_dir: Path) -> int:
    """Signature rows in the shards' history manifests."""
    rows = 0
    for manifest in history_dir.glob("shard-*/manifest.jsonl"):
        for line in manifest.read_text().splitlines():
            if line.strip():
                rows += int(json.loads(line)["rows"])
    return rows


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def phase_bounds(records: List[list]) -> Dict[str, Tuple[float, float]]:
    return {r[1]: (r[2], r[3]) for r in records if r[0] == "mark"}


def traced_slots(dump: Dict, end: float) -> List[Tuple[float, float]]:
    """The intervals during which the server's span shims were on."""
    slots, opened = [], None
    for at, on in dump.get("toggles", []):
        if on and opened is None:
            opened = at
        elif not on and opened is not None:
            slots.append((opened, at))
            opened = None
    if opened is not None:
        slots.append((opened, end))
    return slots


def inside(t: float, slots: List[Tuple[float, float]]) -> bool:
    return any(lo <= t < hi for lo, hi in slots)


def episode_figures(plan: Plan, records: List[list], dump: Dict) -> Dict:
    """One episode's untraced open-loop timings, keyed so that the same
    request (by its plan label) or window (by its number) matches across
    episodes."""
    open_start, open_end = phase_bounds(records)["open"]
    slots = traced_slots(dump, open_end)

    def measured_at(t: float) -> bool:
        return open_start <= t < open_end and not inside(t, slots)

    measured = [r for r in records if r[0] == "open" and measured_at(r[2])]
    return {
        "requests": {r[1]: due_latency(r[2], r[4], not is_error(r[5])) for r in measured},
        "windows": visible_lags(plan, records, dump, measured_at),
        "lateness": [r[3] - r[2] for r in measured],
        "traced": bool(slots),
    }


def fastest(figures: List[Dict], steals: List[Optional[float]]) -> Dict:
    """Per key present in every episode: its least value, less the steal
    share of the episode it came from.  The episode is chosen by what was
    measured, so the correction never decides which one counts."""
    keys = set(figures[0]).intersection(*figures[1:])
    out = {}
    for key in keys:
        value, steal = min(((f[key], s) for f, s in zip(figures, steals)), key=lambda pair: pair[0])
        out[key] = unstolen(value, steal)
    return out


def summarize(config: Dict, plan: Plan, episodes: List[Tuple[List[list], Dict, Optional[float]]],
              setups: List[float]) -> Dict:
    """End-to-end figures: each request, window lag and window apply time
    at its fastest over the episodes (see the module doc)."""
    cap = config["timeout_s"]
    figures = [episode_figures(plan, records, dump) for records, dump, _steal in episodes]
    steals = [steal for _records, _dump, steal in episodes]
    requests = fastest([f["requests"] for f in figures], steals)
    windows = [f["windows"] for f in figures]
    lag = list(fastest([{w: v[0] for w, v in f.items()} for f in windows], steals).values())
    busy = fastest([{w: v[2] for w, v in f.items()} for f in windows], steals)

    def latencies(kinds) -> List[float]:
        return [v for label, v in requests.items() if label.split("#")[0] in kinds]

    # A traced run measures its untraced half.
    share = 0.5 if figures[0]["traced"] else 1.0
    tails = {k: tail_percentile(plan.expected[k] * share)
             for k in ("similar", "ingest", "visible_lag")}
    tails["query"] = tail_percentile(sum(plan.expected[k] for k in QUERY_KINDS) * share)
    similar = latencies(("similar",))
    query = latencies(QUERY_KINDS)
    ingest = latencies(("ingest",))
    lateness = [late for f in figures for late in f["lateness"]]
    detail = {
        "setup_s": median(setups),
        "setup_runs_s": setups,
        "peak_rss_mb": median([dump["rss_mb"] for _records, dump, _steal in episodes]),
        # Apply speed: records over the seconds the shards spent applying them.
        "records_per_s": sum(windows[0][w][1] for w in busy) / sum(busy.values()),
        "visible_lag_p50_ms": 1000.0 * median(lag),
        "visible_lag_tail_ms": 1000.0 * percentile(lag, tails["visible_lag"]),
        "similar_p50_ms": finite_ms(median(similar), cap),
        "similar_tail_ms": finite_ms(percentile(similar, tails["similar"]), cap),
        "query_p50_ms": finite_ms(median(query), cap),
        "query_tail_ms": finite_ms(percentile(query, tails["query"]), cap),
        "ingest_p50_ms": finite_ms(median(ingest), cap),
        "ingest_tail_ms": finite_ms(percentile(ingest, tails["ingest"]), cap),
        "lateness_tail_ms": 1000.0 * percentile(lateness, tail_percentile(len(lateness))),
        "tail_percentiles": tails,
        "episode_steal_shares": steals,
        "samples": {"similar": len(similar), "query": len(query), "ingest": len(ingest),
                    "visible_lag": len(lag)},
    }
    attempted = [r for records, _dump, _steal in episodes for r in records if r[0] != "mark"]
    detail["ok_share"] = 1.0 - sum(1 for r in attempted if is_error(r[5])) / len(attempted)
    statuses: Dict[str, int] = {}
    for r in attempted:
        statuses[str(r[5])] = statuses.get(str(r[5]), 0) + 1
    detail["statuses"] = statuses
    return detail


def window_fillers(offers: List[list], window: int) -> List[list]:
    """For each window, in order, the admitted batch that completed it."""
    cumulative, fillers = 0, []
    for offer in offers:
        before, cumulative = cumulative, cumulative + offer[1]
        fillers.extend([offer] * (cumulative // window - before // window))
    return fillers


def visible_lags(plan: Plan, records: List[list], dump: Dict, measured_at) -> Dict[int, tuple]:
    """Per window, by number, whose filling ingest was acknowledged at a
    measured time: ``(lag, records, apply seconds)``, the lag running from
    that 202 until every shard had applied the window."""
    window = plan.config["config"]["window_records"]
    acked = {}
    for r in records:
        if r[1].startswith("ingest#") and r[5] == 202:
            acked[int(r[1].split("#")[1])] = r[4]
    key_to_id = {plan.batch_key(b): i for i, b in enumerate(plan.batches)}
    fillers = window_fillers(dump["stamps"]["offers"], window)
    out = {}
    for number, ((_at, _size, key), (began, finished, size)) in enumerate(
            zip(fillers, dump["stamps"]["windows"])):
        acked_at = acked.get(key_to_id.get((key[0], key[1], float(key[2]))))
        if acked_at is not None and measured_at(acked_at):
            out[number] = (finished - acked_at, size, finished - began)
    if not out:
        raise BenchError("no window was filled during the measured phase")
    return out


def per_layer(plan: Plan, records: List[list], dump: Dict, detail: Dict, metrics_text: str) -> Dict:
    """Layer totals over the traced slots of the open phase."""
    figures = layer_figures(dump)
    open_start, open_end = phase_bounds(records)["open"]
    slots = traced_slots(dump, open_end)
    traced_s = sum(hi - lo for lo, hi in slots)
    traced = [r for r in records if r[0] == "open" and inside(r[2], slots)]

    responds: Dict[str, List[float]] = {}
    by_id = {}
    for request_id, endpoint, seconds in dump["responds"]:
        responds.setdefault(endpoint, []).append(seconds)
        by_id[request_id] = seconds
    http_overhead = [(r[4] - r[3]) - by_id[r[6]] for r in traced if r[6] in by_id]
    requests = sum(len(v) for v in responds.values())
    similar = {"traced": [], "even": [], "odd": []}
    for r in records:
        if r[0] == "open" and r[1].split("#")[0] == "similar":
            # Untraced slots alternate between two groups, to show the noise.
            side = ("traced" if inside(r[2], slots)
                    else ("even", "odd")[int((r[2] - open_start) / TRACE_SLOT_S) // 2 % 2])
            similar[side].append(due_latency(r[2], r[4], not is_error(r[5])))

    stamps = dump["stamps"]
    waits = queue_waits(plan, stamps, slots)
    statuses = detail["statuses"]
    detail["top_self_layer"] = top_self_layer([tuple(s) for s in dump["spans"]])[0]
    # Tracing overhead: /similar p50 in traced slots over untraced ones.  An
    # overhead smaller than the gap between the two untraced groups is not
    # resolved by this run.
    untraced_p50 = median(similar["even"] + similar["odd"])
    overhead = median(similar["traced"]) / untraced_p50 - 1.0
    detail["overhead_noise_share"] = abs(median(similar["even"]) / median(similar["odd"]) - 1.0)
    detail["overhead_resolved"] = overhead > detail["overhead_noise_share"]
    return {
        **figures,
        "shard.dirty_share": dirty_share(metrics_text),
        "service.pump_busy_share": figures["service.pump_s"] / traced_s,
        "service.queue_wait_s": median(waits) if waits else 0.0,
        "service.queue_depth_max": stamps["depth_max"],
        **{f"frontend.respond_{ep}_s": median(responds[ep]) if responds.get(ep) else 0.0
           for ep in ("similar", "signature", "anomaly", "history", "ingest")},
        "http.overhead_s": median(http_overhead) if http_overhead else 0.0,
        "obs.request_s": figures["obs.request_s"] / requests if requests else 0.0,
        "client.lateness_tail_ms": detail["lateness_tail_ms"],
        "client.status_200": statuses.get("200", 0),
        "client.status_202": statuses.get("202", 0),
        "client.status_404": statuses.get("404", 0),
        "client.status_429": statuses.get("429", 0),
        "client.status_5xx": sum(v for k, v in statuses.items() if k.isdigit() and int(k) >= 500),
        "client.status_error": statuses.get("error", 0),
        "trace.overhead_share": overhead,
        "trace.span_cost_share": len(dump["spans"]) * dump["span_cost_s"] / traced_s,
    }


def queue_waits(plan: Plan, stamps: Dict, slots: List[Tuple[float, float]]) -> List[float]:
    """Per window filled inside ``slots``: from admission of the batch that
    filled it to the pump taking it from the queue."""
    fillers = window_fillers(stamps["offers"], plan.config["config"]["window_records"])
    return [taken - filler[0] for filler, taken in zip(fillers, stamps["takes"])
            if inside(filler[0], slots)]


def dirty_share(metrics_text: str) -> float:
    """Dirty nodes over population, from the incremental engine's counters."""
    dirty = reused = 0.0
    for line in metrics_text.splitlines():
        if line.startswith("#") or not line.strip():
            continue
        name, _, value = line.rpartition(" ")
        if "incremental_dirty_nodes" in name:
            dirty += float(value)
        elif "incremental_reused_signatures" in name:
            reused += float(value)
    return dirty / (dirty + reused) if dirty + reused else 0.0
