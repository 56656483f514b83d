"""Command-line interface: regenerate any paper table or figure, or run the
fault-tolerant signature pipeline.

Examples::

    commgraph-signatures list
    commgraph-signatures fig3 --dataset network
    commgraph-signatures fig6 --scale small
    commgraph-signatures all --scale paper
    commgraph-signatures pipeline run --input trace.csv --checkpoint-dir ckpt \\
        --errors quarantine --error-budget 0.05
    commgraph-signatures pipeline resume --input trace.csv --checkpoint-dir ckpt
    commgraph-signatures serve --port 8080 --shards 4 --input trace.csv
    commgraph-signatures history query --history-dir hist --node host-0001
    commgraph-signatures history trajectory --history-dir hist --node host-0001
    commgraph-signatures history compact --history-dir hist
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Callable, Dict

from repro import obs
from repro.experiments import (
    ExperimentConfig,
    derive_table4,
    format_fig1,
    format_fig2,
    format_fig3,
    format_fig4,
    format_fig5,
    format_fig6,
    format_lsh_quality,
    format_streaming_fidelity,
    format_table4,
    run_fig1,
    run_fig2,
    run_fig3,
    run_fig4,
    run_fig5,
    run_fig6,
    run_lsh_quality,
    run_streaming_fidelity,
)


def _cmd_fig1(config: ExperimentConfig, args: argparse.Namespace) -> str:
    return format_fig1(run_fig1(args.dataset, config), args.dataset)


def _cmd_fig2(config: ExperimentConfig, args: argparse.Namespace) -> str:
    return format_fig2(run_fig2(args.distance, config))


def _cmd_fig3(config: ExperimentConfig, args: argparse.Namespace) -> str:
    return format_fig3(run_fig3(args.dataset, config))


def _cmd_fig4(config: ExperimentConfig, args: argparse.Namespace) -> str:
    return format_fig4(run_fig4(config=config))


def _cmd_fig5(config: ExperimentConfig, args: argparse.Namespace) -> str:
    return format_fig5(run_fig5(config=config))


def _cmd_fig6(config: ExperimentConfig, args: argparse.Namespace) -> str:
    return format_fig6(run_fig6(config=config))


def _cmd_table4(config: ExperimentConfig, args: argparse.Namespace) -> str:
    return format_table4(derive_table4(config=config))


def _cmd_streaming(config: ExperimentConfig, args: argparse.Namespace) -> str:
    return format_streaming_fidelity(run_streaming_fidelity(config=config))


def _cmd_lsh(config: ExperimentConfig, args: argparse.Namespace) -> str:
    return format_lsh_quality(run_lsh_quality(config=config))


def _cmd_selection(config: ExperimentConfig, args: argparse.Namespace) -> str:
    from repro.apps.requirements import APPLICATION_REQUIREMENTS
    from repro.core.distances import get_distance
    from repro.core.selection import select_scheme
    from repro.experiments.config import (
        NETWORK_K,
        application_schemes,
        get_enterprise_dataset,
    )
    from repro.experiments.report import format_table

    data = get_enterprise_dataset(config.scale)
    candidates = application_schemes(NETWORK_K, config.reset_probability)
    blocks = []
    for application in APPLICATION_REQUIREMENTS:
        ranking = select_scheme(
            application,
            candidates,
            data.graphs[0],
            data.graphs[1],
            get_distance("shel"),
            data.local_hosts,
        )
        rows = [
            [
                profile.scheme_label,
                profile.persistence,
                profile.uniqueness,
                profile.robustness,
                ranking.scores[profile.scheme_label],
            ]
            for profile in ranking.profiles
        ]
        blocks.append(
            format_table(
                ["scheme", "persistence", "uniqueness", "robustness", "score"],
                rows,
                title=f"Scheme selection for {application} -> {ranking.best}",
            )
        )
    return "\n\n".join(blocks)


def _cmd_deanonymize(config: ExperimentConfig, args: argparse.Namespace) -> str:
    from repro.apps.deanonymize import Deanonymizer, anonymize_graph
    from repro.core.distances import get_distance
    from repro.experiments.config import (
        NETWORK_K,
        application_schemes,
        get_enterprise_dataset,
    )
    from repro.experiments.report import format_table

    data = get_enterprise_dataset(config.scale)
    release = anonymize_graph(data.graphs[1], data.local_hosts, seed=17)
    shel = get_distance("shel")
    rows = []
    for label, scheme in application_schemes(NETWORK_K, config.reset_probability).items():
        result = Deanonymizer(scheme, shel).attack(data.graphs[0], release)
        rows.append([label, result.accuracy, result.mean_matched_distance])
    return format_table(
        ["scheme", "re-identification accuracy", "mean matched distance"],
        rows,
        title="De-anonymization attack (extension X3)",
    )


_COMMANDS: Dict[str, Callable[[ExperimentConfig, argparse.Namespace], str]] = {
    "fig1": _cmd_fig1,
    "fig2": _cmd_fig2,
    "fig3": _cmd_fig3,
    "fig4": _cmd_fig4,
    "fig5": _cmd_fig5,
    "fig6": _cmd_fig6,
    "table4": _cmd_table4,
    "streaming": _cmd_streaming,
    "lsh": _cmd_lsh,
    "selection": _cmd_selection,
    "deanonymize": _cmd_deanonymize,
}


def _cmd_pipeline(args: argparse.Namespace) -> str:
    """``pipeline run`` / ``pipeline resume``: the fault-tolerant pipeline."""
    from repro.pipeline import (
        CheckpointStore,
        CsvRecordSource,
        PipelineConfig,
        RetryPolicy,
        SignaturePipeline,
    )

    source = CsvRecordSource(
        args.input, errors=args.errors, quarantine_path=args.quarantine
    )
    store = CheckpointStore(args.checkpoint_dir)
    config = PipelineConfig(
        scheme=args.scheme,
        k=args.k,
        num_windows=args.num_windows,
        window_length=args.window_length,
        bipartite=args.bipartite,
        strategy=args.strategy,
        jobs=args.jobs if args.strategy == "shm" else 0,
        sketch_budget_bytes=args.sketch_budget,
        error_budget=args.error_budget,
        max_memory_cells=args.memory_budget,
        window_deadline=args.window_deadline,
        history_dir=args.history_dir,
        # --obs-serve / --obs-sample attach to the pipeline's own live
        # registry, so scrapes during the run see windows as they complete
        # (the CLI-level registry only receives the merged result at the
        # end); the CLI serves the merged registry during --obs-serve-linger.
        obs_port=args.obs_serve,
        sample_interval=args.obs_sample,
    )
    pipeline = SignaturePipeline(
        source, store, config, retry=RetryPolicy(max_attempts=args.max_attempts)
    )
    result = pipeline.run(resume=args.action == "resume")
    return result.report.summary()


def _cmd_history(args: argparse.Namespace) -> str:
    """``history query|trajectory|compact``: time-travel over a history store."""
    from repro.experiments.report import format_table
    from repro.store import HistoryStore

    store = HistoryStore(args.history_dir)
    if args.action == "compact":
        before = sum(record.nbytes for record in store.segment_records())
        removed = store.compact()
        after = sum(record.nbytes for record in store.segment_records())
        return (
            f"compacted {args.history_dir}: removed {len(removed)} dead "
            f"segment(s), {before} -> {after} bytes, "
            f"{len(store.windows())} live window(s)"
        )
    if not args.node:
        raise SystemExit("history query/trajectory requires --node")
    if args.action == "trajectory":
        points = store.trajectory(args.node, args.from_window, args.to_window)
        if not points:
            return f"no stored windows for node {args.node!r}"
        rows = [
            [window, len(signature), ", ".join(
                f"{dst}:{weight:.3g}" for dst, weight in signature.entries[:5]
            )]
            for window, signature in points
        ]
        return format_table(
            ["window", "entries", "top entries"],
            rows,
            title=f"Trajectory of {args.node}",
        )
    # query: who looked like the node in that window
    window = args.window if args.window is not None else store.max_window()
    if window < 0:
        return f"history store {args.history_dir} is empty"
    signature = store.signature(args.node, window)
    if signature is None:
        return f"no stored signature for node {args.node!r} in window {window}"
    matches = store.query(
        signature, window, k=args.history_k + 1, exhaustive=args.exhaustive
    )
    rows = [
        [match.owner, match.window, match.distance]
        for match in matches
        if match.owner != args.node
    ][: args.history_k]
    if not rows:
        return f"no lookalikes for {args.node!r} in window {window}"
    return format_table(
        ["node", "window", "distance"],
        rows,
        title=f"Lookalikes of {args.node} in window {window}",
    )


def _cmd_serve(args: argparse.Namespace) -> None:
    """``serve``: run the resilient sharded signature service."""
    from repro.pipeline import CsvRecordSource
    from repro.service import ServiceConfig, ServiceServer, SignatureService

    config = ServiceConfig(
        scheme=args.scheme,
        k=args.k,
        num_shards=args.shards,
        window_records=args.window_records,
        queue_capacity=args.queue_capacity,
        max_restarts=args.serve_max_restarts,
        distance=args.serve_distance,
        strategy=args.strategy,
        jobs=args.jobs if args.strategy == "shm" else 0,
        sketch_budget_bytes=args.sketch_budget,
        slo_similar_p99_s=args.slo_similar_p99 or None,
        slo_availability=args.slo_availability or None,
        trace_store_size=args.trace_store_size,
    )
    service = SignatureService(
        config, checkpoint_dir=args.checkpoint_dir, history_dir=args.history_dir
    )
    if args.input:
        # Pre-load a trace: admit it window by window so a file larger than
        # the queue replays fully instead of tripping backpressure.
        source = CsvRecordSource(args.input, errors="skip")
        batch = []
        for record in source.read():
            batch.append(record)
            if len(batch) >= config.window_records:
                service.ingest(batch)
                service.pump()
                batch = []
        if batch:
            service.ingest(batch)
            service.pump(force=True)
        print(
            f"replayed {args.input}: {service.supervisor.window + 1} windows closed"
        )
    with ServiceServer(service, host=args.host, port=args.port) as server:
        print(f"signature service listening on {server.url}")
        print(
            "endpoints: /status /metrics /slo /trace/<id> /signature/<node> "
            "/similar/<node>?k=N /anomaly/<node> /history/<node>?window=N "
            "/trajectory/<node>?from=A&to=B (POST /ingest)"
        )
        try:
            if args.serve_for is not None:
                time.sleep(args.serve_for)
            else:  # pragma: no cover - interactive path
                while True:
                    time.sleep(3600.0)
        except KeyboardInterrupt:  # pragma: no cover - interactive path
            pass


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="commgraph-signatures",
        description="Regenerate tables/figures of 'On Signatures for Communication Graphs'.",
    )
    parser.add_argument(
        "command",
        choices=sorted(_COMMANDS) + ["all", "list", "pipeline", "serve", "history"],
        help="which experiment to run ('all' runs everything, 'list' shows "
        "options, 'pipeline' runs the fault-tolerant signature pipeline, "
        "'serve' starts the resilient sharded signature service, 'history' "
        "queries or compacts an append-only signature history store)",
    )
    parser.add_argument(
        "action",
        nargs="?",
        choices=("run", "resume", "query", "trajectory", "compact"),
        default="run",
        help="pipeline action: 'run' starts fresh, 'resume' replays "
        "checkpoints; history action: 'query' finds lookalikes of --node, "
        "'trajectory' prints --node over windows, 'compact' folds segments",
    )
    parser.add_argument(
        "--scale",
        choices=("paper", "small"),
        default="paper",
        help="dataset scale: 'paper' mirrors the paper's populations, 'small' is fast",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the experiment grid: 1 = serial (default), "
        "N > 1 = up to N processes, 0 = one per CPU; results are "
        "deterministic regardless of the setting",
    )
    parser.add_argument(
        "--strategy",
        choices=("serial", "shm", "sketch"),
        default="serial",
        help="batch-recompute engine: 'serial' computes in-process (default), "
        "'shm' fans signature batches out over a zero-copy shared-memory "
        "worker pool sized by --jobs (0 = one worker per CPU; outputs "
        "byte-identical to serial), 'sketch' answers from the "
        "memory-budgeted sketch tier (--sketch-budget bytes of state; "
        "hot sources exact, tail sketched — accuracy contract)",
    )
    parser.add_argument(
        "--sketch-budget",
        type=int,
        default=2097152,
        metavar="BYTES",
        help="byte budget of the sketch tier under --strategy sketch "
        "(default: 2097152 = 2 MiB)",
    )
    parser.add_argument(
        "--dataset",
        choices=("network", "querylog"),
        default="network",
        help="dataset for fig1/fig3",
    )
    parser.add_argument(
        "--distance",
        choices=("jaccard", "dice", "sdice", "shel"),
        default="shel",
        help="distance function for fig2",
    )
    obs_group = parser.add_argument_group("observability options")
    obs_group.add_argument(
        "--obs-out",
        default=None,
        metavar="PATH",
        help="collect metrics/spans during the run and write the JSON "
        "payload (schema repro.obs/v1) to PATH",
    )
    obs_group.add_argument(
        "--obs-prom",
        default=None,
        metavar="PATH",
        help="also write the metrics in Prometheus text exposition format",
    )
    obs_group.add_argument(
        "--obs-profile",
        action="store_true",
        help="enable per-span cProfile capture (spans opting in via "
        "profile=True) and print the top-N hotspot tables",
    )
    obs_group.add_argument(
        "--obs-serve",
        type=int,
        default=None,
        metavar="PORT",
        help="serve live metrics over HTTP during the run (/metrics "
        "Prometheus text, /healthz, /snapshot.json, /series.json); "
        "0 binds an ephemeral port",
    )
    obs_group.add_argument(
        "--obs-serve-linger",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="keep the --obs-serve endpoint up this long after the run "
        "finishes, so scrapers can take a final pull (default: 0)",
    )
    obs_group.add_argument(
        "--obs-log",
        default=None,
        metavar="PATH",
        help="append structured JSON-lines events (levels, run-id, span "
        "correlation; pipeline retry/quarantine/degradation warnings) to PATH",
    )
    obs_group.add_argument(
        "--obs-sample",
        type=float,
        default=None,
        metavar="SECONDS",
        help="sample counters/gauges/digest quantiles into bounded "
        "time series at this period (served at /series.json with --obs-serve)",
    )
    pipeline_group = parser.add_argument_group("pipeline options")
    pipeline_group.add_argument("--input", help="edge-record CSV trace to ingest")
    pipeline_group.add_argument(
        "--checkpoint-dir", help="directory for per-window checkpoints"
    )
    pipeline_group.add_argument(
        "--history-dir",
        default=None,
        help="append-only columnar signature history store: the pipeline "
        "archives every window there, 'serve' persists/restores shard "
        "state under it, and the 'history' command queries it",
    )
    pipeline_group.add_argument(
        "--scheme", default="tt", help="signature scheme name (default: tt)"
    )
    pipeline_group.add_argument(
        "--k", type=int, default=10, help="signature length (default: 10)"
    )
    pipeline_group.add_argument(
        "--num-windows", type=int, default=None, help="equal-width window count"
    )
    pipeline_group.add_argument(
        "--window-length", type=float, default=None, help="fixed window duration"
    )
    pipeline_group.add_argument(
        "--bipartite", action="store_true", help="build bipartite windows"
    )
    pipeline_group.add_argument(
        "--errors",
        choices=("strict", "skip", "quarantine"),
        default="strict",
        help="per-record error policy (default: strict)",
    )
    pipeline_group.add_argument(
        "--quarantine", default=None, help="CSV path for quarantined rows"
    )
    pipeline_group.add_argument(
        "--error-budget",
        type=float,
        default=None,
        help="max rejected rows: fraction if < 1, absolute count otherwise",
    )
    pipeline_group.add_argument(
        "--memory-budget",
        type=int,
        default=None,
        help="max graph cells per window before degrading to sketches",
    )
    pipeline_group.add_argument(
        "--window-deadline",
        type=float,
        default=None,
        help="seconds per window before degrading to sketches",
    )
    pipeline_group.add_argument(
        "--max-attempts",
        type=int,
        default=4,
        help="retry attempts for transient IO failures (default: 4)",
    )
    service_group = parser.add_argument_group("service options (serve)")
    service_group.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)"
    )
    service_group.add_argument(
        "--port",
        type=int,
        default=8080,
        help="TCP port; 0 binds an ephemeral one (default: 8080)",
    )
    service_group.add_argument(
        "--shards", type=int, default=4, help="shard engines (default: 4)"
    )
    service_group.add_argument(
        "--window-records",
        type=int,
        default=256,
        help="accepted records per global window (default: 256)",
    )
    service_group.add_argument(
        "--queue-capacity",
        type=int,
        default=4096,
        help="ingest queue bound in records; beyond it POST /ingest "
        "answers 429 (default: 4096)",
    )
    service_group.add_argument(
        "--serve-max-restarts",
        type=int,
        default=2,
        help="shard rebuild attempts per crash before DEGRADED (default: 2)",
    )
    service_group.add_argument(
        "--serve-distance",
        choices=("jaccard", "dice", "sdice", "shel"),
        default="sdice",
        help="distance for /similar and /anomaly (default: sdice)",
    )
    service_group.add_argument(
        "--serve-for",
        type=float,
        default=None,
        metavar="SECONDS",
        help="exit after this long (smoke tests / CI); default: serve forever",
    )
    service_group.add_argument(
        "--slo-similar-p99",
        type=float,
        default=0.25,
        metavar="SECONDS",
        help="latency objective: /similar p99 must stay below this "
        "(default: 0.25; 0 disables the objective)",
    )
    service_group.add_argument(
        "--slo-availability",
        type=float,
        default=0.999,
        metavar="FRACTION",
        help="availability objective across all endpoints "
        "(default: 0.999; 0 disables the objective)",
    )
    service_group.add_argument(
        "--trace-store-size",
        type=int,
        default=256,
        help="finished traces kept in memory for GET /trace/<id> "
        "(default: 256)",
    )
    history_group = parser.add_argument_group("history options (history)")
    history_group.add_argument(
        "--node", default=None, help="node id for history query/trajectory"
    )
    history_group.add_argument(
        "--window",
        type=int,
        default=None,
        help="window for history query (default: the latest stored window)",
    )
    history_group.add_argument(
        "--from",
        dest="from_window",
        type=int,
        default=None,
        metavar="WINDOW",
        help="first window of a trajectory (default: the beginning)",
    )
    history_group.add_argument(
        "--to",
        dest="to_window",
        type=int,
        default=None,
        metavar="WINDOW",
        help="trajectory stops before this window (default: the end)",
    )
    history_group.add_argument(
        "--top",
        dest="history_k",
        type=int,
        default=5,
        metavar="K",
        help="lookalikes to report for history query (default: 5)",
    )
    history_group.add_argument(
        "--exhaustive",
        action="store_true",
        help="history query decodes every stored row instead of only the "
        "LSH candidate set",
    )
    return parser


def _run_with_observability(args: argparse.Namespace, body: Callable[[], None]) -> None:
    """Run ``body`` under a collecting registry when any --obs flag is set,
    then write the requested exports.

    ``--obs-serve`` additionally exposes the registry over HTTP for the
    duration of the run (plus ``--obs-serve-linger`` seconds afterwards,
    so pull-based scrapers can take a final sample before the process
    exits).  For the ``pipeline`` command the in-run server is started by
    the pipeline itself on its live registry (see ``PipelineConfig``); the
    CLI then serves the merged end state during the linger window.
    """
    wants_obs = bool(
        args.obs_out
        or args.obs_prom
        or args.obs_profile
        or args.obs_log
        or args.obs_serve is not None
        or args.obs_sample is not None
    )
    if not wants_obs:
        body()
        return
    registry = obs.MetricsRegistry(profile=args.obs_profile)
    store = obs.TimeSeriesStore()
    event_log = obs.EventLog(args.obs_log) if args.obs_log else obs.NULL_EVENT_LOG
    meta = {"command": args.command, "scale": args.scale, "jobs": args.jobs}
    # The pipeline command serves its own live registry mid-run; starting a
    # second CLI-level server on the same port would collide.
    serve_during_body = args.obs_serve is not None and args.command != "pipeline"
    server = sampler = None
    try:
        with obs.use_event_log(event_log), obs.use_registry(registry):
            if serve_during_body:
                server = obs.ObsServer(
                    registry, store=store, port=args.obs_serve, meta=meta
                ).start()
                print(f"obs server listening on {server.url}")
            if args.obs_sample is not None and args.command != "pipeline":
                sampler = obs.Sampler(
                    registry, store=store, interval=args.obs_sample
                ).start()
            obs.emit(
                "cli.run.start",
                command=args.command,
                scale=args.scale,
                jobs=args.jobs,
            )
            try:
                with obs.span(f"cli.{args.command}", profile=args.obs_profile):
                    body()
            finally:
                if sampler is not None:
                    sampler.stop()
                    sampler = None
                obs.emit("cli.run.finish", command=args.command)
            if args.obs_serve is not None and args.obs_serve_linger > 0:
                if server is None:
                    server = obs.ObsServer(
                        registry, store=store, port=args.obs_serve, meta=meta
                    ).start()
                    print(f"obs server listening on {server.url} (linger)")
                time.sleep(args.obs_serve_linger)
    finally:
        if server is not None:
            server.stop()
        event_log.close()
    snapshot = registry.snapshot()
    if args.obs_out:
        payload = obs.write_json(args.obs_out, snapshot, meta=meta)
        print(f"observability payload written to {args.obs_out}")
    else:
        payload = obs.build_payload(snapshot, meta=meta)
    if args.obs_prom:
        obs.write_prometheus(args.obs_prom, snapshot)
        print(f"prometheus metrics written to {args.obs_prom}")
    if args.obs_log:
        print(f"event log appended to {args.obs_log} (run_id={event_log.run_id})")
    if args.obs_profile:
        print(obs.format_profile_report(payload))


def main(argv=None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.jobs < 0:
        parser.error(
            f"--jobs must be >= 0 (0 means one worker per CPU); got {args.jobs}"
        )
    if args.sketch_budget < 1:
        parser.error(f"--sketch-budget must be >= 1 byte; got {args.sketch_budget}")
    if args.obs_serve is not None and not 0 <= args.obs_serve <= 65535:
        parser.error(
            f"--obs-serve must be a TCP port (0..65535); got {args.obs_serve}"
        )
    if args.obs_serve_linger < 0:
        parser.error(
            f"--obs-serve-linger must be >= 0; got {args.obs_serve_linger}"
        )
    if args.obs_sample is not None and args.obs_sample <= 0:
        parser.error(f"--obs-sample must be positive; got {args.obs_sample}")
    if args.command == "list":
        print("available experiments:", ", ".join(sorted(_COMMANDS)))
        print("pipeline commands: pipeline run, pipeline resume")
        print("service command: serve")
        print("history commands: history query, history trajectory, history compact")
        return 0
    if args.command == "pipeline":
        if not args.input or not args.checkpoint_dir:
            parser.error("pipeline requires --input and --checkpoint-dir")
        if args.action not in ("run", "resume"):
            parser.error(f"pipeline action must be run or resume, got {args.action!r}")
        _run_with_observability(args, lambda: print(_cmd_pipeline(args)))
        return 0
    if args.command == "history":
        if args.action not in ("query", "trajectory", "compact"):
            parser.error(
                "history action must be query, trajectory or compact, "
                f"got {args.action!r}"
            )
        if not args.history_dir:
            parser.error("history requires --history-dir")
        if args.history_k < 1:
            parser.error(f"--top must be >= 1; got {args.history_k}")
        print(_cmd_history(args))
        return 0
    if args.command == "serve":
        if not 0 <= args.port <= 65535:
            parser.error(f"--port must be a TCP port (0..65535); got {args.port}")
        if args.serve_for is not None and args.serve_for < 0:
            parser.error(f"--serve-for must be >= 0; got {args.serve_for}")
        _run_with_observability(args, lambda: _cmd_serve(args))
        return 0
    config = ExperimentConfig(
        scale=args.scale,
        jobs=args.jobs,
        strategy=args.strategy,
        sketch_budget_bytes=args.sketch_budget,
    )
    commands = sorted(_COMMANDS) if args.command == "all" else [args.command]

    def run_commands() -> None:
        for name in commands:
            print(_COMMANDS[name](config, args))
            print()

    _run_with_observability(args, run_commands)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
