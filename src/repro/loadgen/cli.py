"""``python -m repro.loadgen`` — generate, replay, and report on traffic.

The operator front door for the traffic-replay harness.  The default run
generates a seeded trace from the named suites, replays it against a local
cluster (``--shards N``, or TCP shards via ``--connect``), prints the SLO
report, and appends it to the per-commit ``benchmarks/BENCH_<sha>.json``
artifact.

Examples::

    # the acceptance run: a mixed-suite trace across 2 local shards
    python -m repro.loadgen --suite mixed --shards 2 --seed 7

    # save a trace, replay the exact same bytes later (or elsewhere)
    python -m repro.loadgen --suite fhe_pipeline --save-trace t.json --dry-run
    python -m repro.loadgen --replay t.json --shards 2

    # replay against remote TCP shards with a merged Chrome trace
    python -m repro.loadgen --connect 127.0.0.1:7401,127.0.0.1:7402 \\
        --trace replay-trace.json

    # chaos: kill shard 0 mid-replay and report the recovery window
    python -m repro.loadgen --shards 2 --kill-shard 0 --kill-at 0.5

Trace files and the Chrome trace are different artifacts: ``--save-trace``/
``--replay`` move the *request schedule* (byte-identical per seed), while
``--trace`` exports the replay's distributed-tracing spans for Perfetto and
``tools/trace_summary.py``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.errors import ReproError
from repro.gpu.device import DEVICES
from repro.obs import Tracer, configure_logging, instant_event, write_chrome_trace
from repro.serve.cli import shard_layout
from repro.serve.server import KernelServer
from repro.serve.supervisor import ShardSupervisor
from repro.tenancy import DEFAULT_TENANT
from repro.tune.db import TuningDatabase
from repro.loadgen.replay import ReplayFault, replay
from repro.loadgen.report import (
    append_loadgen_report,
    bench_artifact_path,
    build_slo_report,
)
from repro.loadgen.suites import MIXED, SUITES
from repro.loadgen.trace import (
    ARRIVAL_CLOSED,
    ARRIVAL_OPEN,
    TraceConfig,
    generate_trace,
    load_trace,
    parse_tenants,
    save_trace,
)

__all__ = ["build_parser", "main"]

#: Default request count: enough for every suite in the mixed default to
#: appear and for warm serving to dominate, small enough for CI smoke runs.
DEFAULT_REQUESTS = 48


def build_parser() -> argparse.ArgumentParser:
    """The ``repro.loadgen`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.loadgen",
        description="Traffic replay harness: deterministic served-workload "
        "traces (FHE/ZKP/RNS/NTT/BLAS suites), replayed against a kernel "
        "server or shard cluster, with SLO reports appended to the "
        "per-commit BENCH artifact.",
    )
    generation = parser.add_argument_group("trace generation")
    generation.add_argument(
        "--suite",
        action="append",
        default=None,
        metavar="NAME",
        help=f"workload suite(s) to mix (repeatable; {MIXED!r} = all; "
        f"default {MIXED!r}); duplicates weight the mix",
    )
    generation.add_argument(
        "--list-suites", action="store_true", help="print the suite registry and exit"
    )
    generation.add_argument(
        "--seed", type=int, default=0, help="trace RNG seed (default 0)"
    )
    generation.add_argument(
        "--requests",
        type=int,
        default=DEFAULT_REQUESTS,
        metavar="N",
        help=f"requests in the generated trace (default {DEFAULT_REQUESTS})",
    )
    generation.add_argument(
        "--arrival",
        choices=(ARRIVAL_OPEN, ARRIVAL_CLOSED),
        default=ARRIVAL_OPEN,
        help="arrival model: open-loop fixed rate or closed-loop N clients "
        f"(default {ARRIVAL_OPEN})",
    )
    generation.add_argument(
        "--rate",
        type=float,
        default=40.0,
        metavar="RPS",
        help="open-loop injection rate in requests/second (default 40)",
    )
    generation.add_argument(
        "--clients",
        type=int,
        default=4,
        metavar="N",
        help="closed-loop client threads (default 4)",
    )
    generation.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        metavar="MS",
        help="per-request latency budget; late results are shed shard-side "
        "and counted as deadline misses (default: no deadline)",
    )
    generation.add_argument(
        "--tenants",
        metavar="SPEC",
        default=None,
        help="tenant mix for the generated trace: comma-separated "
        "name:weight[@deadline_ms][/suite+suite] entries, e.g. "
        "'a:0.7,b:0.3@250/fhe_pipeline+rns_conversion'; the replay report "
        "then breaks SLOs out per tenant (default: untenanted)",
    )
    generation.add_argument(
        "--save-trace",
        metavar="PATH",
        default=None,
        help="write the generated trace's canonical JSON to PATH",
    )
    generation.add_argument(
        "--replay",
        metavar="PATH",
        default=None,
        help="replay an existing trace file instead of generating one "
        "(generation flags are then ignored)",
    )
    generation.add_argument(
        "--dry-run",
        action="store_true",
        help="generate (and optionally --save-trace) without replaying",
    )
    cluster = parser.add_argument_group("serving tier")
    cluster.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="N",
        help="local shard processes; 1 replays against an in-process "
        "server (default: 1, or 0 with --connect)",
    )
    cluster.add_argument(
        "--connect",
        action="append",
        default=None,
        metavar="HOST:PORT[,HOST:PORT...]",
        help="remote TCP shards (python -m repro.serve --listen ...) to "
        "replay against; repeatable or comma-separated",
    )
    cluster.add_argument(
        "--db", metavar="PATH", default=None, help="persistent tuning database file"
    )
    cluster.add_argument(
        "--device",
        choices=sorted(DEVICES),
        default="rtx4090",
        help="device the trace's requests target (default rtx4090)",
    )
    cluster.add_argument(
        "--workers", type=int, default=4, help="worker threads per shard"
    )
    chaos = parser.add_argument_group("fault injection")
    chaos.add_argument(
        "--kill-shard",
        type=int,
        default=None,
        metavar="ID",
        help="kill this shard mid-replay (local: process terminated; "
        "remote: connections dropped) and report the recovery window",
    )
    chaos.add_argument(
        "--kill-at",
        type=float,
        default=0.5,
        metavar="FRACTION",
        help="fraction of the trace injected before --kill-shard fires "
        "(default 0.5)",
    )
    reporting = parser.add_argument_group("reporting")
    reporting.add_argument(
        "--bench",
        metavar="PATH",
        default=None,
        help="BENCH artifact file to append the SLO report to "
        "(default benchmarks/BENCH_<sha>.json)",
    )
    reporting.add_argument(
        "--no-bench",
        action="store_true",
        help="do not append the SLO report to the BENCH artifact",
    )
    reporting.add_argument(
        "--report",
        metavar="PATH",
        default=None,
        help="also write the SLO report JSON on its own to PATH",
    )
    reporting.add_argument(
        "--stats",
        action="store_true",
        help="print the cluster's own stats view after the replay",
    )
    reporting.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="trace every replayed request end-to-end and write the merged "
        "Chrome trace-event JSON (with replay/fault instant markers) to PATH",
    )
    parser.add_argument(
        "--log-level",
        choices=("debug", "info", "warning", "error"),
        default="warning",
        help="verbosity of the repro.* loggers on stderr (default warning)",
    )
    parser.add_argument(
        "--log-json",
        action="store_true",
        help="emit log records as JSON lines instead of text",
    )
    return parser


def _list_suites() -> int:
    for suite in SUITES.values():
        print(f"{suite.name:<16} {len(suite.specs)} specs — {suite.description}")
    print(f"{MIXED:<16} every suite above, equally weighted")
    return 0


def _resolve_trace(args: argparse.Namespace):
    if args.replay is not None:
        trace = load_trace(args.replay)
        print(
            f"trace       loaded {len(trace.events)} events from {args.replay} "
            f"(seed {trace.seed}, {trace.arrival}-loop)"
        )
        return trace
    config = TraceConfig(
        suites=tuple(args.suite) if args.suite else (MIXED,),
        seed=args.seed,
        requests=args.requests,
        arrival=args.arrival,
        rate_rps=args.rate,
        clients=args.clients,
        deadline_ms=args.deadline_ms,
        device=args.device,
        tenants=parse_tenants(args.tenants) if args.tenants else (),
    )
    trace = generate_trace(config)
    tenant_note = (
        f", tenants {', '.join(trace.tenants_used)}" if config.tenants else ""
    )
    print(
        f"trace       generated {len(trace.events)} events over "
        f"{len(trace.suites_used)} suites (seed {trace.seed}, "
        f"{trace.arrival}-loop{tenant_note})"
    )
    return trace


class _TracedSingleServer:
    """A :class:`KernelServer` submit wrapper that begins root spans.

    The supervisor begins each request's root span in its own ``submit``;
    a lone in-process server has no front door above ``submit``, so the
    replay CLI plays that role here — exactly like ``repro.serve``'s
    ``--once``/``--demo`` path.
    """

    def __init__(self, server: KernelServer) -> None:
        self._server = server

    def submit(
        self,
        request,
        deadline_ms: float | None = None,
        tenant: str = DEFAULT_TENANT,
    ):
        attributes = {"kind": request.kind, "bits": request.bits}
        if tenant != DEFAULT_TENANT:
            attributes["tenant"] = tenant
        handle = self._server.tracer.begin("client.request", **attributes)
        if handle is None:
            return self._server.submit(
                request, deadline_ms=deadline_ms, tenant=tenant
            )
        with handle.activate():
            future = self._server.submit(
                request, deadline_ms=deadline_ms, tenant=tenant
            )
        future.add_done_callback(lambda _done, _handle=handle: _handle.finish())
        return future


def _replay_instants(wall_started: float, result) -> list[dict]:
    """Instant markers pinning the replay timeline into the Chrome trace."""
    instants = [
        instant_event("replay.start", wall_started * 1e6, seed=result.trace.seed),
        instant_event(
            "replay.end",
            (wall_started + result.duration_s) * 1e6,
            requests=len(result.outcomes),
        ),
    ]
    if result.fault_at_s is not None:
        instants.append(
            instant_event(
                "fault.injected", (wall_started + result.fault_at_s) * 1e6
            )
        )
    return instants


def _emit_reports(args: argparse.Namespace, report) -> None:
    print(report.report())
    if args.report is not None:
        Path(args.report).write_text(json.dumps(report.to_payload(), indent=1))
        print(f"report      -> {args.report}")
    if not args.no_bench:
        target = (
            Path(args.bench) if args.bench is not None else bench_artifact_path()
        )
        append_loadgen_report(report, target)
        print(f"bench       SLO report appended -> {target}")


def _run_single(args: argparse.Namespace, trace, fault_requested: bool) -> int:
    if fault_requested:
        print(
            "error: --kill-shard needs a shard cluster (--shards >= 2 or "
            "--connect)",
            file=sys.stderr,
        )
        return 2
    tracer = Tracer(sample_rate=1.0) if args.trace else None
    with KernelServer(
        db=TuningDatabase(args.db),
        devices=(args.device,),
        workers=args.workers,
        tracer=tracer,
    ) as server:
        wall_started = time.time()
        result = replay(_TracedSingleServer(server), trace)
        report = build_slo_report(result)
        _emit_reports(args, report)
        if args.stats:
            print(server.metrics_snapshot().report())
        if args.trace:
            spans = server.tracer.drain()
            write_chrome_trace(
                args.trace, spans, instants=_replay_instants(wall_started, result)
            )
            print(f"trace       {len(spans)} spans -> {args.trace}")
    return 0


def _run_sharded(
    args: argparse.Namespace, trace, shards: int, connect: tuple[str, ...]
) -> int:
    supervisor = ShardSupervisor(
        shards=shards,
        db=args.db,
        devices=(args.device,),
        workers=args.workers,
        connect=connect,
        tracer=Tracer(sample_rate=1.0) if args.trace else None,
    )
    try:
        fault = None
        if args.kill_shard is not None:
            fault = ReplayFault(
                action=lambda: supervisor.kill_shard(args.kill_shard),
                at_fraction=args.kill_at,
            )
        wire_before = supervisor.wire_snapshot()
        wall_started = time.time()
        result = replay(supervisor, trace, fault=fault)
        cluster = supervisor.stats()
        wire_delta = supervisor.wire_snapshot().delta(wire_before)
        report = build_slo_report(result, cluster=cluster, wire_delta=wire_delta)
        _emit_reports(args, report)
        routed = ", ".join(
            f"shard {shard_id}: {count}"
            for shard_id, count in supervisor.routed_counts().items()
        )
        print(f"routing     {routed}")
        if args.stats:
            print(cluster.report())
        if args.trace:
            # Drain before close(): shard processes die with the supervisor.
            spans = supervisor.drain_spans()
            write_chrome_trace(
                args.trace, spans, instants=_replay_instants(wall_started, result)
            )
            print(f"trace       {len(spans)} spans -> {args.trace}")
    finally:
        supervisor.close()
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    configure_logging(args.log_level, json_lines=args.log_json)
    if args.list_suites:
        return _list_suites()
    try:
        shards, connect = shard_layout(args)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    try:
        trace = _resolve_trace(args)
        if args.save_trace is not None:
            save_trace(args.save_trace, trace)
            print(f"trace       saved -> {args.save_trace}")
        if args.dry_run:
            return 0
        if shards == 1 and not connect:
            return _run_single(args, trace, args.kill_shard is not None)
        return _run_sharded(args, trace, shards, connect)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
