"""``python -m repro.serve`` — drive a kernel server (or shard cluster).

The default is one in-process :class:`KernelServer` (``--shards 1``); with
``--shards N`` (N ≥ 2) the same actions run against a
:class:`~repro.serve.ShardSupervisor` — N server processes behind a
consistent-hash router, all opening and saving into the one ``--db``
file.  ``--connect host:port,...`` adds remote
TCP shards (started elsewhere with ``--listen``) to the same ring, and
``--listen [host:]port`` runs this process *as* such a shard.

Examples::

    # serve one request (cold: tune + compile) and print the metrics
    python -m repro.serve --once ntt --bits 256 --size 4096 --stats

    # persist winners, then pre-warm a fresh server from them
    python -m repro.serve --once ntt --bits 256 --db tuning_db.json
    python -m repro.serve --warmup --db tuning_db.json --stats

    # drop stale records (and re-tune their families)
    python -m repro.serve --invalidate --refresh --db tuning_db.json

    # demo traffic: repeated mixed requests showing warm/dedup serving
    python -m repro.serve --demo 64 --stats

    # the same demo served across two shard processes, stats aggregated
    python -m repro.serve --shards 2 --demo --stats

    # a TCP shard listener (source-only trust unless --trust pickled)
    python -m repro.serve --listen 127.0.0.1:7401 --db shard0.json

    # a supervisor over two remote shards (no local shard processes)
    python -m repro.serve --connect 127.0.0.1:7401,127.0.0.1:7402 --demo --stats

Actions compose left to right: ``--invalidate`` and ``--warmup`` run before
``--once``/``--demo``, ``--stats`` prints last.  Against a shard cluster,
both make one pass over ``--db``: ``--warmup`` serves each record once
through the router, and ``--invalidate`` drops the stale records in one
save (``--refresh`` then re-serves each stale family once through the
router).  A ``--listen`` shard's own file is invalidated like any other,
with ``--invalidate --db <file>``, while the listener runs.  ``--tenant``
scopes requests and maintenance passes to one tenant namespace.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.errors import ReproError
from repro.gpu.device import DEVICES
from repro.kernels.blas_gen import BLAS_OPERATIONS
from repro.kernels.ntt_gen import BUTTERFLY_VARIANTS
from repro.obs import MetricsEndpoint, Tracer, configure_logging, write_chrome_trace
from repro.obs.promtext import render_cluster_metrics, render_server_metrics
from repro.tenancy import DEFAULT_TENANT
from repro.tune.db import TuningDatabase
from repro.tune.space import BLAS, NTT
from repro.serve import protocol
from repro.serve.server import KernelServer, ServeRequest
from repro.serve.shard import serve_shard_tcp
from repro.serve.supervisor import ShardSupervisor

__all__ = ["build_parser", "main"]

#: Requests fired by a bare ``--demo`` (no count given).
DEFAULT_DEMO_REQUESTS = 16


def build_parser() -> argparse.ArgumentParser:
    """The ``repro.serve`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Long-running tuned-kernel serving: request batching, "
        "pre-warmed caches, live invalidation, and optional multi-process "
        "sharding (--shards N routes kernel families across N server "
        "processes by consistent hashing).",
    )
    parser.add_argument(
        "--db", metavar="PATH", default=None, help="persistent tuning database file"
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="N",
        help="local server processes; 1 serves in-process, N>=2 shards "
        "kernel families across N processes that share the --db file "
        "(default: 1, or 0 with --connect)",
    )
    parser.add_argument(
        "--connect",
        action="append",
        default=None,
        metavar="HOST:PORT[,HOST:PORT...]",
        help="remote TCP shards (started with --listen) to add to the ring "
        "alongside the local --shards; repeatable or comma-separated",
    )
    parser.add_argument(
        "--listen",
        default=None,
        metavar="[HOST:]PORT",
        help="run this process as a TCP shard listener instead of a "
        "supervisor (combines with --db/--devices/--workers/--shard-id/"
        "--trust; excludes every other action)",
    )
    parser.add_argument(
        "--shard-id",
        type=int,
        default=0,
        metavar="ID",
        help="with --listen: the shard id announced before a supervisor "
        "assigns one",
    )
    parser.add_argument(
        "--trust",
        choices=(protocol.TRUST_SOURCE, protocol.TRUST_PICKLED),
        default=protocol.TRUST_SOURCE,
        help="transport trust for TCP shards: with --listen, the most this "
        "shard grants; with --connect, the level requested from remotes. "
        "'source' (default) ships artifacts as source text only; 'pickled' "
        "allows executable python_exec pickles between machines that "
        "explicitly trust each other",
    )
    parser.add_argument(
        "--pool",
        type=int,
        default=2,
        metavar="N",
        help="with --connect: keep-alive connections per remote shard "
        "(default 2)",
    )
    parser.add_argument(
        "--devices",
        nargs="+",
        choices=sorted(DEVICES),
        default=["rtx4090"],
        help="devices this server serves (first is the request default)",
    )
    parser.add_argument("--workers", type=int, default=4, help="worker-pool threads")
    parser.add_argument(
        "--warmup",
        action="store_true",
        help="pre-compile every recorded winner before other actions",
    )
    parser.add_argument(
        "--invalidate",
        action="store_true",
        help="drop tuning records with stale versions or fingerprints",
    )
    parser.add_argument(
        "--refresh",
        action="store_true",
        help="with --invalidate: re-tune the dropped families",
    )
    parser.add_argument(
        "--once",
        choices=(NTT, BLAS),
        default=None,
        help="serve a single request of this kind and print the result",
    )
    parser.add_argument("--bits", type=int, default=256, help="operand bit-width (--once)")
    parser.add_argument("--size", type=int, default=4096, help="NTT transform length (--once)")
    parser.add_argument(
        "--variant",
        choices=BUTTERFLY_VARIANTS,
        default="cooley_tukey",
        help="NTT butterfly dataflow (--once)",
    )
    parser.add_argument(
        "--op", choices=BLAS_OPERATIONS, default="vmul", help="BLAS operation (--once)"
    )
    parser.add_argument(
        "--elements", type=int, default=1 << 20, help="BLAS vector elements (--once)"
    )
    parser.add_argument(
        "--target",
        default="python_exec",
        help="backend artifact to serve (--once; default python_exec)",
    )
    parser.add_argument(
        "--no-tune",
        action="store_true",
        help="serve the paper-default configuration instead of the tuned winner",
    )
    parser.add_argument(
        "--tenant",
        metavar="NAME",
        default=None,
        help="tenant namespace for --once/--demo requests and the scope of "
        "--warmup/--invalidate (default: requests use the shared 'default' "
        "namespace; warmup/invalidate cover every namespace)",
    )
    parser.add_argument(
        "--demo",
        type=int,
        metavar="N",
        nargs="?",
        const=DEFAULT_DEMO_REQUESTS,
        default=None,
        help="fire N mixed demo requests (repeated keys show warm/dedup "
        f"serving; bare --demo fires {DEFAULT_DEMO_REQUESTS})",
    )
    parser.add_argument(
        "--stats", action="store_true", help="print the metrics snapshot at the end"
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="trace every request end-to-end (supervisor, wire, shards, "
        "compiler passes) and write the merged Chrome trace-event JSON — "
        "loadable in Perfetto — to PATH at exit",
    )
    parser.add_argument(
        "--trace-slow-ms",
        type=float,
        default=None,
        metavar="MS",
        help="capture exemplar traces for requests slower than MS without "
        "tracing the fast majority (combine with --trace or --metrics-port "
        "to export them)",
    )
    parser.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        metavar="PORT",
        help="serve a Prometheus-style text exposition on "
        "http://127.0.0.1:PORT/metrics (and retained trace spans on "
        "/trace.json) for the lifetime of the run; 0 picks a free port",
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
        help="emit log records as JSON lines (one object per line, with a "
        "trace-id correlation field) instead of text",
    )
    return parser


def _once_request(args: argparse.Namespace) -> ServeRequest:
    if args.once == NTT:
        return ServeRequest(
            kind=NTT,
            bits=args.bits,
            operation=args.variant,
            size=args.size,
            device=args.devices[0],
            target=args.target,
            tune=not args.no_tune,
        )
    return ServeRequest(
        kind=BLAS,
        bits=args.bits,
        operation=args.op,
        elements=args.elements,
        device=args.devices[0],
        target=args.target,
        tune=not args.no_tune,
    )


def _print_once(result) -> None:
    print(f"served      {result.request.workload().key} on {result.request.device}")
    print(f"target      {result.request.target}")
    print(f"config      {result.config.label()} (w{result.config.word_bits})")
    if result.tuning is not None:
        source = "database" if result.tuning.from_database else result.tuning.strategy
        print(
            f"tuning      {result.tuning.candidate.label()} via {source}, "
            f"{result.tuning.speedup:.2f}x over the paper default"
        )
    print(f"serve       {'warm' if result.warm else 'cold'}, "
          f"{result.latency_s * 1e3:.2f} ms")


def _demo_requests(args: argparse.Namespace) -> list[ServeRequest]:
    device = args.devices[0]
    return [
        ServeRequest(kind=NTT, bits=128, size=args.size, device=device),
        ServeRequest(kind=NTT, bits=256, size=args.size, device=device),
        ServeRequest(kind=BLAS, bits=128, operation="vmul", device=device),
        ServeRequest(kind=BLAS, bits=256, operation="vadd", device=device),
    ]


def _build_tracer(args: argparse.Namespace) -> Tracer | None:
    """A :class:`Tracer` when ``--trace``/``--trace-slow-ms`` ask for one.

    ``--trace`` forces every request to be sampled (the point is one
    complete merged trace); ``--trace-slow-ms`` alone samples nothing and
    relies on exemplar promotion of slow requests.  Returns ``None`` when
    neither flag is given, letting the server/supervisor keep their cheap
    default tracer (which still records wire-adopted traces).
    """
    if args.trace is None and args.trace_slow_ms is None:
        return None
    threshold = (
        args.trace_slow_ms / 1e3 if args.trace_slow_ms is not None else None
    )
    return Tracer(
        sample_rate=1.0 if args.trace is not None else 0.0,
        exemplar_threshold_s=threshold,
    )


def _start_metrics(args: argparse.Namespace, metrics_fn, trace_fn):
    """Start the ``--metrics-port`` endpoint (or return ``None``)."""
    if args.metrics_port is None:
        return None
    endpoint = MetricsEndpoint(
        args.metrics_port, metrics_fn, trace_fn=trace_fn
    ).start()
    print(
        f"metrics     http://{endpoint.address[0]}:{endpoint.port}/metrics",
        flush=True,
    )
    return endpoint


def _write_trace(path: str, spans) -> None:
    write_chrome_trace(path, spans)
    print(f"trace       {len(spans)} spans -> {path}", flush=True)


def _traced_submit(
    server: KernelServer, request: ServeRequest, tenant: str = DEFAULT_TENANT
):
    """Submit under a fresh root trace (single-server mode).

    In sharded mode the supervisor begins the root span itself; a lone
    :class:`KernelServer` has no front door above ``submit``, so the CLI
    plays that role here.
    """
    attributes = {"kind": request.kind, "bits": request.bits}
    if tenant != DEFAULT_TENANT:
        attributes["tenant"] = tenant
    handle = server.tracer.begin("client.request", **attributes)
    if handle is None:
        return server.submit(request, tenant=tenant)
    with handle.activate():
        future = server.submit(request, tenant=tenant)
    future.add_done_callback(lambda _done, _handle=handle: _handle.finish())
    return future


def _run_demo(server, args: argparse.Namespace, submit=None) -> None:
    """Fire the demo mix at a server or supervisor (both expose submit)."""
    submit = submit if submit is not None else server.submit
    mix = _demo_requests(args)
    started = time.perf_counter()
    futures = [submit(mix[i % len(mix)]) for i in range(args.demo)]
    for future in futures:
        future.result()
    seconds = time.perf_counter() - started
    rate = args.demo / seconds if seconds else float("inf")
    print(
        f"demo        {args.demo} requests over {len(mix)} kernel families in "
        f"{seconds * 1e3:.1f} ms ({rate:.0f} req/s)"
    )
    if isinstance(server, ShardSupervisor):
        routed = ", ".join(
            f"shard {shard_id}: {count}"
            for shard_id, count in server.routed_counts().items()
        )
        print(f"routing     {routed}")


def _main_single(args: argparse.Namespace) -> int:
    tracer = _build_tracer(args)
    db = TuningDatabase(args.db)
    with KernelServer(
        db=db, devices=tuple(args.devices), workers=args.workers, tracer=tracer
    ) as server:
        endpoint = _start_metrics(
            args,
            lambda: render_server_metrics(server.metrics_snapshot()),
            server.tracer.snapshot,
        )
        try:
            tenant = args.tenant if args.tenant is not None else DEFAULT_TENANT
            if args.invalidate:
                print(
                    server.invalidate(
                        refresh=args.refresh, tenant=args.tenant
                    ).report()
                )
            if args.warmup:
                print(server.warm(tenant=args.tenant).report())
            if args.once:
                _print_once(
                    _traced_submit(server, _once_request(args), tenant).result()
                )
            if args.demo:
                _run_demo(
                    server,
                    args,
                    submit=lambda request: _traced_submit(server, request, tenant),
                )
            if args.stats:
                print(server.metrics_snapshot().report())
            if args.trace:
                _write_trace(args.trace, server.tracer.drain())
        finally:
            if endpoint is not None:
                endpoint.close()
    return 0


def _connect_addresses(args: argparse.Namespace) -> tuple[str, ...]:
    """Flatten repeated/comma-separated ``--connect`` values."""
    if not args.connect:
        return ()
    return tuple(
        part.strip()
        for value in args.connect
        for part in value.split(",")
        if part.strip()
    )


def _main_sharded(args: argparse.Namespace, shards: int) -> int:
    supervisor = ShardSupervisor(
        shards=shards,
        db=args.db,
        devices=tuple(args.devices),
        workers=args.workers,
        connect=_connect_addresses(args),
        remote_trust=args.trust,
        pool=args.pool,
        tracer=_build_tracer(args),
    )
    endpoint = None
    try:
        endpoint = _start_metrics(
            args,
            lambda: render_cluster_metrics(supervisor.stats()),
            supervisor.tracer.snapshot,
        )
        tenant = args.tenant if args.tenant is not None else DEFAULT_TENANT
        if args.invalidate:
            print(
                supervisor.invalidate(refresh=args.refresh, tenant=args.tenant).report()
            )
        if args.warmup:
            print(supervisor.warmup(tenant=args.tenant).report())
        if args.once:
            _print_once(supervisor.serve(_once_request(args), tenant=tenant))
        if args.demo:
            _run_demo(
                supervisor,
                args,
                submit=lambda request: supervisor.submit(request, tenant=tenant),
            )
        if args.stats:
            print(supervisor.stats().report())
        if args.trace:
            # Drain before close(): shard processes (and their span
            # buffers) die with the supervisor.
            _write_trace(args.trace, supervisor.drain_spans())
    finally:
        if endpoint is not None:
            endpoint.close()
        supervisor.close()
    return 0


def _main_listen(args: argparse.Namespace) -> int:
    """Run this process as one TCP shard until a ShutdownCall (or Ctrl-C)."""
    host, _, port = args.listen.rpartition(":")
    host = host or "127.0.0.1"
    try:
        port = int(port)
    except ValueError:
        print(f"error: --listen address {args.listen!r} is not [host:]port",
              file=sys.stderr)
        return 2

    def announce(bound: tuple[str, int]) -> None:
        print(
            f"shard {args.shard_id} listening on {bound[0]}:{bound[1]} "
            f"(trust: {args.trust})",
            flush=True,
        )

    try:
        serve_shard_tcp(
            host=host,
            port=port,
            shard_id=args.shard_id,
            devices=tuple(args.devices),
            db_path=args.db,
            workers=args.workers,
            trust=args.trust,
            on_bound=announce,
            metrics_port=args.metrics_port,
        )
    except KeyboardInterrupt:
        pass
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    configure_logging(args.log_level, json_lines=args.log_json)
    connect = _connect_addresses(args)
    if args.listen is not None:
        if (
            args.warmup
            or args.invalidate
            or args.once
            or args.demo
            or connect
            or args.trace
        ):
            print(
                "error: --listen runs a shard process and excludes supervisor "
                "actions (--warmup/--invalidate/--once/--demo/--connect/"
                "--trace); traces are drained by the supervisor",
                file=sys.stderr,
            )
            return 2
        try:
            return _main_listen(args)
        except ReproError as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
    if not (args.warmup or args.invalidate or args.once or args.demo or args.stats):
        build_parser().print_help()
        return 2
    # --shards defaults to one in-process server, or to no local shards
    # when --connect supplies the ring.
    shards = args.shards if args.shards is not None else (0 if connect else 1)
    if shards < 0 or (shards == 0 and not connect):
        print(f"error: shard count must be positive, got {shards}", file=sys.stderr)
        return 2
    try:
        if shards == 1 and not connect:
            return _main_single(args)
        return _main_sharded(args, shards)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
