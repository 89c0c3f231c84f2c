#!/usr/bin/env python3
"""Benchmark of the MoMA reproduction: compile, execute and serve.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload compile_cold --seed 1 --seconds 10 --trace 0

``--workload`` is ``compile_cold``, ``kernel_exec`` or ``serve_mix`` (see
``workloads.py``).  Inputs are drawn from ``--seed``.  The workload sets up
(``setup_s`` is the median pass, scaled to a reference host speed by the
calibration loop run around the passes), then measures for
``--seconds``.  Every output is checked against bigint arithmetic or the
request it answers.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics`` — the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
``--trace 1`` also prints each layer's self time and writes a Chrome
trace under ``.perfbench_out/`` that ``tools/trace_summary.py`` reads.
The exit code is 0 only when every checked output was correct.
``--size tiny`` and ``--corrupt`` (damage one measured output) serve the
self-test (``test_perfbench.py``).
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
if str(SOURCE) not in sys.path:
    sys.path.insert(0, str(SOURCE))

#: Calibration-loop runs before the first set-up pass and after each pass.
CALIBRATION_REPEATS = 15


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--corrupt", action="store_true")
    return parser.parse_args(argv)


def traced_run(workload, sizes, state, seed, checks, out_dir: Path) -> dict:
    """Per-layer figures for every phase plus the self-time tables."""
    import random

    import phases
    from harness import GcPauses, layer_table, self_time_by_name
    from repro.obs.export import write_chrome_trace

    rng = random.Random(seed + 2)
    with GcPauses() as gc_pauses:
        compiled, cells, session = workload.traced(sizes, state, rng, checks, gc_pauses)
        compile_metrics, compile_spans, compile_wall, compile_plain, _ = compiled
        exec_metrics, exec_spans, exec_wall, exec_plain, cell_lines = phases.exec_breakdown(
            cells, checks
        )
    compile_gc = gc_pauses.spans(compile_spans)
    exec_gc = gc_pauses.spans(exec_spans)
    serve_metrics, serve_spans, serve_lines = phases.serve_breakdown(
        state.supervisor,
        list(sizes.serve_requests),
        state.served,
        session,
        rng,
        sizes.serve_load,
        checks,
    )

    lines = layer_table(
        "compile (traced, layer by layer)",
        compile_wall,
        self_time_by_name(compile_spans + compile_gc),
    )
    lines.append(
        f"  tracing overhead: traced {compile_wall:.4f} s - untraced session.compile "
        f"{compile_plain:.4f} s = {compile_wall - compile_plain:+.4f} s"
    )
    lines += layer_table("execute (traced)", exec_wall, self_time_by_name(exec_spans + exec_gc))
    paths = sum(one.dur_us for one in exec_spans if one.name in phases.EXEC_PATHS.values()) / 1e6
    lines.append(
        f"  tracing overhead: traced engine/NTT calls {paths:.4f} s - the same calls "
        f"untraced {exec_plain:.4f} s = {paths - exec_plain:+.4f} s"
    )
    lines += cell_lines
    lines += serve_lines
    for line in lines:
        print(line)

    out_dir.mkdir(exist_ok=True)
    path = write_chrome_trace(
        out_dir / f"{workload.name}-{seed}.json",
        compile_spans + compile_gc + exec_spans + exec_gc + serve_spans,
        label=f"perfbench {workload.name}",
    )
    print(f"chrome trace: {path}")
    metrics = {}
    metrics.update(compile_metrics)
    metrics.update(exec_metrics)
    metrics.update(serve_metrics)
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SOURCE}", file=sys.stderr)
        return 2

    import gc
    import json
    import random

    from harness import (
        REFERENCE_CALIBRATION_MS,
        Checks,
        calibration_samples,
        emit_result,
        median,
        peak_rss_mb,
        provenance,
        stop_processes,
    )
    from workloads import SIZES, WORKLOADS

    imported_s = time.perf_counter() - STARTED
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    sizes = SIZES[args.size][args.workload]
    checks = Checks()
    host = provenance(args.workload, args.seed, ROOT)
    print("provenance " + json.dumps(host), flush=True)

    # The calibration loop runs before the first set-up pass and after
    # each one, so its median reads the host's speed across the set-up.
    setups, compiles, state = [], [], None
    speed = calibration_samples(CALIBRATION_REPEATS)
    try:
        for _ in range(1 if args.trace else sizes.setup_passes):
            if state is not None:
                state.close()
                state = None
            started = time.perf_counter()
            state = workload.setup(sizes, random.Random(args.seed), checks)
            setups.append(time.perf_counter() - started)
            compiles.append(state.compile_s)
            speed += calibration_samples(CALIBRATION_REPEATS)
        # The inputs and served results now live until the end of the run;
        # freezing them keeps later collections from rescanning them, so a
        # collection costs what the measured phase allocated.
        gc.collect()
        gc.freeze()
        # Corrupt a measured output, not a set-up one: the run must still
        # have every input it measures with.
        checks.corrupt = args.corrupt
        if args.trace:
            measured = traced_run(
                workload, sizes, state, args.seed, checks, ROOT / ".perfbench_out"
            )
        else:
            measured = workload.measure(
                sizes, state, random.Random(args.seed + 1), args.seconds, checks
            )
    finally:
        try:
            if state is not None:
                state.close()
        finally:
            stop_processes()

    if args.trace:
        measured["host.calibration_ms"] = (host["calibration_ms"], "ms")
    else:
        # Set-up is seconds of CPU-bound work, which the host's drifting
        # speed moves by a third between runs; scaled by the calibration
        # loop timed beside it, it reads as seconds on a host whose loop
        # takes REFERENCE_CALIBRATION_MS.
        setup_wall_s = imported_s + median(setups)
        measured.setdefault("compile_s", (median(compiles), "s"))
        measured["setup_wall_s"] = (setup_wall_s, "s")
        measured["setup_calibration_ms"] = (median(speed), "ms")
        measured["setup_s"] = (setup_wall_s * REFERENCE_CALIBRATION_MS / median(speed), "s")
        measured["peak_rss_mb"] = (peak_rss_mb(), "MB")
    group = "per_layer" if args.trace else "end_to_end"
    metrics = {metric["name"]: measured.pop(metric["name"]) for metric in declared[group]}
    print(f"setup passes: {', '.join(f'{value:.4f}' for value in setups)} s "
          f"(imports {imported_s:.4f} s)")
    emit_result(checks, metrics, measured)
    return 0 if checks.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
