"""The three phases every workload is made of: compile, execute, serve.

Each workload runs all three on its own kernels, so every metric has a
value on every workload; the workload's inputs make one phase dominate
(see ``workloads.py``).  The functions here call the program only
through its public entry points:

* compile — ``CompilerSession.compile`` (traced: ``build_*_kernel``,
  ``legalize``, ``optimize`` with its observer, and ``emit`` per target);
* execute — ``MomaBlasEngine``/``GeneratedNTT`` or a loop over the
  ``CompiledKernel``, each followed by the same call on bigints
  (traced: ``pack_inputs``, ``call_limbs``, ``unpack_outputs``);
* serve — ``ShardSupervisor.submit`` from an open-loop generator thread
  (traced: the tier's own spans, the wire profile, the protocol codec,
  ``ShardRouter.route``, an in-process ``KernelServer`` and the tuner).
"""

from __future__ import annotations

import dataclasses
import gc
import threading
import time
from collections import defaultdict
from concurrent.futures import wait
from dataclasses import dataclass, field
from typing import Callable

from repro.arith.barrett import BarrettParams
from repro.baselines.bigint import BigIntBaseline
from repro.core.codegen.python_exec import CompiledKernel
from repro.core.driver import CompilerSession, emit
from repro.core.passes.pipeline import optimize
from repro.core.rewrite.legalize import legalize
from repro.gpu import cost_kernel
from repro.kernels import KernelConfig, build_blas_kernel, build_butterfly_kernel
from repro.ntt.iterative import ntt_forward, ntt_inverse, reference_butterfly
from repro.obs import trace as tracing
from repro.serve import KernelServer, ServeRequest, ShardRouter, ShardSupervisor
from repro.serve import protocol
from repro.tune import Autotuner, TuningDatabase

from harness import Checks, geomean, median, percentile, self_time_by_name

TARGETS = ("python_exec", "cuda")
#: How long a submitted request may stay unresolved before it counts as failed.
REPLY_TIMEOUT_S = 60.0


# -- compile -------------------------------------------------------------------


@dataclass(frozen=True)
class KernelSpec:
    """One kernel the compile phase builds: a butterfly or a BLAS operation."""

    kind: str  # "ntt" or "blas"
    operation: str
    config: KernelConfig

    @property
    def label(self) -> str:
        name = "ct" if self.operation == "cooley_tukey" else (
            "gs" if self.operation == "gentleman_sande" else self.operation
        )
        suffix = "k" if self.config.multiplication == "karatsuba" else ""
        word = "" if self.config.word_bits == 64 else f"w{self.config.word_bits}"
        return f"{name}{self.config.bits}{suffix}{word}"

    def build(self):
        if self.kind == "ntt":
            return build_butterfly_kernel(self.config, self.operation)
        return build_blas_kernel(self.operation, self.config)


def compile_set(specs, session: CompilerSession) -> tuple[dict, float]:
    """Compile every spec to both targets; returns artifacts and seconds."""
    artifacts = {}
    started = time.perf_counter()
    for spec in specs:
        kernel = spec.build()
        options = spec.config.rewrite_options()
        artifacts[spec] = tuple(
            session.compile(kernel, target=target, options=options) for target in TARGETS
        )
    return artifacts, time.perf_counter() - started


def compile_work(session: CompilerSession) -> int:
    """Statements the compiler walked: every lowering's legalized statements
    plus the input size of every pass application.

    A count, so it repeats exactly: the host's speed, which moves compile
    time by a third from one run to the next, does not move it.
    """
    return sum(
        record.statements_legalized + sum(one.statements_before for one in record.passes)
        for record in session.stats().records
        if record.target is None
    )


def check_compiled(checks: Checks, artifacts: dict) -> int:
    """Both targets produced their kind of artifact; returns the statement
    count of the optimized kernels (the ``code_statements`` figure)."""
    statements = 0
    for spec, (runnable, source) in artifacts.items():
        shown = None if checks.tamper("compiled") else runnable
        checks.check(
            isinstance(shown, CompiledKernel) and callable(shown.function),
            f"{spec.label}: python_exec did not produce a callable kernel",
        )
        checks.check(
            isinstance(source, str) and "__global__" in source,
            f"{spec.label}: cuda did not produce a kernel translation unit",
        )
        statements += len(runnable.kernel.body)
    return statements


def compile_breakdown(specs, gc_pauses) -> tuple:
    """Per-layer compile figures for ``specs``.

    First an untraced ``CompilerSession.compile`` of the set (the compiler
    driver as users call it), then the same kernels layer by layer under spans.
    Returns (metrics, spans, traced wall seconds, untraced wall seconds, and
    the untraced session, whose cache holds every kernel of the set).
    """
    session = CompilerSession()
    _, untraced_s = compile_set(specs, session)
    # What the session's own records (legalize, passes, emit) do not cover:
    # building the IR, hashing it into cache keys, cache bookkeeping.
    overhead_s = untraced_s - sum(record.seconds for record in session.stats().records)
    hit_times = []
    for spec in specs:
        kernel = spec.build()
        started = time.perf_counter()
        for target in TARGETS:
            session.compile(kernel, target=target, options=spec.config.rewrite_options())
        hit_times.append((time.perf_counter() - started) / len(TARGETS))

    tracer = tracing.Tracer(sample_rate=1.0, capacity=1 << 20)
    passes: dict[str, float] = defaultdict(float)
    rounds = 0
    late_s = 0.0
    legal_statements = 0
    source_bytes = 0

    def observer(name, round_index, seconds, before, after):
        nonlocal rounds, late_s
        passes[name] += seconds
        rounds = max(rounds, round_index + 1)
        if round_index > 0:
            late_s += seconds
        tracing.record(
            f"passes.{name}", time.time() - seconds, seconds, cat="compile",
            round=round_index, statements_before=before, statements_after=after,
        )

    gc_before = len(gc_pauses.pauses)
    started = time.perf_counter()
    total_rounds = 0
    for spec in specs:
        rounds = 0
        with tracer.trace("compile.kernel", cat="compile", force=True, kernel=spec.label):
            with tracing.span("kernels.build", cat="compile"):
                kernel = spec.build()
            with tracing.span("rewrite.legalize", cat="compile"):
                legal = legalize(kernel, spec.config.rewrite_options())
            legal_statements += len(legal.body)
            with tracing.span("passes.optimize", cat="compile"):
                optimized = optimize(legal, pipeline=session.pipeline, observer=observer)
            for target in TARGETS:
                with tracing.span(f"codegen.emit_{target}", cat="compile"):
                    artifact = emit(optimized, target)
                source_bytes += len(artifact.source if target == "python_exec" else artifact)
        total_rounds += rounds
    traced_s = time.perf_counter() - started
    spans = list(tracer.drain())
    pauses = gc_pauses.pauses[gc_before:]

    totals = defaultdict(float)
    for one in spans:
        totals[one.name] += one.dur_us / 1e6
    metrics = {
        "kernels.build_s": (totals["kernels.build"], "s"),
        "rewrite.legalize_s": (totals["rewrite.legalize"], "s"),
        "rewrite.statements_legal": (legal_statements, "count"),
        "passes.optimize_s": (totals["passes.optimize"], "s"),
    }
    for name in sorted({p.__name__ for p in session.pipeline}):
        metrics[f"passes.{name}_s"] = (passes[name], "s")
    metrics.update(
        {
            "passes.rounds": (total_rounds, "count"),
            "passes.late_rounds_s": (late_s, "s"),
            "codegen.emit_python_exec_s": (totals["codegen.emit_python_exec"], "s"),
            "codegen.emit_cuda_s": (totals["codegen.emit_cuda"], "s"),
            "codegen.source_bytes": (source_bytes, "bytes"),
            "driver.overhead_s": (overhead_s, "s"),
            "driver.cache_hit_us": (median(hit_times) * 1e6, "us"),
            "runtime.gc_s": (sum(pause[1] for pause in pauses), "s"),
            "runtime.gc_collections": (len(pauses), "count"),
        }
    )
    return metrics, spans, traced_s, untraced_s, session


# -- execute -------------------------------------------------------------------


def random_modulus(rng, bits: int) -> tuple[int, int]:
    """A seed-drawn odd modulus of exactly ``bits`` bits and its Barrett mu."""
    q = (1 << (bits - 1)) | rng.getrandbits(bits - 1) | 1
    return q, BarrettParams.create(q, bits + 4, bits).mu


def edge_pairs(rng, q: int) -> list[tuple[int, int]]:
    """The edge operands 0, 1, q-1 and one seed-drawn pair."""
    return [(0, 0), (1, 1), (q - 1, q - 1), (rng.randrange(q), rng.randrange(q))]


@dataclass
class Cell:
    """One execution cell: generated code against bigints, in timed parts.

    Each part is (units, generated-code call, bigint call) on the same
    inputs: a chunk of a BLAS vector, or the forward or the inverse half of
    an NTT.  ``verify`` compares the parts' outputs; ``calls`` lists the
    kernel argument dictionaries the cell runs, for the traced split into
    pack, compute and unpack.
    """

    label: str
    kind: str  # "blas" or "ntt"
    kernel: CompiledKernel
    parts: list
    verify: Callable[[list, list], bool]
    calls: Callable[[], list]

    @property
    def units(self) -> int:
        return sum(units for units, _, _ in self.parts)

    def run_moma(self) -> list:
        return [moma() for _, moma, _ in self.parts]

    def run_bigint(self) -> list:
        return [bigint() for _, _, bigint in self.parts]


def _kernel_arguments(operation: str, x, y, scale: int, q: int, mu: int) -> list[dict]:
    if operation == "axpy":
        return [dict(x=a, y=b, a=scale, q=q, mu=mu) for a, b in zip(x, y)]
    if operation == "vmul":
        return [dict(x=a, y=b, q=q, mu=mu) for a, b in zip(x, y)]
    return [dict(x=a, y=b, q=q) for a, b in zip(x, y)]


def blas_cell(label, operation, kernel, x, y, scale, q, mu, engines=None, chunk=None) -> Cell:
    """A BLAS cell timed in calls of ``chunk`` elements.

    ``engines`` is a (generated, bigint) pair of BLAS engines; without it
    the cell loops over the kernel against ``BigIntBaseline``.
    """
    arguments = _kernel_arguments(operation, x, y, scale, q, mu)
    chunk = chunk or len(x)

    def engine_call(engine, low, high):
        if operation == "axpy":
            return lambda: engine.axpy(scale, x[low:high], y[low:high], q)
        return lambda: getattr(engine, operation)(x[low:high], y[low:high], q)

    def kernel_loop(low, high):
        return lambda: [kernel(**one)["z"] for one in arguments[low:high]]

    parts = []
    for low in range(0, len(x), chunk):
        high = min(low + chunk, len(x))
        if engines is None:
            moma, bigint = kernel_loop(low, high), engine_call(BigIntBaseline(), low, high)
        else:
            moma, bigint = (engine_call(engine, low, high) for engine in engines)
        parts.append((high - low, moma, bigint))
    return Cell(
        label, "blas", kernel, parts, lambda outs, refs: outs == refs, lambda: arguments
    )


def ntt_cell(label, kernel, plan, values, forward=None, inverse=None, repeats=1) -> Cell:
    """An NTT cell: forward against ``BigIntBaseline.ntt`` and inverse of
    the exact spectrum, which must return the input; ``repeats`` times.

    By default the butterfly ``kernel`` runs under the iterative driver the
    way ``GeneratedNTT`` runs it; pass ``forward``/``inverse`` to time a
    ``GeneratedNTT`` itself.
    """
    baseline = BigIntBaseline()

    def butterfly(x, y, twiddle, plan_):
        out = kernel(x=x, y=y, w=twiddle, q=plan_.modulus, mu=plan_.mu)
        return out["x_out"], out["y_out"]

    forward = forward or (lambda data: ntt_forward(data, plan, butterfly))
    inverse = inverse or (lambda data: ntt_inverse(data, plan, butterfly))
    spectrum = baseline.ntt(values, plan)
    butterflies = plan.size // 2 * (plan.size.bit_length() - 1)
    parts = [
        (butterflies, lambda: forward(values), lambda: baseline.ntt(values, plan)),
        (butterflies, lambda: inverse(spectrum), lambda: baseline.intt(spectrum, plan)),
    ] * repeats
    expected = [spectrum, list(values)] * repeats

    def verify(outs, refs):
        return outs == refs == expected

    def calls():
        captured = []

        def recording(x, y, twiddle, plan_):
            captured.append(dict(x=x, y=y, w=twiddle, q=plan_.modulus, mu=plan_.mu))
            return reference_butterfly(x, y, twiddle, plan_)

        ntt_forward(values, plan, recording)
        ntt_inverse(spectrum, plan, recording)
        return captured

    return Cell(label, "ntt", kernel, parts, verify, calls)


def check_butterfly_edges(checks: Checks, label, kernel, operation, q, mu, rng) -> None:
    """Run a butterfly once on edge operands and compare with bigints."""
    for x, y in edge_pairs(rng, q):
        w = y
        out = kernel(x=x, y=y, w=w, q=q, mu=mu)
        if operation == "cooley_tukey":
            scaled = (w * y) % q
            expected = ((x + scaled) % q, (x - scaled) % q)
        else:
            expected = ((x + y) % q, ((x - y) % q * w) % q)
        if checks.tamper("butterfly"):
            out = dict(out, x_out=out["x_out"] ^ 1)
        checks.check(
            (out["x_out"], out["y_out"]) == expected,
            f"{label}: butterfly on edge operands ({x}, {y}) differs from bigint",
        )


def exec_round(cells, checks: Checks, bigint_repeats: int = 1) -> dict:
    """Run every part of every cell once on generated code and on bigints.

    Returns label -> [(units, generated-code seconds, bigint seconds)];
    bigint time is the median of ``bigint_repeats`` calls (short calls
    jitter).
    """
    timings = {}
    for cell in cells:
        gc.collect()
        outs, refs, samples = [], [], []
        for units, moma, bigint in cell.parts:
            started = time.perf_counter()
            outs.append(moma())
            moma_s = time.perf_counter() - started
            bigint_times = []
            for _ in range(bigint_repeats):
                started = time.perf_counter()
                reference = bigint()
                bigint_times.append(time.perf_counter() - started)
            refs.append(reference)
            samples.append((units, moma_s, median(bigint_times)))
        if checks.tamper("exec"):
            outs[0] = [outs[0][0] ^ 1] + outs[0][1:]
        checks.check(cell.verify(outs, refs), f"{cell.label}: output differs from bigint")
        timings[cell.label] = samples
    return timings


def exec_metrics(kinds: dict, rounds: list[dict]) -> dict:
    """Geometric means over cells (``kinds``: label -> "blas"/"ntt") of time
    per unit and of the bigint ratio.

    A cell's time per unit is its fastest timed part: the host's speed
    changes from one second to the next, and the fastest of many parts is
    the one least slowed.  Its ratio is the median over parts of generated
    time / bigint time, each pair measured back to back.
    """
    figures = {}
    for kind, time_name, ratio_name in (
        ("blas", "blas_ns_per_elem", "blas_vs_bigint"),
        ("ntt", "ntt_ns_per_butterfly", "ntt_vs_bigint"),
    ):
        per_unit, ratio = [], []
        for label in [label for label, one in kinds.items() if one == kind]:
            samples = [sample for one in rounds for sample in one[label]]
            per_unit.append(min(moma / units for units, moma, _ in samples) * 1e9)
            ratio.append(median(moma / bigint for _, moma, bigint in samples))
        figures[time_name] = (geomean(per_unit), "ns")
        figures[ratio_name] = (geomean(ratio), "ratio")
    return figures


#: The spans around a cell's whole generated-code path, by cell kind.
EXEC_PATHS = {"blas": "poly.engine", "ntt": "ntt.transform"}
#: Traced measurements of each cell; each figure is the fastest of them.
EXEC_BREAKDOWN_REPEATS = 3


def exec_breakdown(cells, checks: Checks) -> tuple[dict, list, float, float, list[str]]:
    """Per-layer execution figures: each cell's path, then its kernel split
    into pack, limb compute and unpack, then bigint, all under spans.

    Each unit (a BLAS element or an NTT butterfly) is one kernel call, so a
    path's overhead per unit is its time per unit minus the kernel's time
    per call.  That is a small difference of two large times, and the
    host's speed moves either by a fifth within seconds, so each cell is
    measured ``EXEC_BREAKDOWN_REPEATS`` times and every part keeps its
    fastest time.  Before each traced measurement the cell's path runs
    once untraced.  Returns (metrics, spans, traced wall seconds, untraced
    path seconds, per-cell report lines).
    """
    tracer = tracing.Tracer(sample_rate=1.0, capacity=1 << 20)
    rows = {}
    wall_s = plain_s = 0.0
    for cell in cells:
        calls = cell.calls()
        fastest = defaultdict(lambda: float("inf"))
        for _ in range(EXEC_BREAKDOWN_REPEATS):
            t0 = time.perf_counter()
            cell.run_moma()
            plain_s += time.perf_counter() - t0
            started = time.perf_counter()
            with tracer.trace("exec.cell", cat="exec", force=True, cell=cell.label):
                with tracing.span(EXEC_PATHS[cell.kind], cat="exec"):
                    t0 = time.perf_counter()
                    out = cell.run_moma()
                    times = {"path": time.perf_counter() - t0}
                with tracing.span("python_exec.pack", cat="exec"):
                    t0 = time.perf_counter()
                    packed = [cell.kernel.pack_inputs(one) for one in calls]
                    times["pack"] = time.perf_counter() - t0
                with tracing.span("python_exec.compute", cat="exec"):
                    t0 = time.perf_counter()
                    raw = [cell.kernel.call_limbs(*one) for one in packed]
                    times["compute"] = time.perf_counter() - t0
                with tracing.span("python_exec.unpack", cat="exec"):
                    t0 = time.perf_counter()
                    for one in raw:
                        cell.kernel.unpack_outputs(one)
                    times["unpack"] = time.perf_counter() - t0
                with tracing.span("baselines.bigint", cat="exec"):
                    t0 = time.perf_counter()
                    reference = cell.run_bigint()
                    times["bigint"] = time.perf_counter() - t0
            wall_s += time.perf_counter() - started
            checks.check(cell.verify(out, reference), f"{cell.label}: output differs from bigint")
            for part, seconds in times.items():
                fastest[part] = min(fastest[part], seconds)
        cost = cost_kernel(cell.kernel.kernel)
        per = len(calls)
        kernel_s = fastest["pack"] + fastest["compute"] + fastest["unpack"]
        rows[cell.label] = dict(
            kind=cell.kind,
            pack=fastest["pack"] / per * 1e9,
            compute=fastest["compute"] / per * 1e9,
            unpack=fastest["unpack"] / per * 1e9,
            path=fastest["path"] / cell.units * 1e9,
            overhead=(fastest["path"] / cell.units - kernel_s / per) * 1e9,
            bigint=fastest["bigint"] / cell.units * 1e9,
            word_ops=cost.weighted_ops,
            bytes=cost.bytes_per_element,
        )
    spans = list(tracer.drain())

    def mean(values):
        values = list(values)
        return sum(values) / len(values)

    blas = [row for row in rows.values() if row["kind"] == "blas"]
    ntt = [row for row in rows.values() if row["kind"] == "ntt"]
    metrics = {
        "python_exec.pack_ns": (geomean(r["pack"] for r in rows.values()), "ns"),
        "python_exec.compute_ns": (geomean(r["compute"] for r in rows.values()), "ns"),
        "python_exec.unpack_ns": (geomean(r["unpack"] for r in rows.values()), "ns"),
        "poly.engine_ns": (mean(r["overhead"] for r in blas), "ns"),
        "ntt.driver_ns": (mean(r["overhead"] for r in ntt), "ns"),
        "baselines.bigint_ns": (geomean(r["bigint"] for r in rows.values()), "ns"),
        "gpu.word_ops": (geomean(r["word_ops"] for r in rows.values()), "count"),
        "gpu.bytes_per_elem": (geomean(r["bytes"] for r in rows.values()), "bytes"),
    }
    lines = [
        "  cell          path ns  pack ns  compute ns  unpack ns  overhead ns  bigint ns  word ops  bytes"
    ]
    for label, r in rows.items():
        lines.append(
            f"  {label:<12}{r['path']:>9.0f}{r['pack']:>9.0f}{r['compute']:>12.0f}"
            f"{r['unpack']:>11.0f}{r['overhead']:>13.0f}{r['bigint']:>11.0f}"
            f"{r['word_ops']:>10.1f}{r['bytes']:>7}"
        )
    return metrics, spans, wall_s, plain_s, lines


# -- serve ---------------------------------------------------------------------


def both_targets(requests) -> list[ServeRequest]:
    """Each request as an executable kernel and as CUDA source."""
    return [
        dataclasses.replace(request, target=target) for request in requests for target in TARGETS
    ]


def reply_ok(request: ServeRequest, result, warm: bool) -> bool:
    """The reply answers the requested key with the requested kind."""
    if result.request.key() != request.key() or (warm and not result.warm):
        return False
    if request.target == "python_exec":
        return isinstance(result.artifact, CompiledKernel) and callable(result.artifact.function)
    return isinstance(result.artifact, str) and "__global__" in result.artifact


def check_replies(checks: Checks, pairs, warm: bool) -> dict:
    """Check every (request, future); returns key -> result for good replies."""
    done, _ = wait([future for _, future in pairs], timeout=REPLY_TIMEOUT_S)
    results = {}
    for request, future in pairs:
        if future not in done:
            checks.check(False, f"{request.key()}: no reply within {REPLY_TIMEOUT_S:g} s")
            continue
        try:
            result = future.result()
        except Exception as error:  # noqa: BLE001 - every failure is counted
            checks.check(False, f"{request.key()}: {type(error).__name__}: {error}")
            continue
        if checks.tamper("reply"):
            result = dataclasses.replace(result, artifact=None)
        if checks.check(reply_ok(request, result, warm), f"{request.key()}: wrong reply"):
            results[request.key()] = result
    return results


def start_cluster(requests, checks: Checks) -> tuple[ShardSupervisor, dict, float]:
    """One supervisor with one shard process, every request served once.

    Returns the supervisor, key -> result, and the seconds the cold serves
    took (tuning, compilation and the wire).
    """
    supervisor = ShardSupervisor(shards=1)
    try:
        started = time.perf_counter()
        results = check_replies(
            checks, [(request, supervisor.submit(request)) for request in requests], warm=False
        )
        return supervisor, results, time.perf_counter() - started
    except BaseException:
        supervisor.close()
        raise


@dataclass
class ServeRun:
    """What the open-loop slices and bursts of one run measured."""

    latencies: dict = field(default_factory=lambda: defaultdict(list))  # request -> seconds
    lags: list = field(default_factory=list)
    backlog: int = 0
    burst_rps: list = field(default_factory=list)


def shuffled_blocks(requests, count: int, rng) -> list:
    """``count`` requests as back-to-back seed-shuffled copies of the list.

    Every run sends each request equally often; the seed decides only the
    order, so a run's tail is not set by how many heavy requests it drew.
    """
    order = []
    while len(order) < count:
        block = list(requests)
        rng.shuffle(block)
        order += block
    return order[:count]


def open_loop(run: ServeRun, supervisor, requests, rng, rate: float, seconds: float,
              checks: Checks) -> None:
    """Send a seed-drawn schedule at ``rate`` for ``seconds`` from one
    generator thread, adding its latencies to ``run``.

    Latency runs from each request's scheduled send time to the moment its
    future completes (stamped in a done-callback), so a stalled generator
    or server shows in the figures instead of hiding in a late send.
    """
    count = max(1, int(rate * seconds))
    order = shuffled_blocks(requests, count, rng)
    schedule = [(index / rate, order[index]) for index in range(count)]
    finished = [0.0] * count
    futures = [None] * count
    completed = [0]
    lock = threading.Lock()

    def stamp(index, _future):
        finished[index] = time.perf_counter()
        with lock:
            completed[0] += 1

    start = time.perf_counter() + 0.05

    def generate():
        for index, (offset, request) in enumerate(schedule):
            due = start + offset
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            run.lags.append(time.perf_counter() - due)
            future = supervisor.submit(request)
            future.add_done_callback(lambda done, index=index: stamp(index, done))
            futures[index] = future
            with lock:
                run.backlog = max(run.backlog, index + 1 - completed[0])

    generator = threading.Thread(target=generate, name="perfbench-generator")
    generator.start()
    generator.join()
    check_replies(checks, list(zip((r for _, r in schedule), futures)), warm=True)
    for index, (offset, request) in enumerate(schedule):
        if finished[index]:
            run.latencies[request].append(finished[index] - (start + offset))


def burst(run: ServeRun, supervisor, requests, rng, count: int, checks: Checks) -> None:
    """Submit ``count`` requests back to back and record their drain rate."""
    done_at = [0.0] * count
    started = time.perf_counter()
    pairs = []
    for index, request in enumerate(shuffled_blocks(requests, count, rng)):
        future = supervisor.submit(request)
        future.add_done_callback(
            lambda done, index=index: done_at.__setitem__(index, time.perf_counter())
        )
        pairs.append((request, future))
    check_replies(checks, pairs, warm=True)
    run.burst_rps.append(count / (max(done_at) - started))


def reply_bytes(results: dict, target: str) -> float:
    """Mean wire size of the served replies for ``target``."""
    sizes = [
        len(
            protocol.encode_message(
                protocol.ServeReply(request_id=1, result=result),
                version=protocol.PROTOCOL_VERSION_2,
            )
        )
        for result in results.values()
        if result.request.target == target
    ]
    return sum(sizes) / len(sizes)


def serve_metrics(run: ServeRun, results: dict) -> dict:
    """Latency percentiles per artifact kind, the executable-kernel reply's
    latency and size against source, and the fastest burst's rate.

    ``serve_exec_vs_source`` pairs each family's executable-kernel requests
    with its source requests from the same interleaved schedule: the
    geometric mean over families of their median latencies' ratio.  The
    host's speed, which moves either median by a third between runs, mostly
    cancels, and so does the mix of families, which a ratio of the two
    pooled medians depends on: over six seeds of serve_mix on a 2-core
    Intel Xeon host, the pooled ratio's quartile spread was 0.09 of its
    median, this one's 0.02.
    """
    metrics = {}
    for kind, target in (("exec", "python_exec"), ("source", "cuda")):
        values = [
            value * 1e3
            for request, latencies in run.latencies.items()
            if request.target == target
            for value in latencies
        ]
        for q in (50, 90, 99):
            metrics[f"serve_{kind}_p{q}_ms"] = (percentile(values, q), "ms")
    pairs = [
        (latencies, run.latencies.get(dataclasses.replace(request, target="cuda")))
        for request, latencies in run.latencies.items()
        if request.target == "python_exec"
    ]
    metrics["serve_exec_vs_source"] = (
        geomean(median(executable) / median(source) for executable, source in pairs if source),
        "ratio",
    )
    metrics["serve_exec_reply_bytes"] = (reply_bytes(results, "python_exec"), "bytes")
    metrics["serve_peak_rps"] = (max(run.burst_rps), "req/s")
    metrics.update(generator_metrics(run))
    return metrics


#: The serving tier's own span names reported per request (``serve.queue``
#: is left out: it is recorded only on cold serves, and measured traffic is
#: warm).
TIER_SPANS = (
    "cluster.request",
    "route",
    "wire.encode",
    "shard.serve",
    "wire.decode",
    "cache.lookup",
)


def pinned(request: ServeRequest, config: KernelConfig) -> ServeRequest:
    """The request pinned to ``config`` (what a served tuned request ran)."""
    return dataclasses.replace(
        request, tune=False, word_bits=config.word_bits, multiplication=config.multiplication
    )


def serve_breakdown(supervisor, requests, results, session, rng, load,
                    checks: Checks) -> tuple[dict, list, list[str]]:
    """Per-layer serving figures.

    One open-loop slice of ``load`` runs untraced and then traced (the
    difference is the tracing overhead); the traced slice's spans, drained
    from supervisor and shard, give per-request self times under the
    tier's own span names.  Returns (metrics, spans, report lines).
    """
    plain, traced = ServeRun(), ServeRun()
    open_loop(plain, supervisor, requests, rng, load.rate, load.seconds, checks)
    before = supervisor.wire_snapshot()
    supervisor.tracer = tracing.Tracer(sample_rate=1.0, capacity=1 << 20)
    open_loop(traced, supervisor, requests, rng, load.rate, load.seconds, checks)
    wire = supervisor.wire_snapshot().delta(before)
    time.sleep(0.1)  # root spans close in done-callbacks that may still be running
    spans = list(supervisor.drain_spans())
    supervisor.tracer = tracing.Tracer(sample_rate=0.0)
    stats = supervisor.stats()

    per_request = self_time_by_name(spans)
    traces = max(1, len({one.trace_id for one in spans if one.name == "cluster.request"}))
    metrics = {}
    for kind, target in (("exec", "python_exec"), ("source", "cuda")):
        encode_us, decode_us = [], []
        for request in requests:
            if request.target != target:
                continue
            reply = protocol.ServeReply(request_id=1, result=results[request.key()])
            encode_times, decode_times = [], []
            for _ in range(3):
                t0 = time.perf_counter()
                data = protocol.encode_message(reply, version=protocol.PROTOCOL_VERSION_2)
                encode_times.append(time.perf_counter() - t0)
                t0 = time.perf_counter()
                protocol.decode_message(data, allow_pickled=True)
                decode_times.append(time.perf_counter() - t0)
            encode_us.append(median(encode_times) * 1e6)
            decode_us.append(median(decode_times) * 1e6)
        metrics[f"protocol.{kind}.reply_bytes"] = (reply_bytes(results, target), "bytes")
        metrics[f"protocol.{kind}.encode_us"] = (sum(encode_us) / len(encode_us), "us")
        metrics[f"protocol.{kind}.decode_us"] = (sum(decode_us) / len(decode_us), "us")

    router = ShardRouter([0])
    for request in requests:
        router.route(request)
    route_times = []
    for request in requests:
        t0 = time.perf_counter()
        router.route(request)
        route_times.append(time.perf_counter() - t0)
    metrics["shard.route_us"] = (median(route_times) * 1e6, "us")

    local = [pinned(request, results[request.key()].config) for request in requests]
    server = KernelServer(session=session)
    try:
        for future in [server.submit(request) for request in local]:
            future.result(timeout=REPLY_TIMEOUT_S)
        submit_times = []
        for _ in range(5):
            for request in local:
                t0 = time.perf_counter()
                server.submit(request).result(timeout=REPLY_TIMEOUT_S)
                submit_times.append(time.perf_counter() - t0)
    finally:
        server.close()
    metrics["server.warm_submit_us"] = (median(submit_times) * 1e6, "us")

    metrics.update(
        {
            "wire.messages": (wire.messages_sent + wire.messages_received, "count"),
            "wire.flushes": (wire.flushes, "count"),
            "wire.coalescing": (wire.coalescing_ratio, "ratio"),
            "wire.encode_s": (wire.encode_s, "s"),
            "wire.decode_s": (wire.decode_s, "s"),
            "cluster.warm_ratio": (stats.warm_rate, "ratio"),
            "cluster.shard_p50_ms": (stats.p50_latency_ms, "ms"),
        }
    )
    for name in TIER_SPANS:
        metrics[f"span.{name}_ms"] = (per_request.get(name, 0.0) / traces * 1e3, "ms")
    metrics.update(generator_metrics(traced))

    families = {request.workload(): request.device for request in requests}
    tune_s, candidates = 0.0, 0
    for workload, device in families.items():
        tuner = Autotuner(session=CompilerSession(), db=TuningDatabase())
        t0 = time.perf_counter()
        tuning = tuner.tune(workload, device)
        tune_s += time.perf_counter() - t0
        candidates += tuning.evaluations
    metrics["tune.search_s"] = (tune_s, "s")
    metrics["tune.candidates"] = (candidates, "count")

    lines = [f"serve: {traces} traced requests; mean self time per request"]
    total = 0.0
    for name, seconds in sorted(per_request.items(), key=lambda item: -item[1]):
        total += seconds / traces
        lines.append(f"  {name:<44} {seconds / traces * 1e3:10.4f} ms")
    traced_all = [v for values in traced.latencies.values() for v in values]
    plain_all = [v for values in plain.latencies.values() for v in values]
    mean_latency = sum(traced_all) / len(traced_all)
    lines.append(
        f"  {'(scheduled send to completion, not in spans)':<44} "
        f"{(mean_latency - total) * 1e3:10.4f} ms"
    )
    lines.append(
        f"  mean latency from schedule {mean_latency * 1e3:.4f} ms; tracing overhead "
        f"(traced - untraced p50) "
        f"{(percentile(traced_all, 50) - percentile(plain_all, 50)) * 1e3:+.4f} ms"
    )
    return metrics, spans, lines


def generator_metrics(run: ServeRun) -> dict:
    """How late the generator ran (p99) and the most requests in flight."""
    return {
        "generator.lag_ms": (percentile(run.lags, 99) * 1e3, "ms"),
        "generator.backlog": (run.backlog, "count"),
    }
