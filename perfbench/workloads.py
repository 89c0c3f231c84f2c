"""The three workloads: compile_cold, kernel_exec and serve_mix.

Every workload compiles, executes and serves its own kernels, so it can
report every end-to-end metric; its inputs make one phase dominate and
that phase fills the ``--seconds`` window:

* ``compile_cold`` — a fresh ``CompilerSession`` per round compiles the
  Fig. 2/3/5b set cold to ``python_exec`` and ``cuda``, then warm.  The
  compiled kernels run once as a check, and a small pinned subset is
  served from a one-shard cluster.
* ``kernel_exec`` — ``MomaBlasEngine`` vadd/vmul/axpy at 128/384/768 bits
  over 4,096 elements and ``GeneratedNTT`` round trips at the FHE
  (128-bit, n=1,024) and ZKP (384-bit, n=256) shapes, each against
  bigints.  Compilation happens in set-up; 128-bit kernels are served.
* ``serve_mix`` — every family of the five ``repro.loadgen.suites`` as an
  executable kernel and as CUDA source, tuned and warmed in set-up, then
  an open-loop schedule and a burst through ``ShardSupervisor.submit``.
  The served executable kernels run once as a check.

``SIZES["tiny"]`` shrinks every workload for the self-test.
"""

from __future__ import annotations

import dataclasses
import gc
import time
from dataclasses import dataclass, field

from repro.core.driver import CompilerSession
from repro.kernels import KernelConfig, compile_blas_kernel
from repro.loadgen.suites import SUITES
from repro.ntt.generated import GeneratedNTT
from repro.ntt.planner import make_plan
from repro.poly.blas import MomaBlasEngine, PythonBlasEngine
from repro.serve import ServeRequest

import phases
from harness import Checks, median
from phases import KernelSpec

BLAS_OPS = ("vadd", "vmul", "axpy")


@dataclass(frozen=True)
class ServeLoad:
    """One serving slice: ``seconds`` of open-loop schedule at ``rate``,
    then a burst of ``burst`` requests.  A run spreads several slices over
    its length."""

    rate: float
    seconds: float
    burst: int


#: The serving slice of compile_cold and kernel_exec, whose pinned mixes
#: are light: 80 requests of each artifact kind per slice.
FULL_LOAD = ServeLoad(rate=40.0, seconds=4.0, burst=100)
#: serve_mix's slice.  Its executable replies take milliseconds each to
#: decode in the benchmark process; at 40 req/s that process falls behind
#: (on a 2-core host: generator p99 lag 58-81 ms, backlog 6-8, exec/source
#: p50 ratio spread 0.30 over five seeds), so the mix is offered at half
#: that rate.
MIX_LOAD = ServeLoad(rate=20.0, seconds=2.0, burst=100)


@dataclass(frozen=True)
class Sizes:
    compile_specs: tuple = ()
    check_elements: int = 48
    check_ntt_size: int = 32
    exec_bits: tuple = ()
    exec_elements: int = 4096
    exec_chunk: int = 1024  # elements per timed engine call
    exec_ntts: tuple = ()  # (bits, size)
    serve_requests: tuple = ()
    serve_load: ServeLoad = FULL_LOAD
    exec_repeats: int = 1  # exec rounds per compile round (compile_cold)
    setup_passes: int = 3
    max_rounds: int = 8  # bounds the rounds when the dominant phase is tiny


def _blas(operation, bits, **kwargs):
    return KernelSpec("blas", operation, KernelConfig(bits=bits, **kwargs))


def _ct(bits, **kwargs):
    return KernelSpec("ntt", "cooley_tukey", KernelConfig(bits=bits, **kwargs))


def _suite_requests() -> tuple:
    distinct = {}
    for suite in SUITES.values():
        for spec in suite.specs:
            distinct.setdefault(spec.key(), spec)
    return tuple(phases.both_targets(distinct.values()))


def _pinned_requests(*requests) -> tuple:
    return tuple(
        phases.both_targets(dataclasses.replace(request, tune=False) for request in requests)
    )


TINY_SERVE = _pinned_requests(ServeRequest.ntt(bits=128, size=16), ServeRequest.blas("vadd", 128))
TINY_LOAD = ServeLoad(rate=20.0, seconds=0.5, burst=10)

SIZES = {
    "full": {
        "compile_cold": Sizes(
            # Fig. 3 butterflies (384 bits exercises limb pruning), the
            # Fig. 5b Karatsuba butterfly, and Fig. 2 BLAS at 256/1,024 bits.
            compile_specs=(
                _ct(128), _ct(256), _ct(384), _ct(768), _ct(256, multiplication="karatsuba"),
                *(_blas(op, bits) for bits in (256, 1024) for op in BLAS_OPS),
            ),
            exec_repeats=3,
            serve_requests=_pinned_requests(
                ServeRequest.ntt(bits=128, size=16),
                *(ServeRequest.blas(op, 256) for op in BLAS_OPS),
            ),
        ),
        "kernel_exec": Sizes(
            exec_bits=(128, 384, 768),
            exec_ntts=((128, 1024), (384, 256)),
            serve_requests=_pinned_requests(
                ServeRequest.ntt(bits=128, size=1024),
                *(ServeRequest.blas(op, 128) for op in BLAS_OPS),
            ),
        ),
        "serve_mix": Sizes(
            check_elements=32,
            serve_requests=_suite_requests(),
            serve_load=MIX_LOAD,
            setup_passes=1,
        ),
    },
    "tiny": {
        "compile_cold": Sizes(
            compile_specs=(_ct(128), _blas("vmul", 256)),
            check_elements=4,
            check_ntt_size=16,
            serve_requests=TINY_SERVE,
            serve_load=TINY_LOAD,
            setup_passes=2,
            max_rounds=2,
        ),
        "kernel_exec": Sizes(
            exec_bits=(128,),
            exec_elements=8,
            exec_ntts=((128, 16),),
            serve_requests=TINY_SERVE,
            serve_load=TINY_LOAD,
            setup_passes=2,
            max_rounds=2,
        ),
        "serve_mix": Sizes(
            check_elements=4,
            serve_requests=tuple(
                phases.both_targets(
                    (ServeRequest.ntt(bits=64, size=16), ServeRequest.blas("vmul", 64))
                )
            ),
            serve_load=TINY_LOAD,
            setup_passes=1,
        ),
    },
}


@dataclass
class State:
    """What one set-up pass leaves for the measured phase."""

    supervisor: object = None
    served: dict = field(default_factory=dict)
    compile_s: float = 0.0  # set-up compilation (kernel_exec, serve_mix)
    compile_work: int = 0
    extra: dict = field(default_factory=dict)

    def close(self) -> None:
        if self.supervisor is not None:
            self.supervisor.close()
            self.supervisor = None


def _serve_slice(run, state: State, sizes: Sizes, rng, checks: Checks) -> None:
    load = sizes.serve_load
    requests = list(sizes.serve_requests)
    gc.collect()
    phases.open_loop(run, state.supervisor, requests, rng, load.rate, load.seconds, checks)
    phases.burst(run, state.supervisor, requests, rng, load.burst, checks)


def _blas_operands(rng, bits: int, count: int):
    q, mu = phases.random_modulus(rng, bits - 4)
    pairs = phases.edge_pairs(rng, q)
    pairs += [(rng.randrange(q), rng.randrange(q)) for _ in range(max(0, count - len(pairs)))]
    x, y = [a for a, _ in pairs[:count]], [b for _, b in pairs[:count]]
    return x, y, rng.randrange(q), q, mu


# -- compile_cold --------------------------------------------------------------


class CompileCold:
    name = "compile_cold"

    def setup(self, sizes: Sizes, rng, checks: Checks) -> State:
        state = State()
        operands = {}
        for spec in sizes.compile_specs:
            if spec.kind == "blas":
                operands[spec] = _blas_operands(rng, spec.config.bits, sizes.check_elements)
            else:
                plan = make_plan(sizes.check_ntt_size, spec.config.effective_modulus_bits)
                values = [rng.randrange(plan.modulus) for _ in range(plan.size)]
                operands[spec] = (plan, values)
        state.extra["operands"] = operands
        state.supervisor, state.served, _ = phases.start_cluster(sizes.serve_requests, checks)
        return state

    def cells(self, sizes, state, artifacts, session, rng, checks):
        cells = []
        for spec, (runnable, _source) in artifacts.items():
            if spec.kind == "blas":
                x, y, scale, q, mu = state.extra["operands"][spec]
                cells.append(phases.blas_cell(spec.label, spec.operation, runnable, x, y, scale, q, mu))
                continue
            plan, values = state.extra["operands"][spec]
            phases.check_butterfly_edges(
                checks, spec.label, runnable, spec.operation, plan.modulus, plan.mu, rng
            )
            ntt = GeneratedNTT(plan.size, spec.config, plan=plan, session=session)
            cells.append(
                phases.ntt_cell(spec.label, runnable, plan, values, ntt.forward, ntt.inverse)
            )
        return cells

    def measure(self, sizes, state, rng, seconds, checks) -> dict:
        run, cold, work, statements, timings = phases.ServeRun(), [], set(), set(), []
        while not cold or (sum(cold) < seconds and len(cold) < sizes.max_rounds):
            gc.collect()
            session = CompilerSession()
            artifacts, cold_s = phases.compile_set(sizes.compile_specs, session)
            cold.append(cold_s)
            work.add(phases.compile_work(session))
            statements.add(phases.check_compiled(checks, artifacts))
            warm, _ = phases.compile_set(sizes.compile_specs, session)
            if checks.tamper("warm"):
                warm = dict.fromkeys(warm, (None, None))
            checks.check(
                all(warm[spec][i] is artifacts[spec][i] for spec in artifacts for i in (0, 1)),
                "warm recompile did not return the cached artifacts",
            )
            cells = self.cells(sizes, state, artifacts, session, rng, checks)
            kinds = {cell.label: cell.kind for cell in cells}
            for _ in range(sizes.exec_repeats):
                timings.append(phases.exec_round(cells, checks, bigint_repeats=5))
            # Serve once the round's compiler state is garbage, so the slice's
            # collections do not scan it.
            del session, artifacts, warm, cells
            _serve_slice(run, state, sizes, rng, checks)
        checks.check(
            len(statements) == len(work) == 1,
            f"rounds compiled differently: statements {statements}, work {work}",
        )
        metrics = phases.serve_metrics(run, state.served)
        metrics["compile_s"] = (median(cold), "s")
        metrics["compile_work"] = (min(work), "count")
        metrics["code_statements"] = (min(statements), "count")
        metrics.update(phases.exec_metrics(kinds, timings))
        return metrics

    def traced(self, sizes, state, rng, checks, gc_pauses) -> tuple:
        specs = sizes.compile_specs
        compiled = phases.compile_breakdown(specs, gc_pauses)
        session = compiled[4]
        artifacts, _ = phases.compile_set(specs, session)
        cells = self.cells(sizes, state, artifacts, session, rng, checks)
        return compiled, cells, session


# -- kernel_exec -----------------------------------------------------------------


class KernelExec:
    name = "kernel_exec"

    def setup(self, sizes: Sizes, rng, checks: Checks) -> State:
        state = State()
        session = CompilerSession()
        plans = {bits: make_plan(size, bits - 4) for bits, size in sizes.exec_ntts}
        started = time.perf_counter()
        engines = {
            bits: MomaBlasEngine(KernelConfig(bits=bits), session=session)
            for bits in sizes.exec_bits
        }
        ntts = {
            bits: GeneratedNTT(size, KernelConfig(bits=bits), plan=plans[bits], session=session)
            for bits, size in sizes.exec_ntts
        }
        state.compile_s = time.perf_counter() - started
        state.compile_work = phases.compile_work(session)
        reference = PythonBlasEngine()
        cells = []
        for bits, engine in engines.items():
            x, y, scale, q, mu = _blas_operands(rng, bits, sizes.exec_elements)
            for operation in BLAS_OPS:
                kernel = compile_blas_kernel(operation, KernelConfig(bits=bits), session=session)
                cells.append(
                    phases.blas_cell(
                        f"{operation}{bits}", operation, kernel, x, y, scale, q, mu,
                        engines=(engine, reference), chunk=sizes.exec_chunk,
                    )
                )
        for bits, ntt in ntts.items():
            values = [rng.randrange(ntt.modulus) for _ in range(ntt.size)]
            cells.append(
                phases.ntt_cell(
                    f"ntt{bits}", ntt.compiled_kernel, ntt.plan, values, ntt.forward, ntt.inverse,
                    repeats=2,
                )
            )
        state.extra["cells"] = cells
        state.supervisor, state.served, _ = phases.start_cluster(sizes.serve_requests, checks)
        return state

    def measure(self, sizes, state, rng, seconds, checks) -> dict:
        cells = state.extra["cells"]
        run, timings = phases.ServeRun(), []
        executing = 0.0
        while not timings or (executing < seconds and len(timings) < sizes.max_rounds):
            started = time.perf_counter()
            timings.append(phases.exec_round(cells, checks, bigint_repeats=3))
            executing += time.perf_counter() - started
            _serve_slice(run, state, sizes, rng, checks)
        metrics = phases.serve_metrics(run, state.served)
        metrics["compile_work"] = (state.compile_work, "count")
        metrics["code_statements"] = (sum(len(cell.kernel.kernel.body) for cell in cells), "count")
        metrics.update(phases.exec_metrics({cell.label: cell.kind for cell in cells}, timings))
        return metrics

    def traced(self, sizes, state, rng, checks, gc_pauses) -> tuple:
        cells = state.extra["cells"]
        specs = tuple(
            dict.fromkeys(
                [_blas(op, bits) for bits in sizes.exec_bits for op in BLAS_OPS]
                + [_ct(bits) for bits, _ in sizes.exec_ntts]
            )
        )
        compiled = phases.compile_breakdown(specs, gc_pauses)
        return compiled, cells, compiled[4]


# -- serve_mix -------------------------------------------------------------------


class ServeMix:
    name = "serve_mix"

    def setup(self, sizes: Sizes, rng, checks: Checks) -> State:
        state = State()
        state.supervisor, state.served, state.compile_s = phases.start_cluster(
            sizes.serve_requests, checks
        )
        return state

    def kernels(self, sizes, state) -> dict:
        """Distinct served executable kernels: KernelSpec -> (request, result)."""
        chosen = {}
        for request in sizes.serve_requests:
            result = state.served.get(request.key())
            if request.target != "python_exec" or result is None:
                continue
            spec = KernelSpec(request.kind, request.resolved_operation(), result.config)
            chosen.setdefault(spec, (request, result))
        return chosen

    def cells(self, sizes, state, rng, checks) -> list:
        cells = []
        for spec, (request, result) in self.kernels(sizes, state).items():
            kernel = result.artifact
            bits = spec.config.effective_modulus_bits
            if spec.kind == "blas":
                x, y, scale, q, mu = _blas_operands(rng, spec.config.bits, sizes.check_elements)
                cells.append(phases.blas_cell(spec.label, spec.operation, kernel, x, y, scale, q, mu))
                continue
            plan = make_plan(request.size, bits)
            phases.check_butterfly_edges(
                checks, spec.label, kernel, spec.operation, plan.modulus, plan.mu, rng
            )
            if spec.operation == "cooley_tukey":
                values = [rng.randrange(plan.modulus) for _ in range(plan.size)]
                cells.append(phases.ntt_cell(f"{spec.label}n{plan.size}", kernel, plan, values))
        return cells

    def measure(self, sizes, state, rng, seconds, checks) -> dict:
        cells = self.cells(sizes, state, rng, checks)
        run, timings = phases.ServeRun(), []
        while len(timings) * sizes.serve_load.seconds < seconds:
            _serve_slice(run, state, sizes, rng, checks)
            timings.append(phases.exec_round(cells, checks, bigint_repeats=5))
        kernels = self.kernels(sizes, state)
        # The shard compiled these out of sight; the same kernels compiled
        # here walk exactly the same statements.
        session = CompilerSession()
        phases.compile_set(kernels, session)
        metrics = phases.serve_metrics(run, state.served)
        metrics["compile_work"] = (phases.compile_work(session), "count")
        metrics["code_statements"] = (
            sum(len(result.artifact.kernel.body) for _, result in kernels.values()), "count"
        )
        metrics.update(phases.exec_metrics({cell.label: cell.kind for cell in cells}, timings))
        return metrics

    def traced(self, sizes, state, rng, checks, gc_pauses) -> tuple:
        compiled = phases.compile_breakdown(tuple(self.kernels(sizes, state)), gc_pauses)
        return compiled, self.cells(sizes, state, rng, checks), compiled[4]


WORKLOADS = {workload.name: workload for workload in (CompileCold(), KernelExec(), ServeMix())}
