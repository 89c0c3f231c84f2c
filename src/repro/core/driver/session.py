"""The unified compiler driver: one entry point for every layer.

A :class:`CompilerSession` owns the three things the frontends used to
hand-chain on their own — the :class:`RewriteOptions`, the optimization pass
pipeline, and a backend target — plus a content-addressed kernel cache and
per-pass instrumentation:

    session = CompilerSession()
    kernel = build_butterfly_kernel(KernelConfig(bits=256))
    lowered = session.lower(kernel)                      # legalize + passes
    cuda = session.compile(kernel, target="cuda")        # ... + emission
    runnable = session.compile(kernel, target="python_exec")
    print(session.stats().report())

Cache keys are stable content digests of (builder IR, options, pipeline,
target), so identical requests — within a session or across sessions — are
recognized as the same compilation; ``session.cache_info()`` exposes the
hit/miss counters and the LRU bound keeps memory finite.
"""

from __future__ import annotations

import dataclasses
import threading
import time

from repro.core.ir.fingerprint import kernel_digest
from repro.core.ir.kernel import Kernel
from repro.core.passes.pipeline import DEFAULT_PIPELINE, optimize
from repro.core.rewrite.legalize import legalize
from repro.core.rewrite.options import RewriteOptions
from repro.obs import trace as tracing
from repro.core.driver.cache import CacheStats, ContentAddressedCache
from repro.core.driver.stats import CompileRecord, CompileStats, PassRecord
from repro.core.driver.targets import Target, emit, get_target

__all__ = [
    "CompilerSession",
    "DEFAULT_CACHE_SIZE",
    "get_default_session",
    "set_default_session",
    "reset_default_session",
]

#: Default bound on cached lowered kernels + emitted artifacts per session.
#: Sized so a full evaluation sweep (every figure at every bit-width, both
#: lowered IR and emitted artifacts) stays resident.
DEFAULT_CACHE_SIZE = 1024


class CompilerSession:
    """Drives build → legalize → optimize → emit with caching and stats.

    Args:
        options: default legalization options; per-call ``options`` (e.g.
            from a :class:`~repro.kernels.config.KernelConfig`) override them.
        pipeline: the optimization pass sequence run by :meth:`lower`.
        cache_size: LRU bound on cache entries (lowered kernels and emitted
            artifacts share the one cache).
    """

    def __init__(
        self,
        options: RewriteOptions | None = None,
        pipeline=DEFAULT_PIPELINE,
        cache_size: int = DEFAULT_CACHE_SIZE,
    ) -> None:
        self.options = options if options is not None else RewriteOptions()
        self.pipeline = tuple(pipeline)
        self._pipeline_token = tuple(p.__name__ for p in self.pipeline)
        self._cache = ContentAddressedCache(maxsize=cache_size)
        self._stats = CompileStats()
        self._tuning_db = None  # lazily created by compile_tuned
        # Guards lazy members (the tuning db); the cache and the stats carry
        # their own locks, so compile()/lower() never serialize on this.
        self._lock = threading.RLock()

    # -- cache keys ---------------------------------------------------------

    @staticmethod
    def _options_token(options: RewriteOptions) -> tuple:
        # astuple tracks the dataclass: a future RewriteOptions field can
        # never be silently excluded from the cache key.
        return dataclasses.astuple(options)

    def _key(
        self,
        kernel: Kernel,
        stage: str,
        options: RewriteOptions,
        run_passes: bool,
        target_name: str = "",
    ) -> str:
        return kernel_digest(
            kernel,
            extra=(
                stage,
                self._options_token(options),
                run_passes,
                self._pipeline_token,
                target_name,
            ),
        )

    # -- compilation --------------------------------------------------------

    def lower(
        self,
        kernel: Kernel,
        options: RewriteOptions | None = None,
        run_passes: bool = True,
    ) -> Kernel:
        """Legalize a wide-typed kernel and run the pass pipeline (cached)."""
        options = options if options is not None else self.options
        key = self._key(kernel, "lower", options, run_passes)
        cached = self._cache.get(key)
        if cached is not None:
            self._stats.record_hit()
            return cached

        traced = tracing.current() is not None
        wall_started = time.time() if traced else 0.0
        started = time.perf_counter()
        legalized = legalize(kernel, options)
        legalize_seconds = time.perf_counter() - started
        statements_legalized = len(legalized.body)

        pass_records: list[PassRecord] = []
        if run_passes:
            legalized = optimize(
                legalized,
                pipeline=self.pipeline,
                observer=lambda name, round_index, seconds, before, after: (
                    pass_records.append(
                        PassRecord(name, round_index, seconds, before, after)
                    )
                ),
            )
        if traced:
            # Turn the per-pass timings into child spans of whatever serve
            # span is active.  Passes run back-to-back after legalization, so
            # each span's wall start is the cumulative end of its
            # predecessors (exact durations, approximate placement).
            tracing.record(
                "compile.legalize",
                wall_started,
                legalize_seconds,
                cat="compile",
                kernel=kernel.name,
            )
            cursor = wall_started + legalize_seconds
            for pass_record in pass_records:
                tracing.record(
                    f"pass.{pass_record.name}",
                    cursor,
                    pass_record.seconds,
                    cat="compile",
                    round=pass_record.round_index,
                    statements_before=pass_record.statements_before,
                    statements_after=pass_record.statements_after,
                )
                cursor += pass_record.seconds
        self._stats.record(
            CompileRecord(
                kernel_name=kernel.name,
                key=key,
                target=None,
                seconds=time.perf_counter() - started,
                legalize_seconds=legalize_seconds,
                statements_wide=len(kernel.body),
                statements_legalized=statements_legalized,
                statements_final=len(legalized.body),
                passes=tuple(pass_records),
            )
        )
        self._cache.put(key, legalized)
        return legalized

    def compile(
        self,
        kernel: Kernel,
        target: str | Target = "python_exec",
        options: RewriteOptions | None = None,
        run_passes: bool = True,
    ) -> object:
        """Lower a wide-typed kernel and emit it on a target (cached).

        Returns the target's artifact: CUDA/C source for the ``cuda`` and
        ``c99`` targets, a :class:`CompiledKernel` for ``python_exec``.
        """
        resolved = get_target(target)
        options = options if options is not None else self.options
        key = self._key(kernel, "emit", options, run_passes, resolved.name)
        cached = self._cache.get(key)
        if cached is not None:
            self._stats.record_hit()
            return cached

        lowered = self.lower(kernel, options=options, run_passes=run_passes)
        traced = tracing.current() is not None
        wall_started = time.time() if traced else 0.0
        started = time.perf_counter()
        artifact = emit(lowered, resolved)
        if traced:
            tracing.record(
                "compile.emit",
                wall_started,
                time.perf_counter() - started,
                cat="compile",
                target=resolved.name,
            )
        self._stats.record(
            CompileRecord(
                kernel_name=kernel.name,
                key=key,
                target=resolved.name,
                seconds=time.perf_counter() - started,
                legalize_seconds=0.0,
                statements_wide=len(kernel.body),
                statements_legalized=len(lowered.body),
                statements_final=len(lowered.body),
            )
        )
        self._cache.put(key, artifact)
        return artifact

    def compile_tuned(
        self,
        kernel_or_workload,
        target: str | Target = "python_exec",
        device: str = "rtx4090",
        db=None,
        strategy: str = "auto",
        seed: int = 0,
    ):
        """Autotune a workload's configuration, then compile the winner.

        Accepts either a frontend-built wide :class:`Kernel` (the workload is
        derived from its metadata) or a :class:`repro.tune.Workload`.  The
        autotuner searches the configuration space against the GPU cost model
        for ``device`` — consulting (and updating) the tuning database ``db``
        so each (kernel family, device) pair is searched once — and the
        winning configuration's kernel is compiled on ``target``.  When no
        ``db`` is supplied the session keeps its own in-memory database, so
        repeated calls within one session still search only once.

        Returns a :class:`repro.tune.TunedCompilation` carrying the artifact
        and the tuned configuration; its modeled cost is ≤ the paper-default
        configuration's by construction.
        """
        # Imported lazily: repro.tune sits above the driver in the layer
        # graph (it compiles candidates *through* sessions).
        from repro.tune import Autotuner, TunedCompilation, TuningDatabase, Workload

        if db is None:
            with self._lock:
                if self._tuning_db is None:
                    self._tuning_db = TuningDatabase()
                db = self._tuning_db
        if isinstance(kernel_or_workload, Kernel):
            workload = Workload.from_kernel(kernel_or_workload)
        else:
            workload = kernel_or_workload
        tuner = Autotuner(session=self, db=db, strategy=strategy, seed=seed)
        tuning = tuner.tune(workload, device)
        resolved = get_target(target)
        artifact = self.compile(
            workload.build(tuning.config),
            target=resolved,
            options=tuning.config.rewrite_options(),
        )
        return TunedCompilation(
            artifact=artifact,
            config=tuning.config,
            target=resolved.name,
            tuning=tuning,
        )

    # -- observability ------------------------------------------------------

    def stats(self) -> CompileStats:
        """The session's compilation records (live object, not a copy)."""
        return self._stats

    def cache_info(self) -> CacheStats:
        """Hit/miss/eviction counters and current size of the kernel cache."""
        return self._cache.stats()

    def clear_cache(self) -> None:
        """Drop every cached kernel and artifact (counters are preserved)."""
        self._cache.clear()


_DEFAULT_SESSION: CompilerSession | None = None
_DEFAULT_SESSION_LOCK = threading.Lock()


def get_default_session() -> CompilerSession:
    """The process-wide session used when callers do not supply their own.

    Initialization is race-free (double-checked locking): concurrent first
    callers all receive the *same* session, so its kernel cache is genuinely
    process-wide.  The fast path reads the module global once without taking
    the lock — safe because the binding is only ever replaced atomically,
    never mutated in place.
    """
    session = _DEFAULT_SESSION
    if session is None:
        with _DEFAULT_SESSION_LOCK:
            session = _DEFAULT_SESSION
            if session is None:
                session = set_default_session(CompilerSession())
    return session


def set_default_session(session: CompilerSession) -> CompilerSession:
    """Replace the process-wide default session (returns it for chaining).

    The swap is atomic, but callers racing :func:`get_default_session` may
    still observe the previous session until the assignment lands; callers
    that need a hard handoff should pass sessions explicitly.
    """
    global _DEFAULT_SESSION
    _DEFAULT_SESSION = session
    return session


def reset_default_session() -> CompilerSession:
    """Install (and return) a fresh default session — used by tests."""
    return set_default_session(CompilerSession())
