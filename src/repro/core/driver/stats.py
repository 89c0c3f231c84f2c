"""Pipeline instrumentation: per-pass and per-compilation records.

Every cache-missing compilation through a
:class:`~repro.core.driver.session.CompilerSession` produces one
:class:`CompileRecord` carrying the legalization time and one
:class:`PassRecord` per optimization-pass application (timing plus the
statement-count delta).  :class:`CompileStats` aggregates the records into
the report surfaced by ``session.stats()``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.core.passes.pipeline import DEFAULT_MAX_ROUNDS

__all__ = ["PassRecord", "CompileRecord", "CompileStats"]


@dataclass(frozen=True)
class PassRecord:
    """One application of one optimization pass."""

    name: str
    round_index: int
    seconds: float
    statements_before: int
    statements_after: int

    @property
    def delta(self) -> int:
        """Statement-count change (negative means the pass removed code)."""
        return self.statements_after - self.statements_before


@dataclass(frozen=True)
class CompileRecord:
    """One cache-missing compilation (lowering, optionally plus emission)."""

    kernel_name: str
    key: str
    target: str | None
    seconds: float
    legalize_seconds: float
    statements_wide: int
    statements_legalized: int
    statements_final: int
    passes: tuple[PassRecord, ...] = ()

    @property
    def rounds(self) -> int:
        """Pipeline rounds the lowering ran (0 when no pass ran)."""
        return max((record.round_index for record in self.passes), default=-1) + 1

    @property
    def total_delta(self) -> int:
        """Net statement change over the whole pass pipeline."""
        return self.statements_final - self.statements_legalized

    def deltas_consistent(self) -> bool:
        """Whether the per-pass deltas sum to the total pipeline delta."""
        return sum(record.delta for record in self.passes) == self.total_delta


@dataclass
class CompileStats:
    """Aggregate view over a session's compilations.

    Mutations are lock-guarded: sessions are shared across the serving
    subsystem's worker threads, and ``cache_hits += 1`` is not atomic.
    """

    records: list[CompileRecord] = field(default_factory=list)
    cache_hits: int = 0
    _lock: threading.RLock = field(
        default_factory=threading.RLock, repr=False, compare=False
    )

    def record(self, entry: CompileRecord) -> None:
        """Append one cache-missing compilation."""
        with self._lock:
            self.records.append(entry)

    def record_hit(self) -> None:
        """Count one compilation served entirely from the cache."""
        with self._lock:
            self.cache_hits += 1

    @property
    def compilations(self) -> int:
        """Cache-missing compilations performed."""
        return len(self.records)

    @property
    def total_seconds(self) -> float:
        """Wall-clock spent compiling (legalization + passes + emission)."""
        return sum(record.seconds for record in self.records)

    def pass_seconds(self) -> dict[str, float]:
        """Total time per optimization pass, across all compilations."""
        totals: dict[str, float] = {}
        for record in self.records:
            for pass_record in record.passes:
                totals[pass_record.name] = (
                    totals.get(pass_record.name, 0.0) + pass_record.seconds
                )
        return totals

    def pass_deltas(self) -> dict[str, int]:
        """Total statement delta per optimization pass."""
        totals: dict[str, int] = {}
        for record in self.records:
            for pass_record in record.passes:
                totals[pass_record.name] = totals.get(pass_record.name, 0) + pass_record.delta
        return totals

    def report(self) -> str:
        """Human-readable summary (one line per compilation, pass totals)."""
        lines = [
            f"compilations: {self.compilations} "
            f"(+{self.cache_hits} served from cache), "
            f"{self.total_seconds * 1e3:.1f} ms total"
        ]
        for record in self.records:
            target = record.target or "ir"
            rounds = ""
            if record.passes:
                rounds = f" in {record.rounds} rounds"
                if record.rounds >= DEFAULT_MAX_ROUNDS:
                    # optimize() stops at the limit whether or not the last
                    # round still changed the kernel.
                    rounds += " (limit: may be unconverged)"
            lines.append(
                f"  {record.kernel_name} -> {target}: "
                f"{record.seconds * 1e3:.1f} ms "
                f"(legalize {record.legalize_seconds * 1e3:.1f} ms), "
                f"{record.statements_wide} wide -> {record.statements_legalized} "
                f"legal -> {record.statements_final} optimized{rounds}"
            )
        pass_seconds = self.pass_seconds()
        if pass_seconds:
            deltas = self.pass_deltas()
            lines.append("  pass totals:")
            for name in sorted(pass_seconds, key=pass_seconds.get, reverse=True):
                lines.append(
                    f"    {name}: {pass_seconds[name] * 1e3:.1f} ms, "
                    f"{deltas[name]:+d} statements"
                )
        return "\n".join(lines)
