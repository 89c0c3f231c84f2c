"""Figure 5: sensitivity analyses on a 4,096-point NTT.

Two panels:

* Figure 5a — runtime of a 4,096-point NTT as the input bit-width grows from
  64 to 1,024 bits, on the H100 and the RTX 4090.
* Figure 5b — the same NTT built with the Karatsuba versus the schoolbook
  double-word multiplication, on the RTX 4090, across 128/256/384/768-bit
  inputs.
"""

from __future__ import annotations

from repro.core.driver import CompilerSession
from repro.evaluation.common import FigureResult, Series
from repro.gpu.simulator import estimate_ntt
from repro.kernels.config import KernelConfig

__all__ = [
    "SENSITIVITY_SIZE",
    "FIG5A_BIT_WIDTHS",
    "FIG5B_BIT_WIDTHS",
    "run_figure5a",
    "run_figure5b",
    "run_figure5b_tuned",
    "run_figure5b_served",
]

#: The fixed NTT size of both sensitivity analyses (Section 5.4).
SENSITIVITY_SIZE = 4096

#: Bit-widths swept in Figure 5a (64 to 1,024 bits).
FIG5A_BIT_WIDTHS = (64, 128, 192, 256, 320, 384, 448, 512, 576, 640, 768, 896, 1024)

#: Bit-widths compared in Figure 5b.
FIG5B_BIT_WIDTHS = (128, 256, 384, 768)


def run_figure5a(
    size: int = SENSITIVITY_SIZE, session: CompilerSession | None = None
) -> FigureResult:
    """Regenerate Figure 5a: NTT runtime versus input bit-width."""
    devices = ("h100", "rtx4090")
    points: dict[str, dict[int, float]] = {device: {} for device in devices}
    for bits in FIG5A_BIT_WIDTHS:
        config = KernelConfig(bits=bits)
        for device in devices:
            points[device][bits] = estimate_ntt(config, size, device, session=session).per_ntt_us
    return FigureResult(
        figure="Figure 5a",
        title=f"{size}-point NTT runtime vs input bit-width",
        x_label="input bit-width",
        y_label="us / NTT",
        series=[
            Series("H100", "NVIDIA H100", points["h100"]),
            Series("RTX 4090", "NVIDIA GeForce RTX 4090", points["rtx4090"]),
        ],
        notes=["single-transform steady-state runtime from the GPU cost model"],
    )


def run_figure5b(
    size: int = SENSITIVITY_SIZE, session: CompilerSession | None = None
) -> FigureResult:
    """Regenerate Figure 5b: Karatsuba versus schoolbook multiplication.

    Both series run on the RTX 4090 model; see EXPERIMENTS.md for the
    discussion of where the measured crossover differs from the paper's.
    """
    algorithms = ("schoolbook", "karatsuba")
    points: dict[str, dict[int, float]] = {algorithm: {} for algorithm in algorithms}
    for bits in FIG5B_BIT_WIDTHS:
        for algorithm in algorithms:
            config = KernelConfig(bits=bits, multiplication=algorithm)
            points[algorithm][bits] = estimate_ntt(
                config, size, "rtx4090", session=session
            ).per_ntt_us
    return FigureResult(
        figure="Figure 5b",
        title=f"{size}-point NTT: Karatsuba vs schoolbook multiplication (RTX 4090)",
        x_label="input bit-width",
        y_label="us / NTT",
        series=[
            Series("Schoolbook", "RTX 4090", points["schoolbook"]),
            Series("Karatsuba", "RTX 4090", points["karatsuba"]),
        ],
        notes=["generated-kernel operation counts drive both curves"],
    )


def run_figure5b_tuned(
    size: int = SENSITIVITY_SIZE,
    device: str = "rtx4090",
    session: CompilerSession | None = None,
    tuning_db=None,
) -> FigureResult:
    """The Figure 5b sweep with the autotuner choosing each configuration.

    Compares the paper-default configuration (schoolbook, 64-bit words,
    stage-per-launch) against the tuned winner for every bit-width — the
    "self-optimizing frontend" view of the sensitivity analysis.
    """
    # Imported lazily: repro.tune evaluates candidates through this package's
    # underlying simulator, not through the harnesses.
    from repro.tune import Autotuner, Workload

    tuner = Autotuner(session=session, db=tuning_db)
    default_points: dict[int, float] = {}
    tuned_points: dict[int, float] = {}
    speedups: list[str] = []
    for bits in FIG5B_BIT_WIDTHS:
        workload = Workload(kind="ntt", bits=bits, size=size)
        result = tuner.tune(workload, device)
        default_points[bits] = result.baseline_seconds * 1e6
        tuned_points[bits] = result.score_seconds * 1e6
        speedups.append(f"{bits}b: {result.speedup:.2f}x ({result.candidate.label()})")
    return FigureResult(
        figure="Figure 5b (tuned)",
        title=f"{size}-point NTT: paper-default vs autotuned configuration ({device})",
        x_label="input bit-width",
        y_label="us / NTT",
        series=[
            Series("Default", device, default_points),
            Series("Autotuned", device, tuned_points),
        ],
        notes=["modeled speedups: " + ", ".join(speedups)],
    )


def run_figure5b_served(
    size: int = SENSITIVITY_SIZE,
    device: str = "rtx4090",
    server=None,
    tuning_db=None,
) -> FigureResult:
    """The Figure 5b sweep served by a warm :class:`repro.serve.KernelServer`.

    First pass: every bit-width is requested cold (tune + compile), which is
    what warmup does from a recorded database.  Second pass: the same sweep
    is requested again and must be answered entirely warm — zero additional
    compilations, zero tuning-database accesses — which the notes record
    from the server's metrics.  The modeled runtimes equal the tuned
    harness's; what this view adds is the *serving* behaviour.
    """
    # Imported lazily: repro.serve drives this package's tuner and compiler,
    # not the other way around.
    from repro.serve import KernelServer, ServeRequest

    owns_server = server is None
    if owns_server:
        server = KernelServer(db=tuning_db, devices=(device,))
    try:
        requests = [
            ServeRequest(kind="ntt", bits=bits, size=size, device=device)
            for bits in FIG5B_BIT_WIDTHS
        ]
        for future in [server.submit(request) for request in requests]:
            future.result()  # cold pass (the warmup equivalent)

        compilations_before = server.session.stats().compilations
        db_lookups_before = server.db.stats().hits + server.db.stats().misses
        default_points: dict[int, float] = {}
        served_points: dict[int, float] = {}
        speedups: list[str] = []
        for request in requests:
            result = server.serve(request)
            assert result.warm, "second sweep must be answered from the resident table"
            bits = request.bits
            default_points[bits] = result.tuning.baseline_seconds * 1e6
            served_points[bits] = result.tuning.score_seconds * 1e6
            speedups.append(f"{bits}b: {result.tuning.speedup:.2f}x")
        compilations = server.session.stats().compilations - compilations_before
        db_stats = server.db.stats()
        db_lookups = db_stats.hits + db_stats.misses - db_lookups_before
        snapshot = server.metrics_snapshot()
        return FigureResult(
            figure="Figure 5b (served)",
            title=f"{size}-point NTT: paper-default vs served tuned configuration ({device})",
            x_label="input bit-width",
            y_label="us / NTT",
            series=[
                Series("Default", device, default_points),
                Series("Served (tuned)", device, served_points),
            ],
            notes=[
                "modeled speedups: " + ", ".join(speedups),
                f"warm sweep: {len(requests)} requests, {compilations} compilations, "
                f"{db_lookups} tuning-db lookups, "
                f"warm p50 ≤{snapshot.warm_p50_latency_ms:.3f} ms",
            ],
        )
    finally:
        if owns_server:
            server.close()
