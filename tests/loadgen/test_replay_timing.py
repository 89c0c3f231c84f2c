"""Open-loop replay timing: latency runs from each request's schedule.

The open-loop path settles futures only after the last injection; the
completion time must come from the moment each future resolved, not from
when the engine got around to collecting it.  Against a server whose
futures are resolved before ``submit`` returns, every request's latency
is just the generator's own lag — nowhere near the trace's duration.
"""

from concurrent.futures import Future
from types import SimpleNamespace

from repro.loadgen import TraceConfig, build_slo_report, generate_trace, replay


class _InstantServer:
    """A front door whose futures are already resolved when returned."""

    def submit(self, request, deadline_ms=None, tenant=None):
        future = Future()
        future.set_result(SimpleNamespace(warm=True))
        return future


def test_open_loop_latency_is_not_inflated_by_late_settling():
    trace = generate_trace(
        TraceConfig(suites=("rns_conversion",), seed=5, requests=200, rate_rps=100.0)
    )
    result = replay(_InstantServer(), trace)
    report = build_slo_report(result)
    assert report.ok == 200
    assert report.p99_latency_ms < 50.0
    for outcome, event in zip(result.outcomes, trace.events):
        # Each request is timed from its scheduled injection time.
        assert outcome.submitted_at_s == event.at_ms / 1000.0
        assert outcome.completed_at_s >= outcome.submitted_at_s
