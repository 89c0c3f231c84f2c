"""Chaos end-to-end: a mid-replay shard kill must not lose a single request.

A mixed trace replays against a real 2-shard TCP cluster (in-process
listener threads, real localhost sockets — the same harness as
``tests/serve/test_tcp_transport.py``); at the midpoint the fault hook
kills one shard.  The supervisor's recovery machinery — reroute of the dead
shard's pending futures to ring successors, reconnect on the next dispatch
— must resolve every future, and the SLO report must show the fault and a
finite recovery window.
"""

import queue
import socket
import threading

import pytest

from repro.loadgen import (
    ReplayFault,
    TraceConfig,
    build_slo_report,
    generate_trace,
    replay,
)
from repro.loadgen.trace import ARRIVAL_CLOSED
from repro.serve import ShardSupervisor, serve_shard_tcp
from repro.serve import protocol


def _start_listener(shard_id):
    bound: queue.Queue = queue.Queue()
    thread = threading.Thread(
        target=serve_shard_tcp,
        kwargs=dict(
            host="127.0.0.1",
            port=0,
            shard_id=shard_id,
            workers=2,
            on_bound=bound.put,
        ),
        daemon=True,
    )
    thread.start()
    return bound.get(timeout=30), thread


def _shut_down_listener(address, thread):
    try:
        sock = socket.create_connection(address, timeout=5)
    except OSError:
        return  # already gone
    connection = protocol.StreamConnection(sock)
    try:
        connection.send_bytes(
            protocol.encode_message(
                protocol.HelloCall(
                    request_id=1,
                    protocol_version=protocol.PROTOCOL_VERSION,
                    shard_id=-1,
                )
            )
        )
        connection.recv_bytes()
        connection.send_bytes(
            protocol.encode_message(protocol.ShutdownCall(request_id=2))
        )
    except (OSError, EOFError):
        pass
    finally:
        connection.close()
    thread.join(timeout=60)


@pytest.fixture
def tcp_cluster():
    listeners = [_start_listener(shard_id) for shard_id in range(2)]
    supervisor = ShardSupervisor(
        shards=0,
        devices=("rtx4090",),
        connect=tuple(address for address, _ in listeners),
    )
    try:
        yield supervisor
    finally:
        supervisor.close()
        for address, thread in listeners:
            _shut_down_listener(address, thread)


#: Small word-sized kernels keep the chaos replay fast; two suites so the
#: trace is genuinely mixed and families spread across both shards.
_TRACE_CONFIG = TraceConfig(
    suites=("rns_conversion", "small_prime_ntt"),
    seed=3,
    requests=24,
    arrival=ARRIVAL_CLOSED,
    clients=4,
)


def test_mid_replay_shard_kill_loses_nothing(tcp_cluster):
    supervisor = tcp_cluster
    trace = generate_trace(_TRACE_CONFIG)
    fired = []

    def kill_one_shard():
        # Kill whichever shard has taken traffic so the fault actually
        # lands in the serving path (routing is family-hashed, so one
        # shard can be cold on a small trace).
        routed = supervisor.routed_counts()
        victim = max(routed, key=lambda shard_id: routed[shard_id])
        supervisor.kill_shard(victim)
        fired.append(victim)

    result = replay(
        supervisor,
        trace,
        fault=ReplayFault(action=kill_one_shard, at_fraction=0.5),
    )

    assert fired, "the fault hook never fired"
    assert result.fault_at_s is not None
    # The acceptance property: a shard death mid-replay never loses a
    # request — every future resolved, every outcome was served.
    assert result.lost_requests == 0
    assert len(result.outcomes) == len(trace.events)
    assert all(outcome.ok for outcome in result.outcomes), [
        outcome for outcome in result.outcomes if not outcome.ok
    ]

    report = build_slo_report(result, cluster=supervisor.stats())
    assert report.lost == 0
    assert report.ok == len(trace.events)
    assert report.fault_at_s == result.fault_at_s
    # Recovery must be visible in the report: requests submitted after the
    # kill completed successfully within the replay.
    assert report.recovery_window_s is not None
    assert 0.0 <= report.recovery_window_s <= report.duration_s


def test_fault_hook_exceptions_abort_the_replay(tcp_cluster):
    trace = generate_trace(_TRACE_CONFIG)

    def broken_hook():
        raise RuntimeError("chaos hook is itself broken")

    with pytest.raises(RuntimeError, match="chaos hook"):
        replay(
            tcp_cluster,
            trace,
            fault=ReplayFault(action=broken_hook, at_fraction=0.0),
        )
