"""The unified ``PrintQueuePort.query`` surface."""

import warnings

import pytest

from repro import QueryError, QueryInterval, QueryResult
from repro.core.config import PrintQueueConfig
from repro.core.printqueue import PrintQueuePort
from repro.core.queries import FlowEstimate
from repro.experiments.runner import simulate_workload
from repro.switch.packet import FlowKey, Packet
from repro.switch.port import EgressPort
from repro.switch.queue import EgressQueue
from repro.switch.scheduler import StrictPriorityScheduler
from repro.switch.switchsim import Switch
from repro.units import GBPS

CONFIG = PrintQueueConfig(m0=6, k=8, alpha=2, T=3, qm_levels=1024)


@pytest.fixture(scope="module")
def run():
    return simulate_workload(
        "ws", duration_ns=1_500_000, load=1.3, config=CONFIG, seed=21
    )


@pytest.fixture(scope="module")
def victim_interval(run):
    victim = max(run.records, key=lambda r: r.queuing_delay)
    return victim, QueryInterval.for_victim(
        victim.enq_timestamp, victim.deq_timestamp
    )


# ---------------------------------------------------------------------------
# round trips per mode


def test_async_interval_query_round_trip(run, victim_interval):
    victim, interval = victim_interval
    result = run.pq.query(interval=interval)
    assert isinstance(result, QueryResult)
    assert result.kind == "time_windows" and result.mode == "async"
    assert result.interval == interval and result.accepted
    assert result.at_ns is None and result.classes is None
    assert result.estimate.total > 0
    assert result.top(3) == result.estimate.top(3)


def test_queue_monitor_query_round_trip(run, victim_interval):
    victim, _ = victim_interval
    result = run.pq.query(at_ns=victim.enq_timestamp)
    assert result.kind == "queue_monitor" and result.mode is None
    assert result.at_ns == victim.enq_timestamp
    assert result.interval is None and result.snapshot is None
    assert isinstance(result.estimate, FlowEstimate)


def test_data_plane_query_round_trip(run, victim_interval):
    victim, interval = victim_interval
    result = run.pq.query(interval=interval, mode="data_plane")
    assert result.kind == "time_windows" and result.mode == "data_plane"
    assert result.accepted and result.snapshot is not None
    assert result.snapshot.source == "data-plane"
    # Default read instant: the last covered instant of the interval.
    assert result.at_ns == interval.end_ns - 1
    explicit = run.pq.query(
        interval=interval, mode="data_plane", at_ns=victim.deq_timestamp
    )
    assert explicit.at_ns == victim.deq_timestamp


def test_rejected_data_plane_query_is_reported_not_raised(
    run, victim_interval, monkeypatch
):
    _, interval = victim_interval
    monkeypatch.setattr(run.pq.analysis, "dp_read", lambda now_ns: None)
    result = run.pq.query(interval=interval, mode="data_plane")
    assert not result.accepted
    assert result.estimate.total == 0 and result.snapshot is None


def test_classed_queue_monitor_round_trip():
    pq = PrintQueuePort(
        CONFIG, d_ns=1200.0, num_classes=2, model_dp_read_cost=False
    )
    queues = [EgressQueue(), EgressQueue()]
    port = EgressPort(0, 10 * GBPS, scheduler=StrictPriorityScheduler(queues))
    port.add_enqueue_hook(pq.on_enqueue)
    port.add_egress_hook(pq.on_dequeue)
    switch = Switch([port])
    bulk = FlowKey.from_strings("10.0.0.9", "10.1.0.1", 5009, 80)
    high = FlowKey.from_strings("10.0.0.1", "10.1.0.1", 5001, 80)
    packets = [Packet(bulk, 1500, i * 400, priority=1) for i in range(200)]
    packets += [Packet(high, 1500, 10_000 + i * 900, priority=0) for i in range(100)]
    switch.run_trace(packets)
    pq.finish(packets[-1].arrival_ns + 1_000_000)

    t = 150_000
    both = pq.query(at_ns=t, classes=[0, 1])
    only_high = pq.query(at_ns=t, classes=[0])
    assert both.classes == (0, 1) and only_high.classes == (0,)
    assert only_high.estimate[bulk] == 0
    assert both.estimate.total >= only_high.estimate.total


# ---------------------------------------------------------------------------
# invalid combinations fail eagerly


def test_query_argument_validation(run, victim_interval):
    _, interval = victim_interval
    pq = run.pq
    with pytest.raises(QueryError):
        pq.query()  # neither interval nor at_ns
    with pytest.raises(QueryError):
        pq.query(interval=interval, classes=[0])
    with pytest.raises(QueryError):
        pq.query(interval=interval, at_ns=5)  # async + at_ns
    with pytest.raises(QueryError):
        pq.query(interval=interval, mode="sideways")
    with pytest.raises(QueryError):
        pq.query(at_ns=5, classes=[0])  # port has no classed monitor


def test_query_is_keyword_only(run, victim_interval):
    _, interval = victim_interval
    with pytest.raises(TypeError):
        run.pq.query(interval)


# ---------------------------------------------------------------------------
# the retired names are gone


def test_no_deprecation_shims_remain():
    """src/repro carries no warnings.warn(..., DeprecationWarning) shims,
    and the retired query methods no longer exist under any guise."""
    import inspect

    from repro.core import printqueue

    source = inspect.getsource(printqueue)
    assert "DeprecationWarning" not in source
    assert "warnings.warn" not in source
    for name in (
        "data_plane_query",
        "data_plane_query_interval",
        "async_query",
        "original_culprits",
        "original_culprits_by_class",
    ):
        assert not hasattr(PrintQueuePort, name)


def test_new_api_is_warning_free(run, victim_interval):
    victim, interval = victim_interval
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run.pq.query(interval=interval)
        run.pq.query(at_ns=victim.enq_timestamp)
        run.pq.query(interval=interval, mode="data_plane")


def test_package_reexports():
    import repro

    assert repro.QueryResult is QueryResult
    assert repro.QueryError is QueryError
