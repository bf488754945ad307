"""Tests for the per-message tracer."""

import pickle

import pytest

from repro import Cluster, LogGPParams, TuningKnobs
from repro.apps.base import Application
from repro.instruments.trace import MessageTracer, MessageTimeline

NOW = LogGPParams.berkeley_now()


class _WriterApp(Application):
    name = "writer"

    def __init__(self, n=10):
        self.n = n

    def run_rank(self, proc):
        arr = proc.allocate(2 * proc.n_ranks, name="t")
        yield from proc.barrier()
        peer = (proc.rank + 1) % proc.n_ranks
        for i in range(self.n):
            yield from proc.write(arr, 2 * peer, i)
        yield from proc.sync()


def test_tracer_records_full_timelines():
    tracer = MessageTracer()
    cluster = Cluster(n_nodes=2, seed=1)
    cluster.run(_WriterApp(), tracer=tracer)
    complete = tracer.timelines(complete_only=True)
    assert complete, "no complete message timelines recorded"
    for timeline in complete:
        assert timeline.times["sent"] <= timeline.times["injected"]
        assert timeline.times["injected"] < timeline.times["delivered"]
        assert timeline.times["delivered"] <= timeline.times["handled"]


def test_wire_latency_matches_machine_L():
    tracer = MessageTracer()
    cluster = Cluster(n_nodes=2, seed=1)
    cluster.run(_WriterApp(n=4), tracer=tracer)
    short_messages = [t for t in tracer.timelines(True)
                      if t.kind == "request"]
    for timeline in short_messages:
        # Wire stage = exactly the machine latency for short packets.
        assert timeline.wire_latency == pytest.approx(NOW.latency)


def test_delay_queue_shows_up_in_wire_stage():
    tracer = MessageTracer()
    cluster = Cluster(n_nodes=2, seed=1,
                      knobs=TuningKnobs.added_latency(40.0))
    cluster.run(_WriterApp(n=4), tracer=tracer)
    requests = [t for t in tracer.timelines(True)
                if t.kind == "request"]
    for timeline in requests:
        assert timeline.wire_latency == pytest.approx(NOW.latency + 40.0)


def test_latency_stats_summary():
    tracer = MessageTracer()
    Cluster(n_nodes=4, seed=2).run(_WriterApp(), tracer=tracer)
    stats = tracer.latency_stats()
    assert stats["count"] > 0
    assert stats["p50_us"] <= stats["p95_us"] <= stats["max_us"]
    assert stats["mean_us"] >= NOW.one_way_time()


def test_component_breakdown_sums_to_total():
    tracer = MessageTracer()
    Cluster(n_nodes=2, seed=3).run(_WriterApp(n=6), tracer=tracer)
    breakdown = tracer.component_breakdown()
    stats = tracer.latency_stats()
    total = sum(breakdown.values())
    assert total == pytest.approx(stats["mean_us"], rel=1e-9)


def test_render_produces_table():
    tracer = MessageTracer()
    Cluster(n_nodes=2, seed=1).run(_WriterApp(n=3), tracer=tracer)
    text = tracer.render(limit=5)
    assert "xfer" in text and "wire" in text
    assert len(text.splitlines()) >= 2


def test_untraced_run_unaffected():
    cluster = Cluster(n_nodes=2, seed=1)
    with_trace = MessageTracer()
    a = cluster.run(_WriterApp(), tracer=with_trace)
    b = cluster.run(_WriterApp())
    assert a.runtime_us == b.runtime_us  # tracing adds no simulated time


def test_timeline_partial_stages():
    timeline = MessageTimeline(xfer_id=1)
    assert not timeline.complete
    assert timeline.total_latency is None
    timeline.times["sent"] = 1.0
    timeline.times["handled"] = 11.0
    assert timeline.total_latency == 10.0


def test_recorded_timelines_are_the_dataclass_ones():
    # The tracer fills its timelines in without the class call; they
    # must still compare and pickle as constructed ones do.
    tracer = MessageTracer()
    Cluster(n_nodes=2, seed=1).run(_WriterApp(), tracer=tracer)
    for timeline in tracer.timelines():
        built = MessageTimeline(xfer_id=timeline.xfer_id, src=timeline.src,
                                dst=timeline.dst, kind=timeline.kind,
                                times=dict(timeline.times))
        assert timeline == built
        assert pickle.dumps(timeline) == pickle.dumps(built)
        assert pickle.loads(pickle.dumps(timeline)) == timeline
