"""Simulator engine throughput (not a paper artifact).

Tracks the discrete-event kernel's performance so regressions in the
simulation substrate are caught: a full LogGP sweep is ~10^7 events, so
event throughput directly bounds experiment wall-clock.

The performance ledger times both storms below on every run
(``sim.storm_events_per_s`` and ``am.storm_msgs_per_s`` in
``bench/``); the committed ``BENCH_6.json`` keeps the historical
numbers from when a calendar-queue tier was compared against this
loop (ARCHITECTURE.md section 13).
"""

from repro.sim import Simulator


def run_event_storm(n_processes: int = 200, hops: int = 50) -> int:
    """A ping chain workload exercising timeouts, events and processes."""
    sim = Simulator()

    def bouncer(index):
        for _hop in range(hops):
            yield sim.timeout(1.0 + (index % 7) * 0.1)

    for index in range(n_processes):
        sim.process(bouncer(index))
    sim.run()
    return sim.events_processed


def run_am_storm() -> int:
    """An AM-layer workload: 4 endpoints exchanging request storms."""
    from repro.am.layer import AmLayer, HandlerTable
    from repro.am.tuning import TuningKnobs
    from repro.network.loggp import LogGPParams
    from repro.network.wire import Wire

    sim = Simulator()
    params = LogGPParams.berkeley_now()
    wire = Wire(sim, params.latency)
    table = HandlerTable()
    table.register("storm", lambda am, pkt: None)
    ams = []
    for node in range(4):
        am = AmLayer(sim, node, params, TuningKnobs(), wire, table)
        am.host = None
        ams.append(am)

    def sender(am, peer):
        for i in range(250):
            yield from am.send_request(peer, "storm", i)
        yield from am.drain()

    procs = [sim.process(sender(am, (node + 1) % 4))
             for node, am in enumerate(ams)]
    sim.run(stop_event=sim.all_of(procs))
    return sim.events_processed


def test_engine_event_throughput(benchmark):
    events = benchmark(run_event_storm)
    assert events >= 200 * 50


def test_am_layer_throughput(benchmark):
    events = benchmark(run_am_storm)
    # 1000 requests + 1000 acks, several events each.
    assert events > 4000
