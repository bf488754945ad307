"""Good twin: Cluster.machine is the one place a fabric is wired."""
from repro.am.layer import AmLayer
from repro.network.wire import Wire


class Cluster:
    def machine(self, sim, handlers):
        wire = Wire(sim, self.params.latency)
        return [AmLayer(sim, node, self.params, self.knobs, wire, handlers)
                for node in range(self.n_nodes)]

    def run(self, sim, handlers):
        return self.machine(sim, handlers)


def two_nodes(sim, params, handlers):
    return Cluster(2, params=params).machine(sim, handlers)
