"""Bad fixture: fabrics wired by hand beside Cluster.machine."""
from repro.am import layer
from repro.network.wire import Wire


def pair(sim, params, knobs, table):
    wire = Wire(sim, params.latency)  # one-machine
    return [layer.AmLayer(sim, node, params, knobs, wire,  # one-machine
                          table) for node in (0, 1)]


class Cluster:
    def run(self, sim, table):
        return Wire(sim, self.params.latency)  # one-machine
