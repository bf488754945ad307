"""Bad fixture: a layer that knows its observers."""


class Layer:
    def __init__(self, sim, probes, tracer=None):  # one-bus
        self.probes = probes

    def send(self, packet):
        self.stats.on_send(packet)  # one-bus
        self.stats.start_measurement(self.sim.now)  # one-bus
        return self.sanitizer  # one-bus
