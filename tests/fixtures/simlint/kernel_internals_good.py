"""Good twin: sleep by yielding the delay, call back through call_in."""


def stall(self, packet):
    yield self.knobs.delta_g
    self.sim.call_in(self.knobs.delta_L, self.deliver, packet)
    packet.clock = self.sim.now
