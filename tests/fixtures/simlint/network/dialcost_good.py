"""Good twin: every charge flows through params/knobs (or is zero)."""


def tx(self, packet):
    pre = self.knobs.delta_occ + packet.size_bytes * self.params.Gap
    yield pre
    yield max(0.0, self.params.gap - pre)


def deliver(self, event):
    event.succeed(None, delay=self.knobs.delta_L)
    event.succeed(None, delay=0)


def stall(self, packet):
    yield self.params.gap + self.knobs.delta_g
    yield 0.0  # zero: the idiomatic yield point
    yield  # no value: not a sleep
    self.sim.call_in(0.0, self.done, packet)
    self.sim.call_in(self.knobs.delta_L, self.done, packet)
