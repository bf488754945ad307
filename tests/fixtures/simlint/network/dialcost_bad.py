"""Bad fixture: hard-coded time charges the dials cannot turn."""


def tx(self, packet):
    yield self.sim.timeout(3.0)  # untracked-dial-cost
    yield self.sim.timeout(2 * 1.5)  # untracked-dial-cost (const expr)
    yield self.sim.timeout(self.knobs.delta_g)  # OK: knob-derived


def deliver(self, event):
    event.succeed(None, delay=0.5)  # untracked-dial-cost
    event.succeed(None, delay=self.knobs.delta_L)  # OK: knob-derived
    event.succeed(None)  # OK: immediate


def stall(self, packet):
    yield 3.0  # untracked-dial-cost (a bare sleep)
    yield -(2 * 1.5)  # untracked-dial-cost (const expr)
    yield self.knobs.delta_g  # OK: knob-derived
    self.sim.call_in(0.5, self.done, packet)  # untracked-dial-cost
    self.sim.call_in(self.knobs.delta_L, self.done, packet)  # OK
