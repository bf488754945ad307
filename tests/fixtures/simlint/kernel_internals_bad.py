"""Bad fixture: kernel internals touched outside sim/."""


def stall(self, packet):
    yield self.sim.timeout(self.knobs.delta_g)  # kernel-internals
    wake = self.sim.event()  # kernel-internals
    wake.callbacks.append(self.deliver)  # kernel-internals
    self.sim.now = packet.clock  # kernel-internals
