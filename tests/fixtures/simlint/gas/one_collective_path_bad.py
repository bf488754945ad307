"""Bad fixture: second ways into the collective layer."""
from repro.coll.algorithms import pick


class Proc:
    def __init__(self):
        self.collective_box: dict = {}

    def barrier(self, algo=None):  # one-collective-path: picks twice
        pick(self, "barrier", 8, algo)
        return pick(self, "barrier", 8, algo)(self)

    def allreduce(self, value, op, algo=None):
        return pick(self, "allreduce", 8, algo)(self, value, op)


def drain_box(proc):
    proc.collective_box.clear()  # one-collective-path


def my_barrier(proc):
    return pick(proc, "barrier", 8, None)(proc)  # one-collective-path
