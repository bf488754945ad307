"""Good twin: Proc creates the box and each primitive picks once."""
from repro.coll.algorithms import pick


class Proc:
    def __init__(self):
        self.collective_box: dict = {}

    def barrier(self, algo=None):
        return pick(self, "barrier", 8, algo)(self)
