"""Fixture: every SPMD-contract rule has a violation in here."""


class BadApp:
    def run_rank(self, proc):
        proc.compute(proc.cost.ops(4))          # unyielded (line 6)
        value = proc.read(None, 0)              # unyielded (line 7)
        yield from proc.am.send_request(1, "x", value)
        proc.barrier()                          # unyielded (line 9)

    def setup_rank(self, proc):
        # Degenerate form: no yield anywhere, still an entry point.
        proc.am.rpc(0, "x", None)               # unyielded (line 13)

    def lopsided(self, proc):
        if proc.rank == 0:
            yield from proc.barrier()           # rank-dependent (17)
        value = yield from proc.broadcast(None, root=0)
        if proc.rank % 2:
            total = yield from proc.allreduce(1, max)  # rank-dependent (20)
        else:
            total = value
        return total

    def register_handlers(self, table):
        table.register("one_arg", _short_handler)      # arity (line 26)
        table.register("three", lambda am, pkt, x: x)  # arity (line 27)


def _short_handler(am):
    return am
