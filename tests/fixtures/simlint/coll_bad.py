"""Fixture: the new ``repro.coll`` entry points, misused."""


class BadCollApp:
    def run_rank(self, proc):
        proc.gather(1, root=0)                  # unyielded (line 6)
        proc.alltoall([None])                   # unyielded (line 7)
        values = yield from proc.allgather(proc.rank)
        return values

    def lopsided(self, proc):
        if proc.rank == 0:
            got = yield from proc.gather(1, root=0)  # rank-dependent (13)
        else:
            got = None
        if proc.rank % 2:
            yield from proc.alltoall([None, None])   # rank-dependent (17)
        blocks = yield from proc.broadcast(got, root=0)
        return blocks

    def register_handlers(self, table):
        table.register("bad_relay", _relay_handler)


def _relay_handler(am, packet):
    return am.host.allgather(packet.payload)    # handler-purity (line 26)
