"""Fixture twin: the new ``repro.coll`` entry points, used correctly."""


class GoodCollApp:
    def run_rank(self, proc):
        contributions = yield from proc.gather(proc.rank + 1, root=0)
        values = None
        if proc.rank == 0:
            values = [2 * value for value in contributions]
        mine = yield from proc.broadcast(values, root=0)
        everyone = yield from proc.allgather(mine)
        routed = yield from proc.alltoall(everyone, dense=True)
        return routed

    def register_handlers(self, table):
        table.register("good_note", _note_handler)


def _note_handler(am, packet):
    am.host.state["notes"].append(packet.payload)
