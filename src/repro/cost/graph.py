"""The recorded communication dependency DAG ("simcost" graphs).

A :class:`CostGraph` is the durable artifact of one instrumented run:
every host-level communication event (sends, receptions, flow-control
blocking, the measurement markers) in the order the simulator executed
them, together with the machine configuration the run used.  Because
the simulator processes events in nondecreasing simulated time, the
recorded order is a valid topological order of the happens-before DAG:
every dependency of an event (the matching send of a reception, the
reply that returned a window credit) appears earlier in the list.  The
predictor (:mod:`repro.cost.predict`) exploits this: longest-path
evaluation is a single forward scan.

Nodes and edges, concretely:

* a ``send`` event is the completion of one host-level send (request,
  one-way, bulk last fragment, reply, or auto-ack) — program-order
  edge from the previous event on the same rank, plus a window-credit
  edge from the reply/CREDIT that freed its flow-control slot;
* a ``recv`` event is the completion of one host-level reception —
  program-order edge plus a message edge from the matching send,
  weighted by the sender's NIC transmit chain and the wire;
* a ``mark`` event brackets the measured region on rank 0.

Program-order edges carry the *busy* time between events: recorded
elapsed time minus blocked time minus the event's own recorded charge
— the dial-independent compute the replay preserves verbatim.

The recorder's row tuples (layouts on :class:`DepEvent`) are what a
graph stores and what JSON (``schema: repro-cost-graph-v1``) carries, so
``python -m repro.cost record`` and ``predict`` can run as separate
processes; :attr:`CostGraph.program` is what the replay scans.
"""

from __future__ import annotations

import dataclasses
import json
import math
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Dict, List, Tuple

from repro.am.tuning import TuningKnobs
from repro.network.loggp import LogGPParams
from repro.network.packet import fragment_sizes

__all__ = ["DepEvent", "CostGraph", "GRAPH_SCHEMA"]

#: JSON schema tag of serialized graphs.
GRAPH_SCHEMA = "repro-cost-graph-v1"


@dataclass
class DepEvent:
    """One node of the dependency DAG (see the module docstring)."""

    #: ``"send"`` | ``"recv"`` | ``"mark"``.
    kind: str
    rank: int
    #: Recorded completion time of the event (simulated µs).
    t: float
    #: Host charge paid at this event in the recorded run (µs):
    #: ``o_send + delta_o`` for sends, ``o_recv + delta_o`` for recvs.
    charge: float = 0.0
    #: Time this rank spent blocked (parked in ``wait_until``) between
    #: the previous event on this rank and this one (µs).
    blocked: float = 0.0
    #: Transfer id linking sends to their receptions and replies to
    #: their requests (-1 for marks).
    xfer: int = -1
    #: Destination rank for sends, source rank for recvs.
    peer: int = -1
    #: True for replies (short REPLY or bulk ``is_reply``); a send's
    #: reception key is ``(xfer, reply_like)`` since a request and its
    #: reply share one xfer id.
    reply_like: bool = False
    #: True for sends that consumed a flow-control window slot
    #: (requests and non-reply bulk transfers; replies/acks never do).
    takes_credit: bool = False
    #: True for one-way sends (credit returns as a NIC-level CREDIT).
    one_way: bool = False
    #: True for bulk transfers (the send stands for all fragments).
    bulk: bool = False
    #: Logical bytes of the message (bulk: whole transfer).
    nbytes: int = 0
    #: Fragment count of a bulk transfer (1 for short messages).
    frags: int = 1
    #: Marker label (``"start"`` / ``"stop"``) for ``mark`` events.
    label: str = ""

    # -- wire rows (what the recorder appends and the graph stores) -------
    #   ["m", rank, t, blocked, label]
    #   ["r", rank, t, charge, blocked, xfer, peer, reply_like]
    #   ["s", rank, t, charge, blocked, xfer, peer, reply_like,
    #    takes_credit, one_way, bulk, nbytes, frags]      (flags as 0/1)
    @classmethod
    def from_row(cls, row: list) -> "DepEvent":
        tag = row[0]
        if tag == "m":
            return cls(kind="mark", rank=row[1], t=row[2],
                       blocked=row[3], label=row[4])
        if tag == "r":
            return cls(kind="recv", rank=row[1], t=row[2], charge=row[3],
                       blocked=row[4], xfer=row[5], peer=row[6],
                       reply_like=bool(row[7]))
        if tag == "s":
            return cls(kind="send", rank=row[1], t=row[2], charge=row[3],
                       blocked=row[4], xfer=row[5], peer=row[6],
                       reply_like=bool(row[7]), takes_credit=bool(row[8]),
                       one_way=bool(row[9]), bulk=bool(row[10]),
                       nbytes=row[11], frags=row[12])
        raise ValueError(f"unknown event row tag {tag!r}")


@dataclass(frozen=True)
class CostGraph:
    """One instrumented run's dependency DAG plus its configuration.

    Frozen, rows included: :attr:`program` is cached on the instance,
    so nothing it was built from may change afterwards.
    """

    app_name: str
    n_nodes: int
    #: Baseline machine of the recorded run.
    params: LogGPParams
    #: Dials of the recorded run (the sweep baseline, usually all-zero).
    knobs: TuningKnobs
    window: int
    window_scope: str
    seed: int
    #: Measured runtime of the recorded run (ground truth at the
    #: recorded dials; the predictor's self-check).
    runtime_us: float
    #: Wire rows in recorded order (layouts on :class:`DepEvent`).
    rows: Tuple[tuple, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "rows", tuple(map(tuple, self.rows)))

    @property
    def events(self) -> List[DepEvent]:
        """The rows decoded for reading (built per access, never kept)."""
        return [DepEvent.from_row(row) for row in self.rows]

    @cached_property
    def program(self) -> tuple:
        """What no dial changes, resolved once for every replay.

        ``(steps, n_sends, n_windows)``, one ``(tag, rank, busy, a,
        back, returns, sizes)`` step per row, the replay's dict keys
        as dense slots.  ``a``: a mark's label (1 start, 2 stop); a
        recv's delivery slot, the index among sends of the latest
        earlier send with its ``(xfer, reply_like)``, or -1; a send's
        window if the send waits there for the earliest known credit
        return, else -1.  A send ``returns`` to window ``back`` nothing
        (0), its arrival (1) or that plus a wire leg (2); ``sizes`` are
        a bulk send's fragments.  Whether a send waits follows from
        scan order alone: its window is full and holds a known return.
        Full with none known, it drops the oldest credit, whose return
        then frees nothing.  A bad ``window`` or ``window_scope``
        raises ``ValueError`` naming the field; a malformed row, one
        whose times are negative or not finite, or one that takes or
        returns a credit its transfer may not, one naming its index.
        """
        window, scope = self.window, self.window_scope
        if type(window) is not int or window < 1:
            raise ValueError(f"window must be an int >= 1, got {window!r}")
        if scope not in ("per-destination", "global"):
            raise ValueError(f"unknown window_scope {scope!r}")
        per_dest, inf = scope == "per-destination", math.inf
        last_t = [0.0] * self.n_nodes
        replies, requests, windows, holds, fragments = {}, {}, {}, {}, {}
        # A transfer's window while it holds a credit (-1 once dropped,
        # None once returned); per window, how many held credits have a
        # known return, and the holders whose return is not, oldest first.
        known, pending = defaultdict(int), defaultdict(dict)
        steps = []
        n_sends = 0
        try:
            for index, row in enumerate(self.rows):
                tag = row[0]
                if tag == "s":
                    (_, rank, t, charge, blocked, xfer, peer, reply_like,
                     takes_credit, one_way, bulk, nbytes, _frags) = row
                elif tag == "r":
                    (_, rank, t, charge, blocked, xfer, _peer,
                     reply_like) = row
                    a = (replies if reply_like else requests).get(xfer, -1)
                elif tag == "m":
                    _, rank, t, blocked, label = row
                    charge, a = 0.0, {"start": 1, "stop": 2}.get(label, 0)
                else:
                    raise ValueError(f"unknown event row tag {tag!r}")
                if not 0 <= rank < self.n_nodes:
                    raise ValueError(f"rank {rank!r} is not a node")
                if not (0.0 <= t < inf and 0.0 <= charge < inf
                        and 0.0 <= blocked < inf):
                    raise ValueError(
                        f"times (t {t!r}, charge {charge!r}, blocked "
                        f"{blocked!r}) must be finite and non-negative")
                busy = (t - last_t[rank]) - blocked - charge
                busy = busy if busy > 0.0 else 0.0  # max(), minus a call
                last_t[rank] = t
                if tag != "s":
                    steps.append((tag, rank, busy, a, -1, 0, None))
                    continue
                a = back = -1
                if takes_credit:
                    if xfer in holds:
                        raise ValueError(
                            f"transfer {xfer!r} takes a second credit")
                    w = windows.setdefault(
                        (rank, peer if per_dest else -1), len(windows))
                    slots = pending[w]
                    if known[w] + len(slots) >= window:
                        if known[w]:
                            known[w] -= 1
                            a = w
                        else:
                            oldest = next(iter(slots))
                            del slots[oldest]
                            holds[oldest] = -1
                    holds[xfer] = w
                    slots[xfer] = None
                returns = 1 if reply_like else 2 if one_way else 0
                if returns:
                    back = holds.get(xfer)
                    if back is None:
                        raise ValueError(f"transfer {xfer!r} holds no "
                                         "credit to return")
                    holds[xfer] = None
                    if back < 0:
                        returns = 0
                    else:
                        del pending[back][xfer]
                        known[back] += 1
                if bulk and nbytes not in fragments:
                    fragments[nbytes] = fragment_sizes(nbytes)
                steps.append((tag, rank, busy, a, back, returns,
                              fragments[nbytes] if bulk else None))
                (replies if reply_like else requests)[xfer] = n_sends
                n_sends += 1
        except (TypeError, ValueError) as exc:
            raise ValueError(f"malformed event row {index}: {exc}") from exc
        return steps, n_sends, len(windows)

    def counts(self) -> Dict[str, int]:
        """Event-population summary (for ``describe`` and reports)."""
        sends = sum(1 for row in self.rows if row[0] == "s")
        recvs = sum(1 for row in self.rows if row[0] == "r")
        bulk = sum(1 for row in self.rows if row[0] == "s" and row[10])
        return {"events": len(self.rows), "sends": sends,
                "recvs": recvs, "bulk_sends": bulk}

    def describe(self) -> str:
        c = self.counts()
        return (f"CostGraph({self.app_name}, P={self.n_nodes}, "
                f"{c['events']} events: {c['sends']} sends / "
                f"{c['recvs']} recvs / {c['bulk_sends']} bulk, "
                f"runtime {self.runtime_us:.1f}us)")

    # -- JSON round trip ---------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": GRAPH_SCHEMA,
            "app_name": self.app_name,
            "n_nodes": self.n_nodes,
            "params": dataclasses.asdict(self.params),
            "knobs": dataclasses.asdict(self.knobs),
            "window": self.window,
            "window_scope": self.window_scope,
            "seed": self.seed,
            "runtime_us": self.runtime_us,
            "events": list(self.rows),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CostGraph":
        schema = data.get("schema") if isinstance(data, dict) else None
        if schema != GRAPH_SCHEMA:
            raise ValueError(
                f"not a simcost graph (schema {schema!r}, "
                f"expected {GRAPH_SCHEMA!r})")
        try:
            graph = cls(
                app_name=data["app_name"], n_nodes=data["n_nodes"],
                params=LogGPParams(**data["params"]),
                knobs=TuningKnobs(**data["knobs"]), window=data["window"],
                window_scope=data["window_scope"], seed=data["seed"],
                runtime_us=data["runtime_us"], rows=data["events"])
            graph.program  # validates every row: a bad file fails at load
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed simcost graph: {exc!r}") from exc
        return graph

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "CostGraph":
        return cls.from_dict(json.loads(text))
