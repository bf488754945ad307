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

A ``send`` event is the completion of one host-level send (request,
one-way, bulk last fragment, reply, or auto-ack), a ``recv`` that of
one host-level reception, and a ``mark`` brackets the measured region
on rank 0; the edges between them, and their weights, are
:mod:`repro.cost.predict`'s.

A graph holds its events as one structured array of :data:`ROW`, 55
bytes an event.  :meth:`CostGraph.save` writes it and the configuration
as one ``.npz`` (schema ``repro-cost-graph-v2``) that
:meth:`CostGraph.load` reads without pickle, so ``python -m repro.cost
record`` and ``predict`` run as separate processes.  The replay scans
:attr:`CostGraph.program`, compiled once into arrays.
"""

from __future__ import annotations

import dataclasses
import json
import zipfile
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Optional

import numpy as np

from repro.am.tuning import TuningKnobs
from repro.network.loggp import LogGPParams
from repro.network.packet import fragment_sizes

__all__ = ["CostGraph", "GRAPH_SCHEMA", "ROW"]

#: Schema tag of saved graphs (v1 was one JSON list per row).
GRAPH_SCHEMA = "repro-cost-graph-v2"

#: A row's ``tag``.
MARK, RECV, SEND = 0, 1, 2
#: A row's ``flags``: a reply (short REPLY or bulk ``is_reply``), a send
#: that took a window slot (requests, non-reply bulk), a one-way send
#: (its credit returns as a CREDIT), a bulk send (for all its fragments).
REPLY_LIKE, TAKES_CREDIT, ONE_WAY, BULK = 1, 2, 4, 8
#: A mark row's ``label`` codes.
LABELS = {"start": 1, "stop": 2}
#: What reading an entry of a file that is no intact ``.npz`` raises.
_TORN = (KeyError, IndexError, ValueError, EOFError, zipfile.BadZipFile)

#: One event of the DAG, in the field order of the recorder's tuples.
ROW = np.dtype([
    ("tag", "i1"), ("rank", "i4"),
    ("t", "f8"),        # recorded completion time (simulated µs)
    ("charge", "f8"),   # host charge paid at the event (0 for marks)
    ("blocked", "f8"),  # time parked since the rank's previous event
    ("xfer", "i8"),     # transfer id (-1 for marks)
    ("peer", "i4"),     # destination of a send, source of a recv
    ("flags", "u1"),
    ("nbytes", "i8"),   # logical bytes of a send (bulk: the transfer)
    ("frags", "i4"),    # fragments of a bulk send (1 otherwise)
    ("label", "u1"),    # a mark's LABELS code
])


#: What no dial changes (see :attr:`CostGraph.program`).
Program = namedtuple("Program", "tag rank busy a back returns frag "
                     "fragments sizes n_sends n_windows")


@dataclass(frozen=True, eq=False)
class CostGraph:
    """One instrumented run's dependency DAG plus its configuration.

    Frozen, rows included (read-only: what it is handed is copied
    unless it is a read-only ``ROW`` array already):
    :attr:`program` is cached on the instance, so nothing it was built
    from may change afterwards.
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
    #: One :data:`ROW` per event in recorded order (an array, or a list
    #: of its tuples).
    rows: np.ndarray

    def __post_init__(self) -> None:
        rows = self.rows
        if not (isinstance(rows, np.ndarray) and rows.dtype == ROW
                and not rows.flags.writeable):
            rows = np.array(rows, dtype=ROW)
            rows.setflags(write=False)
        object.__setattr__(self, "rows", rows)

    def __reduce__(self):
        # Through __init__, so a copy from a pool worker is sealed too.
        return type(self), tuple(getattr(self, field.name)
                                 for field in dataclasses.fields(self))

    @cached_property
    def program(self) -> Program:
        """What no dial changes, resolved once for every replay.

        Read-only arrays per row: ``tag``, ``rank``, ``busy`` and ``a``:
        a mark's label code; a recv's delivery slot, the index among
        sends of the latest earlier send with its ``(xfer,
        reply_like)``, or -1; a send's window if it waits there for the
        earliest known credit return, else -1.  Per send: it
        ``returns`` to window ``back`` nothing (0), its arrival (1) or
        that plus a wire leg (2); ``frag`` indexes ``fragments``, the
        sizes of each distinct bulk transfer (-1: short), and ``sizes``
        lists the distinct fragment sizes, ascending.  A send waits if
        its window is full and holds a known return; full with none
        known, it drops the oldest credit, whose return then frees
        nothing.  A bad ``window`` or ``window_scope`` raises
        ``ValueError`` naming the field; the first row with an unknown
        tag, a rank that is not a node, negative or non-finite times,
        or a credit its transfer may not take or return, its index.
        """
        window, scope = self.window, self.window_scope
        if type(window) is not int or window < 1:
            raise ValueError(f"window must be an int >= 1, got {window!r}")
        if scope not in ("per-destination", "global"):
            raise ValueError(f"unknown window_scope {scope!r}")
        rows, n = self.rows, len(self.rows)
        tag, rank = rows["tag"], rows["rank"]
        bad = (tag < MARK) | (tag > SEND) | (rank < 0) | (rank >= self.n_nodes)
        for field in ("t", "charge", "blocked"):
            bad |= ~(np.isfinite(rows[field]) & (rows[field] >= 0.0))
        first_bad = int(bad.argmax()) if bad.any() else n
        send = np.flatnonzero(tag == SEND)
        a = np.full(n, -1, np.int32)
        wait, back, returns, n_windows = self._credits(send[send < first_bad])
        if first_bad < n:
            raise ValueError(f"malformed event row {first_bad}: "
                             + _fault(rows[first_bad], self.n_nodes))
        a[send] = wait
        _deliveries(rows, a)
        a[tag == MARK] = rows["label"][tag == MARK]
        bulk = rows["flags"][send] & BULK != 0
        nbytes, frag_of = np.unique(rows["nbytes"][send][bulk],
                                    return_inverse=True)
        frag = np.full(len(send), -1, np.int32)
        frag[bulk] = frag_of
        fragments = tuple(tuple(fragment_sizes(size))
                          for size in nbytes.tolist())
        program = Program(
            tag, rank, _busy(rows), a, np.array(back, np.int32),
            np.array(returns, np.int8), frag, fragments,
            tuple(sorted({size for sizes in fragments for size in sizes})),
            len(send), n_windows)
        for array in program[:7]:
            array.setflags(write=False)
        return program

    @cached_property
    def replays(self) -> Dict[tuple, float]:
        """Predicted runtime per edge-cost point, for the graph's
        lifetime: :mod:`repro.cost.predict` scans a point once and reads
        it here afterwards.  A copy (``dataclasses.replace``, a pickle,
        :meth:`load`) starts empty."""
        return {}

    def _credits(self, send: np.ndarray) -> tuple:
        """The window bookkeeping, a scan of the send rows ``send``
        names, in order: per send, the window it waits on, the window
        its credit returns to and how (the program's ``a``, ``back`` and
        ``returns``), and the number of windows."""
        flags = self.rows["flags"][send]
        takes = flags & TAKES_CREDIT != 0
        # A credit-taking send's window: its (rank, peer), or its rank,
        # as one int64 (rank in the high half, peer's bits in the low).
        key = self.rows["rank"][send][takes].astype(np.int64) << 32
        if self.window_scope == "per-destination":
            key |= self.rows["peer"][send][takes].astype(np.int64) \
                & 0xFFFFFFFF
        keys, window_of = np.unique(key, return_inverse=True)
        windows = np.full(len(send), -1)
        windows[takes] = window_of
        # A transfer's window while it holds a credit (-1 once dropped,
        # None once returned); per window, how many held credits have a
        # known return, and the holders whose return is not, oldest first.
        holds: Dict[int, Optional[int]] = {}
        known, pending = [0] * len(keys), [{} for _ in keys]
        k = len(send)
        wait, back, returns = [-1] * k, [-1] * k, [0] * k
        for i, (w, xfer, flag) in enumerate(zip(
                windows.tolist(), self.rows["xfer"][send].tolist(),
                flags.tolist())):
            if w >= 0:
                if xfer in holds:
                    raise ValueError(f"malformed event row {send[i]}: "
                                     f"transfer {xfer!r} takes a second "
                                     "credit")
                slots = pending[w]
                if known[w] + len(slots) >= self.window:
                    if known[w]:
                        known[w] -= 1
                        wait[i] = w
                    else:
                        oldest = next(iter(slots))
                        del slots[oldest]
                        holds[oldest] = -1
                holds[xfer] = w
                slots[xfer] = None
            if flag & (REPLY_LIKE | ONE_WAY):
                w = holds.get(xfer)
                if w is None:
                    raise ValueError(f"malformed event row {send[i]}: "
                                     f"transfer {xfer!r} holds no credit "
                                     "to return")
                holds[xfer] = None
                if w >= 0:
                    back[i], returns[i] = w, 1 if flag & REPLY_LIKE else 2
                    del pending[w][xfer]
                    known[w] += 1
        return wait, back, returns, len(keys)

    def counts(self) -> Dict[str, int]:
        """Event-population summary (for ``describe`` and reports)."""
        send, recv = self.rows["tag"] == SEND, self.rows["tag"] == RECV
        bulk = send & (self.rows["flags"] & BULK != 0)
        return {"events": len(send), "sends": int(send.sum()),
                "recvs": int(recv.sum()), "bulk_sends": int(bulk.sum())}

    def describe(self) -> str:
        c = self.counts()
        return (f"CostGraph({self.app_name}, P={self.n_nodes}, "
                f"{c['events']} events: {c['sends']} sends / "
                f"{c['recvs']} recvs / {c['bulk_sends']} bulk, "
                f"runtime {self.runtime_us:.1f}us)")

    # -- the .npz file -----------------------------------------------------
    def save(self, file) -> None:
        """Write the graph to an open binary ``file`` as one ``.npz``
        (a path would gain numpy's ``.npz`` suffix)."""
        meta = {field.name: getattr(self, field.name)
                for field in dataclasses.fields(self) if field.name != "rows"}
        meta.update(params=dataclasses.asdict(self.params),
                    knobs=dataclasses.asdict(self.knobs))
        np.savez(file, schema=np.array(GRAPH_SCHEMA),
                 meta=np.array(json.dumps(meta)), rows=self.rows)

    @classmethod
    def load(cls, path) -> "CostGraph":
        """Read the graph :meth:`save` wrote at ``path``, every row
        validated.  Anything else, a v1 JSON graph or an entry that
        would need pickle included, raises ``ValueError`` naming the
        schema it found, and is never unpickled."""
        with open(path, "rb") as fh:
            try:
                data = np.load(fh, allow_pickle=False)
                schema = str(data["schema"])
            except _TORN:  # what a JSON file (a v1 graph) names, or None
                fh.seek(0)
                try:
                    schema = json.loads(fh.read()).get("schema")
                except (ValueError, AttributeError):
                    schema = None
            if schema != GRAPH_SCHEMA:
                raise ValueError(f"not a simcost graph (schema {schema!r}, "
                                 f"expected {GRAPH_SCHEMA!r})")
            try:
                meta, rows = json.loads(str(data["meta"])), data["rows"]
                if rows.dtype != ROW:
                    raise TypeError(f"rows of dtype {rows.dtype}, not ROW")
                rows.setflags(write=False)  # nothing else holds it
                graph = cls(params=LogGPParams(**meta.pop("params")),
                            knobs=TuningKnobs(**meta.pop("knobs")),
                            rows=rows, **meta)
            except _TORN + (TypeError,) as exc:
                raise ValueError(f"malformed simcost graph: {exc!r}") \
                    from exc
        graph.program  # validates every row: a bad file fails at load
        return graph


def _busy(rows: np.ndarray) -> np.ndarray:
    """Each row's busy time: its rank's elapsed time since the rank's
    previous row, minus blocked time and charge, clamped at zero."""
    rank, t = rows["rank"], rows["t"]
    # Ranks are checked to be nodes: as 16-bit keys they radix-sort.
    by_rank = np.argsort(rank.astype(np.uint16) if rank.max(initial=0)
                         < 1 << 16 else rank, kind="stable")
    last = np.zeros(len(rows))
    last[by_rank[1:]] = t[by_rank[:-1]]
    last[by_rank[1:][np.diff(rank[by_rank]) != 0]] = 0.0
    busy = (t - last) - rows["blocked"] - rows["charge"]
    return np.where(busy > 0.0, busy, 0.0)


def _deliveries(rows: np.ndarray, a: np.ndarray) -> None:
    """Set each recv's ``a`` to its delivery slot: in a stable sort by
    ``(xfer, reply_like)``, the slot of the latest send at or before it
    in its group."""
    tag = rows["tag"]
    msg = np.flatnonzero(tag != MARK)
    xfer, reply = rows["xfer"][msg], rows["flags"][msg] & REPLY_LIKE
    by_key = np.lexsort((reply, xfer))
    order, xfer, reply = msg[by_key], xfer[by_key], reply[by_key]
    position = np.arange(len(order))
    new = np.ones(len(order), bool)
    new[1:] = (xfer[1:] != xfer[:-1]) | (reply[1:] != reply[:-1])
    start = np.maximum.accumulate(np.where(new, position, 0))
    recv = tag[order] == RECV
    latest = np.maximum.accumulate(np.where(recv, -1, position))
    slot = np.cumsum(tag == SEND) - 1
    a[order[recv]] = np.where(latest >= start, slot[order[latest]], -1)[recv]


def _fault(row: np.void, n_nodes: int) -> str:
    """Why a row the compile's mask flagged is bad."""
    tag, rank, *times = row[["tag", "rank", "t", "charge", "blocked"]].item()
    if tag not in (MARK, RECV, SEND):
        return f"unknown event row tag {tag!r}"
    if not 0 <= rank < n_nodes:
        return f"rank {rank!r} is not a node"
    return ("times (t {!r}, charge {!r}, blocked {!r}) must be finite and "
            "non-negative".format(*times))
