"""Content-addressed on-disk cache of completed simulation runs.

Every sweep point of the paper's evaluation is a *pure function* of its
configuration: (application + inputs, cluster shape, LogGP parameters,
tuning dials, seed, run limits) fully determine ``runtime_us`` and every
communication counter.  Regenerating a table or figure therefore only
needs to simulate points it has never seen.

The cache is one JSON file per run under a root directory (default
``~/.cache/repro``, overridable with the ``REPRO_CACHE_DIR`` environment
variable or the constructor), named by a SHA-256 of the canonical
key-spec JSON.  Entries store the full :class:`~repro.cluster.machine.
RunResult` counters — enough to rebuild figures *and* the Table 5/6
models — or the failure string for livelocked / over-budget points.
``output`` (the application's finalize payload) is not cached; restored
results carry ``output=None``.

A run recorded for simcost also keeps its dependency graph
(:class:`~repro.cost.graph.CostGraph`'s ``.npz``) in a ``<key>.graph``
file beside its entry, read only by a lookup that asks for it: an entry
without one, or with one that does not load (a v1 JSON graph), still
serves every lookup that does not.

Writes are atomic (temp file + rename) so concurrent sweep workers can
share one cache directory safely.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import inspect
import io
import json
import numbers
import os
import re
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

from repro.cluster.machine import Cluster, RunResult

__all__ = ["RunCache", "run_key_spec", "app_fingerprint",
           "constructor_params", "constructor_kwargs", "class_constants"]

#: A run key holds what a caller can choose without editing the repo:
#: constructor arguments, ``Cluster`` fields and class attributes a
#: subclass can override (:func:`app_fingerprint`).  Module constants
#: and code (``clients.BURST_RATIO``, ``DISKS_PER_NODE``, the engine's
#: semantics, the stored stats schema) are not in it: changing one that
#: alters a run bumps this, which invalidates every existing entry.
CACHE_FORMAT = 5


@functools.lru_cache()
def constructor_params(app_class: type) -> Tuple[str, ...]:
    """Named constructor parameters of ``app_class``, across its MRO.

    Walks every ``__init__`` in the class hierarchy (most-derived
    first) so a subclass that forwards ``**kwargs`` to its base still
    exposes the base's knobs — a subclass whose extra knobs ride on
    ``**kwargs`` must not silently shrink its cache identity.  ``self``
    and ``*args``/``**kwargs`` catch-alls are never parameters.

    Memoised per class *object* — every run key asks, and two classes
    that merely share a ``__qualname__`` must not share an answer.
    """
    names = []
    for klass in app_class.__mro__:
        init = klass.__dict__.get("__init__")
        if init is None:
            continue
        for parameter in inspect.signature(init).parameters.values():
            if parameter.name == "self" or parameter.kind in (
                    inspect.Parameter.VAR_POSITIONAL,
                    inspect.Parameter.VAR_KEYWORD):
                continue
            if parameter.name not in names:
                names.append(parameter.name)
    return tuple(names)


@functools.lru_cache()
def class_constants(klass: type) -> Tuple[str, ...]:
    """Names of ``klass``'s public class constants: its public class
    attributes across the MRO, constructor parameters aside, whose
    most-derived value is a number, a string, a boolean or a tuple of
    them.  Memoised per class object, as :func:`constructor_params` is.
    """
    values: Dict[str, Any] = {}
    for base in reversed(klass.__mro__):
        values.update(vars(base))
    params = constructor_params(klass)
    return tuple(
        name for name, value in values.items()
        if not name.startswith("_") and name not in params
        and all(isinstance(item, (numbers.Number, str)) for item in
                (value if isinstance(value, tuple) else (value,))))


def app_fingerprint(obj: Any) -> Dict[str, Any]:
    """A stable description of an application's configuration, or of
    any object built the same way (the cluster's cost model): its class
    path, its constructor parameters (:func:`constructor_params`, those
    it keeps as same-named attributes, as every suite app does) and its
    class constants (:func:`class_constants`), each at the value ``obj``
    reads.  Values that are not JSON types are keyed by ``repr``.
    """
    klass = type(obj)
    return {
        "class": f"{klass.__module__}.{klass.__qualname__}",
        "kwargs": constructor_kwargs(obj),
        "constants": {name: getattr(obj, name)
                      for name in class_constants(klass)},
    }


def constructor_kwargs(obj: Any) -> Dict[str, Any]:
    """The arguments ``obj`` was built with: each of its class's
    :func:`constructor_params` that it keeps as a same-named
    attribute, at the value it reads now."""
    return {name: getattr(obj, name)
            for name in constructor_params(type(obj)) if hasattr(obj, name)}


def run_key_spec(app: Any, cluster: Cluster) -> Dict[str, Any]:
    """Everything that determines one run's outcome, as a JSON dict:
    ``app``'s fingerprint and every :class:`Cluster` field but
    ``sanitize`` (the run is bit-identical either way, so sanitized runs
    bypass the cache instead), the cost model by its fingerprint.
    ``Cluster`` normalises a null fault plan to ``None``, so such a run
    shares the fault-free run's entry.
    """
    spec = {"format": CACHE_FORMAT, "app": app_fingerprint(app)}
    for field in dataclasses.fields(cluster):
        value = getattr(cluster, field.name)
        if field.name == "cost":
            value = app_fingerprint(value)
        elif dataclasses.is_dataclass(value):
            value = dataclasses.asdict(value)
        spec[field.name] = value
    del spec["sanitize"]
    return spec


#: The default ``object.__repr__`` (and most repr-less wrappers) embeds
#: the instance's memory address: ``<pkg.Thing object at 0x7f3a...>``.
#: Such a repr differs on every process, so a key derived from it would
#: never hit across workers or sessions — a silent 100% cache miss.
_ADDRESS_REPR = re.compile(r" at 0x[0-9a-fA-F]+\b")

#: JSON-native leaf types (serialized directly, never via ``repr``).
_JSON_LEAVES = (str, int, float, bool, type(None))


def _find_address_repr(value: Any, path: str) -> Optional[Tuple[str, str]]:
    """The spec path of the first value whose repr embeds an address.

    Walks the spec the way ``json.dumps(..., default=repr)`` serializes
    it: dicts and sequences recurse; any other leaf is keyed by its
    ``repr``.  Returns ``(path, repr)`` of the first offender, or None.
    """
    if isinstance(value, dict):
        for key, item in value.items():
            found = _find_address_repr(item, f"{path}.{key}")
            if found is not None:
                return found
        return None
    if isinstance(value, (list, tuple)):
        for index, item in enumerate(value):
            found = _find_address_repr(item, f"{path}[{index}]")
            if found is not None:
                return found
        return None
    if isinstance(value, _JSON_LEAVES):
        return None
    text = repr(value)
    if _ADDRESS_REPR.search(text):
        return path, text
    return None


class RunCache:
    """Content-addressed store of run outcomes (results and failures)."""

    def __init__(self, root: Optional[os.PathLike] = None) -> None:
        if root is None:
            root = os.environ.get("REPRO_CACHE_DIR") or \
                Path.home() / ".cache" / "repro"
        self.root = Path(root)
        self.hits = 0
        self.misses = 0

    # -- keys --------------------------------------------------------------
    @staticmethod
    def key_for(spec: Dict[str, Any]) -> str:
        """SHA-256 of the canonical (sorted, repr-defaulted) spec JSON.

        Raises :class:`ValueError` when a spec value falls back to a
        repr that embeds a memory address (``<... object at 0x...>``):
        such a key differs on every process, so every lookup would be a
        silent miss.  Give the offending object a stable ``__repr__``
        (or pass JSON-native configuration) instead.
        """
        canonical = json.dumps(spec, sort_keys=True, default=repr)
        if _ADDRESS_REPR.search(canonical):
            found = _find_address_repr(spec, "spec")
            if found is not None:
                path, text = found
                raise ValueError(
                    f"cache key-spec value at {path} has an "
                    f"address-bearing repr ({text!r}); its key would "
                    "differ on every process (silent 100% cache miss) "
                    "— give it a stable __repr__ or use JSON-native "
                    "values")
        return hashlib.sha256(canonical.encode()).hexdigest()

    def _path(self, key: str, suffix: str = ".json") -> Path:
        return self.root / f"{key}{suffix}"

    # -- lookup / store ----------------------------------------------------
    def get(self, spec: Dict[str, Any], graph: bool = False
            ) -> Optional[tuple]:
        """The cached ``(result, failure)`` outcome, or None on a miss.

        Exactly one element of the pair is set: a completed run restores
        its :class:`RunResult`; a livelocked / over-budget run restores
        its failure string.  Unreadable or corrupt entries count as
        misses (and will be overwritten by the next :meth:`put`).

        ``graph=True`` asks for the run's recorded dependency graph too:
        the outcome is then ``(result, failure, graph)``, and a completed
        entry whose graph was never stored, or does not load, is a miss.
        A failure needs none (``graph`` is None): recording it again
        would fail the same way.
        """
        key = self.key_for(spec)
        try:
            data = json.loads(self._path(key).read_text())
            if data["spec"]["format"] != CACHE_FORMAT:
                raise ValueError("stale cache format")
            if data["failure"] is not None:
                outcome = (None, data["failure"])
            else:
                outcome = (RunResult.from_dict(data["result"]), None)
            if graph:
                from repro.cost.graph import CostGraph
                outcome += (None if outcome[0] is None else
                            CostGraph.load(self._path(key, ".graph")),)
        except (OSError, ValueError, KeyError, TypeError):
            self.misses += 1
            return None
        self.hits += 1
        return outcome

    def put(self, spec: Dict[str, Any],
            result: Optional[RunResult] = None,
            failure: Optional[str] = None) -> None:
        """Store one outcome atomically (temp file + rename)."""
        if (result is None) == (failure is None):
            raise ValueError("exactly one of result/failure must be given")
        payload = {
            "spec": spec,
            "result": result.to_dict() if result is not None else None,
            "failure": failure,
        }
        self._write(self._path(self.key_for(spec)),
                    json.dumps(payload, default=repr).encode())

    def put_graph(self, spec: Dict[str, Any],
                  graph: "CostGraph") -> None:  # noqa: F821
        """Store the run's recorded graph atomically, beside its entry
        (which :meth:`put` stores first)."""
        buffer = io.BytesIO()
        graph.save(buffer)
        self._write(self._path(self.key_for(spec), ".graph"),
                    buffer.getbuffer())

    def _write(self, path: Path, data: bytes) -> None:
        """Write ``data`` to ``path`` by temp file + rename."""
        self.root.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    # -- maintenance -------------------------------------------------------
    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*.json"))

    def clear(self) -> int:
        """Delete every entry and recorded graph; returns the number of
        files removed.

        Also removes orphaned ``*.tmp`` files left behind by workers
        killed between ``mkstemp`` and the atomic rename — without
        this they accumulate forever (files only ever land as
        ``*.json`` and ``*.graph``).
        """
        removed = 0
        if self.root.is_dir():
            for pattern in ("*.json", "*.graph", "*.tmp"):
                for path in self.root.glob(pattern):
                    try:
                        path.unlink()
                    except OSError:
                        continue  # concurrent clear / rename race
                    removed += 1
        return removed

    def sweep_stale_tmps(self, older_than_s: float = 3600.0) -> int:
        """Remove orphaned ``*.tmp`` files; returns the number removed.

        A worker killed between ``mkstemp`` and ``os.replace`` leaves
        its temp file behind.  Only files older than ``older_than_s``
        are swept so a concurrent worker mid-``put`` is never raced;
        the campaign runner calls this on start, when no sibling
        workers of *this* campaign exist yet.
        """
        removed = 0
        if not self.root.is_dir():
            return removed
        cutoff = time.time() - older_than_s
        for path in self.root.glob("*.tmp"):
            try:
                if path.stat().st_mtime <= cutoff:
                    path.unlink()
                    removed += 1
            except OSError:
                continue  # vanished under us (concurrent sweep/rename)
        return removed

    def describe(self) -> str:
        """One-line summary for CLI output."""
        return (f"RunCache({self.root}, {len(self)} entries, "
                f"{self.hits} hits / {self.misses} misses this session)")
