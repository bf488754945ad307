"""Fold a cProfile run into host seconds per layer.

Layers are ``repro``'s package names (``harness`` split by module,
because the result-store work is the point of ``campaign_grid``).  Time
spent in C, builtins, the stdlib or numpy is *foreign*: it is charged to
the layer that called it, so ``json``/``sqlite3``/``hashlib`` land in
the harness module that invoked them and ``generator.send`` lands in
the scheduler that resumed the generator.  Every profiled second is
charged exactly once, so the shares sum to 1.
"""

from __future__ import annotations

import os
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, Iterable, Optional

HERE = Path(__file__).resolve().parent
_REPRO = str(HERE.parent / "src" / "repro") + os.sep
_BENCH = str(HERE) + os.sep

_HARNESS_MODULES = ("campaign", "parallel", "runcache", "store")
#: ``other`` is whatever is not a named layer: the benchmark's own op
#: wrappers, ``repro.models``/``calibrate``/``analysis``, profile roots.
LAYERS = ("sim", "network", "am", "gas", "coll", "apps", "cluster",
          "instruments", "serve", "sanitize", "cost",
          *(f"harness.{module}" for module in _HARNESS_MODULES),
          "harness.other", "other")


def layer_of(filename: str) -> Optional[str]:
    """The layer owning a source file; None for foreign code."""
    if filename.startswith(_BENCH):
        return "other"
    if not filename.startswith(_REPRO):
        return None
    package, _, rest = filename[len(_REPRO):].partition(os.sep)
    if package == "harness":
        module = rest[:-len(".py")]
        return (f"harness.{module}" if module in _HARNESS_MODULES
                else "harness.other")
    return package if package in LAYERS else "other"


def fold(entries: Iterable,
         classify: Callable[[str], Optional[str]] = layer_of
         ) -> Dict[str, float]:
    """Self seconds per layer from ``cProfile.Profile.getstats()``.

    An owned function's inline time goes to its layer.  A foreign
    function's inline time is known per caller (the profile's
    sub-entries), so each share goes to that caller's layer; when the
    caller is foreign too (``json.dumps`` -> encoder -> C scanner) the
    blame walks up, splitting by the time each of *its* callers spent
    in it.  Foreign time no caller accounts for goes to ``other``.
    """
    entries = list(entries)

    def owner(code) -> Optional[str]:
        # Builtins and C methods appear as strings, not code objects.
        return None if isinstance(code, str) else classify(code.co_filename)

    callers = defaultdict(list)
    for entry in entries:
        for sub in entry.calls or ():
            callers[sub.code].append((entry.code, sub.totaltime))

    memo: Dict[object, Dict[str, float]] = {}

    def blame(code, walking: frozenset) -> Dict[str, float]:
        layer = owner(code)
        if layer is not None:
            return {layer: 1.0}
        if code in memo:
            return memo[code]
        edges = [(caller, weight) for caller, weight in callers[code]
                 if caller not in walking]
        total = sum(weight for _caller, weight in edges)
        shares: Dict[str, float] = defaultdict(float)
        if total <= 0:  # a profile root, or reached only through a cycle
            shares["other"] = 1.0
        else:
            for caller, weight in edges:
                above = blame(caller, walking | {code})
                for layer, share in above.items():
                    shares[layer] += share * weight / total
        memo[code] = dict(shares)
        return memo[code]

    seconds: Dict[str, float] = defaultdict(float)
    accounted: Dict[object, float] = defaultdict(float)
    for entry in entries:
        layer = owner(entry.code)
        if layer is not None:
            seconds[layer] += entry.inlinetime
        for sub in entry.calls or ():
            if owner(sub.code) is None:
                accounted[sub.code] += sub.inlinetime
                for layer, share in blame(
                        entry.code, frozenset((sub.code,))).items():
                    seconds[layer] += sub.inlinetime * share
    for entry in entries:
        if owner(entry.code) is None:
            seconds["other"] += max(
                0.0, entry.inlinetime - accounted[entry.code])
    return dict(seconds)
