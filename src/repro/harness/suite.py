"""Standard suite construction with fixed-total-input scaling.

The paper fixes each application's input and runs it on both 16 and 32
nodes (Table 3, Figure 5a/5b).  Our applications are parameterised by
per-processor sizes, so running the *same* total input on half the nodes
means doubling the per-processor scale.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

from repro.apps import SUITE_ORDER, default_suite
from repro.apps.base import Application

__all__ = ["suite_for", "checked_scale", "suite_names", "REFERENCE_NODES"]

#: Cluster size at which ``scale=1.0`` means the default inputs; other
#: sizes get per-processor inputs adjusted to keep totals fixed.
REFERENCE_NODES = 32


def checked_scale(scale: float) -> float:
    """``scale``, refused by name unless finite and > 0: a non-positive
    scale would build every application at its floor size."""
    if not (math.isfinite(scale) and scale > 0):
        raise ValueError(f"scale must be finite and > 0, got {scale!r}")
    return scale


def suite_names(text: str) -> List[str]:
    """A comma-separated list of Table 3's application names, as the
    drivers' ``--apps`` takes it; refused naming the unknown ones and
    the valid ones, or if it names none."""
    names = [name.strip() for name in text.split(",") if name.strip()]
    unknown = [name for name in names if name not in SUITE_ORDER]
    if unknown or not names:
        raise ValueError(
            (f"unknown application names {unknown}" if unknown else
             "names no application") + "; choose from "
            + ", ".join(SUITE_ORDER))
    return names


def suite_for(n_nodes: int, scale: float = 1.0,
              reference_nodes: int = REFERENCE_NODES,
              names: Optional[Sequence[str]] = None) -> List[Application]:
    """The ten-application suite sized for ``n_nodes``.

    ``names`` optionally filters to a subset (by Table 3 row label).
    """
    if n_nodes < 1:
        raise ValueError(f"n_nodes must be >= 1, got {n_nodes}")
    effective_scale = checked_scale(scale) * reference_nodes / n_nodes
    apps = default_suite(scale=effective_scale)
    if names is not None:
        wanted = set(names)
        apps = [app for app in apps if app.name in wanted]
        missing = wanted - {app.name for app in apps}
        if missing:
            raise KeyError(f"unknown application names: {sorted(missing)}")
    return apps
