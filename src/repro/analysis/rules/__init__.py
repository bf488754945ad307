"""The per-file rule packs; importing this module registers them all.

The SPMD checks need the call graph and live in
:mod:`repro.analysis.flow`."""

from repro.analysis.rules import (determinism, dialcost,  # noqa: F401
                                  hygiene)

__all__ = ["determinism", "dialcost", "hygiene"]
