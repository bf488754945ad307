"""The rule packs; importing this module registers them all.

The SPMD checks need the call graph and live in
:mod:`repro.analysis.flow`; ``one-drain`` is whole-program only to
learn the ``@study`` names."""

from repro.analysis.rules import (architecture, determinism,  # noqa: F401
                                  dialcost, hygiene)

__all__ = ["architecture", "determinism", "dialcost", "hygiene"]
