"""A Split-C-style global address space over Active Messages.

Split-C provides a global address space on distributed memory: blocking
reads, pipelined (split-phase) writes with ``sync``, bulk gets/stores,
barriers, and locks — all compiled down to Active Messages.  This package
is the equivalent layer for the simulated cluster:

* :mod:`repro.gas.runtime` -- :class:`Proc`, the per-rank SPMD context
  applications program against; its barrier, broadcast and reductions
  run the schedules of :mod:`repro.coll`.
* :mod:`repro.gas.memory` -- :class:`GlobalArray` distributed arrays.
* :mod:`repro.gas.sync` -- distributed locks with try/retry semantics
  (the source of Barnes' livelock under high overhead).
"""

from repro.gas.memory import GlobalArray
from repro.gas.runtime import LivelockError, Proc
from repro.gas.sync import DistributedLock

__all__ = ["Proc", "GlobalArray", "DistributedLock", "LivelockError"]
