"""The Active Message layer, including the paper's tuning apparatus.

* :mod:`repro.am.tuning` -- :class:`TuningKnobs`, the independent dials
  for added overhead, gap, latency, and per-byte Gap (Section 3.2 of the
  paper), and :class:`DialedCost`, what they charge per message.
* :mod:`repro.am.layer` -- the Generic-Active-Messages-style communication
  layer: short request/reply messages, one-way messages, bulk transfers
  with 4 KB fragmentation, polling dispatch to handlers that return
  their reply (:func:`Reply` for a bulk one), and the fixed
  flow-control window.
"""

from repro.am.tuning import TuningKnobs
from repro.am.layer import AmLayer, HandlerTable, Reply, DEFAULT_WINDOW

__all__ = ["TuningKnobs", "AmLayer", "HandlerTable", "Reply",
           "DEFAULT_WINDOW"]
