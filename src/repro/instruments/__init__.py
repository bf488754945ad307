"""Instrumentation of the communication layer.

The paper instruments its communication layer to record baseline
characteristics (Table 4) and communication balance (Figure 4).  This
package provides the same:

* :mod:`repro.instruments.probes` -- the observation bus: the named
  instants the layers fire, and the subscribers' resolution onto them.
* :mod:`repro.instruments.stats` -- raw counters, a subscriber.
* :mod:`repro.instruments.summary` -- Table 4's derived per-application
  metrics.
* :mod:`repro.instruments.balance` -- Figure 4's per-pair message-count
  matrices and an ASCII greyscale renderer.
"""

from repro.instruments.stats import ClusterStats
from repro.instruments.summary import CommunicationSummary, summarize
from repro.instruments.balance import balance_matrix, render_balance
from repro.instruments.trace import MessageTracer, MessageTimeline

__all__ = ["ClusterStats", "CommunicationSummary", "summarize",
           "balance_matrix", "render_balance", "MessageTracer",
           "MessageTimeline"]
