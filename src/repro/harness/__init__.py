"""The experiment harness: regenerates every table and figure.

* :mod:`repro.harness.suite` -- standard application suite construction
  with fixed-total-input scaling across cluster sizes (the paper runs
  the same inputs on 16 and 32 nodes).
* :mod:`repro.harness.sweeps` -- the ``DIALS`` table (what each named
  dial moves, its label and grids) and ``run_sweep``, one application
  along one dial: the slowdown curves of Figures 5-8.
* :mod:`repro.harness.parallel` -- the one drain every study's runs go
  through (``PointTask`` / ``run_points``: cache probe, pool, per-point
  persistence, crash policy), and what keeps planning apart from it: a
  study is a ``Plan`` (tasks plus a pure build), ``run_plans`` drains
  the union of any number of them once.
* :mod:`repro.harness.runcache` -- content-addressed on-disk cache of
  completed runs, so regenerating artifacts skips known points.
* :mod:`repro.harness.store` / :mod:`repro.harness.campaign` -- the
  sqlite result store and the resumable campaign manager layered on
  the cache: argument-product specs, crash-safe execution, and
  query-side artifact generation.
* :mod:`repro.harness.experiments` -- one entry point per table/figure
  of the paper's evaluation (plus Figure 11, the open-system serving
  artifact over :mod:`repro.serve`).
* :mod:`repro.harness.report` -- ASCII tables and line plots.
* :mod:`repro.harness.claims` -- the paper's shape claims, one row each,
  which ``python -m repro.harness`` checks (not imported here).
"""

from repro.harness.suite import suite_for, REFERENCE_NODES
from repro.harness.sweeps import (DIALS, MACHINE_DIALS, Dial, SweepPoint,
                                  SweepResult, run_sweep, spike_decay_sweep)
from repro.harness.parallel import Plan, PointTask, run_plans, run_points
from repro.harness.runcache import RunCache
from repro.harness.store import ResultStore
from repro.harness.campaign import (CampaignSpec, CampaignReport,
                                    CampaignInterrupted, EnsembleSweep,
                                    ensemble_from_store, run_campaign,
                                    sweep_from_store, figure_from_store,
                                    render_campaign)
from repro.harness.report import ascii_plot, render_table
from repro.harness.surface import sensitivity_surface, overhead_gap_surface

__all__ = ["suite_for", "REFERENCE_NODES", "SweepPoint", "SweepResult",
           "Dial", "DIALS", "MACHINE_DIALS", "run_sweep",
           "spike_decay_sweep",
           "Plan", "PointTask", "run_plans", "run_points",
           "RunCache", "ResultStore", "CampaignSpec", "CampaignReport",
           "CampaignInterrupted", "run_campaign", "sweep_from_store",
           "figure_from_store",
           "EnsembleSweep", "ensemble_from_store",
           "render_campaign", "ascii_plot",
           "render_table", "sensitivity_surface", "overhead_gap_surface"]
