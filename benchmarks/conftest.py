"""Shared configuration for the table/figure regeneration benchmarks.

Every benchmark regenerates one artifact of the paper's evaluation
section at a reduced input scale and asserts its qualitative shape
(who wins, roughly by what factor, where crossovers fall).  Absolute
numbers are not expected to match the 1997 testbed.

Environment knobs:

* ``REPRO_BENCH_SCALE`` -- input scale factor (default 0.5); raise it
  for higher-fidelity regeneration at more wall-clock cost.
"""

import os

import pytest

#: Input scale for benchmark runs (1.0 = the library's default inputs).
#: 0.5 is the smallest scale at which no application hits its minimum
#: input-size floor, keeping total inputs truly fixed across 16/32 nodes.
BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.5"))

#: The two cluster sizes of the paper.
SMALL_NODES = 16
LARGE_NODES = 32


@pytest.fixture(scope="session")
def bench_scale():
    return BENCH_SCALE


def run_once(benchmark, fn):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
