"""Fixtures shared across test files."""

from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.analysis.core import (analyze_paths, clear_parse_cache,
                                 default_rules, iter_python_files,
                                 load_source, parse_cache_stats)
from repro.analysis.flow import build_program

#: The repo's own sources, which the analysis gates check.
SRC = Path(__file__).parent.parent / "src" / "repro"


@pytest.fixture(scope="session")
def src_analysis():
    """``src/repro`` analysed once per session, for every test that
    reads the tree's findings, the parse cache's work or the call-graph
    summaries.  Each whole-tree analysis costs seconds.

    ``findings`` and ``checked`` are one ``analyze_paths`` over the
    tree with every rule, per-file and whole-program, on a cleared
    parse cache; ``first_load`` is the cache's counters right after it.
    The same files are then loaded again (``second_load`` is the
    counters after that) and handed to ``build_program``, whose index
    is ``program``."""
    clear_parse_cache()
    files = list(iter_python_files([SRC]))
    findings, checked = analyze_paths([SRC], default_rules())
    first_load = parse_cache_stats()
    sources = {}
    for path in files:
        source = load_source(path)
        sources[source.path] = source
    second_load = parse_cache_stats()
    return SimpleNamespace(files=files, findings=findings, checked=checked,
                           first_load=first_load, second_load=second_load,
                           program=build_program(sources))
