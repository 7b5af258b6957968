"""repro — reproduction of *Analyzing Multicore Dumps to Facilitate
Concurrency Bug Reproduction* (Weeratunge, Zhang & Jagannathan,
ASPLOS 2010).

The package turns a failure core dump from a (simulated) multicore run
into a failure-inducing schedule on a single core.  The public API is
the staged :class:`~repro.pipeline.session.ReproSession`, whose three
stages mirror the paper's pipeline and memoize their outputs:

    >>> from repro import ReproSession, bugs, pipeline
    >>> scenario = bugs.get_scenario("fig1")
    >>> session = ReproSession(pipeline.ProgramBundle(scenario.build()))
    >>> analysis = session.analyze_dump()        # Algorithm 1 + alignment
    >>> plan = session.diff_and_prioritize()     # dump diff -> ranked CSVs
    >>> outcome = session.search("chessX+dep")   # Algorithm 2
    >>> outcome.reproduced
    True

Re-searching with another strategy (``session.search("chessX+temporal")``)
reuses the cached dump analysis and diff; only the new search runs.
``session.report()`` assembles the classic
:class:`~repro.pipeline.report.ReproductionReport`, which round-trips
through a versioned JSON schema (``report.to_json()`` /
``ReproductionReport.from_json``).  Whole suites fan out over processes
with :func:`~repro.pipeline.batch.run_many`:

    >>> batch = pipeline.run_many(["fig1", "apache-1"], workers=4)

Aligners, search strategies, and prioritization heuristics are pluggable
through the registries in :mod:`repro.registry` — registering a new
heuristic automatically yields a matching ``chessX+<name>`` strategy.

Layers (bottom-up): ``lang`` (mini concurrent language + flat IR),
``analysis`` (CFG / post-dominators / control dependence), ``runtime``
(interpreter, schedulers, checkpoints), ``coredump`` (snapshots,
reference-path diffing), ``indexing`` (execution indexing: online,
Algorithm 1 reverse engineering, alignment), ``slicing`` (dynamic
slicing, CSV prioritization), ``search`` (CHESS, Algorithm 2, strategy
registry), ``kb`` (crash knowledge base: signatures, retrieval,
warm-started search), ``pipeline`` (sessions, batching, reports),
``bugs`` (the evaluation suite), ``registry`` (component registries).
"""

from . import analysis, bugs, coredump, indexing, kb, lang, pipeline, \
    registry, runtime, search, slicing
from .pipeline import (
    ProgramBundle,
    ReproSession,
    ReproductionConfig,
    ReproductionReport,
    run_many,
)
from .registry import ALIGNERS, HEURISTICS, SEARCH_STRATEGIES

__version__ = "2.0.0"

__all__ = [
    "analysis",
    "bugs",
    "coredump",
    "indexing",
    "kb",
    "lang",
    "pipeline",
    "registry",
    "runtime",
    "search",
    "slicing",
    "ALIGNERS",
    "HEURISTICS",
    "SEARCH_STRATEGIES",
    "ProgramBundle",
    "ReproSession",
    "ReproductionConfig",
    "ReproductionReport",
    "run_many",
    "__version__",
]
