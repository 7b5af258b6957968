"""Stress testing: obtaining a failure core dump.

The paper stress-tests the instrumented subjects on multiple cores until
the reported bug manifests, then collects the core dump ("while stress
testing is very expensive, it is not part of our proposed technique").
Here a seeded random-interleaving scheduler plays the role of the
multicore platform; seeds are swept until the expected failure appears.

Each seed's run is a deterministic function of the seed, so
``workers > 1`` hands the sweep to :func:`repro.exec.first_match` over
the shared pool.  The *lowest* failing seed position wins (what the
serial sweep finds first), and the winning seed is re-run locally, so
the :class:`StressResult` — dump, execution, ``runs_tried``,
observations — is byte-identical to the serial sweep's.
"""

import time
from dataclasses import dataclass

from ..coredump.dump import take_core_dump
from ..exec.fanout import first_match
from ..lang.errors import SearchError
from ..runtime.scheduler import MulticoreScheduler
from .bundle import ProgramBundle


@dataclass
class StressResult:
    """A reproduced production failure and its core dump."""

    seed: int
    runs_tried: int
    wall_seconds: float
    result: object         # RunResult of the failing run
    execution: object      # the failed Execution (for ground-truth checks)
    dump: object           # the failure CoreDump
    #: hung-state runs encountered *before* the qualifying seed while
    #: sweeping for a different failure kind: (position, seed, kind)
    #: tuples, ascending by position.  Without this, a seed whose run
    #: wedged in a deadlock was silently counted as "no failure".
    observations: tuple = ()

    @property
    def failure(self):
        return self.result.failure


def _observation(result):
    """(kind,) note when a non-qualifying run ended hung, else None."""
    failure = result.failure
    if failure is not None and failure.kind in ("deadlock", "hang"):
        return failure.kind
    return None


def _attempt(bundle, seed, input_overrides, expected_kind, expected_pc,
             switch_prob, instrument_loops, use_blocks):
    """One stress run; returns ``(execution, result, qualifies)``.

    The qualification test is failure-based, not status-based: a run
    that wedged in a deadlock (status DEADLOCK) or blew its step budget
    (status STOPPED, kind ``hang``) carries a structured failure and
    qualifies when it matches the expected kind, so hang scenarios are
    stress-testable exactly like crashing ones.
    """
    execution = bundle.execution(
        MulticoreScheduler(seed=seed, switch_prob=switch_prob),
        input_overrides=input_overrides,
        instrument_loops=instrument_loops,
        use_blocks=use_blocks)
    result = execution.run()
    failure = result.failure
    qualifies = (failure is not None
                 and (expected_kind is None
                      or failure.kind == expected_kind)
                 and (expected_pc is None
                      or failure.pc == expected_pc))
    return execution, result, qualifies


def stress_test(bundle, input_overrides=None, seeds=None, expected_kind=None,
                expected_pc=None, switch_prob=0.3, instrument_loops=True,
                workers=1, use_blocks=True, supervision=None):
    """Run under random interleavings until the expected failure appears.

    ``expected_kind``/``expected_pc`` restrict which failure counts as
    "the" bug (matching the bug report); any failure qualifies when both
    are None.  ``workers > 1`` parallelizes the sweep over the shared
    pool with serial-identical results (lowest failing seed wins), under
    the ``supervision`` policy; a sweep that cannot fan out, or whose
    supervised execution degrades, runs the serial loop below.
    """
    if seeds is None:
        seeds = range(0, 2000)
    start = time.perf_counter()
    if workers > 1:
        seeds = list(seeds)
        found = _parallel_stress(
            bundle, seeds, workers, supervision, start, use_blocks,
            (input_overrides, expected_kind, expected_pc, switch_prob,
             instrument_loops))
        if found is not None:
            return found
    runs = 0
    observed = []
    for seed in seeds:
        runs += 1
        execution, result, qualifies = _attempt(
            bundle, seed, input_overrides, expected_kind, expected_pc,
            switch_prob, instrument_loops, use_blocks)
        if not qualifies:
            kind = _observation(result)
            if kind is not None:
                observed.append((runs - 1, seed, kind))
            continue
        dump = take_core_dump(execution, "failure")
        return StressResult(seed=seed, runs_tried=runs,
                            wall_seconds=time.perf_counter() - start,
                            result=result, execution=execution, dump=dump,
                            observations=tuple(observed))
    raise SearchError(
        "no failing interleaving found for %s in %d runs"
        % (bundle.name, runs))


# ---------------------------------------------------------------------------
# the sharded sweep (a client of repro.exec.first_match)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StressWorkerSpec:
    """Everything a pool worker needs to re-run stress seeds."""

    program: object
    max_steps: int
    #: the driver's partition (workers skip building it), or None for
    #: instruction-granularity runs
    block_table: object
    attempt_args: tuple    # _attempt's arguments after the seed


def _stress_context(spec):
    return (ProgramBundle(spec.program, max_steps=spec.max_steps,
                          block_table=spec.block_table),
            spec.attempt_args, spec.block_table is not None)


def _stress_run(context, seed):
    """``(qualifies, hung-state kind or None)`` of one worker-side run."""
    bundle, attempt_args, use_blocks = context
    _execution, result, qualifies = _attempt(bundle, seed, *attempt_args,
                                             use_blocks=use_blocks)
    return qualifies, None if qualifies else _observation(result)


def _qualified(outcome):
    return outcome[0]


def _stress_spec(bundle, use_blocks, attempt_args):
    return StressWorkerSpec(
        program=bundle.program, max_steps=bundle.max_steps,
        block_table=bundle.block_table if use_blocks else None,
        attempt_args=attempt_args)


def _parallel_stress(bundle, seeds, workers, supervision, start, use_blocks,
                     attempt_args):
    """The sharded sweep, or None when the serial loop must run.

    Dumps and executions stay in the workers: the winning seed is re-run
    here (deterministic, so byte-identical to the serial sweep's run).
    """
    if len(seeds) <= 1:
        return None
    prefix = first_match(seeds, _stress_run, _stress_context,
                         _stress_spec(bundle, use_blocks, attempt_args),
                         is_hit=_qualified, workers=workers,
                         policy=supervision, stage="stress", max_chunk=64)
    if prefix is None:
        return None
    if prefix.winner is None:
        raise SearchError("no failing interleaving found for %s in %d runs"
                          % (bundle.name, len(seeds)))
    seed = seeds[prefix.winner]
    execution, result, qualifies = _attempt(bundle, seed, *attempt_args,
                                            use_blocks=use_blocks)
    if not qualifies:
        raise SearchError("worker-reported stress seed %d for %s did not "
                          "reproduce locally" % (seed, bundle.name))
    return StressResult(
        seed=seed, runs_tried=prefix.winner + 1,
        wall_seconds=time.perf_counter() - start, result=result,
        execution=execution, dump=take_core_dump(execution, "failure"),
        observations=tuple((i, seeds[i], kind)
                           for i, (_hit, kind) in enumerate(prefix.results)
                           if kind is not None))


def verify_passes_on_single_core(bundle, input_overrides=None):
    """Sanity check: the deterministic single-core run must not fail."""
    from ..runtime.scheduler import DeterministicScheduler

    execution = bundle.execution(DeterministicScheduler(),
                                 input_overrides=input_overrides)
    result = execution.run()
    return result.completed
