"""Pipeline configuration, validated against the component registries."""

from dataclasses import dataclass

from ..registry import ALIGNERS, HEURISTICS, ensure_builtins_registered


@dataclass
class ReproductionConfig:
    """Knobs of the pipeline; defaults mirror the paper's setup.

    ``aligner`` and every name in ``heuristics`` are validated on
    construction against :data:`repro.registry.ALIGNERS` and
    :data:`repro.registry.HEURISTICS`; a typo raises immediately with
    the list of valid choices instead of failing deep inside a run.
    """

    preemption_bound: int = 2        # k=2, as in the paper's experiments
    heuristics: tuple[str, ...] = ("dep", "temporal")
    include_chess: bool = True
    aligner: str = "index"           # any registered aligner name
    trace_window: int | None = None
    chess_max_tries: int = 3000
    chess_max_seconds: float = 120.0
    chessx_max_tries: int = 3000
    chessx_max_seconds: float = 120.0
    testrun_max_steps: int = 500_000
    #: macro-step hook-free executions at superblock granularity (one
    #: scheduler pick per block chain instead of per instruction);
    #: outcomes are byte-identical to instruction mode — disable only to
    #: measure or debug the per-instruction path
    block_exec: bool = True
    #: processes sweeping stress seeds for the failure dump; 1 keeps the
    #: serial sweep, >1 shards contiguous seed ranges over the shared
    #: pool with a deterministic lowest-failing-seed reduction
    stress_workers: int = 1
    #: serve testruns from prefix checkpoints instead of re-executing
    #: the deterministic prefix (identical outcomes, fewer executed
    #: steps); disable to measure or debug from-scratch behaviour
    replay: bool = True
    #: checkpoint-cache bounds of the replay engine
    replay_max_checkpoints: int = 64
    replay_max_bytes: int = 64 * 1024 * 1024
    #: processes driving one search's testruns; 1 keeps today's serial
    #: in-process path, >1 shards the worklist over the shared pool with
    #: provably serial-identical outcomes
    search_workers: int = 1
    #: serve plans that an earlier strategy of the same session already
    #: ran from the cross-strategy testrun memo (identical outcomes,
    #: ``memo_hits`` counted in the SearchOutcome)
    testrun_memo: bool = True
    #: path to the crash knowledge-base index (None disables the KB)
    kb_path: str | None = None
    #: splice plans retrieved from the KB ahead of the strategy ranking
    #: (no-op while ``kb_path`` is None)
    kb_warmstart: bool = True
    #: record completed reproductions into the KB (no-op while
    #: ``kb_path`` is None)
    kb_record: bool = True
    #: cap on retrieved plans spliced ahead of the ranking per search
    kb_max_warm_plans: int = 16
    #: wall deadline (seconds) per supervised work unit (a plan of a
    #: search shard, a stress chunk, a batch scenario); None derives a
    #: deadline from recorded step counts where a hint exists and
    #: otherwise waits indefinitely (the pre-supervision behaviour)
    shard_deadline_s: float | None = None
    #: pool attempts per supervised task before it is quarantined to a
    #: serial in-process re-run (0 quarantines on the first failure)
    max_shard_retries: int = 3
    #: first-retry backoff (seconds); later retries grow geometrically
    #: with deterministic jitter (see :mod:`repro.exec.backoff`)
    backoff_base_s: float = 0.05
    #: deterministic fault-injection spec for the supervised pool, e.g.
    #: ``"seed=7;kinds=kill,hang;rate=0.25"`` (see
    #: :meth:`repro.exec.faults.FaultPlan.parse`); None disables
    #: injection — production default
    fault_plan: str | None = None

    def __post_init__(self):
        self.heuristics = tuple(self.heuristics)
        self.validate()

    def validate(self):
        """Check registry-backed names; returns self for chaining."""
        ensure_builtins_registered()
        ALIGNERS.validate(self.aligner)
        for heuristic in self.heuristics:
            HEURISTICS.validate(heuristic)
        if self.replay_max_checkpoints < 1:
            raise ValueError("replay_max_checkpoints must be >= 1")
        if self.replay_max_bytes < 1:
            raise ValueError("replay_max_bytes must be >= 1")
        if self.search_workers < 1:
            raise ValueError("search_workers must be >= 1")
        if self.stress_workers < 1:
            raise ValueError("stress_workers must be >= 1")
        if self.kb_max_warm_plans < 1:
            raise ValueError("kb_max_warm_plans must be >= 1")
        if self.shard_deadline_s is not None and self.shard_deadline_s <= 0:
            raise ValueError("shard_deadline_s must be > 0 or None")
        if self.max_shard_retries < 0:
            raise ValueError("max_shard_retries must be >= 0")
        if self.backoff_base_s <= 0:
            raise ValueError("backoff_base_s must be > 0")
        # a bad spec string should fail here, not deep inside a sweep
        from ..exec.faults import FaultPlan
        FaultPlan.parse(self.fault_plan)
        return self

    def strategy_names(self):
        """The strategies a full run executes, in reporting order."""
        names = ["chess"] if self.include_chess else []
        names.extend("chessX+%s" % h for h in self.heuristics)
        return tuple(names)
