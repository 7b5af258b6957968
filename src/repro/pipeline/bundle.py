"""A compiled program bundle: lowering + static analysis, cached together.

Every phase of the pipeline (stress, alignment, search) re-executes the
same program; the bundle keeps the one-time artifacts in one place —
including the superblock partition that backs block-granularity
execution (computed lazily, or installed pre-built when a parallel
worker receives it over the process boundary).
"""

from ..analysis import StaticAnalysis
from ..lang.blocks import block_table_for
from ..lang.lower import lower_program
from ..runtime.interpreter import Execution


class ProgramBundle:
    """Compiled + analyzed form of one subject program.

    The superblock partition is shared by both execution granularities
    and cached on the compiled program; ``block_table`` installs a
    pre-built one.
    """

    def __init__(self, program, max_steps=1_000_000, block_table=None):
        self.program = program
        self.compiled = lower_program(program)
        self.analysis = StaticAnalysis(self.compiled)
        self.max_steps = max_steps
        if block_table is not None:
            self.compiled._block_table = block_table

    @property
    def name(self):
        return self.program.name

    @property
    def block_table(self):
        """The program's superblock partition (computed once, cached)."""
        return block_table_for(self.compiled, self.analysis)

    def execution(self, scheduler, input_overrides=None, instrument_loops=True,
                  hooks=(), max_steps=None, use_blocks=True):
        """A fresh execution of the program under ``scheduler``.

        ``use_blocks=False`` runs it at instruction granularity;
        hook-bearing executions fall back to instruction granularity
        inside the interpreter regardless.
        """
        return Execution(
            self.compiled, self.analysis, scheduler,
            input_overrides=input_overrides,
            instrument_loops=instrument_loops,
            hooks=hooks,
            max_steps=max_steps or self.max_steps,
            blocks=self.block_table if use_blocks else None,
        )

    def thread_names(self):
        return self.program.thread_names()
