"""Deterministic fault injection for the supervised execution layer.

A :class:`FaultPlan` is a pure function of its seed: given a stage name
(``"search"``, ``"stress"``, ``"batch"``), a task key, and an attempt
number it decides — via SHA-256, never the builtin ``hash`` — whether
that attempt is faulted and how.  Faults fire only on a task's *first*
attempt, so every injected failure has a clean retry to recover into,
and only inside pool workers, so a quarantined in-process re-run is
always fault-free.

The four fault kinds cover the supervisor's recovery matrix:

``kill``
    The worker ``os._exit``\\ s before running the task — the pool
    breaks, exercising rebuild + retry.
``hang``
    The worker sleeps past any plausible deadline — exercising the
    deadline watchdog and hung-worker reclamation.
``corrupt``
    The task returns :data:`CORRUPT_BLOB` instead of its real result —
    exercising driver-side validation and retry.
``init``
    The *pool initializer* raises (armed via an environment variable the
    workers inherit), so every worker of the next pool dies on startup —
    exercising ``BrokenProcessPool`` handling at the submission boundary.

Plans thread through :class:`~repro.pipeline.config.ReproductionConfig`
as a compact spec string (``"seed=7;kinds=kill,hang;rate=0.25"``), so
they survive the config's JSON/pickle round trips unchanged.
"""

import hashlib
import os
import time
from dataclasses import dataclass
from typing import Optional

from .pool import in_worker

KILL_WORKER = "kill"
HANG_WORKER = "hang"
CORRUPT_RESULT = "corrupt"
INIT_FAILURE = "init"
FAULT_KINDS = (KILL_WORKER, HANG_WORKER, CORRUPT_RESULT, INIT_FAILURE)

#: What a corrupted task returns in place of its real result — a value
#: that crosses the process boundary fine but fails every driver-side
#: validator.
CORRUPT_BLOB = "\x00repro.fault/corrupt-result\x00"

#: Exit status of an injected worker kill (visible in pool diagnostics).
KILL_EXIT_STATUS = 87

_INIT_FAULT_ENV = "REPRO_FAULT_INIT"


@dataclass(frozen=True)
class FaultInstruction:
    """One resolved injection decision, shipped to the worker."""

    kind: str
    hang_s: float = 3600.0


@dataclass(frozen=True)
class FaultPlan:
    """Seed-deterministic fault schedule over supervised task launches."""

    seed: int = 0
    kinds: tuple = FAULT_KINDS
    #: probability (per first attempt) that a task is faulted
    rate: float = 1.0
    #: how long an injected hang sleeps (recovery relies on the deadline)
    hang_s: float = 3600.0
    #: explicit (stage, key) targets; when non-empty, only these fire
    #: (and they always fire), ignoring ``rate``
    at: tuple = ()

    def __post_init__(self):
        for kind in self.kinds:
            if kind not in FAULT_KINDS:
                raise ValueError(
                    "unknown fault kind %r (valid: %s)"
                    % (kind, ", ".join(FAULT_KINDS)))
        if not self.kinds:
            raise ValueError("a FaultPlan needs at least one fault kind")
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError("fault rate must be within [0, 1]")

    # -- the spec string (config / CLI surface) -----------------------------

    @classmethod
    def parse(cls, spec) -> Optional["FaultPlan"]:
        """A plan from its spec string; ``None``/empty disables injection.

        Format: semicolon-separated ``key=value`` pairs —
        ``"seed=7;kinds=kill,hang;rate=0.25;hang_s=30;at=search:0,batch:fig1"``.
        Every field is optional; a bare ``"seed=7"`` faults every kind at
        rate 1.  An already-parsed plan passes through unchanged.
        """
        if spec is None or isinstance(spec, cls):
            return spec
        spec = spec.strip()
        if not spec:
            return None
        fields = {}
        for pair in spec.split(";"):
            pair = pair.strip()
            if not pair:
                continue
            if "=" not in pair:
                raise ValueError(
                    "bad fault-plan field %r (expected key=value)" % pair)
            key, value = (part.strip() for part in pair.split("=", 1))
            if key == "seed":
                fields["seed"] = int(value)
            elif key == "kinds":
                fields["kinds"] = tuple(
                    kind.strip() for kind in value.split(",") if kind.strip())
            elif key == "rate":
                fields["rate"] = float(value)
            elif key == "hang_s":
                fields["hang_s"] = float(value)
            elif key == "at":
                targets = []
                for target in value.split(","):
                    target = target.strip()
                    if not target:
                        continue
                    if ":" not in target:
                        raise ValueError(
                            "bad fault-plan target %r (expected stage:key)"
                            % target)
                    stage, task_key = target.split(":", 1)
                    targets.append((stage.strip(), task_key.strip()))
                fields["at"] = tuple(targets)
            else:
                raise ValueError("unknown fault-plan field %r" % key)
        return cls(**fields)

    def to_spec(self):
        """The spec string :meth:`parse` round-trips."""
        parts = ["seed=%d" % self.seed]
        if self.kinds != FAULT_KINDS:
            parts.append("kinds=%s" % ",".join(self.kinds))
        if self.rate != 1.0:
            parts.append("rate=%g" % self.rate)
        if self.hang_s != 3600.0:
            parts.append("hang_s=%g" % self.hang_s)
        if self.at:
            parts.append("at=%s" % ",".join(
                "%s:%s" % target for target in self.at))
        return ";".join(parts)

    # -- the injection decision ---------------------------------------------

    def _draw(self, stage, key):
        return hashlib.sha256(
            ("%d|%s|%s" % (self.seed, stage, key)).encode("utf-8")).digest()

    def instruction_for(self, stage, key, attempt):
        """The fault for this launch, or None.

        Pure in (seed, stage, key): dispatch timing, retry interleaving,
        and worker scheduling cannot change what gets injected where.
        Only first attempts fault, so recovery always converges.
        """
        if attempt != 0:
            return None
        digest = self._draw(stage, str(key))
        if self.at:
            if (stage, str(key)) not in self.at:
                return None
        else:
            unit = int.from_bytes(digest[:6], "big") / 2.0 ** 48
            if unit >= self.rate:
                return None
        kind = self.kinds[int.from_bytes(digest[6:10], "big")
                          % len(self.kinds)]
        return FaultInstruction(kind=kind, hang_s=self.hang_s)


# ---------------------------------------------------------------------------
# worker-side honoring
# ---------------------------------------------------------------------------

def maybe_inject(fault):
    """Honor a kill/hang instruction; a no-op outside pool workers.

    Called at the top of every supervised worker entry point.  The
    in-worker gate means a quarantined serial re-run of the same
    function in the driver process can never kill or wedge the driver.
    """
    if fault is None or not in_worker():
        return
    if fault.kind == KILL_WORKER:
        os._exit(KILL_EXIT_STATUS)
    if fault.kind == HANG_WORKER:
        time.sleep(fault.hang_s)


def corrupt_or(fault, result):
    """``result``, or :data:`CORRUPT_BLOB` under a corrupt instruction."""
    if fault is not None and fault.kind == CORRUPT_RESULT \
            and in_worker():
        return CORRUPT_BLOB
    return result


# ---------------------------------------------------------------------------
# initializer faults (armed driver-side, inherited by new workers)
# ---------------------------------------------------------------------------

def arm_init_fault():
    """Poison the initializer of the *next* pool's workers."""
    os.environ[_INIT_FAULT_ENV] = "1"


def disarm_init_fault():
    os.environ.pop(_INIT_FAULT_ENV, None)


def raise_if_init_fault_armed():
    """Called from the pool initializer inside every fresh worker."""
    if os.environ.get(_INIT_FAULT_ENV) == "1":
        raise RuntimeError("injected worker-initializer fault")
