"""Core dump (de)serialization.

Dumps serialize to JSON so their sizes can be measured (Table 3's
``core dump`` column) and so parsing cost can be charged realistically
(Table 6's ``core dump parsing`` column — the paper's dominant cost was
GDB's string interface; ours is JSON decode plus reconstruction).
"""

import json
import sys

from ..lang.errors import DumpError
from ..lang.values import Pointer
from ..runtime.events import Failure
from .dump import CoreDump, FrameDump, ThreadDump

#: Integers whose decimal rendering would trip CPython's int->str
#: conversion limit (default 4300 digits) cannot pass through
#: ``json.dumps``; they are hex-encoded instead (hex conversion is
#: exempt from the limit).  The threshold stays safely below the limit:
#: a ``_BIG_INT_BITS``-bit integer has ~log10(2) * bits decimal digits.
#: A limit of 0 means conversion is unlimited — nothing needs encoding.
_INT_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 4300)()
_BIG_INT_BITS = (float("inf") if _INT_DIGIT_LIMIT <= 0
                 else max(64, int((_INT_DIGIT_LIMIT - 16) * 3.321)))


def _encode_value(value):
    if isinstance(value, Pointer):
        return {"$ptr": value.obj_id}
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, int) and value.bit_length() > _BIG_INT_BITS:
        return {"$bigint": hex(value)}
    if isinstance(value, (int, float, str)):
        return value
    raise DumpError("unserializable value %r" % (value,))


def _decode_value(value, path, key):
    """A cell's value; a malformed one is a :class:`DumpError` naming
    the cell as ``path.key``."""
    if not isinstance(value, dict):
        return value
    if "$ptr" in value:
        obj_id = value["$ptr"]
        if obj_id is None or type(obj_id) is int:
            return Pointer(obj_id)
    elif isinstance(value.get("$bigint"), str):
        try:
            return int(value["$bigint"], 16)
        except ValueError:
            pass
    raise DumpError("%s.%s: malformed encoded value %r" % (path, key, value))


def _decode_cells(mapping, path):
    return {k: _decode_value(v, path, k) for k, v in mapping.items()}


def _encode_cells(mapping):
    return {str(k): _encode_value(v) for k, v in mapping.items()}


def encode_cycle(cycle):
    """Waits-for cycle as JSON-able nested lists (None passes through)."""
    if cycle is None:
        return None
    return [[thread, list(held), wanted, pc]
            for thread, held, wanted, pc in cycle]


def decode_cycle(doc):
    """Re-tuple an :func:`encode_cycle` document (hashability matters:
    the cycle participates in frozen ``Failure`` signatures and KB keys).
    Anything but a list of edges is a :class:`DumpError`."""
    if doc is None:
        return None
    try:
        cycle = tuple((thread, tuple(held), wanted, pc)
                      for thread, held, wanted, pc in doc)
        hash(cycle)
    except (TypeError, ValueError):
        cycle = None
    if cycle is None or not isinstance(doc, list):
        raise DumpError("failure.cycle: not a list of [thread, held, "
                        "wanted, pc] edges: %r" % (doc,))
    return cycle


def dump_to_json(dump):
    """Serialize ``dump`` to a JSON string."""
    doc = {
        "program": dump.program,
        "kind": dump.kind,
        "step_count": dump.step_count,
        "failing_thread": dump.failing_thread,
        "failure": None if dump.failure is None else {
            "kind": dump.failure.kind,
            "pc": dump.failure.pc,
            "thread": dump.failure.thread,
            "message": dump.failure.message,
            "cycle": encode_cycle(dump.failure.cycle),
        },
        "waits_for": dump.waits_for,
        "globals": _encode_cells(dump.globals),
        "heap": {
            str(obj_id): {
                "kind": kind,
                "payload": (_encode_cells(payload) if kind == "struct"
                            else [_encode_value(v) for v in payload]),
            }
            for obj_id, (kind, payload) in dump.heap.items()
        },
        "lock_owner": dump.lock_owner,
        "threads": {
            name: {
                "status": t.status,
                "instr_count": t.instr_count,
                "frames": [
                    {
                        "uid": f.uid,
                        "func": f.func,
                        "pc": f.pc,
                        "locals": _encode_cells(f.locals),
                        "loop_counters": {str(k): v
                                          for k, v in f.loop_counters.items()},
                        "return_to": f.return_to,
                    }
                    for f in t.frames
                ],
            }
            for name, t in dump.threads.items()
        },
    }
    return json.dumps(doc, sort_keys=True)


def dump_from_json(text):
    """Parse a JSON core dump back into a :class:`CoreDump`; a malformed
    document is a :class:`DumpError`, naming the field where it can."""
    doc = json.loads(text)
    try:
        return _dump_from_doc(doc)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise DumpError("malformed dump: %s: %s"
                        % (type(exc).__name__, exc)) from None


def _dump_from_doc(doc):
    if not isinstance(doc["failing_thread"], (str, type(None))):
        raise DumpError("failing_thread: not a thread name: %r"
                        % (doc["failing_thread"],))
    failure = None
    if doc["failure"] is not None:
        failure = Failure(kind=doc["failure"]["kind"], pc=doc["failure"]["pc"],
                          thread=doc["failure"]["thread"],
                          message=doc["failure"]["message"],
                          cycle=decode_cycle(doc["failure"].get("cycle")))
    heap = {}
    for obj_id, entry in doc["heap"].items():
        path = "heap.%s.payload" % obj_id
        if entry["kind"] == "struct":
            payload = _decode_cells(entry["payload"], path)
        else:
            payload = [_decode_value(v, path, i)
                       for i, v in enumerate(entry["payload"])]
        heap[int(obj_id)] = (entry["kind"], payload)
    threads = {}
    for name, t in doc["threads"].items():
        frames = [
            FrameDump(uid=f["uid"], func=f["func"], pc=f["pc"],
                      locals=_decode_cells(f["locals"], "threads.%s.frames.%d"
                                           ".locals" % (name, i)),
                      loop_counters={int(k): v
                                     for k, v in f["loop_counters"].items()},
                      return_to=f["return_to"])
            for i, f in enumerate(t["frames"])
        ]
        threads[name] = ThreadDump(name=name, status=t["status"],
                                   frames=frames,
                                   instr_count=t["instr_count"])
    return CoreDump(
        program=doc["program"],
        kind=doc["kind"],
        step_count=doc["step_count"],
        failing_thread=doc["failing_thread"],
        failure=failure,
        globals=_decode_cells(doc["globals"], "globals"),
        heap=heap,
        lock_owner=doc["lock_owner"],
        threads=threads,
        waits_for=doc.get("waits_for"),
    )


def dump_size_bytes(dump):
    """Size of the serialized dump — the Table 3 ``core dump`` metric."""
    return len(dump_to_json(dump).encode("utf-8"))
