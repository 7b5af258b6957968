"""Malformed dumps: a structured error, never a raw ``KeyError`` /
``TypeError`` / ``ValueError`` — ``DumpError`` naming the field from the
loader, ``IndexingError`` from deep inside Algorithm 1's index walk.

The dumps are fig1's failure dump (and a while-loop failure), serialized,
mutated in one field, and loaded back — what a corrupted or hand-edited
dump file looks like to the pipeline.
"""

import json

import pytest

from repro.coredump import take_core_dump
from repro.coredump.serialize import dump_from_json, dump_to_json
from repro.indexing import reverse_engineer_index
from repro.lang import builder as B
from repro.lang.errors import DumpError, IndexingError
from repro.pipeline.stress import stress_test

from tests.indexing.test_indexing import run_to_failure


@pytest.fixture(scope="module")
def fig1_dump(fig1_bundle, fig1_scenario):
    stress = stress_test(fig1_bundle,
                         input_overrides=fig1_scenario.input_overrides,
                         expected_kind=fig1_scenario.expected_fault)
    return json.loads(dump_to_json(stress.dump))


def _outer_frame(doc):
    """The failing thread's thread-entry frame (T1's, holding ``i``)."""
    frame = doc["threads"][doc["failing_thread"]]["frames"][0]
    assert "i" in frame["locals"]
    return frame


def _set_pc(doc, pc):
    doc["threads"][doc["failing_thread"]]["frames"][-1]["pc"] = pc
    doc["failure"]["pc"] = pc


def _set_outer_pc(doc, pc):
    _outer_frame(doc)["pc"] = pc


def _set_induction_var(doc, value):
    _outer_frame(doc)["locals"]["i"] = value


@pytest.mark.parametrize("mutate, value, message", [
    (_set_induction_var, "x", "not an int"),
    (_set_induction_var, 2.5, "not an int"),
    (_set_outer_pc, None, "not a pc of the program"),
    (_set_pc, None, "not a pc of the program"),
    (_set_pc, 10 ** 6, "not a pc of the program"),
    (_set_pc, -1, "not a pc of the program"),
    (_set_pc, True, "not a pc of the program"),
])
def test_a_malformed_fig1_dump_raises_indexing_error(
        fig1_dump, fig1_bundle, mutate, value, message):
    doc = json.loads(json.dumps(fig1_dump))
    mutate(doc, value)
    dump = dump_from_json(json.dumps(doc))
    with pytest.raises(IndexingError, match=message):
        reverse_engineer_index(dump, fig1_bundle.analysis)


def test_the_unmutated_fig1_dump_still_indexes(fig1_dump, fig1_bundle):
    dump = dump_from_json(json.dumps(fig1_dump))
    assert len(reverse_engineer_index(dump, fig1_bundle.analysis)) > 0


def test_a_non_int_while_counter_raises_indexing_error():
    ex, _res, sa = run_to_failure([
        B.assign("n", 0),
        B.while_(B.lt(B.v("n"), 7), [
            B.assign("n", B.add(B.v("n"), 1)),
            B.if_(B.eq(B.v("n"), 5), [B.assert_(0, "x")]),
        ]),
    ])
    doc = json.loads(dump_to_json(take_core_dump(ex, "failure")))
    frame = doc["threads"][doc["failing_thread"]]["frames"][-1]
    (loop_id,) = frame["loop_counters"]
    frame["loop_counters"][loop_id] = "7"
    with pytest.raises(IndexingError, match="not an int"):
        reverse_engineer_index(dump_from_json(json.dumps(doc)), sa)


def _set_cycle(doc, value):
    doc["failure"]["cycle"] = value


def _set_failing_thread(doc, value):
    doc["failing_thread"] = value


def _set_pointer(doc, value):
    """The first ``{"$ptr": id}`` global cell holds ``value`` instead."""
    name = next(name for name, cell in sorted(doc["globals"].items())
                if isinstance(cell, dict) and "$ptr" in cell)
    doc["globals"][name]["$ptr"] = value


def _set_loop_counters(doc, value):
    _outer_frame(doc)["loop_counters"] = value


@pytest.mark.parametrize("mutate, value, field", [
    (_set_cycle, 5, "failure.cycle"),
    (_set_cycle, "x", "failure.cycle"),
    (_set_cycle, {}, "failure.cycle"),
    (_set_cycle, [["T1", "L", "L", 3, 4]], "failure.cycle"),
    (_set_cycle, [[[], [], "L", 3]], "failure.cycle"),
    (_set_failing_thread, [], "failing_thread"),
    (_set_failing_thread, {}, "failing_thread"),
    (_set_pointer, [], "globals."),
    (_set_pointer, {}, "globals."),
    (_set_pointer, "x", "globals."),
    (_set_loop_counters, 5, "malformed dump"),
])
def test_a_malformed_field_raises_dump_error_at_load(
        fig1_dump, mutate, value, field):
    doc = json.loads(json.dumps(fig1_dump))
    mutate(doc, value)
    with pytest.raises(DumpError, match=field):
        dump_from_json(json.dumps(doc))


def test_well_formed_pointers_and_cycles_still_load(fig1_dump):
    doc = json.loads(json.dumps(fig1_dump))
    _set_cycle(doc, [["T1", ["L"], "M", 3], ["T2", ["M"], "L", 9]])
    _set_pointer(doc, None)
    dump = dump_from_json(json.dumps(doc))
    assert dump.failure.cycle == (("T1", ("L",), "M", 3),
                                  ("T2", ("M",), "L", 9))
    assert any(getattr(value, "is_null", False)
               for value in dump.globals.values())
