"""Scenario document tests: parsing, validation paths, serialization."""

import functools
import json
import operator

import pytest
from hypothesis import given
from hypothesis import strategies as st

import lockstep.scenarios as s
from lockstep import catalog, kernel, machines, monitors
from lockstep.kernel import System
from lockstep.scenarios import (ParseError, Scenario, ValidationError, load_file, loads,
                                serialize, validate)

MINIMAL = """
{
  "name": "smoke",
  "word_width": 1,
  "mechanisms": [{"id": "ch", "kind": "status_channel"}],
  "processes": [
    {"id": 0, "steps": [{"op": "write", "mechanism": "ch", "value": [1]}]},
    {"id": 1, "steps": [{"op": "read", "mechanism": "ch", "var": "v"}]}
  ]
}
"""


def errors_of(doc) -> str:
    """Validate a scenario document; return the joined error text."""
    with pytest.raises(ValidationError) as ei:
        sc = Scenario.from_doc(doc)
        validate(sc)
    return "\n".join(ei.value.errors)


def doc_with(**overrides):
    doc = json.loads(MINIMAL)
    doc.update(overrides)
    return doc


class TestParsing:
    def test_minimal_document_loads(self):
        sc = loads(MINIMAL)
        assert sc.name == "smoke"
        assert sc.word_width == 1
        assert len(sc.mechanisms) == 1 and len(sc.processes) == 2

    def test_malformed_json_carries_position(self):
        with pytest.raises(ParseError) as ei:
            loads('{"name": }')
        assert ei.value.line == 1 and ei.value.column == 10
        assert "line 1" in str(ei.value)

    def test_load_file(self, tmp_path):
        p = tmp_path / "sc.json"
        p.write_text(MINIMAL)
        assert load_file(p) == loads(MINIMAL)

    def test_document_must_be_an_object(self):
        with pytest.raises(ValidationError, match="must be a JSON object"):
            Scenario.from_doc([1, 2])

    def test_missing_fields_all_reported(self):
        with pytest.raises(ValidationError) as ei:
            Scenario.from_doc({"name": "x"})
        text = "\n".join(ei.value.errors)
        for field in ("word_width", "mechanisms", "processes"):
            assert field in text

    def test_unknown_field_rejected(self):
        with pytest.raises(ValidationError, match="unknown field 'extra'"):
            Scenario.from_doc(doc_with(extra=1))

    @pytest.mark.parametrize("fields, errors", [
        ({"mechanisms": 5}, ["mechanisms: must be a list"]),
        ({"processes": "p0"}, ["processes: must be a list"]),
        ({"monitors": 3}, ["monitors: must be a list"]),
        ({"mechanisms": None, "monitors": {}},
         ["mechanisms: must be a list", "monitors: must be a list"])])
    def test_a_directly_built_scenario_of_the_wrong_shape_is_rejected(self, fields, errors):
        """A Scenario built without ``from_doc`` reaches ``validate`` through
        ``System``, which names each field that is no list or tuple with the
        message ``from_doc`` gives for the same document."""
        with pytest.raises(ValidationError) as ei:
            Scenario.from_doc(doc_with(**fields))
        assert list(ei.value.errors) == errors
        with pytest.raises(ValidationError) as ei:
            System(Scenario(**{"name": "x", "word_width": 1, "mechanisms": (),
                               "processes": (), **fields}))
        assert list(ei.value.errors) == errors

    def test_unrepresentable_value_rejected(self):
        with pytest.raises(ValidationError, match="not JSON-representable"):
            Scenario.from_doc(doc_with(mechanisms={1, 2}))


class TestStructureValidation:
    def test_empty_name(self):
        assert "name: must be a non-empty string" in errors_of(doc_with(name=""))

    def test_word_width_range(self):
        assert "word_width" in errors_of(doc_with(word_width=5))
        assert "word_width" in errors_of(doc_with(word_width=0))

    def test_unknown_mechanism_kind_has_path(self):
        doc = doc_with(mechanisms=[{"id": "ch", "kind": "mailbox"}])
        assert "mechanisms[0].kind: unknown mechanism kind 'mailbox'" in errors_of(doc)

    def test_duplicate_mechanism_id(self):
        doc = json.loads(MINIMAL)
        doc["mechanisms"].append({"id": "ch", "kind": "status_channel"})
        assert "duplicate mechanism id 'ch'" in errors_of(doc)

    def test_bad_initial_value(self):
        doc = doc_with(mechanisms=[{"id": "c", "kind": "raw_cell", "initial": [9]}])
        assert "mechanisms[0].initial" in errors_of(doc)

    def test_locked_cell_mode_required(self):
        doc = doc_with(mechanisms=[{"id": "c", "kind": "locked_cell", "initial": [0]}])
        assert "mechanisms[0].mode" in errors_of(doc)

    def test_duplex_sides_must_differ(self):
        doc = doc_with(mechanisms=[{"id": "d", "kind": "duplex_channel",
                                    "side_a": 0, "side_b": 0}])
        assert "side_a and side_b must be distinct" in errors_of(doc)

    @pytest.mark.parametrize("flag", ["no", 0, 1, None, [True]])
    def test_duplex_last_message_must_be_a_boolean(self, flag):
        doc = doc_with(mechanisms=[{"id": "d", "kind": "duplex_channel",
                                    "side_a": 0, "side_b": 1, "last_message": flag}])
        assert "mechanisms[0].last_message: must be true or false" in errors_of(doc)

    @pytest.mark.parametrize("sides, bad", [((True, 1), "side_a"), ((1, True), "side_b")])
    def test_a_boolean_duplex_side_is_no_process(self, sides, bad):
        """A JSON true equals 1 but is no pid: it draws its field's message
        alone, and the integer side is still checked against the processes."""
        doc = doc_with(processes=[{"id": 0, "steps": []}],
                       mechanisms=[{"id": "d", "kind": "duplex_channel",
                                    "side_a": sides[0], "side_b": sides[1]}])
        assert errors_of(doc).splitlines() == [
            f"mechanisms[0].{side}: process {'True' if side == bad else 1} is not declared"
            for side in ("side_a", "side_b")]

    def test_duplex_side_must_be_declared(self):
        doc = doc_with(mechanisms=[{"id": "d", "kind": "duplex_channel",
                                    "side_a": 0, "side_b": 9}])
        assert "mechanisms[0].side_b: process 9 is not declared" in errors_of(doc)

    def test_process_ids_must_be_dense(self):
        doc = json.loads(MINIMAL)
        doc["processes"][1]["id"] = 5
        assert "ids must be exactly 0..N-1" in errors_of(doc)

    def test_several_problems_reported_together(self):
        doc = doc_with(name="", word_width=9,
                       mechanisms=[{"id": "ch", "kind": "mailbox"}])
        with pytest.raises(ValidationError) as ei:
            validate(Scenario.from_doc(doc))
        assert len(ei.value.errors) >= 3


# valid as it stands; each case of TestUnknownFields misspells one field of it,
# and each mechanism is referenced by both processes, so that is the only error
FIELDS = """
{
  "name": "fields",
  "word_width": 1,
  "mechanisms": [
    {"id": "cell", "kind": "raw_cell", "initial": [0]},
    {"id": "dx", "kind": "duplex_channel", "side_a": 0, "side_b": 1, "last_message": true}
  ],
  "processes": [
    {"id": 0, "steps": [
      {"op": "if_word", "mechanism": "cell", "index": 0, "word": 0,
       "then": [{"op": "write", "mechanism": "dx", "value": [1]}],
       "else": [{"op": "write_word", "mechanism": "cell", "index": 0, "word": 1}]}]},
    {"id": 1, "steps": [{"op": "read", "mechanism": "dx", "var": "v"},
                        {"op": "read_word", "mechanism": "cell", "index": 0, "var": "w"}]}
  ]
}
"""


def _renamed(doc, old, new):
    """``doc`` with its key ``old`` renamed to ``new``, in place."""
    doc[new] = doc.pop(old)


class TestUnknownFields:
    @pytest.mark.parametrize("misspell, message", [
        (lambda d: _renamed(d["processes"][0]["steps"][0], "else", "els"),
         "processes[0].steps[0]: unknown field 'els'"),
        (lambda d: _renamed(d["mechanisms"][1], "last_message", "last_mesage"),
         "mechanisms[1]: unknown field 'last_mesage'"),
        (lambda d: _renamed(d["processes"][1], "steps", "stpes"),
         "processes[1]: unknown field 'stpes'"),
        (lambda d: _renamed(d["processes"][1]["steps"][0], "var", "vaar"),
         "processes[1].steps[0]: unknown field 'vaar'"),
        (lambda d: d["processes"][0]["steps"][0]["then"][0].update(index=0),
         "processes[0].steps[0].then[0]: unknown field 'index'"),
    ], ids=["if_word-els", "duplex-last_mesage", "process-stpes", "read-vaar",
            "write-index"])
    def test_a_misspelled_field_is_the_one_error(self, misspell, message):
        validate(loads(FIELDS))
        doc = json.loads(FIELDS)
        misspell(doc)
        assert errors_of(doc) == message

    def test_a_misspelled_field_in_a_value_expression(self):
        doc = json.loads(FIELDS)
        doc["processes"][1]["steps"].append(
            {"op": "local", "var": "u", "value": {"fn": "add", "var": "v", "k": 1, "note": 0}})
        assert errors_of(doc) == "processes[1].steps[2].value: unknown field 'note'"

    def test_a_misspelled_monitor_field_is_listed_with_the_other_problems(self):
        doc = json.loads(FIELDS)
        doc["monitors"] = [{"kind": "sent_received_order", "mechanism": "dx",
                            "mechansim": "dx"},
                           {"kind": "terminal_assert", "process": 9, "var": "v",
                            "expected": 1, "note": ""}]
        assert errors_of(doc).splitlines() == [
            "monitors[0]: unknown field 'mechansim'",
            "monitors[1]: unknown field 'note'",
            "monitors[1].process: process 9 is not declared"]

    def test_every_listed_field_has_a_check_and_every_check_a_field(self):
        """validate checks each field that a row of machines.KINDS or
        monitors.KINDS lists with the _FieldChecks method named after it,
        and some row lists each of those methods."""
        listed = {name for table in (machines.KINDS, monitors.KINDS)
                  for row in table.values() for name in row[2]}
        checks = {name for name in vars(s._FieldChecks) if not name.startswith("_")}
        assert listed == checks

    def test_unknown_fields_are_listed_with_the_other_problems(self):
        doc = json.loads(FIELDS)
        doc["name"] = ""
        doc["mechanisms"][0]["note"] = "x"
        doc["processes"][1]["steps2"] = []
        assert errors_of(doc).splitlines() == [
            "name: must be a non-empty string",
            "mechanisms[0]: unknown field 'note'",
            "processes[1]: unknown field 'steps2'"]


class TestProgramValidation:
    def test_undeclared_mechanism_is_named_with_process_path(self):
        doc = json.loads(MINIMAL)
        doc["processes"][1]["steps"] = [{"op": "read", "mechanism": "c9", "var": "v"}]
        text = errors_of(doc)
        assert "processes[1].steps[0]" in text and "'c9'" in text

    def test_unreferenced_mechanism(self):
        doc = json.loads(MINIMAL)
        doc["mechanisms"].append({"id": "idle", "kind": "message_cell"})
        assert "mechanism 'idle' is never referenced" in errors_of(doc)

    def test_program_errors_from_every_process_are_collected(self):
        doc = json.loads(MINIMAL)
        doc["processes"][0]["steps"] = [{"op": "read", "mechanism": "nope", "var": "v"}]
        doc["processes"][1]["steps"] = [{"op": "fork", "mechanism": "ch"}]
        with pytest.raises(ValidationError) as ei:
            validate(Scenario.from_doc(doc))
        text = "\n".join(ei.value.errors)
        assert "processes[0]" in text and "processes[1]" in text


class TestMonitorValidation:
    def base(self, *monitors):
        return doc_with(monitors=list(monitors))

    def test_unknown_monitor_kind(self):
        text = errors_of(self.base({"kind": "liveness"}))
        assert "monitors[0].kind: unknown monitor kind 'liveness'" in text

    def test_monitor_mechanism_kind_mismatch(self):
        mon = {"kind": "torn_value", "mechanism": "ch", "allowed": [[1]],
               "process": 1, "vars": ["v"]}
        assert "monitors[0].mechanism: torn_value is not defined for mechanism 'ch' of kind " \
            "status_channel" in errors_of(self.base(mon)).splitlines()

    def test_torn_value_checks_vars_are_bound(self):
        doc = doc_with(
            mechanisms=[{"id": "c", "kind": "raw_cell", "initial": [0]},
                        {"id": "ch", "kind": "status_channel"}],
            monitors=[{"kind": "torn_value", "mechanism": "c", "allowed": [[1]],
                       "process": 1, "vars": ["ghost"]}])
        doc["processes"][0]["steps"].insert(
            0, {"op": "write_word", "mechanism": "c", "index": 0, "word": 1})
        assert "process 1 never binds variable 'ghost'" in errors_of(doc)

    @pytest.mark.parametrize("mon", [
        {"kind": "torn_value", "mechanism": "c", "allowed": [[1]], "process": True,
         "vars": ["a"]},
        {"kind": "terminal_assert", "process": True, "var": "a", "expected": None}],
        ids=["torn_value", "terminal_assert"])
    def test_a_boolean_process_is_one_error(self, mon):
        """True is no pid, so the variables of process 1, which True equals,
        are not checked against the monitor's."""
        doc = doc_with(
            mechanisms=[{"id": "c", "kind": "raw_cell", "initial": [0]},
                        {"id": "ch", "kind": "status_channel"}],
            monitors=[mon])
        doc["processes"][0]["steps"].insert(
            0, {"op": "write_word", "mechanism": "c", "index": 0, "word": 1})
        assert errors_of(doc) == "monitors[0].process: process True is not declared"

    @pytest.mark.parametrize("kind", ["sent_received_order", "torn_value", "recipient_tag",
                                      "lost_unread"])
    def test_a_monitor_kind_with_a_family_names_its_mechanism(self, kind):
        assert "monitors[0].mechanism: undeclared mechanism None" in \
            errors_of(self.base({"kind": kind})).splitlines()

    def test_mutual_exclusion_may_leave_its_mechanism_out_but_not_null(self):
        mon = {"kind": "mutual_exclusion", "markers": [[1, "v"], [1, "v"]]}
        validate(Scenario.from_doc(self.base(mon)))
        assert errors_of(self.base(mon | {"mechanism": None})) == \
            "monitors[0].mechanism: undeclared mechanism None"

    def test_terminal_assert_process_must_exist(self):
        mon = {"kind": "terminal_assert", "process": 7, "var": "v", "expected": [1]}
        assert "process 7 is not declared" in errors_of(self.base(mon))

    def test_terminal_assert_bad_status_token(self):
        mon = {"kind": "terminal_assert", "process": 1, "var": "v", "expected": "busy"}
        assert "status token" in errors_of(self.base(mon))

    def test_mutual_exclusion_needs_two_markers(self):
        mon = {"kind": "mutual_exclusion", "markers": [[0, "v"]]}
        assert "at least two" in errors_of(self.base(mon))

    def test_mutual_exclusion_marker_shape(self):
        mon = {"kind": "mutual_exclusion", "markers": [[0, "v"], ["p1", 2]]}
        assert "markers[1]" in errors_of(self.base(mon))

    def test_mutual_exclusion_marker_names_a_declared_process(self):
        mon = {"kind": "mutual_exclusion", "markers": [[1, "v"], [5, "v"]]}
        assert errors_of(self.base(mon)) == "monitors[0].markers[1]: process 5 is not declared"

    def test_recipient_tag_needs_a_duplex(self):
        mon = {"kind": "recipient_tag", "mechanism": "ch"}
        assert errors_of(self.base(mon)) == \
            "monitors[0].mechanism: recipient_tag is not defined for mechanism 'ch' of kind " \
            "status_channel"

    def test_lost_unread_rejects_unlogged_kinds(self):
        doc = doc_with(
            mechanisms=[{"id": "c", "kind": "raw_cell", "initial": [0]},
                        {"id": "ch", "kind": "status_channel"}],
            monitors=[{"kind": "lost_unread", "mechanism": "c"}])
        doc["processes"][0]["steps"].insert(
            0, {"op": "write_word", "mechanism": "c", "index": 0, "word": 1})
        assert errors_of(doc) == \
            "monitors[0].mechanism: lost_unread is not defined for mechanism 'c' of kind raw_cell"

    def test_valid_monitors_pass(self):
        doc = self.base({"kind": "sent_received_order", "mechanism": "ch"},
                        {"kind": "lost_unread", "mechanism": "ch"},
                        {"kind": "terminal_assert", "process": 1, "var": "v",
                         "expected": [1]})
        validate(Scenario.from_doc(doc))


def _problems(doc):
    """The (path, message) of each problem with ``doc``, in order."""
    return [tuple(line.split(": ", 1)) for line in errors_of(doc).splitlines()]


class TestOneRuleOneMessage:
    """A rule on a document value is one check, so the compiler and the
    validator, and each field the rule covers, refuse a value in one message."""

    @pytest.mark.parametrize("expected", [8, True, 1.5, "busy", [1], [1, 8], {"word": 1}])
    def test_an_expected_value(self, expected):
        doc = doc_with(word_width=2, mechanisms=[], processes=[
            s.process(0, s.local("x", [1, 1]), s.assert_local("x", expected)),
            s.process(1, s.local("x", [1, 1]))],
            monitors=[s.terminal_assert(1, "x", expected)])
        (step, message), (monitor, other) = _problems(doc)
        assert (step, monitor) == ("processes[0].steps[1].expected", "monitors[0].expected")
        assert message == other

    @pytest.mark.parametrize("literal", [[1], [1, 8], [1, -1], [1, True], [1, "2"], []])
    def test_a_value_literal(self, literal):
        initial = _problems(doc_with(word_width=2, mechanisms=[s.raw_cell("c", literal)],
                                     processes=[s.process(0)]))
        value_and_allowed = _problems(doc_with(
            word_width=2, mechanisms=[s.raw_cell("c", [0, 0]), s.message_cell("m")],
            processes=[s.process(0, s.write("m", literal)),
                       s.process(1, s.read("m", "v"), s.read_word("c", 0, "w"),
                                 s.read_word("c", 1, "x"))],
            monitors=[s.torn_value("c", [literal], 1, ["w", "x"])]))
        message = "must be a list of 2 words in 0..7"
        assert initial + value_and_allowed == [
            ("mechanisms[0].initial", message), ("processes[0].steps[0].value", message),
            ("monitors[0].allowed[0]", message)]

    @pytest.mark.parametrize("mid, problem", [
        ("nope", "undeclared mechanism 'nope'"), (None, "undeclared mechanism None"),
        ("", "undeclared mechanism ''"), ([], "undeclared mechanism []"),
        ({}, "undeclared mechanism {}"),
        ("c", "is not defined for mechanism 'c' of kind raw_cell")])
    def test_a_mechanism_reference(self, mid, problem):
        """A step and a monitor that name the same mechanism are refused in one
        message, which names the op or the monitor kind when the kind is wrong."""
        doc = doc_with(mechanisms=[s.raw_cell("c", [0])], processes=[
            s.process(0, s.read_word("c", 0, "w")), s.process(1, s.read(mid, "v"))],
            monitors=[s.lost_unread(mid)])
        step, monitor = ("read ", "lost_unread ") if problem.startswith("is not") else ("", "")
        assert _problems(doc) == [("processes[1].steps[0].mechanism", step + problem),
                                  ("monitors[0].mechanism", monitor + problem)]

    @pytest.mark.parametrize("names", [["a"], ["a", "b", "a"], []])
    def test_torn_value_reads_one_var_per_word(self, names):
        """Every allowed value has word_width words, so a read of any other
        length would always be flagged as torn."""
        doc = catalog.get("torn-read-locked").to_doc()
        doc["monitors"][0]["vars"] = names
        assert _problems(doc) == [("monitors[0].vars",
                                   "needs a list of 2 variable names, one per word")]

    @pytest.mark.parametrize("pid", [True, 5, "0", None])
    def test_a_process_id(self, pid):
        problems = [_problems(doc_with(**fields)) for fields in (
            {"mechanisms": [s.duplex_channel("d", pid, 1)]},
            {"mechanisms": [s.duplex_channel("d", 0, pid)]},
            {"monitors": [s.terminal_assert(pid, "v", None)]},
            {"monitors": [s.mutual_exclusion([[1, "v"], [pid, "v"]])]})]
        message = f"process {pid!r} is not declared"
        assert problems == [[(path, message)] for path in (
            "mechanisms[0].side_a", "mechanisms[0].side_b", "monitors[0].process",
            "monitors[0].markers[1]")]


class TestBoundsValidation:
    def test_unknown_bounds_key(self):
        assert "bounds" in errors_of(doc_with(bounds={"max_width": 2}))
        assert errors_of(doc_with(bounds={"max_dept": 3})) == "bounds: unknown field 'max_dept'"
        assert errors_of(doc_with(bounds=[3])) == \
            "bounds: must be an object with only max_depth / max_states"

    def test_negative_bound(self):
        assert "bounds.max_depth: must be a non-negative integer" in \
            errors_of(doc_with(bounds={"max_depth": -1}))

    def test_good_bounds_pass(self):
        sc = loads(json.dumps(doc_with(bounds={"max_depth": 10, "max_states": 100})))
        assert sc.bounds == {"max_depth": 10, "max_states": 100}


class TestRoundTrip:
    def test_every_catalog_entry_round_trips(self):
        for name in catalog.names():
            sc = catalog.get(name)
            assert loads(serialize(sc)) == sc

    def test_serialize_is_canonical(self):
        sc = catalog.get("duplex-strict")
        text = serialize(sc)
        assert text == serialize(loads(text))
        assert json.loads(text) == sc.to_doc()

    def test_from_parts_normalizes_tuples(self):
        sc = Scenario.from_parts("t", 1, [s.raw_cell("c", (0,))],
                                 [s.process(0, s.write_word("c", 0, 1))])
        assert sc.to_doc()["mechanisms"][0]["initial"] == [0]

    def test_every_catalog_entry_validates(self):
        for name in catalog.names():
            validate(catalog.get(name))

    def test_embedded_bounds_round_trip(self):
        bounds = {"max_depth": 4, "max_states": 9}
        sc = Scenario.from_parts("bounded", 1, [s.raw_cell("c", [0])],
                                 [s.process(0, s.write_word("c", 0, 1))], bounds=bounds)
        text = serialize(sc)
        assert json.loads(text)["bounds"] == bounds
        assert loads(text) == sc and loads(text).bounds == bounds

    def test_a_mutual_exclusion_monitor_may_name_a_mechanism(self):
        monitor = s.mutual_exclusion([[0, "cs"], [1, "cs"]], mech="c")
        assert monitor["mechanism"] == "c"
        sc = Scenario.from_parts(
            "named-section", 1, [s.raw_cell("c", [0])],
            [s.process(p, s.local("cs", [1]), s.write_word("c", 0, p), s.local("cs", [0]))
             for p in range(2)], [monitor])
        validate(sc)
        assert loads(serialize(sc)).monitors == (monitor,)


def test_each_program_is_compiled_once(monkeypatch):
    """loads compiles each process once, to validate it, and a System built
    from what it returns takes those programs: the ones it gets when it
    validates the catalog entry itself."""
    calls = []

    def counting(compile_program):
        def wrapper(steps, ctx):
            calls.append(ctx.pid)
            return compile_program(steps, ctx)
        return wrapper

    for module in (s, kernel):
        monkeypatch.setattr(module, "compile_program", counting(module.compile_program))
    for name in catalog.names():
        text = serialize(catalog.get(name))
        calls.clear()
        sys = System(loads(text))
        assert sorted(calls) == list(range(sys.n_procs))
        assert sys.programs == System(catalog.get(name)).programs  # validated by System
        assert len(calls) == 2 * sys.n_procs


@given(name=st.sampled_from(catalog.names()))
def test_round_trip_property(name):
    sc = catalog.get(name)
    assert loads(serialize(sc)) == sc


def _fields(doc, path=()):
    """The path of every field of a JSON document: object values and list items."""
    items = doc.items() if isinstance(doc, dict) else \
        enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from _fields(value, path + (key,))


def _replaced(doc, path, value):
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


def _deleted(doc, path):
    doc = json.loads(json.dumps(doc))
    del functools.reduce(operator.getitem, path[:-1], doc)[path[-1]]
    return doc


def test_a_list_or_object_in_any_field_is_rejected_not_raised():
    """Each field of each catalog document, replaced by a JSON object and by
    a list, is either accepted or rejected with a document error: a lookup
    that hashes the field must not end in a TypeError."""
    for name in catalog.names():
        doc = catalog.get(name).to_doc()
        for path in _fields(doc):
            for value in ({"x": 1}, [1]):
                try:
                    loads(json.dumps(_replaced(doc, path, value)))
                except (ParseError, ValidationError):
                    pass


def test_a_document_without_any_one_field_is_rejected_or_runs():
    """Each catalog document with one field deleted is either rejected or
    builds a System and its monitors: a field that validation reads as left
    out, the checker reads as left out too."""
    ran = 0
    for name in catalog.names():
        doc = catalog.get(name).to_doc()
        for path in _fields(doc):
            try:
                scenario = loads(json.dumps(_deleted(doc, path)))
            except (ParseError, ValidationError):
                continue
            monitors.compile_monitors(System(scenario))
            ran += 1
    assert ran > 100


def test_a_json_boolean_is_not_an_integer():
    """Each field of each catalog document that holds a JSON integer (a
    process id, the word width, a word, an index, a count) is rejected when
    it holds true or false instead."""
    checked = 0
    for name in catalog.names():
        doc = catalog.get(name).to_doc()
        for path in _fields(doc):
            if type(functools.reduce(operator.getitem, path, doc)) is not int:
                continue
            for value in (True, False):
                with pytest.raises(ValidationError):
                    loads(json.dumps(_replaced(doc, path, value)))
            checked += 1
    assert checked > 100
