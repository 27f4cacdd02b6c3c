"""Command-line behavior: exit codes, output formats, file handling."""

import contextlib
import io
import json
import pathlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lockstep import catalog
from lockstep.cli import main
from lockstep.explorer import Violation, explore, verify_violation
from lockstep.kernel import System, Trace
from lockstep.monitors import compile_monitors
from lockstep.scenarios import ParseError, ValidationError, load_file, loads

from test_scenarios import _deleted, _fields, _replaced

CLEAN, VIOLATIONS, BOUNDS, ERROR = 0, 1, 2, 3
INVALID = pathlib.Path(__file__).parent / "data" / "invalid"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def explore_structured(capsys, name):
    code, out, _ = run(capsys, "explore", "--catalog", name, "--format", "structured")
    return code, json.loads(out)


@pytest.fixture
def torn_schedule(capsys, tmp_path):
    """A violation document as emitted by explore, written to disk."""
    _, doc = explore_structured(capsys, "torn-read-raw")
    path = tmp_path / "sched.json"
    path.write_text(json.dumps(doc["violations"][0]))
    return path


class TestExplore:
    def test_clean_scenario_exits_zero(self, capsys):
        code, out, _ = run(capsys, "explore", "--catalog", "status-channel-exact")
        assert code == CLEAN
        assert "violations: none" in out

    def test_violations_exit_one(self, capsys):
        code, out, _ = run(capsys, "explore", "--catalog", "torn-read-raw")
        assert code == VIOLATIONS
        assert "torn_read" in out

    def test_bounds_exit_two(self, capsys):
        code, out, _ = run(capsys, "explore", "--catalog", "register-lost-update",
                           "--max-depth", "2")
        assert code == BOUNDS
        assert "bounds hit: yes" in out

    @pytest.mark.parametrize("flag", ["--max-depth", "--max-states"])
    def test_a_negative_bound_exits_three(self, capsys, flag):
        """A flag is held to the rule a document's bounds are, with its message."""
        code, out, err = run(capsys, "explore", "--catalog", "torn-read-raw", flag, "-1")
        assert code == ERROR and out == ""
        key = flag[2:].replace("-", "_")
        assert err == f"error: bounds.{key}: must be a non-negative integer\n"

    def test_unknown_catalog_name_exits_three(self, capsys):
        code, _, err = run(capsys, "explore", "--catalog", "nope")
        assert code == ERROR
        # printed by its message, not by a KeyError's quoted repr
        assert err == "error: no catalog scenario named 'nope'; see 'lockstep list'\n"

    def test_structured_report_is_self_contained(self, capsys):
        code, doc = explore_structured(capsys, "deadlock-direct-duplex")
        assert code == VIOLATIONS
        assert doc["scenario"] == "deadlock-direct-duplex"
        assert doc["bounds_hit"] is False
        v = doc["violations"][0]
        assert v["class"] == "deadlock"
        assert len(v["trace"]["events"]) == 2

    def test_text_and_structured_agree_on_classes(self, capsys):
        _, text, _ = run(capsys, "explore", "--catalog", "torn-read-raw")
        _, doc = explore_structured(capsys, "torn-read-raw")
        classes = {v["class"] for v in doc["violations"]}
        assert "violations (1 class)" in text
        assert classes == {"torn_read"}

    def test_file_source(self, capsys, tmp_path):
        from lockstep import catalog, serialize
        path = tmp_path / "sc.json"
        path.write_text(serialize(catalog.get("status-channel-exact")))
        code, _, _ = run(capsys, "explore", "--file", str(path))
        assert code == CLEAN

    def test_malformed_file_exits_three_with_position(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{broken")
        code, _, err = run(capsys, "explore", "--file", str(path))
        assert code == ERROR
        assert "invalid scenario" in err and "line 1" in err

    def test_invalid_scenario_exits_three_with_paths(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"name": "x", "word_width": 1,
                                    "mechanisms": [{"id": "m", "kind": "mailbox"}],
                                    "processes": []}))
        code, _, err = run(capsys, "explore", "--file", str(path))
        assert code == ERROR and "mechanisms[0].kind" in err

    def test_a_terminal_assert_without_expected_expects_null(self, capsys, tmp_path):
        doc = catalog.get("last-message-unidirectional").to_doc()
        del doc["monitors"][0]["expected"]
        path = tmp_path / "no_expected.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "explore", "--file", str(path))
        assert (code, err) == (VIOLATIONS, "")
        assert "p1.r is (3,), expected None" in out

    @pytest.mark.parametrize("doc", sorted(INVALID.glob("*.json")), ids=lambda p: p.stem)
    def test_an_invalid_document_prints_its_recorded_messages(self, capsys, doc):
        """Each document under tests/data/invalid/ exits 3 with the
        validator's messages, in order, as the .txt beside it holds."""
        code, out, err = run(capsys, "explore", "--file", str(doc))
        assert (code, out) == (ERROR, "")
        assert err == doc.with_suffix(".txt").read_text(encoding="utf-8")

    @pytest.mark.parametrize("section, field, where", [
        ("monitors", "mechanism", "monitors[0].mechanism"),
        ("mechanisms", "kind", "mechanisms[0].kind")])
    def test_a_list_or_object_in_a_name_field_exits_three(self, capsys, tmp_path,
                                                          section, field, where):
        from lockstep import catalog
        doc = catalog.get("torn-read-raw").to_doc()
        doc[section][0][field] = {"x": 1}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "explore", "--file", str(path))
        assert code == ERROR and out == ""
        assert where in err

    def test_a_zero_depth_in_the_document_explores_like_the_flag(self, capsys, tmp_path):
        from lockstep import catalog
        doc = catalog.get("torn-read-raw").to_doc()
        doc["bounds"] = {"max_depth": 0}
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "explore", "--file", str(path), "--format", "structured")
        flag_code, flag_out, _ = run(capsys, "explore", "--catalog", "torn-read-raw",
                                     "--max-depth", "0", "--format", "structured")
        assert code == flag_code == BOUNDS
        report = json.loads(out)
        assert report == json.loads(flag_out)
        assert report["states_visited"] == 1 and report["bounds_hit"] is True

    def test_a_deeply_nested_document_exits_three(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        code, out, err = run(capsys, "explore", "--file", str(path))
        assert code == ERROR and out == ""
        assert err.startswith("error: ") and "nested too deeply" in err

    @pytest.mark.parametrize("depth", [900, 985, 5000])
    def test_a_deeply_nested_field_exits_three(self, capsys, tmp_path, depth):
        from lockstep import catalog
        text = json.dumps(catalog.get("torn-read-raw").to_doc())
        text = text.replace('"word_width": 2', '"word_width": ' + "[" * depth + "]" * depth)
        path = tmp_path / "deep.json"
        path.write_text(text)
        code, out, err = run(capsys, "explore", "--file", str(path))
        assert code == ERROR and out == ""
        assert err.startswith("error: ")

    def test_missing_file_exits_three(self, capsys, tmp_path):
        code, _, err = run(capsys, "explore", "--file", str(tmp_path / "none.json"))
        assert code == ERROR

    def test_a_zero_state_bound_keeps_only_the_initial_state(self, capsys):
        code, out, _ = run(capsys, "explore", "--catalog", "deadlock-direct-duplex",
                           "--max-states", "0")
        assert code == BOUNDS
        assert "states visited: 1\n" in out and "bounds hit: yes" in out

    @pytest.mark.parametrize("name", ["register-lost-update", "torn-read-raw"])
    @pytest.mark.parametrize("embedded", [None, {"max_states": 5}, {"max_depth": 3},
                                          {"max_depth": 3, "max_states": 5}])
    @pytest.mark.parametrize("override", [{}, {"max_depth": 50}, {"max_states": 100},
                                          {"max_depth": 50, "max_states": 1000}])
    def test_the_flags_and_a_dict_override_give_one_answer(self, capsys, tmp_path, name,
                                                           embedded, override):
        # each flag, like each key of a dict, overrides only its own bound; the
        # other comes from the document's bounds, then from the default
        doc = catalog.get(name).to_doc()
        if embedded is not None:
            doc["bounds"] = embedded
        path = tmp_path / "bounded.json"
        path.write_text(json.dumps(doc))
        report = explore(load_file(path), override)
        flags = [arg for key, value in override.items()
                 for arg in ("--" + key.replace("_", "-"), str(value))]
        code, out, _ = run(capsys, "explore", "--file", str(path), "--format", "structured",
                           *flags)
        assert json.loads(out) == report.to_doc()
        assert code == (VIOLATIONS if report.violations
                        else BOUNDS if report.bounds_hit else CLEAN)


class TestUsage:
    """A command line the parser rejects is an input error: exit 3, not
    ``explore``'s exit 2 for bounds hit."""

    @pytest.mark.parametrize("argv, message", [
        (["explore", "--catalog", "torn-read-raw", "--max-depth", "abc"],
         "argument --max-depth: invalid int value: 'abc'"),
        (["explore"], "one of the arguments --catalog --file is required"),
        (["explore", "--catalog", "torn-read-raw", "--file", "x.json"],
         "argument --file: not allowed with argument --catalog"),
        (["replay", "--catalog", "torn-read-raw"],
         "the following arguments are required: --schedule"),
        (["list", "--format", "bogus"], "argument --format: invalid choice: 'bogus'"),
        ([], "the following arguments are required: command"),
    ])
    def test_a_usage_error_exits_three_with_usage_and_message(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == ERROR and out == ""
        assert err.startswith("usage: lockstep") and message in err

    @pytest.mark.parametrize("argv", [["--help"], ["explore", "--help"]])
    def test_help_exits_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as ei:
            main(argv)
        assert ei.value.code == 0
        assert capsys.readouterr().out.startswith("usage: lockstep")


class TestRun:
    def test_executes_a_recorded_schedule(self, capsys, torn_schedule):
        code, out, _ = run(capsys, "run", "--catalog", "torn-read-raw",
                           "--schedule", str(torn_schedule))
        assert code == CLEAN
        assert "replayed 5 steps" in out

    def test_structured(self, capsys, torn_schedule):
        code, out, _ = run(capsys, "run", "--catalog", "torn-read-raw",
                           "--format", "structured", "--schedule", str(torn_schedule))
        doc = json.loads(out)
        assert code == CLEAN and doc["steps"] == 5
        assert doc["all_terminated"] is False  # the witness stops at the violation

    def test_schedule_without_events_exits_three(self, capsys, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"class": "deadlock"}))
        code, _, err = run(capsys, "run", "--catalog", "torn-read-raw",
                           "--schedule", str(path))
        assert code == ERROR and "events" in err

    @pytest.mark.parametrize("event,where", [
        (5, "events[0]"),
        ({"process": 0, "action": {"kind": "write", "value": 5}, "mechanism": "cell"},
         "events[0].action.value"),
    ])
    def test_malformed_event_exits_three_naming_its_path(self, capsys, tmp_path,
                                                        event, where):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"events": [event]}))
        code, _, err = run(capsys, "run", "--catalog", "torn-read-raw",
                           "--schedule", str(path))
        assert code == ERROR
        assert err.startswith(f"error: {where}: ")


class TestReplay:
    def test_confirms_a_recorded_violation(self, capsys, torn_schedule):
        code, out, _ = run(capsys, "replay", "--catalog", "torn-read-raw",
                           "--schedule", str(torn_schedule))
        assert code == CLEAN
        assert "CONFIRMED: torn_read" in out
        steps = [ln for ln in out.splitlines() if ln.startswith("[")]
        assert len(steps) == 5  # one numbered line per step

    def test_refutes_a_mislabelled_claim(self, capsys, tmp_path, torn_schedule):
        doc = json.loads(torn_schedule.read_text())
        doc["kind"] = doc["class"] = "deadlock"
        path = tmp_path / "tampered.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "replay", "--catalog", "torn-read-raw",
                           "--schedule", str(path))
        assert code == VIOLATIONS
        assert "REFUTED" in out

    @pytest.mark.parametrize("field,value", [("class", ["x"]), ("state_hash", 5)])
    def test_a_malformed_claim_exits_three_naming_its_field(self, capsys, tmp_path,
                                                            torn_schedule, field, value):
        doc = {**json.loads(torn_schedule.read_text()), field: value}
        path = tmp_path / "claim.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "replay", "--catalog", "torn-read-raw",
                             "--schedule", str(path))
        assert code == ERROR and out == ""
        assert err.startswith(f"error: {field}: ")

    def test_a_deeply_nested_schedule_exits_three(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        code, out, err = run(capsys, "replay", "--catalog", "torn-read-raw",
                             "--schedule", str(path))
        assert code == ERROR and out == ""
        assert err == "error: schedule: document nested too deeply\n"

    @pytest.mark.parametrize("depth", [900, 985, 5000])
    def test_a_deeply_nested_event_field_exits_three(self, capsys, tmp_path, depth):
        value = "[" * depth + "]" * depth
        path = tmp_path / "deep.json"
        path.write_text('{"events": [{"process": 0, "mechanism": "cell", '
                        '"action": {"kind": "write", "value": ' + value + '}}]}')
        code, out, err = run(capsys, "replay", "--catalog", "torn-read-raw",
                             "--schedule", str(path))
        assert code == ERROR and out == ""
        assert err.startswith("error: ")

    def test_stale_schedule_names_the_step(self, capsys, torn_schedule):
        # same schedule against the locked variant: step 0 is not enabled there
        code, _, err = run(capsys, "replay", "--catalog", "torn-read-locked",
                           "--schedule", str(torn_schedule))
        assert code == ERROR
        assert "stale schedule" in err and "step 0" in err

    def test_empty_schedule_is_the_initial_state(self, capsys, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"events": []}))
        code, out, _ = run(capsys, "replay", "--catalog", "status-channel-exact",
                           "--schedule", str(path))
        assert code == CLEAN
        assert "violation classes at the end: none" in out

    def test_structured_verdict(self, capsys, torn_schedule):
        code, out, _ = run(capsys, "replay", "--catalog", "torn-read-raw",
                           "--format", "structured", "--schedule", str(torn_schedule))
        doc = json.loads(out)
        assert code == CLEAN
        assert doc["verdict"] == "confirmed"
        assert doc["observed_classes"] == ["torn_read"]


def _variants(doc):
    """A recorded violation's document as emitted, tampered one field at a
    time, and the exit code ``replay`` gives each."""
    other = "torn_read" if doc["kind"] == "deadlock" else "deadlock"
    return {"as emitted": (doc, CLEAN),
            "class changed": ({**doc, "class": other}, ERROR),
            "kind changed": ({**doc, "kind": other}, ERROR),
            "state_hash changed": ({**doc, "state_hash": "0" * 64}, VIOLATIONS),
            "state_hash dropped": ({k: v for k, v in doc.items() if k != "state_hash"}, ERROR),
            "kind dropped": ({k: v for k, v in doc.items() if k != "kind"}, ERROR),
            "class dropped": ({k: v for k, v in doc.items() if k != "class"}, CLEAN),
            "name of the wrong type": ({**doc, "name": 5}, ERROR)}


WITNESSES = [(name, v.to_doc()) for name in catalog.names()
             for v in explore(catalog.get(name)).violations]


@pytest.mark.parametrize("variant", list(_variants(WITNESSES[0][1])))
@pytest.mark.parametrize("name, emitted", WITNESSES,
                         ids=[f"{name}-{doc['class']}" for name, doc in WITNESSES])
def test_replay_gives_the_verdict_of_the_library(capsys, tmp_path, name, emitted, variant):
    """``lockstep replay`` exits 0 or 1 as ``verify_violation`` says True or
    False, and 3 with its message where ``Violation.from_doc`` refuses the
    document."""
    doc, expected = _variants(emitted)[variant]
    path = tmp_path / "witness.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "replay", "--catalog", name, "--schedule", str(path))
    try:
        violation = Violation.from_doc(doc)
    except ValueError as e:
        assert (code, out, err) == (ERROR, "", f"error: {e}\n")
    else:
        verified = verify_violation(System(catalog.get(name)), violation)
        assert code == (CLEAN if verified else VIOLATIONS) and err == ""
    assert code == expected


class TestList:
    def test_lists_every_entry(self, capsys):
        code, out, _ = run(capsys, "list")
        assert code == CLEAN
        from lockstep.catalog import names
        for name in names():
            assert name in out

    def test_structured(self, capsys):
        code, out, _ = run(capsys, "list", "--format", "structured")
        doc = json.loads(out)
        assert code == CLEAN and len(doc) == 14
        assert {"name", "summary", "outcome", "expected_classes"} <= set(doc[0])


class TestCatalogCheck:
    def test_all_pass(self, capsys):
        code, out, _ = run(capsys, "catalog-check")
        assert code == CLEAN
        assert "14/14 entries match" in out

    def test_only(self, capsys):
        code, out, _ = run(capsys, "catalog-check", "--only", "dekker-mutex")
        assert code == CLEAN
        assert "1/1 entries match" in out

    def test_unknown_only_exits_three(self, capsys):
        code, out, err = run(capsys, "catalog-check", "--only", "dekker-mutex", "--only", "bogus")
        assert code == ERROR and out == ""
        # the message explore --catalog gives for the same name
        assert err == run(capsys, "explore", "--catalog", "bogus")[2]
        assert err == "error: no catalog scenario named 'bogus'; see 'lockstep list'\n"

    def test_tight_bounds_fail_loudly(self, capsys):
        code, out, _ = run(capsys, "catalog-check", "--max-depth", "2",
                           "--only", "register-lost-update")
        assert code == VIOLATIONS
        assert "FAIL" in out

    def test_an_explicit_zero_depth_is_honoured(self, capsys):
        code, out, _ = run(capsys, "catalog-check", "--format", "structured",
                           "--max-depth", "0", "--only", "torn-read-raw")
        row = json.loads(out)[0]
        assert code == VIOLATIONS and row["ok"] is False
        assert row["states_visited"] == 1 and row["schedules_complete"] is None
        assert "exploration hit its bounds; the verdict is incomplete" in row["problems"]

    @pytest.mark.parametrize("flag", ["--max-depth", "--max-states"])
    def test_a_negative_bound_exits_three(self, capsys, flag):
        code, out, err = run(capsys, "catalog-check", flag, "-1", "--only", "duplex-strict")
        assert code == ERROR and out == ""
        key = flag[2:].replace("-", "_")
        assert err == f"error: bounds.{key}: must be a non-negative integer\n"

    def test_structured(self, capsys):
        code, out, _ = run(capsys, "catalog-check", "--format", "structured",
                           "--only", "duplex-strict")
        doc = json.loads(out)
        assert code == CLEAN
        assert doc[0]["ok"] is True and doc[0]["schedules_complete"] == 1


# -- every input gets a defined outcome ------------------------------------------

JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 70), st.just(10**9), st.text(max_size=4),
    st.lists(st.integers(0, 3), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(0, 3), max_size=2))


def _mutated(data, doc):
    """``doc`` with one to three of its fields deleted or replaced by drawn JSON values."""
    paths = list(_fields(doc))
    for _ in range(data.draw(st.integers(1, 3))):
        path = data.draw(st.sampled_from(paths))
        try:
            doc = _replaced(doc, path, data.draw(JSON_VALUES)) if data.draw(st.booleans()) \
                else _deleted(doc, path)
        except (KeyError, IndexError, TypeError):
            pass  # an earlier edit took this field away
    return doc


def _outcome(argv):
    """main's return value and stderr, with stdout discarded."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (CLEAN, VIOLATIONS, BOUNDS, ERROR)
    if code == ERROR:
        assert any(line.startswith("error:") for line in err.getvalue().splitlines())
    return code


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_a_mutated_scenario_exits_zero_to_three(fuzz_dir, data):
    doc = _mutated(data, catalog.get(data.draw(st.sampled_from(catalog.names()))).to_doc())
    path = fuzz_dir / "scenario.json"
    path.write_text(json.dumps(doc))
    _outcome(["explore", "--file", str(path), "--max-states", "300", "--max-depth", "40"])


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_a_mutated_scenario_that_loads_builds_its_system_and_monitors(data):
    """What validation accepts, the checker runs: a document that loads
    builds a System and its monitors without raising."""
    doc = _mutated(data, catalog.get(data.draw(st.sampled_from(catalog.names()))).to_doc())
    try:
        scenario = loads(json.dumps(doc))
    except (ParseError, ValidationError):
        return
    compile_monitors(System(scenario))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_a_mutated_schedule_exits_zero_to_three(fuzz_dir, data):
    name = data.draw(st.sampled_from(catalog.names()))
    sys, rng = System(catalog.get(name)), random.Random(data.draw(st.integers(0, 99)))
    state, events = sys.initial_state(), []
    while (acts := sys.enabled_actions(state)) and len(events) < 8:
        events.append(rng.choice(acts))
        state = sys.apply(state, events[-1])
    doc = Trace(tuple(events)).to_doc()
    if data.draw(st.booleans()):  # a recorded violation claims a class and a state
        doc = {"class": "deadlock", "kind": "deadlock", "state_hash": sys.state_hash(state),
               "trace": doc}
    path = fuzz_dir / "schedule.json"
    path.write_text(json.dumps(_mutated(data, doc)))
    _outcome(["replay", "--catalog", name, "--schedule", str(path)])
