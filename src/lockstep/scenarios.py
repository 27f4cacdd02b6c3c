"""Scenario documents: loading, validation, serialization, builders.

A scenario lives as plain JSON-shaped data (dicts, lists, ints, strings)
both on disk and in memory, so serialize/load round-trips reduce to
structural equality. The builder helpers at the bottom construct exactly
the document shapes the loader accepts; they are how the built-in catalog
is written and they keep hand-rolled test scenarios terse.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from . import machines, monitors
from .programs import (CompileContext, ProgramError, compile_program, expected_problem,
                       literal_problem, mechanism_problem)


class ParseError(ValueError):
    """The document is not well-formed JSON; carries line and column."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        where = f" (line {line}, column {column})" if line is not None else ""
        super().__init__(f"{message}{where}")


class ValidationError(ValueError):
    """The document parsed but violates the scenario rules."""

    def __init__(self, errors):
        self.errors = tuple(errors)
        super().__init__("\n".join(self.errors))


@dataclass(frozen=True)
class Scenario:
    name: str
    word_width: int
    mechanisms: tuple
    processes: tuple
    monitors: tuple = ()
    bounds: dict | None = None
    # The programs ``validate`` compiled, in pid order, once it found no
    # problem; a System validates a scenario that has none and takes them.
    compiled: tuple | None = field(default=None, init=False, repr=False, compare=False)

    @classmethod
    def from_parts(cls, name, word_width, mechanisms, processes, monitors=(), bounds=None):
        """Build from builder output; ``from_doc`` copies it into plain JSON data."""
        doc = {"name": name, "word_width": word_width, "mechanisms": list(mechanisms),
               "processes": list(processes), "monitors": list(monitors)}
        if bounds is not None:
            doc["bounds"] = bounds
        return cls.from_doc(doc)

    @classmethod
    def from_doc(cls, doc):
        if not isinstance(doc, dict):
            raise ValidationError(["document: a scenario must be a JSON object"])
        missing = [k for k in ("name", "word_width", "mechanisms", "processes")
                   if k not in doc]
        if missing:
            raise ValidationError([f"document: missing required field '{k}'" for k in missing])
        unknown = set(doc) - {"name", "word_width", "mechanisms", "processes",
                              "monitors", "bounds"}
        if unknown:
            raise ValidationError([f"document: unknown field '{k}'" for k in sorted(unknown)])
        doc = _plain(doc)
        monitors = doc.get("monitors", [])
        if problems := _shape_problems(doc["mechanisms"], doc["processes"], monitors):
            raise ValidationError(problems)
        return cls(name=doc["name"], word_width=doc["word_width"],
                   mechanisms=tuple(doc["mechanisms"]), processes=tuple(doc["processes"]),
                   monitors=tuple(monitors), bounds=doc.get("bounds"))

    def to_doc(self):
        doc = {"name": self.name, "word_width": self.word_width,
               "mechanisms": list(self.mechanisms), "processes": list(self.processes),
               "monitors": list(self.monitors)}
        if self.bounds is not None:
            doc["bounds"] = self.bounds
        return _plain(doc)

    def serialize(self) -> str:
        return json.dumps(self.to_doc(), indent=2, sort_keys=True) + "\n"


def _shape_problems(mechanisms, processes, monitors):
    """``<field>: must be a list`` for each of the three that is no list or tuple."""
    return [f"{key}: must be a list" for key, v in
            (("mechanisms", mechanisms), ("processes", processes), ("monitors", monitors))
            if not isinstance(v, (list, tuple))]


def _plain(x):
    """Deep-copy through JSON, coercing tuples to lists on the way."""
    try:
        return json.loads(json.dumps(x))
    except TypeError as e:
        raise ValidationError([f"document: not JSON-representable: {e}"]) from None


def serialize(scenario: Scenario) -> str:
    return scenario.serialize()


def loads(text: str) -> Scenario:
    try:
        doc = json.loads(text)
        scenario = Scenario.from_doc(doc)
        validate(scenario)
    except json.JSONDecodeError as e:
        raise ParseError(e.msg, e.lineno, e.colno) from None
    except RecursionError:  # decoding, copying or quoting a deeply nested value
        raise ParseError("document nested too deeply") from None
    return scenario


def load_file(path) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())


# -- validation ---------------------------------------------------------------


def validate(scenario: Scenario) -> None:
    """Check every scenario rule; raise ValidationError listing all problems."""
    if errors := _shape_problems(scenario.mechanisms, scenario.processes, scenario.monitors):
        raise ValidationError(errors)  # a Scenario built directly: nothing below can iterate it
    if not isinstance(scenario.name, str) or not scenario.name:
        errors.append("name: must be a non-empty string")
    width_ok = type(scenario.word_width) is int and 1 <= scenario.word_width <= 4
    if not width_ok:
        errors.append("word_width: must be an integer in 1..4")
    checks = _FieldChecks(scenario.word_width if width_ok else 2, len(scenario.processes))
    mech_kind, programs = checks.mech_kind, checks.programs
    duplex_sides = {}
    for i, m in enumerate(scenario.mechanisms):
        path = f"mechanisms[{i}]"
        if not isinstance(m, dict):
            errors.append(f"{path}: must be an object")
            continue
        mid = m.get("id")
        if not isinstance(mid, str) or not mid:
            errors.append(f"{path}.id: must be a non-empty string")
            continue
        if mid in mech_kind:
            errors.append(f"{path}.id: duplicate mechanism id '{mid}'")
            continue
        kind = m.get("kind")
        if not isinstance(kind, str) or kind not in machines.KINDS:
            errors.append(f"{path}.kind: unknown mechanism kind {kind!r}")
            continue
        mech_kind[mid] = kind
        fields = machines.KINDS[kind][2]
        errors += [f"{path}: unknown field '{k}'" for k in m
                   if k not in fields and k not in ("id", "kind")]
        for name in fields:
            errors += getattr(checks, name)(m, path)
        if "side_a" in fields:
            duplex_sides[mid] = (m.get("side_a"), m.get("side_b"))

    pids = []
    for i, p in enumerate(scenario.processes):
        path = f"processes[{i}]"
        if not isinstance(p, dict) or type(p.get("id")) is not int:  # a JSON boolean is no id
            errors.append(f"{path}: must be an object with an integer 'id'")
            continue
        pids.append(p["id"])
        errors += [f"{path}: unknown field '{k}'" for k in p if k not in ("id", "steps")]
    if sorted(pids) != list(range(len(scenario.processes))):
        errors.append("processes: ids must be exactly 0..N-1, each once")

    if errors:
        raise ValidationError(errors)

    # With the structure sound, compile every program and then check monitors
    # against what the programs actually bind.
    mech_index = {mid: i for i, mid in enumerate(mech_kind)}
    referenced = set()
    for i, p in enumerate(sorted(scenario.processes, key=lambda q: q["id"])):
        ctx = CompileContext(pid=p["id"], word_width=checks.width, mech_kind=mech_kind,
                             mech_index=mech_index, duplex_sides=duplex_sides)
        try:
            prog = compile_program(p.get("steps"), ctx)
        except ProgramError as e:
            errors.append(f"processes[{p['id']}].{e.path}: {e.message}")
            continue
        programs[p["id"]] = prog
        referenced |= prog.mechs

    for mid in mech_kind:
        if mid not in referenced:
            errors.append(f"mechanism '{mid}' is never referenced by any process step")

    for j, mon in enumerate(scenario.monitors):
        errors += _validate_monitor(mon, f"monitors[{j}]", checks)

    if scenario.bounds is not None:
        errors += bounds_problems(scenario.bounds)

    if errors:
        raise ValidationError(errors)
    object.__setattr__(scenario, "compiled", tuple(programs[p] for p in sorted(programs)))


def bounds_problems(bounds):
    """The problems with a document's ``bounds`` or a strategy's override of them."""
    if not isinstance(bounds, dict):
        return ["bounds: must be an object with only max_depth / max_states"]
    problems = [f"bounds: unknown field '{k}'" for k in bounds
                if k not in ("max_depth", "max_states")]
    return problems + [f"bounds.{k}: must be a non-negative integer" for k, v in bounds.items()
                       if k in ("max_depth", "max_states")  # a JSON boolean is no bound
                       and (type(v) is not int or v < 0)]


class _FieldChecks:
    """A check per document field that a machines.KINDS or monitors.KINDS row
    lists, named after it: ``check(doc, path)`` yields the problems it finds,
    reading what the scenario declares and the programs that compiled."""

    def __init__(self, width, n_procs):
        self.width = width
        self.mech_kind = {}   # mechanism id -> kind
        self.pids = set(range(n_procs))  # the declared process ids
        self.programs = {}    # pid -> Program, for each process that compiled

    def _literal(self, doc, path):
        if problem := literal_problem(doc, self.width):
            yield f"{path}: {problem}"

    def _pid(self, pid, path):
        if type(pid) is not int or pid not in self.pids:  # a JSON boolean is no pid
            yield f"{path}: process {pid!r} is not declared"

    def _binds(self, pid, name, where):
        prog = self.programs.get(pid) if type(pid) is int else None  # true equals 1 but is no pid
        if prog is not None and name not in prog.vars:
            yield f"{where}: process {pid} never binds variable {name!r}"

    def initial(self, m, path):
        return self._literal(m.get("initial"), f"{path}.initial")

    def mode(self, m, path):
        if m.get("mode") not in ("encapsulated", "undisciplined"):
            yield f"{path}.mode: must be 'encapsulated' or 'undisciplined'"

    def side_a(self, m, path):
        return self._pid(m.get("side_a"), f"{path}.side_a")

    def side_b(self, m, path):
        a, b = m.get("side_a"), m.get("side_b")
        yield from self._pid(b, f"{path}.side_b")
        if type(a) is type(b) is int and a == b:  # true equals 1 but is no pid
            yield f"{path}: side_a and side_b must be distinct processes"

    def last_message(self, m, path):
        if not isinstance(m.get("last_message", False), bool):
            yield f"{path}.last_message: must be true or false"

    def mechanism(self, mon, path):
        family = monitors.KINDS[mon["kind"]][1]
        if family is None and "mechanism" not in mon:  # only a kind with a family needs one
            return
        if problem := mechanism_problem(mon.get("mechanism"), mon["kind"], family, self.mech_kind):
            yield f"{path}.mechanism: {problem}"

    def markers(self, mon, path):
        markers = mon.get("markers")
        if not isinstance(markers, list) or len(markers) < 2:
            yield f"{path}.markers: needs at least two [process, var] pairs"
            return
        for k, mk in enumerate(markers):
            where = f"{path}.markers[{k}]"
            if not isinstance(mk, list) or len(mk) != 2 or not isinstance(mk[1], str):
                yield f"{where}: must be a [process, var] pair"
            else:
                yield from self._pid(mk[0], where)
                yield from self._binds(mk[0], mk[1], where)

    def allowed(self, mon, path):
        allowed = mon.get("allowed")
        if not isinstance(allowed, list) or not allowed:
            yield f"{path}.allowed: needs at least one value"
            return
        for k, v in enumerate(allowed):
            yield from self._literal(v, f"{path}.allowed[{k}]")

    def process(self, mon, path):
        return self._pid(mon.get("process"), f"{path}.process")

    def vars(self, mon, path):
        names = mon.get("vars")
        if not isinstance(names, list) or len(names) != self.width \
                or not all(isinstance(n, str) for n in names):  # one name per word of a value
            yield f"{path}.vars: needs a list of {self.width} variable names, one per word"
            return
        for n in names:
            yield from self._binds(mon.get("process"), n, f"{path}.vars")

    def var(self, mon, path):
        if not isinstance(mon.get("var"), str):
            yield f"{path}.var: must be a variable name"
        else:
            yield from self._binds(mon.get("process"), mon["var"], f"{path}.var")

    def expected(self, mon, path):
        if problem := expected_problem(mon.get("expected"), self.width):
            yield f"{path}.expected: {problem}"


def _validate_monitor(mon, path, checks):
    """The problems of one monitor document: its kind, unknown fields, then each field's."""
    if not isinstance(mon, dict):
        return [f"{path}: must be an object"]
    kind = mon.get("kind")
    if not isinstance(kind, str) or kind not in monitors.KINDS:
        return [f"{path}.kind: unknown monitor kind {kind!r}"]
    fields = monitors.KINDS[kind][2]
    problems = [f"{path}: unknown field '{k}'" for k in mon if k not in fields and k != "kind"]
    for name in fields:
        problems += getattr(checks, name)(mon, path)
    return problems


# -- builders: mechanisms ------------------------------------------------------


def raw_cell(mid, initial):
    return {"id": mid, "kind": "raw_cell", "initial": list(initial)}


def locked_cell(mid, initial, mode="encapsulated"):
    return {"id": mid, "kind": "locked_cell", "initial": list(initial), "mode": mode}


def message_cell(mid):
    return {"id": mid, "kind": "message_cell"}


def status_channel(mid):
    return {"id": mid, "kind": "status_channel"}


def last_message_channel(mid):
    return {"id": mid, "kind": "last_message_channel"}


def duplex_channel(mid, side_a, side_b, last_message=False):
    return {"id": mid, "kind": "duplex_channel", "side_a": side_a, "side_b": side_b,
            "last_message": last_message}


def shared_register(mid, initial):
    return {"id": mid, "kind": "shared_register", "initial": list(initial)}


def direct_channel(mid):
    return {"id": mid, "kind": "direct_channel"}


# -- builders: steps -----------------------------------------------------------


def process(pid, *steps):
    return {"id": pid, "steps": list(steps)}


def lock(mech):
    return {"op": "lock", "mechanism": mech}


def unlock(mech):
    return {"op": "unlock", "mechanism": mech}


def read(mech, var):
    return {"op": "read", "mechanism": mech, "var": var}


def write(mech, value):
    return {"op": "write", "mechanism": mech, "value": value}


def send(mech, value):
    return {"op": "send", "mechanism": mech, "value": value}


def receive(mech, var):
    return {"op": "receive", "mechanism": mech, "var": var}


def read_word(mech, index, var):
    return {"op": "read_word", "mechanism": mech, "index": index, "var": var}


def write_word(mech, index, word):
    return {"op": "write_word", "mechanism": mech, "index": index, "word": word}


def wait_word(mech, index, word):
    return {"op": "wait_word", "mechanism": mech, "index": index, "word": word}


def if_word(mech, index, word, then, orelse=()):
    return {"op": "if_word", "mechanism": mech, "index": index, "word": word,
            "then": list(then), "else": list(orelse)}


def check(mech, var):
    return {"op": "check", "mechanism": mech, "var": var}


def if_status(mech, full, empty=()):
    return {"op": "if_status", "mechanism": mech, "full": list(full),
            "empty": list(empty)}


def update(mech, fn, k=None):
    doc = {"op": "update", "mechanism": mech, "fn": fn}
    if k is not None:
        doc["k"] = k
    return doc


def loop(count, body):
    return {"op": "loop", "count": count, "body": list(body)}


def choose(*alternatives):
    return {"op": "choose", "alternatives": [list(a) for a in alternatives]}


def local(var, value):
    return {"op": "local", "var": var, "value": value}


def assert_local(var, expected):
    return {"op": "assert_local", "var": var, "expected": expected}


def var(name):
    return {"var": name}


def applied(fn, variable, k=None):
    doc = {"fn": fn, "var": variable}
    if k is not None:
        doc["k"] = k
    return doc


# -- builders: monitors ---------------------------------------------------------


def mutual_exclusion(markers, mech=None):
    doc = {"kind": "mutual_exclusion", "markers": [list(m) for m in markers]}
    if mech is not None:
        doc["mechanism"] = mech
    return doc


def sent_received_order(mech):
    return {"kind": "sent_received_order", "mechanism": mech}


def torn_value(mech, allowed, process_id, variables):
    return {"kind": "torn_value", "mechanism": mech,
            "allowed": [list(v) for v in allowed],
            "process": process_id, "vars": list(variables)}


def recipient_tag(mech):
    return {"kind": "recipient_tag", "mechanism": mech}


def terminal_assert(process_id, variable, expected):
    return {"kind": "terminal_assert", "process": process_id, "var": variable,
            "expected": expected}


def lost_unread(mech):
    return {"kind": "lost_unread", "mechanism": mech}
