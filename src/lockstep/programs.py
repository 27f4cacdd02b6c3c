"""Process programs: step vocabulary, static validation, compilation.

A program document is a list of step dicts, the same shape the scenario
file uses. Compilation unrolls loops and flattens branching into a small
instruction graph with explicit successor indices, checking the static
rules along the way: bounded unrolled size, bounded nesting, variables
bound before every use on every path, op/mechanism compatibility, and
word/value literals inside the domain. The result is acyclic by
construction, every instruction's successors point strictly forward in
program order, so no schedule revisits a program position.
"""

from __future__ import annotations

from dataclasses import dataclass

from .machines import KINDS, WORD_DOMAIN, is_word

MAX_UNROLLED = 64   # instructions per process after loop unrolling
MAX_NESTING = 3     # loop/if/choose nesting
MAX_VARS = 4        # distinct local variables per process

STATUS_TOKENS = ("empty", "full", "full-other")

# op -> (the action-label kind it offers, the family of machines.KINDS it may
# address or None, its operands in the order they are checked). The label kind
# names it in traces and tells choose alternatives apart; each operand checks
# one part of the step and fills one Instr field (_Emitter._OPERANDS).
OPS = {
    "lock": ("lock", "lock", ()),
    "unlock": ("unlock", "lock", ()),
    "read": ("read", "value", ("bind",)),
    "write": ("write", "value", ("value",)),
    "send": ("send", "direct", ("value_or_null",)),
    "receive": ("receive", "direct", ("bind",)),
    "read_word": ("read_word", "word", ("bind", "index")),
    "wait_word": ("read_word", "word", ("index", "word")),
    "if_word": ("read_word", "word", ("index", "word")),
    "write_word": ("write_word", "word", ("index", "word_expr")),
    "check": ("check", "status", ("bind",)),
    "if_status": ("check", "status", ()),
    "update": ("update", "update", ("fn",)),
    "local": ("local", None, ("bind", "value_or_null")),
    "assert_local": ("local", None, ("bound_var", "expected")),
}
LABEL_KIND = {op: row[0] for op, row in OPS.items()}

# if_word and if_status: the step's keys for the branch taken and the other one
_BRANCH_KEYS = {"if_word": ("then", "else"), "if_status": ("full", "empty")}
_SIMPLE_OPS = frozenset(OPS) - set(_BRANCH_KEYS)


class ProgramError(ValueError):
    """A static rule violated by one program; carries a document path."""

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}")


def literal_problem(doc, width):
    """Why ``doc`` is no value literal of ``width`` words, or None."""
    if not isinstance(doc, list) or len(doc) != width or not all(map(is_word, doc)):
        return f"must be a list of {width} words in 0..{WORD_DOMAIN - 1}"
    return None


def _checked_word(doc, path):
    """``doc`` if it is a word, else a ProgramError at ``path``: the one word rule."""
    if not is_word(doc):
        raise ProgramError(path, f"must be a word in 0..{WORD_DOMAIN - 1}")
    return doc


def expected_problem(doc, width):
    """Why ``doc`` is not what a check may expect (null, a word, a status
    token, or a value literal of ``width`` words), or None."""
    if isinstance(doc, list):
        return literal_problem(doc, width)
    if isinstance(doc, str):
        return None if doc in STATUS_TOKENS else f"status token must be one of {STATUS_TOKENS}"
    if doc is not None and not is_word(doc):
        return "must be null, a word, a status token, or a value"
    return None


def mechanism_problem(mid, referrer, family, mech_kind, pid=None, duplex_sides=()):
    """Why ``referrer``, an op or a monitor kind, may not name ``mid``, or None: it
    must be declared in ``mech_kind`` as a kind serving ``family`` (None: any), and
    a duplex channel in ``duplex_sides`` must have the acting process ``pid`` as a side."""
    kind = mech_kind.get(mid) if isinstance(mid, str) else None  # a list or object is no id
    if kind is None:
        return f"undeclared mechanism {mid!r}"
    if family is not None and family not in KINDS[kind][1]:
        return f"{referrer} is not defined for mechanism {mid!r} of kind {kind}"
    if mid in duplex_sides and pid not in duplex_sides[mid]:
        return f"process {pid} is not a side of duplex channel {mid!r}"
    return None


def _check_keys(doc, keys, path):
    """Raise a ProgramError naming the first key of ``doc`` not in ``keys``."""
    if not keys.issuperset(doc):
        raise ProgramError(path, f"unknown field '{next(k for k in doc if k not in keys)}'")


@dataclass(frozen=True)
class CompileContext:
    """Everything a program needs to know about the rest of the scenario."""

    pid: int
    word_width: int
    mech_kind: dict          # mechanism id -> kind string
    mech_index: dict         # mechanism id -> position in the state vector
    duplex_sides: dict       # mechanism id -> (side_a, side_b), for each one with sides


@dataclass(frozen=True, slots=True)
class Instr:
    """One compiled step. succ / succ_else are instruction indices; the
    index one past the last instruction means the process terminated."""

    op: str
    mech: int | None = None
    mech_id: str | None = None
    var: str | None = None
    index: int | None = None
    word: int | None = None
    expr: tuple | None = None      # compiled value or word expression
    fn: tuple | None = None        # compiled update function
    expected: object = None        # assert_local comparison literal
    succ: int = -1
    succ_else: int = -1
    alts: tuple = ()


@dataclass(frozen=True)
class Program:
    instrs: tuple
    vars: frozenset
    mechs: frozenset
    heads: tuple  # heads[pc] = instruction indices offered at that position

    def __len__(self):
        return len(self.instrs)


def compile_program(steps, ctx: CompileContext) -> Program:
    """Compile and statically check one process's step list."""
    if not isinstance(steps, list):
        raise ProgramError("steps", "must be a list of step objects")
    emitter = _Emitter(ctx)
    entry, exits, _ = emitter.emit_seq(steps, "steps", 0, frozenset())
    end = len(emitter.instrs)
    for idx, fld in exits:
        emitter.instrs[idx][fld] = end
    if len(emitter.vars) > MAX_VARS:
        names = ", ".join(sorted(emitter.vars))
        raise ProgramError("steps", f"uses {len(emitter.vars)} local variables ({names}), limit is {MAX_VARS}")
    instrs = tuple(Instr(**d) for d in emitter.instrs)
    heads = tuple(ins.alts if ins.op == "choose" else (pc,) for pc, ins in enumerate(instrs))
    return Program(instrs=instrs, vars=frozenset(emitter.vars),
                   mechs=frozenset(emitter.mechs), heads=heads + ((),))


class _Emitter:
    def __init__(self, ctx: CompileContext):
        self.ctx = ctx
        self.instrs = []   # dicts of non-default Instr fields, until patching is done
        self.vars = set()
        self.mechs = set()

    # -- checks (an OPS operand takes (step, path, bound), returns its Instr field)

    def _mech(self, step, path, family, op):
        mid, ctx = step.get("mechanism"), self.ctx
        if problem := mechanism_problem(mid, op, family, ctx.mech_kind, ctx.pid, ctx.duplex_sides):
            raise ProgramError(f"{path}.mechanism", problem)
        self.mechs.add(mid)
        return mid

    def _bind(self, step, path, bound):
        name = step.get("var")
        if not isinstance(name, str) or not name.isidentifier():
            raise ProgramError(path, "needs a 'var' naming a local variable")
        self.vars.add(name)
        return name

    def _bound_var(self, step, path, bound):
        return self._use(step.get("var"), path, bound)

    def _use(self, name, path, bound):
        """A variable an expression reads: it must be bound on every path here."""
        if not isinstance(name, str) or name not in bound:
            raise ProgramError(path, f"variable '{name}' may be unbound here")
        self.vars.add(name)
        return name

    def _index(self, step, path, bound):
        i = step.get("index")
        if not isinstance(i, int) or isinstance(i, bool) or not 0 <= i < self.ctx.word_width:
            raise ProgramError(f"{path}.index", f"must be an integer in 0..{self.ctx.word_width - 1}")
        return i

    def _word(self, step, path, bound):
        return _checked_word(step.get("word"), f"{path}.word")

    def _value(self, step, path, bound):
        return self._value_expr(step.get("value"), f"{path}.value", bound, allow_none=False)

    def _value_or_null(self, step, path, bound):
        return self._value_expr(step.get("value"), f"{path}.value", bound, allow_none=True)

    def _value_expr(self, doc, path, bound, allow_none):
        if doc is None:
            if not allow_none:
                raise ProgramError(path, "null value is not allowed here")
            return ("lit", None)
        if isinstance(doc, list):
            if problem := literal_problem(doc, self.ctx.word_width):
                raise ProgramError(path, problem)
            return ("lit", tuple(doc))
        if isinstance(doc, dict) and set(doc) == {"var"}:
            return ("var", self._use(doc["var"], path, bound))
        if isinstance(doc, dict) and "fn" in doc:
            fn = self._fn(doc, path, bound)
            _check_keys(doc, _FN_EXPR_KEYS, path)
            return ("fn", fn, self._use(doc.get("var"), path, bound))
        raise ProgramError(path, f"unrecognized value expression: {doc!r}")

    def _word_expr(self, step, path, bound):
        doc, path = step.get("word"), f"{path}.word"
        if isinstance(doc, int) and not isinstance(doc, bool):
            return ("lit", _checked_word(doc, path))
        if isinstance(doc, dict) and set(doc) == {"var"}:
            return ("var", self._use(doc["var"], path, bound))
        raise ProgramError(path, f"unrecognized word expression: {doc!r}")

    def _fn(self, doc, path, bound):
        name = doc.get("fn")
        if name in ("inc", "double"):
            if "k" in doc:  # only add reads k
                raise ProgramError(path, "unknown field 'k'")
            return (name,)
        if name == "add":
            return ("add", _checked_word(doc.get("k"), f"{path}.k"))
        raise ProgramError(path, f"unknown update function: {name!r}")

    def _expected(self, step, path, bound):
        doc = step.get("expected")
        if problem := expected_problem(doc, self.ctx.word_width):
            raise ProgramError(f"{path}.expected", problem)
        return tuple(doc) if isinstance(doc, list) else doc

    # OPS operand -> (the Instr field it fills, the check that reads it, the step
    # keys that check reads)
    _OPERANDS = {"bind": ("var", _bind, ("var",)), "bound_var": ("var", _bound_var, ("var",)),
                 "index": ("index", _index, ("index",)), "word": ("word", _word, ("word",)),
                 "word_expr": ("expr", _word_expr, ("word",)),
                 "value": ("expr", _value, ("value",)),
                 "value_or_null": ("expr", _value_or_null, ("value",)),
                 "fn": ("fn", _fn, ("fn", "k")),
                 "expected": ("expected", _expected, ("expected",))}

    def _append(self, fields):
        idx = len(self.instrs)
        if idx == MAX_UNROLLED:  # checked as it grows, so a large loop count stops early
            raise ProgramError("steps", f"unrolls to more than {MAX_UNROLLED} instructions, "
                                        f"limit is {MAX_UNROLLED}")
        self.instrs.append(fields)
        return idx

    # -- emission ---------------------------------------------------------

    def emit_seq(self, steps, path, depth, bound, times=1):
        """Emit ``steps`` ``times`` times in a row (a loop unrolls this way)."""
        if not isinstance(steps, list):
            raise ProgramError(path, "must be a list of step objects")
        entry = None
        exits = []
        for _ in range(times):
            for k, step in enumerate(steps):
                e, x, bound = self.emit_step(step, f"{path}[{k}]", depth, bound)
                if e is None:
                    continue
                if entry is None:
                    entry = e
                else:
                    for idx, fld in exits:
                        self.instrs[idx][fld] = e
                exits = x
            if entry is None:  # the steps emit nothing, so no later pass does either
                break
        return entry, exits, bound

    def emit_step(self, step, path, depth, bound):
        if not isinstance(step, dict) or "op" not in step:
            raise ProgramError(path, "each step must be an object with an 'op'")
        op = step["op"]
        if not isinstance(op, str) or op not in _STEP_KEYS:
            raise ProgramError(path, f"unknown step op: {op!r}")
        _check_keys(step, _STEP_KEYS[op], path)
        if op in _SIMPLE_OPS:
            idx, bound = self._emit_instr(op, step, path, bound)
            return idx, [(idx, "succ")], bound
        if depth + 1 > MAX_NESTING:
            raise ProgramError(path, f"nesting deeper than {MAX_NESTING}")
        if op == "loop":
            return self._emit_loop(step, path, depth, bound)
        if op == "choose":
            return self._emit_choose(step, path, depth, bound)
        idx, _ = self._emit_instr(op, step, path, bound)
        return self._emit_branch(idx, step, path, _BRANCH_KEYS[op], depth, bound)

    def _emit_instr(self, op, step, path, bound):
        """Append one instruction: its mechanism, then its operands in the order
        OPS lists them. Returns its index and the variables bound after it."""
        _, family, operands = OPS[op]
        fields = {"op": op}
        if family is not None:
            fields["mech_id"] = mid = self._mech(step, path, family, op)
            fields["mech"] = self.ctx.mech_index[mid]
        for name in operands:
            field, check, _ = self._OPERANDS[name]
            fields[field] = check(self, step, path, bound)
        if "bind" in operands:
            bound = bound | {fields["var"]}
        return self._append(fields), bound

    def _emit_loop(self, step, path, depth, bound):
        count = step.get("count")
        if not isinstance(count, int) or isinstance(count, bool) or count < 0:
            raise ProgramError(path, "'count' must be a non-negative integer")
        return self.emit_seq(step.get("body"), f"{path}.body", depth + 1, bound, count)

    def _emit_branch(self, idx, step, path, keys, depth, bound):
        """Wire the branch taken to ``succ`` and the other to ``succ_else`` (an empty
        one leaves its field an exit); bound after the step: bound on both."""
        exits, bounds_out = [], []
        for key, fld in zip(keys, ("succ", "succ_else")):
            steps = step.get(key)
            e, x, b = self.emit_seq([] if steps is None else steps, f"{path}.{key}",
                                    depth + 1, bound)
            if e is None:
                exits.append((idx, fld))
            else:
                self.instrs[idx][fld] = e
                exits.extend(x)
            bounds_out.append(b)
        return idx, exits, frozenset.intersection(*bounds_out)

    def _emit_choose(self, step, path, depth, bound):
        alts = step.get("alternatives")
        if not isinstance(alts, list) or len(alts) < 2:
            raise ProgramError(path, "'choose' needs at least two alternatives")
        idx = self._append({"op": "choose"})
        entries = []
        exits = []
        bounds_out = []
        seen_keys = {}
        for a, alt in enumerate(alts):
            apath = f"{path}.alternatives[{a}]"
            if not isinstance(alt, list) or not alt:
                raise ProgramError(apath, "each alternative must be a non-empty step list")
            op = alt[0].get("op") if isinstance(alt[0], dict) else None
            if not isinstance(op, str) or op not in _SIMPLE_OPS:
                raise ProgramError(f"{apath}[0]", "an alternative must start with a simple step")
            e, x, b = self.emit_seq(alt, apath, depth + 1, bound)
            ins = self.instrs[e]  # the head, compiled: its mechanism and index are checked
            key = (LABEL_KIND[ins["op"]], ins.get("mech_id"), ins.get("index"))
            if key in seen_keys:
                raise ProgramError(
                    apath, f"alternatives {seen_keys[key]} and {a} would offer indistinguishable actions")
            seen_keys[key] = a
            entries.append(e)
            exits.extend(x)
            bounds_out.append(b)
        self.instrs[idx]["alts"] = tuple(entries)
        return idx, exits, frozenset.intersection(*bounds_out)


# step op -> the keys its document may have: its mechanism if it has a family,
# the keys its operands read, its branches; and the keys of loop and choose
_STEP_KEYS = {op: frozenset({"op", *(("mechanism",) if family else ()), *_BRANCH_KEYS.get(op, ()),
                             *(key for name in operands for key in _Emitter._OPERANDS[name][2])})
              for op, (_, family, operands) in OPS.items()}
_STEP_KEYS.update(loop=frozenset({"op", "count", "body"}),
                  choose=frozenset({"op", "alternatives"}))
# the keys of a value expression that applies an update function to a variable
_FN_EXPR_KEYS = frozenset({"fn", "var", "k"})
