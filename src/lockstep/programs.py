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

from dataclasses import dataclass, field

from .machines import WORD_DOMAIN

MAX_UNROLLED = 64   # instructions per process after loop unrolling
MAX_NESTING = 3     # loop/if/choose nesting
MAX_VARS = 4        # distinct local variables per process

STATUS_TOKENS = ("empty", "full", "full-other")

_WORD_KINDS = frozenset({"raw_cell", "locked_cell"})
_VALUE_KINDS = frozenset({"message_cell", "status_channel", "last_message_channel",
                          "duplex_channel", "shared_register"})
_STATUS_KINDS = frozenset({"status_channel", "last_message_channel", "duplex_channel"})
_LOCK_KINDS = frozenset({"locked_cell", "shared_register"})

# What an instruction looks like from the outside (its action-label kind);
# used both for trace labels and for rejecting ambiguous choose alternatives.
LABEL_KIND = {
    "lock": "lock", "unlock": "unlock",
    "read": "read", "write": "write",
    "send": "send", "receive": "receive",
    "read_word": "read_word", "wait_word": "read_word", "if_word": "read_word",
    "write_word": "write_word",
    "check": "check", "if_status": "check",
    "update": "update",
    "local": "local", "assert_local": "local",
}

_COMPOUND_OPS = frozenset({"loop", "if_word", "if_status", "choose"})
_SIMPLE_OPS = frozenset(LABEL_KIND) - {"if_word", "if_status"}
_OPS = _SIMPLE_OPS | _COMPOUND_OPS


class ProgramError(ValueError):
    """A static rule violated by one program; carries a document path."""

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}")


@dataclass(frozen=True)
class CompileContext:
    """Everything a program needs to know about the rest of the scenario."""

    pid: int
    word_width: int
    mech_kind: dict          # mechanism id -> kind string
    mech_index: dict         # mechanism id -> position in the state vector
    duplex_sides: dict       # mechanism id -> (side_a, side_b)


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
        self.instrs = []   # mutable dicts until patching is done
        self.vars = set()
        self.mechs = set()

    # -- helpers ----------------------------------------------------------

    def _mech(self, step, path, allowed_kinds, op):
        mid = step.get("mechanism")
        if not isinstance(mid, str) or not mid:
            raise ProgramError(path, f"{op} needs a 'mechanism' id")
        kind = self.ctx.mech_kind.get(mid)
        if kind is None:
            raise ProgramError(path, f"references undeclared mechanism '{mid}'")
        if kind not in allowed_kinds:
            raise ProgramError(path, f"{op} is not defined for mechanism '{mid}' of kind {kind}")
        if kind == "duplex_channel":
            sides = self.ctx.duplex_sides[mid]
            if self.ctx.pid not in sides:
                raise ProgramError(
                    path, f"process {self.ctx.pid} is not a side of duplex channel '{mid}'")
        self.mechs.add(mid)
        return mid, kind

    def _bind(self, step, path):
        name = step.get("var")
        if not isinstance(name, str) or not name.isidentifier():
            raise ProgramError(path, "needs a 'var' naming a local variable")
        self.vars.add(name)
        return name

    def _use(self, name, path, bound):
        """A variable an expression reads: it must be bound on every path here."""
        if not isinstance(name, str) or name not in bound:
            raise ProgramError(path, f"variable '{name}' may be unbound here")
        self.vars.add(name)
        return name

    def _index(self, step, path):
        i = step.get("index")
        if not isinstance(i, int) or isinstance(i, bool) or not 0 <= i < self.ctx.word_width:
            raise ProgramError(path, f"'index' must be an integer in 0..{self.ctx.word_width - 1}")
        return i

    def _word_literal(self, step, path):
        w = step.get("word")
        if not isinstance(w, int) or isinstance(w, bool) or not 0 <= w < WORD_DOMAIN:
            raise ProgramError(path, f"'word' must be an integer in 0..{WORD_DOMAIN - 1}")
        return w

    def _value_expr(self, doc, path, bound, allow_none):
        if doc is None:
            if not allow_none:
                raise ProgramError(path, "null value is not allowed here")
            return ("lit", None)
        if isinstance(doc, list):
            if len(doc) != self.ctx.word_width:
                raise ProgramError(
                    path, f"value literal has {len(doc)} words, scenario word width is {self.ctx.word_width}")
            for w in doc:
                if not isinstance(w, int) or isinstance(w, bool) or not 0 <= w < WORD_DOMAIN:
                    raise ProgramError(path, f"value words must be integers in 0..{WORD_DOMAIN - 1}")
            return ("lit", tuple(doc))
        if isinstance(doc, dict) and set(doc) == {"var"}:
            return ("var", self._use(doc["var"], path, bound))
        if isinstance(doc, dict) and "fn" in doc:
            fn = self._fn(doc, path)
            return ("fn", fn, self._use(doc.get("var"), path, bound))
        raise ProgramError(path, f"unrecognized value expression: {doc!r}")

    def _word_expr(self, doc, path, bound):
        if isinstance(doc, int) and not isinstance(doc, bool):
            if not 0 <= doc < WORD_DOMAIN:
                raise ProgramError(path, f"word literal must be in 0..{WORD_DOMAIN - 1}")
            return ("lit", doc)
        if isinstance(doc, dict) and set(doc) == {"var"}:
            return ("var", self._use(doc["var"], path, bound))
        raise ProgramError(path, f"unrecognized word expression: {doc!r}")

    def _fn(self, doc, path):
        name = doc.get("fn")
        if name == "inc":
            return ("inc",)
        if name == "double":
            return ("double",)
        if name == "add":
            k = doc.get("k")
            if not isinstance(k, int) or isinstance(k, bool) or not 0 <= k < WORD_DOMAIN:
                raise ProgramError(path, f"'add' needs 'k' in 0..{WORD_DOMAIN - 1}")
            return ("add", k)
        raise ProgramError(path, f"unknown update function: {name!r}")

    def _append(self, **fields):
        idx = len(self.instrs)
        if idx == MAX_UNROLLED:  # checked as it grows, so a large loop count stops early
            raise ProgramError("steps", f"unrolls to more than {MAX_UNROLLED} instructions, "
                                        f"limit is {MAX_UNROLLED}")
        base = dict(op=None, mech=None, mech_id=None, var=None, index=None, word=None,
                    expr=None, fn=None, expected=None, succ=-1, succ_else=-1, alts=())
        base.update(fields)
        self.instrs.append(base)
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
        if not isinstance(op, str) or op not in _OPS:
            raise ProgramError(path, f"unknown step op: {op!r}")
        if op in _COMPOUND_OPS:
            if depth + 1 > MAX_NESTING:
                raise ProgramError(path, f"nesting deeper than {MAX_NESTING}")
            if op == "loop":
                return self._emit_loop(step, path, depth, bound)
            if op == "choose":
                return self._emit_choose(step, path, depth, bound)
            if op == "if_word":
                return self._emit_if_word(step, path, depth, bound)
            return self._emit_if_status(step, path, depth, bound)
        return self._emit_simple(op, step, path, bound)

    def _emit_simple(self, op, step, path, bound):
        c = self.ctx
        if op in ("lock", "unlock"):
            mid, _ = self._mech(step, path, _LOCK_KINDS, op)
            idx = self._append(op=op, mech=c.mech_index[mid], mech_id=mid)
        elif op == "read":
            mid, _ = self._mech(step, path, _VALUE_KINDS, op)
            var = self._bind(step, path)
            idx = self._append(op=op, mech=c.mech_index[mid], mech_id=mid, var=var)
            bound = bound | {var}
        elif op == "write":
            mid, _ = self._mech(step, path, _VALUE_KINDS, op)
            expr = self._value_expr(step.get("value"), f"{path}.value", bound, allow_none=False)
            idx = self._append(op=op, mech=c.mech_index[mid], mech_id=mid, expr=expr)
        elif op == "send":
            mid, _ = self._mech(step, path, {"direct_channel"}, op)
            expr = self._value_expr(step.get("value"), f"{path}.value", bound, allow_none=True)
            idx = self._append(op=op, mech=c.mech_index[mid], mech_id=mid, expr=expr)
        elif op == "receive":
            mid, _ = self._mech(step, path, {"direct_channel"}, op)
            var = self._bind(step, path)
            idx = self._append(op=op, mech=c.mech_index[mid], mech_id=mid, var=var)
            bound = bound | {var}
        elif op == "read_word":
            mid, _ = self._mech(step, path, _WORD_KINDS, op)
            var = self._bind(step, path)
            i = self._index(step, path)
            idx = self._append(op=op, mech=c.mech_index[mid], mech_id=mid, var=var, index=i)
            bound = bound | {var}
        elif op == "write_word":
            mid, _ = self._mech(step, path, _WORD_KINDS, op)
            i = self._index(step, path)
            expr = self._word_expr(step.get("word"), f"{path}.word", bound)
            idx = self._append(op=op, mech=c.mech_index[mid], mech_id=mid, index=i, expr=expr)
        elif op == "wait_word":
            mid, _ = self._mech(step, path, _WORD_KINDS, op)
            i = self._index(step, path)
            w = self._word_literal(step, path)
            idx = self._append(op=op, mech=c.mech_index[mid], mech_id=mid, index=i, word=w)
        elif op == "check":
            mid, _ = self._mech(step, path, _STATUS_KINDS, op)
            var = self._bind(step, path)
            idx = self._append(op=op, mech=c.mech_index[mid], mech_id=mid, var=var)
            bound = bound | {var}
        elif op == "update":
            mid, _ = self._mech(step, path, {"shared_register"}, op)
            fn = self._fn(step, path)
            idx = self._append(op=op, mech=c.mech_index[mid], mech_id=mid, fn=fn)
        elif op == "local":
            var = self._bind(step, path)
            expr = self._value_expr(step.get("value"), f"{path}.value", bound, allow_none=True)
            idx = self._append(op=op, var=var, expr=expr)
            bound = bound | {var}
        elif op == "assert_local":
            name = step.get("var")
            if not isinstance(name, str) or name not in bound:
                raise ProgramError(path, f"assert_local reads variable '{name}', which may be unbound here")
            expected = self._assert_literal(step.get("expected"), f"{path}.expected")
            idx = self._append(op=op, var=name, expected=expected)
        else:  # pragma: no cover - _SIMPLE_OPS is closed
            raise ProgramError(path, f"unknown step op: {op!r}")
        return idx, [(idx, "succ")], bound

    def _assert_literal(self, doc, path):
        if doc is None:
            return None
        if isinstance(doc, bool):
            raise ProgramError(path, "expected must be null, a word, a status token, or a value")
        if isinstance(doc, int):
            if not 0 <= doc < WORD_DOMAIN:
                raise ProgramError(path, f"expected word must be in 0..{WORD_DOMAIN - 1}")
            return doc
        if isinstance(doc, str):
            if doc not in STATUS_TOKENS:
                raise ProgramError(path, f"expected status token must be one of {STATUS_TOKENS}")
            return doc
        if isinstance(doc, list):
            kind, v = self._value_expr(doc, path, frozenset(), allow_none=False)
            return v
        raise ProgramError(path, "expected must be null, a word, a status token, or a value")

    def _emit_loop(self, step, path, depth, bound):
        count = step.get("count")
        if not isinstance(count, int) or isinstance(count, bool) or count < 0:
            raise ProgramError(path, "'count' must be a non-negative integer")
        return self.emit_seq(step.get("body"), f"{path}.body", depth + 1, bound, count)

    def _emit_if_word(self, step, path, depth, bound):
        mid, _ = self._mech(step, path, _WORD_KINDS, "if_word")
        i = self._index(step, path)
        w = self._word_literal(step, path)
        idx = self._append(op="if_word", mech=self.ctx.mech_index[mid], mech_id=mid,
                           index=i, word=w)
        return self._emit_branch(idx, step.get("then"), step.get("else"),
                                 path, "then", "else", depth, bound)

    def _emit_if_status(self, step, path, depth, bound):
        mid, _ = self._mech(step, path, _STATUS_KINDS, "if_status")
        idx = self._append(op="if_status", mech=self.ctx.mech_index[mid], mech_id=mid)
        return self._emit_branch(idx, step.get("full"), step.get("empty"),
                                 path, "full", "empty", depth, bound)

    def _emit_branch(self, idx, taken, other, path, taken_key, other_key, depth, bound):
        t_e, t_x, t_b = self.emit_seq(taken if taken is not None else [],
                                      f"{path}.{taken_key}", depth + 1, bound)
        o_e, o_x, o_b = self.emit_seq(other if other is not None else [],
                                      f"{path}.{other_key}", depth + 1, bound)
        exits = []
        if t_e is None:
            exits.append((idx, "succ"))
        else:
            self.instrs[idx]["succ"] = t_e
            exits.extend(t_x)
        if o_e is None:
            exits.append((idx, "succ_else"))
        else:
            self.instrs[idx]["succ_else"] = o_e
            exits.extend(o_x)
        return idx, exits, t_b & o_b

    def _emit_choose(self, step, path, depth, bound):
        alts = step.get("alternatives")
        if not isinstance(alts, list) or len(alts) < 2:
            raise ProgramError(path, "'choose' needs at least two alternatives")
        idx = self._append(op="choose")
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
            key = (LABEL_KIND[ins["op"]], ins["mech_id"], ins["index"])
            if key in seen_keys:
                raise ProgramError(
                    apath, f"alternatives {seen_keys[key]} and {a} would offer indistinguishable actions")
            seen_keys[key] = a
            entries.append(e)
            exits.extend(x)
            bounds_out.append(b)
        self.instrs[idx]["alts"] = tuple(entries)
        out = bounds_out[0]
        for b in bounds_out[1:]:
            out = out & b
        return idx, exits, out
