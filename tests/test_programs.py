"""Static program checks: compilation, limits, and rejection paths."""

import pytest

import lockstep.scenarios as s
from lockstep import kernel
from lockstep.programs import (_STEP_KEYS, LABEL_KIND, MAX_NESTING, MAX_UNROLLED, MAX_VARS,
                               OPS, CompileContext, ProgramError, compile_program)

KINDS = {"cell": "raw_cell", "lc": "locked_cell", "mc": "message_cell",
         "sc": "status_channel", "lm": "last_message_channel",
         "dx": "duplex_channel", "reg": "shared_register", "dc": "direct_channel"}


def ctx(pid=0, width=2):
    return CompileContext(pid=pid, word_width=width, mech_kind=dict(KINDS),
                          mech_index={k: i for i, k in enumerate(KINDS)},
                          duplex_sides={"dx": (0, 1)})


def compile_ok(*steps, pid=0, width=2):
    return compile_program(list(steps), ctx(pid=pid, width=width))


def compile_err(*steps, pid=0, width=2):
    with pytest.raises(ProgramError) as ei:
        compile_program(list(steps), ctx(pid=pid, width=width))
    return ei.value


def test_simple_sequence_chains_successors():
    p = compile_ok(s.write_word("cell", 0, 1), s.write_word("cell", 1, 1))
    assert len(p.instrs) == 2
    assert p.instrs[0].succ == 1
    assert p.instrs[1].succ == 2  # one past the end = terminated
    assert p.heads == ((0,), (1,), ())


def test_loop_unrolls():
    p = compile_ok(s.loop(3, [s.update("reg", "inc")]))
    assert len(p.instrs) == 3
    assert [i.succ for i in p.instrs] == [1, 2, 3]


def test_loop_count_zero_vanishes():
    p = compile_ok(s.loop(0, [s.update("reg", "inc")]))
    assert len(p.instrs) == 0
    assert p.heads == ((),)


def test_if_word_branch_wiring():
    p = compile_ok(s.if_word("cell", 0, 1,
                             then=[s.write_word("cell", 1, 2)],
                             orelse=[s.write_word("cell", 1, 3)]))
    br = p.instrs[0]
    assert br.op == "if_word" and br.succ == 1 and br.succ_else == 2
    assert p.instrs[1].succ == p.instrs[2].succ == 3


def test_if_with_empty_branch_falls_through():
    p = compile_ok(s.if_status("sc", full=[s.read("sc", "v")]),
                   s.check("sc", "t"))
    br = p.instrs[0]
    assert br.succ == 1        # full branch
    assert br.succ_else == 2   # empty branch jumps over it


def test_vars_and_mechs_are_collected():
    p = compile_ok(s.read("mc", "v"), s.write("mc", s.var("v")))
    assert p.vars == frozenset({"v"})
    assert p.mechs == frozenset({"mc"})


def test_choose_heads_list_alternatives():
    p = compile_ok(s.choose([s.receive("dc", "x")], [s.update("reg", "inc")]))
    assert p.instrs[0].op == "choose"
    assert p.heads[0] == p.instrs[0].alts
    assert len(p.heads[0]) == 2


class TestLimits:
    def test_unroll_limit(self):
        e = compile_err(s.loop(MAX_UNROLLED + 1, [s.update("reg", "inc")]))
        assert f"limit is {MAX_UNROLLED}" in e.message

    def test_unrolling_stops_at_the_limit(self):
        e = compile_err(s.loop(10_000, [s.update("reg", "inc")]))
        assert f"more than {MAX_UNROLLED} instructions" in e.message

    def test_a_loop_that_emits_nothing_is_unrolled_once(self):
        assert len(compile_ok(s.loop(10**8, [s.loop(0, [s.update("reg", "inc")])]))) == 0

    def test_unroll_limit_is_inclusive(self):
        compile_ok(s.loop(MAX_UNROLLED, [s.update("reg", "inc")]))

    def test_nesting_limit(self):
        step = s.update("reg", "inc")
        nested = s.loop(1, [step])
        for _ in range(MAX_NESTING):
            nested = s.loop(1, [nested])
        e = compile_err(nested)
        assert f"deeper than {MAX_NESTING}" in str(e)

    def test_nesting_at_limit_passes(self):
        nested = s.update("reg", "inc")
        for _ in range(MAX_NESTING):
            nested = s.loop(1, [nested])
        compile_ok(nested)

    def test_var_limit(self):
        steps = [s.local(f"v{i}", [0, 0]) for i in range(MAX_VARS + 1)]
        e = compile_err(*steps)
        assert f"limit is {MAX_VARS}" in e.message
        assert "v4" in e.message  # names the offenders


class TestBinding:
    def test_unbound_value_var(self):
        e = compile_err(s.write("mc", s.var("x")))
        assert e.message == "variable 'x' may be unbound here"
        assert e.path == "steps[0].value"

    def test_bound_by_read(self):
        compile_ok(s.read("mc", "x"), s.write("mc", s.var("x")))

    def test_bound_in_one_branch_only_is_unbound_after(self):
        e = compile_err(s.if_word("cell", 0, 1, then=[s.local("x", [1, 1])]),
                        s.write("mc", s.var("x")))
        assert "may be unbound" in e.message

    def test_bound_in_both_branches_is_bound_after(self):
        compile_ok(s.if_word("cell", 0, 1,
                             then=[s.local("x", [1, 1])],
                             orelse=[s.local("x", [2, 2])]),
                   s.write("mc", s.var("x")))

    def test_choose_binds_only_the_intersection(self):
        e = compile_err(s.choose([s.receive("dc", "x")], [s.update("reg", "inc")]),
                        s.send("dc", s.var("x")))
        assert "may be unbound" in e.message

    def test_assert_local_needs_binding(self):
        e = compile_err(s.assert_local("x", 1))
        assert (e.path, e.message) == ("steps[0]", "variable 'x' may be unbound here")

    def test_word_expr_var(self):
        compile_ok(s.read_word("cell", 0, "w"), s.write_word("cell", 1, s.var("w")))


class TestMechanismCompatibility:
    def test_undeclared_mechanism_is_named(self):
        e = compile_err(s.read("c9", "v"))
        assert (e.path, e.message) == ("steps[0].mechanism", "undeclared mechanism 'c9'")

    def test_read_on_raw_cell(self):
        e = compile_err(s.read("cell", "v"))
        assert e.message == "read is not defined for mechanism 'cell' of kind raw_cell"

    def test_write_word_on_status_channel(self):
        e = compile_err(s.write_word("sc", 0, 1))
        assert e.message == "write_word is not defined for mechanism 'sc' of kind status_channel"

    def test_lock_on_message_cell(self):
        assert compile_err(s.lock("mc")).message == \
            "lock is not defined for mechanism 'mc' of kind message_cell"

    def test_send_on_status_channel(self):
        assert compile_err(s.send("sc", [1, 1])).message == \
            "send is not defined for mechanism 'sc' of kind status_channel"

    def test_check_on_raw_cell(self):
        assert compile_err(s.check("cell", "t")).message == \
            "check is not defined for mechanism 'cell' of kind raw_cell"

    def test_update_on_message_cell(self):
        assert compile_err(s.update("mc", "inc")).message == \
            "update is not defined for mechanism 'mc' of kind message_cell"

    def test_duplex_non_side(self):
        e = compile_err(s.write("dx", [1, 1]), pid=2)
        assert (e.path, e.message) == (
            "steps[0].mechanism", "process 2 is not a side of duplex channel 'dx'")

    def test_duplex_side_ok(self):
        compile_ok(s.write("dx", [1, 1]), pid=1)


class TestLiterals:
    def test_index_out_of_range(self):
        e = compile_err(s.read_word("cell", 2, "v"))
        assert (e.path, e.message) == ("steps[0].index", "must be an integer in 0..1")

    def test_word_out_of_domain(self):
        e = compile_err(s.wait_word("cell", 0, 8))
        assert (e.path, e.message) == ("steps[0].word", "must be a word in 0..7")

    @pytest.mark.parametrize("word", [-1, 8])
    def test_write_word_literal_out_of_domain(self, word):
        e = compile_err(s.write_word("cell", 0, word))
        assert (e.path, e.message) == ("steps[0].word", "must be a word in 0..7")

    def test_value_wrong_width(self):
        e = compile_err(s.write("mc", [1]))
        assert (e.path, e.message) == ("steps[0].value", "must be a list of 2 words in 0..7")

    def test_value_word_out_of_domain(self):
        e = compile_err(s.write("mc", [1, 9]))
        assert (e.path, e.message) == ("steps[0].value", "must be a list of 2 words in 0..7")

    def test_null_write_rejected(self):
        e = compile_err(s.write("mc", None))
        assert "null value is not allowed" in e.message

    def test_null_local_and_send_allowed(self):
        p = compile_ok(s.local("x", None), s.send("dc", None))
        assert p.instrs[0].expr == ("lit", None)

    def test_applied_fn_value(self):
        p = compile_ok(s.local("t", [1, 1]), s.local("g", s.applied("inc", "t")))
        assert p.instrs[1].expr == ("fn", ("inc",), "t")

    def test_applied_unknown_fn(self):
        assert "unknown update function" in compile_err(
            s.local("t", [1, 1]), s.local("g", s.applied("neg", "t"))).message

    def test_add_requires_k(self):
        e = compile_err(s.update("reg", "add"))
        assert (e.path, e.message) == ("steps[0].k", "must be a word in 0..7")

    @pytest.mark.parametrize("steps, path", [
        ([s.wait_word("cell", 0, True)], "steps[0].word"),
        ([s.if_word("cell", 0, 8, [])], "steps[0].word"),
        ([s.update("reg", "add", k=-1)], "steps[0].k"),
        ([s.read("mc", "v"), s.local("w", s.applied("add", "v", 8))], "steps[1].value.k"),
    ], ids=["wait_word-bool", "if_word", "update", "value-expression"])
    def test_every_word_a_step_names_has_one_rule(self, steps, path):
        e = compile_err(*steps)
        assert (e.path, e.message) == (path, "must be a word in 0..7")

    def test_add_with_k(self):
        p = compile_ok(s.update("reg", "add", k=3))
        assert p.instrs[0].fn == ("add", 3)

    def test_assert_literal_rejects_bad_token(self):
        e = compile_err(s.check("sc", "t"), s.assert_local("t", "busy"))
        assert e.message == "status token must be one of ('empty', 'full', 'full-other')"

    def test_assert_literal_rejects_bool(self):
        assert compile_err(s.local("t", [1, 1]), s.assert_local("t", True)).message == \
            "must be null, a word, a status token, or a value"

    @pytest.mark.parametrize("expected, message", [
        ({"word": 1}, "must be null, a word, a status token, or a value"),
        (1.5, "must be null, a word, a status token, or a value"),
        (8, "must be null, a word, a status token, or a value"),
        ([1], "must be a list of 2 words in 0..7")], ids=["object", "float", "word", "width"])
    def test_assert_literal_rejects_other_forms(self, expected, message):
        e = compile_err(s.local("t", [1, 1]), s.assert_local("t", expected))
        assert (e.path, e.message) == ("steps[1].expected", message)

    @pytest.mark.parametrize("expected", [None, 3, "full", [1, 2]])
    def test_assert_literal_forms(self, expected):
        p = compile_ok(s.local("t", [1, 1]), s.assert_local("t", expected))
        assert p.instrs[1].expected == (tuple(expected) if isinstance(expected, list)
                                        else expected)


class TestChoose:
    def test_needs_two_alternatives(self):
        e = compile_err(s.choose([s.receive("dc", "x")]))
        assert "at least two" in e.message

    def test_alternative_must_be_nonempty(self):
        e = compile_err(s.choose([s.receive("dc", "x")], []))
        assert "non-empty" in e.message

    def test_alternative_head_must_be_simple(self):
        e = compile_err(s.choose([s.receive("dc", "x")],
                                 [s.loop(2, [s.update("reg", "inc")])]))
        assert "simple step" in e.message

    def test_indistinguishable_heads_rejected(self):
        e = compile_err(s.choose([s.receive("dc", "x")], [s.receive("dc", "y")]))
        assert "indistinguishable" in e.message

    def test_distinct_mechanisms_ok(self):
        compile_ok(s.local("x", [0, 0]),
                   s.choose([s.receive("dc", "x")], [s.send("dc", s.var("x"))]))


class TestShapeErrors:
    def test_steps_not_a_list(self):
        with pytest.raises(ProgramError, match="must be a list"):
            compile_program({"op": "lock"}, ctx())

    def test_step_without_op(self):
        assert "an 'op'" in compile_err({"mechanism": "mc"}).message

    def test_unknown_op(self):
        assert "unknown step op" in compile_err({"op": "compare_and_swap"}).message

    def test_loop_count_negative(self):
        assert "'count'" in compile_err(s.loop(-1, [s.update("reg", "inc")])).message

    @pytest.mark.parametrize("count", [0, 2])
    def test_loop_body_not_a_list(self, count):
        e = compile_err({"op": "loop", "count": count, "body": {"x": 1}})
        assert e.path.endswith(".body") and "must be a list" in e.message

    def test_bad_var_name(self):
        assert "'var'" in compile_err(s.read("mc", "not a name")).message

    @pytest.mark.parametrize("step, field", [
        ({**s.read("mc", "x"), "vaar": "y"}, "vaar"),
        ({**s.if_status("sc", [], []), "else": []}, "else"),
        ({**s.loop(1, []), "alternatives": []}, "alternatives"),
        ({**s.choose([s.receive("dc", "x")], [s.update("reg", "inc")]), "count": 2}, "count"),
        ({**s.local("x", [1, 1]), "mechanism": "mc"}, "mechanism"),
        ({**s.update("reg", "inc"), "value": [1, 1]}, "value"),
    ], ids=["read", "if_status", "loop", "choose", "local", "update"])
    def test_unknown_field(self, step, field):
        e = compile_err(s.loop(2, [step]))
        assert (e.path, e.message) == ("steps[0].body[0]", f"unknown field '{field}'")

    @pytest.mark.parametrize("expr, field", [
        ({"fn": "inc", "var": "v", "k": 3}, "k"),
        ({"fn": "double", "var": "v", "k": 1}, "k"),
        ({"fn": "add", "var": "v", "k": 1, "note": 0}, "note"),
    ], ids=["inc-k", "double-k", "add-note"])
    def test_unknown_field_in_a_value_expression(self, expr, field):
        e = compile_err(s.read("mc", "v"), s.local("w", expr))
        assert (e.path, e.message) == ("steps[1].value", f"unknown field '{field}'")

    @pytest.mark.parametrize("fn", ["inc", "double"])
    def test_an_update_step_with_no_k_takes_none(self, fn):
        e = compile_err(s.loop(2, [{**s.update("reg", fn), "k": 3}]))
        assert (e.path, e.message) == ("steps[0].body[0]", "unknown field 'k'")

    @pytest.mark.parametrize("expr", [s.applied("inc", "v"), s.applied("double", "v"),
                                      s.applied("add", "v", 1)])
    def test_a_value_expression_takes_its_function_s_fields(self, expr):
        assert compile_ok(s.read("mc", "v"), s.local("w", expr)).instrs[1].expr[0] == "fn"

    def test_each_op_takes_the_fields_its_operands_read(self):
        # derived from OPS, _BRANCH_KEYS and _Emitter._OPERANDS; pinned here as literals
        assert _STEP_KEYS == {op: frozenset({"op", *fields.split()}) for op, fields in {
            "lock": "mechanism", "unlock": "mechanism", "read": "mechanism var",
            "write": "mechanism value", "send": "mechanism value", "receive": "mechanism var",
            "read_word": "mechanism index var", "wait_word": "mechanism index word",
            "if_word": "mechanism index word then else", "write_word": "mechanism index word",
            "check": "mechanism var", "if_status": "mechanism full empty",
            "update": "mechanism fn k", "local": "var value", "assert_local": "var expected",
            "loop": "count body", "choose": "alternatives"}.items()}

    def test_error_carries_path(self):
        e = compile_err(s.loop(2, [s.write("mc", s.var("q"))]))
        assert e.path == "steps[0].body[0].value"
        assert str(e) == f"{e.path}: {e.message}"


def test_label_kind_covers_every_step_op():
    # every step op that can appear at a program position maps to a label kind
    for op in ("lock", "unlock", "read", "write", "send", "receive", "read_word",
               "wait_word", "if_word", "write_word", "check", "if_status",
               "update", "local", "assert_local"):
        assert op in LABEL_KIND


def test_ops_and_labels_are_one_vocabulary():
    # every op has one row, and the label kinds ops offer are the kernel's
    # label kinds; a receive offers none, since the sending side engages it
    assert set(OPS) == set(LABEL_KIND)
    assert {row[0] for row in OPS.values()} - {"receive"} == set(kernel.LABELS)
