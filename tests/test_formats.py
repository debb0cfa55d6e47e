"""Model language, HOA and result-table round trips."""
import hashlib
import warnings
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctsched.bruteforce import random_buchi, random_ctmdp
from ctsched.data import MODELS
from ctsched.formats import (BenchRow, HoaError, HoaSource, ModelError,
                             ModelSemanticError, ModelSource, ModelSyntaxError,
                             emit_hoa, emit_result_table, parse_hoa,
                             parse_model, serialize_model)
from ctsched.formats.model_lang import _tokenize


# ---------------------------------------------------------------------------
# model language

def test_parse_simple_model():
    m = parse_model("""
        ctmdp
        const double r = 2.5;
        module demo
          z : [0..1] init 0;
          [go] z=0 -> r : (z'=1);
          [back] z=1 -> 1 : (z'=0);
        endmodule
        label "up" = z=1;
    """)
    assert m.state_names == ("z=0", "z=1")
    assert m.action_names == ("go", "back")
    assert m.successors(0, 0)[1].sum() == 2.5
    assert m.ap == ("up",)
    assert m.labels[0] == frozenset()
    assert m.labels[1] == frozenset({0})


def test_racing_commands_with_same_action_add_rates():
    m = parse_model("""
        ctmdp
        module race
          z : [0..1] init 0;
          [go] z=0 -> 1 : (z'=1);
          [go] z=0 -> 2 : (z'=1);
          [go] z=1 -> 1 : (z'=1);
        endmodule
    """)
    assert m.successors(0, 0)[1].sum() == 3.0


def test_only_reachable_valuations_become_states():
    m = parse_model("""
        ctmdp
        module sparse
          z : [0..9] init 3;
          [a] z=3 -> 1 : (z'=7);
          [a] z=7 -> 1 : (z'=3);
        endmodule
    """)
    assert m.num_states == 2
    assert m.state_names == ("z=3", "z=7")
    assert m.initial == 0


def test_multi_variable_states_and_conjunction_guards():
    m = parse_model("""
        ctmdp
        module pair
          x : [0..1] init 0;
          y : [0..1] init 0;
          [a] x=0 & y=0 -> 1 : (x'=1) & (y'=1);
          [a] x=1 & y=1 -> 1 : (x'=0) & (y'=0);
        endmodule
    """)
    assert m.state_names == ("x=0,y=0", "x=1,y=1")


def test_const_arithmetic_and_comments():
    m = parse_model("""
        ctmdp
        # rates come from constants
        const double base = 2;
        const double lam = base * 3; // 6
        module c
          z : [0..1] init 0;
          [a] z=0 -> lam : (z'=1);
          [a] z=1 -> lam / 2 : (z'=0);
        endmodule
    """)
    assert m.successors(0, 0)[1].sum() == 6.0
    assert m.successors(1, 0)[1].sum() == 3.0


def test_syntax_error_reports_position():
    with pytest.raises(ModelError) as err:
        parse_model(ModelSource("ctmdp\nmodule m\n  z : [0..1 init 0;\n"
                                "endmodule\n"))
    assert err.value.line == 3


def test_semantic_errors():
    with pytest.raises(ModelError):
        parse_model("ctmdp\nmodule m\n z : [0..1] init 0;\n"
                    "[a] z=0 -> 1 : (z'=5);\nendmodule\n")  # out of range
    with pytest.raises(ModelError):
        parse_model("ctmdp\nmodule m\n z : [0..1] init 0;\n"
                    "[a] z=0 -> -1 : (z'=1);\nendmodule\n")  # negative rate
    with pytest.raises(ModelError):
        parse_model("ctmdp\nlabel \"x\" = true;\n")  # no module


def _reachable(m):
    seen = {m.initial}
    frontier = [m.initial]
    while frontier:
        s = frontier.pop()
        for a in m.enabled(s):
            for t in m.successors(s, a)[0]:
                if int(t) not in seen:
                    seen.add(int(t))
                    frontier.append(int(t))
    return seen


def test_serialize_round_trip():
    # state and action ids get renumbered in exploration order, so the
    # comparison goes through the emitted names
    rng = np.random.default_rng(5)
    for _ in range(5):
        m = random_ctmdp(rng, num_states=5, ap=("g",))
        m2 = parse_model(serialize_model(m))
        reach = _reachable(m)
        assert m2.num_states == len(reach)
        assert m2.ap == m.ap
        sid = {name: i for i, name in enumerate(m2.state_names)}
        for s in reach:
            s2 = sid[f"s={s}"]
            assert m2.labels[s2] == m.labels[s]
            for a in m.enabled(s):
                succ, rates = m.successors(s, a)
                a2 = m2.action_names.index(m.action_names[a])
                succ2, rates2 = m2.successors(s2, a2)
                got = {m2.state_names[int(t)]: float(r)
                       for t, r in zip(succ2, rates2)}
                want = {f"s={int(t)}": float(r) for t, r in zip(succ, rates)}
                assert set(got) == set(want)
                for k in want:
                    assert got[k] == pytest.approx(want[k], rel=1e-12)


# ---------------------------------------------------------------------------
# pinned parser output


def _digest(m):
    """SHA-256 over everything parse_model returns, trans in insertion order."""
    h = hashlib.sha256()
    h.update(repr((m.state_names, m.action_names, m.initial, m.ap,
                   [sorted(lab) for lab in m.labels])).encode())
    for (s, a), (succ, rates) in m.trans.items():
        h.update(repr(((s, a), succ.tolist())).encode())
        h.update(rates.tobytes())
    return h.hexdigest()


PINNED = {
    "riskreward": "e04ba04ab0307df64175e88ec09e7ec1ce681270dbf8b4ff2b056814426ca796",
    "mars": "e4d976eb4bbd2c3e21f7cc3682f3436b9bd0b9139b8bd7bf55c719c4518b9cd4",
    "mec_demo": "13018eea2285f84150d67d33d5187d942aeb6475469bec1d2ee8170e23aefc01",
    "uniform_demo": "c9988b239d59bd2e1a351d0e7d02db9dcbc1aacf46ad6c75680056e2c640c9d0",
    "polling2": "5d296b846104c33025ce19da25aa7b78ab33c0a17d2250760cc9576c4d7155bd",
    "polling8": "551b5cc7344e2d57adc0f1edf6173267bed2fbef4ac547ce2996bdca942aa8f5",
    "hazard30": "339460837a6067cb77c936b2fff575819a7d3cc600bb84a959c3dd990f5fdb11",
}


def test_parsed_models_are_pinned(perfbench):
    families = perfbench("families")
    texts = {name: resources.files("ctsched.data").joinpath(
        f"{name}.ctmdp").read_text() for name in MODELS}
    texts["polling8"] = families.polling_text(
        8, **families.polling_params(np.random.default_rng(1)))
    texts["hazard30"] = families.hazard_text(
        30, **families.hazard_params(np.random.default_rng(1)))
    got = {name: _digest(parse_model(text)) for name, text in texts.items()}
    assert got == PINNED


# ---------------------------------------------------------------------------
# expression semantics and error reports

_HEAD = "ctmdp\nmodule m\n z : [0..1] init 0;\n"


def _with_const(decl):
    """A one-state model whose only rate is the constant ``r``."""
    return (f"ctmdp\n{decl}\nmodule m\n z : [0..1] init 0;\n"
            "[a] true -> r : true;\nendmodule\n")


# Each expression is drawn as a pair (.ctmdp text, Python text) over the
# integer variables x, y and the double constant c.  Both are fully
# parenthesised, so they apply the same operations in the same order.
_ATOMS = st.one_of(
    st.sampled_from([("x", "x"), ("y", "y"), ("c", "c")]),
    st.floats(0, 10).map(lambda v: (repr(v), repr(v))))
# divisors are nonzero literals; division by zero has its own test
_DIVISORS = st.sampled_from([0.5, 2.0, 3.0, 7.25])


def _arith_node(sub):
    return st.one_of(
        st.tuples(sub, st.sampled_from("+-*"), sub).map(
            lambda t: (f"({t[0][0]} {t[1]} {t[2][0]})",
                       f"({t[0][1]} {t[1]} {t[2][1]})")),
        st.tuples(sub, _DIVISORS).map(
            lambda t: (f"({t[0][0]} / {t[1]!r})", f"({t[0][1]} / {t[1]!r})")),
        sub.map(lambda e: (f"(-{e[0]})", f"(-{e[1]})")))


_ARITH_EXPRS = st.recursive(_ATOMS, _arith_node, max_leaves=6)
_CMP_OPS = {"=": "==", "!=": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">="}
_COMPARISONS = st.tuples(_ARITH_EXPRS, st.sampled_from(sorted(_CMP_OPS)),
                         _ARITH_EXPRS).map(
    lambda t: (f"({t[0][0]} {t[1]} {t[2][0]})",
               f"({t[0][1]} {_CMP_OPS[t[1]]} {t[2][1]})"))


def _bool_node(sub):
    return st.one_of(
        st.tuples(sub, sub).map(lambda t: (f"({t[0][0]} & {t[1][0]})",
                                           f"({t[0][1]} and {t[1][1]})")),
        st.tuples(sub, sub).map(lambda t: (f"({t[0][0]} | {t[1][0]})",
                                           f"({t[0][1]} or {t[1][1]})")),
        sub.map(lambda e: (f"!{e[0]}", f"(not {e[1]})")))


_BOOL_EXPRS = st.recursive(
    st.one_of(_COMPARISONS, st.sampled_from([("true", "True"),
                                             ("false", "False")])),
    _bool_node, max_leaves=4)


@settings(max_examples=200, deadline=None)
@given(num=_ARITH_EXPRS, cond=_BOOL_EXPRS, x=st.integers(-5, 5),
       y=st.integers(-5, 5), c=st.floats(-10, 10))
def test_expressions_evaluate_as_python_does(num, cond, x, y, c):
    env = {"x": x, "y": y, "c": c}
    value = eval(num[1], {}, dict(env))
    holds = eval(cond[1], {}, dict(env))
    # the label "num" holds iff the parsed expression equals Python's value
    # exactly: repr round-trips a float
    m = parse_model(f"""ctmdp
const double c = {c!r};
module m
  x : [{x}..{x}] init {x};
  y : [{y}..{y}] init {y};
  [a] true -> 1 : true;
endmodule
label "num" = {num[0]} = {value!r};
label "cond" = {cond[0]};
""")
    assert 0 in m.labels[0], (num, value)
    assert (1 in m.labels[0]) == holds, cond


@pytest.mark.parametrize("text, error", [
    (_HEAD + "[a] y=0 -> 1 : (z'=1);\nendmodule\n",
     "4:5: unknown identifier 'y'"),
    (_HEAD + "[a] z=0 -> 1 : (w'=1);\n[a] z=1 -> 1 : true;\nendmodule\n",
     "4:1: assignment to unknown variable 'w'"),
    (_HEAD + "[a] z=0 -> 1 : (z'=5);\nendmodule\n",
     "4:1: update drives 'z' to 5.0, outside [0..1]"),
    (_HEAD + "[a] true -> r : true;\nendmodule\nconst double r = 3;\n", None),
    (_HEAD + "[a] true -> 1 : true;\n[b] z=1 & y=1 -> 1 : true;\nendmodule\n",
     None),
], ids=["unknown-identifier", "unknown-variable", "out-of-range",
        "const-after-module", "never-evaluated"])
def test_lazy_lookup_and_update_errors(text, error):
    if error is None:
        assert parse_model(text).num_states == 1
        return
    with pytest.raises(ModelSemanticError) as err:
        parse_model(text)
    assert str(err.value) == error


@pytest.mark.parametrize("text, line, col", [
    (_with_const("const double r = 1/0;"), 2, 19),
    (_HEAD + "[a] true -> 1 + 1/z : true;\nendmodule\n", 4, 18),
], ids=["const", "state"])
def test_division_by_zero_is_a_semantic_error(text, line, col):
    with pytest.raises(ModelSemanticError) as err:
        parse_model(text)
    assert (err.value.msg, err.value.line, err.value.col) == \
        ("division by zero", line, col)


def test_number_takes_at_most_one_decimal_point():
    with pytest.raises(ModelSyntaxError) as err:
        parse_model(_with_const("const double r = 1.2.3;"))
    assert (err.value.line, err.value.col) == (2, 21)


# Token streams as (kind, value, line, col), ending in eof, or the error with
# its position.  The eof after a trailing comment sits at the true end of the
# text.  '\u00b2' is a digit to str.isdigit but no decimal digit, so it scans
# as a name, not as a number that float() cannot read.
@pytest.mark.parametrize("text, want", [
    ("1.", [("number", "1.", 1, 1), ("eof", "", 1, 3)]),
    (".5", [("number", ".5", 1, 1), ("eof", "", 1, 3)]),
    ("0..K", [("number", "0", 1, 1), ("sym", "..", 1, 2), ("name", "K", 1, 4),
              ("eof", "", 1, 5)]),
    ("1..2", [("number", "1", 1, 1), ("sym", "..", 1, 2),
              ("number", "2", 1, 4), ("eof", "", 1, 5)]),
    ("1.2.3", [("number", "1.2", 1, 1), ("number", ".3", 1, 4),
               ("eof", "", 1, 6)]),
    ("1e5", [("number", "1e5", 1, 1), ("eof", "", 1, 4)]),
    ("1e", [("number", "1", 1, 1), ("name", "e", 1, 2), ("eof", "", 1, 3)]),
    ("1e+", [("number", "1", 1, 1), ("name", "e", 1, 2), ("sym", "+", 1, 3),
             ("eof", "", 1, 4)]),
    ("1.e5", [("number", "1.e5", 1, 1), ("eof", "", 1, 5)]),
    ("a # note\nb", [("name", "a", 1, 1), ("name", "b", 2, 1),
                     ("eof", "", 2, 2)]),
    ("a // note\nb", [("name", "a", 1, 1), ("name", "b", 2, 1),
                      ("eof", "", 2, 2)]),
    ("x;# end", [("name", "x", 1, 1), ("sym", ";", 1, 2), ("eof", "", 1, 8)]),
    ("x;// end", [("name", "x", 1, 1), ("sym", ";", 1, 2),
                  ("eof", "", 1, 9)]),
    ('"up" = ', [("string", "up", 1, 1), ("sym", "=", 1, 6),
                 ("eof", "", 1, 8)]),
    ('label "up', "1:7: unterminated string"),
    ("a\r\nb\r\n", [("name", "a", 1, 1), ("name", "b", 2, 1),
                    ("eof", "", 3, 1)]),
    ("a\fb", "1:2: unexpected character '\\x0c'"),
    ("a\xa0b", "1:2: unexpected character '\\xa0'"),
    ("r = \u00b2;", [("name", "r", 1, 1), ("sym", "=", 1, 3),
                     ("name", "\u00b2", 1, 5), ("sym", ";", 1, 6),
                     ("eof", "", 1, 7)]),
], ids=["trailing-point", "leading-point", "range", "range-of-numbers",
        "two-points", "exponent", "bare-e", "e-sign", "point-exponent",
        "hash-comment", "slash-comment", "hash-comment-at-end",
        "slash-comment-at-end", "string", "unterminated-string", "crlf",
        "form-feed", "no-break-space", "superscript-two"])
def test_token_streams(text, want):
    if isinstance(want, str):
        with pytest.raises(ModelSyntaxError) as err:
            _tokenize(text)
        assert str(err.value) == want
    else:
        assert [(t.kind, t.value, t.line, t.col)
                for t in _tokenize(text)] == want


def test_a_superscript_digit_is_an_unknown_identifier():
    with pytest.raises(ModelSemanticError) as err:
        parse_model(_with_const("const double r = \u00b2;"))
    assert str(err.value) == "2:18: unknown identifier '\u00b2'"


@pytest.mark.parametrize("text, error", [
    ("ctmdp\nconst double r = 1e400;\nmodule m\n z : [0..r] init 0;\n"
     "[a] true -> 1 : true;\nendmodule\n",
     "4:10: non-finite bound inf for variable 'z'"),
    ("ctmdp\nconst double r = 1e400 - 1e400;\nmodule m\n z : [0..1] init r;\n"
     "[a] true -> 1 : true;\nendmodule\n",
     "4:18: non-finite bound nan for variable 'z'"),
    (_HEAD + "[a] true -> 1 : (z'=1e400);\nendmodule\n",
     "4:1: update drives 'z' to inf, outside [0..1]"),
    (_HEAD + "[a] true -> 1 : (z'=1e400 - 1e400);\nendmodule\n",
     "4:1: update drives 'z' to nan, outside [0..1]"),
], ids=["inf-bound", "nan-init", "inf-update", "nan-update"])
def test_non_finite_bounds_and_updates_are_semantic_errors(text, error):
    with pytest.raises(ModelSemanticError) as err:
        parse_model(text)
    assert str(err.value) == error


def test_non_finite_rate_is_reported_before_any_numpy_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ModelSemanticError, match="non-finite rate"):
            parse_model(_with_const("const double r = 1e400;"))


@pytest.mark.parametrize("text, error", [
    ("ctmdp\nconst int z = 1;\n" + _HEAD[6:] + "[a] true -> 1 : true;\n"
     "endmodule\n", "4:2: duplicate identifier 'z'"),
    (_HEAD + " z : [0..1] init 0;\n[a] true -> 1 : true;\nendmodule\n",
     "4:2: duplicate identifier 'z'"),
    (_with_const("const double r = 1;\nconst double r = 2;"),
     "3:14: duplicate identifier 'r'"),
    (_HEAD + "[a] true -> 1 : true;\nendmodule\nlabel \"p\" = true;\n"
     "label \"p\" = false;\n", "7:7: duplicate label \"p\""),
    ("ctmdp\nmodule m\n[a] true -> 1 : true;\nendmodule\n",
     "2:1: module declares no variables"),
    (_HEAD + "endmodule\n", "2:1: no commands in module"),
    ("ctmdp\nlabel \"x\" = true;\n", "no module block"),
    (_HEAD + "[a] z=0 -> 1 : (z'=1);\nendmodule\n",
     "state z=1: no enabled action"),
], ids=["const-and-variable", "two-variables", "two-consts", "label", "no-variables",
        "no-commands", "no-module", "validation"])
def test_errors_point_at_their_token_or_nowhere(text, error):
    with pytest.raises(ModelError) as err:
        parse_model(text)
    assert str(err.value) == error


# ---------------------------------------------------------------------------
# HOA

def test_parse_hoa_subset():
    a = parse_hoa(HoaSource("""HOA: v1
States: 2
Start: 0
AP: 1 "g"
acc-name: Buchi
Acceptance: 1 Inf(0)
--BODY--
State: 0
[!0] 0
[0] 1
State: 1 {0}
[t] 1
--END--
"""))
    assert a.num_states == 2
    assert a.initial == 0
    assert a.ap == ("g",)
    assert a.accepting == frozenset({1})


def test_hoa_rejects_non_buchi_acceptance():
    text = ("HOA: v1\nStates: 1\nStart: 0\nAP: 0\n"
            "Acceptance: 2 Inf(0) & Fin(1)\n--BODY--\nState: 0\n[t] 0\n--END--\n")
    with pytest.raises(HoaError):
        parse_hoa(text)


def test_hoa_rejects_dangling_state_and_missing_end():
    with pytest.raises(HoaError):
        parse_hoa("HOA: v1\nStates: 1\nStart: 0\nAP: 0\n"
                  "Acceptance: 1 Inf(0)\n--BODY--\nState: 0\n[t] 3\n--END--\n")
    with pytest.raises(HoaError):
        parse_hoa("HOA: v1\nStates: 1\nStart: 0\nAP: 0\n"
                  "Acceptance: 1 Inf(0)\n--BODY--\nState: 0\n[t] 0\n")


def test_hoa_guard_parser_errors():
    base = ("HOA: v1\nStates: 1\nStart: 0\nAP: 1 \"g\"\n"
            "Acceptance: 1 Inf(0)\n--BODY--\nState: 0\n[{}] 0\n--END--\n")
    with pytest.raises(HoaError):
        parse_hoa(base.format("0 &"))
    with pytest.raises(HoaError):
        parse_hoa(base.format("(0"))
    with pytest.raises(HoaError):
        parse_hoa(base.format("5"))  # AP index out of range


def test_hoa_round_trip():
    rng = np.random.default_rng(9)
    for _ in range(10):
        a = random_buchi(rng, num_states=4)
        b = parse_hoa(emit_hoa(a, name="rt"))
        assert b.num_states == a.num_states
        assert b.initial == a.initial
        assert b.ap == a.ap
        assert b.accepting == a.accepting
        # same transition function on every letter
        from ctsched.automata import step
        for q in range(a.num_states):
            for k in range(1 << len(a.ap)):
                letter = frozenset(i for i in range(len(a.ap)) if k >> i & 1)
                assert step(a, q, letter) == step(b, q, letter)


# ---------------------------------------------------------------------------
# tables

def test_result_table_csv_and_alignment():
    rows = [BenchRow(name="riskreward", states=4, prod=8, sat_prob=1.0,
                     est_sat=1.0, time_sat=7.25, exp_prob=0.9,
                     est_exp=0.8999, time_exp=30.125)]
    csv_text = emit_result_table(rows, fmt="csv")
    lines = csv_text.strip().split("\n")
    assert lines[0].startswith("Name,states,prod.,Sat. Prob.")
    assert lines[1].split(",")[:4] == ["riskreward", "4", "8", "1"]
    table = emit_result_table(rows, fmt="table")
    assert "riskreward" in table and "0.8999" in table
    with pytest.raises(ValueError):
        emit_result_table(rows, fmt="json")


def test_result_table_blank_cells_for_missing():
    row = BenchRow(name="m", states=2, prod=2, sat_prob=0.5)
    cells = row.cells()
    assert cells[3] == "0.5"
    assert cells[6] == "" and cells[8] == ""
