"""Core model structures: construction, embedding, uniformization, MECs."""
import ast
import re
from collections.abc import Mapping
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ctsched
from ctsched.bruteforce import (_gate, brute_force_mec_pairs, random_buchi,
                                random_ctmdp, random_marked_product)
from ctsched.data import BENCH_PAIRS, load_automaton, load_model
from ctsched.model import (ActionNotEnabled, ChoiceRows, Ctmdp, CtmdpError,
                           embed, mec_decompose, uniformize, validate)
from ctsched.product import (TRAP_PAIR, ProductCtmdp, augment,
                              build_product)


def two_state():
    return Ctmdp.from_transitions(
        ("s0", "s1"), ("a", "b"), 0,
        [(0, 0, 1, 3.0), (0, 1, 1, 6.0), (1, 0, 1, 2.0)])


def test_from_transitions_sums_duplicate_edges():
    m = Ctmdp.from_transitions(
        ("s0", "s1"), ("a",), 0,
        [(0, 0, 1, 1.5), (0, 0, 1, 2.5), (1, 0, 1, 1.0)])
    succ, rates = m.successors(0, 0)
    assert list(succ) == [1]
    assert rates[0] == 4.0


def test_from_transitions_drops_zero_and_rejects_negative_rates():
    m = Ctmdp.from_transitions(
        ("s0", "s1"), ("a",), 0,
        [(0, 0, 1, 1.0), (0, 0, 0, 0.0), (1, 0, 1, 1.0)])
    succ, _ = m.successors(0, 0)
    assert list(succ) == [1]
    with pytest.raises(CtmdpError):
        Ctmdp.from_transitions(("s0",), ("a",), 0, [(0, 0, 0, -1.0)])


def _rows_of(table, num_states):
    """The rows of the transition dict ``table``, (s, a) -> (succ, rates),
    as arrays in (s, a) order with each entry as given: the indexer that
    the edge builder replaced, kept as the reference and to build rows that
    nothing checks, sorts or adds up."""
    keys = sorted(table)
    state = np.array([s for s, _ in keys], dtype=np.int64)
    succ = [np.zeros(0, dtype=np.int64)] + [table[k][0] for k in keys]
    rates = [np.zeros(0)] + [table[k][1] for k in keys]
    return ChoiceRows(
        start=np.searchsorted(state, np.arange(num_states + 1)),
        state=state, action=np.array([a for _, a in keys], dtype=np.int64),
        ptr=np.cumsum([len(x) for x in succ]), succ=np.concatenate(succ),
        rate=np.concatenate(rates))


def _reference_table(transitions):
    """The transition dict of the dict-of-dicts builder that the edge
    builder replaced, kept as the reference: rows in first-seen order,
    successors sorted, duplicate rates added up from 0.0 in the order
    given."""
    acc = {}
    for s, a, s2, rate in transitions:
        if rate < 0:
            raise CtmdpError(f"negative rate on ({s},{a},{s2})")
        if rate == 0:
            continue
        acc.setdefault((s, a), {}).setdefault(s2, 0.0)
        acc[(s, a)][s2] += float(rate)
    return {key: (np.array(sorted(row), dtype=np.int64),
                  np.array([row[t] for t in sorted(row)], dtype=np.float64))
            for key, row in acc.items()}


_RATES = st.one_of(
    st.just(0.0),
    st.builds(lambda u, k, sign: sign * u * 10.0 ** k,
              st.floats(0.5, 2.0), st.integers(-8, 3),
              st.sampled_from([1.0] * 39 + [-1.0])))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, 2),
                       st.integers(0, n - 1), _RATES), max_size=40))))
def test_the_edge_builder_matches_the_dict_of_dicts(case):
    # unsorted keys, repeated edges, zero and negative rates over eleven
    # decades: the rows, their exit rates and the trans view are the
    # reference's bit for bit, and a negative rate names its edge
    n, transitions = case
    names = tuple(f"s{i}" for i in range(n))
    try:
        want = _rows_of(_reference_table(transitions), n)
    except CtmdpError as exc:
        with pytest.raises(CtmdpError, match=f"^{re.escape(str(exc))}$"):
            Ctmdp.from_transitions(names, ("a", "b", "c"), 0, transitions)
        return
    edges = np.array(transitions, dtype=np.float64).reshape(-1, 4)
    built = ChoiceRows.of_edges(n, *edges[:, :3].T.astype(np.int64),
                                edges[:, 3])
    m = Ctmdp.from_transitions(names, ("a", "b", "c"), 0, transitions)
    for got in (built, m.choices):
        for col in ("start", "state", "action", "ptr", "succ", "rate",
                    "exit"):
            x, y = getattr(got, col), getattr(want, col)
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), col
    assert m.trans is m.choices
    assert list(m.trans) == sorted(_reference_table(transitions))
    for (key, (succ, rates)), (key2, (succ2, rates2)) in zip(
            m.trans.items(), want.items(), strict=True):
        assert key == key2
        assert succ.tobytes() == succ2.tobytes()
        assert rates.tobytes() == rates2.tobytes()


def _jittered(rng):
    """A random marked product, and its model's rows as a transition dict
    in shuffled key order with every rate jittered by up to 2%."""
    p = random_marked_product(rng, int(rng.integers(3, 9)), max_actions=3)
    items = list(p.ctmdp.trans.items())
    table = {key: (succ, r * (1.0 + 0.02 * (2.0 * rng.random(len(r)) - 1.0)))
             for key, (succ, r) in (items[i] for i in
                                    rng.permutation(len(items)))}
    return p, table


def test_a_dict_model_gets_its_rows_from_the_edge_builder():
    # a mapping given as trans becomes rows on first use, not when the
    # model is made, and they are the edge builder's rows on the same edges
    rng = np.random.default_rng(61)
    for _ in range(50):
        p, table = _jittered(rng)
        n = p.num_states
        m = Ctmdp(p.ctmdp.state_names, p.ctmdp.action_names, 0, table)
        assert "choices" not in m.__dict__
        got = m.choices
        edges = [(s, a, t, r) for (s, a), (succ, rates) in table.items()
                 for t, r in zip(succ.tolist(), rates.tolist())]
        built = ChoiceRows.of_edges(n, *np.array(edges).T[:3].astype(np.int64),
                                    np.array(edges).T[3])
        for want in (built, _rows_of(table, n)):
            for col in ("start", "state", "action", "ptr", "succ", "rate",
                        "exit"):
                x, y = getattr(got, col), getattr(want, col)
                assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), col
        assert validate(m) == []


def test_a_dict_that_lists_a_successor_twice_is_the_merged_model():
    # the rates of a successor listed twice in one choice add up, as in
    # from_transitions, so the checker sees the merged model
    from ctsched.check import esem_optimal, psem_of, psem_optimal
    rng = np.random.default_rng(67)
    for _ in range(20):
        p, table = _jittered(rng)
        split = {}
        for key, (succ, rates) in table.items():
            cut = rng.uniform(0.1, 0.9, len(succ))
            split[key] = (np.concatenate((succ, succ[::-1])),
                          np.concatenate((rates * cut, (rates * (1 - cut))[::-1])))
        merged = Ctmdp.from_transitions(
            p.ctmdp.state_names, p.ctmdp.action_names, 0,
            [(s, a, t, r) for (s, a), (succ, rates) in split.items()
             for t, r in zip(succ.tolist(), rates.tolist())])
        twice = Ctmdp(merged.state_names, merged.action_names, 0, split)
        assert validate(twice) == []
        pair = [ProductCtmdp(m, p.pairs, p.action_pairs, p.accepting)
                for m in (twice, merged)]
        schedule = psem_optimal(pair[1]).schedule
        for got, want in ((psem_of(pair[0], schedule),
                           psem_of(pair[1], schedule)),
                          (esem_optimal(pair[0]), esem_optimal(pair[1]))):
            assert got.values.tobytes() == want.values.tobytes()
            assert got.schedule == want.schedule


def test_values_and_items_match_the_mapping_methods(perfbench,
                                                     polling_family):
    # one pass over the rows gives what Mapping's own methods give through
    # __getitem__: the same keys in row order, and views of succ and rate
    rates = perfbench("families").polling_params(np.random.default_rng(1))
    models = [polling_family(8, **rates).ctmdp]
    for model, hoa in BENCH_PAIRS:
        p = build_product(load_model(model), load_automaton(hoa))
        models += [p.ctmdp, augment(p, 0.99).ctmdp]
    for m in models:
        ch = m.choices
        values, items = ch.values(), ch.items()
        assert len(values) == len(items) == len(Mapping.values(ch)) == len(ch)
        assert [key for key, _ in items] == list(Mapping.keys(ch))
        assert all(type(x) is int for key, _ in items for x in key)
        for value, (_, item), want in zip(values, items, Mapping.values(ch),
                                          strict=True):
            for got in (value, item):
                assert np.array_equal(got[0], want[0])
                assert np.array_equal(got[1], want[1])
                assert got[0].base is ch.succ and got[1].base is ch.rate


def test_enabled_and_disabled_actions():
    m = two_state()
    assert m.enabled(0) == (0, 1)
    assert m.enabled(1) == (0,)
    with pytest.raises(ActionNotEnabled):
        m.successors(1, 1)


def test_exit_rates():
    m = two_state()
    assert m.successors(0, 0)[1].sum() == 3.0
    assert m.successors(0, 1)[1].sum() == 6.0
    assert m.successors(1, 0)[1].sum() == 2.0
    assert m.max_exit_rate == 6.0


def test_embedded_rows_are_distributions():
    rng = np.random.default_rng(3)
    for _ in range(10):
        m = random_ctmdp(rng, num_states=5)
        e = embed(m)
        for (s, a), (succ, probs) in e.trans.items():
            assert probs.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(probs > 0)
            # embedded probabilities are rates over the exit rate
            rates = m.successors(s, a)[1]
            assert np.allclose(probs, rates / rates.sum())


def test_uniformize_adds_self_loop_mass():
    m = two_state()
    u = uniformize(m)  # cap defaults to 6
    for (s, a) in u.trans:
        assert u.successors(s, a)[1].sum() == pytest.approx(6.0, abs=1e-12)
    # (s0, a) had rate 3 to s1; the missing 3 becomes a self-loop
    succ, rates = u.successors(0, 0)
    assert dict(zip(succ.tolist(), rates.tolist())) == {0: 3.0, 1: 3.0}
    # (s1, a) was a self-loop of 2; it absorbs the whole gap
    succ, rates = u.successors(1, 0)
    assert dict(zip(succ.tolist(), rates.tolist())) == {1: 6.0}
    # off-diagonal rates never change
    succ, rates = u.successors(0, 1)
    assert dict(zip(succ.tolist(), rates.tolist())) == {1: 6.0}


def test_uniformize_explicit_cap_and_bad_cap():
    m = two_state()
    u = uniformize(m, cap=10.0)
    assert all(u.successors(s, a)[1].sum() == pytest.approx(10.0)
               for (s, a) in u.trans)
    with pytest.raises(CtmdpError):
        uniformize(m, cap=5.0)


@pytest.mark.parametrize("cap", [float("nan"), float("inf")])
def test_uniformize_rejects_a_non_finite_cap(cap):
    with pytest.raises(CtmdpError, match="not finite"):
        uniformize(two_state(), cap=cap)


def test_uniformize_preserves_embedded_jump_targets():
    rng = np.random.default_rng(11)
    m = random_ctmdp(rng, num_states=6)
    u = uniformize(m)
    for (s, a), (succ, rates) in m.trans.items():
        su, ru = u.successors(s, a)
        for t, r in zip(succ, rates):
            if int(t) == s:
                continue
            i = int(np.searchsorted(su, t))
            assert su[i] == t and ru[i] == pytest.approx(float(r))


def test_validate_flags_problems():
    good = two_state()
    assert validate(good) == []
    # a state with no enabled action
    bad = Ctmdp.from_transitions(("s0", "s1"), ("a",), 0, [(0, 0, 1, 1.0)])
    problems = validate(bad)
    assert any("no enabled action" in p for p in problems)


def _with_choice(key, succ=(0,)):
    """two_state() plus, or with in place of its own, one choice under
    ``key`` that enters ``succ`` at rate 1 each (a self-loop on state 0 by
    default), as rows built by hand."""
    m = two_state()
    row = (np.array(succ, dtype=np.int64), np.ones(len(succ)))
    return Ctmdp(m.state_names, m.action_names, m.initial,
                 _rows_of({**m.trans, key: row}, m.num_states))


def test_validate_reports_choice_ids_out_of_range():
    assert validate(_with_choice((2, 0))) == ["(2, a): state out of range"]
    assert validate(_with_choice((1, 2))) == ["(s1, 2): action out of range"]


def test_validate_reports_a_negative_action_id():
    assert validate(_with_choice((1, -1))) == ["(s1, -1): action out of range"]


def test_validate_reports_a_repeated_successor():
    # every builder adds duplicate edges up; rows built by hand that list a
    # successor twice in one choice are reported
    assert validate(_with_choice((1, 0), (0, 1, 0))) == [
        "(s1, a): repeated successor"]


def test_validate_reports_labels_short_of_the_state_count():
    m = Ctmdp.from_transitions(("s0", "s1"), ("a",), 0,
                               [(0, 0, 1, 1.0), (1, 0, 0, 1.0)],
                               ap=("x",), labels=[{0}])
    assert validate(m) == ["labels given for 1 states, not 2"]


def _kept_pairs(m):
    """The (state, action) pairs of the rows that ``m.choices.mec`` keeps."""
    ch = m.choices
    kept, _ = ch.mec
    return set(zip(ch.state[kept].tolist(), ch.action[kept].tolist()))


def test_mec_decompose_on_bundled_model():
    m = embed(load_model("mec_demo"))
    idx = {name: i for i, name in enumerate(m.state_names)}
    mecs = mec_decompose(m)
    found = {frozenset(m.state_names[s] for s in mec.states)
             for mec in mecs.components}
    assert found == {frozenset({"z=2"}), frozenset({"z=3", "z=4"}),
                     frozenset({"z=5", "z=6"})}
    # the view lists the components of the masks in order of least state
    _, comp = m.choices.mec
    assert [mec.states for mec in mecs.components] == [
        frozenset(np.flatnonzero(comp == c).tolist())
        for c in dict.fromkeys(comp[comp >= 0].tolist())]
    # z=1 is transient under every schedule
    assert comp[idx["z=1"]] == -1
    assert all(idx["z=1"] not in mec.states for mec in mecs.components)
    # in {z=3, z=4} every action stays inside, so all are kept
    z3 = idx["z=3"]
    assert {a for s, a in _kept_pairs(m) if s == z3} == set(m.enabled(z3))


def test_mec_decompose_accepting_flag():
    m = load_model("mec_demo")
    idx = {name: i for i, name in enumerate(m.state_names)}
    mecs = mec_decompose(embed(m), accepting={idx["z=5"]})
    for mec in mecs.components:
        assert mec.accepting == (idx["z=5"] in mec.states)


def test_mec_decompose_matches_recurrence_oracle():
    # a pair (s, a) sits in some end-component exactly when some pure
    # schedule makes s recurrent while playing a there
    rng = np.random.default_rng(20)
    for _ in range(15):
        m = random_ctmdp(rng, num_states=6, max_schedules=2000)
        oracle = brute_force_mec_pairs(m)
        assert _kept_pairs(embed(m)) == set(oracle)
        # the view's states are those of the kept rows
        assert {s for s, _ in oracle} == {
            s for mec in mec_decompose(m).components for s in mec.states}
    # products with a trap state, plain and augmented with a sink
    rng = np.random.default_rng(29)
    traps = compared = 0
    for _ in range(30):
        m = random_ctmdp(rng, num_states=int(rng.integers(2, 5)),
                         max_actions=2, ap=("g", "p"))
        p = build_product(m, random_buchi(rng, num_states=2))
        traps += TRAP_PAIR in p.pairs
        for prod in (p, augment(p, 0.5)):
            try:
                _gate(prod.ctmdp)
            except CtmdpError:
                continue  # too many schedules to enumerate
            assert (_kept_pairs(embed(prod.ctmdp))
                    == set(brute_force_mec_pairs(prod.ctmdp)))
            compared += 1
    assert traps >= 10 and compared >= 40


def test_rows_are_built_by_the_edge_builder():
    # in the package only the random models build from tuples, every other
    # model, the parsed ones and those given a transition dict too, is built
    # by the edge builder, and rows are made by hand only where they are
    # loop-freed or unioned
    src = Path(ctsched.__file__).parent
    calls = {}
    for path in sorted(src.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef):
                calls[f"{path.stem}.{node.name}"] = {
                    ast.unparse(x.func)
                    for x in ast.walk(node) if isinstance(x, ast.Call)}
    assert {name for name, called in calls.items()
            if "Ctmdp.from_transitions" in called} == {
                "bruteforce.random_ctmdp"}
    for name in ("model_lang.parse_model", "product._walk",
                 "product.augment", "model.uniformize", "model.choices"):
        assert "ChoiceRows.of_edges" in calls[name], name
    assert {name for name, called in calls.items()
            if "ChoiceRows" in called} == {
                "model.of_edges", "bruteforce._space"}
    # loop_free and embed keep the rows' entries and replace their columns
    assert "replace" in calls["model.loop_free"]
    assert "replace" in calls["model.embed"]
