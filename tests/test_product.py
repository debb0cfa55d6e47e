"""Model x automaton products, the sink augmentation and schedule plumbing."""
import ast
import gc
import hashlib
import re
import weakref
from dataclasses import fields, replace
from itertools import accumulate
from pathlib import Path

import numpy as np
import pytest

import ctsched
from ctsched.automata import BuchiAutomaton, Edge, GFalse, GTrue, step
from ctsched.bruteforce import (random_buchi, random_ctmdp,
                                random_marked_product, random_schedule)
from ctsched.check import esem_of, psem_of
from ctsched.data import BENCH_PAIRS, load_automaton, load_model
from ctsched.formats import ModelSource, parse_model
from ctsched.learn import Hyperparams, learn_exp, learn_sat
from ctsched.model import ChoiceRows, Ctmdp, CtmdpError
from ctsched.product import (SINK_ACTION, SINK_PAIR, TRAP_ACTION, TRAP_PAIR,
                             ApMismatch, OnTheFlyProductEnv, ProductCtmdp,
                             _letters, action_name, augment, build_product,
                             project_schedule, schedule_from_ids,
                             schedule_rows, state_name)
from test_pinned import (PINNED_DECAY_ESTIMATE, PINNED_DECAY_Q,
                         PINNED_DECAY_SCHEDULE, PINNED_DECAY_STEPS, PINNED_Q,
                         PINNED_SCHEDULE, PINNED_STEPS)


def test_mars_product_shape(mars):
    m, a, p = mars
    names = set(p.ctmdp.state_names)
    assert p.num_states == 7
    assert names == {"(z=0,q0)", "(z=3,q0)", "(z=2,q0)", "(z=1,q0)",
                     "(z=1,q2)", "(z=2,q1)", "(z=0,q1)"}
    # only pairs with an accepting automaton component are accepting
    acc_names = {p.ctmdp.state_names[i] for i in p.accepting}
    assert acc_names == {"(z=2,q1)", "(z=0,q1)"}


def test_mars_product_edges_read_current_label(mars):
    m, a, p = mars
    idx = {n: i for i, n in enumerate(p.ctmdp.state_names)}
    aidx = {n: i for i, n in enumerate(p.ctmdp.action_names)}
    # zone 0 carries no label, so the automaton stays in q0 while leaving it
    succ, rates = p.ctmdp.successors(idx["(z=0,q0)"], aidx["a>q0"])
    assert [p.ctmdp.state_names[int(t)] for t in succ] == ["(z=3,q0)"]
    # zone 3 is labelled g: leaving it moves the automaton to q1
    succ, _ = p.ctmdp.successors(idx["(z=3,q0)"], aidx["c>q1"])
    assert [p.ctmdp.state_names[int(t)] for t in succ] == ["(z=0,q1)"]
    # zone 1 is labelled p: the automaton falls into the rejecting state q2
    succ, _ = p.ctmdp.successors(idx["(z=1,q0)"], aidx["d>q2"])
    assert [p.ctmdp.state_names[int(t)] for t in succ] == ["(z=1,q2)"]


def test_riskreward_product_size(riskreward):
    _, _, p = riskreward
    assert p.num_states == 8


def test_product_preserves_rates(mars):
    m, a, p = mars
    for i, (s, q) in enumerate(p.pairs):
        for j in p.ctmdp.enabled(i):
            act, _ = p.action_pairs[j]
            assert p.ctmdp.successors(i, j)[1].sum() == pytest.approx(
                m.successors(s, act)[1].sum())


def test_empty_automaton_step_goes_to_trap():
    m = Ctmdp.from_transitions(("s0",), ("a",), 0, [(0, 0, 0, 1.0)],
                               ap=("x",), labels=[{0}])
    # the single edge requires !x, which never fires
    a = BuchiAutomaton(num_states=1, initial=0, ap=("x",),
                       edges=((Edge(GFalse(), 0),),), accepting=frozenset({0}))
    p = build_product(m, a)
    assert TRAP_PAIR in p.pairs
    trap = p.pairs.index(TRAP_PAIR)
    assert trap not in p.accepting
    succ, _ = p.ctmdp.successors(trap, p.ctmdp.enabled(trap)[0])
    assert list(succ) == [trap]


def test_ap_mismatch_raises():
    m = Ctmdp.from_transitions(("s0",), ("a",), 0, [(0, 0, 0, 1.0)])
    a = BuchiAutomaton(num_states=1, initial=0, ap=("ghost",),
                       edges=((Edge(GTrue(), 0),),), accepting=frozenset({0}))
    with pytest.raises(ApMismatch):
        build_product(m, a)


def test_short_labels_raise_a_model_error():
    # from_transitions accepts any number of labels; only validate counts
    # them, so the product names the mismatch instead of indexing past it
    m = Ctmdp.from_transitions(("s0", "s1"), ("a",), 0,
                               [(0, 0, 1, 1.0), (1, 0, 0, 1.0)],
                               ap=("x",), labels=[{0}])
    a = BuchiAutomaton(num_states=1, initial=0, ap=("x",),
                       edges=((Edge(GTrue(), 0),),), accepting=frozenset({0}))
    message = "model has 2 states but labels for 1"
    with pytest.raises(CtmdpError, match=message):
        build_product(m, a)
    with pytest.raises(CtmdpError, match=message):
        OnTheFlyProductEnv(m, a)


def test_augment_splits_accepting_exits(riskreward):
    _, _, p = riskreward
    zeta = 0.99
    aug = augment(p, zeta)
    am = aug.ctmdp
    sink = am.num_states - 1
    assert sink == p.num_states and aug.pairs[sink] == SINK_PAIR
    assert aug.accepting == frozenset({sink})
    for (s, a), (succ, rates) in p.ctmdp.trans.items():
        asucc, arates = am.successors(s, a)
        lam = float(rates.sum())
        # exit rates are preserved by the split
        assert arates.sum() == pytest.approx(lam, rel=1e-12)
        if s in p.accepting:
            assert sink in asucc
            i = list(asucc).index(sink)
            assert arates[i] == pytest.approx(lam * (1 - zeta))
            for t, r in zip(succ, rates):
                j = list(asucc).index(int(t))
                assert arates[j] == pytest.approx(float(r) * zeta)
        else:
            assert sink not in asucc
    # the sink is absorbing
    succ, rates = am.successors(sink, am.enabled(sink)[0])
    assert list(succ) == [sink] and rates[0] == 1.0


def test_augment_keeps_trap_and_sink_apart():
    # the first random product of this draw has a trap state
    rng = np.random.default_rng(1)
    p = build_product(random_ctmdp(rng, 5, ap=("g", "p")), random_buchi(rng))
    assert TRAP_PAIR in p.pairs
    trap = p.pairs.index(TRAP_PAIR)
    aug = augment(p, 0.99)
    pairs, action_pairs = aug.pairs, aug.action_pairs
    sink = aug.num_states - 1
    assert len(set(pairs)) == len(pairs)
    assert len(set(action_pairs)) == len(action_pairs)
    assert aug.state_index()[TRAP_PAIR] == trap != sink
    assert aug.state_index()[SINK_PAIR] == sink
    # schedules leave out only the trap; the sink keeps its stay action
    sigma = np.array([aug.ctmdp.enabled(s)[0] for s in range(aug.num_states)])
    sched = schedule_from_ids(aug, sigma)
    assert TRAP_PAIR not in sched and pairs[sink] in sched


def test_augment_rejects_bad_zeta(riskreward):
    _, _, p = riskreward
    from ctsched.model import CtmdpError
    with pytest.raises(CtmdpError):
        augment(p, 1.0)


def test_schedule_id_round_trip(mars):
    _, _, p = mars
    rng = np.random.default_rng(2)
    for _ in range(5):
        sigma = np.array([int(rng.choice(p.ctmdp.enabled(s)))
                          for s in range(p.num_states)])
        sched = schedule_from_ids(p, sigma)
        back = p.ctmdp.choices.action[schedule_rows(p, sched)]
        assert np.array_equal(back, sigma)


def test_schedule_rows_falls_back_on_missing_states(mars):
    _, _, p = mars
    sigma = p.ctmdp.choices.action[schedule_rows(p, {})]
    for s in range(p.num_states):
        assert sigma[s] == p.ctmdp.enabled(s)[0]


def test_schedule_rows_rejects_disabled_choices(mars):
    m, a, p = mars
    sched = schedule_from_ids(
        p, np.array([p.ctmdp.enabled(s)[0] for s in range(p.num_states)]))
    sched[(0, 0)] = (99, 99)
    with pytest.raises(CtmdpError, match=r"\(99, 99\).*\(0, 0\)"):
        schedule_rows(p, sched)
    # psem_of and esem_of grade no other schedule in its place
    for grade in (psem_of, esem_of):
        with pytest.raises(CtmdpError):
            grade(p, sched)


def test_schedule_rows_rejects_a_state_without_rows():
    # the last state enables nothing, so no schedule plays in it
    m = Ctmdp.from_transitions(("s0", "s1"), ("a",), 0, [(0, 0, 1, 1.0)])
    p = ProductCtmdp(m, ((0, 0), (1, 0)), ((0, 0),), frozenset())
    with pytest.raises(CtmdpError, match=r"None is not enabled.*\(1, 0\)"):
        schedule_rows(p, {})
    with pytest.raises(CtmdpError, match=r"\(0, 0\) is not enabled.*\(1, 0\)"):
        schedule_rows(p, {(1, 0): (0, 0)})


def _two_pass_rows(p, schedule):
    """The reference for ``schedule_rows``: a pass in plain Python from
    pairs to action ids, with the same fallback and error, then
    ``ChoiceRows.lookup``'s dict lookup per state."""
    action_index = p.action_index()
    ch = p.ctmdp.choices
    start, action, enabled = ch.start.tolist(), ch.action.tolist(), ch.row
    out = []
    for i, pair in enumerate(p.pairs):
        choice = schedule.get(pair)
        if choice is not None:
            j = action_index.get(choice, -1)
        else:   # the action of the state's first row, if it has one
            j = action[start[i]] if start[i] < start[i + 1] else -1
        if (i, j) not in enabled:
            raise CtmdpError(f"schedule action {choice} is not enabled at "
                             f"product state {pair}")
        out.append(j)
    return np.array([enabled[key] for key in enumerate(out)], dtype=np.int64)


def _without_rows(p, s):
    """``p`` with every row of state ``s`` taken out."""
    ch = p.ctmdp.choices
    keep = ch.state[ch.edge_row] != s
    rows = ChoiceRows.of_edges(
        p.num_states, ch.state[ch.edge_row][keep],
        ch.action[ch.edge_row][keep], ch.succ[keep], ch.rate[keep])
    return ProductCtmdp(replace(p.ctmdp, trans=rows), p.pairs,
                        p.action_pairs, p.accepting)


def test_schedule_rows_matches_the_two_pass_reference():
    # marked products, model x automaton products with traps, and sink
    # augmentations; complete, partial and empty schedules, foreign and
    # disabled action pairs and states without rows: the same rows, or the
    # same error at the same state
    rng = np.random.default_rng(97)

    def outcome(f, p, schedule):
        try:
            return f(p, schedule).tolist()
        except CtmdpError as exc:
            return type(exc), str(exc)

    kinds = {"trap": 0, "sink": 0, "missing": 0, "foreign": 0,
             "disabled": 0, "no rows": 0}
    for k in range(200):
        if k % 3 == 0:
            p = random_marked_product(rng, int(rng.integers(2, 9)))
        else:
            m = random_ctmdp(rng, int(rng.integers(2, 6)), max_actions=2,
                             ap=("g", "p"))
            p = build_product(m, random_buchi(rng, num_states=2))
            kinds["trap"] += TRAP_PAIR in p.pairs
            if k % 3 == 2:
                p = augment(p, 0.9)
                kinds["sink"] += 1
        n, ch = p.num_states, p.ctmdp.choices
        full = random_schedule(rng, p)
        sigma = ch.action[schedule_rows(p, full)]
        assert list(full.items()) == [
            (pair, p.action_pairs[j]) for pair, j in zip(p.pairs, sigma)
            if pair != TRAP_PAIR]
        keys = list(full)
        schedules = [full, {}, {key: full[key] for key in keys
                                if rng.random() < 0.5}]
        i = int(rng.integers(n))
        foreign = dict(full)   # the error names the first of two states
        for pair in (p.pairs[i], p.pairs[int(rng.integers(n))]):
            foreign[pair] = (99, 99)
        schedules.append(foreign)
        off = sorted(set(range(len(p.action_pairs)))
                     - set(p.ctmdp.enabled(i)))
        if off:
            disabled = dict(full)
            disabled[p.pairs[i]] = p.action_pairs[off[0]]
            schedules.append(disabled)
        cases = [(p, schedule) for schedule in schedules]
        if n > 1:
            cases += [(_without_rows(p, i), schedule)
                      for schedule in (full, {})]
        for q, schedule in cases:
            want = outcome(_two_pass_rows, q, schedule)
            assert outcome(schedule_rows, q, schedule) == want
            if isinstance(want, list):
                kinds["missing"] += len(schedule) < n - (TRAP_PAIR in q.pairs)
            else:
                kinds["foreign" if "(99, 99)" in want[1] else
                      "no rows" if q is not p else "disabled"] += 1
    assert min(kinds.values()) >= 20, kinds


def test_project_schedule(mars):
    m, a, p = mars
    sigma = np.array([p.ctmdp.enabled(s)[0] for s in range(p.num_states)])
    sched = schedule_from_ids(p, sigma)
    proj = project_schedule(p, sched)
    for (s, q), act in proj.items():
        assert act in m.enabled(s)
    assert set(proj) == {(s, q) for (s, q) in p.pairs if s is not None}


# ---------------------------------------------------------------------------
# pinned products


def _product_digest(p):
    """SHA-256 over the pairs, names, labels and accepting set of a product,
    and the bytes of its choice rows."""
    m, ch = p.ctmdp, p.ctmdp.choices
    h = hashlib.sha256()
    h.update(repr((p.pairs, p.action_pairs, m.state_names, m.action_names,
                   [sorted(lab) for lab in m.labels],
                   sorted(p.accepting))).encode())
    for col in (ch.state, ch.action, ch.ptr, ch.succ, ch.rate):
        h.update(col.tobytes())
    return h.hexdigest()


PINNED_PRODUCTS = {
    "riskrewardxriskreward": "7dbe9a1508fceb97643ddfa485191973ee9cf198af322d413acb958d2e56983e",
    "marsxfig1": "6d81515f793009fa7510af50801a722d67fbbfb148de0ac4e66e10306a4ca792",
    "polling2xpolling": "017cab1ba7d63d8afec80278e48678907270bb2dc803d418607665c35e9353f7",
    "polling8": "ac999ac313de927548713171f0c3a63b0607838a3d0e37d64ae016fd3d7e872b",
    "hazard30": "e9453e083b30ca1f81e9dfe274e641b2a666c0849de245cf13c8479c567cf27b",
}


def test_built_products_are_pinned(perfbench):
    families = perfbench("families")
    products = {f"{m}x{a}": build_product(load_model(m), load_automaton(a))
                for m, a in BENCH_PAIRS}
    for name, text in (
            ("polling8", families.polling_text(
                8, **families.polling_params(np.random.default_rng(1)))),
            ("hazard30", families.hazard_text(
                30, **families.hazard_params(np.random.default_rng(1))))):
        hoa = (families.POLLING_HOA if name.startswith("polling")
               else families.HAZARD_HOA)
        products[name] = build_product(parse_model(ModelSource(text, origin=name)),
                                       load_automaton(hoa[:-len(".hoa")]))
    got = {name: _product_digest(p) for name, p in products.items()}
    assert got == PINNED_PRODUCTS


# ---------------------------------------------------------------------------
# one table per model and automaton


def _sat_pins(m, a):
    res = learn_sat(m, a, Hyperparams(ep_n=50, ep_len=60, beta=0.05), seed=0)
    assert res.steps_run == PINNED_STEPS
    assert res.schedule == PINNED_SCHEDULE
    assert res.qtable.q == {k: float.fromhex(v) for k, v in PINNED_Q.items()}


def _exp_pins(m, a):
    res = learn_exp(m, a, Hyperparams(ep_n=50, ep_len=60, decay_beta=True),
                    seed=0)
    assert res.steps_run == PINNED_DECAY_STEPS
    assert res.estimate.hex() == PINNED_DECAY_ESTIMATE
    assert list(res.schedule.items()) == list(PINNED_DECAY_SCHEDULE.items())
    assert [(k, v.hex(), res.qtable.visits[k])
            for k, v in res.qtable.q.items()] == PINNED_DECAY_Q


@pytest.mark.parametrize("model, automaton, learn_pinned",
                         [("riskreward", "riskreward", _sat_pins),
                          ("mars", "fig1", _exp_pins)])
def test_sharing_the_table_changes_no_output(model, automaton, learn_pinned):
    pinned = PINNED_PRODUCTS[f"{model}x{automaton}"]
    # a learner first: build_product returns the product the learner made
    m, a = load_model(model), load_automaton(automaton)
    learn_pinned(m, a)
    p = build_product(m, a)
    assert m.products == {id(a): p}
    assert _product_digest(p) == pinned
    learn_pinned(m, a)
    # the product first, then a learner, then the product again
    m, a = load_model(model), load_automaton(automaton)
    assert _product_digest(build_product(m, a)) == pinned
    learn_pinned(m, a)
    assert _product_digest(build_product(m, a)) == pinned


def test_product_after_learners_is_pinned(perfbench):
    families = perfbench("families")
    text = families.polling_text(
        8, **families.polling_params(np.random.default_rng(1)))
    m = parse_model(ModelSource(text, origin="polling8"))
    a = load_automaton(families.POLLING_HOA[:-len(".hoa")])
    hp = Hyperparams(ep_n=20, ep_len=60)
    learn_sat(m, a, hp, seed=0)
    learn_exp(m, a, hp, seed=1)
    assert _product_digest(build_product(m, a)) == PINNED_PRODUCTS["polling8"]


def test_a_model_and_its_tables_are_freed_without_the_cyclic_gc():
    # the product keeps no reference to the model, so that the model's own
    # reference to its products makes no cycle
    gc.disable()
    try:
        m, a = load_model("mars"), load_automaton("fig1")
        p = build_product(m, a)
        learn_sat(m, a, Hyperparams(ep_n=20, ep_len=20), seed=0)
        assert m.products == {id(a): p}
        model, product = weakref.ref(m), weakref.ref(p)
        del m, p
        assert model() is None
        assert product() is None
    finally:
        gc.enable()


# API that only tests called; the names perfbench still imports stay in
# their modules but leave the package's top level
RETIRED = {"schedule_to_ids", "step_reward_spec", "stabilized", "is_accepting"}
UNEXPORTED = {"Mec", "MecSet", "embed", "mec_decompose", "OnTheFlyProductEnv",
              "sample_transition", "schedule_to_ids"}


def test_retired_names_are_gone():
    # no module of the package defines, imports, reads, calls or documents
    # a retired name, the package exports none of the unexported ones, and
    # gamma is the learner's one discount setting
    src = Path(ctsched.__file__).parent
    word = re.compile(r"\b(" + "|".join(sorted(RETIRED)) + r")\b")
    found = set()
    for path in sorted(src.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = {getattr(node, key, None)
                     for key in ("name", "asname", "id", "attr", "arg")}
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.update(word.findall(node.value))
            found |= {(path.name, name) for name in names & RETIRED}
    assert not found
    assert not UNEXPORTED & set(vars(ctsched))
    assert "alpha" not in {f.name for f in fields(Hyperparams)}


def test_product_table_is_the_one_way_to_a_table():
    # in the package only build_product walks the product, the pair-keyed
    # view is made nowhere, and every caller that steps on the product
    # takes it from build_product
    src = Path(ctsched.__file__).parent
    calls = {}
    for path in sorted(src.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef):
                calls[f"{path.stem}.{node.name}"] = {
                    ast.unparse(x.func).split(".")[-1]
                    for x in ast.walk(node) if isinstance(x, ast.Call)}
    made = [ast.unparse(x.func).split(".")[-1]
            for path in src.rglob("*.py")
            for x in ast.walk(ast.parse(path.read_text()))
            if isinstance(x, ast.Call)]
    assert made.count("_walk") == 1
    assert {name for name, called in calls.items()
            if "_walk" in called} == {"product.build_product"}
    assert "OnTheFlyProductEnv" not in made
    for name in ("learn.learn_sat", "learn.learn_exp", "cli._build"):
        assert "build_product" in calls[name], name
    assert "_build" in calls["cli.cmd_simulate"]


def test_the_table_is_built_whole_when_it_is_made():
    # _walk is the one walk over the product: it alone steps the
    # automaton, and build_product keeps what the walk returns, with no
    # loop of its own and no read of a row index
    src = Path(ctsched.__file__).parent
    stepping = {f"{path.stem}.{node.name}"
                for path in sorted(src.rglob("*.py"))
                for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.FunctionDef)
                for x in ast.walk(node) if isinstance(x, ast.Call)
                and ast.unparse(x.func).split(".")[-1] == "step"}
    assert stepping == {"product._walk"}
    tree = ast.parse((src / "product.py").read_text())
    build = next(node for node in tree.body
                 if isinstance(node, ast.FunctionDef)
                 and node.name == "build_product")
    for x in ast.walk(build):
        assert not isinstance(x, (ast.For, ast.While, ast.comprehension))
        assert not (isinstance(x, ast.Attribute) and x.attr == "row")
    for model, automaton in BENCH_PAIRS:
        m, a = load_model(model), load_automaton(automaton)
        p = build_product(m, a)
        for col in (p.acts, p.succ, p.cum):
            assert len(col) == len(p.pairs) == p.num_states


def test_build_product_leaves_the_learner_columns_unbuilt():
    # the product needs neither the learner's columns nor the model's row
    # index; a learner derives the columns, once, from the product's rows
    m, a = load_model("mars"), load_automaton("fig1")
    p = build_product(m, a)
    columns = {"acts", "succ", "cum"}
    assert not columns & vars(p).keys()
    assert "row" not in vars(m.choices)
    learn_sat(m, a, Hyperparams(ep_n=5, ep_len=10), seed=0)
    assert columns <= vars(p).keys()
    assert "row" not in vars(m.choices)


def test_build_product_returns_the_models_one_product(monkeypatch):
    # the learners step on the product build_product returns, and derive
    # its columns once, on that same object
    m, a = load_model("mars"), load_automaton("fig1")
    p = build_product(m, a)
    assert build_product(m, a) is p
    derived = []
    by_slot = ProductCtmdp._by_slot

    def counted(self, column, make):
        derived.append(self)
        return by_slot(self, column, make)

    monkeypatch.setattr(ProductCtmdp, "_by_slot", counted)
    hp = Hyperparams(ep_n=5, ep_len=10)
    learn_sat(m, a, hp, seed=0)
    columns = (p.acts, p.succ, p.cum)
    learn_exp(m, a, hp, seed=1)
    assert len(derived) == 3 and all(x is p for x in derived)
    assert all(x is y for x, y in zip(columns, (p.acts, p.succ, p.cum)))
    assert build_product(m, a) is p


def _assert_columns_follow_the_rows(p):
    """Each state has one slot per choice row, ordered by its action pair,
    and a slot holds its row's successors and cumulative rates in model
    state order; the trap and the sink have no model coordinates and
    order as -1."""
    def key(pair):
        return tuple(-1 if x is None else x for x in pair)

    ch = p.ctmdp.choices
    for i in range(p.num_states):
        rows = range(ch.start[i], ch.start[i + 1])
        assert len(p.acts[i]) == len(p.succ[i]) == len(p.cum[i]) == len(rows)
        want = {}
        for r in rows:
            b, e = ch.ptr[r], ch.ptr[r + 1]
            entries = sorted(zip(ch.succ[b:e].tolist(), ch.rate[b:e].tolist()),
                             key=lambda entry: key(p.pairs[entry[0]])[0])
            want[p.action_pairs[ch.action[r]]] = (
                tuple(t for t, _ in entries),
                list(accumulate(rate for _, rate in entries)))
        assert sorted(want, key=key) == list(p.acts[i])
        assert [want[act] for act in p.acts[i]] == list(zip(p.succ[i],
                                                             p.cum[i]))


def test_learner_columns_follow_the_rows_of_every_product(mars, riskreward):
    # an augmented product holds the sink's action (None, -1), and may hold
    # the trap's (None, None) beside it; a random marked product has no
    # walk behind it
    products = [augment(p, 0.9) for _, _, p in (mars, riskreward)]
    rng = np.random.default_rng(27)
    for _ in range(30):
        m = random_ctmdp(rng, int(rng.integers(2, 8)), ap=("g", "p"))
        marked = random_marked_product(rng)
        products += [augment(build_product(m, random_buchi(rng)), 0.5),
                     marked, augment(marked, 0.5)]
    assert any(SINK_ACTION in p.action_pairs and TRAP_ACTION in p.action_pairs
               for p in products)
    for p in products:
        _assert_columns_follow_the_rows(p)


# ---------------------------------------------------------------------------
# the one walk against the two passes it replaced


def _two_pass_product(m, a):
    """The product as two passes build it: a depth-first walk that builds
    the learner's columns row by row, then a loop over those rows in walk
    order that maps each slot back to its model row through
    ``ChoiceRows.row`` for its rates.  Returns the product's fields and
    the learner's columns."""
    letters, ch = _letters(m, a), m.choices
    ids, pairs = {}, []

    def intern(pair):
        i = ids.get(pair)
        if i is None:
            i = ids[pair] = len(pairs)
            pairs.append(pair)
        return i

    def row(i):
        s, q = pairs[i]
        choices = () if s is None else sorted(step(a, q, letters[s]))
        if not choices:
            return (TRAP_ACTION,), [(intern(TRAP_PAIR),)], [[1.0]]
        lo, hi = ch.start[s:s + 2].tolist()
        ptr = ch.ptr[lo:hi + 1].tolist()
        acts, succ, cums = [], [], []
        for act, b, e in zip(ch.action[lo:hi].tolist(), ptr, ptr[1:]):
            targets = ch.succ[b:e].tolist()
            cum = list(accumulate(ch.rate[b:e].tolist()))
            for q2 in choices:
                acts.append((act, q2))
                succ.append(tuple(intern((t, q2)) for t in targets))
                cums.append(cum)
        return tuple(acts), succ, cums

    rows = {}
    stack = [intern((m.initial, a.initial))]
    while stack:
        i = stack.pop()
        if i not in rows:
            rows[i] = built = row(i)
            for targets in built[1]:
                stack.extend(targets)
    acts, succ, cum = zip(*(rows[i] for i in range(len(pairs))))

    ptr, trap = ch.ptr.tolist() + [len(ch.rate) + 1], len(ch.state)
    action_ids = {}
    src, aid, dst, edge = [], [], [], []
    for i in rows:
        s = pairs[i][0]
        for act, targets in zip(acts[i], succ[i]):
            r = trap if act == TRAP_ACTION else ch.row[(s, act[0])]
            src += [i] * len(targets)
            aid += [action_ids.setdefault(act, len(action_ids))] * len(targets)
            dst += targets
            edge += range(ptr[r], ptr[r + 1])
    choices = ChoiceRows.of_edges(len(pairs), src, aid, dst,
                                  np.append(ch.rate, 1.0)[edge])
    accepting = frozenset(i for i, (_, q) in enumerate(pairs)
                          if q in a.accepting)
    return (pairs, tuple(action_ids), accepting, choices), (acts, succ, cum)


def _columns(acts, succ, cum):
    return ([tuple(row) for row in acts],
            [[tuple(slot) for slot in row] for row in succ],
            [[[x.hex() for x in slot] for slot in row] for row in cum])


def _assert_one_walk_matches_two_passes(m, a):
    product, columns = _two_pass_product(m, a)
    pairs, action_pairs, accepting, choices = product
    p = build_product(m, a)
    assert p.pairs == tuple(pairs)
    assert p.action_pairs == action_pairs
    assert p.accepting == accepting
    assert p.ctmdp.state_names == tuple(state_name(m, x) for x in pairs)
    assert p.ctmdp.action_names == tuple(action_name(m, x)
                                         for x in action_pairs)
    for col in ("start", "state", "action", "ptr", "succ", "rate"):
        got, want = getattr(p.ctmdp.choices, col), getattr(choices, col)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert _columns(p.acts, p.succ, p.cum) == _columns(*columns)
    # the action pairs of some state outnumber its model actions
    return TRAP_PAIR in pairs, any(
        len(row) > len({act for act, _ in row}) for row in p.acts)


def test_one_walk_matches_the_two_passes(perfbench):
    families = perfbench("families")
    for model, automaton in BENCH_PAIRS:
        _assert_one_walk_matches_two_passes(load_model(model),
                                            load_automaton(automaton))
    for text, hoa in (
            (families.polling_text(8, **families.polling_params(
                np.random.default_rng(1))), families.POLLING_HOA),
            (families.hazard_text(30, **families.hazard_params(
                np.random.default_rng(1))), families.HAZARD_HOA)):
        _assert_one_walk_matches_two_passes(
            parse_model(ModelSource(text, origin="family")),
            load_automaton(hoa[:-len(".hoa")]))
    rng = np.random.default_rng(27)
    traps = forks = 0
    for _ in range(200):
        m = random_ctmdp(rng, int(rng.integers(2, 8)), ap=("g", "p"))
        trap, fork = _assert_one_walk_matches_two_passes(m, random_buchi(rng))
        traps += trap
        forks += fork
    assert traps >= 2 and forks >= 2
