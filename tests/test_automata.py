"""Buchi automata: guards, steps, construction checks."""
import pytest

from ctsched.automata import (BuchiAutomaton, Edge, GAnd, GAp, GFalse, GNot,
                              GOr, GTrue, step)
from ctsched.data import load_automaton

L = frozenset


def test_guard_eval():
    g = GAnd((GAp(0), GNot(GAp(1))))
    assert g.eval(L({0}))
    assert not g.eval(L({0, 1}))
    assert not g.eval(L(()))
    assert GOr((GAp(0), GAp(1))).eval(L({1}))
    assert GTrue().eval(L(()))
    assert not GFalse().eval(L({0}))


def test_guard_str():
    # negation of a compound gets parenthesized
    assert str(GNot(GAnd((GAp(0), GAp(1))))) == "!(0 & 1)"


def test_step_on_fig1_automaton():
    a = load_automaton("fig1")
    g, p = 0, 1
    assert step(a, 0, L(())) == L({0})
    assert step(a, 0, L({g})) == L({1})
    assert step(a, 0, L({p})) == L({2})
    assert step(a, 0, L({g, p})) == L({2})
    assert step(a, 2, L({g})) == L({2})
    assert a.accepting == L({1})


def test_step_rejects_out_of_range_state():
    a = load_automaton("fig1")
    with pytest.raises(ValueError):
        step(a, 7, L(()))


def test_nondeterministic_step_collects_all_choices():
    edges = ((Edge(GTrue(), 0), Edge(GAp(0), 1)),
             (Edge(GTrue(), 1),))
    a = BuchiAutomaton(num_states=2, initial=0, ap=("x",),
                       edges=edges, accepting=L({1}))
    assert step(a, 0, L({0})) == L({0, 1})
    assert step(a, 0, L(())) == L({0})


def test_constructor_validation():
    with pytest.raises(ValueError):
        BuchiAutomaton(num_states=2, initial=0, ap=(),
                       edges=((),), accepting=frozenset())
    with pytest.raises(ValueError):
        BuchiAutomaton(num_states=1, initial=0, ap=(),
                       edges=((),), accepting=L({3}))
