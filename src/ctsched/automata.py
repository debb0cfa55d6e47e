"""Nondeterministic Buchi automata over sets of atomic propositions.

Letters are frozensets of AP indices (the bitset view of 2^AP).  Edge guards
are boolean formulas over AP indices, evaluated against a letter.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Tuple

Letter = FrozenSet[int]


class Guard:
    """Boolean formula over AP indices."""

    def eval(self, letter: Letter) -> bool:
        raise NotImplementedError


@dataclass(frozen=True)
class GTrue(Guard):
    def eval(self, letter):
        return True

    def __str__(self):
        return "t"


@dataclass(frozen=True)
class GFalse(Guard):
    def eval(self, letter):
        return False

    def __str__(self):
        return "f"


@dataclass(frozen=True)
class GAp(Guard):
    index: int

    def eval(self, letter):
        return self.index in letter

    def __str__(self):
        return str(self.index)


@dataclass(frozen=True)
class GNot(Guard):
    arg: Guard

    def eval(self, letter):
        return not self.arg.eval(letter)

    def __str__(self):
        if isinstance(self.arg, (GAnd, GOr)):
            return f"!({self.arg})"
        return f"!{self.arg}"


@dataclass(frozen=True)
class GAnd(Guard):
    args: Tuple[Guard, ...]

    def eval(self, letter):
        return all(g.eval(letter) for g in self.args)

    def __str__(self):
        return " & ".join(f"({g})" if isinstance(g, GOr) else str(g)
                          for g in self.args)


@dataclass(frozen=True)
class GOr(Guard):
    args: Tuple[Guard, ...]

    def eval(self, letter):
        return any(g.eval(letter) for g in self.args)

    def __str__(self):
        return " | ".join(str(g) for g in self.args)


@dataclass(frozen=True)
class Edge:
    guard: Guard
    target: int


@dataclass(frozen=True)
class BuchiAutomaton:
    """States 0..n-1, AP names, guarded edges, state-based acceptance."""

    num_states: int
    initial: int
    ap: Tuple[str, ...]
    edges: Tuple[Tuple[Edge, ...], ...]  # edges[q] = outgoing edges of q
    accepting: FrozenSet[int]

    def __post_init__(self):
        if len(self.edges) != self.num_states:
            raise ValueError("edge table size does not match state count")
        for q in self.accepting:
            if not (0 <= q < self.num_states):
                raise ValueError(f"accepting state {q} out of range")


def step(a: BuchiAutomaton, q: int, letter: Letter) -> FrozenSet[int]:
    """delta(q, letter); empty set means the run prefix is rejected."""
    if not (0 <= q < a.num_states):
        raise ValueError(f"state {q} out of range")
    return frozenset(e.target for e in a.edges[q] if e.guard.eval(letter))

