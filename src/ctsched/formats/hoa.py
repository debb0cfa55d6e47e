"""Hanoi Omega Automata reader/writer for the Buchi subset.

Supported: `HOA: v1`, `States:`, `Start:`, `AP:`, `Acceptance: 1 Inf(0)`,
state-based acceptance `{0}`, edge labels as boolean formulas over AP indices
(`t`, `f`, `!`, `&`, `|`, parentheses).  Nondeterminism is allowed; anything
other than a single Inf set is rejected.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..automata import (BuchiAutomaton, Edge, GAnd, GAp, GFalse, GNot, GOr,
                        GTrue, Guard)


@dataclass(frozen=True)
class HoaSource:
    text: str
    origin: str = "<inline>"


class HoaError(Exception):
    def __init__(self, msg: str, line: int = 0):
        super().__init__(f"line {line}: {msg}" if line else msg)
        self.msg = msg
        self.line = line


class _GuardParser:
    def __init__(self, text: str, line: int, num_ap: int):
        self.tokens = re.findall(r"\d+|[tf!&|()]", text)
        if "".join(self.tokens).replace(" ", "") != text.replace(" ", ""):
            raise HoaError(f"malformed label [{text}]", line)
        self.pos = 0
        self.line = line
        self.num_ap = num_ap
        self.src = text

    def parse(self) -> Guard:
        g = self.or_expr()
        if self.pos != len(self.tokens):
            raise HoaError(f"malformed label [{self.src}]", self.line)
        return g

    def or_expr(self) -> Guard:
        args = [self.and_expr()]
        while self.peek() == "|":
            self.pos += 1
            args.append(self.and_expr())
        return args[0] if len(args) == 1 else GOr(tuple(args))

    def and_expr(self) -> Guard:
        args = [self.unary()]
        while self.peek() == "&":
            self.pos += 1
            args.append(self.unary())
        return args[0] if len(args) == 1 else GAnd(tuple(args))

    def unary(self) -> Guard:
        tok = self.peek()
        if tok is None:
            raise HoaError(f"malformed label [{self.src}]", self.line)
        if tok == "!":
            self.pos += 1
            return GNot(self.unary())
        if tok == "(":
            self.pos += 1
            g = self.or_expr()
            if self.peek() != ")":
                raise HoaError(f"unbalanced parentheses in [{self.src}]", self.line)
            self.pos += 1
            return g
        if tok == "t":
            self.pos += 1
            return GTrue()
        if tok == "f":
            self.pos += 1
            return GFalse()
        if tok.isdigit():
            self.pos += 1
            index = int(tok)
            if index >= self.num_ap:
                raise HoaError(f"AP index {index} out of range", self.line)
            return GAp(index)
        raise HoaError(f"malformed label [{self.src}]", self.line)

    def peek(self) -> Optional[str]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None


def _natural(line: str, ln: int) -> int:
    """The value of a ``States:`` or ``Start:`` header line, which must be
    one natural number: a conjunction of start states is not supported."""
    header, value = (x.strip() for x in line.split(":", 1))
    if not re.fullmatch(r"[0-9]+", value):
        raise HoaError(f"{header}: expects a natural number, got '{value}'", ln)
    return int(value)


def parse_hoa(src) -> BuchiAutomaton:
    text = src.text if isinstance(src, HoaSource) else src
    lines = text.splitlines()
    num_states: Optional[int] = None
    start: Optional[int] = None
    ap: Optional[Tuple[str, ...]] = None
    acceptance_ok = False
    body_at = None
    for ln, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        if line == "--BODY--":
            body_at = ln
            break
        if line.startswith("HOA:"):
            if line.split(":", 1)[1].strip() != "v1":
                raise HoaError("unsupported HOA version", ln)
        elif line.startswith("States:"):
            num_states = _natural(line, ln)
        elif line.startswith("Start:"):
            start = _natural(line, ln)
        elif line.startswith("AP:"):
            rest = line.split(":", 1)[1].strip()
            m = re.match(r"(\d+)((?:\s+\"[^\"]*\")*)\s*$", rest)
            if not m:
                raise HoaError("malformed AP line", ln)
            names = re.findall(r"\"([^\"]*)\"", m.group(2))
            if len(names) != int(m.group(1)):
                raise HoaError("AP count does not match names", ln)
            ap = tuple(names)
        elif line.startswith("Acceptance:"):
            spec = " ".join(line.split(":", 1)[1].split())
            if spec not in ("1 Inf(0)", "1 Inf ( 0 )"):
                raise HoaError(f"unsupported acceptance condition '{spec}'; "
                               "only '1 Inf(0)' (Buchi) is supported", ln)
            acceptance_ok = True
        elif line.startswith(("acc-name:", "tool:", "name:", "properties:",
                              "owl-args:")):
            pass
        else:
            raise HoaError(f"unsupported header line '{line}'", ln)
    if body_at is None:
        raise HoaError("missing --BODY--")
    if num_states is None or start is None or ap is None:
        raise HoaError("missing States:, Start: or AP: header")
    if not acceptance_ok:
        raise HoaError("missing Acceptance: header")

    edges: List[List[Edge]] = [[] for _ in range(num_states)]
    accepting = set()
    current: Optional[int] = None
    ended = False
    for ln in range(body_at, len(lines)):
        line = lines[ln].strip()
        if not line:
            continue
        if line == "--END--":
            ended = True
            break
        if line.startswith("State:"):
            rest = line.split(":", 1)[1].strip()
            m = re.match(r"(\d+)\s*(?:\"[^\"]*\")?\s*(\{[\d\s]*\})?\s*$", rest)
            if not m:
                raise HoaError(f"malformed State line '{line}'", ln + 1)
            current = int(m.group(1))
            if current >= num_states:
                raise HoaError(f"state {current} out of range", ln + 1)
            if m.group(2):
                sets = m.group(2).strip("{} ").split()
                if sets and sets != ["0"]:
                    raise HoaError("only acceptance set 0 is supported", ln + 1)
                if sets:
                    accepting.add(current)
            continue
        m = re.match(r"\[(.*)\]\s*(\d+)\s*(\{[\d\s]*\})?\s*$", line)
        if not m:
            raise HoaError(f"malformed edge '{line}'", ln + 1)
        if current is None:
            raise HoaError("edge before any State:", ln + 1)
        if m.group(3) and m.group(3).strip("{} ").split():
            raise HoaError("transition-based acceptance is not supported", ln + 1)
        target = int(m.group(2))
        if target >= num_states:
            raise HoaError(f"dangling state reference {target}", ln + 1)
        guard = _GuardParser(m.group(1), ln + 1, len(ap)).parse()
        edges[current].append(Edge(guard, target))
    if not ended:
        raise HoaError("missing --END--")
    if start >= num_states:
        raise HoaError(f"start state {start} out of range")
    return BuchiAutomaton(num_states=num_states, initial=start, ap=ap,
                          edges=tuple(tuple(e) for e in edges),
                          accepting=frozenset(accepting))


def emit_hoa(a: BuchiAutomaton, name: str = "") -> str:
    out = ["HOA: v1"]
    if name:
        out.append(f'name: "{name}"')
    out.append(f"States: {a.num_states}")
    out.append(f"Start: {a.initial}")
    out.append("AP: {} {}".format(len(a.ap),
                                  " ".join(f'"{p}"' for p in a.ap)).rstrip())
    out.append("acc-name: Buchi")
    out.append("Acceptance: 1 Inf(0)")
    out.append("--BODY--")
    for q in range(a.num_states):
        marker = " {0}" if q in a.accepting else ""
        out.append(f"State: {q}{marker}")
        for e in a.edges[q]:
            out.append(f"[{e.guard}] {e.target}")
    out.append("--END--")
    return "\n".join(out) + "\n"
