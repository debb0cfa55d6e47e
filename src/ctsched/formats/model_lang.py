"""Parser and serializer for the `.ctmdp` model language.

The language is a small PRISM-inspired subset:

    ctmdp
    const double r = 9;
    module name
      z : [0..3] init 0;
      [b] z=0 -> r : (z'=2) + 1 : (z'=1);
    endmodule
    label "p" = z=1;

One module, bounded integer variables, commands guarded by boolean
expressions, `#` and `//` comments.  The state space is the set of valuations
reachable from the initial one.  Two commands with the same action enabled in
the same state race: their rates add up.

The text is scanned into tokens by one regular expression, ``_TOKEN``, with
one alternative per token kind; each token's line and column are counted
from the start of its line.

The parser compiles each guard, rate, update and label, as it reads it, into
one closure over an environment: a dict holding the constants and the
variables of one state.  Identifiers are looked up when the closure runs, so
a constant may be declared after the module, and an expression that is never
evaluated is never checked.  `parse_model` builds one environment per
reachable state and evaluates every closure of that state against it.
"""
from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..model import Ctmdp, validate


@dataclass(frozen=True)
class ModelSource:
    text: str
    origin: str = "<inline>"


class ModelError(Exception):
    def __init__(self, msg: str, line: int = 0, col: int = 0):
        super().__init__(f"{line}:{col}: {msg}" if line else msg)
        self.msg = msg
        self.line = line
        self.col = col


class ModelSyntaxError(ModelError):
    pass


class ModelSemanticError(ModelError):
    pass


# ---------------------------------------------------------------------------
# Tokenizer

# One alternative per token kind, tried in this order at each position.  A
# number has at most one decimal point, never takes the first '.' of the
# range operator '..', and takes an exponent only when digits follow it.
_TOKEN = re.compile(r"""
    (?P<newline>\n)
  | (?P<skip>[ \t\r]+ | \#[^\n]* | //[^\n]*)
  | "(?P<string>[^"]*)"
  | (?P<number>(?:\d+(?:\.(?!\.)\d*)? | \.\d+) (?:[eE][+-]?\d+)?)
  | (?P<name>[^\W\d]\w*)
  | (?P<sym>\.\. | -> | <= | >= | != | [=<>!&|()\[\]:;+\-*/',])
  | (?P<bad>.)
""", re.VERBOSE)


@dataclass
class Token:
    kind: str  # 'name' | 'number' | 'string' | 'sym' | 'eof'
    value: str
    line: int
    col: int


def _tokenize(text: str) -> List[Token]:
    tokens: List[Token] = []
    line, start = 1, 0  # start: the offset where the current line begins
    for m in _TOKEN.finditer(text):
        kind, col = m.lastgroup, m.start() - start + 1
        if kind == "newline":
            line, start = line + 1, m.end()
        elif kind == "bad":
            c = m.group()
            raise ModelSyntaxError("unterminated string" if c == '"'
                                   else f"unexpected character {c!r}", line, col)
        elif kind != "skip":
            tokens.append(Token(kind, m.group(kind), line, col))
    tokens.append(Token("eof", "", line, len(text) - start + 1))
    return tokens


# ---------------------------------------------------------------------------
# Compiled expressions: closures over an environment of constants and one
# state's variables

Env = Dict[str, float]
Closure = Callable[[Env], float]

_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul}
_CMP = {"=": operator.eq, "!=": operator.ne, "<": operator.lt,
        "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def _binary(op, left: Closure, right: Closure) -> Closure:
    return lambda env: op(left(env), right(env))


def _divide(tok: Token, left: Closure, right: Closure) -> Closure:
    def f(env):
        num, den = left(env), right(env)
        try:
            return num / den
        except ZeroDivisionError:
            raise ModelSemanticError("division by zero",
                                     tok.line, tok.col) from None
    return f


def _lookup(tok: Token) -> Closure:
    name = tok.value

    def f(env):
        try:
            return env[name]
        except KeyError:
            raise ModelSemanticError(f"unknown identifier '{name}'",
                                     tok.line, tok.col) from None
    return f


def _and(left: Closure, right: Closure) -> Closure:
    return lambda env: left(env) and right(env)


def _or(left: Closure, right: Closure) -> Closure:
    return lambda env: left(env) or right(env)


# ---------------------------------------------------------------------------
# Parser


@dataclass
class _VarDecl:
    name: str
    lo: int
    hi: int
    init: int
    line: int
    col: int


@dataclass
class _Command:
    action: str
    guard: Closure
    # (rate, assignments) per alternative; an empty list is the update `true`
    alts: List[Tuple[Closure, List[Tuple[str, Closure]]]]
    line: int
    col: int


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.module: Optional[Token] = None  # the `module` keyword

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, value: Optional[str] = None) -> Token:
        tok = self.peek()
        if tok.kind != kind or (value is not None and tok.value != value):
            want = value if value is not None else kind
            raise ModelSyntaxError(f"expected '{want}', found '{tok.value or tok.kind}'",
                                   tok.line, tok.col)
        return self.next()

    def accept(self, kind: str, value: Optional[str] = None) -> Optional[Token]:
        tok = self.peek()
        if tok.kind == kind and (value is None or tok.value == value):
            return self.next()
        return None

    # expressions ----------------------------------------------------------

    def num_expr(self) -> Closure:
        f = self.num_term()
        while True:
            tok = self.accept("sym", "+") or self.accept("sym", "-")
            if not tok:
                return f
            f = _binary(_ARITH[tok.value], f, self.num_term())

    def num_term(self) -> Closure:
        f = self.num_factor()
        while True:
            tok = self.accept("sym", "*") or self.accept("sym", "/")
            if not tok:
                return f
            if tok.value == "/":
                f = _divide(tok, f, self.num_factor())
            else:
                f = _binary(_ARITH[tok.value], f, self.num_factor())

    def num_factor(self) -> Closure:
        if self.accept("sym", "-"):
            arg = self.num_factor()
            return lambda env: -arg(env)
        if self.accept("sym", "("):
            f = self.num_expr()
            self.expect("sym", ")")
            return f
        tok = self.peek()
        if tok.kind == "number":
            self.next()
            value = float(tok.value)
            return lambda env: value
        if tok.kind == "name":
            self.next()
            return _lookup(tok)
        raise ModelSyntaxError(f"expected expression, found '{tok.value or tok.kind}'",
                               tok.line, tok.col)

    def bool_expr(self) -> Closure:
        f = self.bool_term()
        while self.accept("sym", "|"):
            f = _or(f, self.bool_term())
        return f

    def bool_term(self) -> Closure:
        f = self.bool_unary()
        while self.accept("sym", "&"):
            f = _and(f, self.bool_unary())
        return f

    def bool_unary(self) -> Closure:
        if self.accept("sym", "!"):
            arg = self.bool_unary()
            return lambda env: not arg(env)
        tok = self.peek()
        if tok.kind == "name" and tok.value in ("true", "false"):
            self.next()
            value = tok.value == "true"
            return lambda env: value
        if tok.kind == "sym" and tok.value == "(":
            # could be a parenthesized boolean or the left side of a comparison
            mark = self.pos
            self.next()
            try:
                f = self.bool_expr()
                if self.accept("sym", ")"):
                    if self.peek().value in _CMP:
                        self.pos = mark
                    else:
                        return f
                else:
                    self.pos = mark
            except ModelError:
                self.pos = mark
        return self.comparison()

    def comparison(self) -> Closure:
        left = self.num_expr()
        tok = self.peek()
        if tok.kind == "sym" and tok.value in _CMP:
            self.next()
            return _binary(_CMP[tok.value], left, self.num_expr())
        raise ModelSyntaxError("expected comparison operator", tok.line, tok.col)

    # declarations ---------------------------------------------------------

    def parse(self) -> Tuple[List[_VarDecl], List[_Command],
                             List[Tuple[Token, Closure]], Env]:
        self.expect("name", "ctmdp")
        consts: Env = {}
        variables: List[_VarDecl] = []
        commands: List[_Command] = []
        labels: List[Tuple[Token, Closure]] = []
        while self.peek().kind != "eof":
            tok = self.peek()
            if tok.kind == "name" and tok.value == "const":
                self.next()
                if self.peek().value in ("int", "double"):
                    self.next()
                name = self.expect("name")
                if name.value in consts:
                    raise ModelSemanticError(
                        f"duplicate identifier '{name.value}'",
                        name.line, name.col)
                self.expect("sym", "=")
                value = self.num_expr()(consts)
                self.expect("sym", ";")
                consts[name.value] = value
            elif tok.kind == "name" and tok.value == "module":
                if self.module is not None:
                    raise ModelSyntaxError("only one module is supported",
                                           tok.line, tok.col)
                self.module = self.next()
                self.expect("name")
                variables, commands = self.parse_module(consts)
            elif tok.kind == "name" and tok.value == "label":
                self.next()
                name = self.expect("string")
                self.expect("sym", "=")
                labels.append((name, self.bool_expr()))
                self.expect("sym", ";")
            else:
                raise ModelSyntaxError(f"unexpected token '{tok.value}'",
                                       tok.line, tok.col)
        if self.module is None:
            raise ModelSyntaxError("no module block")
        return variables, commands, labels, consts

    def parse_module(self, consts: Env) -> Tuple[List[_VarDecl], List[_Command]]:
        variables: List[_VarDecl] = []
        commands: List[_Command] = []
        while not self.accept("name", "endmodule"):
            tok = self.peek()
            if tok.kind == "eof":
                raise ModelSyntaxError("unterminated module", tok.line, tok.col)
            if tok.kind == "name" and self.tokens[self.pos + 1].value == ":":
                variables.append(self.parse_vardecl(consts))
            elif tok.kind == "sym" and tok.value == "[":
                commands.append(self.parse_command())
            else:
                raise ModelSyntaxError(f"unexpected token '{tok.value}' in module",
                                       tok.line, tok.col)
        if not commands:
            raise ModelSemanticError("no commands in module",
                                     self.module.line, self.module.col)
        return variables, commands

    def parse_vardecl(self, consts: Env) -> _VarDecl:
        name = self.expect("name")
        self.expect("sym", ":")
        self.expect("sym", "[")
        lo = self.parse_bound(name, consts)
        self.expect("sym", "..")
        hi = self.parse_bound(name, consts)
        self.expect("sym", "]")
        init = lo
        if self.accept("name", "init"):
            init = self.parse_bound(name, consts)
        self.expect("sym", ";")
        if lo > hi or not (lo <= init <= hi):
            raise ModelSemanticError(f"bad range for variable '{name.value}'",
                                     name.line, name.col)
        return _VarDecl(name.value, lo, hi, init, name.line, name.col)

    def parse_bound(self, var: Token, consts: Env) -> int:
        tok = self.peek()
        value = self.num_expr()(consts)
        if not math.isfinite(value):
            raise ModelSemanticError(
                f"non-finite bound {value} for variable '{var.value}'",
                tok.line, tok.col)
        return int(value)

    def parse_command(self) -> _Command:
        start = self.expect("sym", "[")
        action = self.expect("name").value
        self.expect("sym", "]")
        guard = self.bool_expr()
        self.expect("sym", "->")
        alts = [self.parse_alt()]
        while self.accept("sym", "+"):
            alts.append(self.parse_alt())
        self.expect("sym", ";")
        return _Command(action, guard, alts, start.line, start.col)

    def parse_alt(self) -> Tuple[Closure, List[Tuple[str, Closure]]]:
        rate = self.num_expr()
        self.expect("sym", ":")
        if self.accept("name", "true"):
            return rate, []
        assignments = [self.parse_assignment()]
        while self.accept("sym", "&"):
            assignments.append(self.parse_assignment())
        return rate, assignments

    def parse_assignment(self) -> Tuple[str, Closure]:
        self.expect("sym", "(")
        name = self.expect("name")
        self.expect("sym", "'")
        self.expect("sym", "=")
        value = self.num_expr()
        self.expect("sym", ")")
        return name.value, value


# ---------------------------------------------------------------------------
# State-space construction


def parse_model(src) -> Ctmdp:
    """Parse a `.ctmdp` document into a validated model."""
    text = src.text if isinstance(src, ModelSource) else src
    parser = _Parser(text)
    variables, commands, labels, consts = parser.parse()
    if not variables:
        raise ModelSemanticError("module declares no variables",
                                 parser.module.line, parser.module.col)
    seen = set(consts)
    for v in variables:
        if v.name in seen:
            raise ModelSemanticError(f"duplicate identifier '{v.name}'",
                                     v.line, v.col)
        seen.add(v.name)
    label_names = [name.value for name, _ in labels]
    dup = next((n for n in label_names if label_names.count(n) > 1), None)
    if dup is not None:
        second = [name for name, _ in labels if name.value == dup][1]
        raise ModelSemanticError(f"duplicate label \"{dup}\"",
                                 second.line, second.col)

    var_names = [v.name for v in variables]
    slots = {v.name: (i, v.lo, v.hi) for i, v in enumerate(variables)}

    def env_of(valuation) -> Env:
        env = dict(consts)
        env.update(zip(var_names, valuation))
        return env

    def apply_update(valuation, env: Env, assignments, cmd: _Command):
        new = list(valuation)
        for name, expr in assignments:
            if name not in slots:
                raise ModelSemanticError(
                    f"assignment to unknown variable '{name}'", cmd.line, cmd.col)
            value = expr(env)
            i, lo, hi = slots[name]
            ivalue = round(value) if math.isfinite(value) else None
            if (ivalue is None or abs(value - ivalue) > 1e-9
                    or not (lo <= ivalue <= hi)):
                raise ModelSemanticError(
                    f"update drives '{name}' to {value}, outside [{lo}..{hi}]",
                    cmd.line, cmd.col)
            new[i] = ivalue
        return tuple(new)

    # Depth-first search from a stack: the state pushed last is expanded
    # first.  States are numbered when first reached, so every state id, and
    # with it the order of `transitions`, depends on this order.
    order = [tuple(v.init for v in variables)]
    state_ids: Dict[Tuple[int, ...], int] = {order[0]: 0}
    envs = [env_of(order[0])]  # envs[s] is the environment of state s
    action_ids: Dict[str, int] = {}
    transitions: List[Tuple[int, int, int, float]] = []
    stack = [0]
    while stack:
        s = stack.pop()
        valuation, env = order[s], envs[s]
        for cmd in commands:
            if not cmd.guard(env):
                continue
            a = action_ids.setdefault(cmd.action, len(action_ids))
            for rate_expr, assignments in cmd.alts:
                rate = rate_expr(env)
                if rate < 0:
                    raise ModelSemanticError(
                        f"negative rate in command [{cmd.action}]",
                        cmd.line, cmd.col)
                if rate == 0:
                    continue
                target = apply_update(valuation, env, assignments, cmd)
                t = state_ids.get(target)
                if t is None:
                    t = state_ids[target] = len(order)
                    order.append(target)
                    envs.append(env_of(target))
                    stack.append(t)
                transitions.append((s, a, t, rate))

    state_names = tuple(",".join(f"{n}={v}" for n, v in zip(var_names, val))
                        for val in order)
    action_names = tuple(sorted(action_ids, key=action_ids.get))
    state_labels = [frozenset(i for i, (_, expr) in enumerate(labels)
                              if expr(env)) for env in envs]
    m = Ctmdp.from_transitions(state_names, action_names, 0, transitions,
                               ap=tuple(label_names), labels=state_labels)
    problems = validate(m)
    if problems:
        raise ModelSemanticError("; ".join(problems))
    return m


def _fmt_rate(x: float) -> str:
    return repr(x) if x != int(x) else str(int(x))


def serialize_model(m: Ctmdp, name: str = "model") -> str:
    """Emit a `.ctmdp` document with one variable ``s`` over the state ids.

    `parse_model` reads it back only if every action name is an identifier;
    a product's action names, such as ``a>q0``, are not, so a product dump
    does not re-parse."""
    lines = ["ctmdp", f"module {name}"]
    n = m.num_states
    lines.append(f"  s : [0..{n - 1}] init {m.initial};")
    for s in range(n):
        for a in m.enabled(s):
            succ, rates = m.successors(s, a)
            alts = " + ".join(f"{_fmt_rate(float(r))} : (s'={int(t)})"
                              for t, r in zip(succ, rates))
            lines.append(f"  [{m.action_names[a]}] s={s} -> {alts};")
    lines.append("endmodule")
    for i, ap in enumerate(m.ap):
        holds = [s for s in range(n) if i in m.labels[s]]
        pred = " | ".join(f"s={s}" for s in holds) if holds else "false"
        lines.append(f'label "{ap}" = {pred};')
    return "\n".join(lines) + "\n"
