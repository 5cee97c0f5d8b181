"""Arithmetic DSL for Hamiltonians H(x1, y1, ..., xn, yn, t).

Expressions are immutable trees built from constants, the variables
``x<i>``/``y<i>``/``t``, the binary operations ``+ - * /``, unary negation,
integer powers ``u^n``, the functions ``sin cos exp sqrt``, and a smooth
plateau cutoff ``step(u, inner, outer)`` (1 for |u| <= inner, 0 for
|u| >= outer, glued with exp(-1/x)).

Differentiation is symbolic, so time-derivatives of any order are exact up
to machine precision; the cutoff's own derivatives are evaluated through
truncated Taylor-series (jet) arithmetic because they have no closed form.

Grammar and precedence (unary binds tighter than ``^``) are documented in
docs/grammar.md.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace

import numpy as np

from .errors import (DomainError, ExprSyntaxError, GradientUnavailable, ParameterOutOfRange,
                     UnknownIdentifier)

MAX_DIFF_ORDER = 8

_VAR_RE = re.compile(r"^(t|[xy][0-9]+)$")


class Expression:
    """Base node. Subclasses are frozen dataclasses; trees compare structurally."""

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return neg(self)

    def __pow__(self, n):
        return intpow(self, n)

    def __str__(self):
        return to_source(self)


@dataclass(frozen=True)
class Const(Expression):
    value: float


@dataclass(frozen=True)
class Var(Expression):
    name: str


@dataclass(frozen=True)
class Add(Expression):
    left: Expression
    right: Expression


@dataclass(frozen=True)
class Sub(Expression):
    left: Expression
    right: Expression


@dataclass(frozen=True)
class Mul(Expression):
    left: Expression
    right: Expression


@dataclass(frozen=True)
class Div(Expression):
    left: Expression
    right: Expression


@dataclass(frozen=True)
class Neg(Expression):
    arg: Expression


@dataclass(frozen=True)
class IntPow(Expression):
    base: Expression
    exponent: int


@dataclass(frozen=True)
class Call(Expression):
    func: str
    arg: Expression


@dataclass(frozen=True)
class Step(Expression):
    """deriv-th derivative of the plateau cutoff, applied to ``arg``."""

    arg: Expression
    inner: float
    outer: float
    deriv: int = 0


# --- smart constructors (light constant folding only, no CAS ambitions) ---

def _as_expr(v):
    if isinstance(v, Expression):
        return v
    if isinstance(v, (int, float)):
        return Const(float(v))
    raise TypeError(f"cannot coerce {v!r} to Expression")


def const(v):
    return Const(float(v))


def add(a, b):
    a, b = _as_expr(a), _as_expr(b)
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value + b.value)
    if isinstance(a, Const) and a.value == 0.0:
        return b
    if isinstance(b, Const) and b.value == 0.0:
        return a
    return Add(a, b)


def sub(a, b):
    a, b = _as_expr(a), _as_expr(b)
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value - b.value)
    if isinstance(b, Const) and b.value == 0.0:
        return a
    if isinstance(a, Const) and a.value == 0.0:
        return neg(b)
    return Sub(a, b)


def mul(a, b):
    a, b = _as_expr(a), _as_expr(b)
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value * b.value)
    if isinstance(a, Const):
        if a.value == 0.0:
            return Const(0.0)
        if a.value == 1.0:
            return b
    if isinstance(b, Const):
        if b.value == 0.0:
            return Const(0.0)
        if b.value == 1.0:
            return a
    return Mul(a, b)


def div(a, b):
    a, b = _as_expr(a), _as_expr(b)
    if isinstance(b, Const):
        if b.value == 0.0:
            raise DomainError("division by constant zero")
        if isinstance(a, Const):
            return Const(a.value / b.value)
        if b.value == 1.0:
            return a
    if isinstance(a, Const) and a.value == 0.0:
        return Const(0.0)
    return Div(a, b)


def neg(a):
    if isinstance(a, Const):
        return Const(-a.value)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


def intpow(base, n):
    n = int(n)
    if n == 0:
        return Const(1.0)
    if n == 1:
        return base
    if isinstance(base, Const):
        if base.value == 0.0 and n < 0:
            raise DomainError("0 raised to a negative power")
        return Const(base.value ** n)
    return IntPow(base, n)


def _sqrt(u):
    if np.any(np.asarray(u) < 0):
        raise DomainError("sqrt of a negative value")
    return np.sqrt(u)


# the DSL's functions: name -> (numpy kernel, derivative f'(u) given the node e = f(u))
_FUNCTIONS = {
    "sin": (np.sin, lambda e: Call("cos", e.arg)),
    "cos": (np.cos, lambda e: neg(Call("sin", e.arg))),
    "exp": (np.exp, lambda e: e),
    "sqrt": (_sqrt, lambda e: div(Const(0.5), Call("sqrt", e.arg))),
}


def call(func, arg):
    if func not in _FUNCTIONS:
        raise UnknownIdentifier(f"unknown function {func!r}")
    return Call(func, arg)


def step(arg, inner, outer, deriv=0):
    inner = float(inner)
    outer = float(outer)
    if not (0.0 < inner < outer):
        raise DomainError(f"step needs 0 < inner < outer, got {inner}, {outer}")
    return Step(arg, inner, outer, deriv)


# --- parsing ---

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),]))"
)


def _tokenize(source):
    tokens = []
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None or m.end() == pos:
            stripped = source[pos:].lstrip()
            if not stripped:
                break
            raise ExprSyntaxError(f"unexpected character {stripped[0]!r}", len(source) - len(stripped))
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    tokens.append(("end", "", len(source)))
    return tokens


class _Parser:
    def __init__(self, source):
        self.source = source
        self.tokens = _tokenize(source)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, text):
        kind, value, offset = self.peek()
        if value != text:
            raise ExprSyntaxError(f"expected {text!r}", offset)
        return self.next()

    def parse(self):
        e = self.expr()
        kind, value, offset = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"unexpected trailing {value!r}", offset)
        return e

    def expr(self):
        e = self.term()
        while self.peek()[1] in ("+", "-"):
            op = self.next()[1]
            rhs = self.term()
            e = add(e, rhs) if op == "+" else sub(e, rhs)
        return e

    def term(self):
        e = self.power()
        while self.peek()[1] in ("*", "/"):
            op = self.next()[1]
            rhs = self.power()
            e = mul(e, rhs) if op == "*" else div(e, rhs)
        return e

    def power(self):
        base = self.unary()
        if self.peek()[1] == "^":
            self.next()
            sign = 1
            if self.peek()[1] == "-":
                self.next()
                sign = -1
            kind, value, offset = self.peek()
            if kind != "num" or "." in value or "e" in value or "E" in value:
                raise ExprSyntaxError("exponent must be an integer literal", offset)
            self.next()
            return intpow(base, sign * int(value))
        return base

    def unary(self):
        if self.peek()[1] == "-":
            self.next()
            return neg(self.unary())
        return self.atom()

    def atom(self):
        kind, value, offset = self.next()
        if kind == "num":
            return Const(float(value))
        if kind == "ident":
            if self.peek()[1] == "(":
                return self.call(value, offset)
            if _VAR_RE.match(value):
                return Var(value)
            raise UnknownIdentifier(f"unknown identifier {value!r} at offset {offset}")
        if value == "(":
            e = self.expr()
            self.expect(")")
            return e
        raise ExprSyntaxError(f"unexpected {value!r}" if value else "unexpected end of input", offset)

    def call(self, name, offset):
        self.expect("(")
        args = [self.expr()]
        while self.peek()[1] == ",":
            self.next()
            args.append(self.expr())
        self.expect(")")
        if name in _FUNCTIONS:
            if len(args) != 1:
                raise ExprSyntaxError(f"{name} takes one argument", offset)
            return Call(name, args[0])
        if name == "step":
            if len(args) != 3:
                raise ExprSyntaxError("step takes (arg, inner, outer)", offset)
            return step(args[0], _const_value(args[1], offset), _const_value(args[2], offset))
        if name == "step_d":
            if len(args) != 4:
                raise ExprSyntaxError("step_d takes (arg, inner, outer, deriv)", offset)
            return step(args[0], _const_value(args[1], offset), _const_value(args[2], offset),
                        int(_const_value(args[3], offset)))
        raise UnknownIdentifier(f"unknown function {name!r} at offset {offset}")


def _const_value(e, offset):
    # the parser folds constant arithmetic, so a numeric argument arrives as one Const
    if isinstance(e, Const):
        return e.value
    raise ExprSyntaxError("cutoff parameters must be numeric constants", offset)


def parse(source):
    """Parse DSL source into an Expression tree."""
    return _Parser(source).parse()


# --- printing; parse(to_source(e)) == e structurally ---

_LEVEL_ADD, _LEVEL_MUL, _LEVEL_POW, _LEVEL_UNARY = 1, 2, 3, 4


def _fmt_number(v):
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def _print(e, min_level):
    text, level = _print_level(e)
    if level < min_level:
        return "(" + text + ")"
    return text


def _print_level(e):
    if isinstance(e, Const):
        if e.value < 0:
            return "-" + _fmt_number(-e.value), _LEVEL_UNARY
        return _fmt_number(e.value), _LEVEL_UNARY + 1
    if isinstance(e, Var):
        return e.name, _LEVEL_UNARY + 1
    if isinstance(e, Add):
        return _print(e.left, _LEVEL_ADD) + " + " + _print(e.right, _LEVEL_ADD + 1), _LEVEL_ADD
    if isinstance(e, Sub):
        return _print(e.left, _LEVEL_ADD) + " - " + _print(e.right, _LEVEL_ADD + 1), _LEVEL_ADD
    if isinstance(e, Mul):
        return _print(e.left, _LEVEL_MUL) + "*" + _print(e.right, _LEVEL_MUL + 1), _LEVEL_MUL
    if isinstance(e, Div):
        return _print(e.left, _LEVEL_MUL) + "/" + _print(e.right, _LEVEL_MUL + 1), _LEVEL_MUL
    if isinstance(e, Neg):
        return "-" + _print(e.arg, _LEVEL_UNARY), _LEVEL_UNARY
    if isinstance(e, IntPow):
        return _print(e.base, _LEVEL_UNARY) + "^" + str(e.exponent), _LEVEL_POW
    if isinstance(e, Call):
        return f"{e.func}({to_source(e.arg)})", _LEVEL_UNARY + 1
    if isinstance(e, Step):
        inner, outer = _fmt_number(e.inner), _fmt_number(e.outer)
        if e.deriv == 0:
            return f"step({to_source(e.arg)}, {inner}, {outer})", _LEVEL_UNARY + 1
        return f"step_d({to_source(e.arg)}, {inner}, {outer}, {e.deriv})", _LEVEL_UNARY + 1
    raise TypeError(f"unknown node {e!r}")


def to_source(e):
    """Render an Expression back to parseable DSL source."""
    return _print_level(e)[0]


# --- differentiation ---

def diff(e, name):
    """Exact symbolic derivative of ``e`` with respect to variable ``name``.

    Each node object of ``e`` is differentiated once, so the derivative
    shares subtrees wherever ``e`` does.
    """
    return _diff(e, name, {})


def _diff(e, name, memo):
    """``diff`` through ``memo``, id(node) -> (node, derivative): held nodes keep their ids."""
    if id(e) not in memo:
        memo[id(e)] = (e, _diff_rule(e, name, lambda c: _diff(c, name, memo)))
    return memo[id(e)][1]


def _diff_rule(e, name, d):
    """The derivative of the node ``e``, with ``d`` differentiating its children."""
    if isinstance(e, Const):
        return Const(0.0)
    if isinstance(e, Var):
        return Const(1.0 if e.name == name else 0.0)
    if isinstance(e, (Add, Sub, Neg)):
        return _rebuild(e, d)
    if isinstance(e, Mul):
        return add(mul(d(e.left), e.right), mul(e.left, d(e.right)))
    if isinstance(e, Div):
        num = sub(mul(d(e.left), e.right), mul(e.left, d(e.right)))
        return div(num, intpow(e.right, 2))
    if isinstance(e, IntPow):
        inner = d(e.base)
        return mul(mul(Const(float(e.exponent)), intpow(e.base, e.exponent - 1)), inner)
    if isinstance(e, Call):
        return mul(_FUNCTIONS[e.func][1](e), d(e.arg))
    if isinstance(e, Step):
        return mul(Step(e.arg, e.inner, e.outer, e.deriv + 1), d(e.arg))
    raise GradientUnavailable(f"no derivative rule for node {type(e).__name__}")


def time_derivatives(e, k):
    """[e, de/dt, ..., d^k e/dt^k], each entry differentiated from the one before.

    One memo serves the whole chain, so a node that entries share is differentiated
    once. ``k`` runs from 0 to ``MAX_DIFF_ORDER``: the distinct nodes of an entry still
    about double per order on a cutoff whose argument moves with t (2,378 for the
    shell family at order 8), and so does the time to evaluate them.
    """
    if not 0 <= k <= MAX_DIFF_ORDER:
        raise ParameterOutOfRange("k", f"k must be in [0, {MAX_DIFF_ORDER}]")
    memo = {}
    out = [e]
    for _ in range(k):
        out.append(_diff(out[-1], "t", memo))
    return out


# --- cutoff evaluation via truncated Taylor jets ---

def _series_mul(a, b):
    n = len(a)
    return [sum(a[j] * b[k - j] for j in range(k + 1)) for k in range(n)]


def _series_recip(a):
    n = len(a)
    r = [1.0 / a[0]]
    for k in range(1, n):
        acc = 0.0
        for j in range(1, k + 1):
            acc = acc + a[j] * r[k - j]
        r.append(-acc * r[0])
    return r


def _series_exp(a):
    n = len(a)
    e = [np.exp(a[0])]
    for k in range(1, n):
        acc = 0.0
        for j in range(1, k + 1):
            acc = acc + j * a[j] * e[k - j]
        e.append(acc / k)
    return e


def step_values(s, inner, outer, deriv=0):
    """Evaluate the deriv-th derivative of the plateau cutoff at points ``s``."""
    s = np.asarray(s, dtype=float)
    scalar = s.ndim == 0
    s = np.atleast_1d(s)
    out = np.zeros_like(s)
    a = np.abs(s)
    edge = 1e-12 * (outer - inner)
    if deriv == 0:
        out[a <= inner + edge] = 1.0
    trans = (a > inner + edge) & (a < outer - edge)
    if np.any(trans):
        st = s[trans]
        sign = np.where(st >= 0, 1.0, -1.0)
        u = np.abs(st)
        n = deriv + 1
        zeros = [np.zeros_like(u) for _ in range(max(0, n - 2))]
        # jets of (outer - |s|) and (|s| - inner) in the transition region
        ja = [outer - u] + ([-sign] if n > 1 else []) + zeros
        jb = [u - inner] + ([sign] if n > 1 else []) + zeros
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            ga = _series_exp([-c for c in _series_recip(ja)])
            gb = _series_exp([-c for c in _series_recip(jb)])
            den = [x + y for x, y in zip(ga, gb)]
            delta = _series_mul(ga, _series_recip(den))
            vals = np.asarray(delta[deriv] * math.factorial(deriv))
        # both glue branches can underflow to 0 when the transition is much
        # narrower than 1/700; snap those points to the nearer plateau
        bad = ~np.isfinite(vals)
        if bad.any():
            if deriv == 0:
                vals = np.where(bad, np.where(u - inner < outer - u, 1.0, 0.0), vals)
            else:
                vals = np.where(bad, 0.0, vals)
        out[trans] = vals
    return out[0] if scalar else out


# --- evaluation ---

def _children(e):
    """Sub-expressions of a node by field name; empty for Const and Var."""
    return {name: v for name, v in vars(e).items() if isinstance(v, Expression)}


def _rebuild(e, fn):
    """``e`` with ``fn`` applied to each child, rebuilt through its folding constructor.

    Call and Step nodes, which fold nothing, are rebuilt by their class.
    """
    children = _children(e)
    if not children:
        return e
    fields = {**vars(e), **{k: fn(c) for k, c in children.items()}}
    fold = {Add: add, Sub: sub, Mul: mul, Div: div, Neg: neg, IntPow: intpow}
    return fold.get(type(e), type(e))(*fields.values())


def variables(e):
    """Set of variable names appearing in ``e``."""
    if isinstance(e, Var):
        return {e.name}
    return set().union(*map(variables, _children(e).values()))


def spatial_dimension(e):
    """Smallest 2n covering every x<i>/y<i> in the expression."""
    n = 0
    for name in variables(e):
        if name != "t":
            n = max(n, int(name[1:]))
    return 2 * n


def eval_env(e, env):
    """Evaluate with ``env`` mapping variable names to floats or arrays."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        try:
            return env[e.name]
        except KeyError:
            raise UnknownIdentifier(f"variable {e.name!r} not supplied") from None
    if isinstance(e, Add):
        return eval_env(e.left, env) + eval_env(e.right, env)
    if isinstance(e, Sub):
        return eval_env(e.left, env) - eval_env(e.right, env)
    if isinstance(e, Mul):
        return eval_env(e.left, env) * eval_env(e.right, env)
    if isinstance(e, Div):
        denom = eval_env(e.right, env)
        # ``div`` refuses a constant zero, so only a computed denominator is tested
        if not isinstance(e.right, Const) and np.any(denom == 0):
            raise DomainError("division by zero")
        return eval_env(e.left, env) / denom
    if isinstance(e, Neg):
        return -eval_env(e.arg, env)
    if isinstance(e, IntPow):
        base = eval_env(e.base, env)
        if e.exponent < 0 and np.any(base == 0):
            raise DomainError("zero base with negative exponent")
        return base ** e.exponent
    if isinstance(e, Call):
        return _FUNCTIONS[e.func][0](eval_env(e.arg, env))
    if isinstance(e, Step):
        return step_values(eval_env(e.arg, env), e.inner, e.outer, e.deriv)
    raise TypeError(f"unknown node {e!r}")


def coordinates(dimension):
    """The coordinate names of R^dimension in point order: x1, y1, ..., xn, yn."""
    return [f"{'xy'[j % 2]}{j // 2 + 1}" for j in range(dimension)]


def point_env(points, t):
    """Build an env from an (N, 2n) array of points ordered (x1, y1, ..., xn, yn)."""
    points = np.asarray(points, dtype=float)
    if points.ndim == 1:
        points = points.reshape(1, -1)
    dim = points.shape[1]
    if dim % 2 != 0:
        raise ValueError("point arity must be even (x/y pairs)")
    env = {"t": float(t)}
    for j, name in enumerate(coordinates(dim)):
        env[name] = points[:, j]
    return env


def eval_array(e, env, n):
    """Values of ``e`` under ``env`` as a float array of length ``n``.

    An expression that uses none of the env's arrays evaluates to a scalar,
    which is repeated ``n`` times.
    """
    vals = eval_env(e, env)
    if np.ndim(vals) == 0:
        return np.full(n, float(vals))
    return np.asarray(vals, dtype=float)


# --- shared subtrees ---

_T, _X = 1, 2   # what a subtree depends on: t, x/y, both (_T | _X) or neither (0)


def share_subtrees(expressions):
    """(assignments, rewritten): ``expressions`` with their shared subtrees named.

    A non-leaf subtree becomes a placeholder variable when its node object
    occurs more than once (an occurrence inside a repeated subtree counts
    once), or when it depends on t alone or not on t and is an expression
    itself or the child of a node mixing t with x/y. Nodes are keyed by
    identity, so no tree is hashed. ``assignments`` lists ``(placeholder,
    tree, dependence)`` in evaluation order, each tree naming only earlier
    placeholders, dependence being ``_T``, ``_X``, both or neither. Binding
    each ``eval_env(tree, env)`` into ``env`` in turn and then evaluating
    ``rewritten`` gives the values of ``expressions``.
    """
    uses, deps, kids = {}, {}, {}

    def count(e):
        key = id(e)
        if key in uses:
            uses[key] += 1
            return deps[key]
        uses[key] = 1
        kids[key] = _children(e)
        dep = (_T if e.name == "t" else _X) if isinstance(e, Var) else 0
        for c in kids[key].values():
            dep |= count(c)
        deps[key] = dep
        return dep

    for e in expressions:
        count(e)
    names = {}
    assignments = []

    def rewrite(e, hoist):
        key = id(e)
        if key in names:
            return names[key]
        children = kids[key]
        if not children:
            return e
        mixed = deps[key] == _T | _X
        out = replace(e, **{k: rewrite(c, mixed) for k, c in children.items()})
        if uses[key] > 1 or (hoist and not mixed):
            names[key] = Var(f"_{len(assignments)}")
            assignments.append((names[key].name, out, deps[key]))
            return names[key]
        return out

    return assignments, [rewrite(e, True) for e in expressions]


# --- time-blocked evaluation of derivative chains ---

# (time node, point) values per block in eval_over_time: 256 KiB of float64
TABLE_BLOCK = 2 ** 15


def eval_over_time(expressions, points, times):
    """Values of each expression at the (N, 2n) ``points`` for every time in ``times``.

    Yields ``(rows, i, values)``: ``values`` is a read-only (len(times[rows]), N)
    array whose rows equal ``eval_array`` of expression i at those times.

    The expressions are planned by ``share_subtrees``. Its t-free subtrees
    (the spatial cutoffs) are evaluated once. Its subtrees of t alone are
    evaluated node by node with a scalar t, as in a per-node loop, so their
    values do not depend on how numpy's array functions round. The rest is
    evaluated with t bound to a column of at most max(1, TABLE_BLOCK // N)
    time nodes, each shared subtree once per block, so a block array holds
    at most max(TABLE_BLOCK, N) values.
    """
    assignments, chain = share_subtrees(expressions)
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n = len(points)
    env = point_env(points, 0.0)
    times = np.asarray(times, dtype=float)
    for name, e, uses in assignments:
        if not uses & _T:
            env[name] = eval_env(e, env)
    t_only = [(name, e) for name, e, uses in assignments if uses == _T]
    mixed = [(name, e) for name, e, uses in assignments if uses == _T | _X]
    consts = {name: env[name] for name, _, uses in assignments if not uses}
    columns = np.empty((len(times), len(t_only)))
    for row, t in zip(columns, times.tolist()):
        scalars = dict(consts, t=t)
        for j, (name, e) in enumerate(t_only):
            scalars[name] = eval_env(e, scalars)
            row[j] = scalars[name]
    block = max(1, TABLE_BLOCK // n)
    for start in range(0, len(times), block):
        rows = slice(start, start + block)
        env["t"] = times[rows, None]
        for j, (name, _) in enumerate(t_only):
            env[name] = columns[rows, j:j + 1]
        for name, e in mixed:
            env[name] = eval_env(e, env)
        for i, e in enumerate(chain):
            yield rows, i, np.broadcast_to(eval_env(e, env), (len(env["t"]), n))


# --- substitution ---

def substitute(e, mapping):
    """Replace variables by expressions; ``mapping`` maps names to Expressions."""
    if isinstance(e, Var):
        return mapping.get(e.name, e)
    return _rebuild(e, lambda c: substitute(c, mapping))


def substitute_time(e, t_expr):
    """e with t replaced by ``t_expr`` (itself an expression in t)."""
    return substitute(e, {"t": t_expr})
