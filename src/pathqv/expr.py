"""Field, drift and f-sequence expressions: parsing, evaluation and symbolic
derivatives.

Grammar (usual precedence, ^ binds tightest and is right-associative):

    expr  :=  term  (('+' | '-') term)*
    term  :=  unary (('*' | '/') unary)*
    unary :=  '-' unary | power
    power :=  atom ('^' unary)?
    atom  :=  NUMBER | NAME | NAME '(' expr ')' | '(' expr ')'

Python's expression grammar has the same precedence and associativity
over these tokens (its ``factor := '-' factor | power`` and
``power := primary '**' factor`` are unary and power above), so Python
parses them: ``_tokenize`` reads the grammar's tokens and spells each as
Python does (``^`` as ``**``, a number as the repr of its value),
``ast.parse`` reads them joined with spaces (so ``**``, ``1_0`` or
``0x1`` in the input stay refused), and ``_tree`` keeps only the
grammar's node types, each as a tuple node.  Anything else, including a
tree nested deeper than ``MAX_DEPTH``, is a DomainError.

Names resolve to the functions sin, cos, sinh, exp, sqrt, the constants
pi and e, or a declared variable (typically t and xi).  Expressions
evaluate with numpy semantics, on plain floats too (``^`` is np.power, so
a float gets the bits of the same value in an array, a negative base to a
fractional power is NaN, and a zero divisor gives inf or NaN), and can be
differentiated symbolically, which is how user-supplied volatility fields
get exact partial derivatives; powers with non-constant exponents have no
derivative rule here and are rejected when differentiated.
"""

from __future__ import annotations

import ast
import math
import re

import numpy as np

from .errors import DomainError, _finite

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)

_FUNCTIONS = {
    "sin": np.sin,
    "cos": np.cos,
    "sinh": np.sinh,
    "exp": np.exp,
    "sqrt": np.sqrt,
}

_CONSTANTS = {"pi": math.pi, "e": math.e}

#: Deepest tree a parse accepts.  A derivative's tree is at most about
#: three times as deep as its expression's, so evaluating and
#: differentiating an accepted tree stays well below Python's recursion
#: limit, also inside a flow solve.
MAX_DEPTH = 100


#: Longest source a parse error quotes whole; a longer one is cut there.
_QUOTED = 60


def _quote(src):
    """``src`` as a parse error shows it: its repr, cut after the first
    _QUOTED characters, with "..." after the quote, when it is longer."""
    return repr(src) if len(src) <= _QUOTED else f"{src[:_QUOTED]!r}..."


def _tokenize(src):
    """The grammar's tokens of ``src``, each spelt the way Python reads it:
    ``^`` as ``**`` and a number as the repr of its value (1e999 for inf)."""
    words = []
    pos = 0
    while pos < len(src):
        match = _TOKEN.match(src, pos)
        if match is None:
            rest = src[pos:].lstrip()
            if not rest:
                break
            raise DomainError(f"unexpected character {rest[0]!r} in expression {_quote(src)}")
        pos = match.end()
        if match.lastgroup == "num":
            value = float(match.group("num"))
            words.append(repr(value) if math.isfinite(value) else "1e999")
        else:
            words.append(match.group("name") or match.group("op").replace("^", "**"))
    return words


def _parse(src, variables):
    """The tuple tree of ``src``: Python parses the tokens joined with
    spaces, and ``_tree`` keeps the grammar's node types."""
    try:
        body = ast.parse(" ".join(_tokenize(src)), mode="eval").body
    except (SyntaxError, RecursionError, MemoryError):
        raise DomainError(f"malformed expression {_quote(src)}") from None
    return _tree(body, src, frozenset(variables), 1)


_BINARY = {ast.Add: "add", ast.Sub: "sub", ast.Mult: "mul", ast.Div: "div", ast.Pow: "pow"}


def _tree(node, src, variables, depth):
    if depth > MAX_DEPTH:
        raise DomainError(f"expression {_quote(src)} is nested deeper than {MAX_DEPTH}")

    def sub(child):
        return _tree(child, src, variables, depth + 1)

    if isinstance(node, ast.Constant) and type(node.value) is float:
        return ("num", node.value)
    if isinstance(node, ast.Name):
        if node.id in _CONSTANTS:
            return ("num", _CONSTANTS[node.id])
        if node.id in variables:
            return ("var", node.id)
        raise DomainError(
            f"unknown name {_quote(node.id)} in {_quote(src)} "
            f"(variables here: {', '.join(sorted(variables))})"
        )
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return ("neg", sub(node.operand))
    if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
        return (_BINARY[type(node.op)], sub(node.left), sub(node.right))
    # a call's name stands right before its "(": "(sin)(xi)" is refused
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.col_offset == node.col_offset):
        if node.func.id not in _FUNCTIONS:
            raise DomainError(f"unknown function {_quote(node.func.id)} in {_quote(src)}")
        if len(node.args) == 1 and not node.keywords:
            return ("call", node.func.id, sub(node.args[0]))
    raise DomainError(f"malformed expression {_quote(src)}")


def _eval(node, env):
    tag = node[0]
    if tag == "num":
        return node[1]
    if tag == "var":
        return env[node[1]]
    if tag == "neg":
        return -_eval(node[1], env)
    if tag == "add":
        return _eval(node[1], env) + _eval(node[2], env)
    if tag == "sub":
        return _eval(node[1], env) - _eval(node[2], env)
    if tag == "mul":
        return _eval(node[1], env) * _eval(node[2], env)
    if tag == "div":
        a, b = _eval(node[1], env), _eval(node[2], env)
        try:
            return a / b
        except ZeroDivisionError:  # Python's floats raise where numpy's give inf or NaN
            return _ieee_quotient(a, b)
    if tag == "pow":
        return np.power(_eval(node[1], env), _eval(node[2], env))
    if tag == "call":
        return _FUNCTIONS[node[1]](_eval(node[2], env))
    raise AssertionError(f"bad node {node!r}")


def _ieee_quotient(a, b):
    """a / b for a zero ``b``, as IEEE 754 defines it: NaN for a zero or NaN
    ``a``, else an infinity signed by both operands' signs.  The finiteness
    checks on an expression's values then refuse it."""
    if a == 0.0 or math.isnan(a):
        return math.nan
    return math.copysign(math.inf, a) * math.copysign(1.0, b)


# folding constructors keep derivative trees small
def _num(v):
    return ("num", float(v))


def _neg(a):
    return _num(0.0) if a == _num(0.0) else ("neg", a)


def _add(a, b):
    if a == ("num", 0.0):
        return b
    if b == ("num", 0.0):
        return a
    return ("add", a, b)


def _sub(a, b):
    if b == ("num", 0.0):
        return a
    if a == ("num", 0.0):
        return _neg(b)
    return ("sub", a, b)


def _mul(a, b):
    if a == ("num", 0.0) or b == ("num", 0.0):
        return _num(0.0)
    if a == ("num", 1.0):
        return b
    if b == ("num", 1.0):
        return a
    return ("mul", a, b)


def _div(a, b):
    if a == ("num", 0.0):
        return _num(0.0)
    return ("div", a, b)


def _diff(node, var):
    tag = node[0]
    if tag == "num":
        return _num(0.0)
    if tag == "var":
        return _num(1.0 if node[1] == var else 0.0)
    if tag == "neg":
        return _neg(_diff(node[1], var))
    if tag == "add":
        return _add(_diff(node[1], var), _diff(node[2], var))
    if tag == "sub":
        return _sub(_diff(node[1], var), _diff(node[2], var))
    if tag == "mul":
        a, b = node[1], node[2]
        return _add(_mul(_diff(a, var), b), _mul(a, _diff(b, var)))
    if tag == "div":
        a, b = node[1], node[2]
        return _div(_sub(_mul(_diff(a, var), b), _mul(a, _diff(b, var))), ("pow", b, _num(2.0)))
    if tag == "pow":
        base, expo = node[1], node[2]
        try:
            c = _exponent(expo)
        except KeyError:  # a variable's lookup in the empty environment
            raise DomainError("cannot differentiate a power with non-constant exponent") from None
        return _mul(_mul(_num(c), ("pow", base, _num(c - 1.0))), _diff(base, var))
    if tag == "call":
        fname, arg = node[1], node[2]
        da = _diff(arg, var)
        if fname == "sin":
            return _mul(("call", "cos", arg), da)
        if fname == "cos":
            return _neg(_mul(("call", "sin", arg), da))
        if fname == "exp":
            return _mul(node, da)
        if fname == "sqrt":
            return _div(da, _mul(_num(2.0), node))
        if fname == "sinh":
            # cosh is not in the grammar; use (exp(u) + exp(-u)) / 2
            cosh = _div(_add(("call", "exp", arg), ("call", "exp", ("neg", arg))), _num(2.0))
            return _mul(cosh, da)
    raise AssertionError(f"bad node {node!r}")


def _exponent(node):
    """The value of a constant exponent, evaluated through ``_finite`` so
    that numpy's warnings stay off; KeyError if it reads a variable.  A
    NaN exponent, as from (0-1)^0.5, is a DomainError.  An infinite one,
    as from a zero divisor, is kept: the derivative then evaluates to inf
    or NaN, which its callers refuse."""
    value = []

    def finite_unless_nan():
        value.append(_eval(node, {}))
        return 0.0 if np.isinf(value[0]) else value[0]

    _finite(DomainError, "a constant exponent is not a number", finite_unless_nan)
    return value[0]


class Expression:
    """A parsed expression over a fixed variable tuple.

    Calls evaluate with numpy semantics and return whatever that gives, not
    padded to the arguments' shape: "2" returns 2.0 for array arguments.
    That meets the field and drift contract (see ``VolatilityField``).
    """

    def __init__(self, src, variables=("t", "xi"), _ast=None):
        self.src = src
        self.variables = tuple(variables)
        self.ast = _ast if _ast is not None else _parse(src, self.variables)

    def __call__(self, *args):
        if len(args) != len(self.variables):
            raise DomainError(
                f"expression over {self.variables} called with {len(args)} arguments"
            )
        return _eval(self.ast, dict(zip(self.variables, args)))

    def diff(self, var):
        if var not in self.variables:
            raise DomainError(f"{var!r} is not a variable of this expression")
        return Expression(f"d/d{var}({self.src})", self.variables, _ast=_diff(self.ast, var))


def evaluate_constant(src):
    """Evaluate a closed expression (no variables), e.g. "10*e" for alpha;
    DomainError if the value is not finite."""
    return float(_finite(DomainError, f"constant {src!r} is not finite",
                         Expression(src, variables=())))


def field_from_expression(src):
    """Build a volatility field sigma(t, xi) from an expression string;
    "sqrt1p" names the built-in ``flow.sqrt1p_field()``, whose flow has a
    closed form.

    The partial derivatives come from symbolic differentiation of the
    parsed tree (so they satisfy the field's finite-difference check by
    construction), and both are sampled on the box [0, 1] x [-8, 8];
    DomainError if a derivative is not finite there.  The field is
    declared ``time_free`` (so that the flow skips d/dtau) only when the
    t-derivative folds to the constant 0, not when it merely samples as 0.
    """
    from .flow import VolatilityField, sqrt1p_field

    if src == "sqrt1p":
        return sqrt1p_field()
    sigma = Expression(src, ("t", "xi"))
    d_t = sigma.diff("t")
    d_xi = sigma.diff("xi")
    tt, xx = np.meshgrid(np.linspace(0.0, 1.0, 41), np.linspace(-8.0, 8.0, 65))
    message = (f"field {src!r} has a derivative that is not finite on the box "
               "t in [0, 1], xi in [-8, 8]")
    _finite(DomainError, message, d_t, tt, xx)
    _finite(DomainError, message, d_xi, tt, xx)
    return VolatilityField(sigma=sigma, sigma_t=d_t, sigma_xi=d_xi,
                           time_free=d_t.ast == _num(0.0), name=src)


#: A sequence's declared bound over its level-10 maximum, minus 1: a path
#: samples f at other points too, where a smooth f peaks a little higher
#: (2.2e-6 for sin(7t)^2)
_F_BOUND_MARGIN = 1e-3


def sequence_from_expression(src):
    """The sequence f_n = f for every n, for an expression f(t) (the ``--f``
    of ``pathqv synth-x`` and ``synth-y``).  Its uniform bound is f's
    largest absolute value on ``construct.SPOT_GRID``, the level-10 grid,
    times 1 + _F_BOUND_MARGIN; DomainError if f is not finite there."""
    from .construct import SPOT_GRID, FunctionSequence

    fn = Expression(src, ("t",))
    values = _finite(DomainError, f"--f {src!r} is not finite on [0, 1]", fn, SPOT_GRID)
    bound = float(np.max(np.abs(values))) * (1.0 + _F_BOUND_MARGIN)
    return FunctionSequence.constant_in_n(fn, bound, name=src)
