"""Symbolic cost certificates: static asymptotic checks against the lemmas.

For each registered stage (``streaming_matmul``, ``full_to_band_2p5d``,
CA-SBR's ``_run_chases_1d``) the certifier abstractly interprets the
function body over polynomials in the problem symbols (n, b, m, k, p, with
p^delta fixed by the reference scaling), summing every ``charge_flops`` /
``charge_comm*`` magnitude multiplied by the enclosing loop trip counts.
The extracted leading-term degrees of F and W are then compared against
the stage's lemma in :mod:`repro.model.costs`
(:func:`repro.model.costs.lemma_leading_terms`) at several reference
scalings — so a refactor that changes the asymptotic cost class (say,
un-aggregating full_to_band's trailing update, turning W = O(n²/p^δ) into
O(n³/(b·p^δ))) fails ``repro lint --dataflow`` before any benchmark runs.

Interpretation is an *upper bound*: both branches of every ``if`` are
charged, ``max`` becomes a sum, loops are charged for their full trip
count.  A loop whose trips (or a charge whose magnitude) cannot be
resolved makes the stage **uncertifiable** (REPRO011) rather than
silently unchecked; the escape hatches are source hints::

    for step in chase_steps(n, b, h):  # certify: trips((n / b) * (n / h) / p)
        ...
        machine.charge_comm(sends={last: w}, recvs={o: w})  # certify: count(n / h)

``trips(expr)`` overrides a loop's inferred trip count (use the *per-rank*
count when charges land on single ranks); ``count(expr)`` replaces the
accumulated loop multiplier of one charge statement with an absolute
execution count.  Hint expressions are evaluated in the current symbolic
environment.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Callable

from repro.lint.callgraph import ModuleSummary
from repro.lint.rules import Finding, make_finding
from repro.model.costs import lemma_leading_terms

_NEG_INF = float("-inf")

# --------------------------------------------------------------------- #
# polynomials


class Poly:
    """Sparse signed-coefficient posynomial over named symbols with real
    exponents.  Exact cancellation of identical monomials is what makes
    slice widths like ``(c0 + b) - c0`` collapse to ``b``."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[tuple[tuple[str, float], ...], float]) -> None:
        out: dict[tuple[tuple[str, float], ...], float] = {}
        for k, c in terms.items():
            if abs(c) <= 1e-12:
                continue
            key = tuple(sorted((s, x) for s, x in k if abs(x) > 1e-12))
            out[key] = out.get(key, 0.0) + c
        self.terms = {k: c for k, c in out.items() if abs(c) > 1e-12}

    @staticmethod
    def const(c: float) -> "Poly":
        return Poly({(): float(c)})

    @staticmethod
    def sym(name: str) -> "Poly":
        return Poly({((name, 1.0),): 1.0})

    def __add__(self, other: "Poly") -> "Poly":
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, 0.0) + c
        return Poly(out)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + other.neg()

    def neg(self) -> "Poly":
        return Poly({k: -c for k, c in self.terms.items()})

    def __mul__(self, other: "Poly") -> "Poly":
        out: dict[tuple[tuple[str, float], ...], float] = {}
        for k1, c1 in self.terms.items():
            e1 = dict(k1)
            for k2, c2 in other.terms.items():
                e = dict(e1)
                for s, x in k2:
                    e[s] = e.get(s, 0.0) + x
                key = tuple(sorted((s, x) for s, x in e.items() if abs(x) > 1e-12))
                out[key] = out.get(key, 0.0) + c1 * c2
        return Poly(out)

    def is_single_term(self) -> bool:
        return len(self.terms) == 1

    def invert_single(self) -> "Poly":
        ((key, coeff),) = self.terms.items()
        return Poly({tuple((s, -x) for s, x in key): 1.0 / coeff if coeff else 1.0})

    def div(self, other: "Poly", theta: dict[str, float]) -> "Poly":
        if not other.terms:
            return Poly({})
        if other.is_single_term():
            return self * other.invert_single()
        # multi-term denominator: divide by its min-degree term (the
        # smallest denominator), which upper-bounds the quotient's degree
        best = min(
            other.terms.items(), key=lambda kv: sum(x * theta.get(s, 0.0) for s, x in kv[0])
        )
        return self * Poly({best[0]: abs(best[1]) or 1.0}).invert_single()

    def powf(self, e: float) -> "Poly":
        """Term-wise fractional power — an upper bound on the degree of
        ``(sum of terms)^e`` for 0 < e <= 1, exact for single terms."""
        out: dict[tuple[tuple[str, float], ...], float] = {}
        for k, c in self.terms.items():
            key = tuple((s, x * e) for s, x in k)
            out[key] = out.get(key, 0.0) + abs(c) ** e
        return Poly(out)

    def degree(self, theta: dict[str, float]) -> float:
        if not self.terms:
            return _NEG_INF
        return max(sum(x * theta.get(s, 0.0) for s, x in k) for k in self.terms)

    def leading_term(self, theta: dict[str, float]) -> str:
        if not self.terms:
            return "0"
        key = max(self.terms, key=lambda k: sum(x * theta.get(s, 0.0) for s, x in k))
        if not key:
            return f"{self.terms[key]:g}"
        return "*".join(f"{s}^{x:g}" if x != 1.0 else s for s, x in key)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Poly({self.terms!r})"


# --------------------------------------------------------------------- #
# abstract values


class _Opaque:
    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "OPAQUE"


OPAQUE = _Opaque()


@dataclass(frozen=True)
class Shape:
    rows: Poly
    cols: Poly

    @property
    def size(self) -> Poly:
        return self.rows * self.cols


@dataclass(frozen=True)
class GroupVal:
    size: Poly


@dataclass
class RefPoint:
    """One reference scaling: delta plus the symbols' log-log slopes."""

    delta: float
    theta: dict[str, float]


@dataclass
class StageSpec:
    """How to certify one function against one lemma."""

    stage: str  # registry key / display name
    path_suffix: str  # "repro/eig/full_to_band.py"
    func: str  # qualname inside the module
    lemma: str  # key into repro.model.costs lemma registry
    build_env: Callable[["Ctx"], dict[str, object]]
    points: tuple[RefPoint, ...]
    pins: tuple[str, ...] = ()  # names whose binding assignments never change


class Ctx:
    """Symbol constructors handed to a spec's ``build_env``."""

    def __init__(self, delta: float) -> None:
        self.delta = delta
        self.p = Poly.sym("p")
        self.q = Poly({((("p"), 1.0 - delta),): 1.0})
        self.c = Poly({((("p"), 2.0 * delta - 1.0),): 1.0})
        self.pdelta = Poly({((("p"), delta),): 1.0})

    @staticmethod
    def sym(name: str) -> Poly:
        return Poly.sym(name)

    @staticmethod
    def const(x: float) -> Poly:
        return Poly.const(x)

    def shape(self, rows: Poly, cols: Poly) -> Shape:
        return Shape(rows, cols)

    def group(self) -> GroupVal:
        return GroupVal(self.p)


@dataclass
class Extraction:
    flops: Poly = field(default_factory=lambda: Poly({}))
    words: Poly = field(default_factory=lambda: Poly({}))
    traffic: Poly = field(default_factory=lambda: Poly({}))
    steps: Poly = field(default_factory=lambda: Poly({}))
    problems: list[str] = field(default_factory=list)


_HINT_RE = re.compile(r"#\s*certify:\s*(trips|count)\((.*)\)\s*$")


def parse_hints(source: str) -> dict[int, tuple[str, ast.expr]]:
    """``# certify: trips(...)`` / ``count(...)`` comments, by line number."""
    hints: dict[int, tuple[str, ast.expr]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        m = _HINT_RE.search(line)
        if not m:
            continue
        try:
            expr = ast.parse(m.group(2), mode="eval").body
        except SyntaxError:
            continue
        hints[lineno] = (m.group(1), expr)
    return hints


#: charge-call handlers: terminal name -> which metric and which args
_FLOP_CHARGES = {"charge_flops": 1, "charge_flops_batch": 1}
_MEM_CHARGES = frozenset({"mem_stream", "mem_stream_group", "mem_read", "mem_write"})


class Extractor:
    """Abstract interpreter for one function body at one reference point."""

    def __init__(
        self,
        env: dict[str, object],
        theta: dict[str, float],
        delta: float,
        hints: dict[int, tuple[str, ast.expr]],
        pins: frozenset[str],
    ) -> None:
        self.env = env
        self.theta = dict(theta)
        self.delta = delta
        self.hints = hints
        self.pins = pins
        self.out = Extraction()
        self._loop_id = 0

    # ---------------------------------------------------------------- #
    # driving

    def run(self, fn: ast.FunctionDef) -> Extraction:
        try:
            self._exec_block(fn.body, Poly.const(1.0))
        except RecursionError:  # pragma: no cover - pathological nesting
            self.out.problems.append("recursion limit hit during extraction")
        return self.out

    def _exec_block(self, stmts: list[ast.stmt], mult: Poly) -> None:
        for stmt in stmts:
            self._exec_stmt(stmt, mult)

    def _exec_stmt(self, stmt: ast.stmt, mult: Poly) -> None:
        if isinstance(stmt, ast.Expr):
            self._eval(stmt.value, mult)
        elif isinstance(stmt, ast.Assign):
            value = self._eval(stmt.value, mult)
            for target in stmt.targets:
                self._bind(target, value)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._bind(stmt.target, self._eval(stmt.value, mult))
        elif isinstance(stmt, ast.AugAssign):
            value = self._eval(stmt.value, mult)
            if isinstance(stmt.target, ast.Name):
                name = stmt.target.id
                if name not in self.pins:
                    old = self.env.get(name)
                    if isinstance(old, Poly) and isinstance(value, Poly) and isinstance(
                        stmt.op, (ast.Add, ast.Sub)
                    ):
                        self.env[name] = old + value if isinstance(stmt.op, ast.Add) else old - value
        elif isinstance(stmt, ast.If):
            self._eval(stmt.test, mult)
            self._exec_block(stmt.body, mult)
            self._exec_block(stmt.orelse, mult)
        elif isinstance(stmt, ast.For):
            self._exec_for(stmt, mult)
        elif isinstance(stmt, ast.While):
            self._exec_while(stmt, mult)
        elif isinstance(stmt, ast.With):
            for item in stmt.items:
                self._eval(item.context_expr, mult)
            self._exec_block(stmt.body, mult)
        elif isinstance(stmt, ast.Try):
            self._exec_block(stmt.body, mult)
            for handler in stmt.handlers:
                self._exec_block(handler.body, mult)
            self._exec_block(stmt.orelse, mult)
            self._exec_block(stmt.finalbody, mult)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self._eval(stmt.value, mult)
        # Raise / Pass / Import / FunctionDef / Assert / etc.: no cost

    # ---------------------------------------------------------------- #
    # loops

    def _fresh_loop_sym(self, base: str, extent_degree: float) -> Poly:
        self._loop_id += 1
        name = f"{base}'{self._loop_id}"
        self.theta[name] = max(0.0, extent_degree)
        return Poly.sym(name)

    def _block_charges(self, stmts: list[ast.stmt]) -> bool:
        watched = set(_FLOP_CHARGES) | {
            "charge_comm", "charge_comm_batch", "charge_comm_matrix", "p2p",
            "streaming_matmul", "carma_matmul", "rect_qr", "square_qr", "square_qr_25d",
        }
        for stmt in stmts:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call):
                    chain = _chain(node.func)
                    if chain and chain[-1] in watched:
                        return True
        return False

    def _iter_trips(self, node: ast.expr, mult: Poly) -> Poly | None:
        """Trip count of a ``for`` iterable, or None if uninferable."""
        if isinstance(node, ast.Call):
            chain = _chain(node.func)
            callee = chain[-1] if chain else None
            if callee == "range" and node.args:
                vals = [self._eval(a, mult) for a in node.args]
                if not all(isinstance(v, Poly) for v in vals):
                    return None
                polys = [v for v in vals if isinstance(v, Poly)]
                if len(polys) == 1:
                    return polys[0]
                span = polys[1] - polys[0]
                if len(polys) == 2:
                    return span
                return span.div(polys[2].powf(1.0), self.theta)
            if callee in ("enumerate", "sorted", "reversed", "list", "tuple") and node.args:
                return self._iter_trips(node.args[0], mult)
        value = self._eval(node, mult)
        if isinstance(value, GroupVal):
            return value.size
        if isinstance(value, Shape):
            return value.rows
        if isinstance(value, tuple):
            return Poly.const(float(len(value)))
        return None

    def _exec_for(self, node: ast.For, mult: Poly) -> None:
        hint = self.hints.get(node.lineno)
        trips: Poly | None = None
        if hint is not None and hint[0] == "trips":
            v = self._eval(hint[1], mult)
            trips = v if isinstance(v, Poly) else None
        if trips is None:
            trips = self._iter_trips(node.iter, mult)
        if trips is None:
            if self._block_charges(node.body):
                self.out.problems.append(
                    f"line {node.lineno}: cannot infer the loop's trip count "
                    "(add '# certify: trips(<expr>)')"
                )
            trips = Poly.const(1.0)
        extent_deg = trips.degree(self.theta)
        for name in _target_names(node.target):
            self.env[name] = self._fresh_loop_sym(name, extent_deg)
        self._exec_block(node.body, mult * trips)
        self._exec_block(node.orelse, mult)

    def _exec_while(self, node: ast.While, mult: Poly) -> None:
        hint = self.hints.get(node.lineno)
        trips: Poly | None = None
        loop_var: str | None = None
        step: Poly | None = None
        logarithmic = False
        for sub in node.body:
            if isinstance(sub, ast.AugAssign) and isinstance(sub.target, ast.Name):
                loop_var = sub.target.id
                sval = self._eval(sub.value, Poly.const(0.0))
                if isinstance(sub.op, (ast.Add, ast.Sub)) and isinstance(sval, Poly):
                    step = sval
                elif isinstance(sub.op, (ast.Mult, ast.Div, ast.FloorDiv)):
                    logarithmic = True
                break
        extent: Poly | None = None
        if isinstance(node.test, ast.Compare) and len(node.test.comparators) == 1:
            saved = self.env.get(loop_var) if loop_var else None
            if loop_var:
                self.env[loop_var] = Poly.const(0.0)
            left = self._eval(node.test.left, Poly.const(0.0))
            right = self._eval(node.test.comparators[0], Poly.const(0.0))
            if isinstance(left, Poly) and isinstance(right, Poly):
                extent = left - right
            if loop_var:
                if saved is None:
                    self.env.pop(loop_var, None)
                else:
                    self.env[loop_var] = saved
        if hint is not None and hint[0] == "trips":
            v = self._eval(hint[1], mult)
            trips = v if isinstance(v, Poly) else None
        elif logarithmic:
            trips = Poly.const(1.0)  # halving/doubling: O(log) -> degree 0
        elif extent is not None and step is not None:
            trips = extent.div(step, self.theta)
        if trips is None:
            if self._block_charges(node.body):
                self.out.problems.append(
                    f"line {node.lineno}: cannot infer the while-loop's trip count "
                    "(add '# certify: trips(<expr>)')"
                )
            trips = Poly.const(1.0)
        if loop_var and loop_var not in self.pins:
            deg = extent.degree(self.theta) if extent is not None else trips.degree(self.theta)
            self.env[loop_var] = self._fresh_loop_sym(loop_var, deg)
        self._exec_block(node.body, mult * trips)
        self._exec_block(node.orelse, mult)

    # ---------------------------------------------------------------- #
    # binding

    def _bind(self, target: ast.expr, value: object) -> None:
        if isinstance(target, ast.Name):
            if target.id not in self.pins:
                self.env[target.id] = value
        elif isinstance(target, (ast.Tuple, ast.List)):
            if isinstance(value, Shape):
                value = (value.rows, value.cols)
            if isinstance(value, tuple) and len(value) == len(target.elts):
                for elt, v in zip(target.elts, value):
                    self._bind(elt, v)
            else:
                for elt in target.elts:
                    self._bind(elt, OPAQUE)
        # Subscript / Attribute targets: in-place update, shapes unchanged

    # ---------------------------------------------------------------- #
    # charges

    def _charge_multiplier(self, node: ast.Call, mult: Poly) -> Poly:
        hint = self.hints.get(node.lineno)
        if hint is not None and hint[0] == "count":
            v = self._eval(hint[1], mult)
            if isinstance(v, Poly):
                return v
            self.out.problems.append(
                f"line {node.lineno}: count() hint did not evaluate to a polynomial"
            )
        return mult

    def _as_words(self, node: ast.expr, mult: Poly) -> Poly | None:
        """A comm magnitude: a scalar expression or a {rank: words} dict."""
        if isinstance(node, ast.Dict):
            total = Poly.const(0.0)
            for v in node.values:
                ev = self._eval(v, mult)
                if not isinstance(ev, Poly):
                    return None
                total = total + ev
            return total
        value = self._eval(node, mult)
        return value if isinstance(value, Poly) else None

    def _apply_charge(self, callee: str, node: ast.Call, mult: Poly) -> bool:
        eff = self._charge_multiplier(node, mult)
        args = node.args
        kwargs = {kw.arg: kw.value for kw in node.keywords if kw.arg}

        def problem(what: str) -> None:
            self.out.problems.append(
                f"line {node.lineno}: cannot resolve the {what} magnitude of {callee}() "
                "(add '# certify: count(<expr>)' or simplify the expression)"
            )

        if callee in _FLOP_CHARGES:
            idx = _FLOP_CHARGES[callee]
            expr = args[idx] if len(args) > idx else kwargs.get("flops_each")
            val = self._eval(expr, mult) if expr is not None else None
            if isinstance(val, Poly):
                self.out.flops = self.out.flops + eff * val
            else:
                problem("flop")
            return True
        if callee == "charge_comm_batch":
            total = Poly.const(0.0)
            ok = False
            for expr in args[1:3]:
                val = self._eval(expr, mult)
                if isinstance(val, Poly):
                    total, ok = total + val, True
            if ok:
                self.out.words = self.out.words + eff * total
            else:
                problem("word")
            return True
        if callee in ("charge_comm", "charge_comm_matrix"):
            total = Poly.const(0.0)
            ok = False
            for expr in list(args) + [
                kwargs[k] for k in ("sends", "recvs") if k in kwargs
            ]:
                val = self._as_words(expr, mult)
                if val is not None:
                    total, ok = total + val, True
            if ok:
                self.out.words = self.out.words + eff * total
            else:
                problem("word")
            return True
        if callee == "p2p":
            if args:
                val = self._eval(args[-1], mult)
                if isinstance(val, Poly):
                    self.out.words = self.out.words + eff * val
                    return True
            problem("word")
            return True
        if callee == "superstep":
            val = self._eval(args[1], mult) if len(args) > 1 else Poly.const(1.0)
            self.out.steps = self.out.steps + eff * (
                val if isinstance(val, Poly) else Poly.const(1.0)
            )
            return True
        if callee in _MEM_CHARGES:
            if args:
                val = self._eval(args[-1], mult)
                if isinstance(val, Poly):
                    self.out.traffic = self.out.traffic + eff * val
            return True  # Q is not gated: opaque magnitudes are tolerated
        return False

    # ---------------------------------------------------------------- #
    # composed block algorithms (their lemmas, Section III)

    def _compose_block(self, callee: str, node: ast.Call, mult: Poly) -> object | None:
        th = self.theta
        d = self.delta
        p = Poly.sym("p")
        pd = Poly({((("p"), d),): 1.0})
        eff = self._charge_multiplier(node, mult)
        args = node.args

        def shape_arg(i: int) -> Shape | None:
            if i < len(args):
                v = self._eval(args[i], mult)
                if isinstance(v, Shape):
                    return v
            return None

        if callee == "streaming_matmul":
            a, b = shape_arg(2), shape_arg(3)
            if a is None or b is None:
                self.out.problems.append(
                    f"line {node.lineno}: streaming_matmul operand shapes are unresolved"
                )
                return OPAQUE
            m, n, k = a.rows, a.cols, b.cols
            self.out.flops = self.out.flops + eff * Poly.const(2.0) * m * n * k * p.invert_single()
            self.out.words = self.out.words + eff * (
                (m * k + n * k).div(pd, th) + (n * k).div(p, th)
            )
            return Shape(m, k)
        if callee == "carma_matmul":
            a, b = shape_arg(2), shape_arg(3)
            if a is None or b is None:
                self.out.problems.append(
                    f"line {node.lineno}: carma_matmul operand shapes are unresolved"
                )
                return OPAQUE
            m, n, k = a.rows, a.cols, b.cols
            mnk = m * n * k
            self.out.flops = self.out.flops + eff * Poly.const(2.0) * mnk.div(p, th)
            self.out.words = self.out.words + eff * (
                (m * n + n * k + m * k).div(p, th) + mnk.div(p, th).powf(2.0 / 3.0)
            )
            return Shape(m, k)
        if callee == "rect_qr":
            a = shape_arg(2)
            if a is None:
                self.out.problems.append(
                    f"line {node.lineno}: rect_qr operand shape is unresolved"
                )
                return OPAQUE
            m, n = a.rows, a.cols
            self.out.flops = self.out.flops + eff * Poly.const(2.0) * m * (n * n).div(p, th)
            self.out.words = self.out.words + eff * (
                m.powf(d) * n.powf(2.0 - d) * pd.invert_single() + (m * n).div(p, th)
            )
            return (Shape(m, n), Shape(n, n), Shape(n, n))
        if callee in ("square_qr", "square_qr_25d"):
            a = shape_arg(2)
            if a is None:
                self.out.problems.append(
                    f"line {node.lineno}: {callee} operand shape is unresolved"
                )
                return OPAQUE
            n = a.rows
            self.out.flops = self.out.flops + eff * Poly.const(2.0) * (n * n * n).div(p, th)
            self.out.words = self.out.words + eff * (n * n).div(pd, th)
            return (Shape(n, n), Shape(n, n))
        return None

    # ---------------------------------------------------------------- #
    # expression evaluation

    def _eval(self, node: ast.expr, mult: Poly) -> object:
        if isinstance(node, ast.Constant):
            if isinstance(node.value, bool) or node.value is None or isinstance(node.value, str):
                return OPAQUE
            if isinstance(node.value, (int, float)):
                return Poly.const(float(node.value))
            return OPAQUE
        if isinstance(node, ast.Name):
            return self.env.get(node.id, OPAQUE)
        if isinstance(node, ast.Attribute):
            return self._eval_attribute(node, mult)
        if isinstance(node, ast.Subscript):
            return self._eval_subscript(node, mult)
        if isinstance(node, ast.Call):
            return self._eval_call(node, mult)
        if isinstance(node, ast.BinOp):
            return self._eval_binop(node, mult)
        if isinstance(node, ast.UnaryOp):
            val = self._eval(node.operand, mult)
            if isinstance(node.op, ast.USub) and isinstance(val, Poly):
                return val.neg()
            return val
        if isinstance(node, (ast.Tuple, ast.List)):
            return tuple(self._eval(e, mult) for e in node.elts)
        if isinstance(node, ast.IfExp):
            self._eval(node.test, mult)
            a = self._eval(node.body, mult)
            b = self._eval(node.orelse, mult)
            if isinstance(a, Poly) and isinstance(b, Poly):
                return a + b  # upper bound over both branches
            return a if not isinstance(a, _Opaque) else b
        if isinstance(node, (ast.Compare, ast.BoolOp)):
            for sub in ast.iter_child_nodes(node):
                if isinstance(sub, ast.expr):
                    self._eval(sub, mult)
            return OPAQUE
        if isinstance(node, ast.JoinedStr):
            return OPAQUE
        if isinstance(node, ast.Dict):
            for v in node.values:
                self._eval(v, mult)
            return OPAQUE
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            return OPAQUE
        if isinstance(node, ast.Starred):
            return self._eval(node.value, mult)
        return OPAQUE

    def _eval_attribute(self, node: ast.Attribute, mult: Poly) -> object:
        chain = _chain(node)
        if chain:
            dotted = ".".join(chain)
            if dotted in self.env:
                return self.env[dotted]
        base = self._eval(node.value, mult)
        attr = node.attr
        if isinstance(base, Shape):
            if attr == "T":
                return Shape(base.cols, base.rows)
            if attr == "size":
                return base.size
            if attr == "shape":
                return (base.rows, base.cols)
            if attr == "ndim":
                return Poly.const(2.0)
            return OPAQUE
        if isinstance(base, GroupVal):
            if attr == "size":
                return base.size
            return OPAQUE
        return OPAQUE

    def _eval_subscript(self, node: ast.Subscript, mult: Poly) -> object:
        base = self._eval(node.value, mult)
        idx = node.slice
        if isinstance(base, tuple):
            if isinstance(idx, ast.Constant) and isinstance(idx.value, int):
                if -len(base) <= idx.value < len(base):
                    return base[idx.value]
            return OPAQUE
        if isinstance(base, Shape):
            dims = [base.rows, base.cols]
            parts = list(idx.elts) if isinstance(idx, ast.Tuple) else [idx]
            out: list[Poly] = []
            for dim, part in zip(dims, parts):
                sliced = self._slice_extent(dim, part, mult)
                if sliced is not None:
                    out.append(sliced)
            out.extend(dims[len(parts):])
            if len(out) == 2:
                return Shape(out[0], out[1])
            if len(out) == 1:
                return Shape(out[0], Poly.const(1.0))
            return OPAQUE
        return OPAQUE

    def _slice_extent(self, dim: Poly, part: ast.expr, mult: Poly) -> Poly | None:
        """Extent of one subscript component; None drops the axis."""
        if isinstance(part, ast.Slice):
            lo = self._eval(part.lower, mult) if part.lower is not None else Poly.const(0.0)
            hi = self._eval(part.upper, mult) if part.upper is not None else dim
            if isinstance(lo, Poly) and isinstance(hi, Poly):
                return hi - lo
            return dim
        return None  # integer index: the axis disappears

    def _eval_binop(self, node: ast.BinOp, mult: Poly) -> object:
        left = self._eval(node.left, mult)
        right = self._eval(node.right, mult)
        if isinstance(node.op, ast.MatMult):
            if isinstance(left, Shape) and isinstance(right, Shape):
                return Shape(left.rows, right.cols)
            return OPAQUE
        # array arithmetic: the result has the array operand's shape
        if isinstance(left, Shape) and isinstance(right, (Shape, Poly)):
            return left
        if isinstance(right, Shape) and isinstance(left, Poly):
            return right
        if not (isinstance(left, Poly) and isinstance(right, Poly)):
            return OPAQUE
        if isinstance(node.op, ast.Add):
            return left + right
        if isinstance(node.op, ast.Sub):
            return left - right
        if isinstance(node.op, ast.Mult):
            return left * right
        if isinstance(node.op, (ast.Div, ast.FloorDiv)):
            return left.div(right, self.theta)
        if isinstance(node.op, ast.Mod):
            return right  # x % m < m
        if isinstance(node.op, ast.Pow):
            if not right.terms:  # exponent cancelled to exactly zero
                return Poly.const(1.0)
            if all(k == () for k in right.terms):  # numeric exponent
                e = right.terms[()]
                if left.is_single_term():
                    return Poly(
                        {tuple((s, x * e) for s, x in k): abs(c) ** e
                         for k, c in left.terms.items()}
                    )
                if float(e).is_integer() and 0 <= e <= 4:
                    out = Poly.const(1.0)
                    for _ in range(int(e)):
                        out = out * left
                    return out
                if 0 < e <= 1:
                    return left.powf(e)
            return OPAQUE
        return OPAQUE

    def _eval_call(self, node: ast.Call, mult: Poly) -> object:
        chain = _chain(node.func)
        callee = chain[-1] if chain else (
            node.func.attr if isinstance(node.func, ast.Attribute) else None
        )
        # machine charges first (by terminal name, any receiver)
        if callee is not None and self._apply_charge(callee, node, mult):
            return OPAQUE
        composed = self._compose_block(callee, node, mult) if callee else None
        if composed is not None:
            return composed
        args = [self._eval(a, mult) for a in node.args]
        for kw in node.keywords:
            self._eval(kw.value, mult)
        if callee in ("float", "int", "round", "abs"):
            return args[0] if args else OPAQUE
        if callee == "max":
            flat = _flatten_polys(args)
            if flat:
                total = Poly.const(0.0)
                for v in flat:
                    total = total + v
                return total  # max(a, b) <= a + b
            return OPAQUE
        if callee == "min":
            flat = _flatten_polys(args)
            if flat:
                return min(flat, key=lambda v: v.degree(self.theta))
            return OPAQUE
        if callee == "len":
            if args and isinstance(args[0], GroupVal):
                return args[0].size
            if args and isinstance(args[0], tuple):
                return Poly.const(float(len(args[0])))
            return OPAQUE
        if callee == "group":  # grid.group(), subgrid(...).group()
            return GroupVal(Poly.sym("p"))
        if callee == "grid_delta":
            return Poly.const(self.delta)
        if callee == "check_symmetric":
            return args[0] if args else OPAQUE
        if callee == "qr_flops" and len(args) >= 2:
            m, n = args[0], args[1]
            if isinstance(m, Poly) and isinstance(n, Poly):
                return Poly.const(2.0) * m * n * n + Poly.const(2.0 / 3.0) * n * n * n
            return OPAQUE
        if callee == "matmul_flops" and len(args) >= 3:
            m, n, k = args[0], args[1], args[2]
            if isinstance(m, Poly) and isinstance(n, Poly) and isinstance(k, Poly):
                return Poly.const(2.0) * m * n * k
            return OPAQUE
        if callee == "compact_wy_qr_general" and args and isinstance(args[0], Shape):
            a = args[0]
            return (a, Shape(a.cols, a.cols), Shape(a.cols, a.cols))
        if chain and len(chain) >= 2 and callee is not None:
            np_val = self._numpy_call(chain, callee, node, args)
            if np_val is not None:
                return np_val
        if isinstance(node.func, ast.Attribute) and node.func.attr in ("copy", "astype"):
            receiver = self._eval(node.func.value, mult)
            if isinstance(receiver, (Shape, Poly)):
                return receiver
        return OPAQUE

    def _numpy_call(
        self, chain: list[str], callee: str, node: ast.Call, args: list[object]
    ) -> object | None:
        if callee in ("zeros", "ones", "empty", "full"):
            if args and isinstance(args[0], tuple):
                dims = [d for d in args[0] if isinstance(d, Poly)]
                if len(dims) == 2:
                    return Shape(dims[0], dims[1])
                if len(dims) == 1:
                    return Shape(dims[0], Poly.const(1.0))
            if args and isinstance(args[0], Poly):
                return Shape(args[0], Poly.const(1.0))
            return OPAQUE
        if callee in ("zeros_like", "ones_like", "empty_like", "full_like", "asarray",
                      "ascontiguousarray", "copy", "array"):
            return args[0] if args and isinstance(args[0], (Shape, Poly)) else OPAQUE
        if callee in ("hstack", "vstack"):
            if args and isinstance(args[0], tuple):
                shapes = [s for s in args[0] if isinstance(s, Shape)]
                if shapes:
                    total = Poly.const(0.0)
                    if callee == "hstack":
                        for s in shapes:
                            total = total + s.cols
                        return Shape(shapes[0].rows, total)
                    for s in shapes:
                        total = total + s.rows
                    return Shape(total, shapes[0].cols)
            return OPAQUE
        if callee == "clip" and len(args) >= 3 and isinstance(args[2], Poly):
            return args[2]  # clip(x, lo, hi) <= hi
        if callee in ("log", "log2", "sqrt", "ceil", "floor", "rint", "round"):
            if callee == "sqrt" and args and isinstance(args[0], Poly):
                return args[0].powf(0.5)
            if callee in ("ceil", "floor", "rint", "round") and args and isinstance(args[0], Poly):
                return args[0]
            return Poly.const(1.0)  # logs: degree 0
        return None


def _chain(node: ast.AST) -> list[str] | None:
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return list(reversed(parts))
    return None


def _target_names(target: ast.AST) -> list[str]:
    return [n.id for n in ast.walk(target) if isinstance(n, ast.Name)]


def _flatten_polys(args: list[object]) -> list[Poly]:
    out: list[Poly] = []
    for a in args:
        if isinstance(a, Poly):
            out.append(a)
        elif isinstance(a, tuple):
            out.extend(v for v in a if isinstance(v, Poly))
    return out


# --------------------------------------------------------------------- #
# stage registry


def _f2b_env(ctx: Ctx) -> dict[str, object]:
    n, b = ctx.sym("n"), ctx.sym("b")
    return {
        "machine": OPAQUE,
        "grid": OPAQUE,
        "grid.size": ctx.p,
        "grid.shape": (ctx.q, ctx.q, ctx.c),
        "grid.ndim": ctx.const(3),
        "a": ctx.shape(n, n),
        "b": b,
        "w": ctx.const(1),
        "p": ctx.p,
        # the U/V aggregates grow to at most n columns: pin their shape
        "u_glob": ctx.shape(n, n),
        "v_glob": ctx.shape(n, n),
    }


def _streaming_env(ctx: Ctx) -> dict[str, object]:
    m, n, k = ctx.sym("m"), ctx.sym("n"), ctx.sym("k")
    return {
        "machine": OPAQUE,
        "grid": OPAQUE,
        "grid.size": ctx.p,
        "grid.shape": (ctx.q, ctx.q, ctx.c),
        "grid.ndim": ctx.const(3),
        "a": ctx.shape(m, n),
        "b": ctx.shape(n, k),
        "w": ctx.sym("w"),
        "a_key": OPAQUE,
        "charge_b_redistribution": OPAQUE,
        "p": ctx.p,
    }


def _sbr_env(ctx: Ctx) -> dict[str, object]:
    n, b = ctx.sym("n"), ctx.sym("b")
    return {
        "machine": OPAQUE,
        "band": OPAQUE,
        "band.n": n,
        "band.b": b,
        "band.group": ctx.group(),
        "h": b,  # one halving step: the target half-width is Theta(b)
        "n": n,
        "b": b,
        "p": ctx.p,
        "step.nr": b,
        "step.ncols": b,
        "step.nc": b,
    }


_BASE_THETA = {"n": 1.0, "m": 1.0, "k": 1.0, "b": 0.5, "p": 0.25, "w": 0.0}
_SMALL_B_THETA = {"n": 1.0, "m": 1.0, "k": 1.0, "b": 0.25, "p": 0.125, "w": 0.0}

_DEFAULT_POINTS = (
    RefPoint(delta=2.0 / 3.0, theta=_BASE_THETA),
    RefPoint(delta=0.5, theta=_BASE_THETA),
    RefPoint(delta=2.0 / 3.0, theta=_SMALL_B_THETA),
)

STAGE_SPECS: tuple[StageSpec, ...] = (
    StageSpec(
        stage="streaming_matmul",
        path_suffix="repro/blocks/streaming.py",
        func="streaming_matmul",
        lemma="streaming_mm",
        build_env=_streaming_env,
        points=_DEFAULT_POINTS,
    ),
    StageSpec(
        stage="full_to_band_2p5d",
        path_suffix="repro/eig/full_to_band.py",
        func="full_to_band_2p5d",
        lemma="full_to_band",
        build_env=_f2b_env,
        points=_DEFAULT_POINTS,
        pins=("u_glob", "v_glob"),
    ),
    StageSpec(
        stage="ca_sbr_halve",
        path_suffix="repro/eig/ca_sbr.py",
        func="_run_chases_1d",
        lemma="ca_sbr_halve",
        build_env=_sbr_env,
        points=_DEFAULT_POINTS,
    ),
)

#: tolerance on degree comparisons (degrees are exact rationals in practice)
_DEGREE_TOL = 1e-6

_GATED: tuple[tuple[str, str], ...] = (("flops", "F"), ("words", "W"))


def _lemma_degree(terms: list[dict[str, float]], theta: dict[str, float]) -> float:
    if not terms:
        return _NEG_INF
    return max(sum(e * theta.get(s, 0.0) for s, e in term.items()) for term in terms)


def _find_function(tree: ast.Module, qualname: str) -> ast.FunctionDef | None:
    parts = qualname.split(".")
    scope: list[ast.stmt] = tree.body
    fn: ast.FunctionDef | None = None
    for i, part in enumerate(parts):
        found = None
        for node in scope:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == part:
                found = node
                break
        if found is None:
            return None
        if isinstance(found, ast.FunctionDef):
            if i == len(parts) - 1:
                fn = found
            scope = found.body
        else:
            scope = found.body
    return fn


def certify_stage(
    spec: StageSpec, tree: ast.Module, source: str, path: str
) -> list[Finding]:
    """Run one spec against one parsed module; returns REPRO010/011 findings."""
    fn = _find_function(tree, spec.func)
    if fn is None:
        return [
            make_finding(
                path, 1, 0, "REPRO011",
                f"registered stage '{spec.stage}' has no function {spec.func}() here",
            )
        ]
    hints = parse_hints(source)
    findings: list[Finding] = []
    for point in spec.points:
        ctx = Ctx(point.delta)
        extractor = Extractor(
            env=dict(spec.build_env(ctx)),
            theta=point.theta,
            delta=point.delta,
            hints=hints,
            pins=frozenset(spec.pins),
        )
        try:
            result = extractor.run(fn)
        except Exception as exc:  # never let the certifier crash the lint
            findings.append(
                make_finding(
                    path, fn.lineno, fn.col_offset, "REPRO011",
                    f"stage '{spec.stage}' extraction failed: {exc!r}",
                )
            )
            break
        if result.problems:
            findings.append(
                make_finding(
                    path, fn.lineno, fn.col_offset, "REPRO011",
                    f"stage '{spec.stage}' is not extractable: {result.problems[0]}",
                )
            )
            break
        lemma = lemma_leading_terms(spec.lemma, point.delta)
        theta = extractor.theta  # includes the loop symbols' degrees
        for metric, label in _GATED:
            extracted: Poly = getattr(result, metric)
            got = extracted.degree(theta)
            allowed = _lemma_degree(lemma[metric], point.theta)
            if got > allowed + _DEGREE_TOL:
                findings.append(
                    make_finding(
                        path, fn.lineno, fn.col_offset, "REPRO010",
                        f"stage '{spec.stage}': extracted {label} ~ "
                        f"{extracted.leading_term(theta)} (degree {got:.3f}) exceeds "
                        f"lemma '{spec.lemma}' degree {allowed:.3f} at "
                        f"delta={point.delta:.3g}, theta={point.theta}",
                    )
                )
        if any(f.rule == "REPRO010" for f in findings):
            break  # one failing point is enough; avoid near-duplicates
    return sorted(set(findings))


def certify_findings(summaries: list[ModuleSummary]) -> list[Finding]:
    """Certify every registered stage present in the linted file set."""
    findings: list[Finding] = []
    for spec in STAGE_SPECS:
        for summary in summaries:
            if not summary.path.endswith(spec.path_suffix) or summary.tree is None:
                continue
            if spec.func not in summary.functions:
                continue
            findings.extend(certify_stage(spec, summary.tree, summary.source, summary.path))
    return findings


def certify_source(stage: str, source: str, path: str) -> list[Finding]:
    """Certify arbitrary source against a named registered stage (tests)."""
    for spec in STAGE_SPECS:
        if spec.stage == stage:
            tree = ast.parse(source)
            return certify_stage(spec, tree, source, path)
    raise KeyError(f"unknown certification stage {stage!r}")
