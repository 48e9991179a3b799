"""AST for spin-network / planar-composition expressions.

The same expression trees are consumed by two engines: the exact
Temperley-Lieb evaluator (spinhom.tl) and the categorified pipeline
(spinhom.projector), so the node definitions live here with no other
dependencies.

Boundary convention: an expression denotes a diagram with m points on top
and n on the bottom; Stack(x, y) places x above y, Beside(x, y) places x to
the left of y.
"""

from __future__ import annotations

from .errors import AdmissibilityError, ArityError, DimensionError
from .record import dataclass


@dataclass(frozen=True)
class Strand:
    k: int


@dataclass(frozen=True)
class Proj:
    n: int


@dataclass(frozen=True)
class DualProj:
    n: int


@dataclass(frozen=True)
class Vertex:
    a: int
    b: int
    c: int


@dataclass(frozen=True)
class Stack:
    top: "NetworkExpr"
    bottom: "NetworkExpr"


@dataclass(frozen=True)
class Beside:
    left: "NetworkExpr"
    right: "NetworkExpr"


@dataclass(frozen=True)
class Trace:
    inner: "NetworkExpr"


@dataclass(frozen=True)
class Dual:
    inner: "NetworkExpr"


@dataclass(frozen=True)
class Zero:
    pass


@dataclass(frozen=True)
class Diagram:
    """A bare crossingless diagram (no projectors): the node produced when
    vertices are expanded for rewriting, written diag(m,n,p0-p1-...) in
    the CLI grammar."""

    m: int
    n: int
    pairs: tuple[int, ...]


NetworkExpr = (
    Strand | Proj | DualProj | Vertex | Stack | Beside | Trace | Dual | Zero | Diagram
)


def check_vertex(a: int, b: int, c: int) -> None:
    """Admissibility of a trivalent vertex: even parity, non-strict triangle.

    The triangle condition is taken as non-strict so that e.g. (1, 1, 2) is
    admissible; degenerate vertices then reduce to bundles of strands.
    """
    if min(a, b, c) < 0:
        raise AdmissibilityError(f"vertex ({a},{b},{c}): negative label")
    if (a + b + c) % 2 != 0:
        raise AdmissibilityError(f"vertex ({a},{b},{c}): odd parity a+b+c")
    if a > b + c or b > a + c or c > a + b:
        raise AdmissibilityError(f"vertex ({a},{b},{c}): triangle condition fails")


def vertex_internal_counts(a: int, b: int, c: int) -> tuple[int, int, int]:
    """Strand counts (a<->b, a<->c, b<->c) inside an admissible vertex."""
    check_vertex(a, b, c)
    return ((a + b - c) // 2, (a + c - b) // 2, (b + c - a) // 2)


def arity(expr: NetworkExpr) -> tuple[int, int] | None:
    """Boundary counts (top, bottom) of the diagram, or None when expr
    contains Zero: such a network is the zero network, and every consumer
    (the TL oracle, the categorified pipeline) reads its zero from here.

    Raises DimensionError on internal mismatches and AdmissibilityError on
    bad vertex labels.
    """
    match expr:
        case Strand(k):
            if k < 0:
                raise ArityError("negative strand count")
            return (k, k)
        case Proj(n) | DualProj(n):
            if n < 0:
                raise ArityError("negative projector label")
            return (n, n)
        case Vertex(a, b, c):
            check_vertex(a, b, c)
            return (a, b + c)
        case Stack(top, bottom):
            at, ab = arity(top), arity(bottom)
            if at is None or ab is None:
                return None
            if at[1] != ab[0]:
                raise DimensionError(
                    f"stack mismatch: {at[1]} bottom points over {ab[0]} top points"
                )
            return (at[0], ab[1])
        case Beside(left, right):
            al, ar = arity(left), arity(right)
            if al is None or ar is None:
                return None
            return (al[0] + ar[0], al[1] + ar[1])
        case Trace(inner):
            ai = arity(inner)
            if ai is None:
                return None
            if ai[0] != ai[1]:
                raise ArityError(f"trace of a non-square diagram {ai}")
            return (0, 0)
        case Dual(inner):
            ai = arity(inner)
            if ai is None:
                return None
            return (ai[1], ai[0])
        case Zero():
            return None
        case Diagram(m, n, _):
            return (m, n)
    raise TypeError(f"not a network expression: {expr!r}")


def labels(expr: NetworkExpr) -> list[int]:
    """The labels of the boxes in expr, left to right: n for a p(n) or its
    dual, and a, b, c for a Vertex(a, b, c), whose three edges carry
    projectors."""
    match expr:
        case Proj(n) | DualProj(n):
            return [n]
        case Vertex(a, b, c):
            return [a, b, c]
        case Stack(x, y) | Beside(x, y):
            return labels(x) + labels(y)
        case Trace(x) | Dual(x):
            return labels(x)
    return []


def is_closed(expr: NetworkExpr) -> bool:
    a = arity(expr)
    return a is None or a == (0, 0)


def unknot(n: int) -> NetworkExpr:
    return Trace(Proj(n))


def theta(a: int, b: int, c: int) -> NetworkExpr:
    """The closed theta network: a vertex glued to its reflection."""
    v = Vertex(a, b, c)
    return Trace(Stack(v, Dual(v)))


def push_duals(e: NetworkExpr) -> NetworkExpr:
    """Push Dual through structural nodes: reflection about the x-axis keeps
    the left-right order and reverses stacking order."""
    match e:
        case Dual(Dual(inner)):
            return push_duals(inner)
        case Dual(Proj(n)):
            return DualProj(n)
        case Dual(DualProj(n)):
            return Proj(n)
        case Dual(Strand(k)):
            return Strand(k)
        case Dual(Zero()):
            return Zero()
        case Dual(Diagram(m, n, pairs)):
            flipped = [0] * (m + n)
            for i, j in enumerate(pairs):
                fi = i + n if i < m else i - m
                fj = j + n if j < m else j - m
                flipped[fi] = fj
            return Diagram(n, m, tuple(flipped))
        case Dual(Stack(t, b)):
            return Stack(push_duals(Dual(b)), push_duals(Dual(t)))
        case Dual(Beside(l, r)):
            return Beside(push_duals(Dual(l)), push_duals(Dual(r)))
        case Dual(Trace(inner)):
            return Trace(push_duals(Dual(inner)))
        case Dual(inner):
            return Dual(push_duals(inner))
        case Stack(t, b):
            return Stack(push_duals(t), push_duals(b))
        case Beside(l, r):
            return Beside(push_duals(l), push_duals(r))
        case Trace(inner):
            return Trace(push_duals(inner))
    return e


def to_text(expr: NetworkExpr) -> str:
    """Canonical text form in the CLI grammar (a Diagram is
    diag(m,n,p0-p1-...)).  cli.parse_network reads a dual through
    push_duals, so it gives expr back whenever push_duals leaves expr
    unchanged, as for every rewrite_network output."""
    match expr:
        case Strand(k):
            return f"strand({k})"
        case Proj(n):
            return f"p({n})"
        case DualProj(n):
            return f"dual(p({n}))"
        case Vertex(a, b, c):
            return f"vertex({a},{b},{c})"
        case Stack(top, bottom):
            return f"stack({to_text(top)},{to_text(bottom)})"
        case Beside(left, right):
            return f"beside({to_text(left)},{to_text(right)})"
        case Trace(inner):
            return f"tr({to_text(inner)})"
        case Dual(inner):
            return f"dual({to_text(inner)})"
        case Zero():
            return "zero"
        case Diagram(m, n, pairs):
            return f"diag({m},{n},{'-'.join(map(str, pairs))})"
    raise TypeError(f"not a network expression: {expr!r}")
