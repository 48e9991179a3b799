"""Temperley-Lieb diagram algebra over Q(q), with Jones-Wenzl projectors.

This is the exact decategorified layer: every categorified computation in
the package is checked against it through graded Euler characteristics.
Its elements are Q(q)-linear combinations of circle-free flat tangles
(spinhom.cob.FlatTangle, which fixes the point convention); the oracle's
independence lies in its exact RatFunc algebra, not in the matchings, and
it uses no rewrite rule of spinhom.projector.

Products and traces work over common denominators: each operand's
coefficients are brought to the lcm of their denominators, numerators are
summed as plain Laurent polynomials, and each nonzero output coefficient is
normalized (one gcd) once.  The Jones-Wenzl projectors come from the
single-clasp expansion (Frenkel-Khovanov 1997; Morrison 2015), certified
by the two defining axioms, which are checked exactly for every n; the
Wenzl recursion it replaced is the tests' reference.
"""

from __future__ import annotations

import functools
from . import expr as ex
from .cob import FlatTangle, beside_ob, stack_walk, trace_ob
from .errors import ArityError, DimensionError, ResourceError, SpinhomError
from .laurent import LaurentPoly, RatFunc, common_denominator, quantum_integer

#: circle value q + q^-1
LOOP = LaurentPoly({1: 1, -1: 1})

#: guard against Catalan blowup; dim TL_n is the n-th Catalan number
MAX_STORED_MATCHINGS = 10**6


def compose_matchings(a: FlatTangle, b: FlatTangle) -> tuple[FlatTangle, int]:
    """Stack a over b, gluing a's bottom to b's top; returns (result, circles).

    Uncached: the oracle meets thousands of distinct pairs once each.
    """
    pairs, loops = stack_walk(a, b)
    return FlatTangle(a.m, b.n, pairs), len(loops)


def vertex_matching(a: int, b: int, c: int) -> FlatTangle:
    """The bare trivalent-vertex diagram in TL(a, b+c), projectors excluded."""
    x_ab, x_ac, y = ex.vertex_internal_counts(a, b, c)
    pairs = [0] * (a + b + c)

    def join(i: int, j: int) -> None:
        pairs[i], pairs[j] = j, i

    for i in range(x_ab):
        join(i, a + i)
    for t in range(y):
        join(a + b - 1 - t, a + b + t)
    for j in range(x_ac):
        join(x_ab + j, a + b + y + j)
    return FlatTangle(a, b + c, tuple(pairs))


class TLElement:
    """A Q(q)-linear combination of planar matchings with fixed boundary."""

    __slots__ = ("m", "n", "terms")

    def __init__(self, m: int, n: int, terms: dict[FlatTangle, RatFunc] | None = None):
        self.m = m
        self.n = n
        self.terms: dict[FlatTangle, RatFunc] = {}
        for d, c in (terms or {}).items():
            if d.m != m or d.n != n or d.circles:
                raise DimensionError("term is not a circle-free matching on the element's boundary")
            if c:
                self.terms[d] = c
        if len(self.terms) > MAX_STORED_MATCHINGS:
            raise ResourceError("stored matching count exceeds the configured cap")

    @staticmethod
    def from_matching(d: FlatTangle, coeff: RatFunc | LaurentPoly | int = 1) -> "TLElement":
        if not isinstance(coeff, RatFunc):
            coeff = RatFunc.from_laurent(coeff)
        return TLElement(d.m, d.n, {d: coeff})

    @staticmethod
    def identity(n: int) -> "TLElement":
        return TLElement.from_matching(FlatTangle.identity(n))

    @staticmethod
    def e(i: int, n: int) -> "TLElement":
        return TLElement.from_matching(FlatTangle.e(i, n))

    @staticmethod
    def zero(m: int, n: int) -> "TLElement":
        return TLElement(m, n)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TLElement):
            return NotImplemented
        return (self.m, self.n) == (other.m, other.n) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.m, self.n, frozenset(self.terms.items())))

    def __add__(self, other: "TLElement") -> "TLElement":
        if (self.m, self.n) != (other.m, other.n):
            raise DimensionError("adding elements with different boundaries")
        acc = dict(self.terms)
        for d, c in other.terms.items():
            s = acc.get(d, RatFunc.zero()) + c
            if s:
                acc[d] = s
            else:
                acc.pop(d, None)
        return TLElement(self.m, self.n, acc)

    def __neg__(self) -> "TLElement":
        return TLElement(self.m, self.n, {d: -c for d, c in self.terms.items()})

    def __sub__(self, other: "TLElement") -> "TLElement":
        return self + (-other)

    def scale(self, c) -> "TLElement":
        if not isinstance(c, RatFunc):
            c = RatFunc.from_laurent(c)
        if not c:
            return TLElement(self.m, self.n)
        return TLElement(self.m, self.n, {d: x * c for d, x in self.terms.items()})

    def flip(self) -> "TLElement":
        """Reflect about the x-axis; coefficients untouched."""
        return TLElement(self.n, self.m, {d.flip(): c for d, c in self.terms.items()})

    def mirror(self) -> "TLElement":
        return TLElement(self.m, self.n, {d.mirror(): c for d, c in self.terms.items()})

    def dual(self) -> "TLElement":
        """Decategorified duality: reflect and apply q -> q^-1 to coefficients."""
        return TLElement(self.n, self.m, {d.flip(): c.bar() for d, c in self.terms.items()})


def compose_tl(a: TLElement, b: TLElement) -> TLElement:
    """Vertical stacking TL(m,k) x TL(k,n) -> TL(m,n); circles become q+q^-1.

    Each operand is first written over one common denominator, the lcm of
    its coefficients' denominators (laurent.common_denominator), with its
    distinct numerators indexed: a Jones-Wenzl projector has few distinct
    coefficients.  The matching products are only counted, per output
    matching, circle count and pair of numerators.  Then b's numerators are
    summed for each (matching, circles, numerator of a) and multiplied by
    that numerator once, the circle factors are applied once per output
    matching, and each nonzero output coefficient is normalized once over
    the product of the two lcms.  Sums that cancel to zero, as every
    turnback against a Jones-Wenzl projector does, cost no gcd.  The normal
    form of a RatFunc is unique, so the result is the same, byte for byte,
    as adding the normalized products one at a time (the tests' reference).
    """
    if a.n != b.m:
        raise DimensionError(f"cannot stack ({a.m},{a.n}) over ({b.m},{b.n})")
    terms_a, nums_a, den_a = _over_common_den(a)
    terms_b, nums_b, den_b = _over_common_den(b)
    pairs: dict[tuple[FlatTangle, int, int, int], int] = {}
    for da, i in terms_a:
        for db, j in terms_b:
            d, circles = compose_matchings(da, db)
            key = (d, circles, i, j)
            pairs[key] = pairs.get(key, 0) + 1
    rows: dict[tuple[FlatTangle, int, int], LaurentPoly] = {}
    for (d, circles, i, j), k in pairs.items():
        _collect(rows, (d, circles, i), nums_b[j] * k if k > 1 else nums_b[j])
    sums: dict[FlatTangle, dict[int, LaurentPoly]] = {}
    for (d, circles, i), y in rows.items():
        _collect(sums.setdefault(d, {}), circles, nums_a[i] * y)
    den = den_a * den_b
    acc = {}
    for d, by_circles in sums.items():
        num = _close_circles(by_circles)
        if num:
            acc[d] = RatFunc._normalized(num, den)
    return TLElement(a.m, b.n, acc)


def _over_common_den(
    x: TLElement,
) -> tuple[list[tuple[FlatTangle, int]], list[LaurentPoly], LaurentPoly]:
    """x over one common denominator: (matching, numerator index) per term,
    the distinct numerators, and the denominator."""
    den, cofactors = common_denominator({c.den for c in x.terms.values()})
    index: dict[RatFunc, int] = {}
    terms = [(d, index.setdefault(c, len(index))) for d, c in x.terms.items()]
    return terms, [c.num * cofactors[c.den] for c in index], den


def _collect(sums: dict, key, num: LaurentPoly) -> None:
    """Add num to the numerator sum kept under key."""
    sums[key] = sums[key] + num if key in sums else num


def _close_circles(by_circles: dict[int, LaurentPoly]) -> LaurentPoly:
    """The sum of num * LOOP^circles over the groups, by Horner's rule."""
    total = LaurentPoly.zero()
    for circles in range(max(by_circles, default=-1), -1, -1):
        total = total * LOOP
        if circles in by_circles:
            total = total + by_circles[circles]
    return total


def beside_tl(a: TLElement, b: TLElement) -> TLElement:
    # beside_ob is injective on pairs: each output matching gets one product
    acc = {
        beside_ob(da, db): ca * cb
        for da, ca in a.terms.items()
        for db, cb in b.terms.items()
    }
    return TLElement(a.m + b.m, a.n + b.n, acc)


def through_degree(x: TLElement) -> int:
    """Max through-strand count over nonzero terms; errors on zero."""
    if x.is_zero():
        raise SpinhomError("through degree of the zero element is undefined")
    return max(d.through_strands() for d in x.terms)


def markov_trace(x: TLElement) -> RatFunc:
    """Close top point i to bottom point i around the side; circles evaluate.

    cob.trace_ob counts each matching's circles.  As in compose_tl, the
    terms are written over one common denominator, their numerators summed
    per circle count, and the total normalized once, so the result is
    byte-identical to a term-by-term sum.
    """
    if x.m != x.n:
        raise DimensionError("markov trace needs a square element")
    terms, nums, den = _over_common_den(x)
    by_circles: dict[int, LaurentPoly] = {}
    for d, i in terms:
        _collect(by_circles, trace_ob(d).tangle.circles, nums[i])
    return RatFunc._normalized(_close_circles(by_circles), den)


@functools.cache
def jones_wenzl(n: int) -> TLElement:
    """The Jones-Wenzl projector p_n, by the single-clasp expansion.

    p_1 = 1_1 and, with p_{n-1} included in TL_n by a strand on the right,

        p_n = (p_{n-1} (x) 1) (1 + sum_{i=1}^{n-1} (-1)^(n-i) [i]/[n] e_{n-1} ... e_i),

    e_j joining strands j and j+1 (1-indexed) and a circle worth [2]
    (I. B. Frenkel and M. Khovanov, Canonical bases in tensor products and
    graphical calculus for U_q(sl_2), Duke Math. J. 87 (1997); S. Morrison,
    A formula for the Jones-Wenzl projections, 2015).  The bracket has n
    terms, so level n costs |p_{n-1}| n matching products, where the Wenzl
    recursion p_n = p_{n-1} - ([n-1]/[n]) p_{n-1} e_{n-1} p_{n-1} costs
    about |p_{n-1}|^2; that recursion is the tests' reference.  Both defining
    axioms (p_n kills every turnback, from above and from below; p_n - 1_n
    has through degree < n) are verified exactly before the result is
    returned, and they determine p_n, so they certify the expansion.
    """
    if n < 0:
        raise SpinhomError("jones_wenzl needs n >= 0")
    if n <= 1:
        return TLElement.identity(n)
    strand = FlatTangle.identity(1)
    # beside_tl would multiply every coefficient by the strand's 1
    prev = TLElement(n, n, {beside_ob(d, strand): c for d, c in jones_wenzl(n - 1).terms.items()})
    word = FlatTangle.identity(n)
    clasp = {word: RatFunc.one()}
    for i in range(n - 1, 0, -1):
        word, _ = compose_matchings(word, FlatTangle.e(i - 1, n))  # e_{n-1} ... e_i
        clasp[word] = RatFunc._normalized(quantum_integer(i) * (-1) ** (n - i), quantum_integer(n))
    p = compose_tl(prev, TLElement(n, n, clasp))
    for i in range(n - 1):
        ei = TLElement.e(i, n)
        if not compose_tl(ei, p).is_zero() or not compose_tl(p, ei).is_zero():
            raise SpinhomError(f"single-clasp expansion failed turnback axiom at e_{i}")
    defect = p - TLElement.identity(n)
    if not defect.is_zero() and through_degree(defect) >= n:
        raise SpinhomError("single-clasp expansion failed the through-degree axiom")
    return p


_ZERO_SENTINEL = object()


def _evaluate(e: ex.NetworkExpr, memo: dict):
    """e's TL element, or _ZERO_SENTINEL; memo holds the values of the
    subexpressions met so far, so each distinct one is evaluated once (a
    theta's Dual(v) reuses its vertex v)."""
    v = memo.get(e)
    if v is None:
        v = memo[e] = _evaluate_node(e, memo)
    return v


def _evaluate_node(e: ex.NetworkExpr, memo: dict):
    match e:
        case ex.Strand(k):
            return TLElement.identity(k)
        case ex.Proj(m):
            return jones_wenzl(m)
        case ex.DualProj(m):
            return jones_wenzl(m).dual()
        case ex.Vertex(a, b, c):
            core = TLElement.from_matching(vertex_matching(a, b, c))
            bottom = beside_tl(jones_wenzl(b), jones_wenzl(c))
            return compose_tl(jones_wenzl(a), compose_tl(core, bottom))
        case ex.Stack(top, bottom):
            t, b = _evaluate(top, memo), _evaluate(bottom, memo)
            if t is _ZERO_SENTINEL or b is _ZERO_SENTINEL:
                return _ZERO_SENTINEL
            return compose_tl(t, b)
        case ex.Beside(left, right):
            l, r = _evaluate(left, memo), _evaluate(right, memo)
            if l is _ZERO_SENTINEL or r is _ZERO_SENTINEL:
                return _ZERO_SENTINEL
            return beside_tl(l, r)
        case ex.Trace(inner):
            v = _evaluate(inner, memo)
            if v is _ZERO_SENTINEL:
                return _ZERO_SENTINEL
            return TLElement(0, 0, {FlatTangle.empty(): markov_trace(v)})
        case ex.Dual(inner):
            v = _evaluate(inner, memo)
            if v is _ZERO_SENTINEL:
                return _ZERO_SENTINEL
            return v.dual()
        case ex.Zero():
            return _ZERO_SENTINEL
        case ex.Diagram(m, n, pairs):
            return TLElement.from_matching(FlatTangle(m, n, pairs))
    raise TypeError(f"not a network expression: {e!r}")


def evaluate_network(net: ex.NetworkExpr) -> RatFunc:
    """Exact evaluation of a closed network, substituting p_n on every edge."""
    if not ex.is_closed(net):
        raise ArityError(f"network has free boundary: arity {ex.arity(net)}")
    v = _evaluate(net, {})
    if v is _ZERO_SENTINEL or v.is_zero():
        return RatFunc.zero()
    return v.terms.get(FlatTangle.empty(), RatFunc.zero())


def tl_element_of(e: ex.NetworkExpr) -> TLElement:
    """Evaluate an open expression to its TL element (Zero not allowed)."""
    v = _evaluate(e, {})
    if v is _ZERO_SENTINEL:
        raise ArityError("cannot evaluate Zero without boundary context")
    return v


def all_matchings(m: int, n: int) -> list[FlatTangle]:
    """All planar matchings with m top and n bottom points, sorted."""
    total = m + n
    if total % 2 != 0:
        return []
    results: list[FlatTangle] = []
    order = list(range(m)) + list(range(m + n - 1, m - 1, -1))
    pairs: dict[int, int] = {}

    def segment(rest: list[int]):
        """Yield once per non-crossing completion of the segment."""
        if not rest:
            yield
            return
        first = rest[0]
        for idx in range(1, len(rest), 2):
            j = rest[idx]
            pairs[first], pairs[j] = j, first
            for _ in segment(rest[1:idx]):
                yield from segment(rest[idx + 1 :])
            del pairs[first], pairs[j]

    for _ in segment(order):
        flat = [0] * total
        for i, j in pairs.items():
            flat[i] = j
        results.append(FlatTangle(m, n, tuple(flat)))
    return sorted(results, key=FlatTangle.sort_key)
