"""The Bar-Natan cobordism category of flat tangles and dotted cobordisms.

Objects are flat tangles: planar matchings of m top and n bottom points
plus a count of closed circles.  Point convention: indices 0..m-1 run along
the top from left to right, indices m..m+n-1 along the bottom from left to
right.  Walking the boundary circularly (top left to right, then bottom
right to left) a planar matching is exactly a balanced bracket sequence,
which is checked by a stack scan.  The Temperley-Lieb oracle (spinhom.tl)
keys its elements by circle-free flat tangles.
Morphisms are kept in canonical form throughout: neck-cutting and the
sphere/handle relations reduce any dotted cobordism to a Z[alpha]-linear
combination of unions of disks, one disk per closure circle of the glued
pair (source, target), each disk carrying 0 or 1 dots.  A morphism is a
map {dot assignment -> alpha-polynomial}.

All geometric operations (composition, planar stacking, Markov trace,
surgery saddles) funnel through one reduction routine: glue surface pieces
along interval or circle cells, find connected components by union-find,
read off Euler characteristic and genus, and split each component into
per-circle disks using the Frobenius structure X^2 = alpha,
Delta(1) = 1 (x) X + X (x) 1, Delta(X) = X (x) X + alpha 1 (x) 1.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Sequence
from dataclasses import dataclass, field

from .errors import DimensionError, IntegrityError, SpinhomError
from .laurent import LaurentPoly

# Alpha-polynomials share the sparse-dict implementation; the variable is
# alpha (q-degree 4), not q.
AlphaPoly = LaurentPoly

Arc = tuple[int, int]


def _check_planar_pairs(m: int, n: int, pairs: tuple[int, ...]) -> bool:
    order = list(range(m)) + list(range(m + n - 1, m - 1, -1))
    pos = {p: k for k, p in enumerate(order)}
    stack: list[int] = []
    for p in order:
        q = pairs[p]
        if pos[q] > pos[p]:
            stack.append(p)
        else:
            if not stack or stack.pop() != q:
                return False
    return not stack


@dataclass(frozen=True)
class FlatTangle:
    """A crossingless 1-manifold in the square: object of Cob^m_n."""

    m: int
    n: int
    pairs: tuple[int, ...]
    circles: int = 0

    def __post_init__(self):
        if (self.m + self.n) % 2 != 0:
            raise DimensionError("odd number of boundary points")
        if len(self.pairs) != self.m + self.n:
            raise DimensionError("pairing length mismatch")
        if self.circles < 0:
            raise SpinhomError("negative circle count")
        p = self.pairs
        if not all(0 <= p[i] < len(p) and p[i] != i and p[p[i]] == i for i in range(len(p))):
            raise SpinhomError("pairing is not a fixed-point-free involution")
        if not _check_planar_pairs(self.m, self.n, p):
            raise SpinhomError("pairing is not planar")
        object.__setattr__(self, "_hash", hash((self.m, self.n, p, self.circles)))

    # Tangles key every gluing cache, so the hash is computed once, with the
    # value the generated dataclass hash would give.
    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not FlatTangle:
            return NotImplemented
        return (
            self._hash == other._hash
            and self.pairs == other.pairs
            and self.circles == other.circles
            and self.m == other.m
        )

    @staticmethod
    def identity(n: int) -> "FlatTangle":
        return FlatTangle(n, n, tuple((i + n) % (2 * n) for i in range(2 * n)))

    @staticmethod
    def empty(circles: int = 0) -> "FlatTangle":
        return FlatTangle(0, 0, (), circles)

    @staticmethod
    def e(i: int, n: int) -> "FlatTangle":
        if not 0 <= i <= n - 2:
            raise DimensionError(f"e_{i} does not exist on {n} strands")
        pairs = list(FlatTangle.identity(n).pairs)
        pairs[i], pairs[i + 1] = i + 1, i
        pairs[n + i], pairs[n + i + 1] = n + i + 1, n + i
        return FlatTangle(n, n, tuple(pairs))

    @staticmethod
    def turnback_above(i: int, n: int) -> "FlatTangle":
        """a_i in Cob^{n-2}_n: cap joining bottom points i, i+1."""
        if not 0 <= i <= n - 2:
            raise DimensionError(f"a_{i} does not exist on {n} strands")
        m = n - 2
        pairs = [0] * (m + n)

        def join(x, y):
            pairs[x], pairs[y] = y, x

        for j in range(m):
            join(j, m + (j if j < i else j + 2))
        join(m + i, m + i + 1)
        return FlatTangle(m, n, tuple(pairs))

    @staticmethod
    def turnback_below(j: int, m: int) -> "FlatTangle":
        """b_j in Cob^m_{m-2}: cup joining top points j, j+1."""
        return FlatTangle.turnback_above(j, m).flip()

    def arcs(self) -> list[Arc]:
        return sorted((i, j) for i, j in enumerate(self.pairs) if i < j)

    def arc_at(self, p: int) -> Arc:
        q = self.pairs[p]
        return (p, q) if p < q else (q, p)

    def flip(self) -> "FlatTangle":
        m, n = self.m, self.n

        def remap(i: int) -> int:
            return i + n if i < m else i - m

        new = [0] * (m + n)
        for i, j in enumerate(self.pairs):
            new[remap(i)] = remap(j)
        return FlatTangle(n, m, tuple(new), self.circles)

    def mirror(self) -> "FlatTangle":
        m, n = self.m, self.n

        def remap(i: int) -> int:
            return m - 1 - i if i < m else m + (m + n - 1 - i)

        new = [0] * (m + n)
        for i, j in enumerate(self.pairs):
            new[remap(i)] = remap(j)
        return FlatTangle(m, n, tuple(new), self.circles)

    def through_strands(self) -> int:
        return sum(1 for i in range(self.m) if self.pairs[i] >= self.m)

    def drop_circle(self) -> "FlatTangle":
        if self.circles == 0:
            raise SpinhomError("no circle to drop")
        return FlatTangle(self.m, self.n, self.pairs, self.circles - 1)

    def sort_key(self) -> tuple:
        return (self.m, self.n, self.pairs, self.circles)


@dataclass(frozen=True)
class ShiftedObject:
    """q^k-shifted flat tangle."""

    tangle: FlatTangle
    qshift: int = 0

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.tangle, self.qshift)))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not ShiftedObject:
            return NotImplemented
        return (
            self._hash == other._hash
            and self.qshift == other.qshift
            and self.tangle == other.tangle
        )

    def shifted(self, k: int) -> "ShiftedObject":
        return ShiftedObject(self.tangle, self.qshift + k)

    def sort_key(self) -> tuple:
        return (*self.tangle.sort_key(), self.qshift)


# ---------------------------------------------------------------------------
# Closure circles


@dataclass(frozen=True)
class ClosureData:
    """Circles of the 1-manifold obtained by gluing source to reflected
    target along all shared boundary points.

    Constituents of each circle are recorded as ("s"/"t", "arc", (p,q)) or
    ("s"/"t", "circ", j).  Circles through boundary points come first,
    ordered by their smallest point; then source free circles, then target
    free circles, each in index order.
    """

    n: int
    constituents: tuple[tuple[tuple[str, str, object], ...], ...]
    src_arc: dict  # Arc -> circle index
    tgt_arc: dict
    src_circ: tuple[int, ...]
    tgt_circ: tuple[int, ...]
    point: tuple[int, ...]  # boundary point -> circle index


@functools.lru_cache(maxsize=1 << 14)
def closure_data(a: FlatTangle, b: FlatTangle) -> ClosureData:
    if (a.m, a.n) != (b.m, b.n):
        raise DimensionError("closure requires matching boundary counts")
    total = a.m + a.n
    seen = [False] * total
    circles: list[list[tuple[str, str, object]]] = []
    point_map = [0] * total
    src_arc: dict = {}
    tgt_arc: dict = {}
    for start in range(total):
        if seen[start]:
            continue
        idx = len(circles)
        cons: list[tuple[str, str, object]] = []
        p = start
        # alternate: source arc, then target arc, until back at start
        while not seen[p]:
            seen[p] = True
            point_map[p] = idx
            arc_s = a.arc_at(p)
            src_arc[arc_s] = idx
            cons.append(("s", "arc", arc_s))
            q = a.pairs[p]
            seen[q] = True
            point_map[q] = idx
            arc_t = b.arc_at(q)
            tgt_arc[arc_t] = idx
            cons.append(("t", "arc", arc_t))
            p = b.pairs[q]
        circles.append(cons)
    src_circ = []
    for j in range(a.circles):
        src_circ.append(len(circles))
        circles.append([("s", "circ", j)])
    tgt_circ = []
    for j in range(b.circles):
        tgt_circ.append(len(circles))
        circles.append([("t", "circ", j)])
    return ClosureData(
        n=len(circles),
        constituents=tuple(tuple(c) for c in circles),
        src_arc=src_arc,
        tgt_arc=tgt_arc,
        src_circ=tuple(src_circ),
        tgt_circ=tuple(tgt_circ),
        point=tuple(point_map),
    )


def closure_circles(a: FlatTangle, b: FlatTangle) -> list[tuple]:
    """Ordered list of closure circles (constituent tuples); see ClosureData."""
    return list(closure_data(a, b).constituents)


# ---------------------------------------------------------------------------
# Frobenius reduction


@functools.lru_cache(maxsize=4096)
def reduce_component(k: int, genus: int, dots: int) -> tuple[tuple[tuple[int, ...], int, int], ...]:
    """Canonical form of one connected genus-`genus` surface with `dots`
    dots and k boundary circles: a sum of (per-circle dot assignment,
    alpha exponent, integer coefficient) triples.

    Handles contribute a factor 2 and one dot each; two dots on a single
    component give alpha; a closed component evaluates by the counit
    (0 for even dot count, alpha^((d-1)/2) for odd); components with
    several boundary circles split by iterated comultiplication.
    """
    if k < 0 or genus < 0 or dots < 0:
        raise SpinhomError("invalid component data")
    coeff = 2**genus
    d = dots + genus
    aexp, eps = divmod(d, 2)
    if k == 0:
        if eps == 0:
            return ()
        return (((), aexp, coeff),)
    states: list[tuple[tuple[int, ...], int]] = [((eps,), aexp)]
    for _ in range(k - 1):
        new_states = []
        for assign, ae in states:
            v = assign[-1]
            if v == 0:
                new_states.append((assign[:-1] + (0, 1), ae))
                new_states.append((assign[:-1] + (1, 0), ae))
            else:
                new_states.append((assign[:-1] + (1, 1), ae))
                new_states.append((assign[:-1] + (0, 0), ae + 1))
        states = new_states
    return tuple((assign, ae, coeff) for assign, ae in states)


class _UnionFind:
    __slots__ = ("parent",)

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, x: int, y: int) -> None:
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[ry] = rx


@dataclass(frozen=True)
class GlueStructure:
    """Term-independent part of a gluing: connected components with their
    Euler characteristics, member pieces and output boundary circles.

    `reduced` memoises reduce_structure per dot pattern; it takes no part in
    equality or hashing."""

    components: tuple[tuple[tuple[int, ...], int, tuple[int, ...]], ...]
    n_out: int
    reduced: dict = field(default_factory=dict, compare=False, repr=False)


@functools.lru_cache(maxsize=1 << 15)
def glue_structure(
    piece_chi: tuple[int, ...],
    cells: tuple[tuple[int, int, int], ...],
    circle_nodes: tuple[tuple[int, ...], ...],
) -> GlueStructure:
    n_pieces = len(piece_chi)
    uf = _UnionFind(n_pieces)
    for u, v, _ in cells:
        uf.union(u, v)
    comp_chi: dict[int, int] = {}
    comp_pieces: dict[int, list[int]] = {}
    for i in range(n_pieces):
        r = uf.find(i)
        comp_chi[r] = comp_chi.get(r, 0) + piece_chi[i]
        comp_pieces.setdefault(r, []).append(i)
    for u, v, chi_cell in cells:
        comp_chi[uf.find(u)] -= chi_cell
    comp_circles: dict[int, list[int]] = {r: [] for r in comp_chi}
    for ci, nodes in enumerate(circle_nodes):
        roots = {uf.find(x) for x in nodes}
        if len(roots) != 1:
            raise IntegrityError("output circle spans several surface components")
        comp_circles[roots.pop()].append(ci)
    return GlueStructure(
        tuple(
            (tuple(comp_pieces[r]), comp_chi[r], tuple(comp_circles[r]))
            for r in sorted(comp_chi)
        ),
        len(circle_nodes),
    )


def reduce_structure(
    st: GlueStructure, piece_dots: Sequence[int]
) -> dict[tuple[int, ...], AlphaPoly]:
    """Canonical combination for one dot pattern on a glued surface."""
    factors: list[tuple] = []
    for pieces, chi, circs in st.components:
        k = len(circs)
        twice_genus = 2 - k - chi
        if twice_genus < 0 or twice_genus % 2:
            raise IntegrityError(f"impossible component: chi={chi}, boundary={k}")
        dots = 0
        for i in pieces:
            dots += piece_dots[i]
        parts = reduce_component(k, twice_genus // 2, dots)
        if not parts:
            return {}
        factors.append(parts)
    out: dict[tuple[int, ...], AlphaPoly] = {}
    for combo in itertools.product(*factors):
        assign = [0] * st.n_out
        aexp = 0
        coeff = 1
        for (pieces, chi, circs), (part_assign, ae, co) in zip(st.components, combo):
            for c, v in zip(circs, part_assign):
                assign[c] = v
            aexp += ae
            coeff *= co
        key = tuple(assign)
        mono = AlphaPoly._raw({aexp: coeff})
        cur = out.get(key)
        out[key] = mono if cur is None else cur + mono
    return {k: v for k, v in out.items() if v}


def _reduced_terms(st: GlueStructure, piece_dots: tuple[int, ...]) -> dict[tuple[int, ...], AlphaPoly]:
    """reduce_structure, memoised on the structure; callers must not mutate
    the returned dict."""
    out = st.reduced.get(piece_dots)
    if out is None:
        out = st.reduced[piece_dots] = reduce_structure(st, piece_dots)
    return out


def reduce_glued(
    piece_chi: list[int],
    piece_dots: list[int],
    cells: list[tuple[int, int, int]],
    circle_nodes: list[list[int]],
) -> dict[tuple[int, ...], AlphaPoly]:
    """Reduce a surface glued from pieces to canonical form.

    piece_chi/piece_dots describe the pieces; cells are (piece, piece,
    cell_euler) gluings (1 for intervals, 0 for circles); circle_nodes maps
    each output boundary circle to the pieces it touches.  Returns the
    canonical combination {assignment over output circles: alpha poly}.
    """
    st = glue_structure(
        tuple(piece_chi),
        tuple(cells),
        tuple(tuple(ns) for ns in circle_nodes),
    )
    return reduce_structure(st, piece_dots)


# ---------------------------------------------------------------------------
# Canonical morphisms

_BITS = frozenset((0, 1))


class CanonicalCobordism:
    """A morphism in canonical dotted-disk form with Z[alpha] coefficients."""

    __slots__ = ("source", "target", "terms")

    def __init__(
        self,
        source: ShiftedObject,
        target: ShiftedObject,
        terms: dict[tuple[int, ...], AlphaPoly] | None = None,
    ):
        st, tt = source.tangle, target.tangle
        if (st.m, st.n) != (tt.m, tt.n):
            raise DimensionError("cobordism endpoints have different boundaries")
        self.source = source
        self.target = target
        nc = closure_data(st, tt).n
        self.terms: dict[tuple[int, ...], AlphaPoly] = {}
        for assign, poly in (terms or {}).items():
            if len(assign) != nc or not _BITS.issuperset(assign):
                raise SpinhomError("bad dot assignment")
            if poly:
                self.terms[assign] = poly

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(source: ShiftedObject, target: ShiftedObject) -> "CanonicalCobordism":
        return CanonicalCobordism(source, target, {})

    @staticmethod
    def generator(
        source: ShiftedObject,
        target: ShiftedObject,
        assign: tuple[int, ...],
        coeff: AlphaPoly | int = 1,
    ) -> "CanonicalCobordism":
        if isinstance(coeff, int):
            coeff = AlphaPoly({0: coeff})
        return CanonicalCobordism(source, target, {assign: coeff})

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CanonicalCobordism):
            return NotImplemented
        return (
            self.source == other.source
            and self.target == other.target
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash(
            (self.source, self.target, frozenset((a, p) for a, p in self.terms.items()))
        )

    def __add__(self, other: "CanonicalCobordism") -> "CanonicalCobordism":
        if self.source != other.source or self.target != other.target:
            raise DimensionError("adding cobordisms with different endpoints")
        acc = dict(self.terms)
        for a, p in other.terms.items():
            cur = acc.get(a)
            if cur is None:
                acc[a] = p
                continue
            s = cur + p
            if s:
                acc[a] = s
            else:
                del acc[a]
        return CanonicalCobordism(self.source, self.target, acc)

    def __neg__(self) -> "CanonicalCobordism":
        return CanonicalCobordism(
            self.source, self.target, {a: -p for a, p in self.terms.items()}
        )

    def __sub__(self, other: "CanonicalCobordism") -> "CanonicalCobordism":
        return self + (-other)

    def scale(self, c: AlphaPoly | int) -> "CanonicalCobordism":
        return CanonicalCobordism(
            self.source, self.target, {a: p * c for a, p in self.terms.items()}
        )

    def with_shifts(self, source_shift: int, target_shift: int) -> "CanonicalCobordism":
        """Same underlying surface between reshifted endpoints."""
        return CanonicalCobordism(
            ShiftedObject(self.source.tangle, source_shift),
            ShiftedObject(self.target.tangle, target_shift),
            dict(self.terms),
        )

    def __repr__(self) -> str:
        return (
            f"Cob({self.source.tangle.pairs}+{self.source.tangle.circles}o"
            f" q^{self.source.qshift} -> {self.target.tangle.pairs}"
            f"+{self.target.tangle.circles}o q^{self.target.qshift}: {self.terms})"
        )

    def is_identity_iso(self) -> int | None:
        """Return +1/-1 if this is (+-1) times the undotted identity between
        equal circle-free objects, else None.  Used as the Gaussian
        elimination pivot test."""
        s, t = self.source, self.target
        if s.tangle != t.tangle or s.qshift != t.qshift or s.tangle.circles != 0:
            return None
        if len(self.terms) != 1:
            return None
        (assign, poly), = self.terms.items()
        if any(assign):
            return None
        if poly.coeffs == {0: 1}:
            return 1
        if poly.coeffs == {0: -1}:
            return -1
        return None


def degree(f: CanonicalCobordism) -> int | None:
    """q-degree of a homogeneous canonical cobordism, or None if mixed.

    Per generator: (target shift) - (source shift) - (#closure circles)
    + (m+n)/2 + 2 (#dots) + 4 (alpha exponent).  The zero morphism reports
    degree None as well.
    """
    st, tt = f.source.tangle, f.target.tangle
    base = (
        f.target.qshift
        - f.source.qshift
        - closure_data(st, tt).n
        + (st.m + st.n) // 2
    )
    degs = set()
    for assign, poly in f.terms.items():
        for aexp in poly.coeffs:
            degs.add(base + 2 * sum(assign) + 4 * aexp)
    if len(degs) == 1:
        return degs.pop()
    return None


# ---------------------------------------------------------------------------
# Identity-like constructors


@functools.lru_cache(maxsize=1 << 14)
def identity_cob(obj: ShiftedObject) -> "CanonicalCobordism":
    return dotted_identity(obj, {})


def dotted_identity(
    obj: ShiftedObject, dots: dict[tuple[str, object], int]
) -> CanonicalCobordism:
    """Identity cylinder on obj with dots on selected components.

    Keys of `dots`: ("arc", (p, q)) or ("circ", j); values: dot counts.
    Arc cylinders are disks on their closure circle; circle cylinders are
    annuli and neck-cut into comultiplication sums.
    """
    t = obj.tangle
    cd = closure_data(t, t)
    pieces: list[int] = []
    piece_dots: list[int] = []
    owner: dict[tuple[str, object], int] = {}
    for arc in t.arcs():
        owner[("arc", arc)] = len(pieces)
        pieces.append(1)
        piece_dots.append(0)
    for j in range(t.circles):
        owner[("circ", j)] = len(pieces)
        pieces.append(0)
        piece_dots.append(0)
    for key, d in dots.items():
        if key not in owner:
            raise SpinhomError(f"no component {key} on the object")
        piece_dots[owner[key]] += d
    circle_nodes: list[list[int]] = []
    for cons in cd.constituents:
        nodes = []
        for side, kind, key in cons:
            if kind == "arc":
                nodes.append(owner[("arc", key)])
            else:
                nodes.append(owner[("circ", key)])
        circle_nodes.append(nodes)
    terms = reduce_glued(pieces, piece_dots, [], circle_nodes)
    return CanonicalCobordism(obj, obj, terms)


def dot_at_point(obj: ShiftedObject, p: int, dots: int = 1) -> CanonicalCobordism:
    """Dotted identity with the dots on the component through boundary point p."""
    return dotted_identity(obj, {("arc", obj.tangle.arc_at(p)): dots})


# ---------------------------------------------------------------------------
# The four gluing operations on morphisms


def _disk_structure(
    n_pieces: int,
    cells: list[tuple[int, int, int]],
    circle_nodes: list[list[int]],
) -> GlueStructure:
    """Glue structure of a surface whose pieces are all disks."""
    return glue_structure(
        (1,) * n_pieces, tuple(cells), tuple(tuple(ns) for ns in circle_nodes)
    )


def _glue_terms(
    f: CanonicalCobordism, g: CanonicalCobordism, st: GlueStructure
) -> dict[tuple[int, ...], AlphaPoly]:
    """Shared core: the pieces of st are f's disks, then g's disks."""
    out: dict[tuple[int, ...], AlphaPoly] = {}
    for af, pf in f.terms.items():
        for ag, pg in g.terms.items():
            reduced = _reduced_terms(st, af + ag)
            if not reduced:
                continue
            scalar = pf * pg
            for assign, poly in reduced.items():
                cur = out.get(assign)
                if cur is None:
                    out[assign] = poly * scalar
                    continue
                s = cur + poly * scalar
                if s:
                    out[assign] = s
                else:
                    del out[assign]
    return out


def _nodes_for(cons, cF: ClosureData, cG: ClosureData, nF: int) -> list[int]:
    """Map output-circle constituents to piece indices for `compose`.

    The output closure pairs the outer source object (f's source, its "s"
    side in cF) with the outer target object (g's target, "t" side in cG).
    """
    nodes = []
    for side, kind, key in cons:
        if side == "s":
            nodes.append((cF.src_arc[key] if kind == "arc" else cF.src_circ[key]))
        else:
            nodes.append(nF + (cG.tgt_arc[key] if kind == "arc" else cG.tgt_circ[key]))
    return nodes


@functools.lru_cache(maxsize=1 << 15)
def _compose_structure(a: FlatTangle, b: FlatTangle, c: FlatTangle) -> GlueStructure:
    """Gluing of a -> b disks onto b -> c disks along the whole of b."""
    cF = closure_data(a, b)
    cG = closure_data(b, c)
    cOut = closure_data(a, c)
    cells: list[tuple[int, int, int]] = []
    for arc in b.arcs():
        cells.append((cF.tgt_arc[arc], cF.n + cG.src_arc[arc], 1))
    for j in range(b.circles):
        cells.append((cF.tgt_circ[j], cF.n + cG.src_circ[j], 0))
    circle_nodes = [_nodes_for(cons, cF, cG, cF.n) for cons in cOut.constituents]
    return _disk_structure(cF.n + cG.n, cells, circle_nodes)


def compose(g: CanonicalCobordism, f: CanonicalCobordism) -> CanonicalCobordism:
    """g after f: glue along the full middle object (arcs and circles)."""
    if f.target != g.source:
        raise DimensionError("cobordisms are not composable")
    # unit fast paths: composing with (+-1) undotted identity only rescales
    s = g.is_identity_iso()
    if s is not None:
        return f if s == 1 else f.scale(-1)
    s = f.is_identity_iso()
    if s is not None:
        return g if s == 1 else g.scale(-1)
    st = _compose_structure(f.source.tangle, f.target.tangle, g.target.tangle)
    return CanonicalCobordism(f.source, g.target, _glue_terms(f, g, st))


# -- planar stacking of objects, with provenance ----------------------------


@dataclass(frozen=True)
class StackedObject:
    tangle: FlatTangle
    arc_prov: dict  # result Arc -> list of ("a"/"b", Arc)
    circ_prov: tuple  # per result circle: ("a", j) | ("b", j) | ("new", tuple of ("a"/"b", Arc))


def stack_walk(a: FlatTangle, b: FlatTangle) -> tuple[tuple[int, ...], dict, list]:
    """Walk a over b, gluing a's bottom to b's top.

    Returns the result's pairs, the provenance of each result arc (Arc ->
    list of ("a"/"b", Arc)) and the members of each loop closed in the middle
    (tuples of ("a"/"b", Arc)).  The circles of a and b are not touched.
    """
    if a.n != b.m:
        raise DimensionError(f"cannot stack ({a.m},{a.n}) over ({b.m},{b.n})")
    k = a.n
    m, n = a.m, b.n
    ap, bp = a.pairs, b.pairs
    result = [-1] * (m + n)
    seen_mid = [False] * k
    arc_prov: dict = {}

    def follow(side: str, v: int) -> tuple[int, list]:
        """From free endpoint v (diagram-local index) to the other end."""
        trail = []
        while True:
            w = (ap if side == "a" else bp)[v]
            trail.append((side, (v, w) if v < w else (w, v)))
            if side == "a":
                if w < m:
                    return w, trail
                seen_mid[w - m] = True
                side, v = "b", w - m
            else:
                if w >= k:
                    return m + (w - k), trail
                seen_mid[w] = True
                side, v = "a", m + w

    starts = [("a", i, i) for i in range(m)] + [("b", k + j, m + j) for j in range(n)]
    for side, local, res in starts:
        if result[res] != -1:
            continue
        other, trail = follow(side, local)
        result[res], result[other] = other, res
        arc_prov[(res, other) if res < other else (other, res)] = trail

    loops: list = []
    for i in range(k):
        if seen_mid[i]:
            continue
        members: list = []
        side, v = "a", m + i
        while True:
            w = (ap if side == "a" else bp)[v]
            members.append((side, (v, w) if v < w else (w, v)))
            if side == "a":
                seen_mid[w - m] = True
                side, v = "b", w - m
            else:
                seen_mid[w] = True
                side, v = "a", m + w
            if (side, v) == ("a", m + i):
                break
        loops.append(tuple(members))
    return tuple(result), arc_prov, loops


@functools.lru_cache(maxsize=1 << 14)
def stack_ob(a: FlatTangle, b: FlatTangle) -> StackedObject:
    """Vertical stacking: a over b, gluing a's bottom to b's top."""
    pairs, arc_prov, loops = stack_walk(a, b)
    circ_prov: list = [("a", j) for j in range(a.circles)]
    circ_prov += [("b", j) for j in range(b.circles)]
    circ_prov += [("new", members) for members in loops]
    tangle = FlatTangle(a.m, b.n, pairs, a.circles + b.circles + len(loops))
    return StackedObject(tangle, arc_prov, tuple(circ_prov))


def stack_objects(a: ShiftedObject, b: ShiftedObject) -> ShiftedObject:
    return ShiftedObject(stack_ob(a.tangle, b.tangle).tangle, a.qshift + b.qshift)


def _stacked_circle_nodes(
    sd_src: StackedObject,
    sd_tgt: StackedObject,
    cF: ClosureData,
    cG: ClosureData,
    nF: int,
) -> list[list[int]]:
    cOut = closure_data(sd_src.tangle, sd_tgt.tangle)

    def node_of(side: str, kind: str, key) -> list[int]:
        sd = sd_src if side == "s" else sd_tgt
        nodes = []
        if kind == "arc":
            for which, orig in sd.arc_prov[key]:
                cd = cF if which == "a" else cG
                off = 0 if which == "a" else nF
                nodes.append(off + (cd.src_arc[orig] if side == "s" else cd.tgt_arc[orig]))
        else:
            prov = sd.circ_prov[key]
            if prov[0] == "a":
                nodes.append(cF.src_circ[prov[1]] if side == "s" else cF.tgt_circ[prov[1]])
            elif prov[0] == "b":
                nodes.append(nF + (cG.src_circ[prov[1]] if side == "s" else cG.tgt_circ[prov[1]]))
            else:
                for which, orig in prov[1]:
                    cd = cF if which == "a" else cG
                    off = 0 if which == "a" else nF
                    nodes.append(off + (cd.src_arc[orig] if side == "s" else cd.tgt_arc[orig]))
        return nodes

    circle_nodes = []
    for cons in cOut.constituents:
        nodes: list[int] = []
        for side, kind, key in cons:
            nodes.extend(node_of(side, kind, key))
        circle_nodes.append(nodes)
    return circle_nodes


@functools.lru_cache(maxsize=1 << 15)
def _stack_structure(
    at: FlatTangle, bt: FlatTangle, a2t: FlatTangle, b2t: FlatTangle
) -> GlueStructure:
    """Gluing of at -> a2t disks over bt -> b2t disks along the k vertical
    boundary lines between them."""
    cF = closure_data(at, a2t)
    cG = closure_data(bt, b2t)
    cells = [(cF.point[at.m + i], cF.n + cG.point[i], 1) for i in range(at.n)]
    circle_nodes = _stacked_circle_nodes(
        stack_ob(at, bt), stack_ob(a2t, b2t), cF, cG, cF.n
    )
    return _disk_structure(cF.n + cG.n, cells, circle_nodes)


@functools.lru_cache(maxsize=1 << 15)
def stack(f: CanonicalCobordism, g: CanonicalCobordism) -> CanonicalCobordism:
    """Planar vertical stacking of morphisms: f over g, glued along the
    k vertical boundary lines between them."""
    at, bt = f.source.tangle, g.source.tangle
    if at.n != bt.m:
        raise DimensionError("stacking with mismatched middle boundary")
    a2t, b2t = f.target.tangle, g.target.tangle
    terms = _glue_terms(f, g, _stack_structure(at, bt, a2t, b2t))
    return CanonicalCobordism(
        ShiftedObject(stack_ob(at, bt).tangle, f.source.qshift + g.source.qshift),
        ShiftedObject(stack_ob(a2t, b2t).tangle, f.target.qshift + g.target.qshift),
        terms,
    )


def beside_ob(a: FlatTangle, b: FlatTangle) -> FlatTangle:
    m, n = a.m + b.m, a.n + b.n

    def remap_a(i: int) -> int:
        return i if i < a.m else i + b.m

    def remap_b(i: int) -> int:
        return a.m + i if i < b.m else a.m + a.n + i

    new = [0] * (m + n)
    for i, j in enumerate(a.pairs):
        new[remap_a(i)] = remap_a(j)
    for i, j in enumerate(b.pairs):
        new[remap_b(i)] = remap_b(j)
    return FlatTangle(m, n, tuple(new), a.circles + b.circles)


@functools.lru_cache(maxsize=1 << 15)
def _beside_structure(
    at: FlatTangle, bt: FlatTangle, a2t: FlatTangle, b2t: FlatTangle
) -> GlueStructure:
    """at -> a2t disks beside bt -> b2t disks: no cells, only the output
    circles of the juxtaposed closure."""
    src = beside_ob(at, bt)
    tgt = beside_ob(a2t, b2t)
    cF = closure_data(at, a2t)
    cG = closure_data(bt, b2t)
    cOut = closure_data(src, tgt)
    mm = src.m

    def map_constituent(side: str, kind: str, key) -> int:
        fran, gran = (at, bt) if side == "s" else (a2t, b2t)
        cdf, cdg = (cF, cG)
        if kind == "arc":
            p = key[0]
            left = p < fran.m or (mm <= p < mm + fran.n)

            def back(i: int) -> int:
                if left:
                    return i if i < fran.m else i - gran.m
                return i - fran.m if i < mm else i - fran.m - fran.n

            x, y = back(key[0]), back(key[1])
            orig = (x, y) if x < y else (y, x)
            if left:
                return cdf.src_arc[orig] if side == "s" else cdf.tgt_arc[orig]
            return cF.n + (cdg.src_arc[orig] if side == "s" else cdg.tgt_arc[orig])
        j = key
        if j < fran.circles:
            return cdf.src_circ[j] if side == "s" else cdf.tgt_circ[j]
        j -= fran.circles
        return cF.n + (cdg.src_circ[j] if side == "s" else cdg.tgt_circ[j])

    circle_nodes = []
    for cons in cOut.constituents:
        circle_nodes.append([map_constituent(*c) for c in cons])
    return _disk_structure(cF.n + cG.n, [], circle_nodes)


def beside(f: CanonicalCobordism, g: CanonicalCobordism) -> CanonicalCobordism:
    """Horizontal juxtaposition: f to the left of g (no gluing)."""
    at, bt = f.source.tangle, g.source.tangle
    a2t, b2t = f.target.tangle, g.target.tangle
    terms = _glue_terms(f, g, _beside_structure(at, bt, a2t, b2t))
    return CanonicalCobordism(
        ShiftedObject(beside_ob(at, bt), f.source.qshift + g.source.qshift),
        ShiftedObject(beside_ob(a2t, b2t), f.target.qshift + g.target.qshift),
        terms,
    )


def beside_objects(a: ShiftedObject, b: ShiftedObject) -> ShiftedObject:
    return ShiftedObject(beside_ob(a.tangle, b.tangle), a.qshift + b.qshift)


# -- Markov trace ------------------------------------------------------------


@dataclass(frozen=True)
class TracedObject:
    tangle: FlatTangle
    circ_prov: tuple  # per result circle: ("old", j) | ("new", tuple of ("arc",(p,q))|("closure",i))


@functools.lru_cache(maxsize=1 << 14)
def trace_ob(a: FlatTangle) -> TracedObject:
    """Close top point i to bottom point i around the side."""
    if a.m != a.n:
        raise DimensionError("trace needs equal boundary counts")
    n = a.n
    prov: list = [("old", j) for j in range(a.circles)]
    seen = [False] * (2 * n)
    loops_members = []
    for start in range(2 * n):
        if seen[start]:
            continue
        members = []
        v = start
        while not seen[v]:
            seen[v] = True
            w = a.pairs[v]
            seen[w] = True
            lo, hi = (v, w) if v < w else (w, v)
            members.append(("arc", (lo, hi)))
            closure_i = w % n
            members.append(("closure", closure_i))
            v = (w + n) % (2 * n)
        loops_members.append(tuple(members))
    prov += [("new", ms) for ms in loops_members]
    return TracedObject(FlatTangle(0, 0, (), len(prov)), tuple(prov))


def trace_object(a: ShiftedObject) -> ShiftedObject:
    return ShiftedObject(trace_ob(a.tangle).tangle, a.qshift)


@functools.lru_cache(maxsize=1 << 15)
def _trace_structure(at: FlatTangle, bt: FlatTangle) -> GlueStructure:
    """Gluing of at -> bt disks onto n closure strips, one per strand."""
    n = at.n
    cF = closure_data(at, bt)
    ta = trace_ob(at)
    tb = trace_ob(bt)
    # pieces: cF.n disks from f, then n closure strips
    strip = lambda i: cF.n + i
    cells = []
    for i in range(n):
        cells.append((cF.point[i], strip(i), 1))
        cells.append((cF.point[n + i], strip(i), 1))
    cOut = closure_data(ta.tangle, tb.tangle)

    def nodes_of(side: str, j: int) -> list[int]:
        prov = (ta if side == "s" else tb).circ_prov[j]
        if prov[0] == "old":
            return [cF.src_circ[prov[1]] if side == "s" else cF.tgt_circ[prov[1]]]
        nodes = []
        for kind, key in prov[1]:
            if kind == "arc":
                nodes.append(cF.src_arc[key] if side == "s" else cF.tgt_arc[key])
            else:
                nodes.append(strip(key))
        return nodes

    circle_nodes = []
    for cons in cOut.constituents:
        nodes = []
        for side, kind, key in cons:
            nodes.extend(nodes_of(side, key))
        circle_nodes.append(nodes)
    return _disk_structure(cF.n + n, cells, circle_nodes)


def trace(f: CanonicalCobordism) -> CanonicalCobordism:
    """The Markov trace of a morphism: glue closure strips on both sides."""
    at, bt = f.source.tangle, f.target.tangle
    if at.m != at.n:
        raise DimensionError("trace needs a square morphism")
    st = _trace_structure(at, bt)
    strips = (0,) * at.n
    out: dict[tuple[int, ...], AlphaPoly] = {}
    for af, pf in f.terms.items():
        for assign, poly in _reduced_terms(st, af + strips).items():
            cur = out.get(assign)
            if cur is None:
                out[assign] = poly * pf
                continue
            s = cur + poly * pf
            if s:
                out[assign] = s
            else:
                del out[assign]
    return CanonicalCobordism(
        ShiftedObject(trace_ob(at).tangle, f.source.qshift),
        ShiftedObject(trace_ob(bt).tangle, f.target.qshift),
        out,
    )


# -- duality and reflections -------------------------------------------------


def dualize_ob(a: ShiftedObject) -> ShiftedObject:
    """Reflect about the x-axis and negate the q-shift."""
    return ShiftedObject(a.tangle.flip(), -a.qshift)


def _transport_terms(
    f: CanonicalCobordism,
    new_src: FlatTangle,
    new_tgt: FlatTangle,
    circle_map: list[int],
) -> dict[tuple[int, ...], AlphaPoly]:
    """Permute dot assignments along a bijection old circle i -> new circle
    circle_map[i]."""
    n_new = closure_data(new_src, new_tgt).n
    out = {}
    for assign, poly in f.terms.items():
        new_assign = [0] * n_new
        for i, v in enumerate(assign):
            new_assign[circle_map[i]] = v
        out[tuple(new_assign)] = poly
    return out


def dualize_cob(f: CanonicalCobordism) -> CanonicalCobordism:
    """The contravariant duality functor on a single canonical morphism.

    Swaps source and target, reflects every generator, keeps coefficients.
    Complex-level signs are applied by the caller (spinhom.complexes).
    """
    a, b = f.source.tangle, f.target.tangle
    av, bv = a.flip(), b.flip()
    cd_old = closure_data(a, b)
    cd_new = closure_data(bv, av)
    total = a.m + a.n

    def flip_pt(p: int) -> int:
        return p + a.n if p < a.m else p - a.m

    circle_map = []
    for ci in range(cd_old.n):
        side, kind, key = cd_old.constituents[ci][0]
        if kind == "arc":
            p = flip_pt(key[0])
            circle_map.append(cd_new.point[p])
        else:
            j = key
            circle_map.append(cd_new.tgt_circ[j] if side == "s" else cd_new.src_circ[j])
    terms = _transport_terms(f, bv, av, circle_map)
    return CanonicalCobordism(dualize_ob(f.target), dualize_ob(f.source), terms)


def reflect_x_ob(a: ShiftedObject) -> ShiftedObject:
    """Covariant reflection about the x-axis: no degree reversal."""
    return ShiftedObject(a.tangle.flip(), a.qshift)


def reflect_x_cob(f: CanonicalCobordism) -> CanonicalCobordism:
    a, b = f.source.tangle, f.target.tangle
    af, bf = a.flip(), b.flip()
    cd_old = closure_data(a, b)
    cd_new = closure_data(af, bf)

    def flip_pt(p: int) -> int:
        return p + a.n if p < a.m else p - a.m

    circle_map = []
    for ci in range(cd_old.n):
        side, kind, key = cd_old.constituents[ci][0]
        if kind == "arc":
            circle_map.append(cd_new.point[flip_pt(key[0])])
        else:
            circle_map.append(cd_new.src_circ[key] if side == "s" else cd_new.tgt_circ[key])
    terms = _transport_terms(f, af, bf, circle_map)
    return CanonicalCobordism(reflect_x_ob(f.source), reflect_x_ob(f.target), terms)


def reflect_y_ob(a: ShiftedObject) -> ShiftedObject:
    return ShiftedObject(a.tangle.mirror(), a.qshift)


def reflect_y_cob(f: CanonicalCobordism) -> CanonicalCobordism:
    a, b = f.source.tangle, f.target.tangle
    af, bf = a.mirror(), b.mirror()
    cd_old = closure_data(a, b)
    cd_new = closure_data(af, bf)

    def mirror_pt(p: int) -> int:
        return a.m - 1 - p if p < a.m else a.m + (a.m + a.n - 1 - p)

    circle_map = []
    for ci in range(cd_old.n):
        side, kind, key = cd_old.constituents[ci][0]
        if kind == "arc":
            circle_map.append(cd_new.point[mirror_pt(key[0])])
        else:
            circle_map.append(cd_new.src_circ[key] if side == "s" else cd_new.tgt_circ[key])
    terms = _transport_terms(f, af, bf, circle_map)
    return CanonicalCobordism(reflect_y_ob(f.source), reflect_y_ob(f.target), terms)


# -- surgery (elementary saddle) ----------------------------------------------


def surgery(source: ShiftedObject, x: int, y: int, target_shift: int | None = None) -> CanonicalCobordism:
    """One-handle attachment reconnecting the strands at boundary points
    x and y: arcs x-p(x), y-p(y) become x-y, p(x)-p(y).

    The target shift defaults to source shift (callers adjust afterwards).
    """
    t = source.tangle
    px, py = t.pairs[x], t.pairs[y]
    if x == y:
        raise SpinhomError("surgery needs two distinct points")
    new_pairs = list(t.pairs)
    extra_circle = 0
    if px == y:
        # self-surgery on a single arc: the arc survives, a circle splits off
        extra_circle = 1
    else:
        new_pairs[x], new_pairs[y] = y, x
        new_pairs[px], new_pairs[py] = py, px
    tgt_tangle = FlatTangle(t.m, t.n, tuple(new_pairs), t.circles + extra_circle)
    tgt = ShiftedObject(tgt_tangle, source.qshift if target_shift is None else target_shift)

    # pieces: one strip per source arc, one annulus per source circle, one
    # handle square
    arcs = t.arcs()
    arc_index = {arc: i for i, arc in enumerate(arcs)}
    n_arcs = len(arcs)
    handle = n_arcs + t.circles
    piece_chi = [1] * n_arcs + [0] * t.circles + [1]
    piece_dots = [0] * (n_arcs + t.circles + 1)
    cells = [
        (arc_index[t.arc_at(x)], handle, 1),
        (arc_index[t.arc_at(y)], handle, 1),
    ]
    cOut = closure_data(t, tgt_tangle)

    def nodes_of(side: str, kind: str, key) -> list[int]:
        if side == "s":
            if kind == "arc":
                return [arc_index[key]]
            return [n_arcs + key]
        # target side: arcs attach through shared boundary points; new
        # circles (from self-surgery) sit on the handle
        if kind == "arc":
            return [arc_index[t.arc_at(key[0])], arc_index[t.arc_at(key[1])]]
        j = key
        if j < t.circles:
            return [n_arcs + j]
        return [handle]

    circle_nodes = []
    for cons in cOut.constituents:
        nodes = []
        for side, kind, key in cons:
            nodes.extend(nodes_of(side, kind, key))
        circle_nodes.append(nodes)
    terms = reduce_glued(piece_chi, piece_dots, cells, circle_nodes)
    return CanonicalCobordism(source, tgt, terms)


# -- caps, cups, eta and the n-fold saddle ------------------------------------


def cap_off_circles(tgt: ShiftedObject, dots_per_circle: tuple[int, ...] | None = None) -> CanonicalCobordism:
    """The disk-filling generator from the empty diagram into a closed object."""
    t = tgt.tangle
    if t.m or t.n:
        raise DimensionError("can only cap into a closed object")
    src = ShiftedObject(FlatTangle.empty(), 0)
    cd = closure_data(FlatTangle.empty(), t)
    assign = [0] * cd.n
    if dots_per_circle:
        for j, d in enumerate(dots_per_circle):
            aexp, eps = divmod(d, 2)
            if aexp:
                raise SpinhomError("cap constructor takes 0/1 dots")
            assign[cd.tgt_circ[j]] = eps
    return CanonicalCobordism.generator(src, tgt, tuple(assign))


def eta(a: FlatTangle) -> CanonicalCobordism:
    """eta_a : empty -> a (x) a_dual, the n disjoint capping disks.

    a must be an indecomposable diagram in Cob^0_{2n} (no circles).
    """
    if a.m != 0 or a.circles != 0:
        raise SpinhomError("eta needs a circle-free diagram with boundary below")
    target = stack_objects(ShiftedObject(a), dualize_ob(ShiftedObject(a)))
    return cap_off_circles(target)


def saddle_to_identity(a: FlatTangle) -> CanonicalCobordism:
    """s_a : a_dual (x) a -> 1_{2n}, built as a chain of elementary surgeries."""
    if a.m != 0 or a.circles != 0:
        raise SpinhomError("saddle needs a circle-free diagram with boundary below")
    n2 = a.n
    src = stack_objects(dualize_ob(ShiftedObject(a)), ShiftedObject(a))
    result = identity_cob(src)
    current = src
    for p, _q in a.arcs():
        pt_top = p
        pt_bot = n2 + p
        step = surgery(current, pt_top, pt_bot)
        result = compose(step, result)
        current = step.target
    if current.tangle != FlatTangle.identity(n2):
        raise IntegrityError("saddle chain did not reach the identity tangle")
    return result


def merge_trace_saddle(a: FlatTangle, b: FlatTangle) -> CanonicalCobordism:
    """The n-handle merge Tr(a) | b  ->  a (x) b.

    One handle per strand position joins the Markov closure of a, sitting
    beside b, onto b's strands; the result of the surgery is the vertical
    stacking of a over b.  Used by the unknot action on projectors.
    """
    if a.m != a.n or b.m != b.n or a.n != b.m:
        raise DimensionError("merge saddle needs square diagrams of equal arity")
    n = a.n
    ta = trace_ob(a)
    source = beside_ob(ta.tangle, b)
    sd = stack_ob(a, b)
    target = sd.tangle

    # pieces: strips per source arc (= b's arcs), annuli per source circle
    # (Tr(a)'s circles then b's), then n handles
    arcs = source.arcs()
    arc_index = {arc: i for i, arc in enumerate(arcs)}
    n_arcs = len(arcs)
    n_tra_circ = ta.tangle.circles
    piece_chi = [1] * n_arcs + [0] * source.circles + [1] * n
    piece_dots = [0] * len(piece_chi)

    def tra_circle_node(j: int) -> int:
        return n_arcs + j

    def b_circle_node(j: int) -> int:
        return n_arcs + n_tra_circ + j

    def handle_node(i: int) -> int:
        return n_arcs + source.circles + i

    # which Tr(a) circle contains closure arc i / an arc of a
    closure_circle = {}
    a_arc_circle = {}
    for j, prov in enumerate(ta.circ_prov):
        if prov[0] == "new":
            for kind, key in prov[1]:
                if kind == "closure":
                    closure_circle[key] = j
                else:
                    a_arc_circle[key] = j

    cells = []
    for i in range(n):
        cells.append((handle_node(i), tra_circle_node(closure_circle[i]), 1))
        cells.append((handle_node(i), arc_index[b.arc_at(i)], 1))

    cOut = closure_data(source, target)

    def nodes_of(side: str, kind: str, key) -> list[int]:
        if side == "s":
            if kind == "arc":
                return [arc_index[key]]
            j = key
            return [tra_circle_node(j)] if j < n_tra_circ else [b_circle_node(j - n_tra_circ)]
        if kind == "arc":
            # target arcs share the boundary points with source arcs
            return [arc_index[source.arc_at(key[0])], arc_index[source.arc_at(key[1])]]
        prov = sd.circ_prov[key]
        if prov[0] == "a":
            return [tra_circle_node(ta.circ_prov.index(("old", prov[1])))]
        if prov[0] == "b":
            return [b_circle_node(prov[1])]
        nodes = []
        for which, orig in prov[1]:
            if which == "b":
                nodes.append(arc_index[orig])
            else:
                nodes.append(tra_circle_node(a_arc_circle[orig]))
        return nodes

    circle_nodes = []
    for cons in cOut.constituents:
        nodes = []
        for side, kind, key in cons:
            nodes.extend(nodes_of(side, kind, key))
        circle_nodes.append(nodes)
    terms = reduce_glued(piece_chi, piece_dots, cells, circle_nodes)
    return CanonicalCobordism(ShiftedObject(source), ShiftedObject(target), terms)


# spec-facing operation aliases
compose_cob = compose
stack_cob = stack
beside_cob = beside
trace_cob = trace
saddle = saddle_to_identity
