"""The Bar-Natan cobordism category of flat tangles and dotted cobordisms.

Objects are flat tangles: planar matchings of m top and n bottom points
plus a count of closed circles.  Point convention: indices 0..m-1 run along
the top from left to right, indices m..m+n-1 along the bottom from left to
right.  Walking the boundary circularly (top left to right, then bottom
right to left) a planar matching is exactly a balanced bracket sequence,
which is checked by a stack scan.  The Temperley-Lieb oracle (spinhom.tl)
keys its elements by circle-free flat tangles.  Flat tangles are interned
(hash-consed, see FlatTangle): one object per value, validated once, equal
by identity and hashed by value, so the gluing caches compare their keys
by identity while every dict and set order stays that of the value.
Morphisms are kept in canonical form throughout: neck-cutting and the
sphere/handle relations reduce any dotted cobordism to a Z[alpha]-linear
combination of unions of disks, one disk per closure circle of the glued
pair (source, target), each disk carrying 0 or 1 dots.  A morphism is its
term dict (Terms), {dot assignment -> alpha-polynomial}, the one morphism
format of the package; its source and target are carried by the caller (a
complex's chain groups), and the functions here take them as arguments.

All geometric operations (composition, planar stacking, juxtaposition,
Markov trace, surgery saddles, dotted identities) funnel through one
reduction routine: glue surface pieces along interval or circle cells, find
connected components by union-find, read off Euler characteristic and
genus, and split each component into per-circle disks using the Frobenius
structure X^2 = alpha, Delta(1) = 1 (x) X + X (x) 1,
Delta(X) = X (x) X + alpha 1 (x) 1.  Every one of them tells the routine
which component each output circle lies on by the same boundary-point
rule (_circle_nodes): the pieces at both ends of each arc of the output
closure, and one piece for each free circle, a loop closed by stacking or
tracing being named by one of its points.  Duality and the reflections
move dot assignments along a boundary-point bijection in the same way.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Callable, Sequence

from .errors import DimensionError, IntegrityError, SpinhomError
from .laurent import LaurentPoly
from .record import dataclass, field

# Alpha-polynomials share the sparse-dict implementation; the variable is
# alpha (q-degree 4), not q.
AlphaPoly = LaurentPoly

Arc = tuple[int, int]
# A morphism's canonical form: {dot assignment over closure circles: coefficient}
Terms = dict[tuple[int, ...], AlphaPoly]


def _check_planar_pairs(m: int, n: int, pairs: tuple[int, ...]) -> bool:
    order = list(range(m)) + list(range(m + n - 1, m - 1, -1))
    pos = {p: k for k, p in enumerate(order)}
    unclosed: list[int] = []
    for p in order:
        q = pairs[p]
        if pos[q] > pos[p]:
            unclosed.append(p)
        else:
            if not unclosed or unclosed.pop() != q:
                return False
    return not unclosed


def _check_tangle(m: int, n: int, pairs: tuple[int, ...], circles: int) -> None:
    if m < 0 or n < 0:
        raise DimensionError("negative boundary count")
    if (m + n) % 2 != 0:
        raise DimensionError("odd number of boundary points")
    if len(pairs) != m + n:
        raise DimensionError("pairing length mismatch")
    if circles < 0:
        raise SpinhomError("negative circle count")
    p = pairs
    if not all(0 <= p[i] < len(p) and p[i] != i and p[p[i]] == i for i in range(len(p))):
        raise SpinhomError("pairing is not a fixed-point-free involution")
    if not _check_planar_pairs(m, n, p):
        raise SpinhomError("pairing is not planar")


# The intern table: (m, n, pairs, circles) -> the one FlatTangle of that value.
_interned: dict[tuple[int, int, tuple[int, ...], int], "FlatTangle"] = {}


def _flip_point(t: FlatTangle) -> Callable[[int], int]:
    """Boundary-point map of the reflection about the x-axis (FlatTangle.flip)."""
    return lambda p: p + t.n if p < t.m else p - t.m


def _mirror_point(t: FlatTangle) -> Callable[[int], int]:
    """Boundary-point map of the reflection about the y-axis (FlatTangle.mirror)."""
    return lambda p: t.m - 1 - p if p < t.m else 2 * t.m + t.n - 1 - p


@dataclass(frozen=True, eq=False, init=False)
class FlatTangle:
    """A crossingless 1-manifold in the square: object of Cob^m_n.

    Tangles are interned: each value is one object.  The constructor looks
    the value up in a module table and validates it only when it is first
    made, so a value that fails is never stored.  Equality is therefore
    identity; the hash is the value hash hash((m, n, pairs, circles)), the
    one the generated dataclass hash gave, so dict and set orders do not
    depend on interning.  Copies and pickles come back through the
    constructor, to the same object."""

    m: int
    n: int
    pairs: tuple[int, ...]
    circles: int = 0

    def __new__(cls, m: int, n: int, pairs: tuple[int, ...], circles: int = 0) -> "FlatTangle":
        key = (m, n, pairs, circles)
        t = _interned.get(key)
        if t is None:
            _check_tangle(m, n, pairs, circles)
            t = object.__new__(cls)
            t.__dict__.update(m=m, n=n, pairs=pairs, circles=circles, _hash=hash(key))
            _interned[key] = t
        return t

    # Tangles key every gluing cache, so the hash is computed once.
    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (FlatTangle, (self.m, self.n, self.pairs, self.circles))

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
        return self._moved(_flip_point(self), self.n, self.m)

    def mirror(self) -> "FlatTangle":
        return self._moved(_mirror_point(self), self.m, self.n)

    def _moved(self, point_map: Callable[[int], int], m: int, n: int) -> "FlatTangle":
        """This tangle carried along a boundary-point bijection onto Cob^m_n."""
        new = [0] * (m + n)
        for i, j in enumerate(self.pairs):
            new[point_map(i)] = point_map(j)
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
        # tangles are interned, so equal tangles are one object
        return self.tangle is other.tangle and self.qshift == other.qshift

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

    Circles through boundary points come first, ordered by their smallest
    point; then source free circles, then target free circles, each in
    index order.  An arc of either tangle lies on the circle point[p] of
    either of its ends p.
    """

    n: int
    src_circ: tuple[int, ...]
    tgt_circ: tuple[int, ...]
    point: tuple[int, ...]  # boundary point -> circle index


def closure_walk(a: FlatTangle, b: FlatTangle) -> tuple[list[int], int]:
    """The circles through boundary points of the closure of a against b:
    the circle through each boundary point, numbered in order of their
    smallest points, and their count; free circles are not counted.

    Uncached and unchecked (a and b must have the same boundary): the
    oracle's trace pairing (spinhom.tl.trace_pairing) walks thousands of
    distinct pairs once each.
    """
    ap, bp = a.pairs, b.pairs
    point_map = [-1] * len(ap)
    n = 0
    for start in range(len(ap)):
        if point_map[start] >= 0:
            continue
        p = start
        # alternate: source arc, then target arc, until back at start
        while point_map[p] < 0:
            q = ap[p]
            point_map[p] = point_map[q] = n
            p = bp[q]
        n += 1
    return point_map, n


@functools.lru_cache(maxsize=1 << 14)
def closure_data(a: FlatTangle, b: FlatTangle) -> ClosureData:
    if (a.m, a.n) != (b.m, b.n):
        raise DimensionError("closure requires matching boundary counts")
    point_map, n = closure_walk(a, b)
    return ClosureData(
        n=n + a.circles + b.circles,
        src_circ=tuple(range(n, n + a.circles)),
        tgt_circ=tuple(range(n + a.circles, n + a.circles + b.circles)),
        point=tuple(point_map),
    )


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


def _find(parent: list[int], x: int) -> int:
    """The class of x in the union-find forest `parent`, halving its path."""
    while parent[x] != x:
        parent[x] = x = parent[parent[x]]
    return x


def _union(parent: list[int], a: int, b: int) -> bool:
    """Join the class of b to that of a, whose root survives; whether they
    were apart."""
    a, b = _find(parent, a), _find(parent, b)
    parent[b] = a
    return a != b


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
    parent = list(range(n_pieces))
    for u, v, _ in cells:
        _union(parent, u, v)
    comp_chi: dict[int, int] = {}
    comp_pieces: dict[int, list[int]] = {}
    for i in range(n_pieces):
        r = _find(parent, i)
        comp_chi[r] = comp_chi.get(r, 0) + piece_chi[i]
        comp_pieces.setdefault(r, []).append(i)
    for u, v, chi_cell in cells:
        comp_chi[_find(parent, u)] -= chi_cell
    comp_circles: dict[int, list[int]] = {r: [] for r in comp_chi}
    for ci, nodes in enumerate(circle_nodes):
        roots = {_find(parent, x) for x in nodes}
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
# Morphisms as term dicts

_BITS = frozenset((0, 1))


def check_terms(source: ShiftedObject, target: ShiftedObject, terms: Terms) -> None:
    """Raise unless source and target share a boundary and every dot
    assignment of terms has one bit per closure circle of source -> target."""
    st, tt = source.tangle, target.tangle
    if (st.m, st.n) != (tt.m, tt.n):
        raise DimensionError("cobordism endpoints have different boundaries")
    nc = closure_data(st, tt).n
    for assign in terms:
        if len(assign) != nc or not _BITS.issuperset(assign):
            raise SpinhomError("bad dot assignment")


def add_terms(x: Terms, y: Terms) -> Terms:
    """x + y as a new dict, zero coefficients dropped."""
    acc = dict(x)
    for a, p in y.items():
        cur = acc.get(a)
        if cur is None:
            acc[a] = p
            continue
        s = cur + p
        if s:
            acc[a] = s
        else:
            del acc[a]
    return acc


def scale_terms(terms: Terms, c: AlphaPoly | int) -> Terms:
    """terms times c.  Term dicts are never mutated, so c = 1 hands back
    terms itself."""
    if c == 1:
        return terms
    if c == -1:
        return {a: -p for a, p in terms.items()}
    return {a: p * c for a, p in terms.items()}


def iso_sign(source: ShiftedObject, target: ShiftedObject, terms: Terms) -> int | None:
    """+1/-1 if terms from source to target are (+-1) times the undotted
    identity between equal circle-free objects, else None.  The Gaussian
    elimination pivot test."""
    if len(terms) != 1 or source.tangle.circles != 0 or source != target:
        return None
    (assign, poly), = terms.items()
    if any(assign):
        return None
    if poly.coeffs == {0: 1}:
        return 1
    if poly.coeffs == {0: -1}:
        return -1
    return None


def degree(source: ShiftedObject, target: ShiftedObject, terms: Terms) -> int | None:
    """q-degree of homogeneous terms from source to target, or None if
    mixed.

    Per generator: (target shift) - (source shift) - (#closure circles)
    + (m+n)/2 + 2 (#dots) + 4 (alpha exponent).  The zero morphism reports
    degree None as well.
    """
    st, tt = source.tangle, target.tangle
    base = (
        target.qshift
        - source.qshift
        - closure_data(st, tt).n
        + (st.m + st.n) // 2
    )
    degs = set()
    for assign, poly in terms.items():
        for aexp in poly.coeffs:
            degs.add(base + 2 * sum(assign) + 4 * aexp)
    if len(degs) == 1:
        return degs.pop()
    return None


# ---------------------------------------------------------------------------
# The boundary-point rule


def _circle_nodes(
    src: FlatTangle,
    tgt: FlatTangle,
    src_at: Sequence[int],
    tgt_at: Sequence[int],
    src_circ: Sequence[int],
    tgt_circ: Sequence[int],
) -> tuple[tuple[int, ...], ...]:
    """Output circles of a gluing with closure (src, tgt), as glue_structure
    takes them.

    Each closure circle gets the pieces at both ends of each of its arcs
    (src_at[p] / tgt_at[p]: the piece carrying the source / target arc at
    boundary point p) and the one piece carrying each of its free circles
    (src_circ[j] / tgt_circ[j]).  An output circle lies on a single surface
    component, so these pieces name that component as well as every piece
    the circle runs over would.
    """
    cd = closure_data(src, tgt)
    nodes: list[list[int]] = [[] for _ in range(cd.n)]
    for p, ci in enumerate(cd.point):
        nodes[ci] += (src_at[p], tgt_at[p])
    for ci, piece in zip(cd.src_circ, src_circ, strict=True):
        nodes[ci].append(piece)
    for ci, piece in zip(cd.tgt_circ, tgt_circ, strict=True):
        nodes[ci].append(piece)
    return tuple(map(tuple, nodes))


# ---------------------------------------------------------------------------
# Identity-like constructors


def identity_terms(obj: ShiftedObject) -> Terms:
    """The terms of the identity of obj.  They do not depend on obj's
    q-shift, so they are cached by its tangle."""
    return _tangle_identity(obj.tangle)


@functools.lru_cache(maxsize=1 << 14)
def _tangle_identity(t: FlatTangle) -> Terms:
    """identity_terms of t at any shift.  Cached: term dicts are never
    mutated."""
    return dotted_identity(ShiftedObject(t), {})


def dotted_identity(obj: ShiftedObject, dots: dict[tuple[str, object], int]) -> Terms:
    """The terms of the identity cylinder on obj with dots on selected
    components.

    Keys of `dots`: ("arc", (p, q)) or ("circ", j); values: dot counts.
    Arc cylinders are disks on their closure circle; circle cylinders are
    annuli and neck-cut into comultiplication sums.
    """
    t = obj.tangle
    arcs = t.arcs()
    owner: dict[tuple[str, object], int] = {("arc", arc): i for i, arc in enumerate(arcs)}
    circs = range(len(arcs), len(arcs) + t.circles)
    owner.update((("circ", j), i) for j, i in enumerate(circs))
    pieces = [1] * len(arcs) + [0] * t.circles
    piece_dots = [0] * len(pieces)
    for key, d in dots.items():
        if key not in owner:
            raise SpinhomError(f"no component {key} on the object")
        piece_dots[owner[key]] += d
    point_piece = [owner[("arc", t.arc_at(p))] for p in range(t.m + t.n)]
    nodes = _circle_nodes(t, t, point_piece, point_piece, circs, circs)
    return reduce_glued(pieces, piece_dots, [], nodes)


def dot_at_point(obj: ShiftedObject, p: int, dots: int = 1) -> Terms:
    """Dotted identity with the dots on the component through boundary point p."""
    return dotted_identity(obj, {("arc", obj.tangle.arc_at(p)): dots})


# ---------------------------------------------------------------------------
# Gluing morphisms: composition, and the planar gluings of the complexes


# the coefficients of the unit polynomial
_UNIT = {0: 1}


def _glue_terms(f: Terms, g: Terms, st: GlueStructure) -> Terms:
    """The one gluing core of compose and of the planar products
    (complexes._planar, through _stack_structure, _beside_structure and
    _trace_structure): the pieces of st are f's disks, then g's pieces
    (g's disks, or trace's strips).

    Multiplying by the unit is skipped on either side, so the result can
    hold the coefficients of f and g and the memoised polynomials of
    st.reduced themselves; that is sound because nothing mutates a
    LaurentPoly in place."""
    out: Terms = {}
    memo = st.reduced
    for af, pf in f.items():
        for ag, pg in g.items():
            dots = af + ag
            reduced = memo.get(dots)
            if reduced is None:
                reduced = memo[dots] = reduce_structure(st, dots)
            if not reduced:
                continue
            if pf.coeffs == _UNIT:
                scalar = pg
            elif pg.coeffs == _UNIT:
                scalar = pf
            else:
                scalar = pf * pg
            unit = scalar.coeffs == _UNIT
            for assign, poly in reduced.items():
                if unit:
                    term = poly
                elif poly.coeffs == _UNIT:
                    term = scalar
                else:
                    term = poly * scalar
                cur = out.get(assign)
                if cur is None:
                    out[assign] = term
                    continue
                s = cur + term
                if s:
                    out[assign] = s
                else:
                    del out[assign]
    return out


def _offset(pieces: Sequence[int], k: int) -> tuple[int, ...]:
    return tuple(k + x for x in pieces)


@functools.lru_cache(maxsize=1 << 15)
def _compose_structure(a: FlatTangle, b: FlatTangle, c: FlatTangle) -> GlueStructure:
    """Gluing of a -> b disks onto b -> c disks along the whole of b."""
    cF = closure_data(a, b)
    cG = closure_data(b, c)
    cells: list[tuple[int, int, int]] = []
    for p, _q in b.arcs():
        cells.append((cF.point[p], cF.n + cG.point[p], 1))
    for j in range(b.circles):
        cells.append((cF.tgt_circ[j], cF.n + cG.src_circ[j], 0))
    nodes = _circle_nodes(
        a, c, cF.point, _offset(cG.point, cF.n), cF.src_circ, _offset(cG.tgt_circ, cF.n)
    )
    return glue_structure((1,) * (cF.n + cG.n), tuple(cells), nodes)


def compose(
    a: ShiftedObject, b: ShiftedObject, c: ShiftedObject,
    f: Terms, g: Terms, f_sign: int | None, g_sign: int | None,
) -> Terms:
    """Terms of g after f, glued along the full middle object (arcs and
    circles), for f: a -> b and g: b -> c with their iso_sign values (a
    caller composing one map with many computes each once).  The result
    may be f or g itself, so it must not be mutated."""
    # unit fast paths: composing with (+-1) undotted identity only rescales
    if g_sign is not None:
        return f if g_sign == 1 else scale_terms(f, -1)
    if f_sign is not None:
        return g if f_sign == 1 else scale_terms(g, -1)
    return _glue_terms(f, g, _compose_structure(a.tangle, b.tangle, c.tangle))


# -- planar stacking of objects ----------------------------------------------


@dataclass(frozen=True)
class StackedObject:
    tangle: FlatTangle
    loops: tuple[int, ...]  # first middle point of each loop closed in the middle


def stack_walk(a: FlatTangle, b: FlatTangle) -> tuple[tuple[int, ...], list[int]]:
    """Walk a over b, gluing a's bottom to b's top.

    Returns the result's pairs and the first middle point of each loop
    closed in the middle, in increasing order; middle point i is a's bottom
    point a.m + i and b's top point i.  The circles of a and b are not
    touched.  A loop is named by one of its points, the boundary-point rule
    every gluing in this module follows.
    """
    if a.n != b.m:
        raise DimensionError(f"cannot stack ({a.m},{a.n}) over ({b.m},{b.n})")
    k = a.n
    m, n = a.m, b.n
    ap, bp = a.pairs, b.pairs
    result = [-1] * (m + n)
    seen_mid = [False] * k

    def follow(side: str, v: int) -> int:
        """From free endpoint v (diagram-local index) to the other end."""
        while True:
            if side == "a":
                w = ap[v]
                if w < m:
                    return w
                seen_mid[w - m] = True
                side, v = "b", w - m
            else:
                w = bp[v]
                if w >= k:
                    return m + (w - k)
                seen_mid[w] = True
                side, v = "a", m + w

    starts = [("a", i, i) for i in range(m)] + [("b", k + j, m + j) for j in range(n)]
    for side, local, res in starts:
        if result[res] == -1:
            other = follow(side, local)
            result[res], result[other] = other, res

    loops: list[int] = []
    for i in range(k):
        if seen_mid[i]:
            continue
        loops.append(i)
        j = i
        while True:
            seen_mid[j] = True
            j = ap[m + j] - m
            seen_mid[j] = True
            j = bp[j]
            if j == i:
                break
    return tuple(result), loops


@functools.lru_cache(maxsize=1 << 14)
def stack_ob(a: FlatTangle, b: FlatTangle) -> StackedObject:
    """Vertical stacking: a over b, gluing a's bottom to b's top.  The
    result's circles are a's, then b's, then the loops closed in the
    middle."""
    pairs, loops = stack_walk(a, b)
    tangle = FlatTangle(a.m, b.n, pairs, a.circles + b.circles + len(loops))
    return StackedObject(tangle, tuple(loops))


def stack_objects(a: ShiftedObject, b: ShiftedObject) -> ShiftedObject:
    return ShiftedObject(stack_ob(a.tangle, b.tangle).tangle, a.qshift + b.qshift)


@functools.lru_cache(maxsize=1 << 15)
def _stack_structure(
    at: FlatTangle, bt: FlatTangle, a2t: FlatTangle, b2t: FlatTangle
) -> GlueStructure:
    """Gluing of at -> a2t disks over bt -> b2t disks along the k vertical
    boundary lines between them."""
    cF = closure_data(at, a2t)
    cG = closure_data(bt, b2t)
    m, k = at.m, at.n
    cells = tuple((cF.point[m + i], cF.n + cG.point[i], 1) for i in range(k))
    point_piece = cF.point[:m] + _offset(cG.point[k:], cF.n)
    src, tgt = stack_ob(at, bt), stack_ob(a2t, b2t)

    def free(sd: StackedObject, f_circ: tuple, g_circ: tuple) -> tuple[int, ...]:
        return f_circ + _offset(g_circ, cF.n) + tuple(cF.point[m + i] for i in sd.loops)

    nodes = _circle_nodes(
        src.tangle,
        tgt.tangle,
        point_piece,
        point_piece,
        free(src, cF.src_circ, cG.src_circ),
        free(tgt, cF.tgt_circ, cG.tgt_circ),
    )
    return glue_structure((1,) * (cF.n + cG.n), cells, nodes)


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


def beside_objects(a: ShiftedObject, b: ShiftedObject) -> ShiftedObject:
    return ShiftedObject(beside_ob(a.tangle, b.tangle), a.qshift + b.qshift)


@functools.lru_cache(maxsize=1 << 15)
def _beside_structure(
    at: FlatTangle, bt: FlatTangle, a2t: FlatTangle, b2t: FlatTangle
) -> GlueStructure:
    """at -> a2t disks beside bt -> b2t disks: no cells, only the output
    circles of the juxtaposed closure."""
    cF = closure_data(at, a2t)
    cG = closure_data(bt, b2t)
    g_points = _offset(cG.point, cF.n)
    # beside_ob's point order: a's top, b's top, a's bottom, b's bottom
    point_piece = cF.point[: at.m] + g_points[: bt.m] + cF.point[at.m :] + g_points[bt.m :]
    nodes = _circle_nodes(
        beside_ob(at, bt),
        beside_ob(a2t, b2t),
        point_piece,
        point_piece,
        cF.src_circ + _offset(cG.src_circ, cF.n),
        cF.tgt_circ + _offset(cG.tgt_circ, cF.n),
    )
    return glue_structure((1,) * (cF.n + cG.n), (), nodes)


# -- Markov trace ------------------------------------------------------------


@dataclass(frozen=True)
class TracedObject:
    tangle: FlatTangle
    circle_at: tuple[int, ...]  # per boundary point of a: the traced circle through it


@functools.lru_cache(maxsize=1 << 14)
def trace_ob(a: FlatTangle) -> TracedObject:
    """Close top point i to bottom point i: the closure of a against the identity.
    The result's circles are a's, then the new loops by their smallest point."""
    cd = closure_data(a, FlatTangle.identity(a.n))
    return TracedObject(FlatTangle.empty(cd.n), tuple(a.circles + c for c in cd.point))


def trace_object(a: ShiftedObject) -> ShiftedObject:
    return ShiftedObject(trace_ob(a.tangle).tangle, a.qshift)


@functools.lru_cache(maxsize=1 << 15)
def _trace_structure(at: FlatTangle, bt: FlatTangle) -> GlueStructure:
    """Gluing of at -> bt disks onto n closure strips, one per strand."""
    n = at.n
    cF = closure_data(at, bt)
    # pieces: cF.n disks from f, then n closure strips
    cells = []
    for i in range(n):
        cells.append((cF.point[i], cF.n + i, 1))
        cells.append((cF.point[n + i], cF.n + i, 1))

    def free(tr: TracedObject, f_circ: tuple) -> tuple[int, ...]:
        loops: dict[int, int] = {}
        for p, ci in enumerate(tr.circle_at):
            loops.setdefault(ci, cF.point[p])
        return f_circ + tuple(loops.values())

    ta, tb = trace_ob(at), trace_ob(bt)
    nodes = _circle_nodes(ta.tangle, tb.tangle, (), (), free(ta, cF.src_circ), free(tb, cF.tgt_circ))
    return glue_structure((1,) * (cF.n + n), tuple(cells), nodes)


# -- duality and reflections -------------------------------------------------


def _transport(
    source: ShiftedObject,
    target: ShiftedObject,
    terms: Terms,
    new_source: FlatTangle,
    new_target: FlatTangle,
    point_map: Callable[[int], int],
    swap: bool,
) -> Terms:
    """The terms of source -> target carried to new_source -> new_target
    along the boundary-point bijection point_map.  Each closure circle goes
    where one of its points goes; free circles keep their index, on the
    other side when swap is set."""
    old = closure_data(source.tangle, target.tangle)
    new = closure_data(new_source, new_target)
    circle_map = [0] * old.n
    for p, ci in enumerate(old.point):
        circle_map[ci] = new.point[point_map(p)]
    src_circ, tgt_circ = (new.tgt_circ, new.src_circ) if swap else (new.src_circ, new.tgt_circ)
    for ci, cj in zip(old.src_circ, src_circ, strict=True):
        circle_map[ci] = cj
    for ci, cj in zip(old.tgt_circ, tgt_circ, strict=True):
        circle_map[ci] = cj
    out = {}
    for assign, poly in terms.items():
        new_assign = [0] * new.n
        for i, v in enumerate(assign):
            new_assign[circle_map[i]] = v
        out[tuple(new_assign)] = poly
    return out


def dualize_ob(a: ShiftedObject) -> ShiftedObject:
    """Reflect about the x-axis and negate the q-shift."""
    return ShiftedObject(a.tangle.flip(), -a.qshift)


def dualize_terms(source: ShiftedObject, target: ShiftedObject, terms: Terms) -> Terms:
    """The contravariant duality functor on the terms of a morphism source
    -> target: the terms of dualize_ob(target) -> dualize_ob(source), every
    generator reflected and the coefficients kept.  Complex-level signs are
    applied by the caller (spinhom.complexes)."""
    st, tt = source.tangle, target.tangle
    return _transport(source, target, terms, tt.flip(), st.flip(), _flip_point(st), True)


def reflect_x_ob(a: ShiftedObject) -> ShiftedObject:
    """Covariant reflection about the x-axis: no degree reversal."""
    return ShiftedObject(a.tangle.flip(), a.qshift)


def reflect_x_terms(source: ShiftedObject, target: ShiftedObject, terms: Terms) -> Terms:
    """The terms of reflect_x_ob(source) -> reflect_x_ob(target)."""
    st, tt = source.tangle, target.tangle
    return _transport(source, target, terms, st.flip(), tt.flip(), _flip_point(st), False)


def reflect_y_ob(a: ShiftedObject) -> ShiftedObject:
    return ShiftedObject(a.tangle.mirror(), a.qshift)


def reflect_y_terms(source: ShiftedObject, target: ShiftedObject, terms: Terms) -> Terms:
    """The terms of reflect_y_ob(source) -> reflect_y_ob(target)."""
    st, tt = source.tangle, target.tangle
    return _transport(source, target, terms, st.mirror(), tt.mirror(), _mirror_point(st), False)


# -- surgery (elementary saddle) ----------------------------------------------


def surgery(source: ShiftedObject, x: int, y: int) -> tuple[ShiftedObject, Terms]:
    """One-handle attachment reconnecting the strands at boundary points
    x and y: arcs x-p(x), y-p(y) become x-y, p(x)-p(y).  Returns the
    target, with the source's q-shift, and the terms."""
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
    tgt = ShiftedObject(tgt_tangle, source.qshift)

    # pieces: one strip per source arc, one annulus per source circle, one
    # handle square.  Target arcs share their boundary points with source
    # arcs; the circle split off by self-surgery sits on the handle.
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
    point_piece = [arc_index[t.arc_at(p)] for p in range(t.m + t.n)]
    circs = list(range(n_arcs, handle))
    nodes = _circle_nodes(
        t, tgt_tangle, point_piece, point_piece, circs, circs + [handle] * extra_circle
    )
    return tgt, reduce_glued(piece_chi, piece_dots, cells, nodes)


# -- caps, cups, eta and the n-fold saddle ------------------------------------


def cap_off_circles(tgt: ShiftedObject, dots_per_circle: tuple[int, ...] | None = None) -> Terms:
    """The disk-filling generator from the empty diagram into a closed object."""
    t = tgt.tangle
    if t.m or t.n:
        raise DimensionError("can only cap into a closed object")
    cd = closure_data(FlatTangle.empty(), t)
    assign = [0] * cd.n
    if dots_per_circle:
        for j, d in enumerate(dots_per_circle):
            aexp, eps = divmod(d, 2)
            if aexp:
                raise SpinhomError("cap constructor takes 0/1 dots")
            assign[cd.tgt_circ[j]] = eps
    return {tuple(assign): AlphaPoly.one()}


def eta(a: FlatTangle) -> Terms:
    """eta_a : empty -> a (x) a_dual, the n disjoint capping disks.

    a must be an indecomposable diagram in Cob^0_{2n} (no circles).
    """
    if a.m != 0 or a.circles != 0:
        raise SpinhomError("eta needs a circle-free diagram with boundary below")
    target = stack_objects(ShiftedObject(a), dualize_ob(ShiftedObject(a)))
    return cap_off_circles(target)


def saddle_to_identity(a: FlatTangle) -> Terms:
    """s_a : a_dual (x) a -> 1_{2n}, built as a chain of elementary surgeries."""
    if a.m != 0 or a.circles != 0:
        raise SpinhomError("saddle needs a circle-free diagram with boundary below")
    n2 = a.n
    src = stack_objects(dualize_ob(ShiftedObject(a)), ShiftedObject(a))
    terms = identity_terms(src)
    current = src
    for p, _q in a.arcs():
        step_target, step = surgery(current, p, n2 + p)
        terms = compose(
            src, current, step_target, terms, step,
            iso_sign(src, current, terms), iso_sign(current, step_target, step),
        )
        current = step_target
    if current.tangle != FlatTangle.identity(n2):
        raise IntegrityError("saddle chain did not reach the identity tangle")
    return terms


def merge_trace_saddle(a: FlatTangle, b: FlatTangle) -> Terms:
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

    # pieces: strips per source arc (= b's arcs), annuli per source circle
    # (Tr(a)'s circles then b's), then n handles.  Handle i joins the Tr(a)
    # circle through strand i to b's arc at top point i.
    arcs = source.arcs()
    arc_index = {arc: i for i, arc in enumerate(arcs)}
    n_arcs = len(arcs)
    handle = n_arcs + source.circles
    piece_chi = [1] * n_arcs + [0] * source.circles + [1] * n
    piece_dots = [0] * len(piece_chi)
    cells = []
    for i in range(n):
        cells.append((handle + i, n_arcs + ta.circle_at[i], 1))
        cells.append((handle + i, arc_index[b.arc_at(i)], 1))

    # target arcs share their boundary points with source arcs; the target's
    # circles are a's (Tr(a)'s first circles), b's, then the loops closed in
    # the middle, each of which runs over b's arc at its first middle point
    point_piece = [arc_index[source.arc_at(p)] for p in range(source.m + source.n)]
    src_circ = list(range(n_arcs, handle))
    tgt_circ = src_circ[: a.circles] + src_circ[ta.tangle.circles :]
    tgt_circ += [point_piece[i] for i in sd.loops]
    nodes = _circle_nodes(source, sd.tangle, point_piece, point_piece, src_circ, tgt_circ)
    return reduce_glued(piece_chi, piece_dots, cells, nodes)
