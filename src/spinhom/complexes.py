"""Window-truncated chain complexes over the Bar-Natan categories.

A ChainComplex stores, per homological degree inside a finite window, a
list of shifted flat tangles and a sparse matrix differential of canonical
cobordisms.  Everything held is an honest finite complex (d*d = 0 on the
nose); `tail_lo`/`tail_hi` record that the complex is a truncation of an
ideal semi-infinite object, and `reliable` is the advisory band of degrees
free of truncation artifacts.

Planar composition uses the Koszul sign rule with signs attached to the
left argument's homological degree; cone and shift signs follow the
convention that the shifted complex carries -d.
"""

from __future__ import annotations

import functools
import itertools

from . import cob
from .cob import (
    AlphaPoly,
    CanonicalCobordism,
    FlatTangle,
    ShiftedObject,
    closure_data,
    degree as cob_degree,
)
from .errors import DimensionError, IntegrityError, ResourceError, SpinhomError
from .homology import ModuleComplex
from .record import dataclass, replace

NEG_INF = float("-inf")
POS_INF = float("inf")


@dataclass(frozen=True)
class Window:
    lo: int
    hi: int

    def __post_init__(self):
        if self.lo > self.hi:
            raise SpinhomError(f"empty window [{self.lo}, {self.hi}]")

    def __add__(self, other: "Window") -> "Window":
        return Window(self.lo + other.lo, self.hi + other.hi)

    def __neg__(self) -> "Window":
        return Window(-self.hi, -self.lo)

    def contains(self, k: int) -> bool:
        return self.lo <= k <= self.hi


Matrix = dict[tuple[int, int], CanonicalCobordism]


@dataclass
class ChainComplex:
    m: int
    n: int
    window: Window
    groups: dict[int, list[ShiftedObject]]
    diff: dict[int, Matrix]
    tail_lo: bool = False
    tail_hi: bool = False
    reliable: tuple[float, float] = (NEG_INF, POS_INF)

    def __post_init__(self):
        self.groups = {k: v for k, v in self.groups.items() if v}
        self.diff = {
            k: {rc: f for rc, f in mat.items() if not f.is_zero()}
            for k, mat in self.diff.items()
        }
        self.diff = {k: mat for k, mat in self.diff.items() if mat}

    # -- basic inspection ----------------------------------------------------

    def objects(self, k: int) -> list[ShiftedObject]:
        return self.groups.get(k, [])

    def entry(self, k: int, r: int, c: int) -> CanonicalCobordism | None:
        return self.diff.get(k, {}).get((r, c))

    def support(self) -> list[int]:
        return sorted(self.groups)

    def max_degree(self) -> float:
        return max(self.groups) if self.groups else NEG_INF

    def min_degree(self) -> float:
        return min(self.groups) if self.groups else POS_INF

    def graded_objects(self) -> dict[int, list[tuple]]:
        """Canonical multiset description of the chain groups."""
        return {
            k: sorted(o.sort_key() for o in objs) for k, objs in self.groups.items()
        }

    def validate(self) -> None:
        """Check consistency: endpoints, q-degree-0 homogeneity, d.d = 0."""
        for k, mat in self.diff.items():
            src = self.objects(k)
            tgt = self.objects(k + 1)
            for (r, c), f in mat.items():
                if c >= len(src) or r >= len(tgt):
                    raise IntegrityError("differential entry out of range")
                if f.source != src[c] or f.target != tgt[r]:
                    raise IntegrityError("differential entry endpoints mismatch")
                if cob_degree(f) != 0:
                    raise IntegrityError(
                        f"differential entry of q-degree {cob_degree(f)} at {k}"
                    )
        for k in sorted(self.diff):
            if k + 1 not in self.diff:
                continue
            prod = _mat_mul(self.diff[k + 1], self.diff[k])
            for rc, f in prod.items():
                if not f.is_zero():
                    raise IntegrityError(f"d.d != 0 at degree {k}, entry {rc}")


def _by_column(mat: Matrix) -> dict[int, list[tuple[int, CanonicalCobordism]]]:
    """Column -> [(row, entry)] of a matrix, each list in the matrix's order."""
    cols: dict[int, list[tuple[int, CanonicalCobordism]]] = {}
    for (r, c), f in mat.items():
        cols.setdefault(c, []).append((r, f))
    return cols


def _mat_mul(g_mat: Matrix, f_mat: Matrix) -> Matrix:
    """(g.f)[r, c] = sum_j g[r, j] f[j, c], f applied first."""
    acc: Matrix = {}
    g_by_col = _by_column(g_mat)
    for (j, c), f in f_mat.items():
        for r, g in g_by_col.get(j, ()):
            term = cob.compose(g, f)
            if term.is_zero():
                continue
            if (r, c) in acc:
                acc[(r, c)] = acc[(r, c)] + term
            else:
                acc[(r, c)] = term
    return {rc: v for rc, v in acc.items() if not v.is_zero()}


# ---------------------------------------------------------------------------
# Constructors


def single_object(obj: ShiftedObject, m: int, n: int) -> ChainComplex:
    return ChainComplex(m, n, Window(0, 0), {0: [obj]}, {})


def from_tangle(t: FlatTangle, qshift: int = 0) -> ChainComplex:
    return single_object(ShiftedObject(t, qshift), t.m, t.n)


def identity_complex(n: int) -> ChainComplex:
    return from_tangle(FlatTangle.identity(n))


# ---------------------------------------------------------------------------
# Chain maps


@dataclass
class ChainMap:
    """Degree-(hdeg, qdeg) collection of matrices source^k -> target^{k+hdeg}."""

    source: ChainComplex
    target: ChainComplex
    hdeg: int
    qdeg: int
    mats: dict[int, Matrix]

    def __post_init__(self):
        dirty = any(
            f.is_zero() for mat in self.mats.values() for f in mat.values()
        ) or any(not mat for mat in self.mats.values())
        if dirty:
            self.mats = {
                k: {rc: f for rc, f in mat.items() if not f.is_zero()}
                for k, mat in self.mats.items()
            }
            self.mats = {k: mat for k, mat in self.mats.items() if mat}

    def validate(self) -> None:
        for k, mat in self.mats.items():
            src = self.source.objects(k)
            tgt = self.target.objects(k + self.hdeg)
            for (r, c), f in mat.items():
                if f.source != src[c] or f.target != tgt[r]:
                    raise IntegrityError("chain map entry endpoints mismatch")
                if cob_degree(f) != self.qdeg:
                    raise IntegrityError(
                        f"chain map entry q-degree {cob_degree(f)} != {self.qdeg}"
                    )

    @staticmethod
    def identity(C: ChainComplex) -> "ChainMap":
        mats = {
            k: {(i, i): cob.identity_cob(o) for i, o in enumerate(objs)}
            for k, objs in C.groups.items()
        }
        return ChainMap(C, C, 0, 0, mats)

    @staticmethod
    def zero(source: ChainComplex, target: ChainComplex, hdeg: int = 0, qdeg: int = 0) -> "ChainMap":
        return ChainMap(source, target, hdeg, qdeg, {})

    def is_zero(self) -> bool:
        return not self.mats

    def __add__(self, other: "ChainMap") -> "ChainMap":
        if (self.hdeg, self.qdeg) != (other.hdeg, other.qdeg):
            raise DimensionError("adding chain maps of different bidegree")
        mats: dict[int, Matrix] = {}
        for k in set(self.mats) | set(other.mats):
            acc = dict(self.mats.get(k, {}))
            for rc, f in other.mats.get(k, {}).items():
                acc[rc] = acc[rc] + f if rc in acc else f
            mats[k] = acc
        return ChainMap(self.source, self.target, self.hdeg, self.qdeg, mats)

    def __neg__(self) -> "ChainMap":
        return self.scale(-1)

    def __sub__(self, other: "ChainMap") -> "ChainMap":
        return self + (-other)

    def scale(self, c: int | AlphaPoly) -> "ChainMap":
        return ChainMap(
            self.source,
            self.target,
            self.hdeg,
            self.qdeg,
            {k: {rc: f.scale(c) for rc, f in mat.items()} for k, mat in self.mats.items()},
        )


def compose_maps(g: ChainMap, f: ChainMap) -> ChainMap:
    """Plain composition g.f (no Koszul sign)."""
    mats: dict[int, Matrix] = {}
    for k, fmat in f.mats.items():
        gmat = g.mats.get(k + f.hdeg)
        if not gmat:
            continue
        prod = _mat_mul(gmat, fmat)
        if prod:
            mats[k] = prod
    return ChainMap(f.source, g.target, f.hdeg + g.hdeg, f.qdeg + g.qdeg, mats)


def commutator_with_d(f: ChainMap) -> ChainMap:
    """[d, f] = d_B . f - (-1)^{|f|} f . d_A."""
    A, B = f.source, f.target
    sign = -1 if f.hdeg % 2 == 0 else 1
    # (-1)^{|f|}: |f| = hdeg; for even hdeg subtract, for odd add.
    mats: dict[int, Matrix] = {}
    for k in set(f.mats) | set(A.diff):
        acc: Matrix = {}
        fmat = f.mats.get(k)
        if fmat:
            dmat = B.diff.get(k + f.hdeg)
            if dmat:
                for rc, v in _mat_mul(dmat, fmat).items():
                    acc[rc] = acc[rc] + v if rc in acc else v
        da = A.diff.get(k)
        fmat2 = f.mats.get(k + 1)
        if da and fmat2:
            for rc, v in _mat_mul(fmat2, da).items():
                w = v.scale(sign)
                acc[rc] = acc[rc] + w if rc in acc else w
        acc = {rc: v for rc, v in acc.items() if not v.is_zero()}
        if acc:
            mats[k] = acc
    return ChainMap(A, B, f.hdeg + 1, f.qdeg, mats)


# ---------------------------------------------------------------------------
# Strong deformation retract data


@dataclass
class Equivalence:
    """SDR data for big = r.source ~ small = r.target: r.i = 1_small,
    1_big - i.r = dH + Hd, with the side conditions rH = 0, Hi = 0,
    H^2 = 0."""

    r: ChainMap
    i: ChainMap
    h: ChainMap  # homotopy on big, hdeg -1


# ---------------------------------------------------------------------------
# Reliability bookkeeping for planar composition


def _support_bounds(C: ChainComplex) -> tuple[float, float]:
    lo = NEG_INF if C.tail_lo else (C.min_degree() if C.groups else 0)
    hi = POS_INF if C.tail_hi else (C.max_degree() if C.groups else 0)
    return lo, hi


def _combine_reliability(A: ChainComplex, B: ChainComplex) -> tuple[float, float]:
    """Degrees k of T(A, B) for which every contributing ideal pair (i, j)
    is stored and reliable.  Conservative, advisory."""
    loA, hiA = _support_bounds(A)
    loB, hiB = _support_bounds(B)
    rlA, rhA = A.reliable
    rlB, rhB = B.reliable
    rlA = max(rlA, A.window.lo if A.tail_lo else NEG_INF)
    rlB = max(rlB, B.window.lo if B.tail_lo else NEG_INF)
    rhA = min(rhA, A.window.hi if A.tail_hi else POS_INF)
    rhB = min(rhB, B.window.hi if B.tail_hi else POS_INF)
    # k reliable iff [max(loA, k-hiB), min(hiA, k-loB)] within [rlA, rhA]
    # and the mirrored condition for j; solve for k conservatively.
    lo_k = NEG_INF
    if rlA > NEG_INF and hiB == POS_INF:
        lo_k = POS_INF  # nothing provably complete below
    elif rlA > NEG_INF:
        lo_k = max(lo_k, rlA + hiB)
    if rlB > NEG_INF and hiA == POS_INF:
        lo_k = POS_INF
    elif rlB > NEG_INF:
        lo_k = max(lo_k, rlB + hiA)
    hi_k = POS_INF
    if rhA < POS_INF and loB == NEG_INF:
        hi_k = NEG_INF
    elif rhA < POS_INF:
        hi_k = min(hi_k, rhA + loB)
    if rhB < POS_INF and loA == NEG_INF:
        hi_k = NEG_INF
    elif rhB < POS_INF:
        hi_k = min(hi_k, rhB + loA)
    return lo_k, hi_k


# ---------------------------------------------------------------------------
# Planar composition of complexes


def product_layout(
    A: ChainComplex, B: ChainComplex, window: Window | None = None
) -> dict[int, list[tuple[int, int, int, int]]]:
    """The summands of a planar product of A and B: per degree k of the
    product's window (and of `window`, when given), the provenances
    (i, j, pa, pb) of object pa of A^i with object pb of B^j, i + j = k, in
    the product's object order."""
    full = A.window + B.window
    lo, hi = full.lo, full.hi
    if window is not None:
        lo, hi = max(lo, window.lo), min(hi, window.hi)
    layout: dict[int, list[tuple[int, int, int, int]]] = {}
    for k in range(lo, hi + 1):
        lay = [
            (i, k - i, pa, pb)
            for i in sorted(A.groups)
            if k - i in B.groups
            for pa in range(len(A.groups[i]))
            for pb in range(len(B.groups[k - i]))
        ]
        if lay:
            layout[k] = lay
    return layout


# A differential with bare term dicts for entries, as the elimination engine
# keeps it: degree -> {(row, column): terms}
TermDiff = dict[int, dict[tuple[int, int], cob.Terms]]


def _columns(mats: dict[int, Matrix]) -> dict[int, dict[int, list[tuple[int, CanonicalCobordism]]]]:
    return {k: _by_column(mat) for k, mat in mats.items()}


def _glue_maps(A: ChainComplex, B: ChainComplex, layout, target_layout, pairs, structure) -> TermDiff:
    """The one planar product of maps, in term dicts: the sum of T(F, G) over
    pairs (F's columns, G's columns, |F|, |G|) of maps on A and on B.  On
    each summand (i, j, pa, pb) of `layout`, each entry f: a -> a2 of F is
    glued to each entry g: b -> b2 of G through structure(a, b, a2, b2)
    with sign (-1)^{i |G|}, into the row of `target_layout` that holds
    (i + |F|, j + |G|, row of f, row of g).  The pairs of one call differ
    in degree, so their entries never share a position."""
    index = {prov: p for lay in target_layout.values() for p, prov in enumerate(lay)}
    glue = cob._glue_terms
    out: TermDiff = {}
    for k, lay in layout.items():
        mat: dict[tuple[int, int], cob.Terms] = {}
        for cpos, (i, j, pa, pb) in enumerate(lay):
            at = A.groups[i][pa].tangle
            bt = B.groups[j][pb].tangle
            for f_cols, g_cols, f_deg, g_deg in pairs:
                odd = i * g_deg % 2
                g_col = g_cols.get(j, {}).get(pb, ())
                for r2, f in f_cols.get(i, {}).get(pa, ()):
                    for r3, g in g_col:
                        r = index.get((i + f_deg, j + g_deg, r2, r3))
                        if r is None:
                            continue
                        st = structure(at, bt, f.target.tangle, g.target.tangle)
                        if terms := glue(f.terms, g.terms, st):
                            mat[(r, cpos)] = cob.scale_terms(terms, -1) if odd else terms
        if mat:
            out[k] = mat
    return out


def _cobordisms(mats: TermDiff, source: ChainComplex, target: ChainComplex, hdeg: int) -> dict[int, Matrix]:
    """The entries of mats, maps of degree hdeg, made cobordisms."""
    s, t = source.groups, target.groups
    return {
        k: {(r, c): CanonicalCobordism(s[k][c], t[k + hdeg][r], f) for (r, c), f in mat.items()}
        for k, mat in mats.items()
    }


def _planar(
    A: ChainComplex, B: ChainComplex, ob_op, structure, out_mn: tuple[int, int],
    window: Window | None = None,
) -> tuple[ChainComplex, TermDiff]:
    """The planar product of complexes: the summands of product_layout
    joined by ob_op, and in term dicts the differential T(d_A, 1) +
    T(1, d_B) of _glue_maps.  Returns the product without its
    differential, and the differential.  With a window, only the summands
    and entries inside it are made: the product clipped to the window,
    with tail_lo set."""
    layout = product_layout(A, B, window)
    groups = {
        k: [ob_op(A.groups[i][pa], B.groups[j][pb]) for i, j, pa, pb in lay]
        for k, lay in layout.items()
    }
    one_A, one_B = (_columns(ChainMap.identity(C).mats) for C in (A, B))
    pairs = ((_columns(A.diff), one_B, 1, 0), (one_A, _columns(B.diff), 0, 1))
    diff = _glue_maps(A, B, layout, layout, pairs, structure)
    shell = ChainComplex(
        out_mn[0],
        out_mn[1],
        A.window + B.window if window is None else window,
        groups,
        {},
        tail_lo=window is not None or A.tail_lo or B.tail_lo,
        tail_hi=A.tail_hi or B.tail_hi,
        reliable=_combine_reliability(A, B),
    )
    return shell, diff


def _with_diff(shell: ChainComplex, diff: TermDiff) -> ChainComplex:
    return replace(shell, diff=_cobordisms(diff, shell, shell, 1))


def _stack(A: ChainComplex, B: ChainComplex, window: Window | None = None) -> tuple[ChainComplex, TermDiff]:
    if A.n != B.m:
        raise DimensionError(f"cannot stack ({A.m},{A.n}) over ({B.m},{B.n})")
    return _planar(A, B, cob.stack_objects, cob._stack_structure, (A.m, B.n), window)


def _trace_structure(at, _bt, a2t, _b2t) -> cob.GlueStructure:
    """at -> a2t glued to the closure strips: the identity on the strands."""
    return cob._trace_structure(at, a2t)


def _trace(A: ChainComplex) -> tuple[ChainComplex, TermDiff]:
    """The Markov closure as the planar product with the identity complex on
    n strands.  Single slot: no signs, and A's band."""
    if A.m != A.n:
        raise DimensionError("trace needs a square complex")
    shell, diff = _planar(
        A, identity_complex(A.n), lambda a, _b: cob.trace_object(a), _trace_structure, (0, 0)
    )
    return replace(shell, reliable=A.reliable), diff


def stack_complexes(A: ChainComplex, B: ChainComplex) -> ChainComplex:
    """Vertical planar composition (A over B); product_layout gives its
    summands."""
    return _with_diff(*_stack(A, B))


def beside_complexes(A: ChainComplex, B: ChainComplex) -> ChainComplex:
    """Horizontal planar composition (A left of B); product_layout gives its
    summands."""
    return _with_diff(*_planar(
        A, B, cob.beside_objects, cob._beside_structure, (A.m + B.m, A.n + B.n)
    ))


def trace_complex(A: ChainComplex) -> ChainComplex:
    """Markov closure of a complex over Cob^n_n (single slot: no signs)."""
    return _with_diff(*_trace(A))


def simplify_stack(A: ChainComplex, B: ChainComplex, window: Window | None = None) -> ChainComplex:
    """simplify(stack_complexes(A, B)), the product first clipped to
    `window` when one is given, in one pass: the elimination engine takes
    the product's term dicts, and only the result's entries become
    cobordisms (D. Bar-Natan, Fast Khovanov homology computations: simplify
    as you glue)."""
    return _simplified(*_stack(A, B, window))


def simplify_trace(A: ChainComplex) -> ChainComplex:
    """simplify(trace_complex(A)) in one pass, as simplify_stack."""
    return _simplified(*_trace(A))


def _simplified(shell: ChainComplex, diff: TermDiff) -> ChainComplex:
    """simplify of the planar product shell with differential diff, under
    the same step cap."""
    return _reduce(shell, _simplify_steps, diff=diff)[0]


def _planar_map(F: ChainMap, G: ChainMap, SRC: ChainComplex, TGT: ChainComplex, structure) -> ChainMap:
    """T(F, G) from SRC, the planar product of F's and G's sources, to TGT,
    that of their targets."""
    mats = _glue_maps(
        F.source, G.source, product_layout(F.source, G.source), product_layout(F.target, G.target),
        ((_columns(F.mats), _columns(G.mats), F.hdeg, G.hdeg),), structure,
    )
    hdeg = F.hdeg + G.hdeg
    return ChainMap(SRC, TGT, hdeg, F.qdeg + G.qdeg, _cobordisms(mats, SRC, TGT, hdeg))


def stack_chain_maps(F: ChainMap, G: ChainMap) -> ChainMap:
    """T(F, G) on vertical stacking, Koszul sign (-1)^{i |G|} on summand i."""
    SRC = stack_complexes(F.source, G.source)
    return _planar_map(F, G, SRC, stack_complexes(F.target, G.target), cob._stack_structure)


def trace_chain_map(F: ChainMap) -> ChainMap:
    """The Markov closure of F: T(F, 1) with the identity on the strands.
    An endomorphism's source and target share one trace."""
    one = ChainMap.identity(identity_complex(F.source.n))
    SRC = trace_complex(F.source)
    TGT = SRC if F.target is F.source else trace_complex(F.target)
    return _planar_map(F, one, SRC, TGT, _trace_structure)


# ---------------------------------------------------------------------------
# Shifts, cones, duals


def shift_h(A: ChainComplex, s: int) -> ChainComplex:
    """The s-fold homological shift: (t^s A)^k = A^{k-s}, differential
    (-1)^s d."""
    sign = -1 if s % 2 else 1
    return replace(
        A,
        window=Window(A.window.lo + s, A.window.hi + s),
        groups={k + s: v for k, v in A.groups.items()},
        diff={
            k + s: {rc: f.scale(sign) for rc, f in mat.items()}
            for k, mat in A.diff.items()
        },
        reliable=(A.reliable[0] + s, A.reliable[1] + s),
    )


def shift_q(A: ChainComplex, s: int) -> ChainComplex:
    return replace(
        A,
        groups={
            k: [o.shifted(s) for o in objs] for k, objs in A.groups.items()
        },
        diff={
            k: {
                rc: f.with_shifts(f.source.qshift + s, f.target.qshift + s)
                for rc, f in mat.items()
            }
            for k, mat in A.diff.items()
        },
    )


def cone(F: ChainMap) -> ChainComplex:
    """Cone(F: A -> B)^k = A^{k+1} (+) B^k, d = [[-dA, 0], [F, dB]]."""
    if F.hdeg != 0 or F.qdeg != 0:
        raise DimensionError("cone needs a degree-(0,0) chain map")
    A, B = F.source, F.target
    window = Window(min(A.window.lo - 1, B.window.lo), max(A.window.hi - 1, B.window.hi))
    groups: dict[int, list[ShiftedObject]] = {}
    for k in range(window.lo, window.hi + 1):
        objs = list(A.groups.get(k + 1, [])) + list(B.groups.get(k, []))
        if objs:
            groups[k] = objs
    diff: dict[int, Matrix] = {}
    for k in range(window.lo, window.hi + 1):
        na_src = len(A.groups.get(k + 1, []))
        na_tgt = len(A.groups.get(k + 2, []))
        mat: Matrix = {}
        for (r, c), f in A.diff.get(k + 1, {}).items():
            mat[(r, c)] = f.scale(-1)
        for (r, c), f in F.mats.get(k + 1, {}).items():
            mat[(na_tgt + r, c)] = f
        for (r, c), f in B.diff.get(k, {}).items():
            mat[(na_tgt + r, na_src + c)] = f
        if mat:
            diff[k] = mat
    rel = (
        max(A.reliable[0] - 1, B.reliable[0]),
        min(A.reliable[1] - 1, B.reliable[1]),
    )
    return ChainComplex(A.m, A.n, window, groups, diff, A.tail_lo or B.tail_lo, A.tail_hi or B.tail_hi, rel)


def dual_complex(A: ChainComplex) -> ChainComplex:
    """(A^v)^k = (A^{-k})^v with differential -(d_A)^v; window, tails and
    reliable band are reversed."""
    groups = {-k: [cob.dualize_ob(o) for o in objs] for k, objs in A.groups.items()}
    diff: dict[int, Matrix] = {}
    for k, mat in A.diff.items():
        # d_A^k : A^k -> A^{k+1} dualizes to (A^v)^{-k-1} -> (A^v)^{-k}
        newmat: Matrix = {}
        for (r, c), f in mat.items():
            newmat[(c, r)] = cob.dualize_cob(f).scale(-1)
        if newmat:
            diff[-k - 1] = newmat
    return ChainComplex(
        A.n,
        A.m,
        -A.window,
        groups,
        diff,
        tail_lo=A.tail_hi,
        tail_hi=A.tail_lo,
        reliable=(-A.reliable[1], -A.reliable[0]),
    )


def dual_chain_map(F: ChainMap) -> ChainMap:
    """F^v with the sign (-1)^{ik} on the component out of (B^v)^i."""
    k = F.hdeg
    mats: dict[int, Matrix] = {}
    for deg, mat in F.mats.items():
        # F_deg : A^deg -> B^{deg+k}; (F^v)_i : (B^v)^i -> (A^v)^{i+k} with
        # i = -deg - k, entry (-1)^{ik} (F_deg)^v
        i = -deg - k
        sign = -1 if (i * k) % 2 else 1
        newmat: Matrix = {}
        for (r, c), f in mat.items():
            newmat[(c, r)] = cob.dualize_cob(f).scale(sign)
        if newmat:
            mats[i] = newmat
    # the underlying cobordisms keep their q-degree: both endpoint shifts negate
    return ChainMap(dual_complex(F.target), dual_complex(F.source), k, F.qdeg, mats)


def reflect_x_complex(A: ChainComplex) -> ChainComplex:
    groups = {k: [cob.reflect_x_ob(o) for o in objs] for k, objs in A.groups.items()}
    diff = {
        k: {rc: cob.reflect_x_cob(f) for rc, f in mat.items()}
        for k, mat in A.diff.items()
    }
    return replace(A, m=A.n, n=A.m, groups=groups, diff=diff)


def reflect_y_complex(A: ChainComplex) -> ChainComplex:
    groups = {k: [cob.reflect_y_ob(o) for o in objs] for k, objs in A.groups.items()}
    diff = {
        k: {rc: cob.reflect_y_cob(f) for rc, f in mat.items()}
        for k, mat in A.diff.items()
    }
    return replace(A, groups=groups, diff=diff)


# ---------------------------------------------------------------------------
# Delooping and Gaussian elimination (mutable working form)


class _Work:
    """The elimination engine: a mutable id-based copy of a complex, reduced
    in place by its two steps, delooping (deloop) and Gaussian elimination
    (eliminate).

    An edge is a bare term dict (cob.Terms); its endpoints are obj[src] and
    obj[tgt].  The steps rewrite term dicts only, through the cores cob's
    morphisms share (compose_terms, add_terms, scale_terms, iso_sign), and
    finish builds each result cobordism once, through the validating
    CanonicalCobordism constructor.

    With track=True it also keeps the strong deformation retraction (r, i,
    h) from the original complex as edges to ghost objects.  Each original
    object k gets two ghosts that are protected and not in `order`: g_in(k)
    with an identity edge g_in(k) -> k and g_out(k) with an identity edge
    k -> g_out(k).  Both steps then rewrite these edges like any other: a
    deloop caps g_in -> k into r <- phi.r and k -> g_out into i <- i.psi,
    and an elimination's correction -(v <- src).inv.(tgt <- u) is the r
    update for u = g_in, the i update for v = g_out and -h for both.  So at
    the end an edge g_in(s) -> x holds r[x, s], x -> g_out(t) holds
    i[t, x] and g_in(s) -> g_out(t) holds -h[t, s]; finish reads them off.
    A ghost's obj entry is its original object.
    """

    def __init__(
        self, C: ChainComplex, protected: set[tuple[int, int]] | None = None,
        track: bool = False, diff: TermDiff | None = None,
    ):
        self.source = C
        self.track = track
        self.next_id = 0
        self.order: dict[int, list[int]] = {}
        self.obj: dict[int, ShiftedObject] = {}
        self.deg: dict[int, int] = {}
        # out_edges[src][tgt] and in_edges[tgt][src]: the same term dict
        self.out_edges: dict[int, dict[int, cob.Terms]] = {}
        self.in_edges: dict[int, dict[int, cob.Terms]] = {}
        self.protected: set[int] = set()
        # ghost id -> (degree, position) of its original object
        self.ghost: dict[int, tuple[int, int]] = {}
        for k, objs in C.groups.items():
            ids = []
            for p, o in enumerate(objs):
                oid = self.next_id
                self.next_id += 1
                self.obj[oid] = o
                self.deg[oid] = k
                ids.append(oid)
                if protected and (k, p) in protected:
                    self.protected.add(oid)
            self.order[k] = ids
        if diff is None:
            diff = {k: {rc: f.terms for rc, f in mat.items()} for k, mat in C.diff.items()}
        for k, mat in diff.items():
            for (r, c), f in mat.items():
                self.set_edge(self.order[k][c], self.order[k + 1][r], f)
        if track:
            for k, ids in self.order.items():
                for p, oid in enumerate(ids):
                    g_in, g_out = self.next_id, self.next_id + 1
                    self.next_id += 2
                    self.ghost[g_in] = self.ghost[g_out] = (k, p)
                    self.obj[g_in] = self.obj[g_out] = self.obj[oid]
                    self.protected.update((g_in, g_out))
                    one = cob.identity_cob(self.obj[oid]).terms
                    self.set_edge(g_in, oid, one)
                    self.set_edge(oid, g_out, one)

    def set_edge(self, src: int, tgt: int, f: cob.Terms) -> None:
        if not f:
            self.out_edges.get(src, {}).pop(tgt, None)
            self.in_edges.get(tgt, {}).pop(src, None)
        else:
            self.out_edges.setdefault(src, {})[tgt] = f
            self.in_edges.setdefault(tgt, {})[src] = f

    def add_edge(self, src: int, tgt: int, f: cob.Terms) -> None:
        cur = self.out_edges.get(src, {}).get(tgt)
        self.set_edge(src, tgt, cob.add_terms(cur, f) if cur is not None else f)

    def remove_object(self, oid: int) -> None:
        for tgt in list(self.out_edges.get(oid, {})):
            self.in_edges.get(tgt, {}).pop(oid, None)
        self.out_edges.pop(oid, None)
        for src in list(self.in_edges.get(oid, {})):
            self.out_edges.get(src, {}).pop(oid, None)
        self.in_edges.pop(oid, None)
        self.order[self.deg[oid]].remove(oid)
        del self.obj[oid], self.deg[oid]

    def circled(self) -> list[int]:
        """Unprotected objects with circles, in (degree, position) order."""
        return [
            oid
            for k in sorted(self.order)
            for oid in self.order[k]
            if self.obj[oid].tangle.circles > 0 and oid not in self.protected
        ]

    def deloop(self, oid: int) -> None:
        """Replace object oid (with >= 1 circle) by its q^{+1} and q^{-1}
        copies with one circle fewer; d' = phi . d . psi on its entries.

        The maps are birth/death disks on oid's last free circle: psi_up a
        dotted and psi_dn a plain birth, phi_up a plain and phi_dn a dotted
        death.  That circle is its own closure circle, at src_circ[-1] of
        closure_data(big, tgt) and at tgt_circ[-1] of closure_data(src, big).
        A term's disk on it, capped by one of these, makes a sphere with 0, 1
        or 2 dots, which evaluates to 0, 1 or 0.  So each composite keeps the
        terms with the other dot value there and drops the circle's
        coordinate: f.psi_up keeps dot 0, f.psi_dn dot 1, phi_up.f dot 1 and
        phi_dn.f dot 0 (_split_by_dot)."""
        obj = self.obj
        big = obj[oid]
        base = big.tangle.drop_circle()
        up = ShiftedObject(base, big.qshift + 1)
        dn = ShiftedObject(base, big.qshift - 1)
        id_up, id_dn = self.next_id, self.next_id + 1
        self.next_id += 2
        # (new id, dot f.psi keeps); phi.f keeps the other one
        copies = ((id_up, 0), (id_dn, 1))
        k = self.deg[oid]
        ids = self.order[k]
        idx = ids.index(oid)
        outs = self.out_edges.get(oid, {})
        ins = self.in_edges.get(oid, {})
        self.remove_object(oid)
        ids[idx:idx] = [id_up, id_dn]
        obj[id_up], obj[id_dn] = up, dn
        self.deg[id_up], self.deg[id_dn] = k, k
        for tgt, f in outs.items():
            by_dot = _split_by_dot(f, closure_data(big.tangle, obj[tgt].tangle).src_circ[-1])
            for new_id, dot in copies:
                self.add_edge(new_id, tgt, by_dot[dot])
        for src, f in ins.items():
            by_dot = _split_by_dot(f, closure_data(obj[src].tangle, big.tangle).tgt_circ[-1])
            for new_id, dot in copies:
                self.add_edge(src, new_id, by_dot[1 - dot])

    def eliminate(self, src: int, tgt: int, sign: int) -> None:
        """Gaussian elimination of the isomorphism src -> tgt (sign times an
        identity): both objects go, and every path u -> tgt, src -> v
        leaves the correction -(v <- src) . inv . (tgt <- u)."""
        obj = self.obj
        mid = obj[tgt]  # equal to obj[src]
        ins_alpha = {u: f for u, f in self.in_edges.get(tgt, {}).items() if u != src}
        outs_beta = [
            (v, obj[v], fv, cob.iso_sign(mid, obj[v], fv))
            for v, fv in self.out_edges.get(src, {}).items()
            if v != tgt
        ]
        # inv is sign times an identity, so -(g . inv . f) = g . f.scale(-sign)
        for u, fu in ins_alpha.items():
            a = obj[u]
            left = cob.scale_terms(fu, -sign)
            left_sign = cob.iso_sign(a, mid, left)
            for v, c, fv, fv_sign in outs_beta:
                self.add_edge(u, v, cob.compose_terms(a, mid, c, left, fv, left_sign, fv_sign))
        self.remove_object(src)
        self.remove_object(tgt)

    def finish(self, sort_objects: bool = True) -> tuple[ChainComplex, Equivalence | None]:
        """Rebuild an immutable complex, the source with new groups and
        differential; with tracking also the SDR to it, sorting each edge by
        which of its ends are ghosts: d, r, i or -h."""
        groups: dict[int, list[ShiftedObject]] = {}
        # id -> (degree, position): in the result, or for a ghost in the source
        pos: dict[int, tuple[int, int]] = dict(self.ghost)
        for k in sorted(self.order):
            ids = self.order[k]
            if not ids:
                continue
            if sort_objects:
                ids = sorted(ids, key=lambda i: (self.obj[i].sort_key(), i))
                self.order[k] = ids
            groups[k] = [self.obj[i] for i in ids]
            for p, i in enumerate(ids):
                pos[i] = (k, p)
        diff: dict[int, Matrix] = {}
        r_mats: dict[int, Matrix] = {}
        i_mats: dict[int, Matrix] = {}
        minus_h: dict[int, Matrix] = {}
        # (source is a ghost, target is a ghost) -> the matrices the edge joins
        by_ends = {
            (False, False): diff, (True, False): r_mats,
            (False, True): i_mats, (True, True): minus_h,
        }
        ghost, obj = self.ghost, self.obj
        for src, outs in self.out_edges.items():
            k, c = pos[src]
            a = obj[src]
            for tgt, f in outs.items():
                by_ends[src in ghost, tgt in ghost].setdefault(k, {})[(pos[tgt][1], c)] = (
                    CanonicalCobordism(a, obj[tgt], f)
                )
        C = replace(self.source, groups=groups, diff=diff)
        if not self.track:
            return C, None
        big = self.source
        return C, Equivalence(
            ChainMap(big, C, 0, 0, r_mats),
            ChainMap(C, big, 0, 0, i_mats),
            -ChainMap(big, big, -1, 0, minus_h),
        )


def _split_by_dot(f: cob.Terms, c: int) -> tuple[cob.Terms, cob.Terms]:
    """f's terms with 0 and with 1 dot on its closure circle c, that
    coordinate dropped and the coefficients unchanged: f capped on c by a
    disk with 1 and with 0 dots, c being a free circle of one end and its
    own closure circle."""
    by_dot: tuple[cob.Terms, cob.Terms] = ({}, {})
    for a, p in f.items():
        by_dot[a[c]][a[:c] + a[c + 1:]] = p
    return by_dot


def _pivot_sweep(work: _Work) -> list[tuple[int, int]]:
    """All invertible entries at the current state in the deterministic scan
    order: lowest homological degree, then smallest source position, then
    smallest target position.  Entries are re-validated before use."""
    out = []
    for k in sorted(work.order):
        tgt_order = {t: p for p, t in enumerate(work.order.get(k + 1, []))}
        for src in work.order[k]:
            if src in work.protected:
                continue
            outs = work.out_edges.get(src)
            if not outs:
                continue
            found = []
            a = work.obj[src]
            for tgt, f in outs.items():
                if tgt in work.protected:
                    continue
                if cob.iso_sign(a, work.obj[tgt], f) is not None:
                    found.append((tgt_order[tgt], tgt))
            if found:
                found.sort()
                out.append((src, found[0][1]))
    return out


def _reduce(
    C: ChainComplex, run, protected: set[tuple[int, int]] | None = None,
    track: bool = False, sort_objects: bool = True, diff: TermDiff | None = None,
) -> tuple[ChainComplex, Equivalence | None]:
    """The one entry to the engine: copy C into a _Work, let run(work) take
    its steps, and rebuild the result (and the SDR when tracked).  A planar
    product comes as its complex without differential and, in diff, its
    differential in term dicts."""
    work = _Work(C, protected, track, diff)
    run(work)
    return work.finish(sort_objects)


def _deloop_all(work: _Work) -> None:
    while circled := work.circled():
        for oid in circled:
            work.deloop(oid)


def deloop(C: ChainComplex) -> tuple[ChainComplex, ChainMap, ChainMap]:
    """Remove all circles from all chain groups.

    Returns (delooped complex, iso to it, iso from it); the isos compose to
    identities on the nose.
    """
    small, eq = _reduce(C, _deloop_all, track=True, sort_objects=False)
    return small, eq.r, eq.i


def gaussian_eliminate(
    C: ChainComplex, entry: tuple[int, int, int]
) -> tuple[ChainComplex, ChainMap, ChainMap, ChainMap]:
    """Eliminate the invertible differential entry (degree, row, col).

    Returns (smaller complex, retraction, inclusion, homotopy) satisfying
    r.i = 1, 1 - i.r = dH + Hd, r.H = 0, H.i = 0, H.H = 0.
    """
    k, r, c = entry
    f = C.entry(k, r, c)
    if f is None:
        raise SpinhomError(f"no differential entry at {entry}")
    sign = f.is_identity_iso()
    if sign is None:
        raise SpinhomError(f"entry at {entry} is not an isomorphism")

    def run(work: _Work) -> None:
        work.eliminate(work.order[k][c], work.order[k + 1][r], sign)

    small, eq = _reduce(C, run, track=True, sort_objects=False)
    return small, eq.r, eq.i, eq.h


#: the most steps (deloops plus eliminations) one simplify may take
MAX_SIMPLIFY_STEPS = 200000


def _simplify_steps(work: _Work) -> None:
    """Deloop and eliminate until nothing is left to do, or raise
    ResourceError after MAX_SIMPLIFY_STEPS steps; see simplify."""
    steps = 0
    while True:
        before = steps
        for oid in work.circled():
            work.deloop(oid)
            steps += 1
            if steps > MAX_SIMPLIFY_STEPS:
                raise ResourceError("simplify exceeded the step cap")
        for src, tgt in _pivot_sweep(work):
            # an earlier elimination may have removed or changed the entry
            f = work.out_edges.get(src, {}).get(tgt)
            sign = None if f is None else cob.iso_sign(work.obj[src], work.obj[tgt], f)
            if sign is None:
                continue
            work.eliminate(src, tgt, sign)
            steps += 1
            if steps > MAX_SIMPLIFY_STEPS:
                raise ResourceError("simplify exceeded the step cap")
        if steps == before:
            return


def simplify(
    C: ChainComplex,
    want_equivalence: bool = False,
    protected: set[tuple[int, int]] | None = None,
) -> tuple[ChainComplex, Equivalence | None]:
    """Deloop and Gaussian-eliminate until no circles and no invertible
    entries remain (outside `protected` objects, given as (degree, pos)).

    Deterministic: circles are removed first, then pivots are taken in
    (degree, source position, target position) order.  A protected object
    is never delooped or eliminated, so with the equivalence, column
    (k, p) of eq.r holds one entry: the identity into that object's
    position in the result.
    """
    return _reduce(
        C, _simplify_steps, protected, want_equivalence,
        sort_objects=protected is None,
    )


# ---------------------------------------------------------------------------
# Hom complexes and the tautological TQFT


def _basis_generators(a: ShiftedObject, b: ShiftedObject):
    """Canonical basis of Hom(a, b): dot assignments with their q-degrees."""
    cd = closure_data(a.tangle, b.tangle)
    base = b.qshift - a.qshift - cd.n + (a.tangle.m + a.tangle.n) // 2
    out = []
    for assign in itertools.product((0, 1), repeat=cd.n):
        out.append((assign, base + 2 * sum(assign)))
    return out


def _hom_basis(A: ChainComplex, B: ChainComplex, t: int) -> list[tuple[tuple, int]]:
    """Generators of Hom^t(A, B), the canonical cobordisms A^i -> B^{i+t}:
    (((i, pa), (i+t, pb), assign), qdeg) in (i, pa, pb, assign) order."""
    out = []
    for i in sorted(A.groups):
        j = i + t
        if j not in B.groups:
            continue
        for pa, oa in enumerate(A.groups[i]):
            for pb, ob in enumerate(B.groups[j]):
                for assign, qdeg in _basis_generators(oa, ob):
                    out.append((((i, pa), (j, pb), assign), qdeg))
    return out


def _hom_d(
    A: ChainComplex, B: ChainComplex, t: int, basis: list[tuple], rows: dict[tuple, int]
) -> dict[tuple[int, int], AlphaPoly]:
    """The Hom engine: the matrix of f -> [d, f] = d_B . f - (-1)^t f . d_A
    from the generators `basis` of Hom^t(A, B) into the generators of
    Hom^{t+1} that `rows` numbers (label -> row); images on other generators
    are dropped.  Each generator meets only its own column of d_B and its
    own row of d_A."""
    col_b = functools.cache(lambda j: _by_column(B.diff.get(j, {})))
    row_a = functools.cache(
        lambda i: _by_column({(c, r): f for (r, c), f in A.diff.get(i, {}).items()})
    )
    negate = t % 2 == 0
    out: dict[tuple[int, int], AlphaPoly] = {}

    def add(label: tuple, c: int, img: CanonicalCobordism, neg: bool) -> None:
        for t_assign, poly in img.terms.items():
            r = rows.get((*label, t_assign))
            if r is None:
                continue
            term = -poly if neg else poly
            out[(r, c)] = out[(r, c)] + term if (r, c) in out else term

    for c, ((i, pa), (j, pb), assign) in enumerate(basis):
        col, row = col_b(j).get(pb, ()), row_a(i - 1).get(pa, ())
        if not (col or row):
            continue
        gen = CanonicalCobordism.generator(A.groups[i][pa], B.groups[j][pb], assign)
        for r2, g in col:
            add(((i, pa), (j + 1, r2)), c, cob.compose(g, gen), False)
        for c2, g in row:
            add(((i - 1, c2), (j, pb)), c, cob.compose(gen, g), negate)
    return {rc: v for rc, v in out.items() if v}


def _hom_module(A: ChainComplex, B: ChainComplex, reliable: tuple[float, float]) -> ModuleComplex:
    """The Hom engine over every degree t: Hom^t(A, B) with [d, -].  The
    generator labels only number the rows of [d, -]; the module keeps the
    q-degrees."""
    degrees = sorted({j - i for i in A.groups for j in B.groups})
    bases = {t: basis for t in degrees if (basis := _hom_basis(A, B, t))}
    diff = {}
    for t, basis in bases.items():
        rows = {label: r for r, (label, _q) in enumerate(bases.get(t + 1, ()))}
        if mat := _hom_d(A, B, t, [label for label, _q in basis], rows):
            diff[t] = mat
    gens = {t: [q for _label, q in basis] for t, basis in bases.items()}
    return ModuleComplex(gens, diff, reliable)


def tautological(C: ChainComplex) -> ModuleComplex:
    """Hom(empty, -) applied to a closed complex: free Z[alpha]-modules on
    dot assignments, differential transported by composition.  This is the
    Hom engine with the empty object in degree 0 as source."""
    if C.m or C.n:
        raise DimensionError("tautological functor needs a closed complex")
    point = single_object(ShiftedObject(FlatTangle.empty(), 0), 0, 0)
    return _hom_module(point, C, C.reliable)


def hom_complex_direct(A: ChainComplex, B: ChainComplex) -> ModuleComplex:
    """Hom-complex built from the definition: generators are canonical
    cobordisms A^i -> B^{i+t}, differential the supercommutator
    [d, f] = d_B . f - (-1)^t f . d_A, both from the one Hom engine."""
    if (A.m, A.n) != (B.m, B.n):
        raise DimensionError("hom complex needs matching boundaries")
    return _hom_module(A, B, _combine_reliability(B, dual_complex(A)))


def hom_complex(A: ChainComplex, B: ChainComplex) -> ModuleComplex:
    """Hom-complex via the duality theorem: q^{(m+n)/2} <Tr(B stacked over
    A-dual)>, built with no reference to the supercommutator: the Hom
    engine runs only as tautological, where there is no d_A."""
    if (A.m, A.n) != (B.m, B.n):
        raise DimensionError("hom complex needs matching boundaries")
    M = tautological(trace_complex(stack_complexes(B, dual_complex(A))))
    return M.shift_q((A.m + A.n) // 2)


# ---------------------------------------------------------------------------
# The appendix contraction


def bicomplex_contraction(A: ChainComplex, B: ChainComplex, h: ChainMap, mode: str) -> ChainMap:
    """Contraction H = sum_m (-1)^m h (d_h h)^m of the bicomplex A^i (x) B^j
    with contractible columns, as a homotopy on its total complex
    T = stack_complexes(A, B), whose summands are product_layout's
    (i, j, pa, pb).

    h is the column nulhomotopy, a ChainMap of hdeg -1 on T that keeps i,
    with 1 = d_v h + h d_v; d_h = T(d_A, 1) is the part of T's differential
    that raises i.  The quadrant precondition from the appendix is
    enforced on the supports of A (index i) and B (index j), a tail
    counting as support out to infinity (_support_bounds): sum mode needs
    no support in quadrant IV (i > 0, j < 0), product mode none in quadrant
    II (i < 0, j > 0).
    """
    lo_a, hi_a = _support_bounds(A)
    lo_b, hi_b = _support_bounds(B)
    if mode == "sum" and hi_a > 0 and lo_b < 0:
        raise SpinhomError("sum-mode contraction requires no quadrant-IV support")
    if mode == "product" and lo_a < 0 and hi_b > 0:
        raise SpinhomError("product-mode contraction requires no quadrant-II support")
    T = stack_complexes(A, B)
    if h.hdeg != -1 or h.source.groups != T.groups or h.target.groups != T.groups:
        raise DimensionError("the column homotopy must be an hdeg -1 map on stack_complexes(A, B)")
    h = ChainMap(T, T, -1, h.qdeg, h.mats)
    layout = product_layout(A, B)
    d_h = ChainMap(T, T, 1, 0, {
        k: {rc: f for rc, f in mat.items() if layout[k + 1][rc[0]][0] == layout[k][rc[1]][0] + 1}
        for k, mat in T.diff.items()
    })
    H = term = h
    while not (term := -compose_maps(h, compose_maps(d_h, term))).is_zero():
        H = H + term
    return H


# ---------------------------------------------------------------------------
# Homotopy detection at alpha = 0


def homotopic_alpha0(F: ChainMap, G: ChainMap, lo: float = NEG_INF, hi: float = POS_INF) -> bool:
    """Whether F - G = [d, H] has an integer solution H at alpha = 0.

    The equation is imposed only on components whose source degree lies in
    [lo, hi]; the candidate homotopy ranges over all degrees.  This is the
    honest window-interior statement of "F and G are homotopic".  [d, -] is
    the Hom engine's, from the q-degree F.qdeg generators of Hom^{h-1} to
    those of Hom^h, h = hdeg, at alpha^0; only solvability is decided
    (homology.in_column_lattice), no H is built.
    """
    from .homology import IntMatrix, in_column_lattice

    if (F.hdeg, F.qdeg) != (G.hdeg, G.qdeg):
        raise DimensionError("homotopy comparison needs equal bidegrees")
    A, B = F.source, F.target
    h = F.hdeg

    def basis(t: int, first: float, last: float) -> list[tuple]:
        return [
            label for label, q in _hom_basis(A, B, t)
            if q == F.qdeg and first <= label[0][0] <= last
        ]

    src_basis = basis(h - 1, NEG_INF, POS_INF)
    rows = {label: r for r, label in enumerate(basis(h, lo, hi))}
    entries = {
        rc: poly.coeffs.get(0, 0) for rc, poly in _hom_d(A, B, h - 1, src_basis, rows).items()
    }
    # F - G in the same generators, alpha-degree 0 part
    vec = [0] * len(rows)
    for k, mat in (F - G).mats.items():
        for (r, c), f in mat.items():
            for assign, poly in f.terms.items():
                v = poly.coeffs.get(0, 0)
                if not v:
                    continue
                label = ((k, c), (k + h, r), assign)
                if label in rows:
                    vec[rows[label]] = v
                elif lo <= k <= hi:
                    return False
    return in_column_lattice(IntMatrix(len(rows), len(src_basis), entries), vec)
