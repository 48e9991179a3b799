"""Shared generators and comparison utilities for the test suite."""

from __future__ import annotations

import functools
import random
from contextlib import contextmanager
from typing import NamedTuple
from itertools import combinations, product
from math import gcd, prod

from spinhom import cob
from spinhom import complexes as cx
from spinhom import expr as ex
from spinhom import serialize as ser
from spinhom import tl
from spinhom.cob import AlphaPoly, FlatTangle, ShiftedObject, closure_data
from spinhom.complexes import ChainComplex, Window
from spinhom.errors import SpinhomError
from spinhom.laurent import RatFunc, quantum_integer
from spinhom.projector import expand_vertices


# ---------------------------------------------------------------------------
# Morphisms with their ends.  spinhom keeps a morphism as its term dict
# (cob.Terms), its ends being the chain groups' objects; tests pair the two
# so that the paper's identities read as they are written.  Every operation
# is a spinhom.cob core on the terms: cob.compose, cob._glue_terms with the
# planar glue structures, the transports and add_terms/scale_terms.


class Cob(NamedTuple):
    """A morphism source -> target: equal when source, target and terms are."""

    source: ShiftedObject
    target: ShiftedObject
    terms: cob.Terms

    def __add__(self, other: Cob) -> Cob:
        return Cob(self.source, self.target, cob.add_terms(self.terms, other.terms))

    def __sub__(self, other: Cob) -> Cob:
        return self + other.scale(-1)

    def scale(self, c: AlphaPoly | int) -> Cob:
        return Cob(self.source, self.target, cob.scale_terms(self.terms, c) if c else {})


EMPTY = ShiftedObject(FlatTangle.empty())


def identity_cob(o: ShiftedObject) -> Cob:
    return Cob(o, o, cob.identity_terms(o))


def dotted_identity(o: ShiftedObject, dots: dict) -> Cob:
    return Cob(o, o, cob.dotted_identity(o, dots))


def dot_at_point(o: ShiftedObject, p: int) -> Cob:
    return Cob(o, o, cob.dot_at_point(o, p))


def surgery(o: ShiftedObject, x: int, y: int) -> Cob:
    return Cob(o, *cob.surgery(o, x, y))


def generator(source: ShiftedObject, target: ShiftedObject, assign: tuple[int, ...],
              coeff: AlphaPoly = AlphaPoly.one()) -> Cob:
    """The one dotted-disk generator `assign` times coeff."""
    return Cob(source, target, {assign: coeff})


def cap_off_circles(target: ShiftedObject, dots: tuple[int, ...] | None = None) -> Cob:
    return Cob(EMPTY, target, cob.cap_off_circles(target, dots))


def eta(t: FlatTangle) -> Cob:
    """eta_t : empty -> t (x) t_dual."""
    a = ShiftedObject(t)
    return Cob(EMPTY, cob.stack_objects(a, cob.dualize_ob(a)), cob.eta(t))


def saddle_to_identity(t: FlatTangle) -> Cob:
    """s_t : t_dual (x) t -> 1_{2n}."""
    a = ShiftedObject(t)
    one = ShiftedObject(FlatTangle.identity(t.n))
    return Cob(cob.stack_objects(cob.dualize_ob(a), a), one, cob.saddle_to_identity(t))


def merge_trace_saddle(a: FlatTangle, b: FlatTangle) -> Cob:
    """Tr(a) | b -> a (x) b."""
    source = cob.beside_ob(cob.trace_ob(a).tangle, b)
    return Cob(ShiftedObject(source), ShiftedObject(cob.stack_ob(a, b).tangle),
               cob.merge_trace_saddle(a, b))


def compose(g: Cob, f: Cob) -> Cob:
    """g after f."""
    a, b, c = f.source, f.target, g.target
    return Cob(a, c, cob.compose(a, b, c, f.terms, g.terms, cob.iso_sign(*f), cob.iso_sign(*g)))


def stack(f: Cob, g: Cob) -> Cob:
    """f over g, glued along the boundary points between them."""
    st = cob._stack_structure(f.source.tangle, g.source.tangle, f.target.tangle, g.target.tangle)
    return Cob(cob.stack_objects(f.source, g.source), cob.stack_objects(f.target, g.target),
               cob._glue_terms(f.terms, g.terms, st))


def beside(f: Cob, g: Cob) -> Cob:
    """f to the left of g."""
    st = cob._beside_structure(f.source.tangle, g.source.tangle, f.target.tangle, g.target.tangle)
    return Cob(cob.beside_objects(f.source, g.source), cob.beside_objects(f.target, g.target),
               cob._glue_terms(f.terms, g.terms, st))


def trace(f: Cob) -> Cob:
    """The Markov trace: f glued to one undotted closure strip per strand."""
    st = cob._trace_structure(f.source.tangle, f.target.tangle)
    strips = {(0,) * f.source.tangle.n: AlphaPoly.one()}
    return Cob(cob.trace_object(f.source), cob.trace_object(f.target),
               cob._glue_terms(f.terms, strips, st))


def dualize_cob(f: Cob) -> Cob:
    return Cob(cob.dualize_ob(f.target), cob.dualize_ob(f.source), cob.dualize_terms(*f))


def reflect_x_cob(f: Cob) -> Cob:
    return Cob(cob.reflect_x_ob(f.source), cob.reflect_x_ob(f.target), cob.reflect_x_terms(*f))


def reflect_y_cob(f: Cob) -> Cob:
    return Cob(cob.reflect_y_ob(f.source), cob.reflect_y_ob(f.target), cob.reflect_y_terms(*f))


def cob_degree(f: Cob) -> int | None:
    return cob.degree(*f)


def cobordism_data(f: Cob) -> dict:
    """The JSON form {"src", "tgt", "terms"} the pinned digests hash."""
    return {
        "src": ser.object_to_data(f.source),
        "tgt": ser.object_to_data(f.target),
        "terms": ser._terms_to_data(f.terms),
    }


def cobordisms(F: cx.ChainMap | ChainComplex, k: int) -> dict[tuple[int, int], Cob]:
    """The entries of degree k of a chain map, or of a complex's
    differential, each paired with its ends."""
    if isinstance(F, ChainComplex):
        F = cx.differential(F)
    src, tgt = F.source.objects(k), F.target.objects(k + F.hdeg)
    return {(r, c): Cob(src[c], tgt[r], f) for (r, c), f in F.mats.get(k, {}).items()}


def _by_column(mat: dict) -> dict[int, list[tuple[int, Cob]]]:
    """Column -> [(row, entry)] of a matrix, each list in the matrix's order."""
    cols: dict[int, list[tuple[int, Cob]]] = {}
    for (r, c), f in mat.items():
        cols.setdefault(c, []).append((r, f))
    return cols


def reference_mat_mul(g_mat: dict, f_mat: dict) -> dict:
    """The cobordism-level product that complexes used before its matrices
    held term dicts: (g.f)[r, c] = sum_j g[r, j] f[j, c], f applied first,
    each entry pair composed with compose and added with +."""
    acc: dict = {}
    g_by_col = _by_column(g_mat)
    for (j, c), f in f_mat.items():
        for r, g in g_by_col.get(j, ()):
            term = compose(g, f)
            if not term.terms:
                continue
            if (r, c) in acc:
                acc[(r, c)] = acc[(r, c)] + term
            else:
                acc[(r, c)] = term
    return {rc: v for rc, v in acc.items() if v.terms}


def two_term_piece(rng: random.Random, n: int, degree: int, qshift: int,
                   iso: bool = False) -> ChainComplex:
    """A two-term complex over bn_n: identity-iso entries or single saddles,
    placed homogeneously (differential q-degree 0)."""
    tangles = tl.all_matchings(n, n)
    t = rng.choice(tangles)
    src = ShiftedObject(t, qshift)
    if iso:
        f = identity_cob(src).scale(rng.choice([1, -1]))
        tgt_obj = src
    else:
        pts = list(range(2 * n))
        rng.shuffle(pts)
        f = None
        for x in pts:
            for y in pts:
                if x >= y:
                    continue
                try:
                    cand = surgery(ShiftedObject(t, qshift), x, y)
                except Exception:
                    continue
                if cand.target.tangle.circles:
                    continue
                f = cand
                break
            if f is not None:
                break
        if f is None:
            f = identity_cob(src).scale(rng.choice([1, -1]))
        d0 = cob_degree(f)
        tgt_obj = ShiftedObject(f.target.tangle, qshift - d0)
    groups = {degree: [src], degree + 1: [tgt_obj]}
    diff = {degree: {(0, 0): f.terms}}
    return ChainComplex(n, n, Window(degree, degree + 1), groups, diff)


def random_complex(
    rng: random.Random,
    m: int,
    n: int,
    window: Window,
    pieces: int = 2,
    max_objects_per_degree: int = 3,
) -> ChainComplex:
    """A random honest complex over BN^m_n built by planar-stacking small
    exact pieces around a base diagram; d.d = 0 holds by construction."""
    base_tangles = tl.all_matchings(m, n)
    base = cx.from_tangle(
        rng.choice(base_tangles), rng.randint(-1, 1)
    )
    C = base
    for _ in range(pieces):
        side = rng.random() < 0.5
        k = m if side else n
        if k == 0:
            continue
        piece = two_term_piece(
            rng, k, rng.randint(window.lo, window.hi - 1), rng.randint(-1, 1),
            iso=rng.random() < 0.3,
        )
        if side:
            C = cx.stack_complexes(piece, C)
        else:
            C = cx.stack_complexes(C, piece)
        if rng.random() < 0.5:
            C, _ = cx.simplify(C)
    # clip to window and enforce the object cap by simplifying
    if any(len(v) > max_objects_per_degree for v in C.groups.values()):
        C, _ = cx.simplify(C)
    groups = {k: v[:max_objects_per_degree] for k, v in C.groups.items()
              if window.lo <= k <= window.hi}
    diff = {}
    for k, mat in C.diff.items():
        if not (window.lo <= k <= window.hi - 1):
            continue
        kept = {
            (r, c): f
            for (r, c), f in mat.items()
            if r < len(groups.get(k + 1, [])) and c < len(groups.get(k, []))
        }
        if kept:
            diff[k] = kept
    out = ChainComplex(m, n, window, groups, diff)
    try:
        out.validate()
    except Exception:
        # truncating columns can break d.d = 0; fall back to zero differential
        out = ChainComplex(m, n, window, groups, {})
    return out


def nonempty_complex(
    rng: random.Random, m: int, n: int, window: Window, pieces: int = 2,
    max_objects_per_degree: int = 3,
) -> ChainComplex:
    """random_complex drawn from rng until one has objects (about half of
    the draws are empty)."""
    while not (C := random_complex(rng, m, n, window, pieces, max_objects_per_degree)).groups:
        pass
    return C


def column_homotopy(A: ChainComplex, B: ChainComplex, sgn: int) -> cx.ChainMap:
    """The column nulhomotopy of stack_complexes(A, B) for a contractible
    column B, o --sgn--> o in degrees j and j + 1: (-1)^i sgn times the identity
    from summand (i, j + 1, pa, 0) to (i, j, pa, 0), placed by product_layout."""
    j = min(B.groups)
    o = B.objects(j)[0]
    pos = {prov: p for lay in cx.product_layout(A, B).values() for p, prov in enumerate(lay)}
    mats: dict[int, cx.Matrix] = {}
    for i, objs in A.groups.items():
        sign = -1 if i % 2 else 1
        for pa, oa in enumerate(objs):
            entry = stack(identity_cob(oa), identity_cob(o).scale(sgn)).scale(sign).terms
            mats.setdefault(i + j + 1, {})[(pos[(i, j, pa, 0)], pos[(i, j + 1, pa, 0)])] = entry
    T = cx.stack_complexes(A, B)
    return cx.ChainMap(T, T, -1, 0, mats)


def first_iso_entry(C: ChainComplex) -> tuple[int, int, int] | None:
    """The first invertible differential entry (degree, row, col) in
    (degree, row, col) order, or None."""
    for k in sorted(C.diff):
        for (r, c), f in sorted(cobordisms(C, k).items()):
            if cob.iso_sign(*f) is not None:
                return k, r, c
    return None


def assert_sdr(C: ChainComplex, S: ChainComplex, eq: cx.Equivalence) -> None:
    """eq is a strong deformation retraction of C onto S: S and every map
    entry have the right endpoints and q-degree, r.i = 1, 1 - i.r = [d, h],
    and the side conditions r.h = 0, h.i = 0, h.h = 0."""
    r, i, h = eq.r, eq.i, eq.h
    S.validate()
    for f in (r, i, h):
        f.validate()
    assert cx.compose_maps(r, i).mats == cx.ChainMap.identity(S).mats
    lhs = cx.ChainMap.identity(C) - cx.compose_maps(i, r)
    assert lhs.mats == cx.commutator_with_d(h).mats
    assert cx.compose_maps(r, h).is_zero()
    assert cx.compose_maps(h, i).is_zero()
    assert cx.compose_maps(h, h).is_zero()


def protected_positions(C: ChainComplex, S: ChainComplex, eq: cx.Equivalence,
                        protected: set[tuple[int, int]]) -> dict[tuple[int, int], int]:
    """Where simplify(C, want_equivalence=True, protected=protected) put
    each protected object (k, p): the row of the one entry in column p of
    eq.r at degree k, which must be the identity of C's object there."""
    out = {}
    for k, p in protected:
        ((row, f),) = [(r, f) for (r, c), f in cobordisms(eq.r, k).items() if c == p]
        assert f == identity_cob(C.objects(k)[p]) == identity_cob(S.objects(k)[row])
        out[(k, p)] = row
    return out


def tables_equal(t1, t2, lo=float("-inf"), hi=float("inf")) -> bool:
    keys = set(t1.nonzero()) | set(t2.nonzero())
    for kq in keys:
        if lo <= kq[0] <= hi:
            if t1.entries.get(kq, (0, ())) != t2.entries.get(kq, (0, ())):
                return False
    return True


# ---------------------------------------------------------------------------
# Reference linear algebra for the homology layer: the dense algorithms that
# spinhom.homology replaced, kept here as independent oracles.


def int_matrix(rows: list[list[int]]):
    """The IntMatrix of a dense list of rows."""
    from spinhom.homology import IntMatrix

    return IntMatrix(len(rows), len(rows[0]) if rows else 0, {
        (r, c): v for r, row in enumerate(rows) for c, v in enumerate(row) if v
    })


def _dense(M) -> list[list[int]]:
    return [[M[(r, c)] for c in range(M.cols)] for r in range(M.rows)]


def _bareiss_det(A: list[list[int]]) -> int:
    """Determinant of a square integer matrix by fraction-free elimination."""
    A = [row[:] for row in A]
    n, sign, prev = len(A), 1, 1
    for k in range(n):
        pr = next((i for i in range(k, n) if A[i][k]), None)
        if pr is None:
            return 0
        if pr != k:
            A[k], A[pr] = A[pr], A[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = (A[k][k] * A[i][j] - A[i][k] * A[k][j]) // prev
        prev = A[k][k]
    return sign * prev if n else 1


def reference_smith_normal_form(M) -> list[int]:
    """The invariant factors by least-|entry| pivoting alone: before each
    pivot every remaining row is scanned for an entry of least absolute
    value (in the shortest such row); every other row meeting its column is
    reduced by floor division; a pivot dividing its row splits off,
    otherwise the row is reduced modulo the pivot.  The diagonal is put
    into a divisibility chain by pairwise gcd/lcm.  Quadratic in the rows,
    but with no unit phase, so it checks smith_normal_form's."""
    rows: dict[int, dict[int, int]] = {}
    cols: dict[int, set[int]] = {}
    for (r, c), v in M.entries.items():
        rows.setdefault(r, {})[c] = v
        cols.setdefault(c, set()).add(r)
    diagonal = []
    while rows:
        best = None
        for r, row in rows.items():
            key = (min(map(abs, row.values())), len(row))
            if best is None or key < best:
                best, at = key, r
                if key == (1, 1):
                    break
        pivot_row = rows[at]
        c, p = next((c, v) for c, v in pivot_row.items() if abs(v) == best[0])
        for r in cols[c] - {at}:
            row = rows[r]
            q = row[c] // p
            for k, v in pivot_row.items():
                w = row.get(k, 0) - q * v
                if w:
                    row[k] = w
                    cols[k].add(r)
                else:
                    del row[k]
                    cols[k].discard(r)
            if not row:
                del rows[r]
        if len(cols[c]) > 1:
            continue  # a remainder below |p| is left in column c
        if all(v % p == 0 for v in pivot_row.values()):
            diagonal.append(abs(p))
            for k in pivot_row:
                cols[k].discard(at)
            del rows[at]
            continue
        for k, v in list(pivot_row.items()):
            if k != c:
                w = v % p
                if w:
                    pivot_row[k] = w
                else:
                    del pivot_row[k]
                    cols[k].discard(at)
    chain = sorted(diagonal)
    for i in range(len(chain)):
        for j in range(i + 1, len(chain)):
            a, b = chain[i], chain[j]
            if b % a:
                g = gcd(a, b)
                chain[i], chain[j] = g, a // g * b
    return chain


def determinantal_factors(M) -> list[int]:
    """The nonzero invariant factors of M as d_k / d_{k-1}, where d_k is the
    gcd of the k x k minors (d_0 = 1): no elimination of M itself, so it
    shares nothing with smith_normal_form, or with rank_over_q, which counts
    smith_normal_form's factors.  Exponential in
    the size, so it refuses a matrix with both sides above 6."""
    if min(M.rows, M.cols) > 6:
        raise ValueError(f"{M.rows} x {M.cols} is too large for determinantal factors")
    A = _dense(M)
    out, prev = [], 1
    for k in range(1, min(M.rows, M.cols) + 1):
        d = 0
        for rs in combinations(range(M.rows), k):
            for cs in combinations(range(M.cols), k):
                d = gcd(d, _bareiss_det([[A[r][c] for c in cs] for r in rs]))
        if not d:
            break
        out.append(d // prev)
        prev = d
    return out


def dense_rank_over_q(M) -> int:
    """Rank over Q by dense fraction-free Gaussian elimination (Bareiss)."""
    A = _dense(M)
    rows, cols = M.rows, M.cols
    rank = 0
    prev = 1
    r = 0
    for c in range(cols):
        pr = None
        for i in range(r, rows):
            if A[i][c]:
                pr = i
                break
        if pr is None:
            continue
        A[r], A[pr] = A[pr], A[r]
        for i in range(r + 1, rows):
            for j in range(c + 1, cols):
                A[i][j] = (A[r][c] * A[i][j] - A[i][c] * A[r][j]) // prev
            A[i][c] = 0
        prev = A[r][c]
        r += 1
        rank += 1
        if r == rows:
            break
    return rank


def reference_dd_is_zero(C) -> bool:
    """d.d = 0 over Z[alpha], summed as LaurentPoly objects."""
    from spinhom.laurent import LaurentPoly

    for k in sorted(C.diff):
        if k + 1 not in C.diff:
            continue
        d0, d1 = C.diff[k], C.diff[k + 1]
        acc: dict[tuple[int, int], LaurentPoly] = {}
        for (r, c), v in d0.items():
            for (r2, c2), w in d1.items():
                if c2 == r:
                    acc[(r2, c)] = acc.get((r2, c), LaurentPoly()) + w * v
        if any(p for p in acc.values()):
            return False
    return True


def reference_matrix_at_alpha0(C, k: int, q: int):
    """Integer matrix of d: C^k -> C^{k+1} restricted to q-degree q at
    alpha=0, built by scanning the whole differential for this q."""
    from spinhom.homology import IntMatrix

    cols = [i for i, qq in enumerate(C.gens.get(k, [])) if qq == q]
    rows = [i for i, qq in enumerate(C.gens.get(k + 1, [])) if qq == q]
    col_pos = {i: p for p, i in enumerate(cols)}
    row_pos = {i: p for p, i in enumerate(rows)}
    entries = {}
    for (r, c), poly in C.diff.get(k, {}).items():
        v = poly.coeffs.get(0, 0)
        if v and c in col_pos and r in row_pos:
            entries[(row_pos[r], col_pos[c])] = v
    return IntMatrix(len(rows), len(cols), entries)


def reference_homology_table(C, specialization: str = "alpha0"):
    """The per-bidegree homology table: every bidegree ranks its outgoing
    block and takes the determinantal factors of its incoming block afresh,
    so no production elimination is involved."""
    from spinhom.homology import HomologyTable

    out = {}
    unreliable = set()
    lo, hi = C.reliable
    for k in C.degrees():
        if specialization == "alpha0":
            for q in sorted(set(C.qdegs(k))):
                n_gens = sum(1 for qq in C.qdegs(k) if qq == q)
                rank_out = dense_rank_over_q(reference_matrix_at_alpha0(C, k, q))
                factors = determinantal_factors(reference_matrix_at_alpha0(C, k - 1, q))
                free = n_gens - rank_out - len(factors)
                tors = tuple(f for f in factors if f not in (0, 1))
                if free or tors:
                    out[(k, q)] = (free, tors)
                    if not (lo <= k <= hi):
                        unreliable.add((k, q))
        else:
            n_gens = len(C.gens.get(k, []))
            free = (n_gens - dense_rank_over_q(C.matrix_at_alpha1(k))
                    - dense_rank_over_q(C.matrix_at_alpha1(k - 1)))
            if free:
                out[(k, None)] = (free, ())
                if not (lo <= k <= hi):
                    unreliable.add((k, None))
    return HomologyTable(specialization, out, unreliable)


def random_module_complex(rng: random.Random):
    """A random q-homogeneous ModuleComplex with d.d = 0 over Z[alpha].

    A direct sum of isolated generators, two-term pieces x --c alpha^t--> y
    and Koszul squares x --(a, b alpha^t)--> (y1, y2) --(b alpha^t, -a)--> z
    (torsion at alpha=0 when |a| > 1), at random homological and q-degrees,
    so degrees can have gaps and a q-degree can be missing next door.  The
    basis is then changed by random elementary q-homogeneous operations and
    shuffled within each degree, which mixes the pieces."""
    from spinhom.homology import ModuleComplex
    from spinhom.laurent import LaurentPoly

    gens: dict[int, list[int]] = {}
    diff: dict[int, dict[tuple[int, int], dict[int, int]]] = {}

    def gen(k: int, q: int) -> int:
        gens.setdefault(k, []).append(q)
        return len(gens[k]) - 1

    def entry(k: int, r: int, c: int, coeff: int, t: int) -> None:
        diff.setdefault(k, {})[(r, c)] = {t: coeff}

    coeffs = [1, -1, 2, -2, 3, 6]
    for _ in range(rng.randint(0, 7)):
        k = rng.randint(-3, 3)
        q = 2 * rng.randint(-3, 3)
        kind = rng.random()
        if kind < 0.25:
            gen(k, q)
        elif kind < 0.7:
            t = rng.choice([0, 0, 1, 2])
            x, y = gen(k, q), gen(k + 1, q - 4 * t)
            entry(k, y, x, rng.choice(coeffs), t)
        else:
            t = rng.choice([0, 1])
            a, b = rng.choice(coeffs), rng.choice(coeffs)
            x, y1, y2 = gen(k, q), gen(k + 1, q), gen(k + 1, q - 4 * t)
            z = gen(k + 2, q - 4 * t)
            entry(k, y1, x, a, 0)
            entry(k, y2, x, b, t)
            entry(k + 1, z, y1, b, t)
            entry(k + 1, z, y2, -a, 0)

    def change_basis(m: int, i: int, j: int, lam: int, t: int) -> None:
        # E = 1 + lam alpha^t E_ij on C^m: d^{m-1} := E d^{m-1} and
        # d^m := d^m E^-1.  q-homogeneous when q_j = q_i + 4t.
        for (r, c), p in list(diff.get(m - 1, {}).items()):
            if r == j:
                tgt = diff[m - 1].setdefault((i, c), {})
                for e, v in p.items():
                    tgt[e + t] = tgt.get(e + t, 0) + lam * v
        for (r, c), p in list(diff.get(m, {}).items()):
            if c == i:
                tgt = diff[m].setdefault((r, j), {})
                for e, v in p.items():
                    tgt[e + t] = tgt.get(e + t, 0) - lam * v

    for _ in range(rng.randint(0, 8)):
        if not gens:
            break
        m = rng.choice(sorted(gens))
        if len(gens[m]) < 2:
            continue
        i, j = rng.sample(range(len(gens[m])), 2)
        dq = gens[m][j] - gens[m][i]
        if dq >= 0 and dq % 4 == 0:
            change_basis(m, i, j, rng.choice([1, -1, 2]), dq // 4)

    out_gens = {}
    perm = {}
    for k, gs in gens.items():
        order = list(range(len(gs)))
        rng.shuffle(order)
        perm[k] = {old: new for new, old in enumerate(order)}
        out_gens[k] = [gs[old] for old in order]
    out_diff = {}
    for k, mat in diff.items():
        entries = {}
        for (r, c), p in mat.items():
            poly = LaurentPoly(p)
            if poly:
                entries[(perm[k + 1][r], perm[k][c])] = poly
        if entries or rng.random() < 0.5:
            out_diff[k] = entries
    lo = rng.choice([float("-inf"), -1, 0])
    hi = rng.choice([float("inf"), 1, 2])
    return ModuleComplex(out_gens, out_diff, (lo, hi))


# ---------------------------------------------------------------------------
# Reference planar-matching walks: the Temperley-Lieb oracle's own stacking
# and juxtaposition from before it was keyed by cob.FlatTangle, kept here as
# independent oracles for cob.stack_walk and cob.beside_ob.  Both read only
# .m, .n and .pairs, and return plain pairs.


def reference_compose_matchings(a, b) -> tuple[tuple[int, ...], int]:
    """Stack a over b, gluing a's bottom to b's top; (result pairs, circles)."""
    assert a.n == b.m
    k = a.n
    m, n = a.m, b.n
    result = [-1] * (m + n)
    seen_mid = [False] * k

    def res_index(side: str, i: int) -> int:
        return i if side == "a" else m + (i - k)

    for start_side, start in [("a", i) for i in range(m)] + [("b", k + j) for j in range(n)]:
        ri = res_index(start_side, start)
        if result[ri] != -1:
            continue
        side, v = start_side, start
        while True:
            v2 = (a if side == "a" else b).pairs[v]
            if side == "a" and v2 < m:
                result[ri], result[v2] = v2, ri
                break
            if side == "b" and v2 >= k:
                rj = m + (v2 - k)
                result[ri], result[rj] = rj, ri
                break
            if side == "a":
                mid = v2 - m
                seen_mid[mid] = True
                side, v = "b", mid
            else:
                mid = v2
                seen_mid[mid] = True
                side, v = "a", m + mid
    circles = 0
    for i in range(k):
        if seen_mid[i]:
            continue
        circles += 1
        side, v = "a", m + i
        while True:
            if side == "a":
                seen_mid[v - m] = True
                v2 = a.pairs[v]
                side, v = "b", v2 - m
            else:
                seen_mid[v] = True
                v2 = b.pairs[v]
                side, v = "a", m + v2
            if side == "a" and seen_mid[v - m]:
                break
    return tuple(result), circles


def reference_beside_matchings(a, b) -> tuple[int, ...]:
    """Place a to the left of b; the result's pairs."""
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
    return tuple(new)


# ---------------------------------------------------------------------------
# Reference Temperley-Lieb products: the term-by-term loops that tl.compose_tl
# and tl.markov_trace ran before they summed numerators over a common
# denominator, and the Wenzl recursion tl.jones_wenzl ran before the
# single-clasp expansion.  Every product, loop factor and partial sum here is
# a normalized RatFunc.  The trace counts its circles by the hand walk both
# cob.trace_ob and tl.markov_trace ran before they closed each matching
# against the identity (closure_data, and the trace pairing's closure_walk).


def reference_compose_tl(a, b):
    """Stack a over b, adding one normalized product at a time."""
    assert a.n == b.m
    acc = {}
    loop = RatFunc.from_laurent(tl.LOOP)
    for da, ca in a.terms.items():
        for db, cb in b.terms.items():
            d, circles = tl.compose_matchings(da, db)
            c = ca * cb
            for _ in range(circles):
                c = c * loop
            s = acc.get(d, RatFunc.zero()) + c
            if s:
                acc[d] = s
            else:
                acc.pop(d, None)
    return tl.TLElement(a.m, b.n, acc)


def reference_trace_walk(a) -> tuple[tuple[int, ...], int]:
    """The Markov closure of a square flat tangle walked by hand: the traced
    circle through each boundary point (a's circles first, then the new
    loops in order of their smallest point) and the circle count."""
    assert a.m == a.n
    n = a.n
    circle_at = [-1] * (2 * n)
    count = a.circles
    for start in range(2 * n):
        if circle_at[start] != -1:
            continue
        v = start
        while circle_at[v] == -1:
            w = a.pairs[v]
            circle_at[v] = circle_at[w] = count
            v = (w + n) % (2 * n)  # closure arc: top i <-> bottom i
        count += 1
    return tuple(circle_at), count


def reference_markov_trace(x):
    """Close top point i to bottom point i, adding one normalized term at a time."""
    assert x.m == x.n
    total = RatFunc.zero()
    loop = RatFunc.from_laurent(tl.LOOP)
    for d, c in x.terms.items():
        val = c
        for _ in range(reference_trace_walk(d)[1]):
            val = val * loop
        total = total + val
    return total


@functools.cache
def reference_jones_wenzl(n: int):
    """p_n by the Wenzl recursion over reference_compose_tl:
    p_1 = 1_1, p_n = p' - ([n-1]/[n]) p' e_{n-1} p' with p' = p_{n-1} (x) 1."""
    if n <= 1:
        return tl.TLElement.identity(n)
    prev = tl.beside_tl(reference_jones_wenzl(n - 1), tl.TLElement.identity(1))
    coeff = RatFunc.from_laurent(quantum_integer(n - 1)) / RatFunc.from_laurent(quantum_integer(n))
    middle = reference_compose_tl(reference_compose_tl(prev, tl.TLElement.e(n - 2, n)), prev)
    return prev - middle.scale(coeff)


def reference_tautological(C: ChainComplex):
    """The tautological functor by gluing: the general Hom engine with the
    empty object in degree 0 as source, which composes a dotted birth onto
    every entry (cob.compose).  The slow path complexes.tautological's
    restriction must equal, gens list for list and diff dict for dict."""
    point = cx.single_object(ShiftedObject(FlatTangle.empty(), 0), 0, 0)
    return cx._hom_module(point, C, C.reliable)


# ---------------------------------------------------------------------------
# Reference delooping: the birth and death cobordisms that
# spinhom.complexes._Work.deloop composed with before it restricted on the
# delooped circle's dot, kept here as the slow path the restriction must equal.


def reference_birth_death(dotted: bool, src_obj, tgt_obj):
    """Identity product on the components src_obj and tgt_obj share, while
    the one unmatched circle is a (possibly dotted) birth/death disk.

    Pieces: a disk per arc, an annulus per shared circle, then the disk;
    output circles are named by cob's boundary-point rule."""
    s_t, t_t = src_obj.tangle, tgt_obj.tangle
    arcs = s_t.arcs()
    kept = min(s_t.circles, t_t.circles)
    disk = len(arcs) + kept
    arc_piece = {arc: x for x, arc in enumerate(arcs)}
    at = [arc_piece[s_t.arc_at(p)] for p in range(s_t.m + s_t.n)]

    def circ(count: int) -> list[int]:
        return [len(arcs) + j if j < kept else disk for j in range(count)]

    nodes = cob._circle_nodes(s_t, t_t, at, at, circ(s_t.circles), circ(t_t.circles))
    pieces = [1] * len(arcs) + [0] * kept + [1]
    dots = [0] * disk + [1 if dotted else 0]
    return Cob(src_obj, tgt_obj, cob.reduce_glued(pieces, dots, [], nodes))


def reference_deloop_maps(big) -> tuple:
    """(up, dn, phi_up, phi_dn, psi_up, psi_dn) for delooping the last circle
    of big into q^{+1} and q^{-1} copies."""
    base = big.tangle.drop_circle()
    up = ShiftedObject(base, big.qshift + 1)
    dn = ShiftedObject(base, big.qshift - 1)
    return (
        up,
        dn,
        reference_birth_death(False, big, up),  # phi_up: plain counit -> q+1
        reference_birth_death(True, big, dn),  # phi_dn: dotted counit -> q-1
        reference_birth_death(True, up, big),  # psi_up: dotted cap
        reference_birth_death(False, dn, big),  # psi_dn: plain cap
    )


def _cap(f, c: int, dot: int):
    """Terms f capped on its closure circle c by a birth or death disk with
    1 - dot dots, c being a free circle of one end and its own closure
    circle: the terms with `dot` dots on c, that coordinate dropped and
    their coefficients unchanged.  The term-by-term reference for
    complexes._split_by_dot."""
    return {a[:c] + a[c + 1:]: p for a, p in f.items() if a[c] == dot}


def cap_source(f, source, dot: int):
    """f after a birth disk with 1 - dot dots from `source` (f.source less
    its last free circle) onto that circle, by _cap."""
    c = closure_data(f.source.tangle, f.target.tangle).src_circ[-1]
    return Cob(source, f.target, _cap(f.terms, c, dot))


def cap_target(f, target, dot: int):
    """A death disk with 1 - dot dots on the last free circle of f.target,
    to `target` (f.target less that circle), after f, by _cap."""
    c = closure_data(f.source.tangle, f.target.tangle).tgt_circ[-1]
    return Cob(f.source, target, _cap(f.terms, c, dot))


def reference_deloop(work, oid: int) -> None:
    """complexes._Work.deloop by compose with reference_deloop_maps, the
    edges to the SDR's ghost objects included; a drop-in for the method.
    Each edge's term dict is wrapped with its endpoints from work.obj,
    composed, and unwrapped again."""
    big = work.obj[oid]
    up, dn, phi_up, phi_dn, psi_up, psi_dn = reference_deloop_maps(big)
    id_up, id_dn = work.next_id, work.next_id + 1
    work.next_id += 2
    k = work.deg[oid]
    ids = work.order[k]
    idx = ids.index(oid)
    outs = work.out_edges.get(oid, {})
    ins = work.in_edges.get(oid, {})
    work.remove_object(oid)
    ids[idx:idx] = [id_up, id_dn]
    work.obj[id_up], work.obj[id_dn] = up, dn
    work.deg[id_up], work.deg[id_dn] = k, k
    for tgt, terms in outs.items():
        f = Cob(big, work.obj[tgt], terms)
        work.add_edge(id_up, tgt, compose(f, psi_up).terms)
        work.add_edge(id_dn, tgt, compose(f, psi_dn).terms)
    for src, terms in ins.items():
        f = Cob(work.obj[src], big, terms)
        work.add_edge(src, id_up, compose(phi_up, f).terms)
        work.add_edge(src, id_dn, compose(phi_dn, f).terms)


# ---------------------------------------------------------------------------
# Reference planar products: the morphism-level products that
# spinhom.complexes built before its one term-level product, gluing each
# entry with stack, beside or trace above as a Cob.


def reference_binary_planar(A: ChainComplex, B: ChainComplex, ob_op, mor_op,
                            out_mn: tuple[int, int]) -> ChainComplex:
    """The planar product of A and B that ob_op and mor_op glue summand by
    summand, Koszul signs included: the differential is T(d_A, 1) +
    (-1)^i T(1, d_B) on the summands of product_layout."""
    layout = cx.product_layout(A, B)
    groups = {
        k: [ob_op(A.groups[i][pa], B.groups[j][pb]) for i, j, pa, pb in lay]
        for k, lay in layout.items()
    }
    index = {prov: p for lay in layout.values() for p, prov in enumerate(lay)}
    diff: dict[int, cx.Matrix] = {}

    def add_entry(k: int, r: int, c: int, f: Cob):
        if not f.terms:
            return
        mat = diff.setdefault(k, {})
        mat[(r, c)] = mat[(r, c)] + f if (r, c) in mat else f

    colsA = {deg: _by_column(cobordisms(A, deg)) for deg in A.diff}
    colsB = {deg: _by_column(cobordisms(B, deg)) for deg in B.diff}
    for k, lay in layout.items():
        for cpos, (i, j, pa, pb) in enumerate(lay):
            oa = A.groups[i][pa]
            ob = B.groups[j][pb]
            for r2, f in colsA.get(i, {}).get(pa, ()):
                key = (i + 1, j, r2, pb)
                if key in index:
                    add_entry(k, index[key], cpos, mor_op(f, identity_cob(ob)))
            sign = -1 if i % 2 else 1
            for r2, g in colsB.get(j, {}).get(pb, ()):
                key = (i, j + 1, pa, r2)
                if key in index:
                    h = mor_op(identity_cob(oa), g)
                    add_entry(k, index[key], cpos, h if sign == 1 else h.scale(-1))
    return ChainComplex(
        out_mn[0], out_mn[1], A.window + B.window, groups,
        {k: {rc: f.terms for rc, f in mat.items()} for k, mat in diff.items()},
        tail_lo=A.tail_lo or B.tail_lo,
        tail_hi=A.tail_hi or B.tail_hi,
        reliable=cx._combine_reliability(A, B),
    )


def reference_stack_complexes(A: ChainComplex, B: ChainComplex) -> ChainComplex:
    return reference_binary_planar(A, B, cob.stack_objects, stack, (A.m, B.n))


def reference_beside_complexes(A: ChainComplex, B: ChainComplex) -> ChainComplex:
    return reference_binary_planar(
        A, B, cob.beside_objects, beside, (A.m + B.m, A.n + B.n)
    )


def reference_trace_complex(A: ChainComplex) -> ChainComplex:
    """Markov closure entry by entry through trace."""
    groups = {k: [cob.trace_object(o) for o in objs] for k, objs in A.groups.items()}
    diff = {k: {rc: trace(f).terms for rc, f in cobordisms(A, k).items()} for k in A.diff}
    return ChainComplex(0, 0, A.window, groups, diff, A.tail_lo, A.tail_hi, A.reliable)


def closed_networks_leq3() -> list:
    """The closed networks with labels <= 3, as (name, expression): the
    colored unknots, every admissible theta, the end closures Tr(v v-dual)
    and two unknots side by side."""
    from spinhom import expr as ex

    nets = []
    for n in (1, 2, 3):
        nets.append((f"unknot({n})", ex.unknot(n)))
    admissible = []
    for a in range(4):
        for b in range(a, 4):
            for c in range(b, 4):
                try:
                    ex.check_vertex(a, b, c)
                except Exception:
                    continue
                admissible.append((a, b, c))
    for trip in admissible:
        nets.append((f"theta{trip}", ex.theta(*trip)))
    for trip in admissible:
        if min(trip) >= 1:
            v = ex.Vertex(*trip)
            nets.append((f"endclosure{trip}", ex.Trace(ex.Stack(v, ex.Dual(v)))))
    nets.append(
        ("unknot(1)|unknot(2)",
         ex.Beside(ex.unknot(1), ex.unknot(2)))
    )
    return nets


def deep_projector(n: int, window: Window):
    """A projector source for projector.instantiate that builds P_n n
    degrees deeper than the ambient window, compensating the q-degrees lost
    when closures cross the truncation cut (Euler tails then start at
    |q| >= 2 window - 4)."""
    from spinhom import projector as pj

    return pj.build_projector(n, Window(window.lo - n, 0))


def reference_instantiate(e, window: Window, projector=None) -> ChainComplex:
    """The unreduced instantiation of a network expression: the product of
    its pieces as projector.instantiate composes them, with no Stack or
    Trace simplified.  Leaves (strands, projectors, diagrams, zero) come
    from instantiate itself, with its default projector source unless
    `projector` is given."""
    from spinhom import expr as ex
    from spinhom import projector as pj

    projector = projector or pj.build_projector

    def sub(inner):
        return reference_instantiate(inner, window, projector)

    match e:
        case ex.Vertex():
            return sub(pj.expand_vertices(e))
        case ex.Stack(top, bottom):
            return cx.stack_complexes(sub(top), sub(bottom))
        case ex.Beside(left, right):
            return cx.beside_complexes(sub(left), sub(right))
        case ex.Trace(inner):
            return cx.trace_complex(sub(inner))
        case ex.Dual(inner):
            return cx.dual_complex(sub(inner))
    return pj.instantiate(e, window, projector)


def reference_estimate(pieces, objects, closed: bool = False) -> tuple[float, int]:
    """The gluing planner's size estimate and circles of a Stack chain
    (projector._prefixes's last prefix, or its closure when `closed`),
    written out on (level, position) points with one union-find per call,
    as the planner first computed it: the reference for the incremental
    _prefixes."""
    from spinhom import projector as pj

    parent: dict = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = x = parent[parent[x]]
        return x

    def join(a, b):
        parent[find(a)] = find(b)

    ends = []  # (boundary point, box)
    boxes = []  # (count, number of boundary points)
    through = []  # the points a box joins as an identity
    for level, piece in enumerate(pieces):
        top = bottom = 0
        for part in pj._flatten_beside(piece):
            m, n = ex.arity(part)
            points = [(level, top + i) for i in range(m)] + [(level + 1, bottom + i) for i in range(n)]
            if isinstance(part, ex.Diagram):
                for i, j in enumerate(part.pairs):
                    join(points[i], points[j])
            elif isinstance(part, (ex.Strand, ex.Proj, ex.DualProj)) and not pj._labels(part):
                for i in range(m):
                    join(points[i], points[m + i])
            else:
                ends += [(point, len(boxes)) for point in points]
                boxes.append((prod(map(objects, pj._labels(part))), m + n))
                through += zip(points[:min(m, n)], points[m:m + min(m, n)])
            top, bottom = top + m, bottom + n
    meets: dict = {}
    for point, box in ends:
        meets.setdefault(find(point), []).append(box)
    joined = [0] * len(boxes)
    for found in meets.values():
        if len(found) == 2 and found[0] != found[1]:
            for box in found:
                joined[box] += 1
    size = prod(
        count ** (1 - joined[b] / points) if points else count
        for b, (count, points) in enumerate(boxes)
    )
    for a, b in through:
        join(a, b)
    top, bottom = ex.arity(pieces[0])[0], ex.arity(pieces[-1])[1]
    if closed:
        for i in range(top):
            join((0, i), (len(pieces), i))
    ends_open = {find((0, i)) for i in range(top)} | {find((len(pieces), i)) for i in range(bottom)}
    components = {find(x) for x in list(parent)}
    return size, len(components) if closed else len(components - ends_open)


@contextmanager
def engine_inputs():
    """Record the object count of every complex the elimination engine
    (complexes._Work) takes in, in order: a list that fills while the block
    runs.  Every simplify enters the engine there, so this counts what the
    planar products it simplifies hold."""
    sizes: list[int] = []
    engine = cx._Work

    class Recording(engine):
        def __init__(self, C, *args, **kwargs):
            sizes.append(sum(len(objs) for objs in C.groups.values()))
            super().__init__(C, *args, **kwargs)

    cx._Work = Recording
    try:
        yield sizes
    finally:
        cx._Work = engine


def complex_bytes(C: ChainComplex) -> str:
    """complex_to_data of C as JSON, and its reliable band."""
    import json

    from spinhom.serialize import complex_to_data

    return json.dumps(complex_to_data(C), sort_keys=True) + repr(C.reliable)

# ---------------------------------------------------------------------------
# Reference rewrite engine: projector.rewrite_network's rule engine as it was
# before each decision moved into one place (one absorption rule, one colour
# helper, one rotation generator), kept verbatim as the oracle the new engine
# must equal on rewrite_corpus().  It stops after 300 passes, as it did.


def _flatten_beside(e: ex.NetworkExpr) -> list[ex.NetworkExpr]:
    if isinstance(e, ex.Beside):
        return _flatten_beside(e.left) + _flatten_beside(e.right)
    return [e]


def _rebuild_beside(items: list[ex.NetworkExpr]) -> ex.NetworkExpr:
    out = items[0]
    for item in items[1:]:
        out = ex.Beside(out, item)
    return out


def _interchange(a: ex.NetworkExpr, b: ex.NetworkExpr, mode: str) -> ex.NetworkExpr | None:
    """Stack of two Beside-chains with aligned cut points -> Beside of
    Stacks, applied when some component pair can then rewrite."""
    la, lb = _flatten_beside(a), _flatten_beside(b)
    if len(la) < 2 and len(lb) < 2:
        return None

    def widths(items):
        out = []
        for it in items:
            ar = ex.arity(it)
            if ar is None:
                return None
            out.append(ar)
        return out

    wa, wb = widths(la), widths(lb)
    if wa is None or wb is None:
        return None
    cuts_a = {sum(x[1] for x in wa[:i]) for i in range(1, len(wa))}
    cuts_b = {sum(x[0] for x in wb[:i]) for i in range(1, len(wb))}
    cuts = sorted(cuts_a & cuts_b)
    if not cuts:
        return None

    def split(items, ws, which):
        groups = []
        cur = []
        acc = 0
        cut_iter = list(cuts) + [None]
        ci = 0
        for it, w in zip(items, ws):
            cur.append(it)
            acc += w[which]
            if cut_iter[ci] is not None and acc == cut_iter[ci]:
                groups.append(cur)
                cur = []
                ci += 1
        groups.append(cur)
        return groups

    ga = split(la, wa, 1)
    gb = split(lb, wb, 0)
    if len(ga) != len(gb) or len(ga) < 2:
        return None
    pieces = []
    useful = False
    for seg_a, seg_b in zip(ga, gb):
        top = _rebuild_beside(seg_a)
        bot = _rebuild_beside(seg_b)
        stacked = _structural(ex.Stack(top, bot))
        if isinstance(stacked, ex.Stack):
            fired = _apply_stack_rules(_flatten_stack(stacked), mode)
            if fired is not None:
                useful = True
        else:
            useful = True
        pieces.append(stacked)
    if not useful:
        return None
    return _rebuild_beside(pieces)


def _is_bundle(e: ex.NetworkExpr) -> tuple[int, bool, bool] | None:
    """If e is a Beside-chain of strands and projectors, return
    (total strands, has white boxes, has black boxes)."""
    match e:
        case ex.Strand(k):
            return (k, False, False)
        case ex.Proj(n):
            return (n, True, False)
        case ex.DualProj(n):
            return (n, False, True)
        case ex.Beside(l, r):
            a = _is_bundle(l)
            b = _is_bundle(r)
            if a is None or b is None:
                return None
            return (a[0] + b[0], a[1] or b[1], a[2] or b[2])
    return None


def _flatten_stack(e: ex.NetworkExpr) -> list[ex.NetworkExpr]:
    if isinstance(e, ex.Stack):
        return _flatten_stack(e.top) + _flatten_stack(e.bottom)
    return [e]


def _rebuild_stack(items: list[ex.NetworkExpr]) -> ex.NetworkExpr:
    if not items:
        raise SpinhomError("empty stack")
    out = items[-1]
    for item in reversed(items[:-1]):
        out = ex.Stack(item, out)
    return out


def _structural(e: ex.NetworkExpr) -> ex.NetworkExpr:
    """Zero absorption, unit strands, strand merging."""
    match e:
        case ex.Stack(t, b):
            t, b = _structural(t), _structural(b)
            if isinstance(t, ex.Zero) or isinstance(b, ex.Zero):
                return ex.Zero()
            if isinstance(t, ex.Strand):
                return b
            if isinstance(b, ex.Strand):
                return t
            return ex.Stack(t, b)
        case ex.Beside(l, r):
            l, r = _structural(l), _structural(r)
            if isinstance(l, ex.Zero) or isinstance(r, ex.Zero):
                return ex.Zero()
            if isinstance(l, ex.Strand) and l.k == 0:
                return r
            if isinstance(r, ex.Strand) and r.k == 0:
                return l
            if isinstance(l, ex.Strand) and isinstance(r, ex.Strand):
                return ex.Strand(l.k + r.k)
            return ex.Beside(l, r)
        case ex.Trace(inner):
            inner = _structural(inner)
            if isinstance(inner, ex.Zero):
                return ex.Zero()
            return ex.Trace(inner)
    return e


def _apply_stack_rules(items: list[ex.NetworkExpr], mode: str) -> list[ex.NetworkExpr] | None:
    """One rewriting step on a flattened Stack chain; None if no rule fires.

    Absorption: a bundle carrying projectors next to a full-width projector
    collapses into the projector (white/white and black/black always;
    black-into-white needs product mode, white-into-black sum mode).
    Semi-orthogonality: Proj(j) above ... above DualProj(i) with i < j is
    zero in product mode; DualProj(j) ... Proj(i) in sum mode.
    """
    for idx, item in enumerate(items):
        info = _is_bundle(item)
        if info is None or isinstance(item, (ex.Proj, ex.DualProj, ex.Strand)):
            continue
        total, has_white, has_black = info
        for other in (idx - 1, idx + 1):
            if not 0 <= other < len(items):
                continue
            tgt = items[other]
            if isinstance(tgt, ex.Proj) and tgt.n == total:
                if has_black and mode != "product":
                    continue
                return items[:idx] + items[idx + 1 :]
            if isinstance(tgt, ex.DualProj) and tgt.n == total:
                if has_white and mode != "sum":
                    continue
                return items[:idx] + items[idx + 1 :]
    # adjacent equal-width projectors: one box absorbs the other; in mixed
    # pairs the white box survives in product mode, the black one in sum
    for idx in range(len(items) - 1):
        a, b = items[idx], items[idx + 1]
        if not isinstance(a, (ex.Proj, ex.DualProj)):
            continue
        if not isinstance(b, (ex.Proj, ex.DualProj)):
            continue
        if a.n != b.n:
            continue
        kinds = (isinstance(a, ex.Proj), isinstance(b, ex.Proj))
        if kinds[0] == kinds[1]:
            return items[:idx] + items[idx + 1 :]
        if mode == "product":
            keep = a if kinds[0] else b
            return items[:idx] + [keep] + items[idx + 2 :]
        if mode == "sum":
            keep = a if not kinds[0] else b
            return items[:idx] + [keep] + items[idx + 2 :]
    # semi-orthogonality
    for i1 in range(len(items)):
        for i2 in range(i1 + 1, len(items)):
            a, b = items[i1], items[i2]
            if (
                mode == "product"
                and isinstance(a, ex.Proj)
                and isinstance(b, ex.DualProj)
                and b.n < a.n
            ):
                return [ex.Zero()]
            if (
                mode == "sum"
                and isinstance(a, ex.DualProj)
                and isinstance(b, ex.Proj)
                and b.n < a.n
            ):
                return [ex.Zero()]
    return None


def _commute_projectors(items: list[ex.NetworkExpr], mode: str) -> list[ex.NetworkExpr] | None:
    """Move a square-arity projector past its neighbor when that enables an
    absorption later: Proj commutes in product mode, DualProj in sum mode."""
    def arity_of(e):
        try:
            return ex.arity(e)
        except Exception:
            return None

    for idx in range(len(items) - 1):
        a, b = items[idx], items[idx + 1]
        swap = None
        if isinstance(a, ex.Proj) and mode == "product":
            ab = arity_of(b)
            if ab is not None and ab == (a.n, a.n) and not isinstance(b, (ex.Proj, ex.DualProj)):
                swap = (b, a)
        if isinstance(b, ex.DualProj) and mode == "sum":
            aa = arity_of(a)
            if aa is not None and aa == (b.n, b.n) and not isinstance(a, (ex.Proj, ex.DualProj)):
                swap = (b, a)
        if swap is not None:
            candidate = items[:idx] + list(swap) + items[idx + 2 :]
            if _apply_stack_rules(candidate, mode) is not None:
                return candidate
    return None


def _trace_kills_projector(items: list[ex.NetworkExpr], mode: str) -> bool:
    """Inside a trace, a projector whose strands must cross an interface
    narrower than its label dies: the cyclic word contains P_j composed
    with a through-degree < j segment (white boxes in product mode, black
    in sum mode; the all-one-color chain is bounded on the needed side)."""
    if len(items) < 2:
        return False
    arities = []
    for item in items:
        a = ex.arity(item)
        if a is None:
            return False
        arities.append(a)
    interfaces = [a[0] for a in arities]  # top boundary of each item
    box = ex.Proj if mode == "product" else ex.DualProj
    other = ex.DualProj if mode == "product" else ex.Proj
    if any(isinstance(it, other) for it in items):
        return False
    labels = [it.n for it in items if isinstance(it, box)]
    if not labels:
        return False
    return max(labels) > min(interfaces)


def reference_rewrite_network(e: ex.NetworkExpr, mode: str = "product") -> ex.NetworkExpr:
    """Normal form under isotopy normalization (vertex expansion, the
    interchange law, spherical rotation under a trace), absorption,
    commuting, and semi-orthogonality.

    A homotopy-equivalence-preserving preprocessor: the instantiated
    complexes before and after agree in the window interior (checked by the
    test suite).  The CLI `homology --verify` flag recomputes the query
    without rewriting and compares the two homology tables on their common
    reliable band and the low-order terms of the two Euler series.  On a
    two-sided network (a projector against a dual projector, as in a
    hom(...) query between networks with projectors, or any theta) the
    un-rewritten route has an empty reliable band, so --verify fails there
    (exit 6) whatever the answer, until it compares against a one-sided
    second route instead.

    push_duals leaves a Dual only around a Vertex, and expand_vertices has
    removed every Vertex, so the rules below never meet a Dual node.
    """
    e = _structural(ex.push_duals(expand_vertices(e)))
    for _ in range(300):
        changed = False

        def try_chain(items: list[ex.NetworkExpr]) -> list[ex.NetworkExpr] | None:
            step = _apply_stack_rules(items, mode)
            if step is not None:
                return step
            for idx in range(len(items) - 1):
                inter = _interchange(items[idx], items[idx + 1], mode)
                if inter is not None:
                    return items[:idx] + [inter] + items[idx + 2 :]
            return _commute_projectors(items, mode)

        def walk(node: ex.NetworkExpr) -> ex.NetworkExpr:
            nonlocal changed
            if isinstance(node, ex.Stack):
                items = [walk(x) for x in _flatten_stack(node)]
                step = try_chain(items)
                if step is not None:
                    changed = True
                    items = step
                if len(items) == 1:
                    return items[0]
                return _rebuild_stack(items)
            if isinstance(node, ex.Beside):
                return ex.Beside(walk(node.left), walk(node.right))
            if isinstance(node, ex.Trace):
                inner = walk(node.inner)
                items = _flatten_stack(inner)
                if _trace_kills_projector(items, mode):
                    changed = True
                    return ex.Zero()
                if len(items) > 1 and not changed:
                    for i in range(len(items)):
                        rot = items[i:] + items[:i]
                        if not _stackable_cyclic(rot):
                            continue
                        step = try_chain(rot)
                        if step is not None:
                            changed = True
                            items = step
                            break
                if len(items) == 1:
                    return ex.Trace(items[0])
                return ex.Trace(_rebuild_stack(items))
            return node

        e = walk(e)
        e = _structural(e)
        if not changed:
            break
    return _canonical_rotation(e)


def _stackable_cyclic(rot: list[ex.NetworkExpr]) -> bool:
    try:
        a = ex.arity(_rebuild_stack(rot))
    except Exception:
        return False
    return a is None or a[0] == a[1]


def _canonical_rotation(e: ex.NetworkExpr) -> ex.NetworkExpr:
    """Pick the lexicographically smallest cyclic rotation under traces."""
    match e:
        case ex.Trace(inner):
            items = _flatten_stack(_canonical_rotation(inner))
            if len(items) > 1:
                best = None
                for i in range(len(items)):
                    rot = items[i:] + items[:i]
                    if not _stackable_cyclic(rot):
                        continue
                    txt = ex.to_text(_rebuild_stack(rot))
                    if best is None or txt < best[0]:
                        best = (txt, rot)
                if best is not None:
                    items = best[1]
            return ex.Trace(_rebuild_stack(items))
        case ex.Stack(t, b):
            return ex.Stack(_canonical_rotation(t), _canonical_rotation(b))
        case ex.Beside(l, r):
            return ex.Beside(_canonical_rotation(l), _canonical_rotation(r))
    return e


# ---------------------------------------------------------------------------
# The rewrite corpus: every small network the differential between
# rewrite_network and reference_rewrite_network runs on.


def _arity_ok(e) -> bool:
    try:
        ex.arity(e)
    except SpinhomError:
        return False
    return True


def _corpus_bases() -> tuple[list, list, list]:
    """The leaves (strand(0..3), p(0..3), dual(p(0..3)), every admissible
    vertex with labels <= 3 and a + b + c <= 6, and zero), the level-2
    expressions (dual and tr of a leaf, stack and beside of two leaves:
    the distinct ones whose arity does not raise), and the level-2
    expressions whose arities are at most 4 (or None)."""
    leaves = [ex.Strand(k) for k in range(4)] + [ex.Proj(n) for n in range(4)]
    leaves += [ex.Dual(ex.Proj(n)) for n in range(4)]
    for a, b, c in product(range(4), repeat=3):
        if a + b + c <= 6 and _arity_ok(ex.Vertex(a, b, c)):
            leaves.append(ex.Vertex(a, b, c))
    leaves.append(ex.Zero())
    level2 = [op(x) for x in leaves for op in (ex.Dual, ex.Trace)]
    level2 += [op(a, b) for a in leaves for b in leaves for op in (ex.Stack, ex.Beside)]
    level2 = list(dict.fromkeys(e for e in level2 if _arity_ok(e)))
    small = [m for m in level2 if ex.arity(m) is None or max(ex.arity(m)) <= 4]
    return leaves, level2, small


def _level3(m, leaf) -> list:
    return [ex.Stack(m, leaf), ex.Stack(leaf, m), ex.Beside(m, leaf)]


def rewrite_corpus():
    """Every expression of the enumeration once, in a fixed order: the
    leaves and level 2 (_corpus_bases); level 3, tr and dual of a level-2
    expression, and stack (both orders) and beside of one with a leaf;
    level 4, stack of two level-2 expressions whose arities are at most 4
    (or None), and its tr.  Only expressions whose arity does not raise;
    630,491 in all."""
    leaves, level2, small = _corpus_bases()

    def candidates():
        yield from leaves
        yield from level2
        for m in level2:
            yield ex.Trace(m)
            yield ex.Dual(m)
            for leaf in leaves:
                yield from _level3(m, leaf)
        for m1 in small:
            for m2 in small:
                yield ex.Stack(m1, m2)
                yield ex.Trace(ex.Stack(m1, m2))

    seen = set()
    for e in candidates():
        if e not in seen and _arity_ok(e):
            seen.add(e)
            yield e


def rewrite_corpus_sample(seed: int, draws: int) -> list:
    """A deterministic sample of rewrite_corpus(), drawn without generating
    the whole: every leaf and every level-2 expression, tr and dual of
    `draws` level-2 expressions, `draws` level-3 compositions and `draws`
    level-4 stacks with their traces, each drawn at random and kept when
    its arity does not raise."""
    rng = random.Random(seed)
    leaves, level2, small = _corpus_bases()
    out = leaves + level2
    for _ in range(draws):
        m = rng.choice(level2)
        out += [ex.Trace(m), ex.Dual(m), rng.choice(_level3(m, rng.choice(leaves)))]
        s = ex.Stack(rng.choice(small), rng.choice(small))
        out += [s, ex.Trace(s)]
    return [e for e in dict.fromkeys(out) if _arity_ok(e)]
