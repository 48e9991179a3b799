"""Exact homology of free Z[alpha]-module complexes.

ModuleComplex is the image of the tautological TQFT: free modules whose
basis elements carry (homological degree, q-degree), and differentials
with alpha-polynomial entries (alpha has q-degree 4, so an entry with
alpha^e connects basis q-degrees differing by 4e).

Specializations: alpha = 0 over Z keeps the bigrading and integral
torsion, read off the invariant factors of each q-block of the
differential (smith_normal_form, a sparse elimination that keeps no
transforms); alpha = 1 over Q collapses the q-grading and reports ranks
per homological degree only (rank_over_q, the number of invariant
factors of the whole differential).
"""

from __future__ import annotations

from collections import Counter
from math import gcd

from .errors import IntegrityError
from .laurent import LaurentPoly
from .record import dataclass, field

AlphaPoly = LaurentPoly


class IntMatrix:
    """Sparse integer matrix with exact arbitrary-precision entries."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: dict[tuple[int, int], int] | None = None):
        self.rows = rows
        self.cols = cols
        self.entries = {k: v for k, v in (entries or {}).items() if v}

    def __getitem__(self, rc: tuple[int, int]) -> int:
        return self.entries.get(rc, 0)

    def transpose(self) -> "IntMatrix":
        return IntMatrix(self.cols, self.rows, {(c, r): v for (r, c), v in self.entries.items()})


def smith_normal_form(M: IntMatrix) -> list[int]:
    """The nonzero invariant factors d_1 | d_2 | ... of M, all positive.

    Sparse elimination on rows {col: value}, with a set of rows per column.
    Each step pivots on an entry p of least absolute value (in the shortest
    such row) and reduces every other row meeting its column by the
    quotient of floor division by p.  Once that column holds p alone,
    column operations change only the pivot row: if p divides the row, p
    splits off as a diagonal entry; otherwise the row is reduced modulo p,
    leaving an entry smaller than p for the next step.  The diagonal is put
    into the divisibility chain by pairwise gcd/lcm, since diag(a, b) and
    diag(gcd, lcm) are equivalent.  No transforms are kept.
    """
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


def in_column_lattice(M: IntMatrix, b: list[int]) -> bool:
    """Whether M x = b has an integer solution x: b lies in the column
    lattice of M exactly when adding b as a column leaves the invariant
    factors unchanged."""
    extended = dict(M.entries)
    extended.update({(r, M.cols): v for r, v in enumerate(b) if v})
    return smith_normal_form(M) == smith_normal_form(IntMatrix(M.rows, M.cols + 1, extended))


def rank_over_q(M: IntMatrix) -> int:
    """Rank over Q: the number of nonzero invariant factors."""
    return len(smith_normal_form(M))


# ---------------------------------------------------------------------------
# Module complexes


def _positions_by_q(qdegs: list[int]) -> tuple[list[int], Counter]:
    """Position of each basis element among those of its q-degree, and the
    number of elements of each q-degree."""
    seen: Counter = Counter()
    pos = []
    for q in qdegs:
        pos.append(seen[q])
        seen[q] += 1
    return pos, seen


@dataclass
class ModuleComplex:
    """Free Z[alpha]-modules with q-graded bases and matrix differentials.

    gens[k] is the list of the q-degrees of the basis elements in
    homological degree k, in basis order; diff[k] holds the entries of
    d: C^k -> C^{k+1} as {(row, col): AlphaPoly}.  reliable is the h-degree
    band in which truncation artifacts are absent.
    """

    gens: dict[int, list[int]]
    diff: dict[int, dict[tuple[int, int], AlphaPoly]]
    reliable: tuple[float, float] = (float("-inf"), float("inf"))

    def degrees(self) -> list[int]:
        return sorted(self.gens)

    def qdegs(self, k: int) -> list[int]:
        return self.gens.get(k, [])

    def shift_q(self, s: int) -> "ModuleComplex":
        return ModuleComplex(
            {k: [q + s for q in qs] for k, qs in self.gens.items()},
            self.diff,
            self.reliable,
        )

    def check(self) -> None:
        """Assert d is q-homogeneous of degree 0 and d.d = 0 over Z[alpha]."""
        for k, mat in self.diff.items():
            qs_src = self.qdegs(k)
            qs_tgt = self.qdegs(k + 1)
            for (r, c), poly in mat.items():
                for aexp in poly.coeffs:
                    if qs_tgt[r] + 4 * aexp != qs_src[c]:
                        raise IntegrityError(
                            f"differential entry not q-homogeneous at degree {k}"
                        )
        for k in sorted(self.diff):
            if k + 1 not in self.diff:
                continue
            d0, d1 = self.diff[k], self.diff[k + 1]
            by_col: dict[int, list[tuple[int, dict[int, int]]]] = {}
            for (r, c), v in d1.items():
                by_col.setdefault(c, []).append((r, v.coeffs))
            # (row, col, alpha exponent) -> integer coefficient of d1.d0
            acc: dict[tuple[int, int, int], int] = {}
            for (r, c), v in d0.items():
                terms = v.coeffs.items()
                for r2, w in by_col.get(r, ()):
                    for e1, c1 in w.items():
                        for e2, c2 in terms:
                            key = (r2, c, e1 + e2)
                            acc[key] = acc.get(key, 0) + c1 * c2
            if any(acc.values()):
                raise IntegrityError(f"d.d != 0 between degrees {k} and {k + 2}")

    def blocks_at_alpha0(self, k: int) -> dict[int, IntMatrix]:
        """d: C^k -> C^{k+1} at alpha=0, split into its q-degree blocks.

        One scan of the differential.  Block q has the basis elements of
        q-degree q as columns and rows, in basis order; blocks without a
        nonzero entry are left out.  At alpha=0 a q-homogeneous d (see
        check) only connects equal q-degrees."""
        src = self.qdegs(k)
        col_pos, n_cols = _positions_by_q(src)
        row_pos, n_rows = _positions_by_q(self.qdegs(k + 1))
        entries: dict[int, dict[tuple[int, int], int]] = {}
        for (r, c), poly in self.diff.get(k, {}).items():
            v = poly.coeffs.get(0)
            if v:
                q = src[c]
                entries.setdefault(q, {})[(row_pos[r], col_pos[c])] = v
        return {q: IntMatrix(n_rows[q], n_cols[q], e) for q, e in entries.items()}

    def matrix_at_alpha1(self, k: int) -> IntMatrix:
        """Full integer matrix of d at alpha=1 (q-grading collapsed)."""
        nr = len(self.gens.get(k + 1, []))
        nc = len(self.gens.get(k, []))
        entries = {}
        for (r, c), poly in self.diff.get(k, {}).items():
            v = sum(poly.coeffs.values())
            if v:
                entries[(r, c)] = v
        return IntMatrix(nr, nc, entries)


@dataclass
class HomologyTable:
    """Bigraded free ranks and torsion of a computed homology.

    Keys are (homological degree, q-degree); for the alpha=1 specialization
    the q slot is None.  unreliable marks bidegrees inside the window
    margin whose values may be truncation artifacts.
    """

    specialization: str
    entries: dict[tuple[int, int | None], tuple[int, tuple[int, ...]]]
    unreliable: set = field(default_factory=set)

    def rank(self, k: int, q: int | None = None) -> int:
        return self.entries.get((k, q), (0, ()))[0]

    def torsion(self, k: int, q: int | None = None) -> tuple[int, ...]:
        return self.entries.get((k, q), (0, ()))[1]

    def nonzero(self) -> dict[tuple[int, int | None], tuple[int, tuple[int, ...]]]:
        return {k: v for k, v in self.entries.items() if v[0] or v[1]}

    def poincare(self) -> LaurentPoly:
        """Graded rank generating function (alpha=0 only), ranks as
        coefficients of (-1)^k q^j."""
        acc: dict[int, int] = {}
        for (k, q), (rank, _) in self.entries.items():
            if q is None or not rank:
                continue
            acc[q] = acc.get(q, 0) + (-1) ** (k % 2) * rank
        return LaurentPoly(acc)


def homology_table(C: ModuleComplex, specialization: str = "alpha0") -> HomologyTable:
    """Bigraded homology with torsion (alpha0/Z) or graded ranks (alpha1/Q)."""
    C.check()
    degrees = C.degrees()
    out: dict[tuple[int, int | None], tuple[int, tuple[int, ...]]] = {}
    unreliable: set = set()
    lo, hi = C.reliable
    if specialization == "alpha0":
        # One Smith normal form per q-block of each d^k: its factors give
        # both the rank leaving C^k and the image entering C^{k+1}.
        factors = {
            k: {q: smith_normal_form(M) for q, M in C.blocks_at_alpha0(k).items()}
            for k in C.diff
        }
        for k in degrees:
            f_out, f_in = factors.get(k, {}), factors.get(k - 1, {})
            counts = Counter(C.qdegs(k))
            for q in sorted(counts):
                entering = f_in.get(q, ())
                free = counts[q] - len(f_out.get(q, ())) - len(entering)
                tors = tuple(f for f in entering if f not in (0, 1))
                if free or tors:
                    out[(k, q)] = (free, tors)
                    if not (lo <= k <= hi):
                        unreliable.add((k, q))
    elif specialization == "alpha1":
        ranks = {k: rank_over_q(C.matrix_at_alpha1(k)) for k in C.diff}
        for k in degrees:
            free = len(C.gens.get(k, [])) - ranks.get(k, 0) - ranks.get(k - 1, 0)
            if free:
                out[(k, None)] = (free, ())
                if not (lo <= k <= hi):
                    unreliable.add((k, None))
    else:
        raise ValueError(f"unknown specialization {specialization!r}")
    return HomologyTable(specialization, out, unreliable)


def table_mismatches(
    M1: ModuleComplex, T1: HomologyTable, M2: ModuleComplex, T2: HomologyTable,
) -> tuple[tuple[float, float], list]:
    """The common reliable band of two module complexes of one question, and
    the bidegrees inside it where their homology tables T1, T2 differ."""
    lo, hi = max(M1.reliable[0], M2.reliable[0]), min(M1.reliable[1], M2.reliable[1])
    return (lo, hi), [
        kq for kq in set(T1.entries) | set(T2.entries)
        if kq[0] is not None and lo <= kq[0] <= hi
        and T1.entries.get(kq, (0, ())) != T2.entries.get(kq, (0, ()))
    ]


def euler_characteristic(C: ModuleComplex) -> LaurentPoly:
    """Alternating sum of graded ranks of the chain groups."""
    acc: dict[int, int] = {}
    for k, qs in C.gens.items():
        s = (-1) ** (k % 2)
        for q in qs:
            acc[q] = acc.get(q, 0) + s
    return LaurentPoly(acc)
