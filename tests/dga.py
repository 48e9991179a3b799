"""Brute-force bigraded homology of small free graded-commutative dg
algebras over Z.

Used as an independent oracle for sheet-algebra homology: the 2-colored
unknot has a known presentation as Z[x0, x1] (x) Lambda[y0, y1] with
d(y0) = x0^2 and d(y1) = 2 x0 x1, whose homology is computed here from
first principles (monomial bases and Smith normal form) with no input from
the cobordism machinery.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from spinhom.homology import IntMatrix, rank_over_q

# A monomial is (even exponents tuple, odd subset as sorted tuple of indices).
Monomial = tuple[tuple[int, ...], tuple[int, ...]]


@dataclass(frozen=True)
class FreeDGA:
    """Z[x_1..x_r] (x) Lambda[y_1..y_s] with chosen bidegrees and d(y_i).

    Even generators are cycles; d is extended by the Leibniz rule with the
    homological-parity sign.  Bidegrees are (homological, q).
    """

    even_degrees: tuple[tuple[int, int], ...]
    odd_degrees: tuple[tuple[int, int], ...]
    # d(y_i) as a list of (coefficient, even exponent tuple); differentials
    # of odd generators are assumed to land in the even subalgebra.
    odd_diff: tuple[tuple[tuple[int, tuple[int, ...]], ...], ...]

    def mono_bidegree(self, m: Monomial) -> tuple[int, int]:
        h = sum(a * d[0] for a, d in zip(m[0], self.even_degrees))
        q = sum(a * d[1] for a, d in zip(m[0], self.even_degrees))
        for i in m[1]:
            h += self.odd_degrees[i][0]
            q += self.odd_degrees[i][1]
        return h, q

    def d_monomial(self, m: Monomial) -> list[tuple[int, Monomial]]:
        evens, odds = m
        out: list[tuple[int, Monomial]] = []
        for pos, i in enumerate(odds):
            sign = (-1) ** pos  # y's are odd, x-prefix is even
            rest = odds[:pos] + odds[pos + 1 :]
            for coeff, exps in self.odd_diff[i]:
                new_evens = tuple(a + b for a, b in zip(evens, exps))
                out.append((sign * coeff, (new_evens, rest)))
        # collect duplicates
        acc: dict[Monomial, int] = {}
        for c, mono in out:
            acc[mono] = acc.get(mono, 0) + c
        return [(c, mono) for mono, c in acc.items() if c]

    def monomials_in_window(
        self, h_lo: int, h_hi: int, q_lo: int, q_hi: int
    ) -> dict[tuple[int, int], list[Monomial]]:
        """All monomials with bidegree inside the box, grouped by bidegree."""
        # exponent cap per even generator: the loosest single-generator bound
        # from the box (other generators can only tighten, never loosen)
        bounds = []
        for dh, dq in self.even_degrees:
            b = 10**6
            if dh < 0:
                b = min(b, h_lo // dh)
            if dh > 0:
                b = min(b, h_hi // dh)
            if dq > 0:
                b = min(b, q_hi // dq)
            if dq < 0:
                b = min(b, q_lo // dq)
            if b == 10**6:
                raise ValueError("generator with unbounded exponent in the box")
            bounds.append(max(0, b))
        out: dict[tuple[int, int], list[Monomial]] = {}
        odd_subsets = list(
            itertools.chain.from_iterable(
                itertools.combinations(range(len(self.odd_degrees)), k)
                for k in range(len(self.odd_degrees) + 1)
            )
        )
        for exps in itertools.product(*(range(b + 1) for b in bounds)):
            for odds in odd_subsets:
                m: Monomial = (exps, odds)
                h, q = self.mono_bidegree(m)
                if h_lo <= h <= h_hi and q_lo <= q <= q_hi:
                    out.setdefault((h, q), []).append(m)
        for key in out:
            out[key].sort()
        return out

    def bigraded_homology_ranks(
        self, h_lo: int, h_hi: int, q_lo: int, q_hi: int
    ) -> dict[tuple[int, int], int]:
        """Free ranks of H^{(h,q)} inside the box.

        The bidegrees adjacent in homological degree are enlarged so that
        incoming and outgoing differentials are complete; callers should
        keep the box inside the region where that holds (here always, since
        d preserves q and moves h by +1).
        """
        monos = self.monomials_in_window(h_lo - 1, h_hi + 1, q_lo, q_hi)
        index: dict[tuple[int, int], dict[Monomial, int]] = {
            key: {m: i for i, m in enumerate(ms)} for key, ms in monos.items()
        }

        def d_matrix(h: int, q: int) -> IntMatrix:
            src = monos.get((h, q), [])
            tgt_index = index.get((h + 1, q), {})
            entries = {}
            for c, m in enumerate(src):
                for coeff, mono in self.d_monomial(m):
                    entries[(tgt_index[mono], c)] = entries.get((tgt_index[mono], c), 0) + coeff
            return IntMatrix(len(tgt_index), len(src), entries)

        out: dict[tuple[int, int], int] = {}
        for (h, q), ms in monos.items():
            if not (h_lo <= h <= h_hi):
                continue
            rk_out = rank_over_q(d_matrix(h, q))
            rk_in = rank_over_q(d_matrix(h - 1, q))
            free = len(ms) - rk_out - rk_in
            if free:
                out[(h, q)] = free
        return out


def two_color_unknot_dga() -> FreeDGA:
    """The known presentation of the 2-colored unknot endomorphism algebra:
    generators x0 (0,2), x1 (-2,4) even and y0 (-1,4), y1 (-3,6) odd, with
    d(y0) = x0^2 and d(y1) = 2 x0 x1."""
    return FreeDGA(
        even_degrees=((0, 2), (-2, 4)),
        odd_degrees=((-1, 4), (-3, 6)),
        odd_diff=(
            (((1, (2, 0))),),
            (((2, (1, 1))),),
        ),
    )
