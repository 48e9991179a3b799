"""Exact Laurent polynomials in q and rational functions over them.

LaurentPoly is a finite map {exponent: integer coefficient} with no stored
zeros.  RatFunc is a normalized fraction of two LaurentPolys: the stored
form has integer content 1 in numerator and denominator jointly, no common
polynomial factor, denominator with positive leading coefficient and lowest
exponent 0.  Equality of RatFuncs is therefore plain structural equality,
and it agrees with cross-multiplication.
"""

from __future__ import annotations

import functools
import math
from typing import Iterable, Mapping

from .record import dataclass


class LaurentPoly:
    """An element of Z[q, q^-1], stored sparsely."""

    __slots__ = ("coeffs", "_hash")

    def __init__(self, coeffs: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        items = coeffs.items() if hasattr(coeffs, "items") else coeffs
        acc: dict[int, int] = {}
        for e, c in items:
            if c:
                acc[e] = acc.get(e, 0) + c
                if not acc[e]:
                    del acc[e]
        self.coeffs = acc
        self._hash = None

    @staticmethod
    def _raw(coeffs: dict[int, int]) -> "LaurentPoly":
        out = LaurentPoly.__new__(LaurentPoly)
        out.coeffs = coeffs
        out._hash = None
        return out

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    @classmethod
    def monomial(cls, exp: int, coeff: int = 1) -> "LaurentPoly":
        return cls({exp: coeff})

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = LaurentPoly({0: other})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self.coeffs.items()))
        return self._hash

    def __add__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        if isinstance(other, int):
            other = LaurentPoly({0: other})
        acc = dict(self.coeffs)
        for e, c in other.coeffs.items():
            acc[e] = acc.get(e, 0) + c
            if not acc[e]:
                del acc[e]
        return LaurentPoly._raw(acc)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._raw({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        if isinstance(other, int):
            other = LaurentPoly({0: other})
        return self + (-other)

    def __rsub__(self, other: int) -> "LaurentPoly":
        return LaurentPoly({0: other}) - self

    def __mul__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        if isinstance(other, int):
            if other == 0:
                return LaurentPoly()
            return LaurentPoly._raw({e: c * other for e, c in self.coeffs.items()})
        a, b = self.coeffs, other.coeffs
        # A single term times anything has no cancellation to collect; the
        # result lists its exponents in the order the general loop would.
        if len(a) == 1:
            (e1, c1), = a.items()
            return LaurentPoly._raw({e1 + e2: c1 * c2 for e2, c2 in b.items()})
        if len(b) == 1:
            (e2, c2), = b.items()
            return LaurentPoly._raw({e1 + e2: c1 * c2 for e1, c1 in a.items()})
        acc: dict[int, int] = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = e1 + e2
                acc[e] = acc.get(e, 0) + c1 * c2
        return LaurentPoly._raw({e: c for e, c in acc.items() if c})

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            raise ValueError("negative powers of a general Laurent polynomial")
        result = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by q^k."""
        return LaurentPoly._raw({e + k: c for e, c in self.coeffs.items()})

    def bar(self) -> "LaurentPoly":
        """The involution q -> q^-1."""
        return LaurentPoly._raw({-e: c for e, c in self.coeffs.items()})

    def min_exp(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no minimal exponent")
        return min(self.coeffs)

    def max_exp(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no maximal exponent")
        return max(self.coeffs)

    def truncate(self, below: int | None = None, above: int | None = None) -> "LaurentPoly":
        """Keep only exponents e with below <= e <= above (bounds optional)."""
        out = {
            e: c
            for e, c in self.coeffs.items()
            if (below is None or e >= below) and (above is None or e <= above)
        }
        return LaurentPoly(out)

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for e in sorted(self.coeffs, reverse=True):
            c = self.coeffs[e]
            if e == 0:
                mono = f"{c}"
            else:
                qp = "q" if e == 1 else f"q^{e}"
                if c == 1:
                    mono = qp
                elif c == -1:
                    mono = f"-{qp}"
                else:
                    mono = f"{c}*{qp}"
            parts.append(mono)
        return " + ".join(parts).replace("+ -", "- ")



def quantum_integer(n: int) -> LaurentPoly:
    """The balanced q-integer [n] = q^(n-1) + q^(n-3) + ... + q^(1-n); [0] = 0."""
    if n < 0:
        raise ValueError("quantum integer only defined for n >= 0")
    return LaurentPoly({n - 1 - 2 * i: 1 for i in range(n)})


# ---------------------------------------------------------------------------
# Ordinary (non-Laurent) polynomial helpers used by the gcd routine.  A poly
# is a list of int coefficients, index = exponent, no trailing zeros.


def _trim(p: list[int]) -> list[int]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _pcontent(p: list[int]) -> int:
    return math.gcd(*p) if p else 0


def _pprim(p: list[int]) -> list[int]:
    c = _pcontent(p)
    if c <= 1:
        return list(p)
    return [x // c for x in p]


def _ppseudo_rem(a: list[int], b: list[int]) -> list[int]:
    """Pseudo-remainder of a by b (b nonzero), fraction free."""
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    while len(a) - 1 >= db and a:
        da, la = len(a) - 1, a[-1]
        a = [x * lb for x in a]
        shift = da - db
        for i, y in enumerate(b):
            a[i + shift] -= la * y
        _trim(a)
    return a


@functools.lru_cache(maxsize=1 << 16)
def _pgcd_cached(ta: tuple[int, ...], tb: tuple[int, ...]) -> tuple[int, ...]:
    a, b = list(ta), list(tb)
    while b:
        r = _pprim(_ppseudo_rem(a, b))
        a, b = b, r
    if a and a[-1] < 0:
        a = [-x for x in a]
    return tuple(a)


def _pgcd(a: list[int], b: list[int]) -> list[int]:
    """Primitive gcd of integer polynomials via the primitive PRS."""
    a, b = _pprim(_trim(list(a))), _pprim(_trim(list(b)))
    if not a:
        return b
    if not b:
        return a
    if len(a) == 1 or len(b) == 1:
        return [1]
    if a == b:
        return list(a) if a[-1] > 0 else [-x for x in a]
    return list(_pgcd_cached(tuple(a), tuple(b)))


def _plcm(a: list[int], b: list[int]) -> list[int]:
    """Least common multiple of nonzero integer polynomials, content included:
    a * b / gcd(a, b), with a positive leading coefficient."""
    ca, cb = _pcontent(a), _pcontent(b)
    pa, pb = [x // ca for x in a], [x // cb for x in b]
    g = _pgcd(pa, pb)
    if len(g) > 1:
        pa = _pdiv_exact(pa, g)
    out = [0] * (len(pa) + len(pb) - 1)
    for i, x in enumerate(pa):
        if x:
            for j, y in enumerate(pb):
                out[i + j] += x * y
    c = math.lcm(ca, cb) if out[-1] > 0 else -math.lcm(ca, cb)
    return [x * c for x in out]


def _pdiv_exact(a: list[int], b: list[int]) -> list[int]:
    """Exact division of integer polynomials (raises if not exact)."""
    a = _trim(list(a))
    if not a:
        return []
    out = [0] * (len(a) - len(b) + 1)
    lb = b[-1]
    work = list(a)
    for k in range(len(out) - 1, -1, -1):
        idx = k + len(b) - 1
        coeff = work[idx] if idx < len(work) else 0
        if coeff % lb != 0:
            raise ArithmeticError("inexact polynomial division")
        q = coeff // lb
        out[k] = q
        if q:
            for i, y in enumerate(b):
                work[k + i] -= q * y
    if any(work):
        raise ArithmeticError("inexact polynomial division")
    return _trim(out)


def _laurent_to_poly(p: LaurentPoly) -> tuple[list[int], int]:
    """Write p = q^v * (ordinary polynomial); returns (poly, v)."""
    if p.is_zero():
        return [], 0
    v = p.min_exp()
    out = [0] * (p.max_exp() - v + 1)
    for e, c in p.coeffs.items():
        out[e - v] = c
    return out, v


def _poly_to_laurent(p: list[int], v: int = 0) -> LaurentPoly:
    return LaurentPoly({i + v: c for i, c in enumerate(p) if c})


def common_denominator(
    dens: Iterable[LaurentPoly],
) -> tuple[LaurentPoly, dict[LaurentPoly, LaurentPoly]]:
    """The lcm of normalized RatFunc denominators, and each one's cofactor.

    Returns (L, {den: L / den}) for the distinct dens given; L is 1 when
    there are none.  Like the dens, L is an ordinary polynomial with a
    nonzero constant term and a positive leading coefficient.
    """
    polys = {d: _laurent_to_poly(d)[0] for d in dens}
    lcm = functools.reduce(_plcm, polys.values(), [1])
    cofactors = {d: _poly_to_laurent(_pdiv_exact(lcm, p)) for d, p in polys.items()}
    return _poly_to_laurent(lcm), cofactors


@dataclass(frozen=True)
class RatFunc:
    """A normalized element of Q(q), stored as num/den of LaurentPolys.

    Normal form: den is an ordinary polynomial in q with nonzero constant
    term and positive leading coefficient, gcd(num, den) = 1 as integer
    polynomials, and the integer contents of num and den are coprime.
    """

    num: LaurentPoly
    den: LaurentPoly

    @staticmethod
    def from_laurent(p: LaurentPoly | int) -> "RatFunc":
        if isinstance(p, int):
            p = LaurentPoly({0: p})
        return RatFunc._normalized(p, LaurentPoly.one())

    @staticmethod
    def zero() -> "RatFunc":
        return RatFunc(LaurentPoly.zero(), LaurentPoly.one())

    @staticmethod
    def one() -> "RatFunc":
        return RatFunc(LaurentPoly.one(), LaurentPoly.one())

    @staticmethod
    def _normalized(num: LaurentPoly, den: LaurentPoly) -> "RatFunc":
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            return RatFunc(LaurentPoly.zero(), LaurentPoly.one())
        pn, vn = _laurent_to_poly(num)
        pd, vd = _laurent_to_poly(den)
        if len(pd) > 1 and len(pn) > 1:
            g = _pgcd(pn, pd)
            if len(g) > 1:
                pn = _pdiv_exact(pn, g)
                pd = _pdiv_exact(pd, g)
        cn, cd = _pcontent(pn), _pcontent(pd)
        c = math.gcd(cn, cd)
        if c > 1:
            pn = [x // c for x in pn]
            pd = [x // c for x in pd]
        if pd[-1] < 0:
            pn = [-x for x in pn]
            pd = [-x for x in pd]
        return RatFunc(_poly_to_laurent(pn, vn - vd), _poly_to_laurent(pd))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self) -> bool:
        return not self.num.is_zero()

    def _coerce(self, other) -> "RatFunc | None":
        if isinstance(other, RatFunc):
            return other
        if isinstance(other, (int, LaurentPoly)):
            return RatFunc.from_laurent(other)
        return None

    def __add__(self, other) -> "RatFunc":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.num.is_zero():
            return o
        if o.num.is_zero():
            return self
        if self.den == o.den:
            return RatFunc._normalized(self.num + o.num, self.den)
        return RatFunc._normalized(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self) -> "RatFunc":
        return RatFunc(-self.num, self.den)

    def __sub__(self, other) -> "RatFunc":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other) -> "RatFunc":
        return self._coerce(other) - self

    def __mul__(self, other) -> "RatFunc":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.num.is_zero() or o.num.is_zero():
            return RatFunc.zero()
        return RatFunc._normalized(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RatFunc":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RatFunc._normalized(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other) -> "RatFunc":
        return self._coerce(other) / self

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        # every constructor returns the normal form, which is unique
        return self.num == o.num and self.den == o.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def bar(self) -> "RatFunc":
        """The involution q -> q^-1, with no gcd: reversing the coefficient
        lists of a normal form keeps them coprime with the same contents,
        so only a power of q and the sign of the denominator's constant
        term (its new leading coefficient) remain to fix."""
        pn, vn = _laurent_to_poly(self.num)
        pd, _ = _laurent_to_poly(self.den)
        sign = 1 if pd[0] > 0 else -1
        return RatFunc(
            _poly_to_laurent([sign * c for c in reversed(pn)], len(pd) - len(pn) - vn),
            _poly_to_laurent([sign * c for c in reversed(pd)]),
        )

    def as_laurent(self) -> LaurentPoly:
        """Return the numerator if the denominator is 1, else raise."""
        if self.den == LaurentPoly.one():
            return self.num
        raise ArithmeticError(f"{self!r} is not a Laurent polynomial")

    def series(self, max_exp: int) -> LaurentPoly:
        """Power-series expansion in ascending powers of q up to max_exp.

        The denominator's lowest term is inverted as a unit of Z[[q]][q^-1];
        coefficients must stay integral (they do for quantum-integer ratios
        arising from Jones-Wenzl projectors).
        """
        from fractions import Fraction  # only this method needs it

        if self.num.is_zero():
            return LaurentPoly.zero()
        pd, vd = _laurent_to_poly(self.den)
        pn, vn = _laurent_to_poly(self.num)
        lead = Fraction(1, pd[0])
        shift = vn - vd
        order = max_exp - shift + 1
        if order <= 0:
            return LaurentPoly.zero()
        inv: list[Fraction] = [lead]
        for k in range(1, order):
            s = Fraction(0)
            for j in range(1, min(k, len(pd) - 1) + 1):
                s += pd[j] * inv[k - j]
            inv.append(-lead * s)
        out: dict[int, Fraction] = {}
        for i, c in enumerate(pn):
            if not c:
                continue
            for k, ic in enumerate(inv):
                e = i + k + shift
                if e > max_exp:
                    break
                out[e] = out.get(e, Fraction(0)) + c * ic
        coeffs = {}
        for e, c in out.items():
            if c:
                if c.denominator != 1:
                    raise ArithmeticError("non-integral series coefficient")
                coeffs[e] = int(c)
        return LaurentPoly(coeffs)

    def __repr__(self) -> str:
        if self.den == LaurentPoly.one():
            return repr(self.num)
        return f"({self.num!r})/({self.den!r})"
