import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinhom import tl
from spinhom.laurent import (
    LaurentPoly,
    RatFunc,
    _pcontent,
    _pdiv_exact,
    _pgcd,
    _plcm,
    common_denominator,
    quantum_integer,
)


def lp(d):
    return LaurentPoly(d)


small_poly = st.dictionaries(
    st.integers(-4, 4), st.integers(-6, 6), max_size=4
).map(LaurentPoly)

nonzero_poly = small_poly.filter(lambda p: not p.is_zero())


def test_quantum_integers():
    assert quantum_integer(0).is_zero()
    assert quantum_integer(1) == lp({0: 1})
    assert quantum_integer(2) == lp({1: 1, -1: 1})
    assert quantum_integer(3) == lp({2: 1, 0: 1, -2: 1})
    with pytest.raises(ValueError):
        quantum_integer(-1)


def test_poly_arithmetic():
    a = lp({1: 1, -1: 1})
    assert a * a == lp({2: 1, 0: 2, -2: 1})
    assert a - a == LaurentPoly.zero()
    assert a.bar() == a
    assert lp({3: 2}).bar() == lp({-3: 2})
    assert a.shift(2) == lp({3: 1, 1: 1})
    assert (a ** 3) == a * a * a


# Biased toward the products the cobordism layer makes: single terms,
# negative exponents and unit coefficients.
_exp = st.integers(-6, 6)
_coeff = st.one_of(st.sampled_from([1, -1]), st.integers(-7, 7))
product_factor = st.one_of(
    st.builds(LaurentPoly.monomial, _exp, st.sampled_from([1, -1])),
    st.dictionaries(_exp, _coeff, max_size=1).map(LaurentPoly),
    st.dictionaries(_exp, _coeff, max_size=5).map(LaurentPoly),
)


def _schoolbook(a: LaurentPoly, b: LaurentPoly) -> dict[int, int]:
    acc: dict[int, int] = {}
    for e1, c1 in a.coeffs.items():
        for e2, c2 in b.coeffs.items():
            acc[e1 + e2] = acc.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in acc.items() if c}


@given(product_factor, product_factor)
@settings(max_examples=300, deadline=None)
def test_poly_mul_matches_schoolbook(a, b):
    expected = _schoolbook(a, b)
    prod = a * b
    assert prod.coeffs == expected
    # exponents are listed in the schoolbook order too, so code that
    # iterates a product's coefficients sees one order whichever path ran
    assert list(prod.coeffs) == list(expected)
    assert all(prod.coeffs.values())
    assert (b * a).coeffs == expected


@given(small_poly, small_poly, small_poly)
@settings(max_examples=150, deadline=None)
def test_poly_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert a * (b * c) == (a * b) * c


@given(small_poly, nonzero_poly, small_poly, nonzero_poly)
@settings(max_examples=120, deadline=None)
def test_ratfunc_equality_by_cross_multiplication(n1, d1, n2, d2):
    r1 = RatFunc.from_laurent(n1) / RatFunc.from_laurent(d1)
    r2 = RatFunc.from_laurent(n2) / RatFunc.from_laurent(d2)
    assert (r1 == r2) == (n1 * d2 == n2 * d1)


@given(small_poly, nonzero_poly, small_poly, nonzero_poly, nonzero_poly)
@settings(max_examples=120, deadline=None)
def test_ratfunc_equality_is_value_equality(n1, d1, n2, d2, k):
    # equality compares normal forms; it must agree with x - y = 0, and
    # equal values must hash equal.  The second y is x's value written
    # with a common factor k.
    x = RatFunc.from_laurent(n1) / RatFunc.from_laurent(d1)
    for y in (
        RatFunc.from_laurent(n2) / RatFunc.from_laurent(d2),
        RatFunc.from_laurent(n1 * k) / RatFunc.from_laurent(d1 * k),
    ):
        assert (x == y) == (x - y).is_zero()
        if x == y:
            assert hash(x) == hash(y)


@given(small_poly, nonzero_poly)
@settings(max_examples=120, deadline=None)
def test_ratfunc_self_cancellation(n, d):
    r = RatFunc.from_laurent(n) / RatFunc.from_laurent(d)
    assert (r - r).is_zero()
    if not r.is_zero():
        assert r / r == RatFunc.one()


# Ordinary integer polynomials as coefficient lists (index = exponent) with
# a nonzero leading coefficient; pairs share a random factor, content
# included, so their gcd is often nontrivial.
int_poly = st.lists(st.integers(-6, 6), min_size=1, max_size=4).filter(lambda p: p[-1] != 0)


def _pmul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@given(int_poly, int_poly, int_poly)
@settings(max_examples=200, deadline=None)
def test_plcm_is_product_over_gcd(a, b, shared):
    a, b = _pmul(a, shared), _pmul(b, shared)
    lcm = _plcm(a, b)
    assert lcm[-1] > 0
    # divisible by each input over Z, content included
    _pdiv_exact(lcm, a)
    _pdiv_exact(lcm, b)
    # and equal, up to sign, to a * b over the full gcd
    gcd = [math.gcd(_pcontent(a), _pcontent(b)) * x for x in _pgcd(a, b)]
    product = _pmul(a, b)
    assert _pmul(lcm, gcd) in (product, [-x for x in product])


def test_plcm_content():
    assert _plcm([2], [3]) == [6]
    assert _plcm([4, 2], [6]) == [12, 6]  # lcm(2(x+2), 6) = 6(x+2)
    assert _plcm([-1, 1], [1, -1]) == [-1, 1]  # unit multiples: positive leading coefficient
    assert _plcm([-1, 0, 1], [2, 2]) == [-2, 0, 2]  # (x^2-1) and 2(x+1)


def test_common_denominator_cofactors():
    q2, q3 = quantum_integer(2).shift(1), quantum_integer(3).shift(2)
    dens = {q2, q3 * q2 * 2, LaurentPoly.one() * 3, q3}
    lcm, cofactors = common_denominator(dens)
    assert lcm == q3 * q2 * 6
    assert set(cofactors) == dens
    assert all(cofactors[d] * d == lcm for d in dens)
    assert common_denominator(()) == (LaurentPoly.one(), {})


def test_ratfunc_normal_form_is_structural():
    # equal values normalize to identical representations
    a = RatFunc.from_laurent(lp({1: 2, -1: 2})) / RatFunc.from_laurent(lp({0: 4}))
    b = RatFunc.from_laurent(lp({1: 1, -1: 1})) / RatFunc.from_laurent(lp({0: 2}))
    assert a.num == b.num and a.den == b.den


def _same_form(a: RatFunc, b: RatFunc) -> bool:
    # equal, and with the coefficients in the same order
    return all(list(x.coeffs.items()) == list(y.coeffs.items())
               for x, y in ((a.num, b.num), (a.den, b.den)))


def _bar_by_gcd(x: RatFunc) -> RatFunc:
    return RatFunc._normalized(x.num.bar(), x.den.bar())


@given(small_poly, nonzero_poly, small_poly)
@settings(max_examples=200, deadline=None)
def test_bar_needs_no_gcd(n, d, k):
    # a common factor k and the integer content 2 exercise the normal form
    x = RatFunc._normalized(n * (k or 1) * 2, d * (k or 1))
    assert _same_form(x.bar(), _bar_by_gcd(x))
    assert x.bar().bar() == x


def test_bar_needs_no_gcd_on_jones_wenzl():
    for n in range(1, 7):
        for c in tl.jones_wenzl(n).terms.values():
            assert _same_form(c.bar(), _bar_by_gcd(c)), (n, c)
    assert RatFunc.zero().bar() == RatFunc.zero()


def test_series_expansion():
    # 1/[2] = q - q^3 + q^5 - ...
    r = RatFunc.one() / RatFunc.from_laurent(quantum_integer(2))
    s = r.series(6)
    assert s == lp({1: 1, 3: -1, 5: 1})
    # series reproduces Laurent polynomials exactly
    p = lp({-2: 3, 0: -1, 4: 2})
    assert RatFunc.from_laurent(p).series(4) == p


def test_series_of_jw_style_ratio():
    random.seed(0)
    # [n]/[n+1] expansions stay integral
    for n in range(1, 6):
        r = RatFunc.from_laurent(quantum_integer(n)) / RatFunc.from_laurent(
            quantum_integer(n + 1)
        )
        s = r.series(9)
        assert s.coeffs  # nonzero and integral by construction
