import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinhom.laurent import LaurentPoly, RatFunc, quantum_integer


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


def test_ratfunc_normal_form_is_structural():
    # equal values normalize to identical representations
    a = RatFunc.from_laurent(lp({1: 2, -1: 2})) / RatFunc.from_laurent(lp({0: 4}))
    b = RatFunc.from_laurent(lp({1: 1, -1: 1})) / RatFunc.from_laurent(lp({0: 2}))
    assert a.num == b.num and a.den == b.den


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
