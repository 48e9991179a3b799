import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    reference_beside_matchings,
    reference_compose_matchings,
    reference_compose_tl,
    reference_jones_wenzl,
    reference_markov_trace,
)
from spinhom import expr as ex
from spinhom import tl
from spinhom.cob import FlatTangle, beside_ob, stack_ob
from spinhom.errors import AdmissibilityError, ArityError, DimensionError, SpinhomError
from spinhom.laurent import LaurentPoly, RatFunc, quantum_integer

LOOP = RatFunc.from_laurent(tl.LOOP)


def test_matching_validation():
    with pytest.raises(SpinhomError):
        FlatTangle(2, 2, (3, 2, 1, 0))  # crossing
    with pytest.raises(DimensionError):
        FlatTangle(1, 2, (1, 0, 2))
    assert FlatTangle.e(0, 2).through_strands() == 0
    assert FlatTangle.identity(3).through_strands() == 3
    assert FlatTangle.turnback_above(0, 3).through_strands() == 1
    # terms are circle-free matchings on the element's boundary
    with pytest.raises(DimensionError):
        tl.TLElement.from_matching(FlatTangle(2, 2, (1, 0, 3, 2), circles=1))
    with pytest.raises(DimensionError):
        tl.TLElement(2, 2, {FlatTangle.e(0, 3): RatFunc.one()})


def test_matching_counts():
    assert len(tl.all_matchings(2, 2)) == 2
    assert len(tl.all_matchings(3, 3)) == 5
    assert len(tl.all_matchings(4, 4)) == 14
    assert len(tl.all_matchings(0, 6)) == 5
    assert len(tl.all_matchings(1, 3)) == 2


#: every boundary (m, n) with at most 4 points on each side
SMALL = [(m, n) for m in range(5) for n in range(5) if (m + n) % 2 == 0]


def test_compose_matchings_against_reference():
    checked = 0
    for m, k in SMALL:
        for n in range(5):
            if (k + n) % 2:
                continue
            for a in tl.all_matchings(m, k):
                for b in tl.all_matchings(k, n):
                    pairs, circles = reference_compose_matchings(a, b)
                    d, c = tl.compose_matchings(a, b)
                    assert (d, c) == (FlatTangle(m, n, pairs), circles), (a, b)
                    assert stack_ob(a, b).tangle == FlatTangle(m, n, pairs, circles)
                    a1 = FlatTangle(a.m, a.n, a.pairs, 1)
                    b2 = FlatTangle(b.m, b.n, b.pairs, 2)
                    assert stack_ob(a1, b2).tangle == FlatTangle(m, n, pairs, circles + 3)
                    checked += 1
    assert checked == 579


def test_beside_ob_against_reference():
    small = [t for m, n in SMALL for t in tl.all_matchings(m, n)]
    assert len(small) == 43
    for a in small:
        for b in small:
            expect = FlatTangle(a.m + b.m, a.n + b.n, reference_beside_matchings(a, b))
            assert beside_ob(a, b) == expect, (a, b)
            a1 = FlatTangle(a.m, a.n, a.pairs, 1)
            assert beside_ob(a1, b) == FlatTangle(expect.m, expect.n, expect.pairs, 1)


def test_compose_circle_rule():
    e1 = tl.TLElement.e(0, 2)
    assert tl.compose_tl(e1, e1) == e1.scale(LOOP)
    assert tl.compose_tl(tl.TLElement.identity(2), e1) == e1
    assert tl.compose_tl(e1, tl.TLElement.identity(2)) == e1


def test_compose_zigzag():
    z = tl.compose_tl(tl.TLElement.e(0, 3), tl.TLElement.e(1, 3))
    assert len(z.terms) == 1
    assert list(z.terms.values())[0] == RatFunc.one()


def test_compose_associative_random():
    rng = random.Random(3)
    ms = tl.all_matchings(2, 2) + tl.all_matchings(2, 4) + tl.all_matchings(4, 2)
    by_type = {}
    for m in ms:
        by_type.setdefault((m.m, m.n), []).append(m)
    for _ in range(40):
        a = tl.TLElement.from_matching(rng.choice(by_type[(2, 2)]), rng.randint(1, 3))
        b = tl.TLElement.from_matching(rng.choice(by_type[(2, 4)]))
        c = tl.TLElement.from_matching(rng.choice(by_type[(4, 2)]))
        lhs = tl.compose_tl(tl.compose_tl(a, b), c)
        rhs = tl.compose_tl(a, tl.compose_tl(b, c))
        assert lhs == rhs


# Random multi-term elements on at most 4 strands for the term-by-term
# references: coefficients are +-q^s [i]/[j], the ratios Jones-Wenzl
# coefficients are made of, so distinct terms carry distinct denominators;
# some are divided by 2 or 3, so the common denominator's integer content
# (the lcm of 2, 3 and 6 in laurent.common_denominator) is exercised too.
_QINT = [RatFunc.from_laurent(quantum_integer(i)) for i in range(6)]


@st.composite
def qratio(draw):
    i, j = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    mono = LaurentPoly.monomial(draw(st.integers(-2, 2)), draw(st.sampled_from([1, -1, 2])))
    return _QINT[i] / _QINT[j] * mono / draw(st.sampled_from([1, 1, 2, 3]))


@st.composite
def tl_element(draw, m, n, max_terms=4, coeffs=qratio()):
    ds = draw(st.lists(st.sampled_from(tl.all_matchings(m, n)), min_size=1,
                       max_size=max_terms, unique=True))
    return tl.TLElement(m, n, {d: draw(coeffs) for d in ds})


def _boundary_to(draw, k):
    """A point count of at most 4 that can share a matching with k points."""
    return draw(st.integers(0, 4).filter(lambda m: (m + k) % 2 == 0))


@st.composite
def composable_pair(draw):
    k = draw(st.integers(0, 4))
    m, n = _boundary_to(draw, k), _boundary_to(draw, k)
    return draw(tl_element(m, k)), draw(tl_element(k, n)), False


@st.composite
def killed_pair(draw):
    """x over p_k with x in TL(m, k), m < k: every term of x ends in a cap,
    which p_k kills, so the nonzero products cancel exactly."""
    k = draw(st.integers(2, 4))
    m = draw(st.sampled_from(range(k - 2, -1, -2)))
    return draw(tl_element(m, k)), tl.jones_wenzl(k), True


@st.composite
def pooled_pair(draw):
    """Terms whose coefficients come from a pool of two or three values, so
    one coefficient pair meets several circle counts (up to three, on six
    middle points), and one product many output matchings; or p_k over
    such an element, whose own coefficients repeat as well."""
    coeffs = st.sampled_from(draw(st.lists(qratio(), min_size=2, max_size=3)))
    k = draw(st.integers(2, 6))
    b = draw(tl_element(k, _boundary_to(draw, k), max_terms=8, coeffs=coeffs))
    if k <= 4 and draw(st.booleans()):
        return tl.jones_wenzl(k), b, False
    return draw(tl_element(_boundary_to(draw, k), k, max_terms=8, coeffs=coeffs)), b, False


# Every cap pattern on six points over every cup pattern, all with
# coefficient 1: one coefficient pair closes one, two and three circles.
_CLOSE_SIX = (
    tl.TLElement(0, 6, {d: RatFunc.one() for d in tl.all_matchings(0, 6)}),
    tl.TLElement(6, 0, {d: RatFunc.one() for d in tl.all_matchings(6, 0)}),
    False,
)


@given(st.one_of(composable_pair(), killed_pair(), pooled_pair()))
@example(_CLOSE_SIX)
@settings(max_examples=300, deadline=None)
def test_compose_tl_matches_term_by_term_reference(case):
    a, b, cancels = case
    got = tl.compose_tl(a, b)
    assert got == reference_compose_tl(a, b)
    if cancels:
        assert got.is_zero()


@st.composite
def traced_element(draw):
    """A square element, or one built as c d1 - c LOOP^(c1 - c2) d2 from two
    matchings whose closures have c1 and c2 circles, so its trace is zero."""
    n = draw(st.integers(0, 4))
    if n >= 2 and draw(st.booleans()):
        d1, d2 = draw(st.lists(st.sampled_from(tl.all_matchings(n, n)), min_size=2,
                               max_size=2, unique=True))
        c = draw(qratio())
        t1 = tl.markov_trace(tl.TLElement.from_matching(d1))
        t2 = tl.markov_trace(tl.TLElement.from_matching(d2))
        return tl.TLElement(n, n, {d1: c, d2: -c * t1 / t2}), True
    return draw(tl_element(n, n)), False


@given(traced_element())
@settings(max_examples=200, deadline=None)
def test_markov_trace_matches_term_by_term_reference(case):
    x, cancels = case
    got = tl.markov_trace(x)
    assert got == reference_markov_trace(x)
    if cancels:
        assert got.is_zero()


@st.composite
def paired_elements(draw):
    """a in TL(m, k) and b in TL(k, m) with m + k <= 6, each term drawn from
    all matchings on its boundary."""
    m = draw(st.integers(0, 6))
    k = draw(st.integers(0, 6 - m).filter(lambda k: (m + k) % 2 == 0))
    return draw(tl_element(m, k, max_terms=5)), draw(tl_element(k, m, max_terms=5))


@given(paired_elements())
@settings(max_examples=200, deadline=None)
def test_trace_pairing_matches_trace_of_reference_product(pair):
    a, b = pair
    expect = reference_markov_trace(reference_compose_tl(a, b))
    assert tl.trace_pairing(a, b) == expect
    assert tl.trace_pairing(b, a) == expect


def test_trace_pairing_on_every_matching_pair():
    # coefficient 1 on both sides: the pairing is LOOP to the number of
    # closure circles of the two matchings
    checked = 0
    for m in range(7):
        for k in range(m % 2, 7 - m, 2):
            for da in tl.all_matchings(m, k):
                for db in tl.all_matchings(k, m):
                    a, b = tl.TLElement.from_matching(da), tl.TLElement.from_matching(db)
                    expect = reference_markov_trace(reference_compose_tl(a, b))
                    assert tl.trace_pairing(a, b) == expect, (da, db)
                    checked += 1
    assert checked == 199


def test_trace_pairing_boundary():
    one = tl.TLElement.identity(2)
    cap = tl.TLElement.from_matching(FlatTangle.turnback_above(0, 2))  # in TL(0, 2)
    cup = tl.TLElement.from_matching(FlatTangle.turnback_below(0, 2))  # in TL(2, 0)
    assert tl.trace_pairing(cap, cup) == LOOP
    with pytest.raises(DimensionError):
        tl.trace_pairing(one, cap)  # not stackable
    with pytest.raises(DimensionError):
        tl.trace_pairing(one, cup)  # stackable, but the product is not square
    with pytest.raises(DimensionError):
        tl.markov_trace(cap)


@st.composite
def side_by_side_pair(draw):
    m1 = draw(st.integers(0, 4))
    m2 = draw(st.integers(0, 4 - m1))
    return (draw(tl_element(m1, _boundary_to(draw, m1))),
            draw(tl_element(m2, _boundary_to(draw, m2))))


@given(side_by_side_pair())
@settings(max_examples=100, deadline=None)
def test_beside_tl_keeps_every_product(pair):
    a, b = pair
    got = tl.beside_tl(a, b)
    assert len(got.terms) == len(a.terms) * len(b.terms)
    for da, ca in a.terms.items():
        for db, cb in b.terms.items():
            assert got.terms[beside_ob(da, db)] == ca * cb


def test_through_degree():
    assert tl.through_degree(tl.TLElement.identity(4)) == 4
    assert tl.through_degree(tl.TLElement.e(1, 4)) == 2
    p3 = tl.jones_wenzl(3)
    assert tl.through_degree(p3 - tl.TLElement.identity(3)) == 1
    with pytest.raises(SpinhomError):
        tl.through_degree(tl.TLElement.zero(2, 2))


@pytest.mark.parametrize("n", range(1, 8))
def test_jones_wenzl_axioms(n):
    p = tl.jones_wenzl(n)
    assert tl.compose_tl(p, p) == p
    for i in range(n - 1):
        assert tl.compose_tl(tl.TLElement.e(i, n), p).is_zero()
        assert tl.compose_tl(p, tl.TLElement.e(i, n)).is_zero()
    d = p - tl.TLElement.identity(n)
    assert d.is_zero() or tl.through_degree(d) < n


@pytest.mark.parametrize("n", range(1, 8))
def test_jones_wenzl_matches_wenzl_recursion(n):
    assert tl.jones_wenzl(n).terms == reference_jones_wenzl(n).terms


def _count_calls(monkeypatch, owner, names) -> dict[str, int]:
    """Wrap owner's functions `names` to count their calls while patched."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        fn = getattr(owner, name)

        def counted(*args, fn=fn, name=name):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(owner, name, staticmethod(counted) if isinstance(owner, type) else counted)
    return calls


def test_jones_wenzl_cost(monkeypatch):
    # The single-clasp expansion makes |p_{n-1}| n matching products per
    # level and normalizes each output coefficient once, and the turnback
    # axiom costs |p_n| products for each of the n // 2 reflection orbits of
    # the e_i; the Wenzl recursion made 3,818 products and 1,936
    # normalizations for p_6, and checking all 2(n - 1) turnbacks took the
    # expansion to 2,129 products.
    products = _count_calls(monkeypatch, tl, ["compose_matchings"])
    normalized = _count_calls(monkeypatch, RatFunc, ["_normalized"])
    tl.jones_wenzl.cache_clear()
    tl.jones_wenzl(6)
    assert products["compose_matchings"] <= 900  # 880 at the time of writing
    assert normalized["_normalized"] <= 240  # 230


def _reflection_orbit(d: FlatTangle) -> set[FlatTangle]:
    return {d, d.flip(), d.mirror(), d.flip().mirror()}


@pytest.mark.parametrize("n", range(3, 7))
def test_axiom_check_rejects_an_asymmetric_coefficient(n):
    p = tl.jones_wenzl(n)
    d = next(d for d in sorted(p.terms, key=FlatTangle.sort_key) if len(_reflection_orbit(d)) > 1)
    wrong = p + tl.TLElement.from_matching(d, quantum_integer(2))
    with pytest.raises(SpinhomError, match="reflection symmetric"):
        tl._check_axioms(wrong)
    tl._check_axioms(p)


@pytest.mark.parametrize("n", range(2, 7))
def test_axiom_check_rejects_a_symmetric_wrong_projector(n):
    # flip- and mirror-symmetric, with through degree in order: only the
    # turnbacks tell these from p_n, and the orbit representatives suffice
    with pytest.raises(SpinhomError, match="turnback axiom"):
        tl._check_axioms(tl.TLElement.identity(n))
    p = tl.jones_wenzl(n)
    for d in sorted(p.terms, key=FlatTangle.sort_key):
        if d != FlatTangle.identity(n):
            orbit = sorted(_reflection_orbit(d), key=FlatTangle.sort_key)
            nudge = tl.TLElement(n, n, {e: RatFunc.one() for e in orbit})
            with pytest.raises(SpinhomError, match="turnback axiom"):
                tl._check_axioms(p + nudge)


@pytest.mark.parametrize("n", range(1, 8))
def test_markov_trace_of_projector(n):
    assert tl.markov_trace(tl.jones_wenzl(n)) == RatFunc.from_laurent(
        quantum_integer(n + 1)
    )


def test_markov_trace_small():
    assert tl.markov_trace(tl.TLElement.identity(2)) == LOOP * LOOP
    assert tl.markov_trace(tl.TLElement.e(0, 2)) == LOOP


def test_jw2_formula():
    p2 = tl.jones_wenzl(2)
    expect = tl.TLElement.identity(2) - tl.TLElement.e(0, 2).scale(
        RatFunc.one() / LOOP
    )
    assert p2 == expect


def test_network_evaluation():
    for n in range(1, 6):
        assert tl.evaluate_network(ex.unknot(n)) == RatFunc.from_laurent(
            quantum_integer(n + 1)
        )
    assert tl.evaluate_network(ex.theta(1, 1, 0)) == RatFunc.from_laurent(
        quantum_integer(2)
    )
    assert tl.evaluate_network(ex.theta(1, 1, 2)) == RatFunc.from_laurent(
        quantum_integer(3)
    )


def test_theta_golden_values():
    # computed once by brute-force composition and frozen
    t222 = tl.evaluate_network(ex.theta(2, 2, 2))
    num = RatFunc.from_laurent(quantum_integer(4)) * RatFunc.from_laurent(
        quantum_integer(3)
    )
    den = RatFunc.from_laurent(quantum_integer(2)) * RatFunc.from_laurent(
        quantum_integer(2)
    )
    assert t222 == num / den
    assert tl.evaluate_network(ex.theta(1, 2, 3)) == RatFunc.from_laurent(
        quantum_integer(4)
    )


def test_network_evaluates_each_subexpression_once(monkeypatch):
    # theta = Trace(Stack(v, Dual(v))): the dual reuses the vertex, so the
    # vertex's two compositions are all there are, and the traced stack is
    # one pairing, its product never formed.
    for k in (3, 4):
        tl.jones_wenzl(k)
    calls = _count_calls(monkeypatch, tl, ["compose_tl", "trace_pairing", "vertex_matching"])
    tl.evaluate_network(ex.theta(3, 3, 4))
    assert calls == {"compose_tl": 2, "trace_pairing": 1, "vertex_matching": 1}


def test_network_errors():
    with pytest.raises(ArityError):
        tl.evaluate_network(ex.Proj(2))
    with pytest.raises(AdmissibilityError):
        ex.arity(ex.Vertex(1, 1, 1))
    with pytest.raises(AdmissibilityError):
        ex.arity(ex.Vertex(1, 1, 4))
    # non-strict triangle admits (1,1,2)
    assert ex.arity(ex.Vertex(1, 1, 2)) == (1, 3)


def test_zero_propagation():
    z = ex.Trace(ex.Stack(ex.Proj(2), ex.Stack(ex.Zero(), ex.Proj(2))))
    assert tl.evaluate_network(z).is_zero()


def test_open_expression_containing_zero_has_no_tl_element():
    # the zero of an open expression has no boundary to take its TL_(m,n) from
    for e in (ex.Zero(), ex.Stack(ex.Proj(2), ex.Zero()),
              ex.Beside(ex.Strand(1), ex.Dual(ex.Zero()))):
        with pytest.raises(ArityError):
            tl.tl_element_of(e)


def test_dual_evaluation_invariance():
    v = tl.evaluate_network(ex.Trace(ex.Dual(ex.Proj(3))))
    assert v == RatFunc.from_laurent(quantum_integer(4))
