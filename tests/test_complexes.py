"""Chain complex layer: planar composition, deloop, Gaussian elimination,
simplify, duals, cones, Hom complexes, tautological functor, bicomplexes."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    Cob,
    assert_sdr,
    cap_source,
    cap_target,
    cobordisms,
    compose,
    column_homotopy,
    first_iso_entry,
    identity_cob,
    nonempty_complex,
    protected_positions,
    random_complex,
    reference_deloop,
    reference_deloop_maps,
    reference_instantiate,
    reference_mat_mul,
    tables_equal,
    two_term_piece,
)
from spinhom import complexes as cx
from spinhom import expr as ex
from spinhom import projector as pj
from spinhom import tl
from spinhom.cob import AlphaPoly, FlatTangle, ShiftedObject, closure_data, iso_sign
from spinhom.complexes import (
    ChainComplex,
    ChainMap,
    Window,
    beside_complexes,
    bicomplex_contraction,
    commutator_with_d,
    compose_maps,
    cone,
    deloop,
    dual_chain_map,
    dual_complex,
    from_tangle,
    gaussian_eliminate,
    hom_complex,
    hom_complex_direct,
    homotopic_alpha0,
    identity_complex,
    shift_h,
    shift_q,
    simplify,
    single_object,
    stack_chain_maps,
    stack_complexes,
    tautological,
    trace_complex,
)
from spinhom.errors import DimensionError, IntegrityError, SpinhomError
from spinhom.homology import euler_characteristic, homology_table
from spinhom.record import replace

E = FlatTangle.e(0, 2)
ONE2 = FlatTangle.identity(2)


def test_planar_stack_koszul_d_squared():
    rng = random.Random(4)
    for _ in range(20):
        A = two_term_piece(rng, 2, rng.randint(-2, 0), rng.randint(-1, 1))
        B = two_term_piece(rng, 2, rng.randint(-2, 0), rng.randint(-1, 1))
        stack_complexes(A, B).validate()
        beside_complexes(A, B).validate()


def test_single_slot_is_identity():
    A = from_tangle(E, 2)
    T = stack_complexes(identity_complex(2), A)
    assert T.graded_objects() == A.graded_objects()


def test_validate_rejects_malformed_term_dicts():
    # the planar products and the engine write term dicts, which no
    # constructor checks, so validate must see a
    # dot assignment of the wrong width or a non-bit, and an entry of
    # nonzero q-degree
    P = pj.p2(Window(-2, 0)).complex
    P.validate()
    ((rc, terms),) = P.diff[-1].items()

    def with_entry(f):
        return replace(P, diff={**P.diff, -1: {rc: f}})

    for bad in (
        {a + (0,): p for a, p in terms.items()},
        {a[:-1]: p for a, p in terms.items()},
        {(2,) * len(a): p for a, p in terms.items()},
    ):
        with pytest.raises(IntegrityError, match="bad dot assignment"):
            with_entry(bad).validate()
    alpha = AlphaPoly({1: 1})
    with pytest.raises(IntegrityError, match="q-degree 4"):
        with_entry({a: p * alpha for a, p in terms.items()}).validate()
    with pytest.raises(IntegrityError, match="out of range"):
        replace(P, diff={**P.diff, -1: {(1, 0): terms}}).validate()


@pytest.mark.parametrize("case", ["out_of_range", "dot_width", "q_degree"])
def test_chain_map_validate_rejects_malformed_entries(case):
    # an entry carries no ends: validate reads entry (r, c) of degree k from
    # source.objects(k)[c] to target.objects(k + hdeg)[r].  v has hdeg -1,
    # and its degree-0 saddle has the width of 1_2 -> e, not of 1_2 -> 1_2
    P = pj.p2(Window(-4, 0)).complex
    v = pj.v_map(P)
    v.validate()
    ((rc, terms),) = v.mats[-2].items()
    bad = {
        "out_of_range": {(1, 0): terms},
        "dot_width": {rc: {a + (0,): p for a, p in terms.items()}},
        "q_degree": {rc: {a: p * AlphaPoly({1: 1}) for a, p in terms.items()}},
    }[case]
    match = {"out_of_range": "out of range", "dot_width": "bad dot assignment",
             "q_degree": "q-degree 6 != 2"}[case]
    with pytest.raises(IntegrityError, match=match):
        ChainMap(P, P, -1, 2, {**v.mats, -2: bad}).validate()


@pytest.mark.parametrize("op", ["add", "sub", "compose"])
def test_chain_map_algebra_rejects_different_chain_groups(op):
    # entries carry no ends, so the map checks the chain groups it joins
    # where the cobordism-level compose and + once checked each entry's
    b4 = pj.dot_maps(pj.p2(Window(-4, 0)).complex)[0]
    b6 = pj.dot_maps(pj.p2(Window(-6, 0)).complex)[0]
    run = {
        "add": lambda f, g: f + g, "sub": lambda f, g: f - g, "compose": compose_maps,
    }[op]
    run(b4, pj.dot_maps(pj.p2(Window(-4, 0)).complex)[0])  # equal groups, other complexes
    with pytest.raises(DimensionError, match="different chain groups"):
        run(b4, b6)


def _wrapped(F: ChainMap) -> dict:
    return {k: cobordisms(F, k) for k in F.mats}


def _reference_commutator(f: ChainMap) -> dict:
    """[d, f] = d_B . f - (-1)^{|f|} f . d_A on cobordisms with their ends,
    as complexes computed it before its matrices held term dicts."""
    A, B = f.source, f.target
    sign = -1 if f.hdeg % 2 == 0 else 1
    out = {}
    for k in set(f.mats) | set(A.diff):
        acc = reference_mat_mul(cobordisms(B, k + f.hdeg), cobordisms(f, k))
        for rc, v in reference_mat_mul(cobordisms(f, k + 1), cobordisms(A, k)).items():
            acc[rc] = acc[rc] + v.scale(sign) if rc in acc else v.scale(sign)
        if acc := {rc: v for rc, v in acc.items() if v.terms}:
            out[k] = acc
    return out


def _assert_map_algebra_matches_reference(maps: list[ChainMap]) -> int:
    """compose_maps of every composable pair and commutator_with_d of each
    map against the cobordism-level reference; the number of nonzero
    entries compared."""
    seen = 0
    for g, f in itertools.product(maps, repeat=2):
        if f.target.groups != g.source.groups:
            continue
        want = {}
        for k in f.mats:
            if prod := reference_mat_mul(cobordisms(g, k + f.hdeg), cobordisms(f, k)):
                want[k] = prod
        assert _wrapped(compose_maps(g, f)) == want
        seen += sum(map(len, want.values()))
    for f in maps:
        want = _reference_commutator(f)
        assert _wrapped(commutator_with_d(f)) == want
        seen += sum(map(len, want.values()))
    return seen


def test_map_algebra_matches_the_cobordism_level_reference_on_sdrs():
    # the tracked SDRs of seeded random complexes, half of them capped by
    # e_0 above and below so that objects carry circles; empty draws skipped
    seen = 0
    for seed in range(40):
        C = random_complex(random.Random(seed), 2, 2, Window(-3, 2), pieces=3)
        if not C.groups:
            continue
        if seed % 2:
            C = stack_complexes(stack_complexes(from_tangle(E), C), from_tangle(E))
        S, eq = simplify(C, want_equivalence=True)
        seen += _assert_map_algebra_matches_reference([eq.r, eq.i, eq.h])
    assert seen > 150


def test_map_algebra_matches_the_cobordism_level_reference_on_dot_maps():
    P = pj.p2(Window(-6, 0)).complex
    b1, b2 = pj.dot_maps(P)
    assert _assert_map_algebra_matches_reference([b1, b2, pj.v_map(P)]) > 30


def test_shift_conventions():
    A = from_tangle(E, 1)
    assert shift_h(shift_h(A, 1), 1).graded_objects() == shift_h(A, 2).graded_objects()
    assert shift_q(A, 3).objects(0)[0].qshift == 4
    rng = random.Random(0)
    P = two_term_piece(rng, 2, 0, 0)
    S = shift_h(P, 1)
    S.validate()
    # t-shift negates the differential
    assert cobordisms(S, 1) == {(0, 0): cobordisms(P, 0)[(0, 0)].scale(-1)}


def test_cone_of_identity_contracts():
    rng = random.Random(1)
    for _ in range(10):
        A = two_term_piece(rng, 2, -1, 0)
        C = cone(ChainMap.identity(A))
        C.validate()
        S, _ = simplify(C)
        assert not S.groups, S.graded_objects()


def test_cone_recovers_mapping_cone_structure():
    # P2(window) is the cone of (tail -> 1_2): stripping degree 0 leaves the tail
    P = pj.p2(Window(-4, 0)).complex
    tail_groups = {k: v for k, v in P.groups.items() if k != 0}
    assert all(o.tangle == E for objs in tail_groups.values() for o in objs)


def test_deloop_sdr_exact():
    circ = single_object(ShiftedObject(FlatTangle.empty(1)), 0, 0)
    D, r, i = deloop(circ)
    qs = sorted(o.qshift for o in D.objects(0))
    assert qs == [-1, 1]
    assert compose_maps(r, i).mats == ChainMap.identity(D).mats
    assert compose_maps(i, r).mats == ChainMap.identity(circ).mats


def test_deloop_no_circles_noop():
    A = from_tangle(E)
    D, r, i = deloop(A)
    assert D.graded_objects() == A.graded_objects()
    assert compose_maps(r, i).mats == ChainMap.identity(D).mats


def test_gaussian_elimination_identities_random():
    rng = random.Random(9)
    done = 0
    while done < 60:
        C = random_complex(rng, 2, 2, Window(-3, 2), pieces=2)
        C, _ = simplify(C) if rng.random() < 0.3 else (C, None)
        entry = first_iso_entry(C)
        if entry is None:
            continue
        small, r_map, i_map, h_map = gaussian_eliminate(C, entry)
        small.validate()
        assert_sdr(C, small, cx.Equivalence(r_map, i_map, h_map))
        done += 1


def test_gaussian_elimination_rejects_non_iso():
    rng = random.Random(2)
    C = two_term_piece(rng, 2, 0, 0)  # saddle entry, not invertible
    f = cobordisms(C, 0)[(0, 0)]
    if iso_sign(*f) is None:
        with pytest.raises(SpinhomError):
            gaussian_eliminate(C, (0, 0, 0))


def test_simplify_full_sdr():
    rng = random.Random(13)
    for _ in range(15):
        C = nonempty_complex(rng, 2, 2, Window(-3, 2), pieces=3)
        S, eq = simplify(C, want_equivalence=True)
        S.validate()
        assert_sdr(C, S, eq)
        # no circles, no invertible entries remain
        assert all(o.tangle.circles == 0 for objs in S.groups.values() for o in objs)
        assert all(
            iso_sign(*f) is None
            for k in S.diff
            for f in cobordisms(S, k).values()
        )


def test_simplify_leaves_protected_objects():
    circ = ShiftedObject(FlatTangle.empty(1))
    C = ChainComplex(0, 0, Window(0, 0), {0: [circ, circ]}, {})
    S, eq = simplify(C, want_equivalence=True, protected={(0, 0)})
    up, dn = ShiftedObject(FlatTangle.empty(), 1), ShiftedObject(FlatTangle.empty(), -1)
    assert S.objects(0) == [circ, up, dn]
    assert protected_positions(C, S, eq, {(0, 0)}) == {(0, 0): 0}
    assert compose_maps(eq.r, eq.i).mats == ChainMap.identity(S).mats
    assert compose_maps(eq.i, eq.r).mats == ChainMap.identity(C).mats


def _direct_sum(A: ChainComplex, B: ChainComplex, shift: int) -> ChainComplex:
    """A (+) B with B moved up by `shift` degrees; in a shared degree B's
    objects follow A's."""
    groups = {k: list(objs) for k, objs in A.groups.items()}
    offset = {k + shift: len(groups.get(k + shift, [])) for k in B.groups}
    for k, objs in B.groups.items():
        groups.setdefault(k + shift, []).extend(objs)
    diff = {k: dict(mat) for k, mat in A.diff.items()}
    for k, mat in B.diff.items():
        k2 = k + shift
        for (r, c), f in mat.items():
            diff.setdefault(k2, {})[(r + offset[k2 + 1], c + offset[k2])] = f
    window = Window(min(A.window.lo, B.window.lo + shift), max(A.window.hi, B.window.hi + shift))
    return ChainComplex(A.m, A.n, window, groups, diff)


@st.composite
def _protected_case(draw):
    """A random complex over BN^2_2 made of two non-empty random complexes,
    the second moved up by -2 to 10 degrees (so its support often leaves a
    gap), optionally capped by e_0 above and below so that objects carry
    circles; and one to three of its objects to protect, as (degree, pos)."""
    A, B = (
        nonempty_complex(random.Random(draw(st.integers(0, 10**6))), 2, 2, Window(-3, 2), 3)
        for _ in range(2)
    )
    C = _direct_sum(A, B, draw(st.integers(-2, 10)))
    if draw(st.booleans()):
        C = stack_complexes(from_tangle(E), C)
        C = stack_complexes(C, from_tangle(E))
    slots = [(k, p) for k, objs in C.groups.items() for p in range(len(objs))]
    protected = draw(st.sets(st.sampled_from(slots), min_size=1, max_size=3))
    return C, protected


@given(_protected_case())
@settings(max_examples=60, deadline=None)
def test_simplify_sdr_property_with_protected_objects(case):
    # the tracked SDR is exact, and the objects the caller protects survive
    # unchanged beside the engine's own ghost objects, each at the one row
    # of its column of r
    C, protected = case
    C.validate()
    S, eq = simplify(C, want_equivalence=True, protected=protected)
    S.validate()
    assert_sdr(C, S, eq)
    kept = {(k, row) for (k, _), row in protected_positions(C, S, eq, protected).items()}
    assert len(kept) == len(protected)
    for k, objs in S.groups.items():
        for p, o in enumerate(objs):
            if (k, p) not in kept:
                assert o.tangle.circles == 0
    for k in S.diff:
        for (r, c), f in cobordisms(S, k).items():
            if (k, c) not in kept and (k + 1, r) not in kept:
                assert iso_sign(*f) is None


def test_simplify_preserves_closed_homology():
    rng = random.Random(21)
    for _ in range(10):
        C = random_complex(rng, 2, 2, Window(-3, 1), pieces=2)
        T = trace_complex(C)
        M1 = tautological(T)
        S, _ = simplify(T)
        M2 = tautological(S)
        t1 = homology_table(M1, "alpha0")
        t2 = homology_table(M2, "alpha0")
        assert tables_equal(t1, t2)
        assert euler_characteristic(M1) == euler_characteristic(M2)


def test_dual_complex_involution_and_grading():
    rng = random.Random(31)
    for _ in range(10):
        A = random_complex(rng, 2, 2, Window(-3, 1), pieces=2)
        D = dual_complex(A)
        D.validate()
        DD = dual_complex(D)
        assert DD.graded_objects() == A.graded_objects()
        assert DD.window == A.window
        ga = A.graded_objects()
        gd = D.graded_objects()
        for k, objs in ga.items():
            mirrored = sorted(
                (o[1], o[0], tuple(FlatTangle(o[0], o[1], o[2], o[3]).flip().pairs), o[3], -o[4])
                for o in objs
            )
            assert gd.get(-k) == mirrored


def test_dual_chain_map_contravariant_signs():
    # (f.g)^v = (-1)^{|f||g|} g^v . f^v for homogeneous chain maps
    P = pj.p2(Window(-5, 0)).complex
    b1, _ = pj.dot_maps(P)
    v = pj.v_map(P)
    lhs = dual_chain_map(compose_maps(b1, v))
    rhs = compose_maps(dual_chain_map(v), dual_chain_map(b1))
    # |b1| = 0, |v| = -1: sign +1
    assert lhs.mats == rhs.mats
    vv = compose_maps(v, v)
    lhs2 = dual_chain_map(vv)
    rhs2 = compose_maps(dual_chain_map(v), dual_chain_map(v)).scale(-1)
    # |v||v| = 1: sign -1
    assert lhs2.mats == rhs2.mats


def test_tautological_circle():
    circ = single_object(ShiftedObject(FlatTangle.empty(1)), 0, 0)
    M = tautological(circ)
    assert sorted(M.gens[0]) == [-1, 1]
    empty = single_object(ShiftedObject(FlatTangle.empty()), 0, 0)
    Me = tautological(empty)
    assert Me.gens[0] == [0]


def test_hom_direct_equals_duality_route():
    rng = random.Random(17)
    for _ in range(12):
        m, n = rng.choice([(2, 2), (1, 1), (0, 2), (2, 0), (1, 3)])
        A = random_complex(rng, m, n, Window(-2, 1), pieces=2)
        B = random_complex(rng, m, n, Window(-2, 1), pieces=2)
        if not A.groups or not B.groups:
            continue
        M1 = hom_complex_direct(A, B)
        M2 = hom_complex(A, B)
        M1.check()
        M2.check()
        for k in set(M1.gens) | set(M2.gens):
            assert sorted(M1.gens.get(k, [])) == sorted(M2.gens.get(k, [])), k
        t1 = homology_table(M1, "alpha0")
        t2 = homology_table(M2, "alpha0")
        assert tables_equal(t1, t2)


def test_hom_examples_from_small_objects():
    arc = from_tangle(FlatTangle(0, 2, (1, 0)))
    H = hom_complex(arc, arc)
    assert sorted(H.gens[0]) == [0, 2]
    empty = from_tangle(FlatTangle.empty())
    H0 = hom_complex(empty, empty)
    assert H0.gens[0] == [0]


def test_stack_chain_maps_koszul_leibniz():
    # [d, T(f, g)] = T([d,f], g) + (-1)^{|f|} T(f, [d,g]); with g = 1 the
    # second term drops, with f = 1 the first does, signs included
    P = pj.p2(Window(-4, 0)).complex
    v = pj.v_map(P)
    one = ChainMap.identity(P)
    lhs1 = commutator_with_d(stack_chain_maps(v, one))
    rhs1 = stack_chain_maps(commutator_with_d(v), one)
    inter = lambda m: {k: mm for k, mm in m.mats.items() if k >= -2}
    assert inter(lhs1) == inter(rhs1)
    lhs2 = commutator_with_d(stack_chain_maps(one, v))
    rhs2 = stack_chain_maps(one, commutator_with_d(v))
    assert inter(lhs2) == inter(rhs2)
    # genuine chain maps of nonzero q-degree stay chain maps under stacking
    b1, _ = pj.dot_maps(P)
    assert not inter(commutator_with_d(stack_chain_maps(b1, one)))
    assert not inter(commutator_with_d(stack_chain_maps(one, b1)))


def test_homotopic_alpha0_basics():
    P = pj.p2(Window(-6, 0)).complex
    b1, b2 = pj.dot_maps(P)
    one = ChainMap.identity(P)
    # b1 + b2 = [d, v] is null-homotopic; b1 alone is not
    s = b1 + b2
    zero = ChainMap.zero(P, P, 0, 2)
    assert homotopic_alpha0(s, zero, lo=-4)
    assert not homotopic_alpha0(b1, zero, lo=-4)
    assert homotopic_alpha0(one, one)


# -- bicomplexes -------------------------------------------------------------


def _contractible_column_complex(rng, n):
    t = FlatTangle.identity(n)
    o = ShiftedObject(t, rng.randint(-1, 1))
    sgn = rng.choice([1, -1])
    B = ChainComplex(
        n, n, Window(0, 1), {0: [o], 1: [o]},
        {0: {(0, 0): identity_cob(o).scale(sgn).terms}},
    )
    return B, o, sgn


def test_bicomplex_contraction_random():
    # thirty draws from one seed on Window(-2, 1), then one from seed 29 on
    # Window(-1, 1)
    rng = random.Random(23)
    draws = [(rng, Window(-2, 1))] * 30 + [(random.Random(29), Window(-1, 1))]
    for rng, window in draws:
        A = nonempty_complex(rng, 1, 1, window, pieces=2)
        B, o, sgn = _contractible_column_complex(rng, 1)
        # d^2 = 0 on the total complex: d_h^2, d_v^2 and d_h d_v + d_v d_h
        # land in different bidegrees
        stack_complexes(A, B).validate()
        H = bicomplex_contraction(A, B, column_homotopy(A, B, sgn), "sum")
        T = H.source
        assert commutator_with_d(H).mats == ChainMap.identity(T).mats


def test_bicomplex_quadrant_preconditions():
    rng = random.Random(41)
    A = random_complex(rng, 1, 1, Window(1, 2), pieces=1)  # strictly positive rows
    if not A.groups:
        A = shift_h(random_complex(rng, 1, 1, Window(-1, 0), pieces=1), 2)
    B0, o, sgn = _contractible_column_complex(rng, 1)
    B = shift_h(B0, -2)  # columns in negative degrees: support in quadrant IV
    with pytest.raises(SpinhomError, match="quadrant-IV"):
        bicomplex_contraction(A, B, column_homotopy(A, B, sgn), "sum")
    # product mode rejects quadrant II
    A2 = shift_h(A, -4)  # negative columns...
    B2 = shift_h(B, 4)
    T2 = stack_complexes(A2, B2)
    with pytest.raises(SpinhomError, match="quadrant-II"):
        bicomplex_contraction(A2, B2, ChainMap.zero(T2, T2, -1), "product")
    # a homotopy that is not a map on stack_complexes(A, B) is refused
    with pytest.raises(DimensionError):
        bicomplex_contraction(A, B0, ChainMap.zero(A, A, -1), "sum")


def test_bicomplex_quadrant_rule_matches_brute_force():
    # Every pair of supports of size <= 2 in -2..2, under all 16 tail
    # combinations: the rule refuses exactly when some stored degree or
    # tail of A and of B lands in the forbidden quadrant, a tail standing
    # for degrees beyond +-2 on its side.
    o = ShiftedObject(FlatTangle.identity(1), 0)
    supports = [s for size in range(3) for s in itertools.combinations(range(-2, 3), size)]

    def degrees(support, tail_lo, tail_hi):
        return set(support) | ({-3} if tail_lo else set()) | ({3} if tail_hi else set())

    def refused(A, B, mode):
        try:
            bicomplex_contraction(A, B, ChainMap.zero(A, A, -1), mode)
        except SpinhomError as err:
            return "quadrant" in str(err)
        return False

    for sa, sb in itertools.product(supports, supports):
        for tails in itertools.product((False, True), repeat=4):
            A = ChainComplex(1, 1, Window(-2, 2), {i: [o] for i in sa}, {}, *tails[:2])
            B = ChainComplex(1, 1, Window(-2, 2), {j: [o] for j in sb}, {}, *tails[2:])
            da, db = degrees(sa, *tails[:2]), degrees(sb, *tails[2:])
            quadrant_iv = any(i > 0 for i in da) and any(j < 0 for j in db)
            quadrant_ii = any(i < 0 for i in da) and any(j > 0 for j in db)
            assert refused(A, B, "sum") == quadrant_iv, (sa, sb, tails)
            assert refused(A, B, "product") == quadrant_ii, (sa, sb, tails)


def test_planar_reordering_isomorphic():
    # different association orders give complexes with equal graded ranks
    # and equal closed homology
    rng = random.Random(51)
    for _ in range(6):
        A = random_complex(rng, 2, 2, Window(-2, 1), pieces=1)
        B = random_complex(rng, 2, 2, Window(-2, 1), pieces=1)
        C = random_complex(rng, 2, 2, Window(-2, 1), pieces=1)
        if not (A.groups and B.groups and C.groups):
            continue
        left = stack_complexes(stack_complexes(A, B), C)
        right = stack_complexes(A, stack_complexes(B, C))
        assert left.graded_objects() == right.graded_objects()
        t1 = homology_table(tautological(trace_complex(left)), "alpha0")
        t2 = homology_table(tautological(trace_complex(right)), "alpha0")
        assert tables_equal(t1, t2)


def _circled_complex(rng):
    """A random complex over BN^2_2 capped above and below by e_0, so that
    some of its objects carry closed circles, often several."""
    while True:
        C = random_complex(rng, 2, 2, Window(-3, 2), pieces=3)
        C = stack_complexes(from_tangle(E), C)
        C = stack_complexes(C, from_tangle(E))
        if any(o.tangle.circles for objs in C.groups.values() for o in objs):
            return C


def test_simplify_circled_deterministic_and_sdr():
    rng = random.Random(31)
    for _ in range(4):
        C = _circled_complex(rng)
        S, eq = simplify(C, want_equivalence=True)
        S2, eq2 = simplify(C, want_equivalence=True)
        assert S == S2 and eq == eq2
        S.validate()
        assert_sdr(C, S, eq)


@st.composite
def _deloop_case(draw):
    """A circled object big with maps f: big -> other and g: other -> big,
    where big has 1-3 circles and other 0-1, and every dot assignment gets a
    Z[alpha] coefficient of alpha-degree 0-2 (possibly zero)."""
    m, n = draw(st.sampled_from([(0, 0), (1, 1), (2, 0), (2, 2), (0, 4)]))

    def obj(circles):
        t = draw(st.sampled_from(tl.all_matchings(m, n)))
        return ShiftedObject(FlatTangle(m, n, t.pairs, circles), draw(st.integers(-2, 2)))

    def mor(src, tgt):
        terms = {}
        for assign in itertools.product((0, 1), repeat=closure_data(src.tangle, tgt.tangle).n):
            coeffs = draw(st.dictionaries(st.integers(0, 2), st.integers(-2, 2), max_size=2))
            if p := AlphaPoly(coeffs):
                terms[assign] = p
        return Cob(src, tgt, terms)

    big = obj(draw(st.integers(1, 3)))
    other = obj(draw(st.integers(0, 1)))
    return big, mor(big, other), mor(other, big)


@given(_deloop_case())
@settings(max_examples=80, deadline=None)
def test_cap_equals_composition_with_birth_death(case):
    # the restriction on the delooped circle's dot is the composite with the
    # birth/death disks it replaces
    big, f, g = case
    up, dn, phi_up, phi_dn, psi_up, psi_dn = reference_deloop_maps(big)
    assert cap_source(f, up, 0) == compose(f, psi_up)
    assert cap_source(f, dn, 1) == compose(f, psi_dn)
    assert cap_target(g, up, 1) == compose(phi_up, g)
    assert cap_target(g, dn, 0) == compose(phi_dn, g)
    # the engine splits each edge once by that dot and keeps both parts
    keep0, keep1 = cx._split_by_dot(f.terms, closure_data(big.tangle, f.target.tangle).src_circ[-1])
    assert Cob(up, f.target, keep0) == compose(f, psi_up)
    assert Cob(dn, f.target, keep1) == compose(f, psi_dn)
    keep0, keep1 = cx._split_by_dot(g.terms, closure_data(g.source.tangle, big.tangle).tgt_circ[-1])
    assert Cob(g.source, dn, keep0) == compose(phi_dn, g)
    assert Cob(g.source, up, keep1) == compose(phi_up, g)


def _p3_sweep_product() -> ChainComplex:
    """The last product of the second sweep of build_projector(3,
    Window(-5, 0)), clipped as the build clips it before simplify: 108
    objects, 35 with a circle."""
    win = Window(-5, 0)
    margin = Window(win.lo - pj.SWEEP_MARGIN, 0)
    P = pj.p2(win).complex
    current = pj._p2_block(0, 3, P)
    for i in (0, 1, 0, 1):
        T = pj._clip(stack_complexes(pj._p2_block(i, 3, P), current), margin)
        current = pj._clip(simplify(T)[0], win)
    return T


def _theta_222() -> ChainComplex:
    """theta(2,2,2) at window 6 before any simplify: 343 objects, each with
    a circle."""
    e = pj.rewrite_network(ex.theta(2, 2, 2))
    return reference_instantiate(e, Window(-6, 0))


@pytest.mark.parametrize("build", [_theta_222, _p3_sweep_product], ids=["theta222_w6", "p3_w5_sweep"])
def test_deloop_matches_composition_on_workloads(build, monkeypatch):
    # simplify with delooping by restriction against simplify with delooping
    # by composition with the reference birth/death maps
    C = build()
    assert any(o.tangle.circles for objs in C.groups.values() for o in objs)
    S, eq = simplify(C, want_equivalence=True)
    monkeypatch.setattr(cx._Work, "deloop", reference_deloop)
    S_ref, eq_ref = simplify(C, want_equivalence=True)
    assert S == S_ref
    assert eq == eq_ref
