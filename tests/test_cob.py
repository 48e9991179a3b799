"""The cobordism category: canonical forms, relations, duality, eta/saddle."""

import copy
import itertools
import pickle
import random

import pytest

from helpers import reference_trace_walk
from spinhom import cob, record, serialize, tl
from spinhom.cob import (
    AlphaPoly,
    CanonicalCobordism,
    FlatTangle,
    ShiftedObject,
    beside,
    cap_off_circles,
    closure_data,
    compose,
    degree,
    dot_at_point,
    dotted_identity,
    dualize_cob,
    dualize_ob,
    eta,
    identity_cob,
    merge_trace_saddle,
    reduce_component,
    reflect_x_cob,
    reflect_x_ob,
    reflect_y_cob,
    reflect_y_ob,
    saddle_to_identity,
    stack,
    stack_ob,
    surgery,
    trace,
    trace_ob,
)
from spinhom.errors import DimensionError, SpinhomError

ONE2 = FlatTangle.identity(2)
E = FlatTangle.e(0, 2)
A = AlphaPoly


def test_closure_circles_counts():
    assert closure_data(ONE2, ONE2).n == 2
    assert closure_data(ONE2, E).n == 1
    assert closure_data(E, E).n == 2
    circ = FlatTangle.empty(1)
    assert closure_data(circ, circ).n == 2


def test_closure_circles_listing():
    # deterministic order: smallest boundary point first, then free circles
    assert closure_data(E, E).point == (0, 0, 1, 1)
    cd = closure_data(FlatTangle(2, 2, E.pairs, 1), FlatTangle(2, 2, E.pairs, 2))
    assert cd.point == (0, 0, 1, 1)
    assert (cd.src_circ, cd.tgt_circ, cd.n) == ((2,), (3, 4), 5)


def test_reduce_component_table():
    assert reduce_component(0, 0, 0) == ()
    assert reduce_component(0, 0, 1) == (((), 0, 1),)
    assert reduce_component(0, 0, 2) == ()
    assert reduce_component(0, 0, 3) == (((), 1, 1),)
    assert reduce_component(1, 1, 0) == (((1,), 0, 2),)
    assert reduce_component(1, 0, 2) == (((0,), 1, 1),)
    assert set(reduce_component(2, 0, 0)) == {((0, 1), 0, 1), ((1, 0), 0, 1)}
    assert set(reduce_component(2, 0, 1)) == {((1, 1), 0, 1), ((0, 0), 1, 1)}


def test_sphere_relations():
    circ = ShiftedObject(FlatTangle.empty(1))
    cup = cap_off_circles(circ)
    cupd = cap_off_circles(circ, (1,))
    counit = dualize_cob(cup)
    counitd = dualize_cob(cupd)
    dot = dotted_identity(circ, {("circ", 0): 1})
    assert compose(counit, cup).is_zero()
    assert compose(counit, cupd).terms == {(): A({0: 1})}
    assert compose(counitd, cupd).is_zero()
    assert compose(counitd, compose(dot, cupd)).terms == {(): A({1: 1})}


def test_two_dots_is_alpha():
    t = dot_at_point(ShiftedObject(E), 0)
    assert compose(t, t).terms == {(0, 0): A({1: 1})}
    b = dot_at_point(ShiftedObject(E), 2)
    assert compose(t, b).terms == {(1, 1): A({0: 1})}


def test_neck_cutting_identity_of_circle():
    circ = ShiftedObject(FlatTangle.empty(1))
    idc = identity_cob(circ)
    assert idc.terms == {(0, 1): A({0: 1}), (1, 0): A({0: 1})}
    assert compose(idc, idc) == idc


def test_degree_formula():
    assert degree(identity_cob(ShiftedObject(FlatTangle.identity(3)))) == 0
    sad = surgery(ShiftedObject(E, 1), 0, 2, target_shift=0)
    assert sad.target.tangle == ONE2
    assert degree(sad) == 0
    assert degree(dot_at_point(ShiftedObject(E), 0)) == 2
    circ = ShiftedObject(FlatTangle.empty(1))
    assert degree(cap_off_circles(circ)) == -1
    assert degree(cap_off_circles(circ, (1,))) == 1
    once_dotted_sphere = compose(dualize_cob(cap_off_circles(circ)),
                                 cap_off_circles(circ, (1,)))
    assert degree(once_dotted_sphere) == 0


def test_degree_additive_small():
    rng = random.Random(5)
    for n in (1, 2, 3):
        tangles = tl.all_matchings(n, n)
        for _ in range(30):
            t = rng.choice(tangles)
            o = ShiftedObject(t, rng.randint(-2, 2))
            f = dot_at_point(o, rng.randrange(2 * n))
            g = dot_at_point(o, rng.randrange(2 * n))
            h = compose(g, f)
            if h.is_zero():
                continue
            assert degree(h) == degree(f) + degree(g)


def test_compose_bilinear_associative():
    rng = random.Random(11)
    o = ShiftedObject(E)
    gens = [identity_cob(o), dot_at_point(o, 0), dot_at_point(o, 2)]
    for _ in range(25):
        f = rng.choice(gens).scale(rng.randint(-2, 2))
        g = rng.choice(gens).scale(rng.randint(-2, 2))
        h = rng.choice(gens)
        assert compose(compose(h, g), f) == compose(h, compose(g, f))
        lhs = compose(h, f + g)
        assert lhs == compose(h, f) + compose(h, g)


def test_saddle_neck_cut_identities():
    # saddle then horizontal saddle on 1_2 gives left dot + right dot
    I2 = ShiftedObject(ONE2)
    hs = surgery(I2, 0, 1, target_shift=1)
    sad = CanonicalCobordism(
        ShiftedObject(E, 1), I2, surgery(ShiftedObject(E, 1), 0, 2, 0).terms
    )
    lhs = compose(sad, hs)
    assert lhs == dot_at_point(I2, 0) + dot_at_point(I2, 1)
    rhs = compose(hs, sad)
    src = ShiftedObject(E, 1)
    assert rhs == dot_at_point(src, 0) + dot_at_point(src, 2)


def test_dualize_involutive_and_contravariant():
    rng = random.Random(2)
    for n2 in (2, 4):
        for t in tl.all_matchings(0, n2):
            o = ShiftedObject(t, rng.randint(-2, 2))
            f = dot_at_point(o, rng.randrange(n2))
            assert dualize_cob(dualize_cob(f)) == f
            assert dualize_ob(dualize_ob(o)) == o
            assert degree(dualize_cob(f)) == degree(f)
    # contravariance on composable dot maps
    o = ShiftedObject(E)
    f = dot_at_point(o, 0)
    g = dot_at_point(o, 2)
    assert dualize_cob(compose(g, f)) == compose(dualize_cob(f), dualize_cob(g))


def test_stack_and_beside_of_identities():
    ide = identity_cob(ShiftedObject(E))
    st = stack(ide, ide)
    assert st == identity_cob(ShiftedObject(stack_ob(E, E).tangle))
    bs = beside(ide, ide)
    assert bs.source.tangle.m == 4


def test_trace_functor():
    I2 = ShiftedObject(ONE2)
    tr = trace(identity_cob(I2))
    assert tr.source.tangle.circles == 2
    assert tr == identity_cob(ShiftedObject(FlatTangle.empty(2)))
    t = dot_at_point(ShiftedObject(E), 0)
    trt = trace(t)
    assert trt.source.tangle.circles == 1
    assert trt == dotted_identity(ShiftedObject(FlatTangle.empty(1)), {("circ", 0): 1})


def test_trace_ob_matches_the_hand_walk():
    # every square matching on up to 4 strands, with 0-2 circles
    for n in range(5):
        for d in tl.all_matchings(n, n):
            for circles in range(3):
                a = FlatTangle(n, n, d.pairs, circles)
                tr = trace_ob(a)
                assert (tr.circle_at, tr.tangle.circles) == reference_trace_walk(a)
    with pytest.raises(DimensionError):
        trace_ob(FlatTangle(0, 2, (1, 0)))


def test_reflections_move_points_and_dots_alike():
    # the x-reflection swaps top i with bottom i; the y-reflection reverses
    # the top and the bottom row
    for m, n in [(0, 2), (2, 0), (1, 3), (2, 2), (3, 1), (2, 4)]:
        for t in tl.all_matchings(m, n):
            o = ShiftedObject(FlatTangle(m, n, t.pairs, 1), 2)
            flip = [n + p if p < m else p - m for p in range(m + n)]
            mirror = [m - 1 - p if p < m else m + (n - 1 - (p - m)) for p in range(m + n)]
            for ref_ob, ref_cob, point in [
                (reflect_x_ob, reflect_x_cob, flip),
                (reflect_y_ob, reflect_y_cob, mirror),
            ]:
                image = ref_ob(o)
                assert image.qshift == 2 and image.tangle.circles == 1
                for p in range(m + n):
                    assert image.tangle.pairs[point[p]] == point[t.pairs[p]]
                    assert ref_cob(dot_at_point(o, p)) == dot_at_point(image, point[p])


def test_trace_respects_composition():
    o = ShiftedObject(E)
    f = dot_at_point(o, 0)
    g = dot_at_point(o, 2)
    assert trace(compose(g, f)) == compose(trace(g), trace(f))


@pytest.mark.parametrize("n2", [2, 4, 6])
def test_eta_saddle_unit(n2):
    for t in tl.all_matchings(0, n2):
        a = ShiftedObject(t)
        av = dualize_ob(a)
        et = eta(t)
        sa = saddle_to_identity(t)
        n = n2 // 2
        assert degree(et) == -n
        assert degree(sa) == n
        ia, iav = identity_cob(a), identity_cob(av)
        assert compose(stack(ia, sa), stack(et, ia)) == ia
        assert compose(stack(sa, iav), stack(iav, et)) == iav


def test_eta_precondition():
    with pytest.raises(Exception):
        eta(FlatTangle(0, 2, (1, 0), circles=1))


def test_adjunction_of_duals():
    # s_b . (1 (x) f) = s_a . (f^v (x) 1) for dots and saddles, 2n <= 6
    for n2 in (2, 4, 6):
        for t in tl.all_matchings(0, n2):
            a = ShiftedObject(t)
            fs = [dot_at_point(a, p) for p in range(n2)]
            for x, y in itertools.combinations(range(n2), 2):
                try:
                    s = surgery(a, x, y)
                except Exception:
                    continue
                if s.target.tangle.circles == 0:
                    fs.append(s)
            for f in fs:
                b = ShiftedObject(f.target.tangle)
                f = CanonicalCobordism(a, b, f.terms)
                sa, sb = saddle_to_identity(t), saddle_to_identity(b.tangle)
                ibv = identity_cob(dualize_ob(b))
                ia = identity_cob(a)
                assert compose(sb, stack(ibv, f)) == compose(
                    sa, stack(dualize_cob(f), ia)
                )
                ib = identity_cob(b)
                iav = identity_cob(dualize_ob(a))
                assert compose(stack(f, iav), eta(t)) == compose(
                    stack(ib, dualize_cob(f)), eta(b.tangle)
                )


def test_ordinary_duality_iso():
    # phi(f) = (f (x) 1) . eta and psi(z) = (1 (x) s) . (z (x) 1) invert
    # each other on the full canonical basis, 2n <= 6
    for n2 in (2, 4, 6):
        ms = tl.all_matchings(0, n2)
        for ta in ms:
            for tb in ms:
                a, b = ShiftedObject(ta), ShiftedObject(tb)
                cd = closure_data(ta, tb)
                assert 2 ** cd.n == len(
                    list(itertools.product((0, 1), repeat=cd.n))
                )
                iav = identity_cob(dualize_ob(a))
                ia, ib = identity_cob(a), identity_cob(b)
                sa = saddle_to_identity(ta)
                et = eta(ta)
                for assign in itertools.product((0, 1), repeat=cd.n):
                    f = CanonicalCobordism.generator(a, b, assign)
                    z = compose(stack(f, iav), et)
                    back = compose(stack(ib, sa), stack(z, ia))
                    assert back == f


def test_merge_trace_saddle_module_action():
    s1 = FlatTangle.identity(1)
    mg = merge_trace_saddle(s1, s1)
    circ = ShiftedObject(FlatTangle.empty(1))
    birth = beside(cap_off_circles(circ), identity_cob(ShiftedObject(s1)))
    assert compose(mg, birth) == identity_cob(ShiftedObject(s1))
    birth_dot = beside(cap_off_circles(circ, (1,)), identity_cob(ShiftedObject(s1)))
    assert compose(mg, birth_dot) == dot_at_point(ShiftedObject(s1), 0)
    for a in (ONE2, E):
        for b in (ONE2, E):
            assert degree(merge_trace_saddle(a, b)) == 2


def test_reflect_x_covariant():
    o = ShiftedObject(E, 3)
    f = dot_at_point(o, 0)
    g = reflect_x_cob(f)
    assert g.source.qshift == 3
    assert degree(g) == degree(f)
    assert reflect_x_cob(g) == f


def test_is_identity_iso():
    o = ShiftedObject(E, 1)
    assert identity_cob(o).is_identity_iso() == 1
    assert identity_cob(o).scale(-1).is_identity_iso() == -1
    assert identity_cob(o).scale(2).is_identity_iso() is None
    assert dot_at_point(o, 0).is_identity_iso() is None
    circ = ShiftedObject(FlatTangle.empty(1))
    assert identity_cob(circ).is_identity_iso() is None


def test_tangle_and_object_hash_equality():
    t = FlatTangle.e(0, 3)
    o = ShiftedObject(t, 2)
    # the cached hash is the one a frozen record's generated hash gives
    assert hash(t) == hash((t.m, t.n, t.pairs, t.circles))
    assert hash(o) == hash((o.tangle, o.qshift))
    t2 = FlatTangle(t.m, t.n, tuple(list(t.pairs)), t.circles)
    o2 = ShiftedObject(t2, 2)
    assert t2 is t and t2 == t and not (t2 != t) and hash(t2) == hash(t)
    assert o2 is not o and o2 == o and hash(o2) == hash(o)
    assert {t: 1}[t2] == 1 and {o: 1}[o2] == 1
    assert FlatTangle(t.m, t.n, t.pairs, 1) != t
    assert ShiftedObject(t, 1) != o
    assert ShiftedObject(FlatTangle(t.m, t.n, t.pairs, 1), 2) != o
    assert FlatTangle(0, 4, (1, 0, 3, 2)) != FlatTangle(2, 2, (1, 0, 3, 2))
    assert t != (t.m, t.n, t.pairs, t.circles)
    assert (t.m, t.n, t.pairs, t.circles) != t
    assert o != t and t != o
    with pytest.raises(record.FrozenInstanceError):
        t.circles = 1
    with pytest.raises(record.FrozenInstanceError):
        o.qshift = 0


def test_equal_tangles_are_one_object_through_every_maker():
    t = FlatTangle(3, 3, (1, 0, 5, 4, 3, 2))
    assert FlatTangle(3, 3, (1, 0, 5, 4, 3, 2), 0) is t
    assert FlatTangle(m=3, n=3, pairs=(1, 0, 5, 4, 3, 2), circles=0) is t
    assert FlatTangle.e(0, 3) is t
    assert t.flip() is t and t.mirror().mirror() is t
    assert FlatTangle(3, 3, t.pairs, 1).drop_circle() is t
    assert serialize.tangle_from_data(serialize.tangle_to_data(t)) is t
    assert copy.copy(t) is t and copy.deepcopy(t) is t
    assert copy.deepcopy([t, {t: ShiftedObject(t)}])[1][t].tangle is t
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(t, protocol)) is t
    assert FlatTangle.identity(2) is FlatTangle(2, 2, (2, 3, 0, 1))
    assert FlatTangle.empty() is FlatTangle(0, 0, ())
    assert FlatTangle.turnback_above(0, 2) is FlatTangle(0, 2, (1, 0))
    assert FlatTangle.turnback_below(0, 2) is FlatTangle(2, 0, (1, 0))
    assert FlatTangle.turnback_below(1, 4) is FlatTangle.turnback_above(1, 4).flip()
    # every matching tl enumerates is the object the constructor gives
    for d in tl.all_matchings(3, 3):
        assert FlatTangle(d.m, d.n, tuple(list(d.pairs)), d.circles) is d
    # the repr and the record fields are those of the value
    assert repr(t) == "FlatTangle(m=3, n=3, pairs=(1, 0, 5, 4, 3, 2), circles=0)"
    assert t._fields == FlatTangle.__match_args__ == ("m", "n", "pairs", "circles")
    assert record.replace(t, circles=2) is FlatTangle(3, 3, t.pairs, 2)


def test_interned_tangles_stay_frozen():
    t = FlatTangle.e(1, 3)
    for name, value in (("m", 1), ("pairs", ()), ("circles", 1), ("_hash", 0)):
        with pytest.raises(record.FrozenInstanceError):
            setattr(t, name, value)
    with pytest.raises(record.FrozenInstanceError):
        del t.n
    assert FlatTangle(3, 3, t.pairs) is t and t.m == 3 and t.circles == 0


@pytest.mark.parametrize(
    "args, error, message",
    [
        ((-1, 1, ()), DimensionError, "negative boundary count"),
        ((2, -2, ()), DimensionError, "negative boundary count"),
        ((1, 2, (1, 0, 2)), DimensionError, "odd number of boundary points"),
        ((2, 2, (1, 0)), DimensionError, "pairing length mismatch"),
        ((2, 0, (1, 0), -1), SpinhomError, "negative circle count"),
        ((2, 2, (1, 0, 2, 3)), SpinhomError, "pairing is not a fixed-point-free involution"),
        ((2, 2, (1, 2, 3, 0)), SpinhomError, "pairing is not a fixed-point-free involution"),
        ((2, 2, (3, 2, 1, 0)), SpinhomError, "pairing is not planar"),
        ((0, 4, (2, 3, 0, 1)), SpinhomError, "pairing is not planar"),
    ],
)
def test_invalid_tangle_raises_each_time_and_is_never_stored(args, error, message):
    before = len(cob._interned)
    for _ in range(3):
        with pytest.raises(error) as ei:
            FlatTangle(*args)
        assert str(ei.value) == message
        assert len(cob._interned) == before
    assert (*args, 0)[:4] not in cob._interned
