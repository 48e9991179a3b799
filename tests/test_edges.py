"""Edge cases: self-surgery, circles through duality and delooping, the
alpha=1 (Lee-type) specialization, and both directions of ordinary duality."""

import itertools

from helpers import (
    compose,
    dotted_identity,
    dualize_cob,
    eta,
    generator,
    identity_cob,
    saddle_to_identity,
    stack,
    surgery,
)
from helpers import cob_degree as degree
from spinhom import complexes as cx
from spinhom import expr as ex
from spinhom import projector as pj
from spinhom import tl
from spinhom.cob import AlphaPoly, FlatTangle, ShiftedObject, closure_data, dualize_ob
from spinhom.complexes import Window, deloop, simplify, single_object
from spinhom.homology import homology_table


def test_self_surgery_splits_a_circle():
    strand = ShiftedObject(FlatTangle.identity(1))
    s = surgery(strand, 0, 1)
    assert s.target.tangle.pairs == (1, 0)
    assert s.target.tangle.circles == 1
    # the cut map: comultiplication pattern dot (x) 1 + 1 (x) dot
    cd = closure_data(s.source.tangle, s.target.tangle)
    assert cd.n == 2
    terms = {a: p for a, p in s.terms.items()}
    assert terms == {(1, 0): AlphaPoly({0: 1}), (0, 1): AlphaPoly({0: 1})}
    # composing with the counit on the new circle recovers the identity
    # after a dot: (1 x eps)(cut) has the sphere relations inside
    assert degree(s) == 1


def test_self_surgery_then_dot_on_circle():
    strand = ShiftedObject(FlatTangle.identity(1))
    s = surgery(strand, 0, 1)
    dot_circle = dotted_identity(s.target, {("circ", 0): 1})
    both = compose(dot_circle, s)
    assert degree(both) == 3
    # cut then dot then neck logic: X^2 = alpha shows up on the diagonal
    twice = compose(dotted_identity(s.target, {("circ", 0): 2}), s)
    coeffs = {a: p for a, p in twice.terms.items()}
    assert all(list(p.coeffs) == [1] for p in coeffs.values())


def test_deloop_two_circles():
    obj = ShiftedObject(FlatTangle.empty(2), 0)
    C = single_object(obj, 0, 0)
    D, r, i = deloop(C)
    qs = sorted(o.qshift for o in D.objects(0))
    assert qs == [-2, 0, 0, 2]
    assert all(o.tangle.circles == 0 for o in D.objects(0))
    from spinhom.complexes import ChainMap, compose_maps

    assert compose_maps(r, i).mats == ChainMap.identity(D).mats
    assert compose_maps(i, r).mats == ChainMap.identity(C).mats


def test_dualize_with_free_circles():
    t = FlatTangle(1, 1, (1, 0), circles=2)
    o = ShiftedObject(t, 3)
    f = dotted_identity(o, {("circ", 0): 1})
    g = dualize_cob(f)
    assert g.source.qshift == -3
    assert degree(g) == degree(f)
    assert dualize_cob(g) == f


def test_ordinary_duality_phi_of_psi():
    # the other composition: phi(psi(zeta)) = zeta on the full module basis
    for n2 in (2, 4):
        ms = tl.all_matchings(0, n2)
        for ta in ms:
            for tb in ms:
                a, b = ShiftedObject(ta), ShiftedObject(tb)
                iav = identity_cob(dualize_ob(a))
                ia, ib = identity_cob(a), identity_cob(b)
                sa = saddle_to_identity(ta)
                et = eta(ta)
                tgt = stack(ib, iav).source  # b (x) a-dual object
                cd = closure_data(FlatTangle.empty(), tgt.tangle)
                for assign in itertools.product((0, 1), repeat=cd.n):
                    zeta = generator(ShiftedObject(FlatTangle.empty()), tgt, assign)
                    f = compose(stack(ib, sa), stack(zeta, ia))  # psi(zeta)
                    back = compose(stack(f, iav), et)  # phi(psi(zeta))
                    assert back == zeta, (ta.pairs, tb.pairs, assign)


def test_alpha1_unknot_stability():
    # the Lee-type specialization of the colored unknot is stable across
    # window depths in the reliable band
    tables = {}
    for N in (6, 8):
        e = pj.rewrite_network(ex.unknot(2))
        C = pj.instantiate(e, Window(-N, 0))
        S, _ = simplify(C)
        M = cx.tautological(S)
        tables[N] = homology_table(M, "alpha1")
    for k in range(-4, 1):
        assert tables[6].rank(k, None) == tables[8].rank(k, None), k
    # total rank 2 in degree 0: Lee-style degeneration of the circle square
    assert tables[8].rank(0, None) == 2


def test_alpha1_end_p2_collapses():
    M = pj.hom_of_networks(ex.Proj(2), ex.Proj(2), Window(-8, 0))
    T0 = homology_table(M, "alpha0")
    T1 = homology_table(M, "alpha1")
    # over Q at alpha=1 the torsion towers disappear and ranks thin out
    free0 = sum(v[0] for kq, v in T0.nonzero().items() if -6 <= kq[0] <= 0)
    free1 = sum(v[0] for kq, v in T1.nonzero().items() if -6 <= kq[0] <= 0)
    assert free1 <= free0
    assert T1.rank(0, None) >= 1
