"""Projectors, certificates, the rewrite calculus, sheet-algebra maps."""

import itertools

import pytest

from helpers import closed_networks_leq3, reference_rewrite_network, rewrite_corpus_sample
from spinhom import cli, cob
from spinhom import complexes as cx
from spinhom import expr as ex
from spinhom import projector as pj
from spinhom import tl
from spinhom.cob import AlphaPoly, FlatTangle
from spinhom.complexes import (
    ChainMap,
    Window,
    commutator_with_d,
    compose_maps,
    dual_complex,
    homotopic_alpha0,
    simplify,
    stack_complexes,
)
from spinhom.errors import AdmissibilityError, IntegrityError, ResourceError, SpinhomError
from spinhom.homology import homology_table


def test_p2_shape(p2_w8):
    C = p2_w8.complex
    assert C.objects(0)[0].tangle == FlatTangle.identity(2)
    for k in range(1, 9):
        o = C.objects(-k)[0]
        assert o.tangle == FlatTangle.e(0, 2)
        assert o.qshift == 2 * k - 1
    C.validate()
    assert p2_w8.certificate.passed


def test_p2_window_precondition():
    with pytest.raises(SpinhomError):
        pj.p2(Window(-3, 1))


def test_certificate_fails_for_identity():
    C = cx.identity_complex(2)
    C = cx.ChainComplex(2, 2, Window(-6, 0), C.groups, C.diff)
    cert = pj.check_projector_axioms(C, 2, Window(-6, 0))
    assert cert.degree_zero_ok
    assert not cert.passed  # turnbacks fail: e (x) 1_2 = e does not die


def test_certificate_fails_for_misplaced_dual(p2_w8):
    # P2-dual placed in non-positive degrees: axiom (1) fails
    D = dual_complex(p2_w8.complex)
    D2 = cx.shift_h(D, -D.window.hi)
    cert = pj.check_projector_axioms(D2, 2, D2.window)
    assert not cert.degree_zero_ok


@pytest.mark.parametrize("fault, message", [
    ("dot_width", "bad dot assignment"),
    ("q_degree", "q-degree 4 != 0"),
])
def test_fresh_build_is_validated(fault, message, monkeypatch, tmp_path):
    # certified_projector validates every fresh build before it certifies
    # it, so a malformed entry (here in P_2's dot differentials, which
    # every build of n >= 2 starts from) is an IntegrityError, and
    # `project` exits 6.  The uncached builder, so no cached projector is
    # served.
    dot_at_point = cob.dot_at_point
    alpha = AlphaPoly({1: 1})

    def corrupt(obj, p, dots=1):
        terms = dot_at_point(obj, p, dots)
        if fault == "dot_width":
            return {a + (0,): c for a, c in terms.items()}
        return {a: c * alpha for a, c in terms.items()}

    monkeypatch.setattr(cob, "dot_at_point", corrupt)
    monkeypatch.setattr(pj, "build_projector", pj.build_projector.__wrapped__)
    for n in (2, 3):
        with pytest.raises(IntegrityError, match=message):
            pj.build_projector(n, Window(-4, 0))
    cdir = str(tmp_path / "cache")
    assert cli.main(["project", "3", "--window", "4", "--cache-dir", cdir]) == 6


def test_build_projector_small(w8, p2_w8, p3_w8):
    B1 = pj.build_projector(1, w8)
    assert B1.certificate.passed
    assert B1.complex.objects(0)[0].tangle == FlatTangle.identity(1)
    B2 = pj.build_projector(2, w8)
    assert B2.certificate.passed
    assert B2.complex.graded_objects() == p2_w8.complex.graded_objects()
    assert p3_w8.certificate.passed
    assert p3_w8.certificate.euler_ok
    # two turnback diagrams per negative degree in the window interior
    for k in range(-6, 0):
        assert len(p3_w8.complex.objects(k)) == 2


def test_projector_symmetries(p2_w8, p3_w8):
    for P in (p2_w8, p3_w8):
        C = P.complex
        SX, _ = simplify(cx.reflect_x_complex(C))
        SY, _ = simplify(cx.reflect_y_complex(C))
        SC, _ = simplify(C)
        gx, gy, g = SX.graded_objects(), SY.graded_objects(), SC.graded_objects()
        for k in range(C.window.lo + P.n, 1):
            assert gx.get(k) == g.get(k)
            assert gy.get(k) == g.get(k)


def test_projector_idempotence(p2_w8, p3_w8):
    for P in (p2_w8, p3_w8):
        C = P.complex
        S, _ = simplify(stack_complexes(C, C))
        g, gs = C.graded_objects(), S.graded_objects()
        for k in range(C.window.lo + P.n, 1):
            assert gs.get(k) == g.get(k), (P.n, k)


def test_spin_vertex_cases(w8):
    V = pj.instantiate(ex.Vertex(0, 0, 0), w8)
    assert V.m == 0 and V.n == 0
    V2 = pj.instantiate(ex.Vertex(1, 1, 2), w8)
    assert (V2.m, V2.n) == (1, 3)
    with pytest.raises(AdmissibilityError):
        pj.instantiate(ex.Vertex(1, 1, 1), w8)
    with pytest.raises(AdmissibilityError):
        pj.instantiate(ex.Vertex(1, 1, 4), w8)


def test_vertex_112_is_p2_with_split_strand(w8):
    # internal counts (1, 1, 0): the vertex is P2 with the bottom doubled
    V = pj.instantiate(ex.Vertex(1, 1, 2), w8)
    S, _ = simplify(V)
    # euler characteristic against the TL oracle value
    chi = pj.tl_euler_characteristic(S)
    p = tl.tl_element_of(ex.Vertex(1, 1, 2))
    for d, poly in chi.items():
        series = p.terms.get(d, tl.RatFunc.zero()).series(9)
        assert poly.truncate(above=9) == series, d


# -- rewrite engine ----------------------------------------------------------


def test_rewrite_absorption():
    r = pj.rewrite_network
    e1 = ex.Stack(ex.Beside(ex.Strand(1), ex.Proj(2)), ex.Proj(3))
    assert r(e1) == ex.Proj(3)
    assert r(ex.Stack(ex.Proj(3), ex.Beside(ex.Proj(2), ex.Strand(1)))) == ex.Proj(3)
    e2 = ex.Stack(ex.Beside(ex.DualProj(2), ex.Strand(1)), ex.Proj(3))
    assert r(e2, "product") == ex.Proj(3)
    assert r(e2, "sum") != ex.Proj(3)
    e3 = ex.Stack(ex.Beside(ex.Proj(2), ex.Strand(1)), ex.DualProj(3))
    assert r(e3, "sum") == ex.DualProj(3)
    assert r(ex.Stack(ex.Proj(2), ex.Proj(2))) == ex.Proj(2)
    assert r(ex.Stack(ex.Proj(2), ex.DualProj(2)), "product") == ex.Proj(2)
    assert r(ex.Stack(ex.Proj(2), ex.DualProj(2)), "sum") == ex.DualProj(2)


def test_rewrite_semi_orthogonality():
    r = pj.rewrite_network
    mid = ex.Diagram(2, 0, (1, 0))
    e = ex.Stack(ex.Proj(2), ex.Stack(mid, ex.DualProj(0)))
    assert r(e, "product") == ex.Zero()
    e2 = ex.Stack(ex.DualProj(2), ex.Stack(mid, ex.Proj(0)))
    assert r(e2, "sum") == ex.Zero()
    # the hypothesis matters: no rule fires in the opposite mode
    assert r(e, "sum") != ex.Zero()


def test_rewrite_end_ring_forms():
    r = pj.rewrite_network
    assert r(ex.Trace(ex.Stack(ex.Proj(2), ex.Dual(ex.Proj(2))))) == ex.Trace(
        ex.Proj(2)
    )
    out = r(ex.Trace(ex.Stack(ex.Vertex(1, 1, 2), ex.Dual(ex.Vertex(1, 1, 2)))))
    # theta normal form: single white projectors per edge, no black boxes
    text = ex.to_text(out)
    assert "dual" not in text
    assert text.count("p(2)") == 1 and text.count("p(1)") == 2


def test_rewrite_zero_and_units():
    r = pj.rewrite_network
    assert r(ex.Stack(ex.Strand(2), ex.Proj(2))) == ex.Proj(2)
    assert r(ex.Beside(ex.Strand(0), ex.Proj(2))) == ex.Proj(2)
    assert r(ex.Trace(ex.Stack(ex.Proj(2), ex.Zero()))) == ex.Zero()
    assert r(ex.Dual(ex.Dual(ex.Proj(2)))) == ex.Proj(2)


def test_rewrite_matches_reference_engine():
    # a deterministic sample of the enumeration tests/rewrite_corpus.py runs
    # in full: 5,676 expressions, every leaf and level-2 expression among them
    sample = rewrite_corpus_sample(seed=0, draws=2000)
    assert len(sample) > 5000
    for e, mode in itertools.product(sample, ("product", "sum")):
        out = ex.to_text(pj.rewrite_network(e, mode))
        assert out == ex.to_text(reference_rewrite_network(e, mode)), (ex.to_text(e), mode)


def test_rotations_skip_only_what_does_not_stack():
    cap = ex.Diagram(2, 0, (1, 0))
    assert list(pj._rotations([ex.Proj(2), cap])) == []  # (2, 0), then a mismatch
    cup = ex.Dual(cap)
    assert list(pj._rotations([cap, cup])) == [[cap, cup], [cup, cap]]
    # a malformed node is an error, not a chain that does not stack
    with pytest.raises(TypeError):
        list(pj._rotations([ex.Proj("2"), ex.Proj(2)]))


def test_rewrite_guard_raises_instead_of_returning_a_form_that_is_not_normal(monkeypatch):
    # a rule that always fires never reaches a fixpoint
    monkeypatch.setattr(pj, "_commute_projectors", lambda items, mode: items[::-1])
    cap = ex.Diagram(2, 0, (1, 0))
    with pytest.raises(ResourceError):
        pj.rewrite_network(ex.Stack(ex.Dual(cap), cap))


def _has_dual(e: ex.NetworkExpr) -> bool:
    match e:
        case ex.Dual():
            return True
        case ex.Stack(a, b) | ex.Beside(a, b):
            return _has_dual(a) or _has_dual(b)
        case ex.Trace(inner):
            return _has_dual(inner)
    return False


def test_rewrite_rules_meet_no_dual_node():
    # rewrite_network's rules have no Dual case: push_duals leaves a Dual
    # only around a Vertex, and expand_vertices has removed them all.
    # Networks: the closed ones with labels <= 3 (AC10's), and the hom(M, N)
    # closures that hom_of_networks builds for those and for the open
    # projectors and vertices with labels <= 3.
    closed = [net for _, net in closed_networks_leq3()]
    triples = [(1, 1, 2), (2, 1, 1), (2, 2, 2), (3, 1, 2), (3, 2, 1), (1, 2, 3), (2, 3, 3)]
    pieces = [ex.Proj(n) for n in (1, 2, 3)] + [ex.DualProj(n) for n in (1, 2, 3)]
    pieces += [ex.Vertex(*t) for t in triples]
    homs = [
        ex.Trace(ex.Stack(N, ex.Dual(M)))
        for group in (closed, pieces)
        for M in group
        for N in group
        if ex.arity(M) == ex.arity(N)
    ]
    assert any(isinstance(M, ex.Vertex) for M in pieces)
    for e in closed + homs:
        assert not _has_dual(ex.push_duals(pj.expand_vertices(e))), ex.to_text(e)


def test_dual_projector_closure_is_the_universal_coefficient_dual():
    # tr(dual(p(n))) instantiates DualProj: its homology is the dual of
    # tr(p(n))'s, free ranks at (-h, -q) and torsion at (1 - h, -q), on the
    # degrees inside both reliable bands
    checked = set()
    for n in (1, 2, 3):
        for depth in (6, 8):
            window = Window(-depth, 0)
            M = pj.closed_module(ex.Trace(ex.Proj(n)), window)
            D = pj.closed_module(ex.Trace(ex.Dual(ex.Proj(n))), window)
            T, TD = homology_table(M), homology_table(D)

            def inside(h, h_dual):
                return M.reliable[0] <= h <= M.reliable[1] and D.reliable[0] <= h_dual <= D.reliable[1]

            keys = set(T.entries) | {(-h, -q) for h, q in TD.entries} | {(1 - h, -q) for h, q in TD.entries}
            for h, q in keys:
                if inside(h, -h):
                    assert T.rank(h, q) == TD.rank(-h, -q), (n, depth, h, q)
                if inside(h, 1 - h):
                    assert T.torsion(h, q) == TD.torsion(1 - h, -q), (n, depth, h, q)
                    if T.torsion(h, q):
                        checked.add((n, depth, h, q))
    assert {(2, 8, -4, 8), (2, 8, -2, 4), (2, 6, -2, 4), (3, 8, -2, 3)} <= checked


def test_rewrite_soundness_absorption(w8):
    # instantiated complexes before/after agree in the window interior
    e_before = ex.Stack(ex.Beside(ex.Strand(1), ex.Proj(2)), ex.Proj(3))
    e_after = pj.rewrite_network(e_before)
    A, _ = simplify(pj.instantiate(e_before, w8))
    B, _ = simplify(pj.instantiate(e_after, w8))
    ga, gb = A.graded_objects(), B.graded_objects()
    for k in range(w8.lo + 4, 1):
        assert ga.get(k) == gb.get(k), k


# -- sheet algebra -----------------------------------------------------------


def test_v_and_dot_maps_exact(p2_w8):
    P = p2_w8.complex
    b1, b2 = pj.dot_maps(P)
    v = pj.v_map(P)
    assert (b1.hdeg, b1.qdeg) == (0, 2)
    assert (b2.hdeg, b2.qdeg) == (0, 2)
    assert (v.hdeg, v.qdeg) == (-1, 2)
    dv = commutator_with_d(v)
    s = b1 + b2
    for k in range(P.window.lo + 1, 1):
        assert dv.mats.get(k, {}) == s.mats.get(k, {})
    alpha = AlphaPoly({1: 1})
    ident = ChainMap.identity(P)
    assert compose_maps(b1, b1).mats == ident.scale(alpha).mats
    assert compose_maps(b2, b2).mats == ident.scale(alpha).mats
    assert compose_maps(b1, v).mats == compose_maps(b2, v).mats


def test_standard_equivalence(p2_w8, w8):
    B2 = pj.build_projector(2, w8)
    psi = pj.standard_equivalence(p2_w8, B2)
    iota_p = pj.iota_map(p2_w8.complex, 2)
    iota_q = pj.iota_map(B2.complex, 2)
    assert compose_maps(psi, iota_p).mats == iota_q.mats
    self_psi = pj.standard_equivalence(p2_w8, p2_w8)
    assert homotopic_alpha0(
        self_psi, ChainMap.identity(p2_w8.complex), lo=w8.lo + 2
    )


def test_pi_action(p2_w8, w8):
    P = p2_w8.complex
    b1, _ = pj.dot_maps(P)
    ident = ChainMap.identity(P)
    assert homotopic_alpha0(
        pj.pi_action(ident, P, p2_w8), ident, lo=w8.lo + 3
    )
    assert homotopic_alpha0(pj.pi_action(b1, P, p2_w8), b1, lo=w8.lo + 3)
    Pv = dual_complex(P)
    pi_v = pj.pi_action(b1, Pv, p2_w8)
    b1v = ChainMap(Pv, Pv, 0, 2, cx.dual_chain_map(b1).mats)
    assert homotopic_alpha0(pi_v, b1v, lo=-5, hi=5)


def test_action_coincidence_on_double_product(p2_w8, w8):
    # left and right actions on Q = P2 (x) P2 agree up to homotopy on b1
    P = p2_w8.complex
    Q = stack_complexes(P, P)
    Qs, eqQ = simplify(Q, want_equivalence=True)
    b1, b2 = pj.dot_maps(P)
    one_P = ChainMap.identity(P)
    left = cx.stack_chain_maps(b1, one_P)
    right = cx.stack_chain_maps(one_P, b1)
    left = ChainMap(Q, Q, 0, 2, left.mats)
    right = ChainMap(Q, Q, 0, 2, right.mats)
    # transport to the simplified model and compare there
    lm = compose_maps(eqQ.r, compose_maps(left, eqQ.i))
    rm = compose_maps(eqQ.r, compose_maps(right, eqQ.i))
    assert homotopic_alpha0(lm, rm, lo=w8.lo + 3, hi=-1)


def test_unknot_action(p2_w8, w8):
    P = p2_w8
    eta = pj.eta_element(P)
    psi_eta = pj.unknot_action(eta, P)
    assert homotopic_alpha0(psi_eta, ChainMap.identity(P.complex), lo=w8.lo + 3)
    assert pj.unknot_pairing(ChainMap.identity(P.complex), P) == eta
    # phi(psi(zeta)) = zeta for degree-zero module generators
    for assign in [(0, 0), (1, 0), (0, 1), (1, 1)]:
        z = {(0, 0, assign): AlphaPoly({0: 1})}
        F = pj.unknot_action(z, P)
        assert pj.unknot_pairing(F, P) == z


def test_sheet_alg_commutativity_on_classes(p2_w8, w8):
    # [x][y] = (-1)^{|x||y|}[y][x] for generators of End(P2) homology
    P = p2_w8.complex
    b1, b2 = pj.dot_maps(P)
    v = pj.v_map(P)
    vv = compose_maps(v, v)  # bidegree (-2, 4) cycle
    assert not {
        k: m for k, m in commutator_with_d(vv).mats.items() if k > w8.lo + 1
    }
    lhs = compose_maps(b1, vv)
    rhs = compose_maps(vv, b1)
    # |b1| even: commute up to homotopy
    assert homotopic_alpha0(lhs, rhs, lo=w8.lo + 3, hi=-1)


def test_hom_of_networks_end_p2(w8):
    M = pj.hom_of_networks(ex.Proj(2), ex.Proj(2), w8)
    T = homology_table(M, "alpha0")
    assert T.rank(0, 0) == 1
    assert T.rank(0, 2) == 1
    assert T.rank(-2, 4) == 1
    assert T.torsion(-2, 6) == (2,)


def test_hom_of_networks_boundary_mismatch(w8):
    with pytest.raises(Exception):
        pj.hom_of_networks(ex.Proj(2), ex.Proj(3), w8)


def test_hom_of_cup_vertex_end_ring(w8):
    M2 = pj.hom_of_networks(ex.Vertex(0, 1, 1), ex.Vertex(0, 1, 1), w8)
    T2 = homology_table(M2, "alpha0")
    assert T2.rank(0, 0) == 1


def test_rewrite_soundness_homology_of_closures(w8):
    # homology of hom-closures agrees before/after a white-white absorption
    # (both sides stay one-sided so the window interior is comparable)
    before = ex.Trace(ex.Stack(ex.Beside(ex.Strand(1), ex.Proj(2)), ex.Proj(3)))
    after = pj.rewrite_network(before)
    assert after == ex.Trace(ex.Proj(3))
    Cb = pj.instantiate(before, w8)
    Ca = pj.instantiate(after, w8)
    Sb, _ = simplify(Cb)
    Sa, _ = simplify(Ca)
    tb = homology_table(cx.tautological(Sb), "alpha0")
    ta = homology_table(cx.tautological(Sa), "alpha0")
    keys = set(tb.nonzero()) | set(ta.nonzero())
    for kq in keys:
        if w8.lo + 4 <= kq[0] <= 0:
            assert tb.entries.get(kq) == ta.entries.get(kq), kq


def test_build_projector_four_strands():
    # the sweep construction generalizes past the required n <= 3
    P4 = pj.build_projector(4, Window(-4, 0))
    assert P4.certificate.passed
    assert len(P4.complex.objects(0)) == 1
    assert len(P4.complex.objects(-1)) == 3  # the three adjacent turnbacks


def _i_net(mid: int, a: int, b: int, c: int, d: int) -> ex.NetworkExpr:
    """Two trivalent vertices with legs (a, b) above and (c, d) below,
    joined by a middle edge labelled mid."""
    top = ex.Dual(ex.Vertex(mid, a, b))
    bottom = ex.Vertex(mid, c, d)
    return ex.Stack(top, bottom)


def test_hom_of_differently_colored_inets_vanishes(w8):
    # middle labels j < i force Hom = 0 (semi-orthogonality through the
    # duality recipe); the TL oracle value of the closure is exactly 0 too
    M = _i_net(0, 1, 1, 1, 1)
    N = _i_net(2, 1, 1, 1, 1)
    assert ex.arity(M) == ex.arity(N) == (2, 2)
    closure = ex.Trace(ex.Stack(N, ex.Dual(M)))
    assert tl.evaluate_network(closure).is_zero()
    rewritten = pj.rewrite_network(closure)
    assert rewritten == ex.Zero()
    module = pj.hom_of_networks(M, N, w8)
    assert not homology_table(module, "alpha0").nonzero()


def test_hom_of_equal_colored_inets_nonzero(w8):
    N = _i_net(2, 1, 1, 1, 1)
    module = pj.hom_of_networks(N, N, w8)
    T = homology_table(module, "alpha0")
    assert T.rank(0, 0) >= 1


def test_unknot_maps_build_one_trace(monkeypatch):
    # Tr(P)^0 is Tr(1_n), so eta needs no trace; the action reads the
    # traced objects one by one; the pairing traces P once, for Tr(F)
    P = pj.build_projector(2, Window(-6, 0))
    v = pj.v_map(P.complex)
    calls = []
    trace = cx.trace_complex
    monkeypatch.setattr(cx, "trace_complex", lambda C: calls.append(C) or trace(C))
    eta = pj.eta_element(P)
    assert calls == []
    pj.unknot_action(eta, P)
    assert calls == []
    pj.unknot_pairing(v, P)
    assert len(calls) == 1
    assert eta == {(0, 0, (0, 0)): AlphaPoly({0: 1})}


def test_instantiate_leaves_closed_networks_simplified():
    # no circle to deloop and no invertible entry to cancel, so
    # closed_module applies no second simplify, planned or not
    from helpers import closed_networks_leq3

    from spinhom import cob

    for name, e in closed_networks_leq3():
        rewritten = pj.rewrite_network(e)
        for form in {rewritten, pj.plan_gluing(rewritten, pj.object_counts(Window(-6, 0)))}:
            C = pj.instantiate(form, Window(-6, 0))
            for objs in C.groups.values():
                assert all(o.tangle.circles == 0 for o in objs), name
            for k, mat in C.diff.items():
                for (r, c), f in mat.items():
                    assert cob.iso_sign(C.objects(k)[c], C.objects(k + 1)[r], f) is None, name


def test_every_projector_has_the_band_of_its_window():
    # built or loaded, P_n@W carries reliable = (W.lo + n, inf), a tail
    # below for n >= 2, and an Euler comparison for n >= 2 only
    for n in range(4):
        P = pj.build_projector(n, Window(-5, 0))
        assert P.complex.reliable == (-5 + n, float("inf"))
        assert P.complex.tail_lo == (n >= 2)
        assert (P.certificate.euler_ok is None) == (n < 2)


def test_identity_terms_computed_once_per_tangle(monkeypatch):
    # identity terms do not depend on the q-shift, so the cache is keyed by
    # the tangle: a cold build and a closed query, which meet tangles at
    # many shifts, compute each tangle's identity once
    computed = []
    real = cob.dotted_identity

    def counted(obj, dots):
        if not dots:
            computed.append(obj.tangle)
        return real(obj, dots)

    monkeypatch.setattr(cob, "dotted_identity", counted)
    cob._tangle_identity.cache_clear()
    pj.build_projector.__wrapped__(4, Window(-4, 0))
    pj.closed_module(ex.theta(2, 3, 3), Window(-6, 0))
    assert len(computed) > 1
    assert len(computed) == len(set(computed))
    assert cob._tangle_identity.cache_info().misses == len(computed)
