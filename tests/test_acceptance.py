"""Acceptance criteria, one test per criterion.

Each test prints a single pass line with its runtime; tolerances and
runtime budgets are the stated ones.  Run with `pytest -s
tests/test_acceptance.py` to see the report lines.
"""

import itertools
import random
import time

import pytest

from dga import two_color_unknot_dga
from helpers import (
    assert_sdr,
    closed_networks_leq3,
    column_homotopy,
    deep_projector,
    first_iso_entry,
    nonempty_complex,
    random_complex,
    tables_equal,
)
from spinhom import complexes as cx
from spinhom import expr as ex
from spinhom import projector as pj
from spinhom import tl
from spinhom.cob import (
    AlphaPoly,
    CanonicalCobordism,
    FlatTangle,
    ShiftedObject,
    dot_at_point,
    dualize_cob,
    dualize_ob,
    eta,
    identity_cob,
    saddle_to_identity,
    stack as stack_cob,
    surgery,
)
from spinhom.complexes import (
    ChainMap,
    Window,
    bicomplex_contraction,
    commutator_with_d,
    compose_maps,
    gaussian_eliminate,
    homotopic_alpha0,
    hom_complex,
    hom_complex_direct,
    shift_h,
    simplify,
    stack_complexes,
    tautological,
    trace_complex,
)
from spinhom.errors import SpinhomError
from spinhom.homology import euler_characteristic, homology_table
from spinhom.laurent import LaurentPoly, RatFunc, quantum_integer


def _report(name: str, t0: float, budget: float):
    dt = time.time() - t0
    print(f"{name}: pass ({dt:.2f}s, budget {budget:.0f}s)")
    assert dt < budget, f"{name} exceeded its runtime budget: {dt:.1f}s"


def test_ac01_jones_wenzl_oracle():
    t0 = time.time()
    for n in range(1, 7):
        p = tl.jones_wenzl(n)
        for i in range(n - 1):
            assert tl.compose_tl(tl.TLElement.e(i, n), p).is_zero()
            assert tl.compose_tl(p, tl.TLElement.e(i, n)).is_zero()
        d = p - tl.TLElement.identity(n)
        assert d.is_zero() or tl.through_degree(d) < n
        assert tl.compose_tl(p, p) == p
        assert tl.markov_trace(p) == RatFunc.from_laurent(quantum_integer(n + 1))
    _report("AC1  Jones-Wenzl oracle (n <= 6)", t0, 10)


def test_ac02_p2_fidelity():
    t0 = time.time()
    P = pj.p2(Window(-10, 0))
    C = P.complex
    C.validate()  # includes d.d = 0 and degree-0 homogeneity
    assert C.objects(0) == [ShiftedObject(FlatTangle.identity(2), 0)]
    e = FlatTangle.e(0, 2)
    for k in range(1, 11):
        assert C.objects(-k) == [ShiftedObject(e, 2 * k - 1)]
    # stated differentials: saddle into degree 0, then alternating
    # dot-difference / dot-sum
    sad = C.entry(-1, 0, 0)
    assert sad.terms == {(0,): AlphaPoly({0: 1})}
    for j in range(2, 11):
        src = C.objects(-j)[0]
        t = dot_at_point(src, 0).with_shifts(src.qshift, src.qshift - 2)
        b = dot_at_point(src, 2).with_shifts(src.qshift, src.qshift - 2)
        expect = t - b if j % 2 == 0 else t + b
        assert C.entry(-j, 0, 0) == expect, j
    assert P.certificate.passed
    _report("AC2  P2 fidelity (window -10..0)", t0, 1)


def test_ac03_truncated_euler_telescoping():
    t0 = time.time()
    for N in (4, 6, 8, 10):
        P = pj.p2(Window(-N, 0)).complex
        M = tautological(trace_complex(P))
        chi = euler_characteristic(M)
        tail = chi - LaurentPoly({2: 1, 0: 1, -2: 1})
        assert list(tail.coeffs) == [2 * N], (N, tail)
        assert tail.coeffs[2 * N] in (1, -1)
    _report("AC3  truncated Euler telescoping (N in 4,6,8,10)", t0, 5)


def test_ac04_sheet_algebra_exact_identities(p2_w8):
    t0 = time.time()
    P = p2_w8.complex
    b1, b2 = pj.dot_maps(P)
    v = pj.v_map(P)
    assert (b1.hdeg, b1.qdeg) == (0, 2)
    assert (b2.hdeg, b2.qdeg) == (0, 2)
    assert (v.hdeg, v.qdeg) == (-1, 2)
    dv = commutator_with_d(v)
    s = b1 + b2
    for k in range(P.window.lo + 1, 1):
        assert dv.mats.get(k, {}) == s.mats.get(k, {}), k
    alpha = AlphaPoly({1: 1})
    one = ChainMap.identity(P)
    assert compose_maps(b1, b1).mats == one.scale(alpha).mats
    assert compose_maps(b2, b2).mats == one.scale(alpha).mats
    _report("AC4  sheet-algebra exact identities", t0, 1)


def test_ac05_end_p2_homology_vs_dga_oracle():
    t0 = time.time()
    for N in (4, 5, 6, 8):
        M = pj.hom_of_networks(ex.Proj(2), ex.Proj(2), Window(-N, 0))
        T = homology_table(M, "alpha0")
        assert T.entries.get((0, 0)) == (1, ()), (N, T.entries.get((0, 0)))
    # bigraded comparison at N = 8 in the reliable interior
    N = 8
    M = pj.hom_of_networks(ex.Proj(2), ex.Proj(2), Window(-N, 0))
    T = homology_table(M, "alpha0")
    qmax = 4 * N + 6
    H = two_color_unknot_dga().bigraded_homology_ranks(-N + 2, 0, 0, qmax)
    for k in range(-N + 2, 1):
        for q in range(0, qmax + 1):
            assert T.rank(k, q) == H.get((k, q), 0), ((k, q), T.rank(k, q))
    _report("AC5  End(P2) homology vs free-dga oracle (N = 8)", t0, 120)


def test_ac06_duality_theorem_randomized():
    t0 = time.time()
    rng = random.Random(606)
    checked = 0
    while checked < 100:
        m, n = rng.choice([(1, 1), (2, 2), (3, 3), (0, 2), (2, 0), (1, 3), (3, 1)])
        A = random_complex(rng, m, n, Window(-3, 2), pieces=rng.randint(1, 3))
        B = random_complex(rng, m, n, Window(-3, 2), pieces=rng.randint(1, 3))
        if not A.groups or not B.groups:
            continue
        M1 = hom_complex_direct(A, B)
        M2 = hom_complex(A, B)
        for k in set(M1.gens) | set(M2.gens):
            assert sorted(M1.gens.get(k, [])) == sorted(M2.gens.get(k, [])), ("rank mismatch", k)
        t1 = homology_table(M1, "alpha0")
        t2 = homology_table(M2, "alpha0")
        assert tables_equal(t1, t2), (checked, m, n)
        checked += 1
    _report("AC6  duality theorem on 100 random pairs", t0, 120)


def _equal_in_band(C1, C2, lo, hi):
    g1, g2 = C1.graded_objects(), C2.graded_objects()
    for k in range(int(lo), int(hi) + 1):
        if g1.get(k) != g2.get(k):
            return False, k
    return True, None


def test_ac07_graphical_calculus_rules():
    t0 = time.time()
    W = Window(-8, 0)
    # --- absorption: (strand^x | P_y | strand^z) . P_a ~ P_a, x+y+z <= 3
    triples = [
        (x, y, z)
        for x in range(4)
        for y in range(1, 4)
        for z in range(4)
        if 1 <= x + y + z <= 3
    ]
    for x, y, z in triples:
        a = x + y + z
        P_a = pj.build_projector(a, W).complex
        bundle = ex.Beside(ex.Beside(ex.Strand(x), ex.Proj(y)), ex.Strand(z))
        for e in (
            ex.Stack(bundle, ex.Proj(a)),
            ex.Stack(ex.Proj(a), bundle),
        ):
            C = pj.instantiate(e, W)
            S, _ = simplify(C)
            ok, where = _equal_in_band(S, P_a, W.lo + a + 1, 0)
            assert ok, ("absorption", (x, y, z), e, where)
        # black little box into white big box (product mode).  A finite
        # window cannot materialize the product-completion tail directly
        # (the two-sided telescope collapses), so this rule is verified the
        # way it is proved: the black box's tail columns all kill into P_a
        # at margin support, and the bicomplex support satisfies the
        # product-mode quadrant condition (columns extend upward only).
        Pyv = cx.dual_complex(pj.build_projector(y, W).complex)
        # quadrant-II-freeness with P_a (trivial for the strand projector)
        assert y < 2 or (Pyv.tail_hi and not Pyv.tail_lo)
        for kk, objs in Pyv.groups.items():
            if kk == 0:
                continue
            for o in objs:
                col = ex.Beside(
                    ex.Beside(ex.Strand(x), ex.Diagram(y, y, o.tangle.pairs)),
                    ex.Strand(z),
                )
                colC = pj.instantiate(ex.Stack(col, ex.Proj(a)), W)
                Scol, _ = simplify(colC)
                bad = [k for k in Scol.support() if k >= W.lo + a]
                assert not bad, ("mixed absorption column", (x, y, z), kk, Scol.support())
    # --- commuting rule: P_2 x A ~ A x P_2 in product mode, random A
    rng = random.Random(707)
    for done in range(8):
        A = nonempty_complex(rng, 2, 2, Window(-2, 1), pieces=2, max_objects_per_degree=2)
        P2 = pj.build_projector(2, W).complex
        SX, _ = simplify(stack_complexes(P2, A))
        SY, _ = simplify(stack_complexes(A, P2))
        lo = W.lo + A.min_degree() + 4
        hi = A.max_degree()
        ok, where = _equal_in_band(SX, SY, lo, hi)
        assert ok, ("commuting", done, where)
    # --- semi-orthogonality: Proj(j) ... DualProj(i), i < j, product mode
    for (i, j) in [(0, 1), (0, 2), (1, 2), (1, 3)]:
        mids = tl.all_matchings(j, i)
        if (i + j) % 2 == 1:
            assert not mids  # no diagrams with odd boundary: vacuously zero
            continue
        Pj = pj.build_projector(j, W).complex
        Piv = cx.dual_complex(pj.build_projector(i, W).complex)
        for mid in mids:
            S, _ = simplify(stack_complexes(stack_complexes(Pj, cx.from_tangle(mid)), Piv))
            lo, hi = S.window.lo, S.window.hi
            bad = [k for k in S.support() if lo + 4 <= k <= hi - 4]
            assert not bad, ("semi-orth", (i, j), mid.pairs, S.support())
    _report("AC7  absorption/commuting/semi-orthogonality at window 8", t0, 300)


def test_ac08_bi_infinite_regression_fixture():
    t0 = time.time()
    K = 8
    P2 = pj.p2(Window(-K, 0)).complex
    e = FlatTangle.e(0, 2)
    groups = {k: [ShiftedObject(e, -1 - 2 * k)] for k in range(K + 1)}
    diff = {}
    for k in range(K):
        src = ShiftedObject(e, -1 - 2 * k)
        t = dot_at_point(src, 0).with_shifts(-1 - 2 * k, -3 - 2 * k)
        b = dot_at_point(src, 2).with_shifts(-1 - 2 * k, -3 - 2 * k)
        diff[k] = {(0, 0): (t - b if k % 2 == 0 else t + b)}
    N = cx.ChainComplex(2, 2, Window(0, K), groups, diff, tail_hi=True)
    N.validate()
    S, _ = simplify(stack_complexes(N, P2))
    # 2-periodic with alternating dot-sum / dot-difference in the stable band
    kinds = []
    for k in range(-K + 2, 0):
        objs = S.objects(k)
        assert len(objs) == 1
        assert objs[0].tangle == e and objs[0].qshift == -2 * k - 1, (k, objs)
    for k in range(-K + 2, -1):
        f = S.entry(k, 0, 0)
        vals = {(a, p.coeffs.get(0)) for a, p in f.terms.items()}
        is_sum = vals in ({((0, 1), 1), ((1, 0), 1)}, {((0, 1), -1), ((1, 0), -1)})
        is_diff = vals in ({((0, 1), 1), ((1, 0), -1)}, {((0, 1), -1), ((1, 0), 1)})
        assert is_sum or is_diff, (k, vals)
        kinds.append("S" if is_sum else "D")
    assert all(a != b for a, b in zip(kinds, kinds[1:]))
    # window homology is NOT zero: truncation reasoning must not kill this
    M = tautological(trace_complex(S))
    Tb = homology_table(M, "alpha0")
    inner = {kq: v for kq, v in Tb.nonzero().items() if -K + 2 <= kq[0] <= -1}
    assert inner
    _report("AC8  bi-infinite fixture: 2-periodic, nonzero homology", t0, 10)


def test_ac09_appendix_machinery():
    t0 = time.time()
    rng = random.Random(909)
    # 500 random Gaussian eliminations with exact retract identities
    done = 0
    while done < 500:
        m, n = rng.choice([(1, 1), (2, 2), (1, 3), (2, 0)])
        C = random_complex(rng, m, n, Window(-3, 2), pieces=2)
        entry = first_iso_entry(C)
        if entry is None:
            continue
        small, r_map, i_map, h_map = gaussian_eliminate(C, entry)
        small.validate()
        assert_sdr(C, small, cx.Equivalence(r_map, i_map, h_map))
        done += 1
    # 100 quadrant-compliant bicomplexes: contraction series is a homotopy
    for _ in range(100):
        A = nonempty_complex(rng, 1, 1, Window(-2, 1), pieces=2)
        o = ShiftedObject(FlatTangle.identity(1), rng.randint(-1, 1))
        sgn = rng.choice([1, -1])
        B = cx.ChainComplex(
            1, 1, Window(0, 1), {0: [o], 1: [o]},
            {0: {(0, 0): identity_cob(o).scale(sgn)}},
        )
        H = bicomplex_contraction(A, B, column_homotopy(A, B, sgn), "sum")
        assert commutator_with_d(H).mats == ChainMap.identity(H.source).mats
    # the precondition checker rejects quadrant-violating inputs
    A = shift_h(cx.from_tangle(FlatTangle.identity(1)), 2)
    o = ShiftedObject(FlatTangle.identity(1), 0)
    B = cx.ChainComplex(
        1, 1, Window(-2, -1), {-2: [o], -1: [o]},
        {-2: {(0, 0): identity_cob(o)}},
    )
    T = stack_complexes(A, B)  # support at (2, -2), (2, -1): quadrant IV
    with pytest.raises(SpinhomError, match="quadrant-IV"):
        bicomplex_contraction(A, B, ChainMap.zero(T, T, -1), "sum")
    A2 = shift_h(cx.from_tangle(FlatTangle.identity(1)), -2)
    B2 = cx.ChainComplex(
        1, 1, Window(1, 2), {1: [o], 2: [o]},
        {1: {(0, 0): identity_cob(o)}},
    )
    T2 = stack_complexes(A2, B2)  # support in quadrant II
    with pytest.raises(SpinhomError, match="quadrant-II"):
        bicomplex_contraction(A2, B2, ChainMap.zero(T2, T2, -1), "product")
    _report("AC9  Gaussian retracts (500) and bicomplex contraction (100)", t0, 60)


def test_ac10_oracle_closure():
    t0 = time.time()
    W = 8
    window = Window(-W, 0)
    threshold = 2 * W - 4
    for name, net in closed_networks_leq3():
        e = pj.rewrite_network(net)
        C = pj.instantiate(e, window, deep_projector)
        S, _ = simplify(C)
        chi = euler_characteristic(tautological(S))
        val = tl.evaluate_network(net)
        top = max(chi.coeffs) if chi.coeffs else 0
        series = val.series(max(top, threshold))
        tail = chi - series
        low = [q for q in tail.coeffs if abs(q) < threshold]
        assert not low, (name, sorted(tail.coeffs), low)
    _report("AC10 oracle closure over all networks with labels <= 3", t0, 600)


def test_ac11_eta_saddle_layer(p2_w8):
    t0 = time.time()
    # Prop (1)-(3) exhaustively for 2n <= 8
    for n2 in (2, 4, 6, 8):
        diagrams = tl.all_matchings(0, n2)
        for t in diagrams:
            a = ShiftedObject(t)
            av = dualize_ob(a)
            et, sa = eta(t), saddle_to_identity(t)
            ia, iav = identity_cob(a), identity_cob(av)
            assert compose_maps is not None
            from spinhom.cob import compose as ccompose

            assert ccompose(stack_cob(ia, sa), stack_cob(et, ia)) == ia
            assert ccompose(stack_cob(sa, iav), stack_cob(iav, et)) == iav
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
                sb = saddle_to_identity(b.tangle)
                ibv, ib = identity_cob(dualize_ob(b)), identity_cob(b)
                assert ccompose(sb, stack_cob(ibv, f)) == ccompose(
                    sa, stack_cob(dualize_cob(f), ia)
                )
                assert ccompose(stack_cob(f, iav), et) == ccompose(
                    stack_cob(ib, dualize_cob(f)), eta(b.tangle)
                )
    # unknot action for n = 2: psi(eta) ~ 1 and phi, psi mutually inverse
    P = p2_w8
    lo = P.window.lo + 3
    eta_el = pj.eta_element(P)
    one = ChainMap.identity(P.complex)
    assert homotopic_alpha0(pj.unknot_action(eta_el, P), one, lo=lo)
    assert pj.unknot_pairing(one, P) == eta_el
    # phi(psi(zeta)) = zeta on module generators in degree 0
    for assign in [(0, 0), (1, 0), (0, 1), (1, 1)]:
        z = {(0, 0, assign): AlphaPoly({0: 1})}
        assert pj.unknot_pairing(pj.unknot_action(z, P), P) == z
    # psi(phi(f)) ~ f for the dot generators
    b1, b2 = pj.dot_maps(P.complex)
    for f in (one, b1, b2):
        zeta = pj.unknot_pairing(f, P)
        back = pj.unknot_action(zeta, P)
        assert homotopic_alpha0(back, f, lo=lo, hi=-1)
    _report("AC11 eta/saddle layer (2n <= 8) and unknot action (n = 2)", t0, 120)
