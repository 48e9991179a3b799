"""Property tests for the canonical-form composition algebra."""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from spinhom import tl
from spinhom.cob import (
    AlphaPoly,
    CanonicalCobordism,
    FlatTangle,
    ShiftedObject,
    closure_data,
    compose,
    degree,
    identity_cob,
    reduce_glued,
)

_TANGLES = {
    n: [FlatTangle(n, n, m.pairs) for m in tl.all_matchings(n, n)] for n in (1, 2)
}


@st.composite
def composable_triple(draw):
    """Three composable cobordisms between tangles that may carry closed
    circles, with Z[alpha] coefficients of alpha-degree up to 2."""
    n = draw(st.sampled_from([1, 2]))
    objs = []
    for _ in range(4):
        t = draw(st.sampled_from(_TANGLES[n]))
        circles = draw(st.integers(0, 1))
        objs.append(ShiftedObject(FlatTangle(t.m, t.n, t.pairs, circles), 0))

    def rand_mor(src, tgt):
        cd = closure_data(src.tangle, tgt.tangle)
        terms = {}
        for assign in itertools.product((0, 1), repeat=cd.n):
            coeffs = draw(st.dictionaries(st.integers(0, 2), st.integers(-2, 2), max_size=2))
            terms[assign] = AlphaPoly(coeffs)
        return CanonicalCobordism(src, tgt, terms)

    f = rand_mor(objs[0], objs[1])
    g = rand_mor(objs[1], objs[2])
    h = rand_mor(objs[2], objs[3])
    return f, g, h


@given(composable_triple())
@settings(max_examples=80, deadline=None)
def test_compose_associative(triple):
    f, g, h = triple
    assert compose(compose(h, g), f) == compose(h, compose(g, f))


@given(composable_triple())
@settings(max_examples=60, deadline=None)
def test_compose_bilinear(triple):
    f, g, h = triple
    if f.source != g.source or f.target != g.target:
        return
    lhs = compose(h, f + g) if h.source == f.target else None
    if lhs is None:
        return
    assert lhs == compose(h, f) + compose(h, g)


@given(composable_triple())
@settings(max_examples=60, deadline=None)
def test_identity_units(triple):
    f, _, _ = triple
    assert compose(identity_cob(f.target), f) == f
    assert compose(f, identity_cob(f.source)) == f


@given(composable_triple())
@settings(max_examples=60, deadline=None)
def test_degree_additive_when_defined(triple):
    f, g, _ = triple
    fg = compose(g, f)
    df, dg, dfg = degree(f), degree(g), degree(fg)
    if df is not None and dg is not None and not fg.is_zero():
        assert dfg == df + dg


def _reference_compose(g: CanonicalCobordism, f: CanonicalCobordism) -> CanonicalCobordism:
    """g after f, glued term by term through reduce_glued: f's closure disks,
    then g's, sewn along the middle object's arcs (intervals) and circles."""
    a, b, c = f.source.tangle, f.target.tangle, g.target.tangle
    cF, cG, cOut = closure_data(a, b), closure_data(b, c), closure_data(a, c)
    cells = [(cF.tgt_arc[arc], cF.n + cG.src_arc[arc], 1) for arc in b.arcs()]
    cells += [(cF.tgt_circ[j], cF.n + cG.src_circ[j], 0) for j in range(b.circles)]

    def piece(side, kind, key):
        if side == "s":
            return cF.src_arc[key] if kind == "arc" else cF.src_circ[key]
        return cF.n + (cG.tgt_arc[key] if kind == "arc" else cG.tgt_circ[key])

    circle_nodes = [[piece(*con) for con in cons] for cons in cOut.constituents]
    chi = [1] * (cF.n + cG.n)
    out = CanonicalCobordism.zero(f.source, g.target)
    for af, pf in f.terms.items():
        for ag, pg in g.terms.items():
            reduced = reduce_glued(chi, list(af + ag), cells, circle_nodes)
            terms = {assign: poly * pf * pg for assign, poly in reduced.items()}
            out = out + CanonicalCobordism(f.source, g.target, terms)
    return out


@given(composable_triple())
@settings(max_examples=80, deadline=None)
def test_compose_matches_reference_gluing(triple):
    f, g, h = triple
    assert compose(g, f) == _reference_compose(g, f)
    # a second call is answered from the per-structure memo
    assert compose(h, g) == _reference_compose(h, g)
    assert compose(h, g) == _reference_compose(h, g)
