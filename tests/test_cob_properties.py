"""Property tests for the canonical-form composition algebra."""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import Cob, beside, compose, identity_cob, stack, trace
from helpers import cob_degree as degree
from spinhom import tl
from spinhom.cob import (
    AlphaPoly,
    FlatTangle,
    ShiftedObject,
    add_terms,
    beside_ob,
    closure_data,
    reduce_glued,
    stack_ob,
    trace_ob,
)

_TANGLES = {
    n: tl.all_matchings(n, n) for n in (1, 2)
}


def _rand_mor(draw, src, tgt):
    """A cobordism src -> tgt with a Z[alpha] coefficient of alpha-degree up
    to 2 on each dot assignment (possibly zero)."""
    cd = closure_data(src.tangle, tgt.tangle)
    terms = {}
    for assign in itertools.product((0, 1), repeat=cd.n):
        coeffs = draw(st.dictionaries(st.integers(0, 2), st.integers(-2, 2), max_size=2))
        if p := AlphaPoly(coeffs):
            terms[assign] = p
    return Cob(src, tgt, terms)


def _rand_objects(draw, m, n, count):
    """count shifted tangles in Cob^m_n with 0-1 closed circles each."""
    objs = []
    for _ in range(count):
        t = draw(st.sampled_from(tl.all_matchings(m, n)))
        circles = draw(st.integers(0, 1))
        qshift = draw(st.integers(-2, 2))
        objs.append(ShiftedObject(FlatTangle(m, n, t.pairs, circles), qshift))
    return objs


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

    f = _rand_mor(draw, objs[0], objs[1])
    g = _rand_mor(draw, objs[1], objs[2])
    h = _rand_mor(draw, objs[2], objs[3])
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
    if df is not None and dg is not None and fg.terms:
        assert dfg == df + dg


class _Components:
    """Union-find over hashable labels; each edge carries a surface piece."""

    def __init__(self):
        self.parent = {}
        self.pieces = []  # (label, piece)

    def find(self, x):
        self.parent.setdefault(x, x)
        while self.parent[x] != x:
            x = self.parent[x]
        return x

    def edge(self, x, y, piece):
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[ry] = rx
        self.pieces.append((x, piece))

    def circles(self):
        """root -> (labels, pieces) of each closed boundary circle."""
        out = {}
        for x in list(self.parent):
            out.setdefault(self.find(x), (set(), set()))[0].add(x)
        for x, piece in self.pieces:
            out[self.find(x)][1].add(piece)
        return out


def _glue_reference(patterns, src, tgt, chi, cells, circle_nodes):
    """Sum of reduce_glued over (piece dots, coefficient) patterns."""
    out = {}
    for dots, coeff in patterns:
        reduced = reduce_glued(chi, list(dots), cells, circle_nodes)
        out = add_terms(out, {assign: poly * coeff for assign, poly in reduced.items()})
    return Cob(src, tgt, out)


def _reference_compose(g: Cob, f: Cob) -> Cob:
    """g after f, glued term by term through reduce_glued: f's closure disks,
    then g's, sewn along the middle object's arcs (intervals) and circles.
    The output circles are found by walking the boundary: each arc of the
    outer tangles (f's source, g's target) is an edge between its points."""
    a, b, c = f.source.tangle, f.target.tangle, g.target.tangle
    cF, cG, cOut = closure_data(a, b), closure_data(b, c), closure_data(a, c)
    cells = [(cF.point[p], cF.n + cG.point[p], 1) for p, _ in b.arcs()]
    cells += [(cF.tgt_circ[j], cF.n + cG.src_circ[j], 0) for j in range(b.circles)]
    walk = _Components()
    for arc in a.arcs():
        walk.edge(arc[0], arc[1], cF.point[arc[0]])
    for arc in c.arcs():
        walk.edge(arc[0], arc[1], cF.n + cG.point[arc[0]])
    circle_nodes = [None] * cOut.n
    for labels, pieces in walk.circles().values():
        circle_nodes[cOut.point[min(labels)]] = sorted(pieces)
    for j, x in enumerate(cF.src_circ):
        circle_nodes[cOut.src_circ[j]] = [x]
    for j, x in enumerate(cG.tgt_circ):
        circle_nodes[cOut.tgt_circ[j]] = [cF.n + x]
    patterns = [(af + ag, pf * pg) for af, pf in f.terms.items() for ag, pg in g.terms.items()]
    return _glue_reference(patterns, f.source, g.target, [1] * (cF.n + cG.n), cells, circle_nodes)


@given(composable_triple())
@settings(max_examples=80, deadline=None)
def test_compose_matches_reference_gluing(triple):
    f, g, h = triple
    assert compose(g, f) == _reference_compose(g, f)
    # a second call is answered from the per-structure memo
    assert compose(h, g) == _reference_compose(h, g)
    assert compose(h, g) == _reference_compose(h, g)


def _reference_stack(f: Cob, g: Cob) -> Cob:
    """f over g, glued term by term through reduce_glued.  The output circles
    are found by walking the boundary: each arc of the four tangles is an
    edge between labelled points, and a middle point joins an arc of f's
    tangle to one of g's on the same side (source or target)."""
    at, a2t, bt, b2t = f.source.tangle, f.target.tangle, g.source.tangle, g.target.tangle
    m, k = at.m, at.n
    cF, cG = closure_data(at, a2t), closure_data(bt, b2t)
    src = ShiftedObject(stack_ob(at, bt).tangle, f.source.qshift + g.source.qshift)
    tgt = ShiftedObject(stack_ob(a2t, b2t).tangle, f.target.qshift + g.target.qshift)
    cOut = closure_data(src.tangle, tgt.tangle)

    def upper(side, p):
        return ("top", p) if p < m else (side + "mid", p - m)

    def lower(side, p):
        return (side + "mid", p) if p < k else ("bot", p - k)

    walk = _Components()
    for tangle, label, arc_piece in (
        (at, lambda p: upper("s", p), lambda arc: cF.point[arc[0]]),
        (a2t, lambda p: upper("t", p), lambda arc: cF.point[arc[0]]),
        (bt, lambda p: lower("s", p), lambda arc: cF.n + cG.point[arc[0]]),
        (b2t, lambda p: lower("t", p), lambda arc: cF.n + cG.point[arc[0]]),
    ):
        for arc in tangle.arcs():
            walk.edge(label(arc[0]), label(arc[1]), arc_piece(arc))
    circle_nodes = [None] * cOut.n
    loops = {"smid": [], "tmid": []}
    for labels, pieces in walk.circles().values():
        outer = [m + p if kind == "bot" else p for kind, p in labels if kind in ("top", "bot")]
        if outer:
            circle_nodes[cOut.point[outer[0]]] = sorted(pieces)
        else:
            (kind,) = {kind for kind, _ in labels}
            loops[kind].append((min(p for _, p in labels), sorted(pieces)))
    # free circles of the stacked objects: a's, then b's, then the new loops
    # in order of their first middle point (stack_ob's numbering)
    for out_circ, f_circ, g_circ, mid in (
        (cOut.src_circ, cF.src_circ, cG.src_circ, "smid"),
        (cOut.tgt_circ, cF.tgt_circ, cG.tgt_circ, "tmid"),
    ):
        free = [[x] for x in f_circ] + [[cF.n + x] for x in g_circ]
        free += [pieces for _, pieces in sorted(loops[mid])]
        for j, pieces in enumerate(free):
            circle_nodes[out_circ[j]] = pieces
    cells = [(cF.point[m + i], cF.n + cG.point[i], 1) for i in range(k)]
    patterns = [(af + ag, pf * pg) for af, pf in f.terms.items() for ag, pg in g.terms.items()]
    return _glue_reference(patterns, src, tgt, [1] * (cF.n + cG.n), cells, circle_nodes)


def _reference_beside(f: Cob, g: Cob) -> Cob:
    """f beside g, glued term by term through reduce_glued with no cells.
    The output circles are found by walking the boundary: each arc of the
    four tangles is an edge between the output boundary points it ends at
    (f's points first on each side, then g's)."""
    at, a2t, bt, b2t = f.source.tangle, f.target.tangle, g.source.tangle, g.target.tangle
    cF, cG = closure_data(at, a2t), closure_data(bt, b2t)
    src = ShiftedObject(beside_ob(at, bt), f.source.qshift + g.source.qshift)
    tgt = ShiftedObject(beside_ob(a2t, b2t), f.target.qshift + g.target.qshift)
    cOut = closure_data(src.tangle, tgt.tangle)
    top = at.m + bt.m

    def left(p):
        return p if p < at.m else top + (p - at.m)

    def right(p):
        return at.m + p if p < bt.m else top + at.n + (p - bt.m)

    walk = _Components()
    for tangle, label, arc_piece in (
        (at, left, lambda arc: cF.point[arc[0]]),
        (a2t, left, lambda arc: cF.point[arc[0]]),
        (bt, right, lambda arc: cF.n + cG.point[arc[0]]),
        (b2t, right, lambda arc: cF.n + cG.point[arc[0]]),
    ):
        for arc in tangle.arcs():
            walk.edge(label(arc[0]), label(arc[1]), arc_piece(arc))
    circle_nodes = [None] * cOut.n
    for labels, pieces in walk.circles().values():
        circle_nodes[cOut.point[min(labels)]] = sorted(pieces)
    # free circles of the juxtaposed objects: f's, then g's
    for out_circ, f_circ, g_circ in (
        (cOut.src_circ, cF.src_circ, cG.src_circ),
        (cOut.tgt_circ, cF.tgt_circ, cG.tgt_circ),
    ):
        for j, pieces in enumerate([[x] for x in f_circ] + [[cF.n + x] for x in g_circ]):
            circle_nodes[out_circ[j]] = pieces
    patterns = [(af + ag, pf * pg) for af, pf in f.terms.items() for ag, pg in g.terms.items()]
    return _glue_reference(patterns, src, tgt, [1] * (cF.n + cG.n), [], circle_nodes)


def _reference_trace(f: Cob) -> Cob:
    """Markov trace glued term by term through reduce_glued: f's closure
    disks, then one strip per strand joining top point i to bottom point i
    on both sides.  The traced circles are found by walking the boundary."""
    at, bt = f.source.tangle, f.target.tangle
    n = at.n
    cF = closure_data(at, bt)
    src = ShiftedObject(trace_ob(at).tangle, f.source.qshift)
    tgt = ShiftedObject(trace_ob(bt).tangle, f.target.qshift)
    cOut = closure_data(src.tangle, tgt.tangle)
    circle_nodes = [None] * cOut.n
    for tangle, circ_of, out_circ in (
        (at, cF.src_circ, cOut.src_circ),
        (bt, cF.tgt_circ, cOut.tgt_circ),
    ):
        walk = _Components()
        for arc in tangle.arcs():
            walk.edge(arc[0], arc[1], cF.point[arc[0]])
        for i in range(n):
            walk.edge(i, n + i, cF.n + i)
        # old circles first, then the loops in order of their smallest point
        loops = sorted((min(labels), sorted(pieces)) for labels, pieces in walk.circles().values())
        free = [[x] for x in circ_of] + [pieces for _, pieces in loops]
        for j, pieces in enumerate(free):
            circle_nodes[out_circ[j]] = pieces
    cells = [(cF.point[i], cF.n + i, 1) for i in range(n)]
    cells += [(cF.point[n + i], cF.n + i, 1) for i in range(n)]
    patterns = [(af + (0,) * n, pf) for af, pf in f.terms.items()]
    return _glue_reference(patterns, src, tgt, [1] * (cF.n + n), cells, circle_nodes)


@st.composite
def stackable_pair(draw):
    """f in Cob^m_k over g in Cob^k_n, on up to three strands, with circles."""
    parity = draw(st.integers(0, 1))
    m, k, n = (draw(st.sampled_from([parity, parity + 2])) for _ in range(3))
    a, a2 = _rand_objects(draw, m, k, 2)
    b, b2 = _rand_objects(draw, k, n, 2)
    return _rand_mor(draw, a, a2), _rand_mor(draw, b, b2)


@given(stackable_pair())
@settings(max_examples=80, deadline=None)
def test_stack_matches_reference_gluing(pair):
    f, g = pair
    expected = _reference_stack(f, g)
    assert stack(f, g) == expected


@st.composite
def traceable(draw):
    """A square cobordism on up to three strands, with circles."""
    n = draw(st.integers(1, 3))
    a, b = _rand_objects(draw, n, n, 2)
    return _rand_mor(draw, a, b)


@given(traceable())
@settings(max_examples=80, deadline=None)
def test_trace_matches_reference_gluing(f):
    expected = _reference_trace(f)
    assert trace(f) == expected
    # a second call is answered from the memoised glue structure
    assert trace(f) == expected


@st.composite
def besideable_pair(draw):
    """f beside g, each on up to three points a side, with circles."""
    morphisms = []
    for _ in range(2):
        parity = draw(st.integers(0, 1))
        m, n = (draw(st.sampled_from([parity, parity + 2])) for _ in range(2))
        morphisms.append(_rand_mor(draw, *_rand_objects(draw, m, n, 2)))
    return tuple(morphisms)


@given(besideable_pair())
@settings(max_examples=80, deadline=None)
def test_beside_matches_reference_gluing(pair):
    f, g = pair
    expected = _reference_beside(f, g)
    assert beside(f, g) == expected
    # a second call is answered from the memoised glue structure
    assert beside(f, g) == expected
