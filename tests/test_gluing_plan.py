"""The gluing planner (projector.plan_gluing): the closed_module route it
plans gives the answers of the unplanned instantiation, preserves the
network, and keeps the engine's inputs small."""

import json
import random

import pytest

from helpers import closed_networks_leq3, engine_inputs, reference_estimate
from spinhom import cli
from spinhom import complexes as cx
from spinhom import expr as ex
from spinhom import projector as pj
from spinhom import tl
from spinhom.complexes import Window
from spinhom.homology import euler_characteristic, homology_table

# the closed queries of the README's CLI examples and of the query_warm
# benchmark workload
QUERIES = [
    "hom(p(2),p(2))", "tr(p(2))", "theta(1,2,3)", "theta(2,3,3)", "theta(2,2,2)",
    "hom(p(3),p(3))", "tr(stack(vertex(3,1,2),dual(vertex(3,1,2))))",
]


def _closed(query: str) -> ex.NetworkExpr:
    """The closed network of a query; hom(A, B) is Tr(B over A-dual), as
    hom_of_networks glues it."""
    kind, args = cli.parse_query(query)
    if kind == "hom":
        return ex.Trace(ex.Stack(args[1], ex.Dual(args[0])))
    return args[0]


NETWORKS = closed_networks_leq3() + [(q, _closed(q)) for q in QUERIES]


@pytest.fixture(scope="module")
def projector():
    built = {}

    def source(n, window):
        if (n, window) not in built:
            built[n, window] = pj.build_projector(n, window)
        return built[n, window]

    return source


def _answers(M):
    a0, a1 = homology_table(M, "alpha0"), homology_table(M, "alpha1")
    return (M.reliable, a0.entries, a0.unreliable, a1.entries, a1.unreliable,
            euler_characteristic(M))


@pytest.mark.parametrize("depth", [4, 6])
def test_planned_route_gives_the_unplanned_answers(projector, depth):
    # equal band, alpha0 and alpha1 tables with their unreliable marks, and
    # Euler series: instantiate never clips, so the order cannot matter
    window = Window(-depth, 0)
    objects = pj.object_counts(window, projector)
    planned = 0
    for name, e in NETWORKS:
        rewritten = pj.rewrite_network(e)
        planned += pj.plan_gluing(rewritten, objects) != rewritten
        plain = cx.tautological(pj.instantiate(rewritten, window, projector))
        assert _answers(pj.closed_module(e, window, projector=projector)) == _answers(plain), name
    assert planned >= 3  # theta(2,3,3), endclosure(2,3,3) and the query


@pytest.mark.parametrize("trip,depth", [((3, 3, 4), 6), ((4, 4, 4), 2)], ids=["334@6", "444@2"])
def test_planned_heavy_thetas_give_the_unplanned_answers(projector, trip, depth):
    # the deepest windows at which the unplanned route takes a few seconds;
    # it glues the whole P_a beside P_b at once
    window = Window(-depth, 0)
    plain = cx.tautological(pj.instantiate(pj.rewrite_network(ex.theta(*trip)), window, projector))
    assert _answers(pj.closed_module(ex.theta(*trip), window, projector=projector)) == _answers(plain)


@pytest.mark.parametrize("name,e", NETWORKS, ids=[name for name, _ in NETWORKS])
def test_plan_preserves_the_network(projector, name, e):
    # the plans closed_module makes at windows 4 and 6
    rewritten = pj.rewrite_network(e)
    value = tl.evaluate_network(rewritten)
    for depth in (4, 6):
        objects = pj.object_counts(Window(-depth, 0), projector)
        planned = pj.plan_gluing(rewritten, objects)
        assert ex.arity(planned) == ex.arity(rewritten)
        assert tl.evaluate_network(planned) == value
        assert pj.plan_gluing(planned, objects) == planned


def test_plan_splits_a_beside_of_boxes_into_one_box_layers(projector):
    # theta(2,3,3) at window 6: P3 beside P3 is glued one P3 at a time
    objects = pj.object_counts(Window(-6, 0), projector)
    planned = pj.plan_gluing(pj.rewrite_network(ex.theta(2, 3, 3)), objects)
    items = pj._flatten_stack(planned.inner)
    assert ex.Beside(ex.Proj(3), ex.Strand(3)) in items
    assert ex.Beside(ex.Strand(3), ex.Proj(3)) in items
    assert ex.Beside(ex.Proj(3), ex.Proj(3)) not in items
    # three boxes and a diagram: one layer per box, the diagram in the first
    cap = ex.Diagram(2, 0, (1, 0))
    e = pj._rebuild_beside([ex.Proj(2), cap, ex.Proj(3), ex.Strand(1), ex.DualProj(2)])
    layers = pj._split_beside(e)
    assert layers == [
        pj._rebuild_beside([ex.Proj(2), cap, ex.Strand(6)]),
        pj._rebuild_beside([ex.Strand(2), ex.Proj(3), ex.Strand(3)]),
        pj._rebuild_beside([ex.Strand(6), ex.DualProj(2)]),
    ]
    assert tl.tl_element_of(pj._rebuild_stack(layers)) == tl.tl_element_of(e)
    # one box, or boxes of one object (P_0, P_1), stay as they are
    for e in [ex.Beside(ex.Proj(3), cap), ex.Beside(ex.Proj(1), ex.Proj(2))]:
        assert pj._split_beside(e) == [e]


def _estimate(chain, objects, closed=False):
    """The size estimate and circles that _cheapest_order reads for a chain
    (projector._prefixes); `closed` glues its bottom to its top."""
    found, circles = pj._prefixes([pj._layout(x, objects) for x in chain])
    return found[-1][0], circles if closed else found[-1][1]


def test_estimate_counts_unjoined_boundary_points():
    # a lone box counts its objects; stacked boxes meet on half their points
    # and count as one box, as absorption says; boxes side by side meet
    # nowhere; a turnback joins a box only to itself, which counts nothing
    objects = {2: 7, 3: 13}.get
    assert _estimate([ex.Proj(3)], objects) == (13, 0)
    size, circles = _estimate([ex.Proj(2), ex.Proj(2)], objects)
    assert (size, circles) == (pytest.approx(7), 0)
    wide = [ex.Beside(ex.Proj(2), ex.Strand(3)), ex.Beside(ex.Strand(2), ex.Proj(3))]
    assert _estimate(wide, objects) == (91, 0)
    cup, cap = ex.Diagram(0, 2, (1, 0)), ex.Diagram(2, 0, (1, 0))
    assert _estimate([ex.Diagram(2, 2, (1, 0, 3, 2)), ex.Proj(2)], objects) == (7, 0)
    # circles: boxes close like their identity strands, the trace adds its own
    assert _estimate([cup, ex.Proj(2), cap], objects) == (7, 1)
    assert _estimate([ex.Proj(2)], objects, closed=True) == (7, 2)
    caps, cups = ex.Beside(cap, cap), ex.Beside(cup, cup)
    assert _estimate([caps, cups], objects) == (1, 0)
    assert _estimate([caps, cups], objects, closed=True) == (1, 2)


THETAS = [ex.theta(a, b, c) for a in range(5) for b in range(a, 5) for c in range(b, 5)
          if (a + b + c) % 2 == 0 and c <= a + b]


def _random_piece(rng, m, n):
    """A random Stack piece m -> n: boxes, strands and diagrams side by
    side when m == n, else a diagram beside strands."""
    if m != n:
        k = rng.randint(0, min(m, n) // 2) * 2
        tangle = rng.choice(tl.all_matchings(m - k, n - k))
        return pj._rebuild_beside([ex.Diagram(m - k, n - k, tangle.pairs), ex.Strand(k)])
    parts, left = [], m
    while left:
        k = rng.randint(1, left)
        parts.append(rng.choice([ex.Proj(k), ex.DualProj(k), ex.Strand(k)] + [
            ex.Diagram(k, k, t.pairs) for t in tl.all_matchings(k, k)]))
        left -= k
    return pj._rebuild_beside(parts) if parts else ex.Strand(0)


def test_estimate_matches_the_reference():
    # every interval of every rotation of the split chains of NETWORKS and
    # the thetas with labels <= 4, and 300 random chains of widths 0-6,
    # open, and closed when square, under two count tables; the planner
    # reads the same numbers from _prefixes
    rng = random.Random(7)
    chains = []
    for _ in range(300):
        widths = [rng.choice([0, 2, 4, 6]) for _ in range(rng.randint(1, 6))]
        widths.append(rng.choice([widths[0], widths[0], 2]))
        chains.append([_random_piece(rng, a, b) for a, b in zip(widths, widths[1:])])
    checked = 0
    for objects in [{2: 7, 3: 13, 4: 25, 5: 3, 6: 2}.get, {2: 5, 3: 81, 4: 2, 5: 9, 6: 4}.get]:
        for chain in chains:
            assert _estimate(chain, objects) == reference_estimate(chain, objects)
            if ex.arity(chain[0])[0] == ex.arity(chain[-1])[1]:
                closed = _estimate(chain, objects, closed=True)
                assert closed == reference_estimate(chain, objects, closed=True)
        for e in [e for _, e in NETWORKS] + THETAS:
            rewritten = pj.rewrite_network(e)
            if not isinstance(rewritten, ex.Trace):
                continue
            items = [y for x in pj._flatten_stack(rewritten.inner) for y in pj._split_beside(x)]
            for r in range(len(items)):
                chain = items[r:] + items[:r]
                for j in range(1, len(chain) + 1):
                    assert _estimate(chain[:j], objects) == reference_estimate(chain[:j], objects)
                    checked += 1
                closed = _estimate(chain, objects, closed=True)
                assert closed == reference_estimate(chain, objects, closed=True)
    assert checked > 1000


def _trees(items):
    if len(items) == 1:
        yield items[0]
        return
    for k in range(1, len(items)):
        for a in _trees(items[:k]):
            for b in _trees(items[k:]):
                yield ex.Stack(a, b)


def _model_cost(inner, objects):
    """The cost _cheapest_order gives a nesting of a traced chain: per
    Stack, the product of its factors' size estimates times CIRCLE_COST per
    circle it closes; then the whole chain's estimate times CIRCLE_COST per
    circle the trace closes."""
    def walk(t):
        if not isinstance(t, ex.Stack):
            return 0.0, [t]
        (cost_a, a), (cost_b, b) = walk(t.top), walk(t.bottom)
        (size_a, circles_a), (size_b, circles_b) = (_estimate(x, objects) for x in (a, b))
        closed = _estimate(a + b, objects)[1] - circles_a - circles_b
        return cost_a + cost_b + size_a * size_b * pj.CIRCLE_COST ** closed, a + b

    cost, chain = walk(inner)
    size, circles = _estimate(chain, objects)
    return cost + size * pj.CIRCLE_COST ** (_estimate(chain, objects, closed=True)[1] - circles)


@pytest.mark.parametrize("trip,depth", [((2, 3, 3), 6), ((2, 2, 2), 6), ((1, 2, 3), 6),
                                        ((3, 3, 4), 4)], ids=["233@6", "222@6", "123@6", "334@4"])
def test_plan_is_the_cheapest_order_of_its_cost_model(projector, trip, depth):
    # against every rotation and nesting of the split chain
    objects = pj.object_counts(Window(-depth, 0), projector)
    rewritten = pj.rewrite_network(ex.theta(*trip))
    planned = pj.plan_gluing(rewritten, objects)
    items = [y for x in pj._flatten_stack(rewritten.inner) for y in pj._split_beside(x)]
    cheapest = min(
        _model_cost(t, objects) for r in range(len(items)) for t in _trees(items[r:] + items[:r])
    )
    assert _model_cost(planned.inner, objects) == pytest.approx(cheapest)


def test_the_plan_keeps_one_box_chains(projector):
    # a trace of one box, or of a chain whose Besides hold one box each
    objects = pj.object_counts(Window(-6, 0), projector)
    for e in [ex.Trace(ex.Proj(3)), ex.Trace(ex.Beside(ex.Proj(1), ex.Proj(2)))]:
        assert pj.plan_gluing(e, objects) == e
    planned = pj.plan_gluing(pj.rewrite_network(ex.theta(1, 1, 2)), objects)
    assert ex.Beside(ex.Proj(1), ex.Proj(2)) in pj._flatten_stack(planned.inner)


# (max, sum) of the engine's inputs on the planned route at windows 4 and 6,
# as recorded when the cost model was fitted: a model that picks a worse
# order for any of them fails here
ENGINE_INPUTS = {
    "unknot(1)": ((1, 1), (1, 1)),
    "unknot(2)": ((5, 5), (7, 7)),
    "unknot(3)": ((9, 9), (13, 13)),
    "theta(0, 0, 0)": ((1, 3), (1, 3)),
    "theta(0, 1, 1)": ((1, 4), (1, 4)),
    "theta(0, 2, 2)": ((25, 56), (49, 94)),
    "theta(0, 3, 3)": ((81, 109), (169, 209)),
    "theta(1, 1, 2)": ((5, 12), (7, 16)),
    "theta(1, 2, 3)": ((45, 65), (91, 119)),
    "theta(2, 2, 2)": ((120, 211), (336, 519)),
    "theta(2, 3, 3)": ((90, 247), (252, 555)),
    "endclosure(1, 1, 2)": ((5, 12), (7, 16)),
    "endclosure(1, 2, 3)": ((45, 65), (91, 119)),
    "endclosure(2, 2, 2)": ((120, 211), (336, 519)),
    "endclosure(2, 3, 3)": ((90, 247), (252, 555)),
    "unknot(1)|unknot(2)": ((5, 6), (7, 8)),
    "hom(p(2),p(2))": ((5, 5), (7, 7)),
    "tr(p(2))": ((5, 5), (7, 7)),
    "theta(1,2,3)": ((45, 65), (91, 119)),
    "theta(2,3,3)": ((90, 247), (252, 555)),
    "theta(2,2,2)": ((120, 211), (336, 519)),
    "hom(p(3),p(3))": ((9, 9), (13, 13)),
    "tr(stack(vertex(3,1,2),dual(vertex(3,1,2))))": ((9, 27), (13, 39)),
}


@pytest.mark.parametrize("depth", [4, 6])
def test_planned_networks_feed_the_engine_small_products(projector, depth):
    window = Window(-depth, 0)
    assert set(ENGINE_INPUTS) == {name for name, _ in NETWORKS}
    for n in range(4):
        projector(n, window)
    for name, e in NETWORKS:
        with engine_inputs() as sizes:
            pj.closed_module(e, window, projector=projector)
        top, total = ENGINE_INPUTS[name][depth == 6]
        assert max(sizes, default=0) <= top and sum(sizes) <= total, name


def test_rewrite_prints_the_unplanned_normal_form(capsys):
    assert cli.main(["rewrite", "theta(2,3,3)"]) == 0
    form = json.loads(capsys.readouterr().out)["normal_form"]
    rewritten = pj.rewrite_network(ex.theta(2, 3, 3))
    planned = pj.plan_gluing(rewritten, pj.object_counts(Window(-6, 0)))
    assert form == ex.to_text(rewritten) != ex.to_text(planned)


def test_verify_second_route_is_not_planned(monkeypatch, tmp_path, capsys):
    # homology --verify plans the rewritten route only; its second route
    # instantiates the network with its vertices expanded, as it was
    planned, glued = [], []
    plan, instantiate = pj.plan_gluing, pj.instantiate
    monkeypatch.setattr(pj, "plan_gluing", lambda e, *a: planned.append(e) or plan(e, *a))
    monkeypatch.setattr(pj, "instantiate", lambda e, *a: glued.append(e) or instantiate(e, *a))
    args = ["homology", "theta(1,2,3)", "--verify", "--window", "4", "--cache-dir", str(tmp_path)]
    cli.main(args)  # exits 6: the unplanned route's band is empty (ROADMAP item 1)
    capsys.readouterr()
    e = ex.theta(1, 2, 3)
    assert planned[0] == pj.rewrite_network(e)  # then its pieces, recursively
    assert pj.expand_vertices(e) in glued and pj.expand_vertices(e) not in planned


def test_theta_233_feeds_the_engine_planned_products(tmp_path, capsys):
    # at window 6 the unplanned order stacks P3 beside P3 (169 objects) on
    # a 6 -> 6 complex of 7: 1,183 objects at once, 1,434 in all
    cdir = str(tmp_path / "cache")
    for n in (1, 2, 3):
        assert cli.main(["project", str(n), "--window", "6", "--cache-dir", cdir]) == 0
    with engine_inputs() as sizes:
        assert cli.main(["homology", "theta(2,3,3)", "--window", "6", "--cache-dir", cdir]) == 0
    capsys.readouterr()
    assert max(sizes) <= 252
    assert sum(sizes) <= 616
