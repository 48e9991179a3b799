"""The gluing planner (projector.plan_gluing): the closed_module route it
plans gives the answers of the unplanned instantiation, preserves the
network, and keeps the engine's inputs small."""

import json

import pytest

from helpers import closed_networks_leq3, engine_inputs
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
    planned = 0
    for name, e in NETWORKS:
        rewritten = pj.rewrite_network(e)
        planned += pj.plan_gluing(rewritten) != rewritten
        plain = cx.tautological(pj.instantiate(rewritten, window, projector))
        assert _answers(pj.closed_module(e, window, projector=projector)) == _answers(plain), name
    assert planned >= 3  # theta(2,3,3), endclosure(2,3,3) and the query


@pytest.mark.parametrize("name,e", NETWORKS, ids=[name for name, _ in NETWORKS])
def test_plan_preserves_the_network(name, e):
    rewritten = pj.rewrite_network(e)
    planned = pj.plan_gluing(rewritten)
    assert ex.arity(planned) == ex.arity(rewritten)
    assert tl.evaluate_network(planned) == tl.evaluate_network(rewritten)
    assert pj.plan_gluing(planned) == planned


def test_plan_glues_the_widest_product_to_its_narrowing_neighbour():
    # theta(2,3,3): P3 beside P3 meets its 6 -> 2 neighbour first, and the
    # chain grows upwards from there
    planned = pj.plan_gluing(pj.rewrite_network(ex.theta(2, 3, 3)))
    items = pj._flatten_stack(planned.inner)
    assert items[-2] == ex.Beside(ex.Proj(3), ex.Proj(3))
    assert ex.arity(items[-1]) == (6, 2)
    assert planned.inner.bottom == ex.Stack(items[-3], ex.Stack(items[-2], items[-1]))
    # a narrowing neighbour only above: the chain grows downwards from it
    cap, cup = ex.Diagram(6, 2, (6, 4, 3, 2, 1, 7, 0, 5)), ex.Diagram(2, 6, (2, 7, 0, 6, 5, 4, 3, 1))
    wide = ex.Beside(ex.Proj(3), ex.Proj(3))
    e = ex.Trace(pj._rebuild_stack([cap, ex.Proj(2), cup, wide, ex.Strand(6)]))
    planned = ex.Stack(ex.Stack(ex.Stack(ex.Stack(cup, wide), ex.Strand(6)), cap), ex.Proj(2))
    assert pj.plan_gluing(e) == ex.Trace(planned)


def test_the_plan_keeps_the_narrow_and_the_light_chains():
    # theta(2,2,2)'s 4 -> 2 neighbour narrows by less than 3; the others
    # meet only one-object pieces (diagrams, P_0, P_1) whatever the order
    for trip in [(2, 2, 2), (1, 1, 2), (1, 2, 3), (0, 3, 3)]:
        rewritten = pj.rewrite_network(ex.theta(*trip))
        assert pj.plan_gluing(rewritten) == rewritten, trip


def test_rewrite_prints_the_unplanned_normal_form(capsys):
    assert cli.main(["rewrite", "theta(2,3,3)"]) == 0
    form = json.loads(capsys.readouterr().out)["normal_form"]
    rewritten = pj.rewrite_network(ex.theta(2, 3, 3))
    assert form == ex.to_text(rewritten) != ex.to_text(pj.plan_gluing(rewritten))


def test_verify_second_route_is_not_planned(monkeypatch, tmp_path, capsys):
    # homology --verify plans the rewritten route only; its second route
    # instantiates the network with its vertices expanded, as it was
    planned, glued = [], []
    plan, instantiate = pj.plan_gluing, pj.instantiate
    monkeypatch.setattr(pj, "plan_gluing", lambda e: planned.append(e) or plan(e))
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
