"""Independent closed-form oracle for theta networks.

The trivalent theta symbol has a classical product formula in quantum
factorials; comparing it against the diagrammatic evaluation (explicit
Jones-Wenzl insertion and planar composition) cross-checks the entire
exact layer: matching composition, circle counting, projector recursion,
and the Markov trace.
"""

import pytest

from helpers import reference_compose_tl, reference_markov_trace
from spinhom import expr as ex
from spinhom import tl
from spinhom.laurent import RatFunc, quantum_integer


def qfact(n: int) -> RatFunc:
    out = RatFunc.one()
    for k in range(1, n + 1):
        out = out * RatFunc.from_laurent(quantum_integer(k))
    return out


def theta_formula(a: int, b: int, c: int) -> RatFunc:
    """theta(a,b,c) with a = y+z, b = x+z, c = x+y:
    [x+y+z+1]! [x]! [y]! [z]! / ([x+y]! [y+z]! [x+z]!)."""
    x = (b + c - a) // 2
    y = (a + c - b) // 2
    z = (a + b - c) // 2
    num = qfact(x + y + z + 1) * qfact(x) * qfact(y) * qfact(z)
    den = qfact(x + y) * qfact(y + z) * qfact(x + z)
    return num / den


def admissible_triples(limit: int):
    out = []
    for a in range(limit + 1):
        for b in range(a, limit + 1):
            for c in range(b, limit + 1):
                if (a + b + c) % 2 == 0 and c <= a + b:
                    out.append((a, b, c))
    return out


@pytest.mark.parametrize("trip", admissible_triples(4))
def test_theta_matches_closed_formula(trip):
    a, b, c = trip
    diagrammatic = tl.evaluate_network(ex.theta(a, b, c))
    assert diagrammatic == theta_formula(a, b, c), trip


@pytest.mark.parametrize("trip", admissible_triples(4))
def test_theta_pairing_matches_reference_trace(trip):
    # evaluate_network closes theta = Trace(Stack(v, Dual(v))) as the trace
    # pairing of v with its dual; the reference forms the product term by
    # term and traces it
    v = tl.tl_element_of(ex.Vertex(*trip))
    w = v.dual()
    product = reference_compose_tl(v, w)
    expect = reference_markov_trace(product)
    assert tl.trace_pairing(v, w) == expect, trip
    assert tl.markov_trace(product) == expect, trip


def test_unknot_is_degenerate_theta():
    for n in range(5):
        assert tl.evaluate_network(ex.theta(0, n, n)) == tl.evaluate_network(
            ex.unknot(n)
        )


def test_theta_symmetric_in_labels():
    for a, b, c in [(1, 2, 3), (2, 2, 2), (1, 1, 2), (2, 3, 3)]:
        base = tl.evaluate_network(ex.theta(a, b, c))
        for perm in [(a, c, b), (b, a, c), (c, b, a), (b, c, a), (c, a, b)]:
            assert tl.evaluate_network(ex.theta(*perm)) == base, (a, b, c, perm)
