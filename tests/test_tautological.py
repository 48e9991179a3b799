"""The tautological functor by restriction (complexes.tautological) equals
the general Hom engine run with the empty object as source
(helpers.reference_tautological), gens list for list and diff dict for
dict, on the duality route's closed complexes, on every planned closed
network with labels <= 3 and on traces of random complexes."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import closed_networks_leq3, random_complex, reference_tautological
from spinhom import complexes as cx
from spinhom import projector as pj
from spinhom.complexes import Window


def assert_same_module(C, name: str = ""):
    M, R = cx.tautological(C), reference_tautological(C)
    assert M.gens == R.gens, name
    assert M.diff.keys() == R.diff.keys(), name
    for k, mat in R.diff.items():
        assert M.diff[k] == mat, (name, k)
    assert M.reliable == R.reliable, name
    return M


@pytest.mark.parametrize("n,depth", [(2, 8), (3, 5)])
def test_duality_route_closure(n, depth):
    P = pj.build_projector(n, Window(-depth, 0)).complex
    M = assert_same_module(cx.trace_complex(cx.stack_complexes(P, cx.dual_complex(P))))
    assert M.diff


@pytest.fixture(scope="module")
def projector():
    built = {}

    def source(n, window):
        if (n, window) not in built:
            built[n, window] = pj.build_projector(n, window)
        return built[n, window]

    return source


@pytest.mark.parametrize("depth", [4, 6])
def test_planned_closed_networks(projector, depth):
    window = Window(-depth, 0)
    for name, e in closed_networks_leq3():
        planned = pj.plan_gluing(pj.rewrite_network(e))
        assert_same_module(pj.instantiate(planned, window, projector), name)


@settings(max_examples=1500, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2, 3]))
def test_traces_of_random_complexes(seed, n):
    rng = random.Random(seed)
    C = random_complex(rng, n, n, Window(-3, 2), pieces=rng.randint(1, 4))
    assert_same_module(cx.trace_complex(C))
