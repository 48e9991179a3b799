"""Differential tests for the term-level planar product and glue-then-simplify.

simplify(stack_complexes(A, B, window)) must give, byte for byte, what the
morphism-level reference product of tests/helpers.py gives after _clip to
the window and simplify; simplify(trace_complex(A)) likewise for the trace,
and stack_complexes (clipped or not), beside_complexes and trace_complex
must equal the reference products.  Checked on the products real builds
make (every sweep and certification stack of P3@-6 and P4@-4, the reduced
Stack and Trace nodes of theta(2,3,3) at window 6) and on random complexes
and windows.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    complex_bytes,
    nonempty_complex,
    reference_beside_complexes,
    reference_stack_complexes,
    reference_trace_complex,
)
from spinhom import complexes as cx
from spinhom import expr as ex
from spinhom import projector as pj
from spinhom.complexes import Window, simplify
from spinhom.errors import ResourceError
from spinhom.record import replace


def _reference_stack(A, B, window):
    """The reference product of A over B, clipped to window when given."""
    T = reference_stack_complexes(A, B)
    return T if window is None else pj._clip(T, window)


def _record(monkeypatch, name: str) -> list:
    """Calls of cx.<name> from here on, as (args, result)."""
    calls = []
    fn = getattr(cx, name)

    def recorder(*args, **kwargs):
        out = fn(*args, **kwargs)
        calls.append((args, out))
        return out

    monkeypatch.setattr(cx, name, recorder)
    return calls


def _simplify_of(simplified: list, product) -> cx.ChainComplex:
    """What production's simplify made of `product`: each product is
    simplified once, as it was glued."""
    (out,) = [out for (C, *_), out in simplified if C is product]
    return out[0]


@pytest.mark.parametrize("n,depth", [(3, 6), (4, 4)])
def test_build_products_match_reference(n, depth, monkeypatch):
    stacks = _record(monkeypatch, "stack_complexes")
    simplified = _record(monkeypatch, "simplify")
    pj.build_projector.__wrapped__(n, Window(-depth, 0))
    monkeypatch.undo()
    sweeps = [args for args, _ in stacks if len(args) == 3]
    # every sweep step passes the margin window
    assert sweeps and all(w == Window(-depth - pj.SWEEP_MARGIN, 0) for _, _, w in sweeps)
    # the turnback certification stacks have no window
    assert len(stacks) - len(sweeps) >= 2 * (n - 1)
    assert len(simplified) == len(stacks)
    for args, out in stacks:
        A, B, window = (*args, None)[:3]
        expected = _reference_stack(A, B, window)
        assert complex_bytes(out) == complex_bytes(expected)
        assert complex_bytes(_simplify_of(simplified, out)) == complex_bytes(simplify(expected)[0])


def test_theta_233_reduced_nodes_match_reference(monkeypatch):
    stacks = _record(monkeypatch, "stack_complexes")
    traces = _record(monkeypatch, "trace_complex")
    simplified = _record(monkeypatch, "simplify")
    e = pj.rewrite_network(ex.theta(2, 3, 3))
    pj.instantiate(e, Window(-6, 0))
    monkeypatch.undo()
    assert stacks and traces
    # the projectors' own builds, when not cached yet, are among the stacks
    for args, out in stacks:
        A, B, window = (*args, None)[:3]
        expected = _reference_stack(A, B, window)
        assert complex_bytes(out) == complex_bytes(expected)
        assert complex_bytes(_simplify_of(simplified, out)) == complex_bytes(simplify(expected)[0])
    for (A,), out in traces:
        expected = reference_trace_complex(A)
        assert complex_bytes(out) == complex_bytes(expected)
        assert complex_bytes(_simplify_of(simplified, out)) == complex_bytes(simplify(expected)[0])


def test_each_p2_block_built_once(monkeypatch):
    built, p2_windows = [], []
    block, p2 = pj._p2_block, pj.p2
    monkeypatch.setattr(pj, "_p2_block", lambda i, n, P: built.append(i) or block(i, n, P))
    monkeypatch.setattr(pj, "p2", lambda w: p2_windows.append(w) or p2(w))
    pj.build_projector.__wrapped__(4, Window(-4, 0))
    assert sorted(built) == [0, 1, 2]
    assert p2_windows == [Window(-4, 0)]


def _nonempty_complex(draw, m: int, n: int, window: Window):
    """A random complex over BN^m_n with at least one object, random tails
    and a random reliable band."""
    C = nonempty_complex(random.Random(draw(st.integers(0, 10**6))), m, n, window,
                         pieces=draw(st.integers(1, 3)))
    lo = draw(st.sampled_from([float("-inf"), window.lo, window.lo + 1]))
    hi = draw(st.sampled_from([float("inf"), window.hi, window.hi - 1]))
    return replace(C, tail_lo=draw(st.booleans()), tail_hi=draw(st.booleans()), reliable=(lo, hi))


@st.composite
def stackable_complexes(draw):
    """A over B, non-empty random complexes on 1-4 strands, and a window
    that may cut the product on either side or miss it."""
    parity = draw(st.integers(1, 2))
    m, k, n = (draw(st.sampled_from([parity, parity + 2])) for _ in range(3))
    A = _nonempty_complex(draw, m, k, Window(-2, 1))
    B = _nonempty_complex(draw, k, n, Window(-2, 1))
    full = A.window + B.window
    lo = draw(st.integers(full.lo - 1, full.hi + 1))
    hi = draw(st.integers(lo, full.hi + 2))
    return A, B, Window(lo, hi)


@given(stackable_complexes())
@settings(max_examples=40, deadline=None)
def test_fused_stack_matches_clip_then_simplify(case):
    A, B, window = case
    for w in (window, None):
        product = cx.stack_complexes(A, B, w)
        assert complex_bytes(product) == complex_bytes(_reference_stack(A, B, w))
        assert complex_bytes(simplify(product)[0]) == complex_bytes(
            simplify(_reference_stack(A, B, w))[0]
        )
    assert complex_bytes(cx.beside_complexes(A, B)) == complex_bytes(
        reference_beside_complexes(A, B)
    )


@st.composite
def square_complex(draw):
    n = draw(st.integers(1, 3))
    return _nonempty_complex(draw, n, n, Window(-2, 1))


@given(square_complex())
@settings(max_examples=40, deadline=None)
def test_fused_trace_matches_trace_then_simplify(C):
    expected = reference_trace_complex(C)
    product = cx.trace_complex(C)
    assert complex_bytes(product) == complex_bytes(expected)
    assert complex_bytes(simplify(product)[0]) == complex_bytes(simplify(expected)[0])


def test_step_cap_applies_to_the_fused_pass(monkeypatch):
    P = pj.build_projector(2, Window(-3, 0)).complex
    monkeypatch.setattr(cx, "MAX_SIMPLIFY_STEPS", 1)
    with pytest.raises(ResourceError, match="step cap"):
        cx.simplify(cx.stack_complexes(P, P, Window(-4, 0)))
    with pytest.raises(ResourceError, match="step cap"):
        cx.simplify(cx.trace_complex(cx.stack_complexes(P, P)))
    with pytest.raises(ResourceError, match="step cap"):
        cx.simplify(cx.stack_complexes(P, P))
