"""Pinned digests of the planar products of complexes.

Each digest is a SHA-256 over complex_to_data of one planar product and its
reliable band: P3@-5 stacked over itself, P2@-6 beside itself, the Markov
trace of P3@-5, the product B stacked over A-dual that hom_complex
closes up for A = B = P2@-6, and the unreduced vertices (1,1,2) at window 6
and (2,2,2) at window 4 with deepened projectors.  They were recorded when
stack_complexes and beside_complexes returned the product with a separate
summand layout and took a totalization mode, cob.stack kept a
morphism-level cache and a vertex had its own builder beside the
decomposition expand_vertices writes; any change to an object, its summand
order, an entry, a sign or the band changes a digest.

beside_p2_w6, vertex_112_w6 and vertex_222_w4_deepen were re-recorded when
a built P_n got the band (window.lo + n, inf) that a cached one already had
(projector.certified_projector); their band went from (-5, inf) to
(-4, inf), and without it each record hashes as before.

All six were re-recorded when ChainComplex lost its unread totalization
mode: each equals the earlier record hashed with the "mode" key dropped
from every serialized complex.
"""

import hashlib
import json

import pytest

from helpers import deep_projector, reference_instantiate
from spinhom import complexes as cx
from spinhom import expr as ex
from spinhom import projector as pj
from spinhom.complexes import Window
from spinhom.serialize import complex_to_data

PINNED_SHA256 = {
    "beside_p2_w6": "86c1ee8f92b2f1dd5c5a9bc82a77f9db45a8666d1f542e9ce8e641249413c901",
    "hom_product_p2_w6": "beffc60d72d41ac5da16c4fd4ed7c508fd328624e0ff2bb1352fc6be1e478316",
    "stack_p3_w5": "b502ed542ffc1ef17a29d5988f8b00910897cc82d9726b9cd49b0610c996ac4c",
    "trace_p3_w5": "b30d40a9ed0ce65597e3e7557fa64e36307b50f65299e1d3f5060e7f4d077826",
    "vertex_112_w6": "ea819dca4a6afeb81f1622a8c1210f54ff8f01a6d101afd441bfab1d18163d4a",
    "vertex_222_w4_deepen": "1e5536342b8ff9c949deedf2da5250204679c23fbc743159ae5ac28ff7b2e4ea",
}


def _hom_product(monkeypatch, P):
    """The complex hom_complex(P, P) hands to trace_complex."""
    seen = []
    trace = cx.trace_complex
    monkeypatch.setattr(cx, "trace_complex", lambda T: seen.append(T) or trace(T))
    cx.hom_complex(P, P)
    monkeypatch.undo()
    (T,) = seen
    return T


def _product(name: str, monkeypatch):
    P2 = pj.build_projector(2, Window(-6, 0)).complex
    P3 = pj.build_projector(3, Window(-5, 0)).complex
    if name == "stack_p3_w5":
        return cx.stack_complexes(P3, P3)
    if name == "beside_p2_w6":
        return cx.beside_complexes(P2, P2)
    if name == "trace_p3_w5":
        return cx.trace_complex(P3)
    if name == "vertex_112_w6":
        return reference_instantiate(ex.Vertex(1, 1, 2), Window(-6, 0))
    if name == "vertex_222_w4_deepen":
        return reference_instantiate(ex.Vertex(2, 2, 2), Window(-4, 0), deep_projector)
    return _hom_product(monkeypatch, P2)


@pytest.mark.parametrize("name", sorted(PINNED_SHA256))
def test_planar_digest_pinned(name, monkeypatch):
    C = _product(name, monkeypatch)
    record = json.dumps(complex_to_data(C), sort_keys=True) + repr(C.reliable)
    assert hashlib.sha256(record.encode()).hexdigest() == PINNED_SHA256[name]
