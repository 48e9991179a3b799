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
order, an entry, a sign, the mode or the band changes a digest.

beside_p2_w6, vertex_112_w6 and vertex_222_w4_deepen were re-recorded when
a built P_n got the band (window.lo + n, inf) that a cached one already had
(projector.certified_projector); their band went from (-5, inf) to
(-4, inf), and without it each record hashes as before.
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
    "beside_p2_w6": "6f30be2ad1fc1e8a4cbd54cf2c06fbdc5875ad2379ec1abc4c6830fe143d7848",
    "hom_product_p2_w6": "b6625cbfca6db34949a7bc2afff8a29e5d19f099f26e2f3da0c76405447e0003",
    "stack_p3_w5": "2ce594100538a38df44a905af3bafdac7d1e9467d7b6235b21dd9a7e4e3ea8c8",
    "trace_p3_w5": "1717fd5abeb0d67c45c20fee5e9fc3c8509f6078f7019f87c3d4fde86cf21c86",
    "vertex_112_w6": "116a5a025004545512dd490adca67ab9257d7fb5d3879b88c363d743893c8adf",
    "vertex_222_w4_deepen": "b5a6cac904e7cbab23d6a62c9326632f8f372e084ad93b3d65b6bae44df0d9a0",
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
