"""Pinned digests of the planar products of chain maps and of the
colored-unknot module maps built from them.

Each digest is a SHA-256 over a chain map's source and target complexes
(complex_to_data), its bidegree and its entries, each made a cobordism
between its ends (a map's entries are term dicts), sorted and serialized
as {"src", "tgt", "terms"} (helpers.cobordism_data): stack_chain_maps of b1 (x) 1, 1 (x) v and v (x) b2 on
P2@-6, trace_chain_map of v and of b1, standard_equivalence(P3@-5, P3@-6),
pi_action(b1, P2, P2@-6), unknot_action(eta_element(P2@-6)) and
unknot_pairing(v, P2@-6).  They were recorded when stack_chain_maps and
trace_chain_map glued each entry pair as a cobordism with its ends
(through stack and trace functions of spinhom.cob), with their own layout index and Koszul sign, beside the
term-level product of complexes; any change to an object, an entry, a sign
or a bidegree changes a digest.

All but unknot_pairing_v (which serializes no complex) were re-recorded
when ChainComplex lost its unread totalization mode: each equals the
earlier record hashed with the "mode" key dropped from every serialized
complex.
"""

import hashlib
import json

import pytest

from helpers import cobordism_data, cobordisms
from spinhom import complexes as cx
from spinhom import projector as pj
from spinhom.complexes import ChainMap, Window
from spinhom.serialize import complex_to_data, poly_to_data

PINNED_SHA256 = {
    "pi_action_b1": "13fc69bb170865206d7bc6f39a8fe8eb1cea24ce7f1df820c25c329bd6fd52b2",
    "stack_b1_one": "40b1fbe3af1f278d5c5ef18ac05f5f39faf17dc65ebe6b8aef4c06b4799208a9",
    "stack_one_v": "ec340dc8530ad431754afa1e3e1c5cc1d13d9c0930cfcc30a5c96e6184350a1e",
    "stack_v_b2": "9eeee325ebec6ea61a6ba8c4d2454cc5ba8b929608c36df099f32047a1aed294",
    "standard_equivalence_p3": "731e7e8c02a1c974dcc3f206ac38700f771829f494f0bd1223cd58987c22ac54",
    "trace_b1": "15a2bc5833c359f2a37a5b177cef2cf698115217afb5296793fe0ef05772bb73",
    "trace_v": "852ffd2778158e81bc56a05ebb86dafdbc7672c49880050ec868e6efcd3ba0e7",
    "unknot_action_eta": "381e483c2c299bb9af14baea69cffb59adba855714b0789e45284fd0dd53ff99",
    "unknot_pairing_v": "51e27df7b7e1b011d92bb50c7f47e783db15a6f3e18c9dc886fa6e47a9e471a8",
}


def _chain_map(F: ChainMap) -> str:
    mats = [
        (k, sorted((r, c, json.dumps(cobordism_data(f), sort_keys=True))
                   for (r, c), f in cobordisms(F, k).items()))
        for k in sorted(F.mats)
    ]
    return (
        json.dumps([complex_to_data(F.source), complex_to_data(F.target)], sort_keys=True)
        + repr((F.hdeg, F.qdeg, mats))
    )


def _element(zeta: dict) -> str:
    return repr(sorted((key, poly_to_data(p)) for key, p in zeta.items()))


def _record(name: str) -> str:
    P2 = pj.build_projector(2, Window(-6, 0))
    P = P2.complex
    b1, b2 = pj.dot_maps(P)
    v = pj.v_map(P)
    one = ChainMap.identity(P)
    if name == "stack_b1_one":
        return _chain_map(cx.stack_chain_maps(b1, one))
    if name == "stack_one_v":
        return _chain_map(cx.stack_chain_maps(one, v))
    if name == "stack_v_b2":
        return _chain_map(cx.stack_chain_maps(v, b2))
    if name == "trace_v":
        return _chain_map(cx.trace_chain_map(v))
    if name == "trace_b1":
        return _chain_map(cx.trace_chain_map(b1))
    if name == "standard_equivalence_p3":
        P3a = pj.build_projector(3, Window(-5, 0))
        P3b = pj.build_projector(3, Window(-6, 0))
        return _chain_map(pj.standard_equivalence(P3a, P3b))
    if name == "pi_action_b1":
        return _chain_map(pj.pi_action(b1, P, P2))
    if name == "unknot_action_eta":
        return _chain_map(pj.unknot_action(pj.eta_element(P2), P2))
    assert name == "unknot_pairing_v"
    return _element(pj.unknot_pairing(v, P2))


@pytest.mark.parametrize("name", sorted(PINNED_SHA256))
def test_chain_map_digest_pinned(name):
    assert hashlib.sha256(_record(name).encode()).hexdigest() == PINNED_SHA256[name]
