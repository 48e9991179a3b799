"""Pinned digests of the planar products of chain maps and of the
colored-unknot module maps built from them.

Each digest is a SHA-256 over a chain map's source and target complexes
(complex_to_data), its bidegree and its entries, sorted and serialized with
cobordism_to_data: stack_chain_maps of b1 (x) 1, 1 (x) v and v (x) b2 on
P2@-6, trace_chain_map of v and of b1, standard_equivalence(P3@-5, P3@-6),
pi_action(b1, P2, P2@-6), unknot_action(eta_element(P2@-6)) and
unknot_pairing(v, P2@-6).  They were recorded when stack_chain_maps and
trace_chain_map glued each entry pair with cob.stack and cob.trace as a
CanonicalCobordism, with their own layout index and Koszul sign, beside the
term-level product of complexes; any change to an object, an entry, a sign
or a bidegree changes a digest.
"""

import hashlib
import json

import pytest

from spinhom import complexes as cx
from spinhom import projector as pj
from spinhom.complexes import ChainMap, Window
from spinhom.serialize import cobordism_to_data, complex_to_data, poly_to_data

PINNED_SHA256 = {
    "pi_action_b1": "f1d0ea91f1e5227cc4d62fd1dddb1eb3b6923cc7b6c4097b4d659c0ce16c07e6",
    "stack_b1_one": "62fcdd7de77fa9256a70d3e1d01ecc26ed8ec8789c63369c12bccfabc5a8c286",
    "stack_one_v": "f654d9264cfb6e5c667805411df4bed0266bc6ad29484b0026acd1b26eedee68",
    "stack_v_b2": "032cf303ae7198f7239311d6012bf560fa2bb16cde3bbc61981716aace37aef6",
    "standard_equivalence_p3": "4853dcf43f2b061f9e66976486338022ede32e89d5da8d82c8df06d7b0b52e13",
    "trace_b1": "acf412cc10551830723e1098309a9786653f5a66b0a0f5987e111f6ad6d2f897",
    "trace_v": "e3eb020e37b1891ba5c6054ea1e6c129b8ecf38b841781b9ac20e47141d16383",
    "unknot_action_eta": "234f1b0362222081d7d19b44a119be24d116eaf0a3bcc3cc1d16fb38e23c478b",
    "unknot_pairing_v": "51e27df7b7e1b011d92bb50c7f47e783db15a6f3e18c9dc886fa6e47a9e471a8",
}


def _chain_map(F: ChainMap) -> str:
    mats = [
        (k, sorted((r, c, json.dumps(cobordism_to_data(f), sort_keys=True))
                   for (r, c), f in mat.items()))
        for k, mat in sorted(F.mats.items())
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
