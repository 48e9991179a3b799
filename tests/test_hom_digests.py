"""Pinned digests of the Hom complexes and the alpha = 0 homotopy witnesses.

Each digest is a SHA-256 over the q-degree lists (in basis order), the
differential entries and the reliable band of a module complex, or over the
witnesses homotopy_witness returns.  They were recorded from the three
separate builders that the one Hom engine replaced (tautological,
hom_complex_direct and homotopy_witness, each with its own basis loop and
its own composition with the differential); any change to a basis order,
an entry or a band changes a digest.
"""

import hashlib

import pytest

from spinhom import complexes as cx
from spinhom import expr as ex
from spinhom import projector as pj
from spinhom.complexes import ChainMap, Window

PINNED_SHA256 = {
    "hom_p2_w6": "4baa416219586705fa69accbeaf4dd0948bc07c0932ff09718068f6d8c3bf54a",
    "hom_p3_w5": "6cc61a2817d35e6646850576572f6157f8c95e088fa887feff997d3d7fd67169",
    "tautological_theta": "0c13547aa6540ee9a5ba1869fcac0890bc27098c990dac29d8eafae61d02c18c",
    "homotopy_witness": "9ec5a181bea2dc583acca42da6794b2890811a8588ca7725bdc04b57030d5253",
}


def _module(M) -> str:
    diff = [
        (k, sorted((r, c, sorted(p.coeffs.items())) for (r, c), p in mat.items()))
        for k, mat in sorted(M.diff.items())
    ]
    return repr(([(k, M.qdegs(k)) for k in M.degrees()], diff, M.reliable))


def _records(name: str):
    if name.startswith("hom_"):
        n, depth = {"hom_p2_w6": (2, 6), "hom_p3_w5": (3, 5)}[name]
        P = pj.build_projector(n, Window(-depth, 0)).complex
        yield _module(cx.hom_complex(P, P))
        yield _module(cx.hom_complex_direct(P, P))
    elif name == "tautological_theta":
        for labels in ((1, 2, 3), (2, 2, 2)):
            e = pj.rewrite_network(ex.theta(*labels))
            S, _ = cx.simplify(pj.instantiate(e, Window(-6, 0), reduce=True))
            yield _module(cx.tautological(S))
    elif name == "homotopy_witness":
        # the maps of test_complexes.test_homotopic_alpha0_basics
        P = pj.p2(Window(-6, 0)).complex
        b1, b2 = pj.dot_maps(P)
        one = ChainMap.identity(P)
        zero = ChainMap.zero(P, P, 0, 2)
        for F, G, lo in ((b1 + b2, zero, -4), (b1, zero, -4), (one, one, cx.NEG_INF)):
            w = cx.homotopy_witness(F, G, eq_lo=lo)
            yield repr(None if w is None else sorted(w.items()))


def digest(name: str) -> str:
    h = hashlib.sha256()
    for record in _records(name):
        h.update(record.encode())
        h.update(b"\n")
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(PINNED_SHA256))
def test_hom_digest_pinned(name):
    assert digest(name) == PINNED_SHA256[name]
