"""Differential test for the clipped projector sweep.

build_projector drops every degree below window.lo - SWEEP_MARGIN before it
simplifies a sweep product.  The digests below were recorded from the
unclipped build (simplify the whole product, then clip to the window); the
clipped build must reproduce them byte for byte and still certify.  They
were re-recorded when ChainComplex lost its unread totalization mode: each
equals the earlier record hashed with the "mode" key dropped.
"""

import hashlib
import json

import pytest

from spinhom import projector as pj
from spinhom.complexes import Window
from spinhom.errors import DivergenceError
from spinhom.serialize import complex_to_data

UNCLIPPED_SHA256 = {
    (3, 4): "f96f0764c3307073136f9573a001203a04106dafe1aa0faafdea18f2e1236632",
    (3, 5): "c92d3410a2a1d99aa8efb4b76f6b4e80d87ed7ae2cc88bdbc6a6d09f7ee947bb",
    (3, 6): "17bbbdc17a634a27fb9db484e3214373db4ea068c8cae38bcf356c19a7c5f719",
    (3, 7): "1865d624bc72f9c7c9cea89af23dddce304db066ea849bb75b459fe22cd20aa7",
    (3, 8): "edcd5ca2cfb80b55b7fb1389e030f2e478584471556c1e084235ef22576256bd",
    (4, 3): "ad0954e10066a81c29e13d6ac571e5065a17b3599d791bdb296c09b58f060dd5",
    (4, 4): "13f8f6d45a413ce5d36342d03ff225af075807e441a35c2145c133c724331fb2",
    (4, 5): "1acce4580156ad3c697593c7aab3822b1682e7a0a8f2a6d51df71c540b9a1a8e",
    (5, 3): "e54780393dc84848af93001a596300468677e3218980cd78da4febab78fbea59",
}


def _digest(P) -> str:
    data = json.dumps(complex_to_data(P.complex), sort_keys=True)
    return hashlib.sha256(data.encode()).hexdigest()


@pytest.mark.parametrize("n,depth", sorted(UNCLIPPED_SHA256))
def test_clipped_sweep_matches_unclipped(n, depth):
    P = pj.build_projector(n, Window(-depth, 0))
    assert P.certificate.passed
    assert _digest(P) == UNCLIPPED_SHA256[(n, depth)]


def test_margin_zero_changes_the_answer(monkeypatch):
    # Without the margin, the pivots from degree lo - 1 into lo are lost.
    # The certificate catches it at P3@-8; at P3@-6 it still passes, and
    # only the differential digest shows the change.
    monkeypatch.setattr(pj, "SWEEP_MARGIN", 0)
    build = pj.build_projector.__wrapped__
    P = build(3, Window(-6, 0))
    assert P.certificate.passed
    assert _digest(P) != UNCLIPPED_SHA256[(3, 6)]
    with pytest.raises(DivergenceError, match="euler characteristic"):
        build(3, Window(-8, 0))
