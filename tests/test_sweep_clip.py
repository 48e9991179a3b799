"""Differential test for the clipped projector sweep.

build_projector drops every degree below window.lo - SWEEP_MARGIN before it
simplifies a sweep product.  The digests below were recorded from the
unclipped build (simplify the whole product, then clip to the window); the
clipped build must reproduce them byte for byte and still certify.
"""

import hashlib
import json

import pytest

from spinhom import projector as pj
from spinhom.complexes import Window
from spinhom.errors import DivergenceError
from spinhom.serialize import complex_to_data

UNCLIPPED_SHA256 = {
    (3, 4): "f1de0a623ac6f01d1b1e0249a6680fcb58dc8eb54aa769ddf9866ae1132bae7f",
    (3, 5): "fe4c8673d24c91472570775733cc7447ed3b5b896cc4757c25b9693eb16978dc",
    (3, 6): "bb930990131113b64bb2e5047216955aa14fa16cc93808c90533528c33243d2b",
    (3, 7): "49a4986871be6f040660eaee829d00890b0fbeeaa3d2221c1d71d3002ef9dcd0",
    (3, 8): "ec8d49ae1fd16982b92c559923ebcf2224490b75ab65f784753e0c0afb10889a",
    (4, 3): "f8b186af94e338c9077a0749c27ea58a42f0a09ac1b4dec7833e23472478e5de",
    (4, 4): "3737742548dfb0c605b77d25e0e5fa68aca7b71576c0dffcad5bd7a17c477690",
    (4, 5): "271475e51ea3f7f101874c40f40cfb3fbbe684c01c4545032aa0a05a12b53b92",
    (5, 3): "98a271e7eab0b7b1a0502f0c88514d5ba264e9b4e4c903a3192c4130290f91c9",
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
