"""Pinned digests of the Hom complexes and the strong deformation
retractions (SDRs) of the elimination engine.

Each Hom digest is a SHA-256 over the q-degree lists (in basis order), the
differential entries and the reliable band of a module complex.  They were
recorded from the separate builders that the one Hom engine replaced
(tautological, hom_complex_direct and the alpha = 0 homotopy test, each
with its own basis loop and its own composition with the differential);
any change to a basis order, an entry or a band changes a digest.
tautological_theta was re-recorded when a built P_n got the band
(window.lo + n, inf) that a cached one already had
(projector.certified_projector): the theta(2,2,2) module's band went from
(-5, inf) to (-4, inf), theta(1,2,3)'s stayed (-3, inf), and without the
bands the records hash as before.

Each SDR digest (the `sdr_` records) is a SHA-256 over a serialized complex
(the small one, or the product that absorption_retraction simplifies) and over the sorted serialized entries of the chain maps r, i
and h (or of a map built from them), each entry made a cobordism between
its ends first, since a map's entries are term dicts: tracked simplify of the unreduced
theta(2,2,2) at window 6; absorption_retraction's phi and
standard_equivalence for P3@-5; and deloop, gaussian_eliminate and tracked
simplify on seeded random complexes capped by a turnback above and below.
They were recorded when r, i and h were kept in separate maps beside the
engine, which re-implemented both of its steps, before the engine kept them
as edges to ghost objects; any change to an object, an entry or a sign
changes a digest.  The three were re-recorded when ChainComplex lost its
unread totalization mode and its labels: each equals the earlier record
hashed with the "mode" key dropped and without the labels' repr (None in
every one of them).
"""

import hashlib
import json
import random

import pytest

from helpers import (
    cobordism_data,
    cobordisms,
    first_iso_entry,
    random_complex,
    reference_instantiate,
)
from spinhom import complexes as cx
from spinhom import expr as ex
from spinhom import projector as pj
from spinhom.cob import FlatTangle
from spinhom.complexes import Window
from spinhom.serialize import complex_to_data

PINNED_SHA256 = {
    "hom_p2_w6": "4baa416219586705fa69accbeaf4dd0948bc07c0932ff09718068f6d8c3bf54a",
    "hom_p3_w5": "6cc61a2817d35e6646850576572f6157f8c95e088fa887feff997d3d7fd67169",
    "tautological_theta": "6d02072c2737b9dd169cc27f1935eb46ada5e4856ec50dca4f2fbc8896d7d126",
    "sdr_absorption_p3": "f006b69e82ad96c0b9871d298f4a45a409eebd8782e092ca2a93d9efdb59dad8",
    "sdr_random": "f39c26461feb1716410e12ce3dad0cc05e4f8fba85d2b53bd19aba1ac564e7c5",
    "sdr_simplify_theta": "9fb2c0398afe4b432340425ca11028e4fd17f3056a85f13da02780e9cbbeb0fa",
}


def _module(M) -> str:
    diff = [
        (k, sorted((r, c, sorted(p.coeffs.items())) for (r, c), p in mat.items()))
        for k, mat in sorted(M.diff.items())
    ]
    return repr(([(k, M.qdegs(k)) for k in M.degrees()], diff, M.reliable))


def _complex(C) -> str:
    return json.dumps(complex_to_data(C), sort_keys=True)


def _chain_map(F) -> str:
    mats = [
        (k, sorted((r, c, json.dumps(cobordism_data(f), sort_keys=True))
                   for (r, c), f in cobordisms(F, k).items()))
        for k in sorted(F.mats)
    ]
    return repr((F.hdeg, F.qdeg, mats))


def _sdr(S, *maps):
    yield _complex(S)
    for F in maps:
        yield _chain_map(F)


def _capped_random(seed: int):
    """A seeded random complex over BN^2_2, and the same complex with e_0
    stacked above and below, so that some objects carry circles."""
    C = random_complex(random.Random(seed), 2, 2, Window(-3, 2), pieces=3)
    E = cx.from_tangle(FlatTangle.e(0, 2))
    return C, cx.stack_complexes(cx.stack_complexes(E, C), E)


def _records(name: str):
    if name.startswith("hom_"):
        n, depth = {"hom_p2_w6": (2, 6), "hom_p3_w5": (3, 5)}[name]
        P = pj.build_projector(n, Window(-depth, 0)).complex
        yield _module(cx.hom_complex(P, P))
        yield _module(cx.hom_complex_direct(P, P))
    elif name == "tautological_theta":
        for labels in ((1, 2, 3), (2, 2, 2)):
            e = pj.rewrite_network(ex.theta(*labels))
            S, _ = cx.simplify(pj.instantiate(e, Window(-6, 0)))
            yield _module(cx.tautological(S))
    elif name == "sdr_simplify_theta":
        C = reference_instantiate(pj.rewrite_network(ex.theta(2, 2, 2)), Window(-6, 0))
        S, eq = cx.simplify(C, want_equivalence=True)
        yield from _sdr(S, eq.r, eq.i, eq.h)
    elif name == "sdr_absorption_p3":
        P = pj.build_projector(3, Window(-5, 0))
        phi, T = pj.absorption_retraction(P.complex, P.complex, 3)
        yield from _sdr(T, phi, pj.standard_equivalence(P, P))
    elif name == "sdr_random":
        # the seeds whose complexes are not empty; six have an iso entry
        for seed in (0, 5, 9, 16, 21, 24, 26, 30):
            C, capped = _capped_random(seed)
            D, r, i = cx.deloop(capped)
            yield from _sdr(D, r, i)
            S, eq = cx.simplify(capped, want_equivalence=True)
            yield from _sdr(S, eq.r, eq.i, eq.h)
            entry = first_iso_entry(C)
            if entry is not None:
                small, r, i, h = cx.gaussian_eliminate(C, entry)
                yield from _sdr(small, r, i, h)


def digest(name: str) -> str:
    h = hashlib.sha256()
    for record in _records(name):
        h.update(record.encode())
        h.update(b"\n")
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(PINNED_SHA256))
def test_hom_digest_pinned(name):
    assert digest(name) == PINNED_SHA256[name]
