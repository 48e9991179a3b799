"""Pinned digests of every gluing in spinhom.cob on small inputs.

Each digest is a SHA-256 over the glue structures, or the serialized
cobordisms, that one operation gives on every tangle with at most three
points a side and at most one closed circle (for stack and beside, every
input and output tangle).  They were recorded from the per-operation circle
bookkeeping that the single boundary-point rule replaced; any change to a
structure or an answer changes a digest.  The birth and death disks of
delooping (helpers.reference_deloop_maps, the reference for
spinhom.complexes' restriction on the delooped circle's dot) are pinned the
same way, on every tangle with at most four points a side, one to three
circles and q-shifts -1, 0 and 2.
"""

import hashlib
import itertools
import json

import pytest

from spinhom import cob, tl
from spinhom.cob import FlatTangle, ShiftedObject
from spinhom.errors import SpinhomError

from helpers import (
    Cob,
    cobordism_data,
    dotted_identity,
    dualize_cob,
    generator,
    merge_trace_saddle,
    reference_deloop_maps,
    reflect_x_cob,
    reflect_y_cob,
    surgery,
)

PINNED_SHA256 = {
    "beside_structure": "82afef7d54c62172cf468daf47f39c403786750af1f8764b194f65b11a4bcf87",
    "compose_structure": "46f1aacd173b8b29785e05d82519cec5b90e9c4f5d871c90a63569bdc229735a",
    "deloop_maps": "d3410ae1db160ef4358e2f0da7290176379c37efdbf573e876d9456d51f48628",
    "dotted_identity": "c4d220fe79c0f01c944fde5ee7ff89efe6eba9f3c054dd18a1388adebcd07f01",
    "dualize_reflect": "0da31135d194daa859ac16476dd98ac27b5de811e22e4c521406d91da1137334",
    "merge_trace_saddle": "7fd8049be8064079099908742043cac2c80d8a8ec2b8abc341935c2070f7018b",
    "stack_structure": "e9475d255333b0fd06416c9752f82d1035051a4986467340b871c5fb75abeba9",
    "surgery": "643b84640ae805cc72238629f408819bed13ec853dca542c116a3c748eb5fa4c",
    "trace_structure": "1ea051b97e565f7af49d5390f716b0f9384eb3026b5646c39163be6c033fd3f8",
}


def _tangles(m: int, n: int) -> list[FlatTangle]:
    return [
        FlatTangle(m, n, t.pairs, circles)
        for t in tl.all_matchings(m, n)
        for circles in (0, 1)
    ]


SIDES = [(m, n) for m in range(4) for n in range(4) if (m + n) % 2 == 0]
TANGLES = {mn: _tangles(*mn) for mn in SIDES}


def _structure(st: cob.GlueStructure) -> str:
    return repr((st.components, st.n_out))


def _cobordism(f: Cob) -> str:
    return json.dumps(cobordism_data(f), sort_keys=True)


def _generators(a: FlatTangle, b: FlatTangle):
    src, tgt = ShiftedObject(a, 1), ShiftedObject(b, -2)
    for assign in itertools.product((0, 1), repeat=cob.closure_data(a, b).n):
        yield generator(src, tgt, assign, cob.AlphaPoly({0: 2, 1: -1}))


def _records(name: str):
    if name == "compose_structure":
        for ts in TANGLES.values():
            for a, b, c in itertools.product(ts, repeat=3):
                yield _structure(cob._compose_structure(a, b, c))
    elif name == "stack_structure":
        for (m, k), (k2, n) in itertools.product(SIDES, repeat=2):
            if k == k2:
                for at, a2t in itertools.product(TANGLES[m, k], repeat=2):
                    for bt, b2t in itertools.product(TANGLES[k, n], repeat=2):
                        yield _structure(cob._stack_structure(at, bt, a2t, b2t))
    elif name == "beside_structure":
        for left, right in itertools.product(SIDES, repeat=2):
            if left[0] + right[0] > 3 or left[1] + right[1] > 3:
                continue
            for at, a2t in itertools.product(TANGLES[left], repeat=2):
                for bt, b2t in itertools.product(TANGLES[right], repeat=2):
                    yield _structure(cob._beside_structure(at, bt, a2t, b2t))
    elif name == "trace_structure":
        for n in range(4):
            for at, bt in itertools.product(TANGLES[n, n], repeat=2):
                yield _structure(cob._trace_structure(at, bt))
    elif name == "surgery":
        for ts in TANGLES.values():
            for t in ts:
                for x, y in itertools.permutations(range(t.m + t.n), 2):
                    try:
                        yield _cobordism(surgery(ShiftedObject(t, 3), x, y))
                    except SpinhomError as e:
                        yield f"{type(e).__name__}: {e}"
    elif name == "merge_trace_saddle":
        for n in range(1, 4):
            for a, b in itertools.product(TANGLES[n, n], repeat=2):
                yield _cobordism(merge_trace_saddle(a, b))
    elif name == "dotted_identity":
        for ts in TANGLES.values():
            for t in ts:
                keys = [("arc", arc) for arc in t.arcs()] + [("circ", j) for j in range(t.circles)]
                for key in keys:
                    yield _cobordism(dotted_identity(ShiftedObject(t, 1), {key: 1}))
    elif name == "deloop_maps":
        for m, n in itertools.product(range(5), repeat=2):
            if (m + n) % 2:
                continue
            for t in tl.all_matchings(m, n):
                for circles, q in itertools.product((1, 2, 3), (-1, 0, 2)):
                    big = ShiftedObject(FlatTangle(m, n, t.pairs, circles), q)
                    for f in reference_deloop_maps(big)[2:]:
                        yield _cobordism(f)
    elif name == "dualize_reflect":
        for ts in TANGLES.values():
            for a, b in itertools.product(ts, repeat=2):
                for f in _generators(a, b):
                    for op in (dualize_cob, reflect_x_cob, reflect_y_cob):
                        yield _cobordism(op(f))


def digest(name: str) -> str:
    h = hashlib.sha256()
    for record in _records(name):
        h.update(record.encode())
        h.update(b"\n")
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(PINNED_SHA256))
def test_gluing_digest_pinned(name):
    assert digest(name) == PINNED_SHA256[name]
