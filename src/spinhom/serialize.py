"""Deterministic, versioned serialization of the core value types.

Everything serializes to plain JSON-able structures with sorted components:
byte-identical output for equal values.  Dot assignments are packed as
bitmasks (bit i = dot on closure circle i).
"""

from __future__ import annotations

from typing import Any

from .cob import AlphaPoly, CanonicalCobordism, FlatTangle, ShiftedObject, closure_data
from .complexes import ChainComplex, Window
from .errors import IntegrityError

FORMAT_VERSION = 1


def poly_to_data(p: AlphaPoly) -> list[list[int]]:
    return [[e, c] for e, c in sorted(p.coeffs.items())]


def poly_from_data(d: list[list[int]]) -> AlphaPoly:
    coeffs = {e: c for e, c in d}
    _check_ints(*coeffs, *coeffs.values())
    return AlphaPoly(coeffs)


def tangle_to_data(t: FlatTangle) -> dict[str, Any]:
    return {"m": t.m, "n": t.n, "pairs": list(t.pairs), "circles": t.circles}


def _check_ints(*values: Any) -> None:
    """Reject non-ints, bools and floats too: interning by == finds 2 for 2.0."""
    if not all(type(x) is int for x in values):
        raise IntegrityError(f"not all integers: {values!r}")


def tangle_from_data(d: dict[str, Any]) -> FlatTangle:
    pairs = tuple(d["pairs"])
    _check_ints(d["m"], d["n"], d["circles"], *pairs)
    return FlatTangle(d["m"], d["n"], pairs, d["circles"])


def object_to_data(o: ShiftedObject) -> dict[str, Any]:
    out = tangle_to_data(o.tangle)
    out["q"] = o.qshift
    return out


def object_from_data(d: dict[str, Any]) -> ShiftedObject:
    _check_ints(d["q"])
    return ShiftedObject(tangle_from_data(d), d["q"])


def _mask(assign: tuple[int, ...]) -> int:
    out = 0
    for i, v in enumerate(assign):
        if v:
            out |= 1 << i
    return out


def _unmask(mask: int, width: int) -> tuple[int, ...]:
    return tuple((mask >> i) & 1 for i in range(width))


def _terms_to_data(f: CanonicalCobordism) -> list:
    return sorted([[_mask(a), poly_to_data(p)] for a, p in f.terms.items()])


def _terms_from_data(src: ShiftedObject, tgt: ShiftedObject, terms: list) -> CanonicalCobordism:
    width = closure_data(src.tangle, tgt.tangle).n
    masks = [mask for mask, _p in terms]
    _check_ints(*masks)
    if not all(0 <= mask < 1 << width for mask in masks):
        raise IntegrityError(f"dot mask outside {width} closure circles: {masks!r}")
    return CanonicalCobordism(
        src, tgt, {_unmask(mask, width): poly_from_data(p) for mask, p in terms}
    )


def cobordism_to_data(f: CanonicalCobordism) -> dict[str, Any]:
    return {
        "src": object_to_data(f.source),
        "tgt": object_to_data(f.target),
        "terms": _terms_to_data(f),
    }


def cobordism_from_data(d: dict[str, Any]) -> CanonicalCobordism:
    return _terms_from_data(object_from_data(d["src"]), object_from_data(d["tgt"]), d["terms"])


def complex_to_data(C: ChainComplex) -> dict[str, Any]:
    groups = {
        str(k): [object_to_data(o) for o in objs]
        for k, objs in sorted(C.groups.items())
    }
    diff = {
        str(k): [[r, c, _terms_to_data(f)] for (r, c), f in sorted(mat.items())]
        for k, mat in sorted(C.diff.items())
    }
    return {
        "version": FORMAT_VERSION,
        "m": C.m,
        "n": C.n,
        "window": [C.window.lo, C.window.hi],
        "tails": [C.tail_lo, C.tail_hi],
        "groups": groups,
        "diff": diff,
    }


def complex_from_data(d: dict[str, Any]) -> ChainComplex:
    """Inverse of complex_to_data.  Other keys are ignored, such as the
    `mode` that older entries carry."""
    if d.get("version") != FORMAT_VERSION:
        raise IntegrityError(f"unsupported complex format version {d.get('version')}")
    groups = {
        int(k): [object_from_data(o) for o in objs] for k, objs in d["groups"].items()
    }
    diff = {
        int(k): {
            (r, c): _terms_from_data(groups[int(k)][c], groups[int(k) + 1][r], terms)
            for r, c, terms in entries
        }
        for k, entries in d["diff"].items()
    }
    return ChainComplex(
        d["m"],
        d["n"],
        Window(*d["window"]),
        groups,
        diff,
        tail_lo=d.get("tails", [False, False])[0],
        tail_hi=d.get("tails", [False, False])[1],
    )
