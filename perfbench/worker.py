"""Run one benchmark operation in a fresh interpreter, as a user's shell would.

    python3 perfbench/worker.py SPEC_JSON [TRACE_JSON]

SPEC_JSON is one operation: ``{"kind": "cli", "argv": [...]}`` runs the
``spinhom`` command; ``duality``, ``jones_wenzl`` and ``theta`` are library
calls whose answers are printed as one line of JSON or a ``repr``.  The exit
status is the command's, or 1 if a library call raised.

With TRACE_JSON the operation runs under the tracer of ``tracer.py`` and the
spans and counts are written there when it ends, together with the number of
entries spinhom's in-process caches held before it started.
"""

from __future__ import annotations

import json
import sys
import traceback
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _table(T) -> dict:
    return {
        f"{k},{'*' if q is None else q}": [rank, list(tors), (k, q) in T.unreliable]
        for (k, q), (rank, tors) in sorted(
            T.nonzero().items(), key=lambda kv: (kv[0][0], kv[0][1] or 0)
        )
    }


def duality(n: int, window: int, cache_dir: str) -> str:
    """Hom(P, P) of a cached projector by the duality route and directly."""
    from spinhom import cli, homology
    from spinhom import complexes as cx
    from spinhom.complexes import Window

    P = cli.cached_projector(n, Window(-window, 0), cache_dir).complex
    via_duality = cx.hom_complex(P, P)
    direct = cx.hom_complex_direct(P, P)
    return json.dumps({
        "duality_alpha0": _table(homology.homology_table(via_duality, "alpha0")),
        "direct_alpha0": _table(homology.homology_table(direct, "alpha0")),
        "duality_alpha1": _table(homology.homology_table(via_duality, "alpha1")),
    }, sort_keys=True)


def jones_wenzl(n: int) -> str:
    from spinhom import tl

    return repr(tl.markov_trace(tl.jones_wenzl(n)))


def theta(a: int, b: int, c: int) -> str:
    from spinhom import expr, tl

    return repr(tl.evaluate_network(expr.theta(a, b, c)))


LIBRARY = {"duality": duality, "jones_wenzl": jones_wenzl, "theta": theta}


def run(spec: dict) -> int:
    if spec["kind"] == "cli":
        from spinhom.cli import main

        return main(spec["argv"])
    try:
        print(LIBRARY[spec["kind"]](*spec["args"]))
    except Exception:
        traceback.print_exc()
        return 1
    return 0


def main(argv: list[str]) -> int:
    spec = json.loads(argv[0])
    sys.path.insert(0, str(SRC))
    import spinhom

    if Path(spinhom.__file__).resolve().parent != SRC / "spinhom":
        print(f"spinhom imported from {spinhom.__file__}, not {SRC}", file=sys.stderr)
        return 70
    if len(argv) == 1:
        return run(spec)

    import spinhom.cli  # loads every module, so cache_entries sees every cache
    import tracer as tr

    cached = tr.cache_entries()
    t = tr.Tracer()
    tr.instrument(t)
    try:
        return run(spec)
    finally:
        report = t.report()
        report["cache_entries_at_start"] = cached
        Path(argv[1]).write_text(json.dumps(report, sort_keys=True))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
