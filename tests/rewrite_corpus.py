"""Differential check of the network rewrite engine on the full enumeration.

Runs projector.rewrite_network and helpers.reference_rewrite_network on
every (expression, mode) pair of helpers.rewrite_corpus() and compares the
text of the two normal forms.  Exits 0 when all pairs agree, and 1 after
printing the first pair that differs.  Takes a few minutes per engine:

    PYTHONPATH=src python tests/rewrite_corpus.py
"""

from __future__ import annotations

import sys
import time

from helpers import reference_rewrite_network, rewrite_corpus
from spinhom import expr as ex
from spinhom.projector import rewrite_network


def main() -> int:
    start = time.perf_counter()
    pairs = 0
    for e in rewrite_corpus():
        for mode in ("product", "sum"):
            new = ex.to_text(rewrite_network(e, mode))
            old = ex.to_text(reference_rewrite_network(e, mode))
            pairs += 1
            if new != old:
                print(f"{ex.to_text(e)} [{mode}]: {new} != reference {old}")
                return 1
    print(f"{pairs} (expression, mode) pairs agree in {time.perf_counter() - start:.0f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
