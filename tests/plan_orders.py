"""Survey of the gluing orders of the benchmark's theta queries.

For theta(2,3,3), theta(2,2,2) and theta(1,2,3) at window 6, splits the
rewritten chain under the trace as projector.plan_gluing does, glues every
rotation and nesting of it, and records the sum of the elimination engine's
inputs (helpers.engine_inputs) of each order; unlike wall time, the sum is
deterministic.  Prints the best, the worst and the planner's sum per
network.  Exits 0 when the planner's order is within 1.5x of the best on
every network, and 1 otherwise.  Takes under a minute:

    PYTHONPATH=src python tests/plan_orders.py
"""

from __future__ import annotations

import sys
import time

from helpers import engine_inputs
from spinhom import expr as ex
from spinhom import projector as pj
from spinhom.complexes import Window

THETAS = [(2, 3, 3), (2, 2, 2), (1, 2, 3)]
WINDOW = Window(-6, 0)
BOUND = 1.5


def nestings(items: list[ex.NetworkExpr]):
    """Every way to nest the Stack chain `items`, in its order."""
    if len(items) == 1:
        yield items[0]
        return
    for k in range(1, len(items)):
        for top in nestings(items[:k]):
            for bottom in nestings(items[k:]):
                yield ex.Stack(top, bottom)


def inputs(e: ex.NetworkExpr) -> int:
    with engine_inputs() as sizes:
        pj.instantiate(e, WINDOW)
    return sum(sizes)


def main() -> int:
    start = time.perf_counter()
    for n in range(4):
        pj.build_projector(n, WINDOW)

    failed = False
    for trip in THETAS:
        rewritten = pj.rewrite_network(ex.theta(*trip))
        items = [layer for x in pj._flatten_stack(rewritten.inner) for layer in pj._split_beside(x)]
        sums = [
            inputs(ex.Trace(e))
            for r in range(len(items))
            for e in nestings(items[r:] + items[:r])
        ]
        planned = inputs(pj.plan_gluing(rewritten, pj.object_counts(WINDOW)))
        best = min(sums)
        near = sum(s <= BOUND * best for s in sums)
        print(f"theta{trip}: {len(sums)} orders, best {best}, worst {max(sums)}, "
              f"{near} within {BOUND}x of the best; planned {planned} ({planned / best:.2f}x)")
        failed |= planned > BOUND * best
    print(f"{time.perf_counter() - start:.0f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
