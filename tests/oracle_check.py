"""The exact TL oracle against its slow paths, beyond tier-1's sizes.

jones_wenzl certifies the turnback axiom on one e_i per reflection orbit,
and evaluate_network closes a traced stack as a trace pairing without
forming the product.  This script checks what those shortcuts skip:

- jones_wenzl(8) term for term against the Wenzl recursion
  (helpers.reference_jones_wenzl);
- e_i p_n = p_n e_i = 0 for all 2(n - 1) turnbacks, for every n <= 8;
- trace_pairing(v, Dual(v)) against markov_trace(compose_tl(v, Dual(v)))
  for the vertex v of every admissible theta with labels <= 5.

Exits 1 on the first difference and 0 otherwise.  Takes under two minutes:

    PYTHONPATH=src python tests/oracle_check.py
"""

from __future__ import annotations

import sys
import time

from helpers import reference_jones_wenzl
from spinhom import expr as ex
from spinhom import tl

MAX_N = 8
MAX_LABEL = 5


def admissible_triples(limit: int):
    for a in range(limit + 1):
        for b in range(a, limit + 1):
            for c in range(b, limit + 1):
                if (a + b + c) % 2 == 0 and c <= a + b:
                    yield a, b, c


def check() -> str | None:
    """The first difference found, or None."""
    if tl.jones_wenzl(MAX_N).terms != reference_jones_wenzl(MAX_N).terms:
        return f"jones_wenzl({MAX_N}) differs from the Wenzl recursion"
    print(f"jones_wenzl({MAX_N}) equals the Wenzl recursion")
    for n in range(2, MAX_N + 1):
        p = tl.jones_wenzl(n)
        for i in range(n - 1):
            e = tl.TLElement.e(i, n)
            if not tl.compose_tl(e, p).is_zero() or not tl.compose_tl(p, e).is_zero():
                return f"p_{n} does not kill e_{i}"
    print(f"every turnback kills p_n for n <= {MAX_N}")
    count = 0
    for trip in admissible_triples(MAX_LABEL):
        v = tl.tl_element_of(ex.Vertex(*trip))
        w = v.dual()
        if tl.trace_pairing(v, w) != tl.markov_trace(tl.compose_tl(v, w)):
            return f"trace pairing differs from the traced product on theta{trip}"
        count += 1
    print(f"trace pairing equals the traced product on {count} thetas")
    return None


def main() -> int:
    start = time.perf_counter()
    failure = check()
    print(failure or "no difference", f"({time.perf_counter() - start:.0f} s)")
    return 1 if failure else 0


if __name__ == "__main__":
    sys.exit(main())
