"""Per-layer spans and counters, recorded by wrapping spinhom from outside.

Every cross-module call in spinhom goes through a module attribute
(``cx.simplify``, ``cob.compose``, ...) or a name bound by ``from . import``;
``instrument`` replaces each such binding, in every loaded spinhom module,
with a wrapper.  No file of the program is changed.

Spans are accounted on one stack per process: a span's self time is its
duration minus the durations of the spans it directly encloses.  The totals
are kept in memory and written once, when the worker's operation ends.
"""

from __future__ import annotations

import sys
import time


class Tracer:
    """Span and counter totals for one process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack: list[list] = []  # [name, start, time covered by child spans]
        self.depth: dict[str, int] = {}
        # name -> [calls, self seconds, seconds in outermost spans of that name]
        self.spans: dict[str, list] = {}
        self.counts: dict[str, int] = {}
        self._cells: list[tuple[str, list[int]]] = []

    def enter(self, name: str) -> None:
        self.stack.append([name, self.clock(), 0.0])
        self.depth[name] = self.depth.get(name, 0) + 1

    def exit(self) -> None:
        name, start, child = self.stack.pop()
        dur = self.clock() - start
        self.depth[name] -= 1
        rec = self.spans.setdefault(name, [0, 0.0, 0.0])
        rec[0] += 1
        rec[1] += dur - child
        if self.depth[name] == 0:
            rec[2] += dur
        if self.stack:
            self.stack[-1][2] += dur

    def active(self, name: str) -> bool:
        return self.depth.get(name, 0) > 0

    def add(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def peak(self, name: str, n: int) -> None:
        self.counts[name] = max(self.counts.get(name, 0), n)

    def span(self, name: str, fn, before=None, after=None):
        """Wrap fn in a span; before(args) and after(result) update counts."""

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            if after is not None:
                after(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, name: str, fn):
        cell = [0]
        self._cells.append((name, cell))

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def report(self) -> dict:
        counts = dict(self.counts)
        for name, cell in self._cells:
            counts[name] = counts.get(name, 0) + cell[0]
        return {
            "spans": {
                k: {"calls": c, "self_s": s, "total_s": t}
                for k, (c, s, t) in sorted(self.spans.items())
            },
            "counts": dict(sorted(counts.items())),
        }


def _spinhom_modules() -> list:
    return [m for k, m in sorted(sys.modules.items())
            if m is not None and (k == "spinhom" or k.startswith("spinhom."))]


def replace_everywhere(original, replacement) -> None:
    """Rebind every spinhom module attribute that is `original`."""
    found = False
    for mod in _spinhom_modules():
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                found = True
    if not found:
        raise LookupError(f"{original!r} is bound in no spinhom module")


def replace_method(cls, method: str, replacement) -> None:
    """Rebind `method` and every alias of it (``__radd__ = __add__``)."""
    original = vars(cls)[method]
    for attr, value in list(vars(cls).items()):
        if value is original:
            setattr(cls, attr, replacement)


def cache_entries() -> int:
    """Entries held by spinhom's in-process caches (lru caches, memo dicts)."""
    total = 0
    for mod in _spinhom_modules():
        for attr, value in vars(mod).items():
            if hasattr(value, "cache_info") and callable(value.cache_info):
                total += value.cache_info().currsize
            elif attr.endswith("_cache") and isinstance(value, dict):
                total += len(value)
    return total


def _objects(C) -> int:
    return sum(len(v) for v in C.groups.values())


def instrument(tracer: Tracer) -> None:
    """Install the benchmark's spans and counters on the loaded spinhom."""
    from spinhom import cli, cob, homology, laurent, projector, serialize, tl
    from spinhom import complexes as cx

    t = tracer

    def spans(name, fns, before=None, after=None):
        for fn in fns:
            replace_everywhere(fn, t.span(name, fn, before, after))

    spans("cob.compose", [cob.compose])

    def simplify_in(args):
        n = _objects(args[0])
        t.add("complexes.simplify_objects_in", n)
        t.peak("complexes.simplify_peak_objects", n)

    def simplify_out(result):
        t.add("complexes.simplify_objects_out", _objects(result[0]))

    spans("complexes.simplify", [cx.simplify], simplify_in, simplify_out)

    def sweep_stack(args):
        if t.active("projector.build") and not t.active("projector.certify"):
            t.add("projector.sweep_stacks")

    spans("complexes.planar", [cx.stack_complexes], sweep_stack)
    spans("complexes.planar", [cx.beside_complexes, cx.trace_complex, cx.dual_complex])
    spans("complexes.hom", [cx.hom_complex, cx.hom_complex_direct, cx.tautological])

    # A cache miss is a build_projector span inside a cached_projector span.
    built: list[bool] = []

    def lookup_start(args):
        built.append(False)

    def lookup_end(result):
        t.add("cli.cache_misses" if built.pop() else "cli.cache_hits")

    def build_start(args):
        if built:
            built[-1] = True

    spans("cli.cached_projector", [cli.cached_projector], lookup_start, lookup_end)
    spans("projector.build", [projector.build_projector], build_start)
    spans("projector.certify", [projector.check_projector_axioms])
    spans("projector.rewrite", [projector.rewrite_network])

    def cells(args):
        t.add("homology.matrix_cells", args[0].rows * args[0].cols)

    spans("homology.table", [homology.homology_table])
    spans("homology.rank", [homology.rank_over_q], cells)
    spans("homology.snf", [homology.smith_normal_form], cells)

    spans("tl.jones_wenzl", [tl.jones_wenzl])
    spans("tl.evaluate", [tl.evaluate_network])
    replace_everywhere(
        tl.compose_matchings,
        t.counter("tl.compose_matchings_calls", tl.compose_matchings),
    )

    spans("serialize.decode", [serialize.complex_from_data])
    # Serialization inside a build is the sweep's stabilisation test, not a
    # cache write; leave it in the build's own time.
    encode = serialize.complex_to_data
    encode_span = t.span("serialize.encode", encode)
    replace_everywhere(
        encode,
        lambda *a, **k: (encode if t.active("projector.build") else encode_span)(*a, **k),
    )

    LP, RF = laurent.LaurentPoly, laurent.RatFunc
    replace_method(LP, "__mul__", t.counter("laurent.poly_mul_calls", LP.__mul__))
    replace_method(LP, "__add__", t.counter("laurent.poly_add_calls", LP.__add__))
    for op in ("__add__", "__sub__", "__mul__", "__truediv__"):
        replace_method(RF, op, t.counter("laurent.ratfunc_ops", vars(RF)[op]))
