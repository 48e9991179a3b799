"""Command-line front end.

Verbs: project, check, homology, hom, euler, rewrite, cache.  Expressions
use the grammar

    expr := p(INT) | dual(expr) | stack(expr, expr) | beside(expr, expr)
          | tr(expr) | vertex(INT, INT, INT) | strand(INT)
          | unknot(INT) | theta(INT, INT, INT) | zero
          | diag(INT, INT, INT-INT-...)

with hom(expr, expr) allowed at the top level of homology/euler queries.
diag(m, n, p0-p1-...) is the diagram joining boundary point i to p_i, as
expr.to_text writes it.  Each verb takes only the flags it reads.
Reports are deterministic, and a cold run prints what a warm one does;
JSON is the stable machine contract.

Exit codes: 0 ok (also when the reader closes stdout early), 2 parse
error (and a negative window or label, or a flag the verb does not
take), 3 admissibility or arity, 4 divergence, 5 resource cap, 6
integrity/verification failure.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import re
import sys
import tempfile

from . import __version__
from . import expr as ex
from . import projector as pj
from . import serialize as ser
from . import tl
from .cob import FlatTangle
from .complexes import Window
from .errors import (
    AdmissibilityError,
    ArityError,
    DimensionError,
    DivergenceError,
    IntegrityError,
    ParseError,
    ResourceError,
    SpinhomError,
)
from .homology import (
    HomologyTable,
    ModuleComplex,
    euler_characteristic,
    homology_table,
    table_mismatches,
)

CACHE_ENV = "SPINHOM_CACHE_DIR"
DEFAULT_CACHE = ".spinhom-cache"
CODE_VERSION = f"spinhom-{__version__}-fmt{ser.FORMAT_VERSION}"


# ---------------------------------------------------------------------------
# Parser


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def _lc(self) -> tuple[int, int]:
        line = self.text.count("\n", 0, self.pos) + 1
        col = self.pos - (self.text.rfind("\n", 0, self.pos) + 1) + 1
        return line, col

    def error(self, msg: str) -> ParseError:
        return ParseError(msg, *self._lc())

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def expect(self, ch: str) -> None:
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != ch:
            raise self.error(f"expected {ch!r}")
        self.pos += 1

    def word(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] == "_"
        ):
            self.pos += 1
        if start == self.pos:
            raise self.error("expected a name")
        return self.text[start : self.pos]

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        if self.pos < len(self.text) and self.text[self.pos] == "-":
            self.pos += 1
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if start == self.pos or self.text[start:self.pos] == "-":
            raise self.error("expected an integer")
        return int(self.text[start : self.pos])

    def ints(self, count: int) -> list[int]:
        self.expect("(")
        out = [self.integer()]
        for _ in range(count - 1):
            self.expect(",")
            out.append(self.integer())
        self.expect(")")
        return out

    def expr(self) -> ex.NetworkExpr:
        self.skip_ws()
        start = self.pos
        name = self.word()
        if name == "p":
            (n,) = self.ints(1)
            return ex.Proj(n)
        if name == "strand":
            (k,) = self.ints(1)
            return ex.Strand(k)
        if name == "dual":
            self.expect("(")
            inner = self.expr()
            self.expect(")")
            return ex.push_duals(ex.Dual(inner))
        if name == "tr":
            self.expect("(")
            inner = self.expr()
            self.expect(")")
            return ex.Trace(inner)
        if name == "stack" or name == "beside":
            self.expect("(")
            a = self.expr()
            self.expect(",")
            b = self.expr()
            self.expect(")")
            return ex.Stack(a, b) if name == "stack" else ex.Beside(a, b)
        if name == "vertex":
            a, b, c = self.ints(3)
            ex.check_vertex(a, b, c)
            return ex.Vertex(a, b, c)
        if name == "unknot":
            (n,) = self.ints(1)
            return ex.unknot(n)
        if name == "theta":
            a, b, c = self.ints(3)
            ex.check_vertex(a, b, c)
            return ex.theta(a, b, c)
        if name == "zero":
            return ex.Zero()
        if name == "diag":
            return self.diagram(start)
        raise self.error(f"unknown operator {name!r}")

    def diagram(self, start: int) -> ex.Diagram:
        """The arguments of diag(m,n,p0-p1-...); a pairing that is not a
        planar fixed-point-free involution is an error at `start`."""
        self.expect("(")
        m = self.integer()
        self.expect(",")
        n = self.integer()
        self.expect(",")
        self.skip_ws()
        first = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in "0123456789-":
            self.pos += 1
        text = self.text[first : self.pos]
        self.expect(")")
        try:
            pairs = tuple(map(int, text.split("-"))) if text else ()
            if min(m, n) < 0:
                raise ValueError("negative boundary count")
            FlatTangle(m, n, pairs)
        except (ValueError, SpinhomError) as err:
            self.pos = start
            raise self.error(f"invalid diagram: {err}") from None
        return ex.Diagram(m, n, pairs)

    def top(self) -> tuple[str, tuple]:
        self.skip_ws()
        save = self.pos
        name = self.word()
        if name == "hom":
            self.expect("(")
            a = self.expr()
            self.expect(",")
            b = self.expr()
            self.expect(")")
            self.finish()
            return ("hom", (a, b))
        self.pos = save
        e = self.expr()
        self.finish()
        return ("net", (e,))

    def finish(self) -> None:
        self.skip_ws()
        if self.pos != len(self.text):
            raise self.error("trailing input")


def parse_network(text: str) -> ex.NetworkExpr:
    """Parse a network expression (no top-level hom)."""
    p = _Parser(text)
    e = p.expr()
    p.finish()
    ex.arity(e)  # surfaces admissibility/arity problems early
    return e


def parse_query(text: str) -> tuple[str, tuple]:
    p = _Parser(text)
    kind, args = p.top()
    for e in args:
        ex.arity(e)
    return kind, args


# ---------------------------------------------------------------------------
# Cache


def cache_dir(explicit: str | None = None) -> str:
    return explicit or os.environ.get(CACHE_ENV) or DEFAULT_CACHE


def _digest(obj) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


def _atomic_write(path: str, data: str) -> None:
    d, name = os.path.split(path)
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(suffix=".tmp", prefix=name, dir=d)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _read_cached(path: str, n: int, window: Window) -> pj.ProjectorComplex | None:
    """The projector a cache entry holds, or None for an entry that is
    missing, unreadable, malformed (a value that does not decode, such as a
    tangle or dot assignment that fails its check) or stale (other code, or
    a value that does not match its hash); the caller rebuilds and
    overwrites those.  An entry that matches its hash but whose certificate
    fails is an IntegrityError."""
    try:
        with open(path) as fh:
            entry = json.load(fh)
        value = entry["value"]
        if entry.get("code") != CODE_VERSION or entry.get("hash") != _digest(value):
            return None
        C = ser.complex_from_data(value["complex"])
        cert = pj.Certificate.from_data(n, value["cert"])
    except (OSError, ValueError, LookupError, TypeError, AttributeError, SpinhomError):
        return None
    if not cert.passed:
        raise IntegrityError("cache holds an uncertified projector")
    return pj.certified_projector(C, n, window, cert)


def cached_projector(n: int, window: Window, cdir: str | None) -> pj.ProjectorComplex:
    key = {
        "kind": "projector",
        "n": n,
        "window": [window.lo, window.hi],
        "construction": pj.CONSTRUCTION,
        "code": CODE_VERSION,
    }
    path = os.path.join(cache_dir(cdir), _digest(key) + ".json")
    cached = _read_cached(path, n, window)
    if cached is not None:
        return cached
    P = pj.build_projector(n, window)
    value = {"complex": ser.complex_to_data(P.complex), "cert": P.certificate.to_data()}
    entry = {"key": key, "code": CODE_VERSION, "hash": _digest(value), "value": value}
    _atomic_write(path, json.dumps(entry, sort_keys=True, separators=(",", ":")))
    return P


# ---------------------------------------------------------------------------
# Reports


def _table_data(T: HomologyTable) -> dict:
    entries = {}
    for (k, q), (rank, tors) in sorted(T.nonzero().items()):
        key = f"{k},{q if q is not None else '*'}"
        entries[key] = {"rank": rank, "torsion": list(tors)}
        if (k, q) in T.unreliable:
            entries[key]["unreliable"] = True
    return {"specialization": T.specialization, "entries": entries}


def _print_report(data: dict, fmt: str) -> None:
    """JSON is the contract.  Text is for reading: one `key: value` line
    per scalar, `- value` per list item, a nested container indented under
    its key (or a bare `-`), and an empty one as `[]` or `{}`."""
    if fmt == "json":
        print(json.dumps(data, sort_keys=True, indent=2))
        return
    def walk(d, pad=""):
        items = sorted(d.items()) if isinstance(d, dict) else [(None, v) for v in d]
        for k, v in items:
            head = f"{pad}-" if k is None else f"{pad}{k}:"
            if isinstance(v, (dict, list)) and v:
                print(head)
                walk(v, pad + "  ")
            else:
                print(f"{head} {json.dumps(v) if isinstance(v, (dict, list)) else v}")
    walk(data)


# ---------------------------------------------------------------------------
# Pipelines


def _max_label(e: ex.NetworkExpr) -> int:
    match e:
        case ex.Proj(n) | ex.DualProj(n):
            return n
        case ex.Vertex(a, b, c):
            return max(a, b, c)
        case ex.Stack(t, b) | ex.Beside(t, b):
            return max(_max_label(t), _max_label(b))
        case ex.Trace(inner) | ex.Dual(inner):
            return _max_label(inner)
    return 0


def _projector_source(args):
    """The projector source of one command: cached_projector in the cache
    of `args`, each (n, window) read once however many boxes and routes ask
    for it.  A new source per command, never a module-level one, so a cache
    entry changed between two commands is read (and rebuilt) again."""
    return functools.cache(functools.partial(cached_projector, cdir=args.cache_dir))


def _module(query: tuple, args, projector, rewrite: bool = True) -> ModuleComplex:
    """The module complex of a parsed query, Hom(A, B) for ("hom", (A, B))
    or the closed network of ("net", (e,)), at the window of `args` and
    with `projector` (a _projector_source) as the projector source."""
    window = Window(-args.window, 0)
    kind, qargs = query
    if kind == "hom":
        return pj.hom_of_networks(*qargs, window, rewrite, projector)
    return pj.closed_module(qargs[0], window, rewrite, projector)


def _homology_report(text: str, query: tuple, args, verify: bool = False) -> dict:
    projector = _projector_source(args)
    M = _module(query, args, projector)
    T = homology_table(M, args.spec)
    data = {"query": text, "window": args.window, "table": _table_data(T)}
    if verify:
        data["verify"] = _verify(query, T, M, args, projector)
    return data


def _verify(query: tuple, T: HomologyTable, M: ModuleComplex, args, projector) -> dict:
    """Recompute without rewriting and compare the two tables on their
    common band and the low-order Euler terms."""
    M2 = _module(query, args, projector, rewrite=False)
    (lo, hi), mism = table_mismatches(M, T, M2, homology_table(M2, args.spec))
    tail = euler_characteristic(M) - euler_characteristic(M2)
    tail_bad = [e for e in tail.coeffs if abs(e) < 2 * args.window - 4]

    def fin(x):
        return None if x in (float("inf"), float("-inf")) else x

    out = {
        "compared_band": None if lo > hi else [fin(lo), fin(hi)],
        "euler_tail_exponents": sorted(tail.coeffs),
    }
    if mism or tail_bad:
        out["mismatches"] = sorted(str(x) for x in mism)
        out["euler_low_order_defect"] = sorted(tail_bad)
        raise IntegrityError(
            "verification failed: rewritten and direct pipelines disagree: "
            + json.dumps(out, sort_keys=True)
        )
    return out


def cmd_homology(args) -> dict:
    return _homology_report(args.expr, parse_query(args.expr), args, args.verify)


def cmd_hom(args) -> dict:
    """The report of `homology "hom(source,target)"`."""
    query = ("hom", (parse_network(args.source), parse_network(args.target)))
    return _homology_report(f"hom({args.source},{args.target})", query, args)


def cmd_euler(args) -> dict:
    kind, qargs = query = parse_query(args.expr)
    chi = euler_characteristic(_module(query, args, _projector_source(args)))
    data = {"query": args.expr, "window": args.window, "categorified": repr(chi)}
    if kind == "net":
        decat = tl.evaluate_network(qargs[0])
        data["tl_oracle"] = repr(decat)
        try:
            tail = chi - decat.as_laurent()
        except ArithmeticError:
            tail = chi - decat.series(max(chi.coeffs) if chi.coeffs else 0)
        data["difference"] = repr(tail)
        # tails certified per projector up to 2 (window - n) - 1
        threshold = 2 * (args.window - _max_label(qargs[0])) - 1
        low = [e for e in tail.coeffs if abs(e) < threshold]
        data["tail_only"] = not low
        if low:
            raise IntegrityError(
                f"euler mismatch below the truncation tail: exponents {sorted(low)}"
            )
    return data


def cmd_project(args) -> dict:
    window = Window(-args.window, 0)
    P = cached_projector(args.n, window, args.cache_dir)
    return {
        "n": args.n,
        "window": args.window,
        "objects_per_degree": {
            str(k): len(v) for k, v in sorted(P.complex.groups.items())
        },
        "certificate": P.certificate.lines(),
        "passed": P.certificate.passed,
    }


def cmd_check(args) -> dict:
    """Re-run the certificate on the cached projector."""
    window = Window(-args.window, 0)
    P = cached_projector(args.n, window, args.cache_dir)
    cert = pj.check_projector_axioms(P.complex, args.n, window)
    return {"n": args.n, "window": args.window, "certificate": cert.lines(), "passed": cert.passed}


def cmd_rewrite(args) -> dict:
    e = parse_network(args.expr)
    out = pj.rewrite_network(e, mode=args.mode)
    return {"input": args.expr, "mode": args.mode, "normal_form": ex.to_text(out)}


def cmd_cache(args) -> dict:
    d = cache_dir(args.cache_dir)
    files = sorted(os.listdir(d)) if os.path.isdir(d) else []
    # only what spinhom writes: <sha256>.json entries, <entry>...tmp of killed writes
    ours = [f for f in files if re.fullmatch(r"[0-9a-f]{64}\.json(.*\.tmp)?", f)]
    if args.action == "ls":
        return {"dir": d, "entries": [f for f in ours if f.endswith(".json")]}
    for f in ours:
        os.unlink(os.path.join(d, f))
    return {"dir": d, "removed": len(ours)}


def _natural(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{value} is negative")
    return value


FLAGS = {
    "--window": dict(type=_natural, default=8, help="truncation depth (default 8)"),
    "--spec": dict(choices=["alpha0", "alpha1"], default="alpha0"),
    "--verify": dict(action="store_true"),
    "--cache-dir": dict(default=None),
}


def build_arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="spinhom",
        description="categorified spin network calculator",
    )
    sub = ap.add_subparsers(dest="verb", required=True)

    def verb(name: str, func, help: str, *flags: str) -> argparse.ArgumentParser:
        """A subcommand that takes --format and exactly the given FLAGS."""
        p = sub.add_parser(name, help=help)
        p.add_argument("--format", choices=["json", "text"], default="json")
        for flag in flags:
            p.add_argument(flag, **FLAGS[flag])
        p.set_defaults(func=func)
        return p

    p = verb("project", cmd_project, "build and cache a projector", "--window", "--cache-dir")
    p.add_argument("n", type=_natural)
    p = verb("check", cmd_check, "re-run certification", "--window", "--cache-dir")
    p.add_argument("what", choices=["projector"])
    p.add_argument("n", type=_natural)
    p = verb("homology", cmd_homology, "bigraded homology of a closed query",
             "--window", "--spec", "--verify", "--cache-dir")
    p.add_argument("expr")
    p = verb("hom", cmd_hom, "homology of Hom(M, N)", "--window", "--spec", "--cache-dir")
    p.add_argument("source")
    p.add_argument("target")
    p = verb("euler", cmd_euler, "euler characteristic vs the TL oracle",
             "--window", "--cache-dir")
    p.add_argument("expr")
    p = verb("rewrite", cmd_rewrite, "normal form of an expression")
    p.add_argument("expr")
    p.add_argument("--mode", choices=["product", "sum"], default="product")
    p = verb("cache", cmd_cache, "cache maintenance", "--cache-dir")
    p.add_argument("action", choices=["ls", "clear"])
    return ap


EXIT_CODES = [
    (ParseError, 2),
    (AdmissibilityError, 3),
    (ArityError, 3),
    (DimensionError, 3),
    (DivergenceError, 4),
    (ResourceError, 5),
    (IntegrityError, 6),
]


def main(argv: list[str] | None = None) -> int:
    ap = build_arg_parser()
    args = ap.parse_args(argv)
    try:
        data = args.func(args)
    except SpinhomError as err:
        for klass, code in EXIT_CODES:
            if isinstance(err, klass):
                print(f"error: {err}", file=sys.stderr)
                return code
        print(f"error: {err}", file=sys.stderr)
        return 1
    try:
        _print_report(data, args.format)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader stopped early (`| head`): the report was computed, so
        # exit 0, with stdout on /dev/null for the interpreter's last flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0


if __name__ == "__main__":
    sys.exit(main())
