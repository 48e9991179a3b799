"""Structural consequences: degree-zero endomorphism rings for n = 3,
graded commutativity on odd classes, divergence reporting, serialization;
and the code's own structure: no function the repository never names."""

import ast
import functools
import io
import json
import os
import subprocess
import sys
import tokenize
from collections import Counter
from pathlib import Path

import pytest

from spinhom import expr as ex
from spinhom import projector as pj
from spinhom import serialize as ser
from spinhom.cob import FlatTangle, ShiftedObject, dot_at_point, scale_terms
from spinhom.complexes import ChainMap, Window, compose_maps, homotopic_alpha0
from spinhom.errors import DivergenceError
from spinhom.homology import homology_table


def test_end_p3_degree_zero_is_Z(p3_w8, w8):
    M = pj.hom_of_networks(ex.Proj(3), ex.Proj(3), w8)
    T = homology_table(M, "alpha0")
    assert T.entries.get((0, 0)) == (1, ())
    # and the window knows nothing above degree zero
    assert all(k <= 0 for k, q in T.nonzero())


def test_end_p3_unit_and_first_dot_class(p3_w8, w8):
    T = homology_table(pj.hom_of_networks(ex.Proj(3), ex.Proj(3), w8), "alpha0")
    # dots on the three strands give classes in (0, 2); d(v_i) relations
    # leave rank 1 and 2-torsion-free at that bidegree for the 3-strand case
    assert T.rank(0, 2) >= 1


def test_odd_class_squares_to_two_torsion():
    # graded commutativity up to homotopy forces 2 x^2 ~ 0 for odd classes;
    # witness on x = b1 v^3 of bidegree (-3, 8)
    W = Window(-12, 0)
    P = pj.p2(W).complex
    b1, _ = pj.dot_maps(P)
    v = pj.v_map(P)
    v3 = compose_maps(v, compose_maps(v, v))
    x = compose_maps(b1, v3)
    assert (x.hdeg, x.qdeg) == (-3, 8)
    xx = compose_maps(x, x)
    zero = ChainMap.zero(P, P, xx.hdeg, xx.qdeg)
    assert homotopic_alpha0(xx + xx, zero, lo=W.lo + 3, hi=-1)


def test_divergence_error_reported(monkeypatch):
    # the uncached build, so no cached projector is dropped or served
    monkeypatch.setattr(pj, "MAX_SWEEPS", 0)
    with pytest.raises(DivergenceError):
        pj.build_projector.__wrapped__(3, Window(-4, 0))


def test_cobordism_serialization_round_trip():
    # a cobordism is serialized as its ends and its terms, the entry format
    # of the cache
    o = ShiftedObject(FlatTangle(1, 1, (1, 0), circles=1), 2)
    f = scale_terms(dot_at_point(o, 0), 3)
    data = {"src": ser.object_to_data(o), "tgt": ser.object_to_data(o),
            "terms": ser._terms_to_data(f)}
    src, tgt = ser.object_from_data(data["src"]), ser.object_from_data(data["tgt"])
    g = ser._terms_from_data(src, tgt, data["terms"])
    assert (src, tgt, g) == (o, o, f)
    assert ser._terms_to_data(g) == data["terms"]


def test_certificate_cache_payload_faithful(tmp_path):
    from spinhom import cli

    cdir = str(tmp_path / "c")
    P = cli.cached_projector(2, Window(-5, 0), cdir)
    Q = cli.cached_projector(2, Window(-5, 0), cdir)
    assert Q.certificate.degree_zero_ok == P.certificate.degree_zero_ok
    assert Q.certificate.turnbacks == P.certificate.turnbacks
    assert Q.certificate.euler_ok == P.certificate.euler_ok


def test_end_p3_matches_extrapolated_dga(w8):
    # Observed agreement: the 3-colored unknot ring computed through the
    # cobordism pipeline matches the pattern continuing the 2-color free
    # dg-algebra presentation (x_k even at (-2k, 2k+2), y_k odd at
    # (-2k-1, 2k+4), d(y_k) = sum_{i+j=k} x_i x_j), in free ranks on the
    # reliable window.  Frozen as a regression guard.
    from dga import FreeDGA

    N = 8
    M = pj.hom_of_networks(ex.Proj(3), ex.Proj(3), Window(-N, 0))
    T = homology_table(M, "alpha0")
    dga3 = FreeDGA(
        even_degrees=((0, 2), (-2, 4), (-4, 6)),
        odd_degrees=((-1, 4), (-3, 6), (-5, 8)),
        odd_diff=(
            ((1, (2, 0, 0)),),
            ((2, (1, 1, 0)),),
            ((2, (1, 0, 1)), (1, (0, 2, 0))),
        ),
    )
    H = dga3.bigraded_homology_ranks(-N + 3, 0, 0, 40)
    for k in range(-N + 3, 1):
        for q in range(0, 41):
            assert T.rank(k, q) == H.get((k, q), 0), (k, q)
    assert T.torsion(-2, 6) == (2,)


ROOT = Path(__file__).resolve().parent.parent


def _module_names(tree: ast.Module) -> set[str]:
    """Names the file binds to modules: `import a.b [as x]`, and
    `from spinhom import x` or `from . import x`."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module in (None, "spinhom"):
            out.update(a.asname or a.name for a in node.names)
    return out


_LAYOUT = {tokenize.NL, tokenize.NEWLINE, tokenize.COMMENT, tokenize.INDENT, tokenize.DEDENT}


@functools.cache
def _scan(root: Path) -> tuple[list, list, list]:
    """One pass over src/, tests/ and perfbench/: the name tokens, as
    (in src, path, line, name, can name a module-level function); the
    definitions of functions everywhere and of module-level aliases in src/,
    as (in src, path, line, name); and what function_uses reports on, the
    definitions under src/spinhom, as (path, line, name, is a method,
    (first, last) line of the body)."""
    tokens, defs, defined = [], [], []
    for path in sorted(p for d in ("src", "tests", "perfbench") for p in (root / d).rglob("*.py")):
        text = path.read_text()
        tree = ast.parse(text)
        local = {
            a.asname
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for a in node.names
            if a.asname
        }
        modules = _module_names(tree)
        is_src = path.is_relative_to(root / "src")
        rel = str(path.relative_to(root))
        prev = [None, None]  # the two tokens before this one, layout skipped
        for tok in tokenize.generate_tokens(io.StringIO(text).readline):
            if tok.type == tokenize.NAME and tok.string not in local:
                dot, receiver = prev[1], prev[0]
                bare = dot is None or dot.string != "." or (
                    receiver is not None and receiver.string in modules
                )
                tokens.append((is_src, rel, tok.start[0], tok.string, bare))
            if tok.type not in _LAYOUT:
                prev = [prev[1], tok]
        in_src = path.is_relative_to(root / "src" / "spinhom")
        methods = {
            id(f)
            for c in ast.walk(tree)
            if isinstance(c, ast.ClassDef)
            for f in c.body
            if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs.append((is_src, rel, node.lineno, node.name))
                if in_src:
                    body = (node.body[0].lineno, node.end_lineno)
                    defined.append((rel, node.lineno, node.name, id(node) in methods, body))
        for node in tree.body:
            if (
                in_src
                and isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Name)
            ):
                name = node.targets[0].id
                defs.append((is_src, rel, node.lineno, name))
                defined.append((rel, node.lineno, name, False, None))
    return tokens, defs, defined


def function_uses(
    root: Path, skip: frozenset[tuple[str, int]] = frozenset()
) -> list[tuple[str, int, str, int, int, int]]:
    """Functions and methods defined under src/spinhom (dunders exempt), and
    module-level `name = other_name` aliases there, each with the number of
    times its name occurs as a Python name token other than at definitions:
    (path, line, name, uses in src/ outside the bodies of the definitions
    `skip` gives as (path, line), uses in src/ inside those bodies, uses in
    tests/ and perfbench/).
    A token after a dot, `x.name`, is a use of a method `name`, and a use of
    a module-level function `name` only if x is a module the file imports
    (`cx.deloop`); so `work.deloop(...)` does not count as a use of
    complexes.deloop.  A name a file binds by `import ... as name` is that
    file's own, so its tokens there are not uses."""
    tokens, defs, defined = _scan(root)
    bodies: dict[str, list[tuple[int, int]]] = {}
    for p, line, _name, _method, body in defined:
        if (p, line) in skip and body is not None:
            bodies.setdefault(p, []).append(body)

    def side(in_src: bool, p: str, line: int) -> str:
        if not in_src:
            return "other"
        return "skipped" if any(lo <= line <= hi for lo, hi in bodies.get(p, ())) else "src"

    # per side: all tokens of a name, and those that can name a module-level function
    sides = ("src", "skipped", "other")
    names = {at: Counter() for at in sides}
    bare = {at: Counter() for at in sides}
    defs_at = {at: Counter() for at in sides}
    for in_src, p, line, name, can_be_bare in tokens:
        at = side(in_src, p, line)
        names[at][name] += 1
        if can_be_bare:
            bare[at][name] += 1
    for in_src, p, line, name in defs:
        defs_at[side(in_src, p, line)][name] += 1
    return [
        (
            p, line, name,
            *((names if method else bare)[at][name] - defs_at[at][name] for at in sides),
        )
        for p, line, name, method, _body in defined
        if not (name.startswith("__") and name.endswith("__"))
    ]


def unreferenced_functions(root: Path) -> list[str]:
    """Names from function_uses that occur nowhere but at definitions."""
    return [
        f"{p}:{line} {name}"
        for p, line, name, in_src, _skipped, elsewhere in function_uses(root)
        if in_src + elsewhere <= 0
    ]


def test_no_unreferenced_functions():
    assert unreferenced_functions(ROOT) == []


# Functions of src/spinhom, as module.name, that only tests/ and perfbench/
# call, directly or through other such functions.  A new one fails
# test_test_only_functions_are_listed until it is added here, so test-only
# code shows up in review; one that gains a caller in src/ or is deleted
# must leave the list.
TEST_ONLY = {
    "cob.cap_off_circles",
    "cob.eta",
    "cob.merge_trace_saddle",
    "cob.reflect_x_ob",
    "cob.reflect_x_terms",
    "cob.reflect_y_ob",
    "cob.reflect_y_terms",
    "cob.saddle_to_identity",
    "cob.shifted",
    "complexes._deloop_all",
    # the general Hom engine (with _hom_d's nested add), kept for
    # hom_complex_direct, the planned second route of homology --verify
    "complexes._hom_basis",
    "complexes._hom_d",
    "complexes._hom_module",
    "complexes._planar_map",
    "complexes._reflect",
    "complexes.add",
    "complexes.bicomplex_contraction",
    "complexes.columns",
    "complexes.commutator_with_d",
    "complexes.cone",
    "complexes.deloop",
    "complexes.dual_chain_map",
    "complexes.gaussian_eliminate",
    "complexes.graded_objects",
    "complexes.hom_complex",
    "complexes.hom_complex_direct",
    "complexes.homotopic_alpha0",
    "complexes.reflect_x_complex",
    "complexes.reflect_y_complex",
    "complexes.shift_h",
    "complexes.shift_q",
    "complexes.stack_chain_maps",
    "complexes.trace_chain_map",
    "homology.in_column_lattice",
    "homology.poincare",
    "homology.torsion",
    "homology.transpose",
    "laurent.monomial",
    "projector._degree_zero_identity",
    "projector.absorption_retraction",
    "projector.dot_maps",
    "projector.eta_element",
    "projector.iota_map",
    "projector.pi_action",
    "projector.standard_equivalence",
    "projector.unknot_action",
    "projector.unknot_pairing",
    "projector.v_map",
    "tl.all_matchings",
    "tl.segment",
    "tl.tl_element_of",
}


def functions_only_tests_call(root: Path) -> set[str]:
    """Functions of src/spinhom, as module.name, that src/ uses only inside
    the bodies of such functions, and tests/ or perfbench/ use, directly or
    through them: the token count of function_uses iterated to a fixed
    point, each round skipping the bodies of the definitions found so far."""
    found: set[tuple[str, int]] = set()
    while True:
        rows = function_uses(root, frozenset(found))
        now = {
            (p, line)
            for p, line, _name, in_src, skipped, elsewhere in rows
            if in_src <= 0 < skipped + elsewhere
        }
        if now == found:
            return {f"{Path(p).stem}.{name}" for p, line, name, *_uses in rows if (p, line) in found}
        found = now


def test_test_only_functions_are_listed():
    assert functions_only_tests_call(ROOT) == TEST_ONLY


def test_benchmark_tracer_instruments_the_package():
    # perfbench/tracer.py wraps spinhom functions by name; a renamed or
    # deleted one makes instrument raise, which only the traced benchmark
    # pass would otherwise show.
    code = "import tracer; tracer.instrument(tracer.Tracer())"
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    done = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr


def test_benchmark_tracer_sees_the_elimination_engine():
    # production glues then simplifies through the names perfbench/tracer.py
    # wraps (complexes.simplify of complexes.stack_complexes), and composes
    # through cob.compose, so a fused path that bypasses them, and sends the
    # traced engine or composition counters back to 0, fails here.  A fresh
    # process, so the P3 build is cold.
    code = (
        "import json, tracer\n"
        "from spinhom import expr, projector\n"
        "from spinhom.complexes import Window\n"
        "t = tracer.Tracer()\n"
        "tracer.instrument(t)\n"
        "def calls(span):\n"
        "    return t.report()['spans'].get(span, {}).get('calls', 0)\n"
        "projector.build_projector(3, Window(-4, 0))\n"
        "built = calls('complexes.simplify')\n"
        "built_compose = calls('cob.compose')\n"
        "projector.closed_module(expr.theta(2, 2, 2), Window(-4, 0))\n"
        "print(json.dumps([built, calls('complexes.simplify'),\n"
        "                  t.report()['counts'].get('projector.sweep_stacks', 0),\n"
        "                  built_compose, calls('cob.compose') - built_compose]))\n"
    )
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    done = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    built, closed, sweeps, built_compose, closed_compose = json.loads(done.stdout)
    assert built > 0 and closed > built and sweeps > 0, (built, closed, sweeps)
    assert built_compose > 0 and closed_compose > 0, (built_compose, closed_compose)


def _package_imports(module: str) -> set[str]:
    """The spinhom modules that spinhom.<module> imports, at any depth of
    its source: `from . import x`, `from .x import y`, `import spinhom.x`."""
    tree = ast.parse((ROOT / "src" / "spinhom" / f"{module}.py").read_text())
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update(a.name.split(".")[1] for a in node.names if a.name.startswith("spinhom."))
        # node.module is None only in a relative `from . import x`
        elif isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("spinhom")):
            if node.module in (None, "spinhom"):
                out.update(a.name for a in node.names)
            else:
                out.add(node.module.removeprefix("spinhom."))
    return out - {"__version__"}


def test_expression_and_oracle_layers_are_independent_of_the_pipeline():
    # ex.arity decides that a network is zero and ex.labels reads its boxes
    # for the oracle and the pipeline alike, so expr stands on the errors
    # and records alone; and the TL oracle checks the categorified pipeline,
    # so nothing it loads, directly or through another module, is part of it
    assert _package_imports("expr") == {"errors", "record"}
    loaded, todo = set(), ["tl"]
    while todo:
        for name in _package_imports(todo.pop()) - loaded:
            loaded.add(name)
            todo.append(name)
    assert loaded.isdisjoint({"projector", "complexes", "homology", "cli"}), loaded


def test_complexes_keeps_one_entry_format():
    # a morphism is its term dict (cob.Terms) throughout the package, and
    # cob.compose is its one composition; a CanonicalCobordism, or a second
    # composition beside compose, would bring back a second morphism format
    # and the converters between the two
    tokens, _defs, _defined = _scan(ROOT)
    names = [(p, line, name) for in_src, p, line, name, _bare in tokens
             if in_src and p.startswith("src/spinhom/")]
    assert {p for p, _line, _name in names} >= {"src/spinhom/cob.py", "src/spinhom/complexes.py"}
    assert [(p, line, name) for p, line, name in names
            if name in ("CanonicalCobordism", "compose_terms")] == []


def test_package_builds_records_without_dataclasses_or_exec():
    # spinhom.record makes the record classes; dataclasses (which imports
    # inspect) and exec'd method source cost more than the rest of the
    # package's import, paid again by every CLI call.  -S keeps site-packages
    # .pth files from preloading modules, so this sees what spinhom loads.
    tokens, _defs, _defined = _scan(ROOT)
    assert [(p, line, name) for in_src, p, line, name, _bare in tokens
            if in_src and name in ("dataclasses", "exec", "eval")] == []
    code = (f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import spinhom.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
