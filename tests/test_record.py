"""spinhom.record against the standard library's dataclasses.

Every record class of the package is declared twice: as the package has it,
decorated by spinhom.record, and as a twin, the same class source decorated
by dataclasses.dataclass.  On sample values the two must agree in every
behaviour the package relies on: the fields, `__match_args__`, class-level
defaults, `repr`, `==` and `!=` (against every other record too), `hash`,
`__post_init__`, frozenness, `replace` and copying; a `default_factory` gives
each instance a fresh object.
"""

import __future__
import ast
import copy
import dataclasses
import itertools
import sys
from pathlib import Path

import pytest

from spinhom import cli, cob, complexes, expr, homology, laurent, projector, record
from spinhom.cob import FlatTangle, ShiftedObject, identity_terms
from spinhom.complexes import ChainComplex, ChainMap, Window
from spinhom.errors import SpinhomError
from spinhom.laurent import LaurentPoly

MODULES = (cob, complexes, expr, homology, laurent, projector)
MISSING = object()


def _is_record(node: ast.stmt) -> bool:
    def name(d):
        return (d.func if isinstance(d, ast.Call) else d).id

    return isinstance(node, ast.ClassDef) and any(name(d) == "dataclass" for d in node.decorator_list)


def _twins(module) -> dict[str, type]:
    """The module's record classes, each compiled again from its source with
    dataclasses.dataclass and dataclasses.field in place of spinhom.record's.
    The twins share one namespace, so a twin's methods see the module's other
    twins under their names; FlatTangle's twin interns into its own table."""
    path = Path(module.__file__)
    ns = {**vars(module), "dataclass": dataclasses.dataclass, "field": dataclasses.field,
          "_interned": {}}
    out = {}
    for node in ast.parse(path.read_text()).body:
        if _is_record(node):
            code = compile(ast.Module(body=[node], type_ignores=[]), str(path), "exec",
                           flags=__future__.annotations.compiler_flag, dont_inherit=True)
            exec(code, ns)
            out[node.name] = ns[node.name]
    return out


TWINS = {name: twin for m in MODULES for name, twin in _twins(m).items()}
REAL = {name: getattr(m, name) for m in MODULES for name in _twins(m)}

T2 = FlatTangle.identity(2)
E2 = FlatTangle(2, 2, (1, 0, 3, 2), 1)
O = ShiftedObject(T2, 1)
W = Window(-2, 0)
C = ChainComplex(2, 2, W, {0: [O], -1: []}, {})
C2 = ChainComplex(2, 2, W, {-1: [O], 0: [O]}, {-1: {(0, 0): identity_terms(O), (1, 1): {}}},
                  tail_lo=True, reliable=(-1, float("inf")))
M = ChainMap(C, C, 0, 0, {0: {(0, 0): identity_terms(O)}, 1: {}})
CERT = projector.Certificate(2, True, {("above", 0): (True, [])})
ONE = LaurentPoly({0: 1})

# Per class: (args, kwargs) of each sample; the first sample of a class is
# the one `replace` starts from, and the others give it new values.
SAMPLES = {
    "FlatTangle": [((2, 2, (2, 3, 0, 1)), {}), ((2, 2, (1, 0, 3, 2), 1), {}),
                   ((), {"m": 0, "n": 0, "pairs": (), "circles": 2})],
    "ShiftedObject": [((T2,), {}), ((T2, 2), {}), ((), {"tangle": E2, "qshift": -1})],
    "ClosureData": [((2, (1,), (), (0, 0, 0, 0)), {}),
                    ((), {"n": 3, "src_circ": (), "tgt_circ": (2,), "point": (0, 1, 1, 0)})],
    "GlueStructure": [(((((0,), 2, (0,)),), 1), {}), (((), 0, {(0,): "memo"}), {}),
                      (((), 0), {"reduced": {}})],
    "StackedObject": [((T2, (0,)), {}), ((E2, ()), {})],
    "TracedObject": [((T2, (0, 1, 1, 0)), {}), ((E2, (0, 0, 1, 1)), {})],
    "Window": [((-3, 0), {}), ((0, 0), {}), ((), {"hi": 2, "lo": -1})],
    "ChainComplex": [((2, 2, W, {0: [O]}, {}), {}), ((2, 2, W, {0: [O], 1: []}, {}), {"tail_hi": True}),
                     ((2, 2, W, {-1: [O], 0: [O]}, C2.diff, True, False, (0, 1.5)), {})],
    "ChainMap": [((C, C, 0, 0, {}), {}), ((C, C, 1, 2, {0: {(0, 0): {}}}), {}),
                 ((), {"source": C, "target": C, "hdeg": 0, "qdeg": 0, "mats": M.mats})],
    "Equivalence": [((M, M, M), {}), ((), {"r": M, "i": M, "h": ChainMap(C, C, -1, 0, {})})],
    "Strand": [((1,), {}), ((2,), {}), ((), {"k": 3})],
    "Proj": [((1,), {}), ((2,), {})],
    "DualProj": [((1,), {}), ((2,), {})],
    "Vertex": [((1, 2, 3), {}), ((2, 2, 2), {}), ((), {"c": 1, "b": 1, "a": 0})],
    "Stack": [((expr.Strand(1), expr.Proj(1)), {}), ((expr.Proj(1), expr.Strand(1)), {})],
    "Beside": [((expr.Strand(1), expr.Proj(1)), {}), ((expr.Zero(), expr.Zero()), {})],
    "Trace": [((expr.Proj(2),), {}), ((expr.Strand(2),), {})],
    "Dual": [((expr.Proj(2),), {}), ((expr.Strand(2),), {})],
    "Zero": [((), {})],
    "Diagram": [((2, 2, (2, 3, 0, 1)), {}), ((0, 2, (1, 0)), {})],
    "ModuleComplex": [(({0: [0]}, {}), {}), (({0: [0], 1: [2]}, {0: {(0, 0): ONE}}, (0, 3)), {})],
    "HomologyTable": [(("alpha0", {(0, 0): (1, ())}), {}), (("alpha1", {}, {(0, None)}), {}),
                      (("alpha0", {}), {"unreliable": set()})],
    "RatFunc": [((ONE, ONE), {}), ((LaurentPoly({1: 2}), LaurentPoly({0: 1, 1: 1})), {})],
    "Certificate": [((2, True, {}), {}), ((3, False, {("above", 0): (False, [1])}, True, "x"), {})],
    "ProjectorComplex": [((2, W, C, CERT), {}), ((), {"n": 3, "window": W, "complex": C2,
                                                      "certificate": CERT})],
}


def _made(cls: type) -> list:
    return [cls(*args, **kwargs) for args, kwargs in SAMPLES[cls.__name__]]


def _outcome(fn):
    """fn()'s value, or the type name and message of what it raises."""
    try:
        return ("value", fn())
    except Exception as err:  # noqa: BLE001 - the outcome is what is compared
        return (type(err).__name__, str(err))


def test_every_record_class_has_a_twin_and_samples():
    found = {
        name
        for m in MODULES + (cli, record)
        for name, obj in vars(m).items()
        if isinstance(obj, type) and obj.__module__ == m.__name__ and "_fields" in obj.__dict__
    }
    assert found == set(TWINS) == set(SAMPLES)
    assert len(found) == 25


def _generated(cls: type, method: str) -> bool | None:
    """Whether the decorator made cls's `method`: False for one the class
    source defines, None if the class dictionary holds none."""
    fn = cls.__dict__.get(method)
    if fn is None:
        return None
    return fn.__code__.co_filename != sys.modules[cls.__module__].__file__


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_class_level_behaviour_matches_dataclasses(name):
    real, twin = REAL[name], TWINS[name]
    names = tuple(f.name for f in dataclasses.fields(twin))
    assert real._fields == names
    assert real.__match_args__ == twin.__match_args__
    for n in names:
        assert real.__dict__.get(n, MISSING) == twin.__dict__.get(n, MISSING)
    assert ("__hash__" in real.__dict__, real.__hash__ is None) == (
        "__hash__" in twin.__dict__, twin.__hash__ is None)
    # the same methods are made, and those the class defines are kept
    for method in ("__init__", "__repr__", "__eq__", "__hash__", "__setattr__", "__delattr__"):
        assert _generated(real, method) == _generated(twin, method), method


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_instances_match_dataclasses(name):
    real, twin = REAL[name], TWINS[name]
    for r, t in zip(_made(real), _made(twin)):
        assert repr(r) == repr(t)
        assert list(vars(r)) == list(vars(t))
        assert all(getattr(r, k) == getattr(t, k) for k in vars(t))
        if twin.__hash__ is not None:
            assert hash(r) == hash(t)
        else:
            with pytest.raises(TypeError):
                hash(r)
        assert (r.__eq__(object()) is NotImplemented) == (t.__eq__(object()) is NotImplemented)
        assert repr(copy.copy(r)) == repr(copy.copy(t))
        assert repr(copy.deepcopy(r)) == repr(copy.deepcopy(t))


def test_equality_matches_dataclasses_across_all_records():
    reals = [r for name in sorted(SAMPLES) for r in _made(REAL[name])]
    twins = [t for name in sorted(SAMPLES) for t in _made(TWINS[name])]
    extra = [(1,), (2, 2, (2, 3, 0, 1)), None]
    for (r1, t1), (r2, t2) in itertools.product(list(zip(reals, twins)) + list(zip(extra, extra)),
                                                repeat=2):
        assert (r1 == r2) == (t1 == t2), (r1, r2)
        assert (r1 != r2) == (t1 != t2), (r1, r2)
    # distinct node types with one equal field stay distinct
    assert expr.Strand(1) != expr.Proj(1) != expr.DualProj(1) != (1,)


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_frozen_and_mutable_attributes_match_dataclasses(name):
    real, twin = REAL[name], TWINS[name]
    for r, t in zip(_made(real), _made(twin)):
        attrs = (*real._fields, "_hash", "other")
        for attr in attrs:
            assert _outcome(lambda: setattr(r, attr, 0)) == _outcome(lambda: setattr(t, attr, 0))
        assert repr(r) == repr(t)
        for attr in attrs:
            assert _outcome(lambda: delattr(r, attr)) == _outcome(lambda: delattr(t, attr))
        assert _outcome(lambda: repr(r)) == _outcome(lambda: repr(t))
    assert issubclass(record.FrozenInstanceError, AttributeError)


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_replace_matches_dataclasses(name):
    real, twin = REAL[name], TWINS[name]
    (r, *rs), (t, *ts) = _made(real), _made(twin)
    assert repr(record.replace(r)) == repr(dataclasses.replace(t))
    for r2, t2 in zip(rs, ts):
        for fields in [[f] for f in real._fields] + [real._fields]:
            got = _outcome(lambda: record.replace(r, **{f: getattr(r2, f) for f in fields}))
            want = _outcome(lambda: dataclasses.replace(t, **{f: getattr(t2, f) for f in fields}))
            assert (got[0], repr(got[1])) == (want[0], repr(want[1]))
            assert got[0] != "value" or type(got[1]) is real
    with pytest.raises(TypeError):
        record.replace(r, no_such_field=1)
    with pytest.raises(TypeError):
        dataclasses.replace(t, no_such_field=1)


def test_defaults_post_init_and_errors_match_dataclasses():
    calls = [
        ("Window", (1, 0), {}),  # __post_init__ raises
        ("Window", (0,), {}),  # missing argument
        ("Window", (0, 1, 2), {}),  # too many
        ("Window", (0, 1), {"lo": 0}),  # twice
        ("Window", (0, 1), {"mid": 0}),  # unknown
        ("ShiftedObject", (), {}),
        ("HomologyTable", ("alpha0",), {}),
        ("FlatTangle", (2, 2, (0, 1, 2, 3)), {}),  # __new__ rejects it
    ]
    for name, args, kwargs in calls:
        got = _outcome(lambda: REAL[name](*args, **kwargs))
        want = _outcome(lambda: TWINS[name](*args, **kwargs))
        assert got[0] == want[0] != "value", (name, args, kwargs)
        if want[0] not in ("TypeError",):  # the binding messages differ in wording only
            assert got == want
    with pytest.raises(SpinhomError, match="empty window"):
        Window(1, 0)
    # __post_init__ ran: empty groups and zero entries are gone in both
    for cls in (REAL["ChainComplex"], TWINS["ChainComplex"]):
        D = cls(*SAMPLES["ChainComplex"][2][0])
        assert list(D.groups) == [-1, 0] and list(D.diff[-1]) == [(0, 0)]
    assert REAL["ChainMap"](*SAMPLES["ChainMap"][1][0]).mats == {}


def test_default_factory_gives_each_instance_a_fresh_object():
    for cls in (REAL["HomologyTable"], TWINS["HomologyTable"]):
        a, b = cls("alpha0", {}), cls("alpha0", {})
        assert a.unreliable == set() and a.unreliable is not b.unreliable
        a.unreliable.add((0, 0))
        assert b.unreliable == set() and cls("alpha0", {}).unreliable == set()
    for cls in (REAL["GlueStructure"], TWINS["GlueStructure"]):
        a, b = cls((), 0), cls((), 0)
        assert a.reduced == {} and a.reduced is not b.reduced
        a.reduced[(0,)] = "memo"
        # reduced takes no part in ==, hash or repr
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b) == "GlueStructure(components=(), n_out=0)"
        assert cls((), 0).reduced == {}


def test_pattern_matching_reads_match_args():
    match expr.Stack(expr.Strand(1), expr.Vertex(1, 2, 3)):
        case expr.Stack(expr.Strand(k), expr.Vertex(a, b, c)):
            assert (k, a, b, c) == (1, 1, 2, 3)
        case _:
            pytest.fail("no match")

