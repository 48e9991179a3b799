"""CLI: grammar, commands, cache round-trip, determinism, exit codes."""

import itertools
import json
import os

import pytest

from helpers import closed_networks_leq3
from spinhom import cli
from spinhom import expr as ex
from spinhom import projector as pj
from spinhom import serialize as ser
from spinhom.cob import FlatTangle, ShiftedObject
from spinhom.complexes import Window
from spinhom.errors import AdmissibilityError, IntegrityError, ParseError


def test_parse_basics():
    assert cli.parse_network("tr(p(2))") == ex.Trace(ex.Proj(2))
    assert cli.parse_network("stack(p(3), dual(p(3)))") == ex.Stack(
        ex.Proj(3), ex.DualProj(3)
    )
    assert cli.parse_network("theta(1,1,2)") == ex.theta(1, 1, 2)
    assert cli.parse_network("unknot(2)") == ex.unknot(2)
    assert cli.parse_network("beside(strand(1), p(2))") == ex.Beside(
        ex.Strand(1), ex.Proj(2)
    )
    kind, args = cli.parse_query("hom(p(2), p(2))")
    assert kind == "hom" and args == (ex.Proj(2), ex.Proj(2))


def test_rewrite_output_parses_back():
    # to_text of a rewritten network, diag(...) included, is parsed back to it
    vertices = []
    for a, b, c in itertools.product(range(4), repeat=3):
        try:
            ex.check_vertex(a, b, c)
        except AdmissibilityError:
            continue
        vertices.append(ex.Vertex(a, b, c))
    nets = [net for _name, net in closed_networks_leq3()] + vertices
    for e, mode in itertools.product(nets, ("product", "sum")):
        r = pj.rewrite_network(e, mode)
        assert cli.parse_network(ex.to_text(r)) == r, (e, mode)
    assert cli.parse_network("diag(0,0,)") == ex.Diagram(0, 0, ())
    assert cli.parse_network("diag(2, 2, 2-3-0-1)") == ex.Diagram(2, 2, (2, 3, 0, 1))


def test_rewrite_runs_to_a_fixpoint(capsys):
    # a pass absorbs one box per chain: 302 stacked boxes need 301 passes
    text = "stack(p(2)," * 301 + "p(2)" + ")" * 301
    for mode in ("product", "sum"):
        assert cli.main(["rewrite", text, "--mode", mode]) == 0
        assert json.loads(capsys.readouterr().out)["normal_form"] == "p(2)"


def test_parse_dual_of_p_is_dualproj():
    e = cli.parse_network("dual(p(3))")
    assert pj.rewrite_network(e) == ex.DualProj(3)


def test_parse_errors_have_positions():
    with pytest.raises(ParseError) as ei:
        cli.parse_network("stack(p(2), )")
    assert ei.value.line == 1 and ei.value.col >= 12
    with pytest.raises(ParseError):
        cli.parse_network("frob(2)")
    with pytest.raises(ParseError):
        cli.parse_network("p(2) garbage")
    # a pairing that is not a planar fixed-point-free involution, at the diag
    for bad in ("diag(2,2,3-2-1-0)", "diag(2,2,1-0-3)", "diag(1,1,0-0)",
                "diag(-1,1,)", "diag(2,2,1-0-3-5)", "diag(2,2,1-0-3--2)"):
        with pytest.raises(ParseError) as ei:
            cli.parse_network(f"stack(p(2), {bad})")
        assert ei.value.col == 13, bad


def test_admissibility_errors():
    with pytest.raises(Exception):
        cli.parse_network("vertex(1,1,1)")
    with pytest.raises(Exception):
        cli.parse_network("theta(1,1,5)")


def test_exit_codes(tmp_path, capsys):
    cdir = str(tmp_path / "cache")
    assert cli.main(["rewrite", "p(2)("]) == 2
    assert cli.main(["homology", "vertex(1,1,1)", "--cache-dir", cdir]) == 3
    assert cli.main(["homology", "p(2)", "--cache-dir", cdir]) == 3  # open boundary
    assert cli.main(["homology", "tr(diag(2,2,3-2-1-0))", "--cache-dir", cdir]) == 2
    # boundary mismatches are arity errors
    assert cli.main(["homology", "stack(p(2),p(3))", "--cache-dir", cdir]) == 3
    assert cli.main(["rewrite", "stack(p(2),p(3))"]) == 3
    assert cli.main(["hom", "p(1)", "p(2)", "--cache-dir", cdir]) == 3
    assert cli.main(["hom", "zero", "zero", "--cache-dir", cdir]) == 3
    # a negative window or label is refused by the argument parser
    for argv in (["project", "2", "--window", "-2"], ["project", "-1"],
                 ["homology", "tr(p(2))", "--window", "-2"]):
        with pytest.raises(SystemExit) as ei:
            cli.main(argv + ["--cache-dir", cdir])
        assert ei.value.code == 2, argv
    capsys.readouterr()


def test_check_and_project(tmp_path, capsys):
    cdir = str(tmp_path / "cache")
    rc = cli.main(["check", "projector", "2", "--window", "6", "--cache-dir", cdir])
    out = capsys.readouterr().out
    assert rc == 0
    assert "pass" in out and '"passed": true' in out


def test_cache_round_trip(tmp_path):
    cdir = str(tmp_path / "cache")
    P1 = cli.cached_projector(2, Window(-6, 0), cdir)
    P2 = cli.cached_projector(2, Window(-6, 0), cdir)
    assert ser.complex_to_data(P1.complex) == ser.complex_to_data(P2.complex)
    assert P2.certificate.passed
    # corrupting the entry forces a rebuild rather than bad data
    import os

    files = [f for f in os.listdir(cdir) if f.endswith(".json")]
    assert files
    path = str(tmp_path / "cache" / files[0])
    with open(path) as fh:
        entry = json.load(fh)
    entry["hash"] = "0" * 64
    with open(path, "w") as fh:
        json.dump(entry, fh)
    P3 = cli.cached_projector(2, Window(-6, 0), cdir)
    assert ser.complex_to_data(P3.complex) == ser.complex_to_data(P1.complex)


@pytest.mark.parametrize("corrupt", ['{"trunc', '{"code": "x"}', "[1]"])
def test_corrupt_cache_entry_is_rebuilt(tmp_path, capsys, corrupt):
    cdir = str(tmp_path / "cache")
    args = ["project", "2", "--window", "4", "--cache-dir", cdir]
    assert cli.main(args) == 0
    report = capsys.readouterr().out
    (name,) = os.listdir(cdir)
    path = os.path.join(cdir, name)
    with open(path) as fh:
        good = fh.read()
    with open(path, "w") as fh:
        fh.write(corrupt)
    assert cli.main(args) == 0
    assert capsys.readouterr().out == report
    assert os.listdir(cdir) == [name]
    with open(path) as fh:
        assert fh.read() == good


def test_construction_fingerprint_keys_the_cache(tmp_path, monkeypatch):
    # today's fingerprint names today's files; a changed one is another key,
    # so an entry of the old construction is never served: P_2 is built again
    cdir = str(tmp_path / "cache")
    window = Window(-4, 0)
    cli.cached_projector(2, window, cdir)
    key = {"kind": "projector", "n": 2, "window": [-4, 0],
           "construction": "adjacent-p2-sweeps", "code": cli.CODE_VERSION}
    assert pj.CONSTRUCTION == "adjacent-p2-sweeps"
    assert os.listdir(cdir) == [cli._digest(key) + ".json"]
    builds = []
    build = pj.build_projector
    monkeypatch.setattr(pj, "build_projector", lambda n, w: builds.append(n) or build(n, w))
    cli.cached_projector(2, window, cdir)
    assert builds == []
    monkeypatch.setattr(pj, "CONSTRUCTION", "another-construction")
    P = cli.cached_projector(2, window, cdir)
    assert builds == [2] and len(os.listdir(cdir)) == 2
    assert ser.complex_to_data(P.complex) == ser.complex_to_data(build(2, window).complex)


def test_a_command_reads_each_cached_projector_once(tmp_path, monkeypatch, capsys):
    # both routes of --verify, the planner's counts and every box of the
    # network share one read of each entry
    cdir = str(tmp_path / "cache")
    args = ["homology", "theta(1,2,3)", "--verify", "--window", "4", "--cache-dir", cdir]
    cli.main(args)  # exits 6: the unplanned route's band is empty
    reads = []
    read = cli._read_cached
    monkeypatch.setattr(cli, "_read_cached", lambda path, n, w: reads.append(n) or read(path, n, w))
    cli.main(args)
    capsys.readouterr()
    assert sorted(reads) == [1, 2, 3]


def test_entry_corrupted_between_two_commands_is_rebuilt(tmp_path, capsys):
    # the projector source lives for one command: the second command reads
    # the entry again, finds it corrupt and rebuilds it
    cdir = str(tmp_path / "cache")
    assert cli.main(["project", "3", "--window", "4", "--cache-dir", cdir]) == 0
    (name,) = os.listdir(cdir)
    path = os.path.join(cdir, name)
    with open(path) as fh:
        good = fh.read()
    args = ["homology", "theta(2,3,3)", "--window", "4", "--cache-dir", cdir]
    capsys.readouterr()
    assert cli.main(args) == 0
    report = capsys.readouterr().out
    with open(path, "w") as fh:
        fh.write('{"trunc')
    assert cli.main(args) == 0
    assert capsys.readouterr().out == report
    with open(path) as fh:
        assert fh.read() == good


@pytest.mark.parametrize(
    "tangle",
    [{"m": 2, "n": 2, "pairs": [3, 2, 1, 0]}, {"m": -1, "n": 1, "pairs": []}],
    ids=["not_planar", "negative_boundary"],
)
def test_cache_entry_holding_an_invalid_tangle_is_rebuilt(tmp_path, capsys, tangle):
    # an entry that matches its hash but holds a tangle that fails its check
    # is malformed: it is rebuilt, and the query prints the cold report
    args = ["homology", "tr(p(2))", "--window", "3"]
    assert cli.main(args + ["--cache-dir", str(tmp_path / "cold")]) == 0
    cold = capsys.readouterr().out
    cdir = str(tmp_path / "cache")
    assert cli.main(["project", "2", "--window", "3", "--cache-dir", cdir]) == 0
    capsys.readouterr()
    (name,) = os.listdir(cdir)
    path = os.path.join(cdir, name)
    with open(path) as fh:
        good = fh.read()
    entry = json.loads(good)
    groups = entry["value"]["complex"]["groups"]
    groups[min(groups, key=int)][0].update(tangle)
    entry["hash"] = cli._digest(entry["value"])
    with open(path, "w") as fh:
        json.dump(entry, fh, sort_keys=True, separators=(",", ":"))
    assert cli.main(args + ["--cache-dir", cdir]) == 0
    assert capsys.readouterr().out == cold
    with open(path) as fh:
        assert fh.read() == good


@pytest.mark.parametrize(
    "field, retype",
    [
        ("q", float),
        ("m", float),
        ("n", float),
        ("circles", bool),
        ("pairs", lambda pairs: [float(p) for p in pairs]),
        ("pairs", lambda pairs: [p if p > 1 else bool(p) for p in pairs]),
    ],
    ids=["float_q", "float_m", "float_n", "bool_circles", "float_pairs", "bool_pairs"],
)
def test_cache_entry_with_non_int_fields_is_rebuilt(tmp_path, capsys, field, retype):
    # 2.0 == 2 and True == 1, so such a tangle could be found among the
    # interned ones; decoding rejects it whatever the process has made
    args = ["homology", "tr(p(2))", "--window", "4"]
    assert cli.main(args + ["--cache-dir", str(tmp_path / "cold")]) == 0
    cold = capsys.readouterr().out
    cdir = str(tmp_path / "cache")
    assert cli.main(["project", "2", "--window", "4", "--cache-dir", cdir]) == 0
    capsys.readouterr()
    (name,) = os.listdir(cdir)
    path = os.path.join(cdir, name)
    with open(path) as fh:
        good = fh.read()
    entry = json.loads(good)
    for objs in entry["value"]["complex"]["groups"].values():
        for o in objs:
            o[field] = retype(o[field])
    entry["hash"] = cli._digest(entry["value"])
    with open(path, "w") as fh:
        json.dump(entry, fh, sort_keys=True, separators=(",", ":"))
    assert cli.main(args + ["--cache-dir", cdir]) == 0
    assert capsys.readouterr().out == cold
    with open(path) as fh:
        assert fh.read() == good


def _retype_terms(entry, mask=lambda m: m, exponent=lambda e: e, coefficient=lambda c: c):
    for entries in entry["value"]["complex"]["diff"].values():
        for _r, _c, terms in entries:
            for term in terms:
                term[0] = mask(term[0])
                term[1] = [[exponent(e), coefficient(c)] for e, c in term[1]]


@pytest.mark.parametrize(
    "retype",
    [
        {"exponent": float},
        {"coefficient": float},
        {"mask": float},
        {"mask": bool},
        {"mask": lambda m: m - (1 << 40)},
        {"mask": lambda m: m + (1 << 40)},
    ],
    ids=["float_exponent", "float_coefficient", "float_mask", "bool_mask",
         "negative_mask", "wide_mask"],
)
def test_cache_entry_with_non_int_terms_is_rebuilt(tmp_path, capsys, retype):
    # a differential entry whose dot mask or polynomial is not made of ints
    # in range decodes strictly as malformed, though the arithmetic on 2.0
    # or True could give the same report
    _assert_tampered_terms_are_rebuilt(tmp_path, capsys, lambda entry: _retype_terms(entry, **retype))


@pytest.mark.parametrize(
    "tamper",
    [lambda p: p + p[-1:], lambda p: p + [[p[-1][0] + 1, 0]]],
    ids=["repeated_exponent", "zero_coefficient"],
)
def test_cache_entry_with_a_non_canonical_polynomial_is_rebuilt(tmp_path, capsys, tamper):
    # poly_to_data writes each exponent once and no zero coefficient; a
    # polynomial that repeats an exponent (the last pair would win) or holds
    # a zero term decodes as malformed
    def edit(entry):
        for entries in entry["value"]["complex"]["diff"].values():
            for _r, _c, terms in entries:
                for term in terms:
                    term[1] = tamper(term[1])

    _assert_tampered_terms_are_rebuilt(tmp_path, capsys, edit)


def _assert_tampered_terms_are_rebuilt(tmp_path, capsys, edit):
    """Edit the differential terms of a cached P_2@-4 entry with edit(entry),
    re-hash it, and check that `homology "tr(p(2))"` exits 0, prints the
    cold bytes and rewrites the entry."""
    args = ["homology", "tr(p(2))", "--window", "4"]
    assert cli.main(args + ["--cache-dir", str(tmp_path / "cold")]) == 0
    cold = capsys.readouterr().out
    cdir = str(tmp_path / "cache")
    assert cli.main(["project", "2", "--window", "4", "--cache-dir", cdir]) == 0
    capsys.readouterr()
    (name,) = os.listdir(cdir)
    path = os.path.join(cdir, name)
    with open(path) as fh:
        good = fh.read()
    entry = json.loads(good)
    edit(entry)
    assert cli._digest(entry["value"]) != entry["hash"]  # 2.0 == 2, but "2.0" != "2"
    entry["hash"] = cli._digest(entry["value"])
    with open(path, "w") as fh:
        json.dump(entry, fh, sort_keys=True, separators=(",", ":"))
    assert cli.main(args + ["--cache-dir", cdir]) == 0
    assert capsys.readouterr().out == cold
    with open(path) as fh:
        assert fh.read() == good


def test_cache_entry_with_a_mode_key_loads_without_a_rebuild(tmp_path, capsys, monkeypatch):
    # entries written while complexes carried a totalization mode hold a
    # "mode" key in the serialized complex; they load as they are
    cdir = str(tmp_path / "cache")
    args = ["project", "3", "--window", "4", "--cache-dir", cdir]
    assert cli.main(args) == 0
    report = capsys.readouterr().out
    (name,) = os.listdir(cdir)
    path = os.path.join(cdir, name)
    with open(path) as fh:
        entry = json.load(fh)
    assert "mode" not in entry["value"]["complex"]
    entry["value"]["complex"]["mode"] = "sum"
    entry["hash"] = cli._digest(entry["value"])
    with open(path, "w") as fh:
        json.dump(entry, fh, sort_keys=True, separators=(",", ":"))

    def rebuild(n, window):
        raise AssertionError("the entry was rebuilt")

    monkeypatch.setattr(pj, "build_projector", rebuild)
    assert cli.main(args) == 0
    assert capsys.readouterr().out == report


def test_cache_ignores_and_clears_leftover_temporary_files(tmp_path, capsys, monkeypatch):
    cdir = str(tmp_path / "cache")
    renamed = []
    replace = os.replace
    monkeypatch.setattr(os, "replace", lambda src, dst: renamed.append(src) or replace(src, dst))
    assert cli.main(["project", "2", "--window", "4", "--cache-dir", cdir]) == 0
    (entry,) = os.listdir(cdir)
    assert entry.endswith(".json") and renamed[0].endswith(".tmp")
    # a write killed before its rename leaves its temporary file behind
    open(os.path.join(cdir, os.path.basename(renamed[0])), "w").close()
    capsys.readouterr()
    assert cli.main(["cache", "ls", "--cache-dir", cdir]) == 0
    assert json.loads(capsys.readouterr().out)["entries"] == [entry]
    assert cli.main(["cache", "clear", "--cache-dir", cdir]) == 0
    assert json.loads(capsys.readouterr().out)["removed"] == 2
    assert os.listdir(cdir) == []


def test_cache_lists_and_clears_only_its_own_files(tmp_path, capsys):
    cdir = tmp_path / "cache"
    cdir.mkdir()
    foreign = ["BENCHMARK.json", "notes.tmp", "tmpab12cd34.tmp", "0" * 63 + ".json",
               "0" * 64 + ".json.bak", "0" * 64 + ".JSON"]
    for f in foreign:
        (cdir / f).write_text("{}")
    assert cli.main(["project", "2", "--window", "4", "--cache-dir", str(cdir)]) == 0
    (entry,) = set(os.listdir(cdir)) - set(foreign)
    leftover = entry + "k3j_x9q0.tmp"
    (cdir / leftover).write_text("")
    capsys.readouterr()
    assert cli.main(["cache", "ls", "--cache-dir", str(cdir)]) == 0
    assert json.loads(capsys.readouterr().out)["entries"] == [entry]
    assert cli.main(["cache", "clear", "--cache-dir", str(cdir)]) == 0
    assert json.loads(capsys.readouterr().out)["removed"] == 2
    assert sorted(os.listdir(cdir)) == sorted(foreign)


def test_failed_certificate_in_cache_is_integrity_error(tmp_path, capsys):
    # an entry that matches its hash but holds a failing certificate
    cdir = str(tmp_path / "cache")
    args = ["project", "2", "--window", "4", "--cache-dir", cdir]
    assert cli.main(args) == 0
    (name,) = os.listdir(cdir)
    path = os.path.join(cdir, name)
    with open(path) as fh:
        entry = json.load(fh)
    entry["value"]["cert"]["degree_zero_ok"] = False
    entry["hash"] = cli._digest(entry["value"])
    with open(path, "w") as fh:
        json.dump(entry, fh)
    assert cli.main(args) == 6
    capsys.readouterr()


def test_euler_command_and_determinism(tmp_path, capsys):
    cdir = str(tmp_path / "cache")
    args = ["euler", "unknot(2)", "--window", "6", "--cache-dir", cdir]
    assert cli.main(args) == 0
    out1 = capsys.readouterr().out
    assert cli.main(args) == 0
    out2 = capsys.readouterr().out
    assert out1 == out2
    data = json.loads(out1)
    assert data["tail_only"] is True
    # telescoping tail at q^{2 window}
    assert data["difference"] == "q^12"


def test_homology_command_schema(tmp_path, capsys):
    cdir = str(tmp_path / "cache")
    rc = cli.main(
        ["homology", "hom(p(2),p(2))", "--window", "6", "--cache-dir", cdir]
    )
    out = capsys.readouterr().out
    assert rc == 0
    data = json.loads(out)
    assert data["table"]["entries"]["0,0"] == {"rank": 1, "torsion": []}
    assert data["table"]["entries"]["-2,6"]["torsion"] == [2]


def _read_text_report(lines: list[str], pad: str = "", at: int = 0):
    """A --format text report read back into dicts and lists of strings:
    `key: value`, `- value` (or a bare `-`) per list item, `[]` and `{}`
    for empty containers, nested ones indented by two spaces."""
    out = None
    while at < len(lines) and lines[at].startswith(pad) and lines[at][len(pad)] != " ":
        body = lines[at][len(pad):]
        if body == "-" or body.startswith("- "):
            out, key, rest = out or [], None, body[2:]
        else:
            key, _, rest = body.partition(": " if ": " in body else ":")
            out = out or {}
        at += 1
        if rest:
            value = {"[]": [], "{}": {}}.get(rest, rest)
        else:
            value, at = _read_text_report(lines, pad + "  ", at)
        if key is None:
            out.append(value)
        else:
            out[key] = value
    return out, at


def _as_text_scalars(data):
    if isinstance(data, dict):
        return {k: _as_text_scalars(v) for k, v in data.items()}
    if isinstance(data, list):
        return [_as_text_scalars(v) for v in data]
    return str(data)


@pytest.mark.parametrize("argv", [
    ["homology", "tr(p(2))", "--window", "2"],
    ["homology", "hom(p(2),p(2))", "--window", "4"],
    ["project", "2", "--window", "2"],
])
def test_text_report_reads_back(tmp_path, capsys, argv):
    cdir = ["--cache-dir", str(tmp_path / "cache")]
    assert cli.main(argv + cdir) == 0
    data = json.loads(capsys.readouterr().out)
    assert cli.main(argv + cdir + ["--format", "text"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert _read_text_report(lines) == (_as_text_scalars(data), len(lines))
    if argv[1] == "tr(p(2))":
        assert lines[3:7] == [
            "    -2,2:", "      rank: 1", "      torsion: []", "      unreliable: True",
        ]
    elif argv[1].startswith("hom"):
        assert "      torsion:\n        - 2" in "\n".join(lines)


def test_homology_verify_mode(tmp_path, capsys):
    cdir = str(tmp_path / "cache")
    rc = cli.main(
        ["homology", "unknot(2)", "--window", "6", "--verify", "--cache-dir", cdir]
    )
    out = capsys.readouterr().out
    assert rc == 0
    data = json.loads(out)
    assert "verify" in data


def test_rewrite_command(tmp_path, capsys):
    rc = cli.main(["rewrite", "stack(beside(strand(1),p(2)),p(3))"])
    out = capsys.readouterr().out
    assert rc == 0
    assert json.loads(out)["normal_form"] == "p(3)"


def test_cache_commands(tmp_path, capsys):
    cdir = str(tmp_path / "cache")
    cli.main(["project", "2", "--window", "4", "--cache-dir", cdir])
    capsys.readouterr()
    assert cli.main(["cache", "ls", "--cache-dir", cdir]) == 0
    listing = json.loads(capsys.readouterr().out)
    assert len(listing["entries"]) == 1
    assert cli.main(["cache", "clear", "--cache-dir", cdir]) == 0
    cleared = json.loads(capsys.readouterr().out)
    assert cleared["removed"] == 1


def test_tangle_decoding_takes_only_ints():
    t = FlatTangle(2, 2, (1, 0, 3, 2))  # interned whatever ran before
    good = {"m": 2, "n": 2, "pairs": [1, 0, 3, 2], "circles": 0, "q": 0}
    assert ser.object_from_data(good) == ShiftedObject(t, 0)
    for field, bad in [("m", 2.0), ("n", True), ("circles", False), ("circles", 0.0),
                       ("q", 0.0), ("q", False), ("pairs", [1.0, 0, 3, 2]),
                       ("pairs", [True, 0, 3, 2]), ("m", "2")]:
        for _ in range(2):
            with pytest.raises(IntegrityError):
                ser.object_from_data({**good, field: bad})
    assert ser.object_from_data(good).tangle is t


def test_serialize_round_trip(p2_w8):
    data = ser.complex_to_data(p2_w8.complex)
    C = ser.complex_from_data(data)
    assert ser.complex_to_data(C) == data
    C.validate()


def test_hom_command(tmp_path, capsys):
    cdir = str(tmp_path / "cache")
    rc = cli.main(["hom", "p(2)", "p(2)", "--window", "6", "--cache-dir", cdir])
    out = capsys.readouterr().out
    assert rc == 0
    data = json.loads(out)
    assert data["table"]["entries"]["0,0"] == {"rank": 1, "torsion": []}


def test_project_command_builds_p3(tmp_path, capsys):
    cdir = str(tmp_path / "cache")
    rc = cli.main(["project", "3", "--window", "6", "--cache-dir", cdir])
    out = capsys.readouterr().out
    assert rc == 0
    data = json.loads(out)
    assert data["passed"] is True
    # cached reload is instant and identical
    rc = cli.main(["project", "3", "--window", "6", "--cache-dir", cdir])
    out2 = capsys.readouterr().out
    assert json.loads(out2) == data


def _run(argv, capsys) -> tuple[int, str]:
    rc = cli.main(argv)
    return rc, capsys.readouterr().out


def test_each_verb_takes_only_its_flags(tmp_path, capsys):
    cdir = str(tmp_path / "cache")
    for argv in (["hom", "p(2)", "p(2)", "--verify"],
                 ["euler", "theta(1,1,2)", "--spec", "alpha1"],
                 ["rewrite", "p(2)", "--window", "3", "--verify"],
                 ["rewrite", "p(2)", "--cache-dir", cdir],
                 ["project", "2", "--spec", "alpha1"],
                 ["check", "projector", "2", "--verify"],
                 ["cache", "ls", "--window", "3"],
                 ["check", "complex", "2"]):
        with pytest.raises(SystemExit) as ei:
            cli.main(argv)
        assert ei.value.code == 2, argv
    capsys.readouterr()


def test_benchmark_argvs_parse():
    import importlib.util
    import sys

    path = os.path.join(os.path.dirname(__file__), "..", "perfbench", "run.py")
    spec = importlib.util.spec_from_file_location("perfbench_run", path)
    bench = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = bench  # dataclasses look their module up there
    try:
        spec.loader.exec_module(bench)
    finally:
        del sys.modules[spec.name]
    parser = cli.build_arg_parser()
    argvs = []
    for workload in bench.WORKLOADS.values():
        argvs += [argv + ["--cache-dir", "c"] for argv in workload.setup]
        argvs += [op.resolve("c")["argv"] for op in workload.ops if op.spec["kind"] == "cli"]
    assert len(argvs) > 10
    for argv in argvs:
        parser.parse_args(argv)


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_check_reports_like_project(tmp_path, capsys, n):
    cdir = str(tmp_path / "cache")
    args = ["projector", str(n), "--window", "4", "--cache-dir", cdir]
    rc, out = _run(["check", *args], capsys)
    assert rc == 0
    checked = json.loads(out)
    rc, out = _run(["project", *args[1:]], capsys)
    assert rc == 0
    projected = json.loads(out)
    assert checked["certificate"] == projected["certificate"]
    assert checked["passed"] is projected["passed"] is True
    has_euler = any(line.startswith("euler") for line in checked["certificate"])
    assert has_euler == (n >= 2)


def test_closed_stdout_exits_quietly(tmp_path):
    import subprocess
    import sys

    r, w = os.pipe()
    os.close(r)  # every write to stdout now fails with EPIPE
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = {**os.environ, "PYTHONPATH": src}
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "spinhom.cli", "check", "projector", "0",
             "--window", "6", "--cache-dir", str(tmp_path / "cache")],
            stdout=w, stderr=subprocess.PIPE, env=env, timeout=120,
        )
    finally:
        os.close(w)
    assert proc.returncode == 0
    assert proc.stderr == b""


@pytest.mark.parametrize("argv", [
    ["homology", "hom(p(2),p(2))", "--window", "6"],
    ["homology", "theta(1,1,2)", "--window", "6"],
    ["homology", "tr(p(2))", "--window", "4"],
    ["hom", "p(2)", "p(2)", "--window", "6"],
])
def test_cold_run_equals_warm_run(tmp_path, capsys, argv):
    # a built projector and the same projector read back from the cache
    # carry one band, so both runs mark the same entries unreliable
    argv = argv + ["--cache-dir", str(tmp_path / "cache")]
    cold = _run(argv, capsys)
    assert cold[0] == 0
    assert _run(argv, capsys) == cold


@pytest.mark.parametrize("spec", ["alpha0", "alpha1"])
@pytest.mark.parametrize("a", ["p(3)", "vertex(2,1,1)"])
def test_hom_prints_the_homology_report(tmp_path, capsys, a, spec):
    flags = ["--window", "4", "--spec", spec, "--cache-dir", str(tmp_path / "cache")]
    hom = _run(["hom", a, a, *flags], capsys)
    assert hom[0] == 0
    assert _run(["homology", f"hom({a},{a})", *flags], capsys) == hom


def test_cache_entry_with_margin_loads(tmp_path):
    # entries written before Certificate lost its margin (always n) load as
    # they are: no rebuild, no rewrite
    cdir = str(tmp_path / "cache")
    P = cli.cached_projector(3, Window(-4, 0), cdir)
    (name,) = os.listdir(cdir)
    path = os.path.join(cdir, name)
    with open(path) as fh:
        entry = json.load(fh)
    assert "margin" not in entry["value"]["cert"]
    entry["value"]["cert"]["margin"] = 3
    entry["hash"] = cli._digest(entry["value"])
    old = json.dumps(entry)
    with open(path, "w") as fh:
        fh.write(old)
    Q = cli.cached_projector(3, Window(-4, 0), cdir)
    with open(path) as fh:
        assert fh.read() == old
    assert Q.certificate == P.certificate
    assert ser.complex_to_data(Q.complex) == ser.complex_to_data(P.complex)
    assert Q.complex.reliable == P.complex.reliable == (-1, float("inf"))


def _readme_cli_commands() -> list[list[str]]:
    import shlex

    path = os.path.join(os.path.dirname(__file__), "..", "README.md")
    with open(path) as fh:
        text = fh.read()
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line, comments=True) for line in block.splitlines()]
    return [argv[1:] for argv in commands if argv and argv[0] == "spinhom"]


def test_readme_cli_examples_cold_and_warm(tmp_path, capsys):
    # each example twice against one fresh cache: exit 0, the same stdout
    commands = _readme_cli_commands()
    assert len(commands) >= 7
    cdir = str(tmp_path / "cache")
    for argv in commands:
        if argv[0] != "rewrite":
            argv = argv + ["--cache-dir", cdir]
        cold = _run(argv, capsys)
        assert cold[0] == 0, argv
        assert _run(argv, capsys) == cold, argv
