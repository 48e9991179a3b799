"""CLI: grammar, commands, cache round-trip, determinism, exit codes."""

import json

import pytest

from spinhom import cli
from spinhom import expr as ex
from spinhom import projector as pj
from spinhom import serialize as ser
from spinhom.complexes import Window
from spinhom.errors import ParseError


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
