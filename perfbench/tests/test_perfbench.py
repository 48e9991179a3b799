"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench/tests -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
from tracer import Tracer  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_of_nested_spans():
    clock = FakeClock()
    t = Tracer(clock)

    def inner():
        clock.now += 2.0

    def recurse(depth):
        clock.now += 1.0
        if depth:
            traced_recurse(depth - 1)

    traced_inner = t.span("inner", inner)
    traced_recurse = t.span("recurse", recurse)

    def outer():
        clock.now += 1.0
        traced_inner()
        clock.now += 0.5
        traced_inner()
        traced_recurse(2)

    t.span("outer", outer)()
    spans = t.report()["spans"]
    assert spans["outer"] == {"calls": 1, "self_s": 1.5, "total_s": 8.5}
    assert spans["inner"] == {"calls": 2, "self_s": 4.0, "total_s": 4.0}
    # a recursive span counts each level's own second once, and its
    # outermost duration once
    assert spans["recurse"] == {"calls": 3, "self_s": 3.0, "total_s": 3.0}


def test_counters_and_peaks_merge_across_processes():
    a = {"spans": {"s": {"calls": 1, "self_s": 1.0, "total_s": 2.0}},
         "counts": {"complexes.simplify_peak_objects": 7, "n": 1}}
    b = {"spans": {"s": {"calls": 2, "self_s": 0.5, "total_s": 0.5}},
         "counts": {"complexes.simplify_peak_objects": 3, "n": 4}}
    merged = bench.merge_traces([a, b])
    assert merged["spans"]["s"] == {"calls": 3, "self_s": 1.5, "total_s": 2.5}
    assert merged["counts"] == {"complexes.simplify_peak_objects": 7, "n": 5}
    # span times in reference seconds; calls and counts are not scaled
    merged = bench.merge_traces([a, b], [0.5, 2.0])
    assert merged["spans"]["s"] == {"calls": 3, "self_s": 1.5, "total_s": 2.0}
    assert merged["counts"] == {"complexes.simplify_peak_objects": 7, "n": 5}


def test_times_are_scaled_by_the_calibration_around_them():
    ref = bench.CALIBRATION_REF_S
    # the machine ran the calibration loop at half speed around the operation
    run = bench.OpRun(JW4, 0, b"", 3.0, 2.0, 0,
                      cal_before=(1.5 * ref, 2 * ref), cal_after=(2.5 * ref, 2 * ref))
    assert run.ref_wall_s == pytest.approx(1.5)
    assert run.ref_cpu_s == pytest.approx(1.0)
    wall, cpu = bench.calibrate()
    assert 0 < cpu <= wall * 1.05


def _runner(tmp_path, ops, setup=()):
    bench.WORKLOADS["synthetic"] = bench.Workload(ops=ops, setup=list(setup))
    return bench.Runner("synthetic", tmp_path)


@pytest.fixture(autouse=True)
def _drop_synthetic():
    yield
    bench.WORKLOADS.pop("synthetic", None)


JW4 = bench.Op("jw4", {"kind": "jones_wenzl", "args": [4]})
PARSE_ERROR = bench.cli("parse error", "homology", "theta(1,", cache="empty")


def test_gate_catches_a_changed_answer(tmp_path):
    runner = _runner(tmp_path, [JW4])
    (good,) = runner.iteration()
    reference = {"jw4": {"exit": good.exit, "sha256": good.digest}}
    runner.check([good], reference)
    assert runner.problems == []
    changed = bench.OpRun(JW4, good.exit, good.stdout + b" ", 0.0, 0.0, 0)
    runner.check([changed], reference)
    assert len(runner.problems) == 1 and "jw4" in runner.problems[0]


def test_gate_requires_the_two_hom_routes_to_agree(tmp_path):
    op = bench.Op("hom", {"kind": "duality", "args": [2, 4]}, "setup")
    out = json.dumps({"duality_alpha0": {"0,0": [1, [], False]},
                      "direct_alpha0": {"0,0": [2, [], False]},
                      "duality_alpha1": {}}).encode()
    run = bench.OpRun(op, 0, out, 0.0, 0.0, 0)
    runner = _runner(tmp_path, [op])
    runner.check([run], {"hom": {"exit": 0, "sha256": run.digest}})
    assert runner.problems == ["hom: duality and direct tables differ"]


def test_fail_ratio_counts_a_nonzero_exit(tmp_path, capsys):
    runner = _runner(tmp_path, [JW4, PARSE_ERROR])
    reference = {r.op.name: {"exit": r.exit, "sha256": r.digest} for r in runner.iteration()}
    result = bench.measure(runner, 0.0, False, reference)
    assert result["correct"]
    assert (result["attempted"], result["failed"]) == (2, 1)
    assert result["metrics"]["ok_ratio"]["value"] == 0.5
    assert "fail_ratio: 1/2" in capsys.readouterr().out


def test_no_in_process_cache_survives_between_operations(tmp_path):
    runner = _runner(tmp_path, [JW4, JW4])
    first, second = runner.iteration(trace=True)
    assert first.trace["cache_entries_at_start"] == 0
    assert second.trace["cache_entries_at_start"] == 0
    # a reused interpreter would answer jones_wenzl(4) from functools.cache
    calls = first.trace["counts"]["tl.compose_matchings_calls"]
    assert calls > 0 and second.trace["counts"]["tl.compose_matchings_calls"] == calls


def test_benchmark_json_names_what_the_runner_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: unit for k, (unit, _) in bench.PER_LAYER.items()}
    reference = json.loads(bench.REFERENCE.read_text())
    for name, workload in bench.WORKLOADS.items():
        assert sorted(reference[name]) == sorted(op.name for op in workload.ops)


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_bytes(f.read_bytes())
    (tmp_path / "perfbench" / "reference.json").write_bytes(bench.REFERENCE.read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tl_oracle", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
