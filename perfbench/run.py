"""The spinhom benchmark: four fixed workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload NAME --record

NAME is one of WORKLOADS, or ``all`` to run each in turn, each ending with
its own result line.

Closed loop, one client: the operations of a workload run one after another,
each in a fresh interpreter (``worker.py``), repeated until ``--seconds`` have
passed.  Every answer is checked against ``reference.json``.  Each time is
scaled by the speed of the machine at that moment, measured by running the
fixed program ``calibration.py`` just before and after it (see ``calibrate``).
The last line of standard output is one JSON object; with ``--trace 0`` its
metrics are the end-to-end ones of ``BENCHMARK.json``, with ``--trace 1`` the
per-layer ones, taken from one extra traced pass.  ``--record`` rewrites the
workload's reference digests instead of checking them.  NOTES.md explains the
choices.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
CALIBRATION = HERE / "calibration.py"
REFERENCE = HERE / "reference.json"
SCRATCH = ROOT / ".perfbench_tmp"

SETUP_REPEATS = 3
OP_TIMEOUT_S = 90

# About the seconds calibration.py takes on the reference machine (2 vCPUs,
# Python 3.11) in its fast state.  Reported times are in these reference
# seconds: measured seconds x CALIBRATION_REF_S / calibration seconds.
CALIBRATION_REF_S = 0.12


def scaled(seconds: float, before: float, after: float) -> float:
    """seconds in reference seconds, given the calibration times around it."""
    return seconds * CALIBRATION_REF_S / ((before + after) / 2)


@dataclass(frozen=True)
class Op:
    """One operation.  cache: "none", "empty" (a new empty cache directory)
    or "setup" (a fresh copy of the cache the workload's set-up filled);
    writes: cache entries the operation must add."""

    name: str
    spec: dict
    cache: str = "none"
    writes: int = 0

    def resolve(self, cache_dir: str | None) -> dict:
        if cache_dir is None:
            return self.spec
        if self.spec["kind"] == "cli":
            return {**self.spec, "argv": self.spec["argv"] + ["--cache-dir", cache_dir]}
        return {**self.spec, "args": self.spec["args"] + [cache_dir]}


@dataclass(frozen=True)
class Workload:
    ops: list[Op]
    setup: list[list[str]] = field(default_factory=list)  # spinhom argv's
    misses: int = 0  # cache misses the traced pass must count


def cli(name: str, *argv: str, cache: str, writes: int = 0) -> Op:
    return Op(name, {"kind": "cli", "argv": list(argv)}, cache, writes)


QUERY_WINDOW = "6"

WORKLOADS = {
    "projector_cold": Workload(
        ops=[
            cli("project 3 @-6", "project", "3", "--window", "6", cache="empty", writes=1),
            cli("project 4 @-4", "project", "4", "--window", "4", cache="empty", writes=1),
        ],
        setup=[["cache", "ls"]],
        misses=2,
    ),
    "query_warm": Workload(
        ops=[
            cli(f"{verb} {' '.join(args)}", verb, *args, "--window", QUERY_WINDOW, cache="setup")
            for verb, *args in [
                ("homology", "theta(2,3,3)"),
                ("homology", "theta(2,2,2)", "--spec", "alpha1"),
                ("euler", "theta(2,2,2)"),
                ("euler", "theta(1,2,3)"),
                ("hom", "p(3)", "p(3)"),
                ("homology", "tr(stack(vertex(3,1,2),dual(vertex(3,1,2))))"),
                ("homology", "hom(p(3),p(3))", "--verify"),
                ("homology", "theta(1,2,3)", "--verify"),
            ]
        ],
        setup=[["project", str(n), "--window", QUERY_WINDOW] for n in (1, 2, 3)],
    ),
    "duality_homology": Workload(
        ops=[
            Op(f"hom(P{n}@-{w}, P{n}@-{w})", {"kind": "duality", "args": [n, w]}, "setup")
            for n, w in [(2, 16), (3, 5), (3, 6)]
        ],
        setup=[["project", "2", "--window", "16"], ["project", "3", "--window", "5"],
               ["project", "3", "--window", "6"]],
    ),
    "tl_oracle": Workload(
        ops=[
            Op("markov_trace(jones_wenzl(6))", {"kind": "jones_wenzl", "args": [6]}),
            Op("evaluate_network(theta(3,3,4))", {"kind": "theta", "args": [3, 3, 4]}),
        ],
        setup=[["cache", "ls"]],
    ),
}

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "ok_ratio": "ratio",
}

# Per-layer metric -> (unit, source).  A span source is (span, field): calls,
# self_s (span minus its child spans) or total_s (outermost spans of the name).
PER_LAYER = {
    "cob.compose_calls": ("count", ("cob.compose", "calls")),
    "cob.compose_s": ("s", ("cob.compose", "total_s")),
    "complexes.simplify_calls": ("count", ("complexes.simplify", "calls")),
    "complexes.simplify_s": ("s", ("complexes.simplify", "self_s")),
    "complexes.simplify_objects_in": ("count", "complexes.simplify_objects_in"),
    "complexes.simplify_objects_out": ("count", "complexes.simplify_objects_out"),
    "complexes.simplify_peak_objects": ("count", "complexes.simplify_peak_objects"),
    "complexes.planar_calls": ("count", ("complexes.planar", "calls")),
    "complexes.planar_s": ("s", ("complexes.planar", "self_s")),
    "complexes.hom_s": ("s", ("complexes.hom", "self_s")),
    "projector.build_s": ("s", ("projector.build", "total_s")),
    "projector.sweep_stacks": ("count", "projector.sweep_stacks"),
    "projector.certify_s": ("s", ("projector.certify", "total_s")),
    "projector.rewrite_s": ("s", ("projector.rewrite", "total_s")),
    "homology.table_s": ("s", ("homology.table", "self_s")),
    "homology.rank_calls": ("count", ("homology.rank", "calls")),
    "homology.rank_s": ("s", ("homology.rank", "total_s")),
    "homology.snf_calls": ("count", ("homology.snf", "calls")),
    "homology.snf_s": ("s", ("homology.snf", "total_s")),
    "homology.matrix_cells": ("count", "homology.matrix_cells"),
    "laurent.poly_mul_calls": ("count", "laurent.poly_mul_calls"),
    "laurent.poly_add_calls": ("count", "laurent.poly_add_calls"),
    "laurent.ratfunc_ops": ("count", "laurent.ratfunc_ops"),
    "tl.jones_wenzl_s": ("s", ("tl.jones_wenzl", "total_s")),
    "tl.evaluate_s": ("s", ("tl.evaluate", "total_s")),
    "tl.compose_matchings_calls": ("count", "tl.compose_matchings_calls"),
    "cli.cache_hits": ("count", "cli.cache_hits"),
    "cli.cache_misses": ("count", "cli.cache_misses"),
    "serialize.decode_s": ("s", ("serialize.decode", "total_s")),
    "serialize.encode_s": ("s", ("serialize.encode", "total_s")),
    "trace.overhead_s": ("s", None),
}
PEAK_COUNTS = {"complexes.simplify_peak_objects"}


@dataclass
class OpRun:
    op: Op
    exit: int
    stdout: bytes
    wall_s: float
    cpu_s: float
    rss_kb: int
    trace: dict | None = None
    # calibrate() times before and after the operation, (wall, cpu) each
    cal_before: tuple[float, float] = (CALIBRATION_REF_S, CALIBRATION_REF_S)
    cal_after: tuple[float, float] = (CALIBRATION_REF_S, CALIBRATION_REF_S)

    @property
    def ref_wall_s(self) -> float:
        return scaled(self.wall_s, self.cal_before[0], self.cal_after[0])

    @property
    def ref_cpu_s(self) -> float:
        return scaled(self.cpu_s, self.cal_before[1], self.cal_after[1])

    @property
    def digest(self) -> str:
        return hashlib.sha256(b"%d\n" % self.exit + self.stdout).hexdigest()


def timed_process(cmd: list[str], **popen) -> tuple:
    """Run cmd to its end; return (exit, wall_s, cpu_s, max RSS KB)."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, **popen)
    timer = threading.Timer(OP_TIMEOUT_S, _kill, (proc.pid,))
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        _kill(proc.pid)
        proc.wait()
        raise
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss


def run_process(spec: dict, workdir: Path, trace_path: Path | None = None) -> tuple:
    """Run worker.py on spec; return (exit, stdout, wall_s, cpu_s, max RSS KB)."""
    cmd = [sys.executable, "-s", str(WORKER), json.dumps(spec)]
    if trace_path is not None:
        cmd.append(str(trace_path))
    env = {k: v for k, v in os.environ.items() if k != "SPINHOM_CACHE_DIR"}
    out_path = workdir / "stdout"
    with open(out_path, "wb") as out, open(workdir / "stderr", "wb") as err:
        rc, wall, cpu, rss = timed_process(cmd, stdout=out, stderr=err, cwd=workdir, env=env)
    if rc:
        sys.stderr.write((workdir / "stderr").read_text(errors="replace")[-400:])
    return rc, out_path.read_bytes(), wall, cpu, rss


def calibrate() -> tuple[float, float]:
    """Wall and CPU seconds of calibration.py, the shared host's current speed.

    The host alternates between a fast state and one about 40 % slower, each
    lasting seconds to minutes, and spinhom slows with it.  Dividing each
    operation's times by this fixed program's, measured the same way right
    before and after the operation, removes most of that drift (NOTES.md,
    "Noise").  It runs in its own process so that the runner's own memory
    stays small: a child's maximum RSS includes the runner's at the fork."""
    rc, wall, cpu, _ = timed_process([sys.executable, "-s", str(CALIBRATION)])
    if rc:
        raise SystemExit(f"calibration.py exited {rc}")
    return wall, cpu


def _kill(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


class Runner:
    """Runs one workload inside a scratch directory of the checkout."""

    def __init__(self, name: str, scratch: Path):
        self.name = name
        self.workload = WORKLOADS[name]
        self.scratch = scratch
        self.template: Path | None = None
        self.problems: list[str] = []
        # the latest calibrate() result; one call between two operations
        # serves as the after of one and the before of the next
        self.calibration: tuple[float, float] | None = None

    def fresh_dir(self) -> Path:
        return Path(tempfile.mkdtemp(dir=self.scratch))

    def setup(self) -> float:
        """Fill a cache the workload's "setup" operations copy; return its
        time in reference seconds."""
        cache = self.fresh_dir()
        before = calibrate()[0]
        self.calibration = None
        start = time.perf_counter()
        for argv in self.workload.setup:
            rc, *_ = run_process({"kind": "cli", "argv": argv + ["--cache-dir", str(cache)]},
                                 self.scratch)
            if rc:
                raise SystemExit(f"set-up command {argv} exited {rc}")
        seconds = scaled(time.perf_counter() - start, before, calibrate()[0])
        if self.template is not None:
            shutil.rmtree(self.template)
        self.template = cache
        return seconds

    def run_op(self, op: Op, trace: bool = False) -> OpRun:
        workdir = self.fresh_dir()
        try:
            cache = None
            if op.cache == "empty":
                cache = workdir / "cache"
                cache.mkdir()
            elif op.cache == "setup":
                cache = workdir / "cache"
                shutil.copytree(self.template, cache)
            before = set(os.listdir(cache)) if cache else set()
            trace_path = workdir / "trace.json" if trace else None
            cal_before = self.calibration or calibrate()
            rc, stdout, wall, cpu, rss = run_process(
                op.resolve(None if cache is None else str(cache)), workdir, trace_path)
            self.calibration = calibrate()
            run = OpRun(op, rc, stdout, wall, cpu, rss,
                        cal_before=cal_before, cal_after=self.calibration)
            if cache is not None:
                after = set(os.listdir(cache))
                if not before <= after or len(after - before) != op.writes:
                    self.problems.append(
                        f"{op.name}: cache went from {len(before)} to {len(after)} "
                        f"entries, expected {op.writes} new")
            if trace:
                run.trace = json.loads(trace_path.read_text())
            return run
        finally:
            shutil.rmtree(workdir)

    def iteration(self, trace: bool = False) -> list[OpRun]:
        return [self.run_op(op, trace) for op in self.workload.ops]

    def check(self, runs: list[OpRun], reference: dict) -> None:
        """The answer gate: every output equals the one recorded at the
        reference commit, and the two Hom routes agree within the run."""
        for run in runs:
            want = reference.get(run.op.name)
            if want is None or want["sha256"] != run.digest:
                self.problems.append(
                    f"{run.op.name}: exit {run.exit}, output digest {run.digest[:16]} "
                    f"differs from the reference {want}")
            if run.op.spec["kind"] == "duality" and run.exit == 0:
                tables = json.loads(run.stdout)
                if tables["duality_alpha0"] != tables["direct_alpha0"]:
                    self.problems.append(f"{run.op.name}: duality and direct tables differ")


def tail_summary(samples: list[float]) -> str:
    """Median and the highest percentile with at least ten samples beyond it."""
    n = len(samples)
    text = f"median {statistics.median(samples):.4f}, n={n}"
    for p in (99, 95, 90, 75):
        if n * (100 - p) / 100 >= 10:
            return text + f", p{p} {statistics.quantiles(samples, n=100)[p - 1]:.4f}"
    return text + ", no tail percentile (p75 needs n >= 40)"


def merge_traces(traces: list[dict], scales: list[float] | None = None) -> dict:
    """Sum the spans and counts of several processes.  Each process's span
    times are multiplied by its scale: reference seconds per second."""
    spans: dict[str, dict] = {}
    counts: dict[str, int] = {}
    for tr, scale in zip(traces, scales or [1.0] * len(traces)):
        for name, rec in tr["spans"].items():
            acc = spans.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            for k, v in rec.items():
                acc[k] += v if k == "calls" else v * scale
        for name, v in tr["counts"].items():
            counts[name] = max(counts.get(name, 0), v) if name in PEAK_COUNTS \
                else counts.get(name, 0) + v
    return {"spans": spans, "counts": counts}


def layer_metrics(trace: dict, overhead_s: float) -> dict:
    out = {}
    for name, (unit, source) in PER_LAYER.items():
        if source is None:
            value = overhead_s
        elif isinstance(source, tuple):
            value = trace["spans"].get(source[0], {}).get(source[1], 0)
        else:
            value = trace["counts"].get(source, 0)
        out[name] = {"value": value, "unit": unit}
    return out


def measure(runner: Runner, seconds: float, trace: bool, reference: dict) -> dict:
    repeats = 1 if trace else SETUP_REPEATS
    setups = [runner.setup() for _ in range(repeats)]
    iterations: list[list[OpRun]] = []
    start = time.perf_counter()
    while not iterations or time.perf_counter() - start < seconds:
        iterations.append(runner.iteration())
    for runs in iterations:
        runner.check(runs, reference)
    all_runs = [r for runs in iterations for r in runs]
    walls = [sum(r.ref_wall_s for r in runs) for runs in iterations]
    cpus = [sum(r.ref_cpu_s for r in runs) for runs in iterations]
    raw_walls = [sum(r.wall_s for r in runs) for runs in iterations]
    if trace:
        traced = runner.iteration(trace=True)
        runner.check(traced, reference)
        all_runs += traced
        merged = merge_traces([r.trace for r in traced],
                              [r.ref_wall_s / r.wall_s for r in traced])
        for r in traced:
            if r.trace["cache_entries_at_start"]:
                runner.problems.append(f"{r.op.name}: in-process caches were not empty")
        misses = merged["counts"].get("cli.cache_misses", 0)
        if misses != runner.workload.misses:
            runner.problems.append(
                f"cli.cache_misses is {misses}, expected {runner.workload.misses}")
        traced_wall = sum(r.ref_wall_s for r in traced)
        metrics = layer_metrics(merged, traced_wall - statistics.median(walls))
    failed = sum(1 for r in all_runs if r.exit != 0)
    attempted = len(all_runs)
    print(f"workload {runner.name}: passes={len(iterations)}, "
          f"operations per pass={len(runner.workload.ops)}")
    print(f"times in reference seconds (calibrate() = {CALIBRATION_REF_S} s); "
          f"unscaled wall time per pass: median {statistics.median(raw_walls):.4f}")
    print(f"wall_s [s]: {tail_summary(walls)}")
    print(f"cpu_s [s]: {tail_summary(cpus)}")
    print(f"setup_s [s]: {tail_summary(setups)}")
    print(f"fail_ratio: {failed}/{attempted}")
    if not trace:
        metrics = {
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(cpus),
            "peak_rss_mb": max(r.rss_kb for r in all_runs) / 1024,
            "setup_s": statistics.median(setups),
            "ok_ratio": (attempted - failed) / attempted,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}
    for name, m in metrics.items():
        print(f"  {name} = {m['value']} {m['unit']}")
    for p in runner.problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    return {"correct": not runner.problems, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def record(runner: Runner) -> None:
    runner.setup()
    runs = runner.iteration()
    table = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    table[runner.name] = {r.op.name: {"exit": r.exit, "sha256": r.digest} for r in runs}
    REFERENCE.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    for r in runs:
        print(f"{r.op.name}: exit {r.exit} {r.digest}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0,
                    help="recorded only: the inputs are fixed mathematical objects")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args(argv)
    if not (SRC / "spinhom" / "__init__.py").is_file():
        print(f"no spinhom sources under {SRC}", file=sys.stderr)
        return 2
    if not args.record and not REFERENCE.is_file():
        print(f"no reference digests at {REFERENCE}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    compileall.compile_dir(str(SRC), quiet=1)
    SCRATCH.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=SCRATCH))
    correct = True
    try:
        if not args.record:
            print(f"seed {args.seed} (inputs do not depend on it)")
        for name in names:
            runner = Runner(name, Path(tempfile.mkdtemp(prefix=f"{name}-", dir=scratch)))
            if args.record:
                record(runner)
                continue
            reference = json.loads(REFERENCE.read_text())[name]
            result = measure(runner, args.seconds, bool(args.trace), reference)
            print(json.dumps(result, sort_keys=True))
            correct = correct and result["correct"]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
