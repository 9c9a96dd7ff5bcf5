"""End-to-end and per-layer benchmark of the steiner3 CLI.

Run from the root of a checkout:

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

NAME is one of desk, groups, sieve-text, sieve-json, or ``all`` for every
workload in turn.  The program under test is ``src/steiner3`` of the same
checkout; nothing needs installing.  Every workload is a closed loop: one
child process runs one CLI command at a time.

With ``--trace 0`` each CLI command runs as ``python3 -m steiner3.cli`` in its
own process, start-up included.  The set-up builds the workload's inputs
(where there are none, it makes a fresh directory and loads the program once);
it runs at least three times and for at least two seconds.  The timed phase
repeats the workload's command list until ``--seconds`` have passed, at least
once.  Workloads other than desk run the desk's eight pure-arithmetic commands
as a start-up probe, spread between their timed commands.

A shared machine can change speed by a quarter from one minute to the next,
so every timing is scaled to a fixed speed: ``reference.py``, a task that
uses nothing from steiner3, runs before the timed work and after every two
seconds of it, and each wall time is multiplied by REFERENCE_S over the mean
time of the reference runs around it.  The end-to-end metrics are:

    wall_s       summed scaled time of the command list, median over passes
    setup_s      scaled time of the set-up, median over its repeats
    cmd_p50_ms   median scaled time of a timed command
    startup_ms   median scaled time of the eight pure-arithmetic desk commands
    peak_rss_mb  largest peak RSS of any one command

The same times as measured (``raw_*``) and the reference time ``ref_ms`` are
printed as well, and, where the workload has the commands they need,
``flagcheck_s`` and ``autgroup_s`` (summed scaled time of those verbs per
pass), ``pairs_per_s`` ((v,k) pairs in a sieve workload's window over
``wall_s``) and ``fail_ratio``.

With ``--trace 1`` the set-up and command list run once untraced and once
through ``tracer.py``, which calls ``steiner3.cli.main`` in a fresh
interpreter per command with a span around every public function; the
per-layer metrics are the spans' calls, seconds, self seconds and errors,
the work counters, and the tracing overhead.

Every command's exit code and output are checked.  The last line of stdout
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(each ``{"value", "unit"}``).  The lines before it name every metric with
its unit and sample count, followed by the environment record.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

import harness
import workloads
from workloads import STARTUP_PROBE, STARTUP_VERBS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# the set-up runs at least this often and for at least this long
SETUP_REPEATS = 3
SETUP_SECONDS = 2.0
# Timings are scaled to a machine on which reference.py takes REFERENCE_S
# (about its median on the 2-vCPU Xeon machine where the baseline was made);
# the reference runs again after each stretch of REFERENCE_EVERY_S of work.
REFERENCE_S = 0.35
REFERENCE_EVERY_S = 2.0

LAYERS = ("cli", "gf", "design", "permgrp", "catalog", "sieve")  # the modules tracer.py wraps

# Spans reported as per-layer metrics, with the workloads on which each
# should move; a traced run of such a workload must record a call.
SPANS = {
    "cli.main": set(workloads.NAMES),
    "design.Design.block_index": {"groups"},
    "design.from_json": {"groups"},
    "design.to_json": {"groups"},
    "design.verify_steiner": {"desk"},
    "design.derived_design": {"desk"},
    "permgrp.block_action": {"groups"},
    "permgrp.is_flag_transitive": {"groups"},
    "permgrp.orbit": {"groups"},
    "permgrp.automorphism_group": {"groups"},
    "permgrp.group_order": {"groups"},
    "catalog.lexicode_codewords": {"desk"},
    "catalog.construct_boolean_affine": {"groups", "desk"},
    "catalog.construct_spherical": {"groups", "desk"},
    "catalog.construct_netto_extension": {"groups", "desk"},
    "catalog.construct_witt_22": {"desk"},
    "catalog.affine_group_generators": {"groups"},
    "catalog.projective_group_generators": {"groups"},
    "gf.FieldContext": {"groups"},
    "sieve.admissible_parameters": {"sieve-text", "sieve-json"},
}
COUNTERS = (
    "permgrp.orbit.states",
    "permgrp.automorphism_group.generators",
    "sieve.pairs_yielded",
    "sieve.pairs_admissible",
)

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "cmd_p50_ms": "ms",
    "startup_ms": "ms",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    """Every metric of a traced run, with its unit."""
    units = {}
    for span in SPANS:
        for suffix, unit in ((".calls", "count"), (".s", "s"), (".self_s", "s"), (".errors", "count")):
            units[span + suffix] = unit
    units["cli.import_ms"] = "ms"
    units.update(dict.fromkeys(COUNTERS, "count"))
    units["sieve.admissible_ratio"] = "ratio"
    units.update({f"layer.{layer}.self_s": "s" for layer in LAYERS})
    units.update({"trace.in_process_s": "s", "trace.wall_s": "s", "trace.overhead": "ratio"})
    return units


class Runner:
    """Runs and checks the commands of one benchmark run in its own directory."""

    def __init__(self):
        work_root = ROOT / ".bench_work"
        work_root.mkdir(exist_ok=True)
        self.work = Path(tempfile.mkdtemp(prefix="run-", dir=work_root))
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(self.work))
        self.attempted = 0
        self.failures: list[str] = []
        self.peak_rss_mb = 0.0
        self.min_rss_mb = float("inf")
        self._serial = 0

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)

    def fresh_dir(self) -> Path:
        return Path(tempfile.mkdtemp(prefix="dir-", dir=self.work))

    def _spawn(self, argv, cwd: Path, counted: bool = True) -> harness.Result:
        """Run a child; a counted one is an attempted operation of the program."""
        self._serial += 1
        base = self.work / f"out-{self._serial}"
        result = harness.run(
            argv, cwd, base.with_suffix(".stdout"), base.with_suffix(".stderr"), self.env
        )
        if counted:
            self.attempted += 1
            self.peak_rss_mb = max(self.peak_rss_mb, result.maxrss_mb)
            self.min_rss_mb = min(self.min_rss_mb, result.maxrss_mb)
        return result

    def fail(self, what: str, problem: str):
        self.failures.append(f"{what}: {problem}")

    def load_program(self, cwd: Path):
        """Import steiner3.cli in a fresh interpreter; check it is this checkout's."""
        expected = ROOT / "src" / "steiner3" / "cli.py"
        result = self._spawn(
            [sys.executable, "-c", "import steiner3.cli; print(steiner3.cli.__file__)"], cwd
        )
        loaded = result.stdout.read_text(encoding="utf-8").strip()
        if result.exit_code != 0 or Path(loaded).resolve() != expected:
            self.fail("import steiner3.cli", f"exit {result.exit_code}, loaded {loaded!r}")
        self._discard(result)

    def reference(self, cwd: Path) -> float:
        """Wall time of one run of the fixed reference task."""
        result = self._spawn([sys.executable, str(BENCH / "reference.py")], cwd, counted=False)
        self._discard(result)
        if result.exit_code != 0:
            raise RuntimeError(f"the reference task exited with {result.exit_code}")
        return result.wall_s

    def execute(self, command: workloads.Command, cwd: Path, traced: bool = False):
        """Run one CLI command and check it; return its result and trace."""
        args = list(command.args)
        trace_path = self.work / f"trace-{self._serial + 1}.json"
        if traced:
            argv = [sys.executable, str(BENCH / "tracer.py"), str(trace_path), "--", *args]
        else:
            argv = [sys.executable, "-m", "steiner3.cli", *args]
        result = self._spawn(argv, cwd)
        what = "steiner3 " + " ".join(args)
        stderr = result.stderr.read_text(encoding="utf-8", errors="replace")
        if result.exit_code != command.exit:
            self.fail(what, f"exit {result.exit_code}, expected {command.exit}: {stderr[-300:]!r}")
        elif "Traceback" in stderr:
            self.fail(what, f"traceback on stderr: {stderr[-300:]!r}")
        else:
            problem = workloads.check(result.stdout, command)
            if problem:
                self.fail(what, problem)
        trace = None
        if traced:
            try:
                trace = json.loads(trace_path.read_text(encoding="utf-8"))
            except (OSError, ValueError) as exc:
                self.fail(what, f"no trace written: {exc}")
            trace_path.unlink(missing_ok=True)
        self._discard(result)
        return result, trace

    @staticmethod
    def _discard(result: harness.Result):
        result.stdout.unlink(missing_ok=True)
        result.stderr.unlink(missing_ok=True)

    def set_up(self, workload: workloads.Workload, traced: bool = False):
        """Build the workload's inputs in a fresh directory.

        Returns the directory and the (result, trace) pair of each set-up
        command; a workload without inputs only loads the program once.
        """
        directory = self.fresh_dir()
        if not workload.setup:
            self.load_program(directory)
        return directory, [self.execute(c, directory, traced) for c in workload.setup]

    def check_rss(self):
        # a child inherits the harness's high-water mark at fork, so a child
        # peak at or below the harness's own may not be the child's
        own = harness.own_maxrss_mb()
        if own >= self.min_rss_mb:
            self.fail("peak RSS", f"harness RSS {own:.1f} MB >= smallest child {self.min_rss_mb:.1f} MB")


class Scaler:
    """Scales wall times to the reference task's nominal speed.

    The reference task runs first and again after each stretch of about
    REFERENCE_EVERY_S of timed work; a wall time is multiplied by
    REFERENCE_S over the mean time of the two reference runs around it.
    """

    def __init__(self, runner: Runner, cwd: Path):
        self.runner, self.cwd = runner, cwd
        self.refs = [runner.reference(cwd)]
        self.samples = []  # (kind, wall, index of the reference run before it)
        self.since = 0.0

    def add(self, kind: str, wall: float, elapsed: bool = True):
        """Record a sample; `elapsed` is False for a time already recorded."""
        self.samples.append((kind, wall, len(self.refs) - 1))
        self.since += wall if elapsed else 0.0
        if self.since >= REFERENCE_EVERY_S:
            self.refs.append(self.runner.reference(self.cwd))
            self.since = 0.0

    def close(self) -> tuple[dict, dict]:
        """Raw and scaled samples by kind."""
        if self.samples[-1][2] == len(self.refs) - 1:
            self.refs.append(self.runner.reference(self.cwd))
        around = [(a + b) / 2 for a, b in zip(self.refs, self.refs[1:])]
        raw, scaled = defaultdict(list), defaultdict(list)
        for kind, wall, k in self.samples:
            raw[kind].append(wall)
            scaled[kind].append(wall * REFERENCE_S / around[k])
        return raw, scaled


def measure(runner: Runner, workload: workloads.Workload, seconds: float):
    """The untraced run: returns {metric: (value, unit, samples)} and extras."""
    runner.load_program(runner.work)  # compiles bytecode and warms the file cache
    scaler = Scaler(runner, runner.work)
    setups = 0.0
    directory = None
    while len(scaler.samples) < SETUP_REPEATS or setups < SETUP_SECONDS:
        if directory is not None:
            shutil.rmtree(directory, ignore_errors=True)
        t0 = time.perf_counter()
        directory, _ = runner.set_up(workload)
        scaler.add("setup", time.perf_counter() - t0)
        setups += scaler.samples[-1][1]
    raw, scaled = scaler.close()
    refs = scaler.refs

    # Other workloads run the start-up probe spread between their timed
    # commands, so that its samples span the run as the desk's do.
    probe = [] if workload.name == "desk" else list(STARTUP_PROBE)
    per_gap = -(-len(probe) // len(workload.timed))
    probed = 0
    t0 = time.perf_counter()
    while "pass" not in raw or time.perf_counter() - t0 < seconds:
        pass_dir = directory if workload.setup else runner.fresh_dir()
        scaler = Scaler(runner, pass_dir)
        for command in workload.timed:
            result, _ = runner.execute(command, pass_dir)
            scaler.add(command.verb, result.wall_s)
            if workload.name == "desk" and command.verb in STARTUP_VERBS:
                scaler.add("startup", result.wall_s, elapsed=False)
            for _ in range(per_gap):
                start, _ = runner.execute(probe[probed % len(probe)], pass_dir)
                probed += 1
                scaler.add("startup", start.wall_s)
        for into, part in zip((raw, scaled), scaler.close()):
            commands = [w for kind, walls in part.items() if kind != "startup" for w in walls]
            into["cmd"] += commands
            into["pass"].append(sum(commands))
            into["startup"] += part.pop("startup", [])
            for verb, walls in part.items():
                into[f"{verb}_s"].append(sum(walls))
        refs += scaler.refs
        if pass_dir != directory:
            shutil.rmtree(pass_dir, ignore_errors=True)
    runner.check_rss()

    passes = len(raw["pass"])
    metrics = {
        "wall_s": (statistics.median(scaled["pass"]), "s", passes),
        "setup_s": (statistics.median(scaled["setup"]), "s", len(scaled["setup"])),
        "cmd_p50_ms": (statistics.median(scaled["cmd"]) * 1e3, "ms", len(scaled["cmd"])),
        "startup_ms": (statistics.median(scaled["startup"]) * 1e3, "ms", len(scaled["startup"])),
        "peak_rss_mb": (runner.peak_rss_mb, "MB", runner.attempted),
    }
    extras = {}
    # verb-specific figures: printed where the workload runs the verb
    for verb in ("flagcheck", "autgroup"):
        if f"{verb}_s" in scaled:
            extras[f"{verb}_s"] = (statistics.median(scaled[f"{verb}_s"]), "s", passes)
    if workload.pairs:
        extras["pairs_per_s"] = (workload.pairs / metrics["wall_s"][0], "1/s", passes)
    extras["fail_ratio"] = (len(runner.failures) / runner.attempted, "ratio", runner.attempted)
    # the same times as measured, before scaling
    extras["raw_wall_s"] = (statistics.median(raw["pass"]), "s", passes)
    extras["raw_setup_s"] = (statistics.median(raw["setup"]), "s", len(raw["setup"]))
    extras["raw_cmd_p50_ms"] = (statistics.median(raw["cmd"]) * 1e3, "ms", len(raw["cmd"]))
    extras["raw_startup_ms"] = (statistics.median(raw["startup"]) * 1e3, "ms", len(raw["startup"]))
    extras["ref_ms"] = (statistics.median(refs) * 1e3, "ms", len(refs))
    extras["harness_rss_mb"] = (harness.own_maxrss_mb(), "MB", 1)
    return metrics, extras


def trace(runner: Runner, workload: workloads.Workload):
    """The traced run: returns {metric: (value, unit, samples)} and extras."""
    runner.load_program(runner.work)
    walls = {}
    reports = []
    for traced in (False, True):
        directory, runs = runner.set_up(workload, traced)
        runs += [runner.execute(c, directory, traced) for c in workload.timed]
        walls[traced] = sum(result.wall_s for result, _ in runs)
        if traced:
            reports = [report for _, report in runs if report is not None]

    spans = defaultdict(lambda: [0, 0.0, 0.0, 0])
    counters = defaultdict(int)
    for report in reports:
        for name, values in report["spans"].items():
            for i, value in enumerate(values):
                spans[name][i] += value
        for name, value in report["counters"].items():
            counters[name] += value

    n = len(reports)
    metrics = {}
    for name, movers in SPANS.items():
        calls, total, self_s, errors = spans[name]
        if workload.name in movers and calls == 0:
            runner.fail("trace", f"span {name} recorded no call on {workload.name}")
        metrics[f"{name}.calls"] = (calls, "count", n)
        metrics[f"{name}.s"] = (total, "s", n)
        metrics[f"{name}.self_s"] = (self_s, "s", n)
        metrics[f"{name}.errors"] = (errors, "count", n)
    metrics["cli.import_ms"] = (statistics.median([r["import_s"] * 1e3 for r in reports]), "ms", n)
    for name in COUNTERS:
        metrics[name] = (counters[name], "count", n)
    yielded = counters["sieve.pairs_yielded"]
    ratio = counters["sieve.pairs_admissible"] / yielded if yielded else 0.0
    metrics["sieve.admissible_ratio"] = (ratio, "ratio", n)
    for layer in LAYERS:
        own = sum(v[2] for name, v in spans.items() if name.startswith(layer + "."))
        metrics[f"layer.{layer}.self_s"] = (own, "s", n)
    in_process = spans["cli.main"][1]
    metrics["trace.in_process_s"] = (in_process, "s", n)
    metrics["trace.wall_s"] = (walls[True], "s", n)
    metrics["trace.overhead"] = (walls[True] / walls[False], "ratio", n)

    covered = metrics["layer.permgrp.self_s"][0] + metrics["layer.design.self_s"][0]
    extras = {
        "untraced_wall_s": (walls[False], "s", n),
        "permgrp_design_share": (covered / in_process if in_process else 0.0, "ratio", n),
        "fail_ratio": (len(runner.failures) / runner.attempted, "ratio", runner.attempted),
    }
    busy = sorted((v[2], name, v[0]) for name, v in spans.items() if v[0])
    for self_s, name, calls in busy[::-1][:12]:
        extras[f"self_s.{name}"] = (self_s, "s", calls)
    return metrics, extras


def run_workload(name: str, seed: int, seconds: float, traced: bool):
    """One benchmark run of a workload: (correct, attempted, failed, metrics, extras)."""
    workload = workloads.build(name, seed)
    runner = Runner()
    try:
        if traced:
            metrics, extras = trace(runner, workload)
        else:
            metrics, extras = measure(runner, workload, seconds)
    finally:
        runner.close()
    declared = per_layer_units() if traced else END_TO_END
    if {m: unit for m, (_, unit, _) in metrics.items()} != declared:
        raise RuntimeError("metrics differ from the declared names and units")
    failed = len(runner.failures)
    for failure in runner.failures[:20]:
        print(f"FAIL {name}: {failure}", file=sys.stderr)
    return failed == 0, runner.attempted, failed, metrics, extras


def _line(name: str, value, unit: str, samples: int) -> str:
    shown = f"{value:.6g}" if isinstance(value, float) else str(value)
    return f"{name:<44} {shown:>14} {unit:<6} n={samples}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so that the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "steiner3" / "cli.py").is_file():
        print(f"error: no steiner3 sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        ok, tried, bad, found, extras = run_workload(name, args.seed, args.seconds, args.trace == 1)
        correct &= ok
        attempted += tried
        failed += bad
        print(f"# workload {name}: {workloads.WHY[name]}")
        for metric, (value, unit, samples) in {**found, **extras}.items():
            print(_line(metric, value, unit, samples))
        prefix = f"{name}." if args.workload == "all" else ""
        metrics.update(
            {prefix + m: {"value": value, "unit": unit} for m, (value, unit, _) in found.items()}
        )
    env = harness.environment(ROOT, args.seed, dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    print("# environment " + json.dumps(env))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
