"""Self-checks of the benchmark itself.

Usage (from the root of a checkout):

    python3 bench/selftest.py                      # declarations only, instant
    python3 bench/selftest.py --repeat groups sieve-json

The first form checks that ``BENCHMARK.json`` follows the benchmark format
and declares exactly the metrics, units and workloads that ``run.py``
produces: every name uses only letters, digits, ``_``, ``.`` and ``-``, and
every metric carries a unit.  ``--repeat`` also runs the traced benchmark
twice on each named workload and checks that every work count (every metric
in unit ``count``, such as ``design.Design.block_index.calls``,
``permgrp.orbit.states``, ``sieve.pairs_yielded`` and
``permgrp.automorphism_group.generators``) repeats exactly.
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

import run
import workloads

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
PATH = re.compile(r"[A-Za-z0-9_./-]{1,200}")


def check_declarations(root: Path) -> list[str]:
    problems = []
    doc = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(doc) != keys:
        problems.append(f"BENCHMARK.json keys {sorted(doc)} != {sorted(keys)}")
        return problems
    for path in doc["paths"]:
        if not PATH.fullmatch(path) or path.startswith("/") or ".." in path.split("/"):
            problems.append(f"bad path {path!r}")
        elif not (root / path).is_dir():
            problems.append(f"path {path!r} is not a directory")
    if not 1 <= doc["run_seconds"] <= 60 or not isinstance(doc["run_seconds"], int):
        problems.append(f"run_seconds {doc['run_seconds']} outside 1..60")

    names = [w["name"] for w in doc["workloads"]]
    if tuple(names) != workloads.NAMES:
        problems.append(f"workloads {names} != {list(workloads.NAMES)}")
    for w in doc["workloads"]:
        if set(w) != {"name", "why"} or w["why"] != workloads.WHY.get(w["name"]):
            problems.append(f"workload entry {w} differs from workloads.WHY")

    for key, declared in (("end_to_end", run.END_TO_END), ("per_layer", run.per_layer_units())):
        fields = {"name", "unit", "better"} | ({"bound"} if key == "end_to_end" else set())
        listed = {}
        for metric in doc[key]:
            if set(metric) != fields:
                problems.append(f"{key} entry {metric} does not have exactly {sorted(fields)}")
                continue
            if not NAME.fullmatch(metric["name"]) or not UNIT.fullmatch(metric["unit"]):
                problems.append(f"{key} entry {metric} has a malformed name or unit")
            if metric["better"] not in ("lower", "higher"):
                problems.append(f"{key} entry {metric} has better={metric['better']!r}")
            if key == "end_to_end" and not 0 < metric["bound"] <= 0.25:
                problems.append(f"{key} entry {metric} has a bound outside (0, 0.25]")
            listed[metric["name"]] = metric["unit"]
        if listed != declared:
            problems.append(f"{key} in BENCHMARK.json differs from run.py: {listed} != {declared}")
    every = names + list(run.END_TO_END) + list(run.per_layer_units())
    if len(every) != len(set(every)):
        problems.append("a name is used twice")
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["bound"] < max(m["bound"] for m in doc["end_to_end"]):
        problems.append("setup_s must carry the largest bound")
    return problems


def traced_counts(root: Path, workload: str) -> dict:
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--trace", "1"],
        cwd=root,
        capture_output=True,
        text=True,
        check=True,
    )
    result = json.loads(out.stdout.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"traced {workload} run was not correct:\n{out.stderr}")
    return {k: m["value"] for k, m in result["metrics"].items() if m["unit"] == "count"}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeat", nargs="*", default=(), choices=workloads.NAMES)
    args = parser.parse_args()
    root = Path(__file__).resolve().parent.parent

    problems = check_declarations(root)
    for workload in args.repeat:
        first, second = traced_counts(root, workload), traced_counts(root, workload)
        differ = [name for name in sorted(first) if first[name] != second.get(name)]
        for name in differ:
            problems.append(f"{workload}: {name} was {first[name]}, then {second.get(name)}")
        if not differ:
            print(f"{workload}: {len(first)} work counts repeat exactly")
    for problem in problems:
        print("FAIL " + problem)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
