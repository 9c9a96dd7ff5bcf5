"""A fixed reference task: the unit of the benchmark's relative timings.

The machine the benchmark runs on may change speed from one minute to the
next when it is shared.  ``run.py`` runs this task between the CLI commands
and scales each command's wall time by the time of the reference runs
around it, so that such drift cancels.  Like a CLI command, the
task starts an interpreter, imports NumPy and then does pure-Python work on
dicts, sets and sorted tuples.  It uses nothing from steiner3, so a change to
the program never changes it; changing it changes every relative metric.
"""

import numpy  # noqa: F401  (the CLI's start-up imports NumPy too)


def work() -> int:
    counts: dict[int, int] = {}
    for i in range(100_000):
        key = (i * 7919) % 100_003
        counts[key] = counts.get(key, 0) + 1
    items = sorted(counts.items())
    return len({key ^ 1 for key, _ in items})


if __name__ == "__main__":
    work()
