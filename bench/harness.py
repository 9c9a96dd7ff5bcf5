"""Process running and the environment record for the benchmark.

Every CLI command runs as its own child process with stdout and stderr
streamed to files, so the harness never buffers a large output and its own
memory high-water mark (which a child inherits at fork) stays small.  The
child is reaped with ``os.wait4`` to read its own peak RSS.
"""

from __future__ import annotations

import os
import platform
import re
import resource
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

# A command that runs longer than this is killed and counted as failed.
COMMAND_LIMIT_S = 150.0


@dataclass
class Result:
    exit_code: int
    wall_s: float
    maxrss_mb: float
    stdout: Path
    stderr: Path


def run(argv, cwd: Path, stdout: Path, stderr: Path, env: dict) -> Result:
    """Run one child to completion; time it and read its peak RSS."""
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, stdout=out, stderr=err, env=env)
        # The timer may only signal an unreaped child: waitid(WNOWAIT) leaves
        # the child a zombie until the timer is joined, so its pid cannot be
        # reused by another process before then.
        timer = threading.Timer(COMMAND_LIMIT_S, os.kill, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            wall = time.perf_counter() - t0
        except BaseException:
            proc.kill()
            raise
        finally:
            timer.cancel()
            timer.join()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
    return Result(
        exit_code=proc.returncode,
        wall_s=wall,
        maxrss_mb=usage.ru_maxrss / 1024.0,
        stdout=stdout,
        stderr=stderr,
    )


def own_maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- environment record --------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _numpy_version(env: dict) -> str | None:
    # asked of a child so the harness itself never imports NumPy
    out = subprocess.run(
        [sys.executable, "-c", "import numpy; print(numpy.__version__)"],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def environment(root: Path, seed: int, env: dict) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": _numpy_version(env),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": re.sub(r"\s+", " ", _cpu_model()),
        "commit": _git_commit(root),
        "seed": seed,
    }
