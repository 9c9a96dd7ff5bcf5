"""The benchmark's workloads: their commands, seed handling and output checks.

A command is the argument list of one ``steiner3`` CLI call together with
what a correct run prints.  An expected exit 1 (a failed property check the
command is meant to find) counts as a success; a traceback or any other exit
code counts as a failed command.

Seed 0 gives the canonical inputs.  Another seed rotates the command order
of ``desk`` (only among commands whose input files already exist) and of
``groups``, and shifts each sieve window by a seed-derived offset while
keeping its width.  A sieve window is screened by consecutive commands over
sub-windows of about equal pair counts.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

# verbs whose work is desk arithmetic, so their wall time is start-up
STARTUP_VERBS = frozenset({"sieve", "classify", "cyclotomic", "zsigmondy", "rnagell"})


@dataclass(frozen=True)
class Command:
    args: tuple[str, ...]
    exit: int = 0
    lines: tuple[str, ...] = ()  # lines stdout must contain
    exact: str | None = None  # the whole of stdout, where it is fixed
    # extra check on the stdout file; returns a failure message or None
    check: Callable[[Path], str | None] | None = field(default=None, compare=False)

    @property
    def verb(self) -> str:
        return self.args[0]

    @property
    def needs(self) -> tuple[str, ...]:
        """Input files, which an earlier command of the same directory writes."""
        return tuple(
            a
            for i, a in enumerate(self.args)
            if a.endswith((".json", ".gens")) and self.args[i - 1] != "--out"
        )

    @property
    def makes(self) -> str | None:
        return self.args[self.args.index("--out") + 1] if "--out" in self.args else None


def cmd(line: str, exit: int = 0, lines=(), exact=None, check=None) -> Command:
    if isinstance(lines, str):
        lines = (lines,)
    return Command(tuple(line.split()), exit, tuple(lines), exact, check)


@dataclass(frozen=True)
class Workload:
    name: str
    setup: tuple[Command, ...]  # builds the inputs of the timed commands
    timed: tuple[Command, ...]
    pairs: int = 0  # (v,k) pairs in the sieve window of a sieve workload


def check(result_stdout: Path, command: Command) -> str | None:
    """Failure message for a command's stdout, or None when it is correct."""
    if command.exact is not None or command.lines:
        text = result_stdout.read_text(encoding="utf-8", errors="replace")
        if command.exact is not None and text != command.exact:
            return f"stdout {text[:200]!r} != expected {command.exact[:200]!r}"
        present = set(text.splitlines())
        for line in command.lines:
            if line not in present:
                return f"missing line {line!r}"
    if command.check is not None:
        return command.check(result_stdout)
    return None


# -- closed forms ----------------------------------------------------------------


def steiner_b(v: int, k: int) -> int:
    """Block count of a 3-(v,k,1) design."""
    return math.comb(v, 3) // math.comb(k, 3)


def agl_order(d: int) -> int:
    """|AGL(d,2)| = 2^d * prod_{i<d} (2^d - 2^i)."""
    order = 1 << d
    for i in range(d):
        order *= (1 << d) - (1 << i)
    return order


def pgaml_order(p: int, f: int) -> int:
    """|PGammaL(2,p^f)| = f * q (q^2 - 1)."""
    q = p**f
    return f * q * (q * q - 1)


def psl_order(q: int) -> int:
    """|PSL(2,q)| for odd q."""
    return q * (q * q - 1) // 2


def _order_chain(expected: int) -> Callable[[Path], str | None]:
    """`order` output: the closed-form order and a consistent stabilizer chain."""

    def verify(path: Path) -> str | None:
        fields = dict(
            line.split(": ", 1)
            for line in path.read_text(encoding="utf-8").splitlines()
            if ": " in line
        )
        if fields.get("order") != str(expected):
            return f"order {fields.get('order')} != {expected}"
        chain = [int(x) for x in fields.get("stabilizer orders", "").split(",") if x]
        if not chain or chain[0] != expected or chain[-1] != 1:
            return f"stabilizer chain {chain} does not run from {expected} to 1"
        for above, below in zip(chain, chain[1:]):
            if above % below:
                return f"stabilizer order {below} does not divide {above}"
        return None

    return verify


# -- desk: the README reproduction guide ------------------------------------------

DESK = (
    cmd("construct --family affine --d 3 --out aff3.json", lines="3-(8,4,1), b=14"),
    cmd("construct --family affine --d 4 --out aff4.json", lines="3-(16,4,1), b=140"),
    cmd("construct --family affine --d 5 --out aff5.json", lines="3-(32,4,1), b=1240"),
    cmd("construct --family spherical --q 3 --e 2 --out s32.json", lines="3-(10,4,1), b=30"),
    cmd("construct --family spherical --q 3 --e 3 --out s33.json", lines="3-(28,4,1), b=819"),
    cmd("construct --family spherical --q 4 --e 2 --out s42.json", lines="3-(17,5,1), b=68"),
    cmd("construct --family netto --q 7 --out n7.json", lines="3-(8,4,1), b=14"),
    cmd("construct --family netto --q 19 --out n19.json", lines="3-(20,4,1), b=285"),
    cmd("construct --family witt --out witt.json", lines="3-(22,6,1), b=77"),
    cmd("verify witt.json", lines="ok"),
    cmd("params witt.json", lines=("b: 77", "r: 21", "lambda2: 5")),
    cmd("groupgens --family affine --kind AGL_1 --d 3 --out agl18.gens", lines="degree: 8"),
    cmd("flagcheck aff3.json --gens agl18.gens", lines=("flag orbit: 56", "flag-transitive: yes")),
    cmd("groupgens --family projective --kind PGL --q 3 --e 2 --out pgl29.gens", lines="degree: 10"),
    cmd("flagcheck s32.json --gens pgl29.gens", lines="flag-transitive: yes"),
    cmd("groupgens --family projective --kind PSL --q 3 --e 2 --out psl29.gens", lines="degree: 10"),
    cmd("flagcheck s32.json --gens psl29.gens", exit=1, lines=("flag-transitive: no", "block orbits: 2")),
    cmd("order pgl29.gens", lines="order: 720"),
    cmd("order agl18.gens", lines="order: 56"),
    cmd("groupgens --family affine --kind AGammaL_1 --d 5 --out agl132.gens", lines="degree: 32"),
    cmd("order agl132.gens", lines="order: 4960"),
    cmd("autgroup witt.json --out m22_2.gens", lines="order: 887040"),
    cmd("order m22_2.gens", lines="order: 887040"),
    cmd("derive s32.json --point 9 --out lines.json", lines="2-(9,3,1), b=12"),
    cmd("derive n19.json --point 19 --out netto19.json", lines="2-(19,3,1), b=57"),
    cmd("derive witt.json --point 21 --out w21.json", lines="2-(21,5,1), b=21"),
    cmd("verify lines.json", lines="ok"),
    cmd("sieve --v-min 16 --v-max 16", exact="v=16 k=4 admissible\n"),
    cmd(
        "sieve --v-min 22 --v-max 22",
        exact="v=22 k=4 admissible\nv=22 k=6 admissible cameron-equality (listed)\n",
    ),
    cmd(
        "classify --v 8 --k 4",
        exact="affine(d=3): AGL(3,2); AGL(1,8); AGammaL(1,8)\n"
        "netto(q=7): PSL(2,7); PSigmaL(2,7)\n",
    ),
    cmd("classify --v 12 --k 4", exact="none\n"),
    cmd("cyclotomic --d 6 --q 2", exact="Phi_6(2) = 3\nf = 3\nn = 1\nPhi*_6(2) = 1\n"),
    cmd("zsigmondy --q 2 --n 6", exact="none\n"),
    cmd("zsigmondy --q 2 --n 11", exact="23,89\n"),
    cmd("rnagell --max-n 63", exact="x=5 n=3\nx=7 n=5\nx=9 n=6\nx=23 n=9\n"),
)

# The start-up probe: the desk's pure-arithmetic commands, run by the other
# workloads so that every workload measures start-up the same way.
STARTUP_PROBE = tuple(c for c in DESK if c.verb in STARTUP_VERBS)


def _rotate_topological(commands, shift: int) -> tuple[Command, ...]:
    """Commands reordered by a rotated priority, each after its inputs exist.

    Shift 0 keeps the given order, which must already be a valid one.
    """
    n = len(commands)
    pending = list(range(n))
    made: set[str] = set()
    order = []
    while pending:
        ready = [i for i in pending if all(f in made for f in commands[i].needs)]
        i = min(ready, key=lambda j: (j - shift) % n)
        pending.remove(i)
        order.append(commands[i])
        if commands[i].makes:
            made.add(commands[i].makes)
    return tuple(order)


def _rotate(commands, shift: int) -> tuple[Command, ...]:
    shift %= len(commands)
    return tuple(commands[shift:] + commands[:shift])


# -- groups: group theory at the top of the supported range -------------------------


GROUPS_SETUP = tuple(
    cmd(line, lines=f"3-({v},{k},1), b={steiner_b(v, k)}")
    for line, v, k in (
        ("construct --family affine --d 5 --out aff5.json", 32, 4),
        ("construct --family affine --d 6 --out aff6.json", 64, 4),
        ("construct --family affine --d 7 --out aff7.json", 128, 4),
        ("construct --family netto --q 43 --out n43.json", 44, 4),
        ("construct --family netto --q 127 --out n127.json", 128, 4),
        ("construct --family spherical --q 3 --e 3 --out s33.json", 28, 4),
        ("construct --family spherical --q 5 --e 3 --out s53.json", 126, 6),
    )
) + tuple(
    cmd(line, lines=(f"degree: {degree}", f"generators: {count}"))
    for line, degree, count in (
        # AGL(d,2) has d translations and d(d-1) transvections
        ("groupgens --family affine --kind AGL_d_2 --d 6 --out agl62.gens", 64, 6 * 6),
        ("groupgens --family affine --kind AGL_d_2 --d 7 --out agl72.gens", 128, 7 * 7),
        ("groupgens --family affine --kind AGammaL_1 --d 7 --out agaml128.gens", 128, 3),
        ("groupgens --family projective --kind PSL --q 127 --e 1 --out psl127.gens", 128, 3),
        ("groupgens --family projective --kind PGammaL --q 5 --e 3 --out pgaml125.gens", 126, 4),
    )
)

GROUPS_TIMED = (
    cmd("flagcheck aff6.json --gens agl62.gens",
        lines=(f"flag orbit: {steiner_b(64, 4) * 4}", "flag-transitive: yes")),
    cmd("flagcheck n127.json --gens psl127.gens", lines="flag-transitive: yes"),
    # AGammaL(1,128) has order 128*127*7, fewer than the 341376 flags
    cmd("flagcheck aff7.json --gens agaml128.gens", exit=1,
        lines=("preserves blocks: yes", "flag-transitive: no")),
    cmd("flagcheck s53.json --gens pgaml125.gens", lines="flag-transitive: yes"),
    cmd("order agl72.gens", check=_order_chain(agl_order(7))),
    cmd("autgroup n43.json --out aut_n43.gens", lines=f"order: {psl_order(43)}"),
    cmd("autgroup s33.json --out aut_s33.gens", lines=f"order: {pgaml_order(3, 3)}"),
    cmd("autgroup aff5.json --out aut_aff5.gens", lines=f"order: {agl_order(5)}"),
)


# -- sieve-text and sieve-json: the (v,k) admissibility sweep -------------------------

# SHA-256 of the stdout of each canonical sub-window, as printed when the
# benchmark was written; in text mode the five outputs joined are exactly
# those of one `sieve --v-min 4 --v-max 20000`.
SIEVE_DIGESTS = {
    ("text", 4, 6910): "8e5fd79173ec93b472d7dabb3cc22c5ce4f2f7b450dc0c30969cb60d964cba67",
    ("text", 6911, 10914): "4ea723a1a76d2ba5ef5dbebdd4df15d1c303a6d8072a6c82316a019eb94075e6",
    ("text", 10915, 14266): "5fce8522160731b5c0ed88b4c96af02c380bd6a7de36be3cc2816418aa8862e6",
    ("text", 14267, 17255): "1af0b63ea7c7fabae0901d674b0cfd76b14a55d2639a7d2d1f81fbc5acdea009",
    ("text", 17256, 20000): "8a74415a3a79b25c4302cf09e3fcb7e0c4f017c53104712afa82640fefcdbfe2",
    ("json", 4, 3174): "f8b8f35ef0642b240122db0fb26403e41b7e42f905b2fa4efa1f162b0781f5da",
    ("json", 3175, 5000): "b2a11870543cb1dc72f91ffd85d32f47fdd478a397726bcc5f54ab0f77597638",
}

# (k, v) of the t = 3 Cameron equality cases listed in the paper
_LISTED = {(4, 8), (6, 22), (12, 112)}
_CHECK_NAMES = (
    "b_integral",
    "r_integral",
    "lambda2_integral",
    "blocksize_bound",
    "cameron_a",
    "cameron_b",
)
SAMPLE_V = 300


def block_sizes(v: int) -> range:
    """Screened block sizes: 4 <= k with (2k-3)^2 <= 4v."""
    k = 4
    while (2 * k - 3) ** 2 <= 4 * v:
        k += 1
    return range(4, k)


def pair_count(v_min: int, v_max: int) -> int:
    return sum(len(block_sizes(v)) for v in range(v_min, v_max + 1))


def split_window(v_min: int, v_max: int, parts: int) -> list[tuple[int, int]]:
    """Consecutive sub-windows of [v_min, v_max] with about equal pair counts."""
    total = pair_count(v_min, v_max)
    out, screened, lo = [], 0, v_min
    for v in range(v_min, v_max):
        screened += len(block_sizes(v))
        if len(out) < parts - 1 and screened * parts >= total * (len(out) + 1):
            out.append((lo, v))
            lo = v + 1
    out.append((lo, v_max))
    return out


def rescreen(v: int) -> list[dict]:
    """The sieve's reports for one v, recomputed from the definitions."""
    out = []
    for k in block_sizes(v):
        checks = {
            "b_integral": math.comb(v, 3) % math.comb(k, 3) == 0,
            "r_integral": math.comb(v - 1, 2) % math.comb(k - 1, 2) == 0,
            "lambda2_integral": (v - 2) % (k - 2) == 0,
            "blocksize_bound": (2 * k - 3) ** 2 <= 4 * v,
            "cameron_a": v >= 4 * (k - 2),
            "cameron_b": v - 2 >= (k - 1) * (k - 2),
        }
        equality = v - 2 == (k - 1) * (k - 2)
        out.append(
            {
                "v": v,
                "k": k,
                "checks": checks,
                "admissible": all(checks.values()),
                "cameron_equality": equality,
                "equality_listed": equality and (k, v) in _LISTED,
            }
        )
    return out


def _text_line(report: dict) -> str:
    line = f"v={report['v']} k={report['k']} admissible"
    if report["cameron_equality"]:
        line += " cameron-equality"
        if report["equality_listed"]:
            line += " (listed)"
    return line


def _digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _sample(v_min: int, v_max: int, seed: int) -> set[int]:
    rng = random.Random(seed)
    span = range(v_min, v_max + 1)
    return {v_min, v_max, *rng.sample(span, min(SAMPLE_V, len(span)))}


_TEXT_LINE = re.compile(r"v=(\d+) k=(\d+) admissible( cameron-equality( \(listed\))?)?")


def _check_text(v_min: int, v_max: int, seed: int) -> Callable[[Path], str | None]:
    def verify(path: Path) -> str | None:
        digest = SIEVE_DIGESTS.get(("text", v_min, v_max))
        if digest is not None:
            return None if _digest(path) == digest else "stdout digest differs"
        by_v: dict[int, list[str]] = {}
        last = (0, 0)
        for line in path.read_text(encoding="utf-8").splitlines():
            m = _TEXT_LINE.fullmatch(line)
            if not m:
                return f"malformed line {line!r}"
            key = (int(m.group(1)), int(m.group(2)))
            if key <= last or not v_min <= key[0] <= v_max:
                return f"line {line!r} out of order or outside the window"
            last = key
            by_v.setdefault(key[0], []).append(line)
        for v in sorted(_sample(v_min, v_max, seed)):
            want = [_text_line(r) for r in rescreen(v) if r["admissible"]]
            if by_v.get(v, []) != want:
                return f"v={v}: printed {by_v.get(v, [])}, re-screen gives {want}"
        return None

    return verify


def _json_records(path: Path):
    """Stream the records of a JSON array without loading the whole file."""
    decoder = json.JSONDecoder()
    with open(path, encoding="utf-8") as fh:
        buf = fh.read(1 << 16)
        if not buf.startswith("["):
            raise ValueError("output is not a JSON array")
        pos = 1
        while True:
            if len(buf) - pos < 1 << 12:
                buf = buf[pos:] + fh.read(1 << 16)
                pos = 0
            if buf.startswith("]", pos):
                if buf[pos:] != "]\n" or fh.read(1):
                    raise ValueError("trailing data after the JSON array")
                return
            record, pos = decoder.raw_decode(buf, pos)
            yield record
            if buf.startswith(",", pos):
                pos += 1


def _check_json(v_min: int, v_max: int, seed: int) -> Callable[[Path], str | None]:
    def verify(path: Path) -> str | None:
        digest = SIEVE_DIGESTS.get(("json", v_min, v_max))
        if digest is not None:
            return None if _digest(path) == digest else "stdout digest differs"
        sample = _sample(v_min, v_max, seed)
        expected = ((v, k) for v in range(v_min, v_max + 1) for k in block_sizes(v))
        due: dict[int, dict] = {}  # re-screened reports of the sampled v being read
        try:
            for record in _json_records(path):
                want = next(expected, None)
                if (record.get("v"), record.get("k")) != want:
                    return f"record {record} where {want} was due"
                if list(record["checks"]) != list(_CHECK_NAMES):
                    return f"record {record} names other checks"
                if record["admissible"] != all(record["checks"].values()):
                    return f"record {record} is inconsistent"
                v, k = want
                if v in sample:
                    if k == 4:
                        due = {r["k"]: r for r in rescreen(v)}
                    if record != due[k]:
                        return f"record {record} disagrees with the re-screen {due[k]}"
        except (ValueError, KeyError, TypeError) as exc:
            return f"unreadable JSON report: {exc}"
        if next(expected, None) is not None:
            return "report ends before the window does"
        return None

    return verify


# -- the workloads -------------------------------------------------------------------

WHY = {
    "desk": "the 35 README reproduction commands: desk-scale work, so interpreter start-up and import dominate",
    "groups": "flag checks, orders and automorphism searches up to 128 points: the permgrp and design layers dominate",
    "sieve-text": "sieve over 4 <= v <= 20000 in text mode: the sieve layer does the work, under 1% reaches stdout",
    "sieve-json": "sieve over 4 <= v <= 5000 with --json: every pair is serialised, so CLI output formatting dominates",
}
# mode, window and number of sub-windows of the sieve workloads: a window is
# screened by consecutive commands of about two seconds each, so that the
# reference runs between them can follow the machine's speed
SIEVE_WINDOWS = {
    "sieve-text": ("text", 4, 20000, 5),
    "sieve-json": ("json", 4, 5000, 2),
}
NAMES = tuple(WHY)

# seeded windows move by at most this share of their width
_MAX_SHIFT = 1 / 400


def build(name: str, seed: int) -> Workload:
    rng = random.Random(seed)
    if name == "desk":
        timed = _rotate_topological(DESK, 0 if seed == 0 else rng.randrange(len(DESK)))
        return Workload(name, (), timed)
    if name == "groups":
        setup = GROUPS_SETUP
        if seed:
            setup = _rotate(setup, rng.randrange(len(setup)))
            timed = _rotate(GROUPS_TIMED, rng.randrange(len(GROUPS_TIMED)))
        else:
            timed = GROUPS_TIMED
        return Workload(name, setup, timed)
    if name in SIEVE_WINDOWS:
        mode, v_min, v_max, parts = SIEVE_WINDOWS[name]
        if seed:
            shift = rng.randint(1, max(1, int((v_max - v_min) * _MAX_SHIFT)))
            v_min, v_max = v_min + shift, v_max + shift
        flag, checker = (" --json", _check_json) if mode == "json" else ("", _check_text)
        timed = tuple(
            cmd(f"sieve --v-min {lo} --v-max {hi}{flag}", check=checker(lo, hi, seed))
            for lo, hi in split_window(v_min, v_max, parts)
        )
        return Workload(name, (), timed, pairs=pair_count(v_min, v_max))
    raise ValueError(f"unknown workload {name!r}, expected one of {NAMES}")
