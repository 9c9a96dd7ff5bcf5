"""Command-line interface for batch construction, verification and sieving.

Exit codes: 0 on success, 1 when a property check fails (verification
witness, missing transitivity), 2 for usage or input-format errors: every
library error derives from Steiner3Error and maps to 2.
Output is deterministic byte-for-byte for identical inputs.
As the process entry (`python -m steiner3.cli`, the `steiner3` script),
`main` freezes the import-time heap out of garbage collection.
"""

from __future__ import annotations

import argparse
import gc
import sys
from itertools import islice
from pathlib import Path
from typing import Iterator

from .catalog import (
    AFFINE_KINDS,
    PROJECTIVE_KINDS,
    CatalogError,
    affine_group_generators,
    classify,
    construct_boolean_affine,
    construct_netto_extension,
    construct_spherical,
    construct_witt_22,
    projective_group_generators,
)
from .design import (
    DesignError,
    block_limit,
    derived_design,
    from_json,
    params_of,
    to_json,
    verify_steiner,
)
from .errors import Steiner3Error
from .permgrp import (
    PermutationError,
    SetNotPreserved,
    automorphism_group,
    format_generators,
    group_order,
    is_flag_transitive,
    parse_generators,
)
from .sieve import (
    SieveReport,
    admissible_parameters,
    cyclotomic_eval,
    ramanujan_nagell,
    zsigmondy_ppd,
)
from .trace import emit

USAGE_ERROR = 2
CHECK_FAILED = 1
# sieve reports per stdout write: few system calls even when stdout is
# unbuffered, and one chunk (about 50 KB of JSON) held at a time
SIEVE_WRITE_CHUNK = 256


def _read(path: str, load, error: type[ValueError]):
    """load(the file's bytes), with an error that names a non-UTF-8 file."""
    try:
        return load(Path(path).read_bytes())
    except UnicodeDecodeError as exc:
        raise error(f"{path} is not UTF-8 text: {exc}") from None


def _load_design(path: str):
    return _read(path, from_json, DesignError)


def _load_generators(path: str):
    return _read(path, lambda data: parse_generators(data.decode("utf-8")), PermutationError)


def _summary_line(design) -> str:
    return f"{design.t}-({design.v},{design.k},1), b={design.b}"


def cmd_construct(args) -> int:
    if args.family == "affine":
        if args.d is None:
            raise CatalogError("affine construction needs --d")
        design = construct_boolean_affine(args.d)
    elif args.family == "spherical":
        if args.q is None or args.e is None:
            raise CatalogError("spherical construction needs --q and --e")
        design = construct_spherical(args.q, args.e)
    elif args.family == "netto":
        if args.q is None:
            raise CatalogError("netto construction needs --q")
        design = construct_netto_extension(args.q)
    else:
        design = construct_witt_22()
    Path(args.out).write_text(to_json(design), encoding="utf-8")
    print(_summary_line(design))
    return 0


def cmd_verify(args) -> int:
    design = _load_design(args.design)
    report = verify_steiner(design, args.t)
    print(_summary_line(design))
    if report.ok:
        print("ok")
        return 0
    print(f"fail: subset {','.join(map(str, report.witness))} lies in {report.count} blocks")
    return CHECK_FAILED


def cmd_derive(args) -> int:
    design = _load_design(args.design)
    derived = derived_design(design, args.point)
    Path(args.out).write_text(to_json(derived), encoding="utf-8")
    print(_summary_line(derived))
    return 0


def cmd_params(args) -> int:
    params = params_of(_load_design(args.design))
    for name, value in (
        ("t", params.t),
        ("v", params.v),
        ("k", params.k),
        ("lambda", params.lam),
        ("b", params.b),
        ("r", params.r),
        ("lambda2", params.lambda2),
    ):
        print(f"{name}: {value}")
    return 0


def cmd_flagcheck(args) -> int:
    design = _load_design(args.design)
    block_limit(design.v, design.k, design.b)
    gens = _load_generators(args.gens)
    try:
        report = is_flag_transitive(design, gens)
    except SetNotPreserved as exc:
        print("preserves blocks: no")
        print(f"witness block: {','.join(map(str, exc.witness))}")
        return CHECK_FAILED
    print(f"points: {report.v}")
    print(f"blocks: {report.b}")
    print(f"flags: {report.flag_count}")
    print("preserves blocks: yes")
    print(f"flag orbit: {report.flag_orbit_size}")
    print(f"flag-transitive: {'yes' if report.flag_transitive else 'no'}")
    print(f"block orbits: {report.block_orbit_count}")
    print(f"block orbit sizes: {','.join(map(str, report.block_orbit_sizes))}")
    print(f"point orbits: {report.point_orbit_count}")
    print(f"point pair orbits: {report.point_pair_orbit_count}")
    print(f"point 2-transitive: {'yes' if report.point_2_transitive else 'no'}")
    return 0 if report.flag_transitive else CHECK_FAILED


def cmd_autgroup(args) -> int:
    design = _load_design(args.design)
    gens = automorphism_group(design)
    summary = group_order(gens)
    Path(args.out).write_text(
        format_generators(gens, comment=f"automorphism group, order {summary.order}"),
        encoding="utf-8",
    )
    print(f"order: {summary.order}")
    return 0


def cmd_order(args) -> int:
    summary = group_order(_load_generators(args.gens))
    print(f"order: {summary.order}")
    print(f"base: {','.join(map(str, summary.base))}")
    print(f"stabilizer orders: {','.join(map(str, summary.stabilizer_orders))}")
    return 0


def _write_joined(pieces: Iterator[str], sep: str, head: str = "", tail: str = "") -> None:
    """Write head + sep.join(pieces) + tail to stdout, one write per
    SIEVE_WRITE_CHUNK pieces (the tail is written only if non-empty)."""
    write = sys.stdout.write
    chunks = iter(lambda: list(islice(pieces, SIEVE_WRITE_CHUNK)), [])
    write(head + sep.join(next(chunks, ())))
    for chunk in chunks:
        write(sep + sep.join(chunk))
    if tail:
        write(tail)


def _sieve_line(report: SieveReport) -> str:
    if not report.cameron_equality:
        return f"v={report.v} k={report.k} admissible\n"
    listed = " (listed)" if report.equality_listed else ""
    return f"v={report.v} k={report.k} admissible cameron-equality{listed}\n"


def cmd_sieve(args) -> int:
    reports = admissible_parameters(args.v_min, args.v_max, admissible_only=not args.json)
    # stream in bounded chunks so large sweeps stay constant-memory
    if args.json:
        _write_joined(map(SieveReport.as_json, reports), ",", "[", "]\n")
    else:
        _write_joined(map(_sieve_line, reports), "")
    return 0


def cmd_classify(args) -> int:
    rows = classify(args.v, args.k)
    if not rows:
        print("none")
        return 0
    for row in rows:
        print(row.describe())
    return 0


def cmd_cyclotomic(args) -> int:
    result = cyclotomic_eval(args.d, args.q)
    print(f"Phi_{result.d}({result.q}) = {result.phi}")
    print(f"f = {result.f}")
    print(f"n = {result.n}")
    print(f"Phi*_{result.d}({result.q}) = {result.phi_star}")
    return 0


def cmd_zsigmondy(args) -> int:
    result = zsigmondy_ppd(args.q, args.n)
    if result.primitive_primes:
        print(",".join(map(str, result.primitive_primes)))
    else:
        print("none")
    return 0


def cmd_rnagell(args) -> int:
    for x, n in ramanujan_nagell(args.max_n):
        print(f"x={x} n={n}")
    return 0


def cmd_groupgens(args) -> int:
    if args.family == "affine":
        if args.d is None:
            raise CatalogError("affine generators need --d")
        gens = affine_group_generators(args.kind, args.d)
        label = f"{args.kind} d={args.d}"
    else:
        if args.q is None or args.e is None:
            raise CatalogError("projective generators need --q and --e")
        gens = projective_group_generators(args.kind, args.q, args.e)
        label = f"{args.kind} q={args.q} e={args.e}"
    Path(args.out).write_text(
        format_generators(gens, comment=label), encoding="utf-8"
    )
    print(f"degree: {gens.degree}")
    print(f"generators: {len(gens.gens)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="steiner3",
        description="Constructions and checks for flag-transitive Steiner 3-designs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a catalogue design, write JSON")
    p.add_argument("--family", required=True, choices=("affine", "spherical", "netto", "witt"))
    p.add_argument("--d", type=int)
    p.add_argument("--q", type=int)
    p.add_argument("--e", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="exhaustive Steiner verification")
    p.add_argument("design")
    p.add_argument("--t", type=int, default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("derive", help="derived design at a point")
    p.add_argument("design")
    p.add_argument("--point", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_derive)

    p = sub.add_parser("params", help="exact design parameters")
    p.add_argument("design")
    p.set_defaults(func=cmd_params)

    p = sub.add_parser("flagcheck", help="transitivity report for a generator file")
    p.add_argument("design")
    p.add_argument("--gens", required=True)
    p.set_defaults(func=cmd_flagcheck)

    p = sub.add_parser("autgroup", help="automorphism group by backtracking search")
    p.add_argument("design")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_autgroup)

    p = sub.add_parser("order", help="exact group order from a generator file")
    p.add_argument("gens")
    p.set_defaults(func=cmd_order)

    p = sub.add_parser("sieve", help="screen (v,k) parameter admissibility")
    p.add_argument("--v-min", type=int, required=True)
    p.add_argument("--v-max", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_sieve)

    p = sub.add_parser("classify", help="catalogue rows for given (v,k)")
    p.add_argument("--v", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("cyclotomic", help="cyclotomic evaluation with reduction")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.set_defaults(func=cmd_cyclotomic)

    p = sub.add_parser("zsigmondy", help="primitive prime divisors of q^n - 1")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_zsigmondy)

    p = sub.add_parser("rnagell", help="solutions of x^2 - 17 = 2^n")
    p.add_argument("--max-n", type=int, required=True)
    p.set_defaults(func=cmd_rnagell)

    p = sub.add_parser("groupgens", help="write catalogue group generators")
    p.add_argument("--family", required=True, choices=("affine", "projective"))
    p.add_argument("--kind", required=True, choices=AFFINE_KINDS + PROJECTIVE_KINDS)
    p.add_argument("--d", type=int)
    p.add_argument("--q", type=int)
    p.add_argument("--e", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_groupgens)

    return parser


def main(argv=None) -> int:
    if argv is not None:
        return _run(argv)
    # process entry: the import-time heap lives to exit, so no collection need walk it
    gc.freeze()
    code = _run(None)
    emit(
        "cli.gc",
        frozen=gc.get_freeze_count(),
        collections=[gen["collections"] for gen in gc.get_stats()],
    )
    return code


def _run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    try:
        return args.func(args)
    except (Steiner3Error, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
