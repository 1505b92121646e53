"""Command-line front end: sequence values, exact sums, identity checks,
grid verification, benchmarks and the catalog listing.

Exit codes: 0 success/verified, 1 verification failure or internal error, 2 usage error.
"""

from __future__ import annotations

import argparse
import os
import re
import statistics
import sys
import time
from dataclasses import replace
from fractions import Fraction

from . import quadfield, sequences
from .identities import (
    SLOT_ORDER,
    IdentityId,
    IdentityParams,
    catalog,
    descriptor,
    eval_pair,
)
from .sequences import SequenceKind, direct_sum, fib, lucas
from .verify import (
    VerificationRecord,
    decimal_str,
    default_grid_specs,
    dump_json,
    record_to_json,
    stream_grids,
    summarize,
)

_RANGE_RE = re.compile(r"^(-?\d+)\.\.(-?\d+)$")

# Ceilings on the exact evaluations of `sum`, `closed` and `bench`, set from the
# oracle's measured cost (2-vCPU VM, Python 3.11, j = r = 1): C18 takes 7-9 s at
# n = 20,000 and 1.8 s at n = 10,000; at n = 10,000, m = 10 a 10th-power `sum`
# takes 7 s and ODD_F (21st powers) 43 s.
MAX_N = 10_000
MAX_M = 10
MAX_REPS = 100
# The index size |j|(|r|(n+2)+|s|) + |p|(n+1) bounds every catalog and oracle
# index up to a factor of 2m, and an index costs as much as n: at a size near
# 10^5, `closed` takes 0.5 s for C18 (n = 5), 11 s for EVEN_F and 42 s for ODD_F
# (n = 100, j = r = 31, m = 10); C18 takes 1.0 s near 2*10^5 and 15 s near 10^6.
# `fib N` takes 1.2 s at N = 10^6 and 3.9 s at 2*10^6.
MAX_INDEX = 100_000
MAX_SEQ_INDEX = 1_000_000


def _parse_range(text: str) -> tuple[int, int]:
    m = _RANGE_RE.match(text)
    if m:
        return int(m.group(1)), int(m.group(2))
    try:
        v = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected A..B or an integer, got {text!r}")
    return v, v


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"expected an exact rational like 3 or -2/7, got {text!r}")


def _parse_kind(text: str) -> SequenceKind:
    try:
        return SequenceKind(text.upper())
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected F or L, got {text!r}")


def _parse_id(text: str) -> IdentityId:
    try:
        return IdentityId(text)
    except ValueError:
        known = ", ".join(i.value for i in IdentityId)
        raise argparse.ArgumentTypeError(f"unknown identity {text!r}; known ids: {known}")


def _parse_ids_csv(text: str) -> tuple[IdentityId, ...]:
    ids = tuple(_parse_id(part.strip()) for part in text.split(",") if part.strip())
    if not ids:
        raise argparse.ArgumentTypeError(f"expected at least one identity id, got {text!r}")
    return ids


def _params_from_args(args: argparse.Namespace) -> IdentityParams:
    given = {name: getattr(args, name) for name in SLOT_ORDER if hasattr(args, name)}
    slots = descriptor(args.id).slots
    unread = ", ".join(f"--{name}" for name in given if name not in slots)
    if unread:
        raise ValueError(f"{args.id.value} does not read {unread}; its slots are {', '.join(slots)}")
    return IdentityParams(**given)


def _check_sizes(args: argparse.Namespace) -> None:
    for name, ceiling in (("n", MAX_N), ("m", MAX_M), ("reps", MAX_REPS)):
        value = getattr(args, name, None)
        if value is not None and value > ceiling:
            raise ValueError(f"--{name} {value} is above the limit of {ceiling}")
    # slots not passed take their IdentityParams defaults (sum has no p)
    q = IdentityParams(**{name: getattr(args, name) for name in SLOT_ORDER if hasattr(args, name)})
    size = abs(q.j) * (abs(q.r) * (q.n + 2) + abs(q.s)) + abs(q.p) * (q.n + 1)
    if size > MAX_INDEX:
        raise ValueError(f"index size |j|(|r|(n+2)+|s|)+|p|(n+1) = {size} is above the limit of {MAX_INDEX}")


def cmd_seq(args: argparse.Namespace) -> int:
    if abs(args.n) > MAX_SEQ_INDEX:
        raise ValueError(f"|N| = {abs(args.n)} is above the limit of {MAX_SEQ_INDEX}")
    value = fib(args.n) if args.kind is SequenceKind.FIB else lucas(args.n)
    print(decimal_str(value))
    return 0


def cmd_sum(args: argparse.Namespace) -> int:
    _check_sizes(args)
    value = direct_sum(args.n, args.x, args.z, args.j, args.r, args.s, args.m, args.seq)
    print(decimal_str(value))
    return 0


def cmd_closed(args: argparse.Namespace) -> int:
    _check_sizes(args)
    params = _params_from_args(args)
    outcome = eval_pair(args.id, params)
    verdict = "MATCH" if outcome.match else "MISMATCH"
    if args.format == "json":
        record = VerificationRecord(args.id, params, outcome.lhs, outcome.rhs, outcome.match)
        print(dump_json(record_to_json(record)))
    else:
        print(f"lhs={decimal_str(outcome.lhs)} rhs={decimal_str(outcome.rhs)} {verdict}")
    return 0 if outcome.match else 1


def cmd_verify(args: argparse.Namespace) -> int:
    selected = [d for d in catalog() if args.ids is None or d.id in args.ids]
    given = [name for name in SLOT_ORDER if getattr(args, name) is not None]
    read = [name for name in SLOT_ORDER if any(name in d.slots for d in selected)]
    unread = ", ".join(f"--{name}" for name in given if name not in read)
    if unread:
        ids = ", ".join(d.id.value for d in selected)
        raise ValueError(f"no selected identity reads {unread}; the slots of {ids} are {', '.join(read)}")
    wanted = {d.id for d in selected}
    overrides = {f"{name}_range": getattr(args, name) for name in given}
    specs = []
    for spec in default_grid_specs():
        sel = tuple(i for i in spec.ids if i in wanted)
        if sel:
            specs.append(replace(spec, ids=sel, **overrides))
    # json: the points' lines stream out as their chunks complete, the summary line closes them
    out = sys.stdout if args.format == "json" else None
    report = stream_grids(specs, args.jobs, out)
    if out is None:
        print(summarize(report))
    else:
        out.write(dump_json(report.summary_json()) + "\n")
    return 0 if report.passed else 1


def cmd_bench(args: argparse.Namespace) -> int:
    _check_sizes(args)
    result = bench_identity(args.id, _params_from_args(args), args.reps)
    if args.format == "json":
        print(dump_json(result))
    else:
        print(f"identity      {result['id']}")
        print(f"value         {result['value']}")
        print(f"oracle median {result['oracle_median_s']:.6f} s  ({args.reps} reps)")
        print(f"closed median {result['closed_median_s']:.6f} s")
        print(f"speedup       {result['speedup']:.1f}x")
    return 0


def bench_identity(id: IdentityId, params: IdentityParams, reps: int) -> dict:
    """Median cold-start wall times of oracle vs closed form, equality verified first.

    Memoized sequence and alpha-power values are dropped before every timed
    call so each rep measures a cold evaluation.
    """
    if reps < 1:
        raise ValueError(f"reps must be positive, got {reps}")
    desc = descriptor(id)
    outcome = eval_pair(id, params)
    if not outcome.match:
        raise ArithmeticError(f"{id.value}: sides disagree, refusing to time")

    def timed(fn) -> list[float]:
        samples = []
        for _ in range(reps):
            sequences.clear_caches()
            quadfield.clear_caches()
            t0 = time.perf_counter()
            fn(params)
            samples.append(time.perf_counter() - t0)
        return samples

    oracle_times = timed(desc.lhs)
    closed_times = timed(desc.rhs)
    oracle_median = statistics.median(oracle_times)
    closed_median = statistics.median(closed_times)
    return {
        "id": id.value,
        "value": decimal_str(outcome.lhs),
        "reps": reps,
        "oracle_median_s": oracle_median,
        "closed_median_s": closed_median,
        "speedup": oracle_median / closed_median if closed_median > 0 else float("inf"),
    }


def cmd_list(args: argparse.Namespace) -> int:
    if args.format == "json":
        for desc in catalog():
            print(dump_json({"id": desc.id.value, "slots": list(desc.slots), "anchor": desc.anchor}))
    else:
        for desc in catalog():
            slots = ",".join(desc.slots)
            print(f"{desc.id.value:<12} [{slots}]  {desc.anchor}")
    return 0


def _add_params(parser: argparse.ArgumentParser, with_xz: bool = False) -> None:
    parser.add_argument("--n", type=int, required=True, help="upper summation limit (>= 0)")
    slots = [("j", 1, "index multiplier"), ("r", 1, "index step"), ("s", 0, "index offset"), ("m", 1, "power parameter")]
    if not with_xz:
        # closed and bench: p is a slot of E9..E12 and Q13..Q16, and no sum reads it
        slots.append(("p", 1, "auxiliary index"))
    for name, default, text in slots:
        # closed and bench set only the slots passed, so each can be checked against
        # the identity's slots; the rest take the same defaults from IdentityParams
        given_only = default if with_xz else argparse.SUPPRESS
        parser.add_argument(f"--{name}", type=int, default=given_only, help=f"{text} (default {default})")
    if with_xz:
        parser.add_argument("--x", type=_parse_rational, default=Fraction(1), help="weight x (default 1)")
        parser.add_argument("--z", type=_parse_rational, default=Fraction(1), help="weight z (default 1)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fibsums",
        description="Exact evaluation and verification of binomial Fibonacci/Lucas power sums.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fib = sub.add_parser("fib", help="print F_n")
    p_fib.add_argument("n", type=int)
    p_fib.set_defaults(func=cmd_seq, kind=SequenceKind.FIB)

    p_lucas = sub.add_parser("lucas", help="print L_n")
    p_lucas.add_argument("n", type=int)
    p_lucas.set_defaults(func=cmd_seq, kind=SequenceKind.LUCAS)

    p_sum = sub.add_parser("sum", help="direct summation of C(n,k) x^(n-k) z^k W_{j(rk+s)}^m")
    p_sum.add_argument("--seq", type=_parse_kind, default=SequenceKind.FIB, help="F or L (default F)")
    _add_params(p_sum, with_xz=True)
    p_sum.set_defaults(func=cmd_sum)

    p_closed = sub.add_parser("closed", help="check one identity at one parameter point")
    p_closed.add_argument("--id", type=_parse_id, required=True)
    _add_params(p_closed)
    p_closed.add_argument("--format", choices=("text", "json"), default="text")
    p_closed.set_defaults(func=cmd_closed)

    p_verify = sub.add_parser("verify", help="grid verification against the oracle")
    # let range values like -4..4 pass for tokens that look like options
    p_verify._negative_number_matcher = re.compile(r"^-\d+(\.\.-?\d+)?$")
    p_verify.add_argument("--ids", type=_parse_ids_csv, default=None, help="comma-separated identity ids (default all)")
    for name in SLOT_ORDER:
        p_verify.add_argument(f"--{name}", type=_parse_range, default=None, metavar="A..B")
    p_verify.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    p_verify.add_argument("--format", choices=("text", "json"), default="text")
    p_verify.set_defaults(func=cmd_verify)

    p_bench = sub.add_parser("bench", help="time the oracle against the closed form")
    p_bench.add_argument("--id", type=_parse_id, required=True)
    _add_params(p_bench)
    p_bench.add_argument("--reps", type=int, default=5)
    p_bench.add_argument("--format", choices=("text", "json"), default="text")
    p_bench.set_defaults(func=cmd_bench)

    p_list = sub.add_parser("list", help="print the identity catalog")
    p_list.add_argument("--format", choices=("text", "json"), default="text")
    p_list.set_defaults(func=cmd_list)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; keep the contract
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ValueError as exc:  # InapplicableParamsError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        # IntegralityError, IrrationalResultError, a bench mismatch: internal, not usage
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
