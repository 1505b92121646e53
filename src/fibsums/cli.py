"""Command-line front end: sequence values, exact sums, identity checks,
grid verification, benchmarks and the catalog listing.

Exit codes: 0 success/verified, 1 verification failure or internal error, 2 usage error.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
import time
from fractions import Fraction

from . import sequences
from .identities import (
    SLOT_ORDER,
    IdentityDescriptor,
    IdentityId,
    IdentityParams,
    catalog,
    descriptor,
    eval_pair,
)
from .sequences import SequenceKind, direct_sum, fib, lucas
from .verify import (
    VerificationRecord,
    available_cpus,
    decimal_str,
    default_grid_specs,
    dump_json,
    record_line,
    run_grid,
    summarize,
)

_RANGE_RE = re.compile(r"^(-?\d+)\.\.(-?\d+)$")

# One admission estimate for every exact evaluation.  At index size I = |j|(t|r|(n+2)+|s|) + |p|(n+1), which
# bounds every index up to the power (t = 2 for E5..E8 and the ODD family, whose oracles step by 2r, else 1), an
# evaluation builds about K = n + 1 + P integers of at most B = log2(phi) max(P,1) I + n (w + 2) bits.  P is the
# oracle's power (2m+1 for an identity, whose closed forms loop over m terms; m for `sum`; 1 for fib/lucas), w the
# bit size of `sum`'s x and z, and 2 more bits per step cover C(n,k) and an identity's weights at index 0 (L_0 = 2).
# A B-bit product costs about B^1.585: MAX_BITS bounds B, so memory, and MAX_WORK bounds reps K B^1.585.  Printing
# a B-bit value costs a few such products (`decimal_str` is subquadratic), so output needs no term of its own.  Seconds
# without the bounds (2-vCPU VM, Python 3.11, expanded-block oracle; fib, sum n=300 timed before it), log2 B/log2 work:
#   admitted: fib 10^6                  0.29 19.4/31.8   closed C18 n=10^4                0.10 15.9/38.5
#             sum n=100 x=1e-2000       0.64 19.3/37.3   bench C18 n=5000 s=1 reps=5      0.09 14.9/38.2
#   rejected: sum n=10^4 m=10           0.43 17.4/40.8   closed EVEN_F n=100 j=r=31 m=10  2.74 20.4/-
#             that bench at reps=100    1.45 14.9/42.6   closed ODD_F n=100 j=r=31 m=10   11.5 21.4/-
#             sum n=300 x=1e-6000       59.4 22.5/-      verify C18 n=30000..30000        10.7 17.5/42.6
#             closed ALT_ODD_F n=418 j=-43 r=-5 s=-52 m=3  4.36 19.8/40.1
MAX_BITS = 2**20
MAX_WORK = 2**39


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
    # the decimal exponent is checked first: Fraction builds its power of ten, which at 1e20000000 takes over a minute
    exponent = re.search(r"e([-+]?[\d_]+)\s*$", text, re.IGNORECASE)
    try:
        if exponent and abs(int(exponent.group(1))) * 3322 // 1000 > MAX_BITS:  # 3322/1000 is log2(10) to 0.003%
            raise argparse.ArgumentTypeError(f"{text!r}: its power of ten has over 2^{math.log2(MAX_BITS):g} bits")
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


def _admit(label: str, q: IdentityParams, power: int, weight_bits: int = 0, reps: int = 1, step: int = 1) -> None:
    """Raise ValueError (exit 2) above either bound; in ints, so an argument of any size is safe."""
    index = abs(q.j) * (step * abs(q.r) * (q.n + 2) + abs(q.s)) + abs(q.p) * (q.n + 1)
    bits = max(power, 1) * index * 25 // 36 + q.n * (weight_bits + 2)  # 25/36 is log2(phi) = 0.69424 to 0.03%
    work = reps * (q.n + 1 + power) * round(max(bits, 1) ** 1.585) if bits <= MAX_BITS else 0
    for name, value, bound in (("integer size", bits, MAX_BITS), ("work", work, MAX_WORK)):
        if value > bound:
            log2 = math.ceil(10 * math.log2(value)) / 10  # rounded up: a value above its bound never shows as equal
            raise ValueError(f"{label}: estimated {name} 2^{log2} is above the limit of 2^{math.log2(bound):g}")


def _admit_identity(label: str, d: IdentityDescriptor, q: IdentityParams, reps: int = 1) -> None:
    # t is the oracle's index step at j = r = 1
    _admit(label, q, 2 * q.m + 1, reps=reps, step=d.lhs_args(IdentityParams())[4])


def _identity_params(args: argparse.Namespace) -> IdentityParams:
    """`closed`/`bench`: the slots passed, each read by the identity, admitted at the identity's power."""
    given = {name: getattr(args, name) for name in SLOT_ORDER if hasattr(args, name)}
    d = descriptor(args.id)
    unread = ", ".join(f"--{name}" for name in given if name not in d.slots)
    if unread:
        raise ValueError(f"{args.id.value} does not read {unread}; its slots are {', '.join(d.slots)}")
    q = IdentityParams(**given)
    _admit_identity(args.id.value, d, q, getattr(args, "reps", 1))
    return q


def cmd_seq(args: argparse.Namespace) -> int:
    # W_N is the sum at n = 0, s = N
    _admit(args.kind.name.lower(), IdentityParams(r=0, s=args.n, p=0), 1)
    value = fib(args.n) if args.kind is SequenceKind.FIB else lucas(args.n)
    print(decimal_str(value))
    return 0


def cmd_sum(args: argparse.Namespace) -> int:
    q = IdentityParams(**{name: getattr(args, name) for name in SLOT_ORDER if hasattr(args, name)})
    weight_bits = max(v.bit_length() for w in (args.x, args.z) for v in (w.numerator, w.denominator))
    _admit("sum", q, q.m, weight_bits)
    value = direct_sum(q.n, args.x, args.z, q.j, q.r, q.s, q.m, args.seq)
    print(decimal_str(value))
    return 0


def cmd_closed(args: argparse.Namespace) -> int:
    params = _identity_params(args)
    outcome = eval_pair(args.id, params)
    verdict = "MATCH" if outcome.match else "MISMATCH"
    if args.format == "json":
        sys.stdout.write(record_line(VerificationRecord(args.id, params, outcome.lhs, outcome.rhs, outcome.match)))
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
    overrides = {f"{name}_range": getattr(args, name) for name in given}
    specs = []
    for spec in default_grid_specs():
        sel = [d for d in selected if d.id in spec.ids]
        if sel:
            spec = spec._replace(ids=tuple(d.id for d in sel), **overrides)
            specs.append(spec)
        # an identity at the spec's largest point bounds each of its points in the spec
        for d in sel:
            q = IdentityParams(**{name: max(map(abs, spec.range_for(name))) for name in d.slots})
            _admit_identity(f"{d.id.value} at " + ", ".join(f"{name}={getattr(q, name)}" for name in d.slots), d, q)
    # json: the points' lines stream out as their chunks complete, the summary line closes them
    out = sys.stdout if args.format == "json" else None
    report = run_grid(specs, args.jobs, out)
    if out is None:
        print(summarize(report))
    else:
        out.write(report.to_jsonl())
    return 0 if report.passed else 1


def cmd_bench(args: argparse.Namespace) -> int:
    result = bench_identity(args.id, _identity_params(args), args.reps)
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

    The sequence memos are dropped before every timed call so each rep
    measures a cold evaluation.
    """
    if reps < 1:
        raise ValueError(f"reps must be positive, got {reps}")
    import statistics  # only bench reads it; kept out of every other command's start-up

    desc = descriptor(id)
    outcome = eval_pair(id, params)
    if not outcome.match:
        raise ArithmeticError(f"{id.value}: sides disagree, refusing to time")

    def timed(fn) -> list[float]:
        samples = []
        for _ in range(reps):
            sequences.clear_caches()
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


_SLOT_HELP = dict(n="upper summation limit (>= 0)", j="index multiplier", r="index step", s="index offset",
                  p="auxiliary index", m="power parameter")


def _add_params(parser: argparse.ArgumentParser, slots: tuple[str, ...] = ("n", "j", "r", "s", "m", "p")) -> None:
    # only the slots passed are set, so closed and bench can check each against the
    # identity's slots; IdentityParams gives the rest their defaults
    defaults = IdentityParams()
    for name in slots:
        text = _SLOT_HELP[name] if name == "n" else f"{_SLOT_HELP[name]} (default {getattr(defaults, name)})"
        parser.add_argument(f"--{name}", type=int, required=name == "n", default=argparse.SUPPRESS, help=text)


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
    # let negative weights like -2/7 and -1e-3 pass for tokens that look like options
    p_sum._negative_number_matcher = re.compile(r"^-(\d+/\d+|(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?)$")
    p_sum.add_argument("--seq", type=_parse_kind, default=SequenceKind.FIB, help="F or L (default F)")
    # p is a slot of E9..E12 and Q13..Q16 only, and no sum reads it
    _add_params(p_sum, ("n", "j", "r", "s", "m"))
    p_sum.add_argument("--x", type=_parse_rational, default=Fraction(1), help="weight x (default 1)")
    p_sum.add_argument("--z", type=_parse_rational, default=Fraction(1), help="weight z (default 1)")
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
    p_verify.add_argument("--jobs", type=int, default=available_cpus())
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
        code = args.func(args)
        sys.stdout.flush()  # so a failed buffered write raises here, not at exit
        return code
    except ValueError as exc:  # InapplicableParamsError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        # IntegralityError, IrrationalResultError, a bench mismatch: internal, not usage
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # stdout on a full disk, say, or a closed pipe: a reader that stopped early
        if not isinstance(exc, BrokenPipeError):
            print(f"error: {exc}", file=sys.stderr)
        try:
            sys.stdout.flush()  # keeps what was written before an error elsewhere
        except OSError:  # stdout failed: its unwritten rest goes to devnull, or the exit flush fails again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0 if isinstance(exc, BrokenPipeError) else 1


if __name__ == "__main__":
    sys.exit(main())
