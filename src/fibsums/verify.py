"""Exhaustive grid verification with deterministic, machine-readable reports.

A grid spec names a set of identities and inclusive integer ranges for the
parameter slots; unused slots are collapsed to a single canonical point.
Every grid point is checked against the direct-summation oracle, optionally
across worker processes.  Points are enumerated lazily in the canonical order
(catalog position, then params lexicographically) and checked in chunks of
one identity each; results come back in that order, so a report is
byte-for-byte reproducible regardless of parallelism.

A chunk tallies its points and writes each point's JSONL line straight from
its parameter values and the two sides; it builds a `VerificationRecord` only
for a failed point, and hands back plain data: (id, checked, matched, skipped,
failures, text).  `run_grid` adds each into the one `Report` it returns, in
catalog order, so the totals need no sort, and writes each chunk's lines as
the chunk completes, so its memory does not grow with the grid.

The record types are namedtuples, as `IdentityParams` is: `GridSpec` checks
its ids and ranges however it is built, `_replace` included, and
`VerificationRecord` and `Report` check nothing.  `IdTotals`, which the totals add into, is the one
mutable record, a slotted class.

Reports are JSON lines, all from one line writer (`record_line` for a record):
one object per point with keys id, params (object of ints), lhs, rhs (decimal
strings), match (bool), skipped (string) or error (string, with match false),
then one trailing summary object with totals.
"""

from __future__ import annotations

import decimal
import heapq
import json
import math
import os
from collections import deque, namedtuple
from fractions import Fraction
from functools import partial
from itertools import islice, product
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Sequence, TextIO

from .identities import (
    SLOT_ORDER,
    IdentityDescriptor,
    IdentityId,
    IdentityParams,
    InapplicableParamsError,
    catalog,
    descriptor,
)

Range = tuple[int, int]


def _check_range(name: str, rng: Range, nonneg: bool = False) -> None:
    lo, hi = rng
    if lo > hi:
        raise ValueError(f"{name} range is empty: {rng}")
    if nonneg and lo < 0:
        raise ValueError(f"{name} range must be non-negative: {rng}")


class GridSpec(
    namedtuple(
        "GridSpec",
        "ids n_range j_range r_range s_range p_range m_range",
        defaults=((0, 12), (-4, 4), (-4, 4), (-4, 4), (-4, 4), (0, 3)),
    )
):
    """Inclusive parameter ranges and the identity subset to sweep.

    Checked when built, by `_make` and `_replace` too: at least one id, each
    an `IdentityId`, and no empty range (none negative for n or m).
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> GridSpec:
        spec = super().__new__(cls, *args, **kwargs)
        if not spec.ids:
            raise ValueError("a grid spec needs at least one identity id")
        for id in spec.ids:
            if not isinstance(id, IdentityId):
                raise ValueError(f"unknown identity id: {id!r}")
        _check_range("n", spec.n_range, nonneg=True)
        _check_range("j", spec.j_range)
        _check_range("r", spec.r_range)
        _check_range("s", spec.s_range)
        _check_range("p", spec.p_range)
        _check_range("m", spec.m_range, nonneg=True)
        return spec

    @classmethod
    def _make(cls, iterable: Iterable) -> GridSpec:
        # the namedtuple's own `_make`, which its `_replace` calls, skips `__new__` and so the checks
        return cls(*iterable)

    def range_for(self, slot: str) -> Range:
        return getattr(self, f"{slot}_range")


class VerificationRecord(
    namedtuple("VerificationRecord", "id params lhs rhs match skipped_reason error", defaults=(None, None))
):
    """One grid point: skipped, checked (match), or failed with an arithmetic error."""

    __slots__ = ()


class IdTotals:
    """One identity's running counts of checked, matched and skipped points."""

    __slots__ = ("checked", "matched", "skipped")

    def __init__(self, checked: int = 0, matched: int = 0, skipped: int = 0) -> None:
        self.checked, self.matched, self.skipped = checked, matched, skipped

    def __repr__(self) -> str:
        return f"IdTotals(checked={self.checked!r}, matched={self.matched!r}, skipped={self.skipped!r})"

    def __eq__(self, other: object) -> bool:
        if type(other) is not IdTotals:
            return NotImplemented
        return (self.checked, self.matched, self.skipped) == (other.checked, other.matched, other.skipped)

    __hash__ = None  # mutable


class Report(namedtuple("Report", "totals failures")):
    """Per-identity totals, rendered in insertion order, and the failed points' records.

    Each report gets its own empty dict and list unless it is given them.
    """

    __slots__ = ()

    def __new__(
        cls, totals: dict[IdentityId, IdTotals] | None = None, failures: list[VerificationRecord] | None = None
    ) -> Report:
        return cls._make(({} if totals is None else totals, [] if failures is None else failures))

    @classmethod
    def from_records(cls, records: Iterable[VerificationRecord]) -> Report:
        """The totals and failures of `records`, tallied in the order given."""
        report = cls()
        for rec in records:
            t = report.totals.setdefault(rec.id, IdTotals())
            if rec.skipped_reason is not None:
                t.skipped += 1
                continue
            t.checked += 1
            if rec.match:
                t.matched += 1
            else:
                report.failures.append(rec)
        return report

    @property
    def passed(self) -> bool:
        return not self.failures

    def counts(self) -> tuple[int, int, int]:
        checked = sum(t.checked for t in self.totals.values())
        matched = sum(t.matched for t in self.totals.values())
        skipped = sum(t.skipped for t in self.totals.values())
        return checked, matched, skipped

    def summary_json(self) -> dict:
        checked, matched, skipped = self.counts()
        return {
            "totals": {
                id.value: {"checked": t.checked, "matched": t.matched, "skipped": t.skipped}
                for id, t in self.totals.items()
            },
            "checked": checked,
            "matched": matched,
            "skipped": skipped,
            "failed": checked - matched,
            "verdict": "PASS" if self.passed else "FAIL",
        }

    def to_jsonl(self) -> str:
        """The report's trailing summary line, which follows the points' lines."""
        return dump_json(self.summary_json()) + "\n"


_ENCODER = json.JSONEncoder(separators=(",", ":"))


def dump_json(obj: object) -> str:
    """The report's JSON encoder (summary, strings in lines); compact and key-order preserving."""
    return _ENCODER.encode(obj)


def decimal_str(value: Fraction | int) -> str:
    """Decimal string of an exact value, however large.

    `str` is used up to the interpreter's int-to-str digit cap (4300 by
    default), where it is fast.  Above the cap, where `str` would also take
    time quadratic in the size, an int is converted by divide and conquer
    and a Fraction as numerator/denominator, leaving the cap as it is.
    """
    try:
        return str(value)
    except ValueError:  # more digits than sys.get_int_max_str_digits() allows
        pass
    if value.denominator != 1:
        return f"{decimal_str(value.numerator)}/{decimal_str(value.denominator)}"
    return _split_decimal_str(value.numerator)


_SPLIT_BITS = 128  # below this many bits a part is converted as a whole


def _split_decimal_str(value: int) -> str:
    """`str(value)` for any int, in subquadratic time.

    The int is split into binary halves, lo + hi * 2^w, recursively, and
    the parts are recombined as exact `decimal.Decimal` values, whose
    libmpdec multiplication is subquadratic; CPython 3.12's `_pylong` converts
    the same way.  Each split width w has its power 2^w computed once.
    """
    powers: dict[int, decimal.Decimal] = {}

    def convert(v: int, bits: int) -> decimal.Decimal:
        if bits <= _SPLIT_BITS:
            return decimal.Decimal(v)
        w = bits >> 1
        hi = v >> w
        if w not in powers:
            powers[w] = decimal.Decimal(2) ** w
        return convert(v - (hi << w), w) + convert(hi, bits - w) * powers[w]

    with decimal.localcontext() as ctx:
        # exact: no rounding, no exponent bound, and an inexact step raises
        ctx.prec, ctx.Emax, ctx.Emin = decimal.MAX_PREC, decimal.MAX_EMAX, decimal.MIN_EMIN
        ctx.traps[decimal.Inexact] = True
        digits = str(convert(abs(value), abs(value).bit_length()))
    return "-" + digits if value < 0 else digits


def _head_format(desc: IdentityDescriptor) -> str:
    """The start of `desc`'s report lines, '{"id":...,"params":{"n":%d,...},', to fill with slot values."""
    params = ",".join(f"{dump_json(slot)}:%d" for slot in desc.slots)
    return f'{{"id":{dump_json(desc.id.value)},"params":{{{params}}},'


def _line(
    head: str, lhs: int | None, rhs: int | None, match: bool | None, skipped: str | None, error: str | None
) -> str:
    """The one report line writer: a filled-in head, then the outcome's keys."""
    if skipped is not None:
        return f'{head}"skipped":{dump_json(skipped)}}}\n'
    if error is not None:
        return f'{head}"error":{dump_json(error)},"match":false}}\n'
    return f'{head}"lhs":"{decimal_str(lhs)}","rhs":"{decimal_str(rhs)}","match":{"true" if match else "false"}}}\n'


def record_line(rec: VerificationRecord) -> str:
    """A record's report line, with its newline."""
    desc = descriptor(rec.id)
    head = _head_format(desc) % tuple(getattr(rec.params, slot) for slot in desc.slots)
    return _line(head, rec.lhs, rec.rhs, rec.match, rec.skipped_reason, rec.error)


# --- enumeration, chunk evaluation and scheduling ---------------------------

_Combo = tuple[int, int, int, int, int, int]  # values in SLOT_ORDER
_Chunk = tuple[IdentityId, list[_Combo]]

_CANONICAL = IdentityParams()
_MAX_CHUNK = 2048  # points; bounds the text a chunk carries
_WINDOW_PER_WORKER = 4  # chunks in flight per worker process


def _axes(desc: IdentityDescriptor, spec: GridSpec) -> list[Sequence[int]]:
    axes: list[Sequence[int]] = []
    for slot in SLOT_ORDER:
        if slot in desc.slots:
            lo, hi = spec.range_for(slot)
            axes.append(range(lo, hi + 1))
        else:
            axes.append((getattr(_CANONICAL, slot),))
    return axes


def _chunks(specs: Sequence[GridSpec], size: int) -> Iterator[_Chunk]:
    """Chunks of at most `size` points, in canonical order, never sorted.

    Each spec's product is already ordered; where specs share an identity,
    the stable merge keeps equal points in spec order, as a stable sort of the
    concatenated records would.
    """
    for desc in catalog():
        combos = heapq.merge(*(product(*_axes(desc, spec)) for spec in specs if desc.id in spec.ids))
        while batch := list(islice(combos, size)):
            yield desc.id, batch


def _check_chunk(chunk: _Chunk, render: bool) -> tuple[IdentityId, int, int, int, list[VerificationRecord], str]:
    """Check one chunk: (id, checked, matched, skipped, failures, text), with the
    failed points' records and, if `render`, the chunk's JSONL lines."""
    id, combos = chunk
    desc = descriptor(id)
    head, values = _head_format(desc), itemgetter(*(SLOT_ORDER.index(slot) for slot in desc.slots))
    failures: list[VerificationRecord] = []
    lines: list[str] = []
    matched = skipped = 0
    make = IdentityParams._make  # positional from a combo, which is in SLOT_ORDER, the field order
    for combo in combos:
        params = make(combo)
        # a point's outcome is its record's (lhs, rhs, match, skipped_reason, error); `rhs` decides the domain, once
        try:
            rhs = desc.rhs(params)
            lhs = desc.lhs(params)
        except InapplicableParamsError:
            skipped += 1
            outcome = (None, None, None, desc.applicable(params)[1], None)
        except ArithmeticError as exc:  # IntegralityError, IrrationalResultError, ...
            outcome = (None, None, False, None, f"{type(exc).__name__}: {exc}")
        else:
            outcome = (lhs, rhs, lhs == rhs, None, None)
            matched += outcome[2]
        if render:
            lines.append(_line(head % values(combo), *outcome))
        if outcome[2] is False:
            failures.append(VerificationRecord(id, params, *outcome))
    return id, len(combos) - skipped, matched, skipped, failures, "".join(lines)


def _in_order(fn: Callable, chunks: Iterable, workers: int) -> Iterator:
    """fn over chunks, results in submission order.

    With more than one worker the chunks run in a fork pool with at most
    _WINDOW_PER_WORKER * workers of them submitted and not yet yielded.
    """
    if workers <= 1:
        yield from map(fn, chunks)
        return
    # loaded here, so a serial run never pays for the process pool's imports
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:
        ctx = multiprocessing.get_context()
    with ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as pool:
        window: deque = deque()
        try:
            for chunk in chunks:
                window.append(pool.submit(fn, chunk))
                if len(window) >= _WINDOW_PER_WORKER * workers:
                    yield window.popleft().result()
            while window:
                yield window.popleft().result()
        finally:
            for future in window:
                future.cancel()


def available_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the platform has one."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def run_grid(specs: Sequence[GridSpec], parallelism: int = 1, out: TextIO | None = None) -> Report:
    """Check every point of `specs`, keeping only the totals and the failures.

    Points outside an identity's domain are tallied as skipped.  Each chunk's
    plain tallies are added into the one report as the chunk completes, in
    catalog order, so the totals are canonical by construction.  With `out`,
    the points' JSONL lines are written to it in canonical order, one write
    per chunk; the trailing summary line is `report.to_jsonl()`, left to the caller.
    """
    if parallelism < 1:
        raise ValueError(f"parallelism must be positive, got {parallelism}")
    # points per identity, from the range sizes
    sizes = [
        sum(math.prod(map(len, _axes(desc, spec))) for spec in specs if desc.id in spec.ids)
        for desc in catalog()
    ]
    points = sum(sizes)
    # at most one worker per CPU and per chunk: fork starts all max_workers at once
    workers = min(parallelism, available_cpus())
    size = min(_MAX_CHUNK, max(64, points // (workers * 16)))
    workers = min(workers, sum(-(-n // size) for n in sizes)) if points >= 64 else 1
    report = Report()
    fn = partial(_check_chunk, render=out is not None)
    for id, checked, matched, skipped, failures, text in _in_order(fn, _chunks(specs, size), workers):
        t = report.totals.setdefault(id, IdTotals())
        t.checked += checked
        t.matched += matched
        t.skipped += skipped
        report.failures.extend(failures)
        if text:
            out.write(text)
    return report


_ODD_IDS = (
    IdentityId.ODD_F,
    IdentityId.ODD_L,
    IdentityId.ALT_ODD_F,
    IdentityId.ALT_ODD_L,
)


def default_grid_specs() -> tuple[GridSpec, GridSpec]:
    """The full verification grid: every identity, n in [0,12], j/r/s/p in
    [-4,4], m in [0,3] for the even-power families and [0,2] for odd."""
    other = tuple(d.id for d in catalog() if d.id not in _ODD_IDS)
    return (
        GridSpec(ids=other, m_range=(0, 3)),
        GridSpec(ids=_ODD_IDS, m_range=(0, 2)),
    )


def _one_line(text: str) -> str:
    """`text` with each line break or other unprintable character escaped as `repr` escapes it."""
    return "".join(c if c.isprintable() else repr(c)[1:-1] for c in text)


def summarize(report: Report) -> str:
    """Per-identity one-line totals plus a global PASS/FAIL verdict."""
    checked, matched, skipped = report.counts()
    if not report.totals:
        return "PASS (0 checks)"
    lines = []
    for id, t in report.totals.items():
        lines.append(
            f"{id.value:<12} checked={t.checked:<8} matched={t.matched:<8} skipped={t.skipped}"
        )
    for rec in report.failures:
        params = {slot: getattr(rec.params, slot) for slot in descriptor(rec.id).slots}
        found = (f"error={_one_line(rec.error)}" if rec.error is not None
                 else f"lhs={decimal_str(rec.lhs)} rhs={decimal_str(rec.rhs)}")
        lines.append(f"FAIL {rec.id.value} params={params} {found}")
    if report.passed:
        lines.append(f"PASS ({checked} checks, {skipped} skipped)")
    else:
        lines.append(f"FAIL ({len(report.failures)} mismatches of {checked} checks)")
    return "\n".join(lines)
