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
for a failed point, or for every point when `run_grid`/`run_grids` keep them.
`stream_grids` keeps only the totals and the failures, writing each chunk's
lines as the chunk completes, so its memory does not grow with the grid.

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
from collections import deque
from dataclasses import dataclass, field
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
    catalog_index,
    descriptor,
)

Range = tuple[int, int]


def _check_range(name: str, rng: Range, nonneg: bool = False) -> None:
    lo, hi = rng
    if lo > hi:
        raise ValueError(f"{name} range is empty: {rng}")
    if nonneg and lo < 0:
        raise ValueError(f"{name} range must be non-negative: {rng}")


@dataclass(frozen=True, slots=True)
class GridSpec:
    """Inclusive parameter ranges and the identity subset to sweep."""

    ids: tuple[IdentityId, ...]
    n_range: Range = (0, 12)
    j_range: Range = (-4, 4)
    r_range: Range = (-4, 4)
    s_range: Range = (-4, 4)
    p_range: Range = (-4, 4)
    m_range: Range = (0, 3)

    def __post_init__(self) -> None:
        _check_range("n", self.n_range, nonneg=True)
        _check_range("j", self.j_range)
        _check_range("r", self.r_range)
        _check_range("s", self.s_range)
        _check_range("p", self.p_range)
        _check_range("m", self.m_range, nonneg=True)

    def range_for(self, slot: str) -> Range:
        return getattr(self, f"{slot}_range")


@dataclass(frozen=True, slots=True)
class VerificationRecord:
    """One grid point: skipped, checked (match), or failed with an arithmetic error."""

    id: IdentityId
    params: IdentityParams
    lhs: Fraction | None
    rhs: Fraction | None
    match: bool | None
    skipped_reason: str | None = None
    error: str | None = None


@dataclass(slots=True)
class IdTotals:
    checked: int = 0
    matched: int = 0
    skipped: int = 0


@dataclass
class Report:
    records: list[VerificationRecord]
    totals: dict[IdentityId, IdTotals] = field(default_factory=dict)
    failures: list[VerificationRecord] = field(default_factory=list)

    @classmethod
    def from_records(cls, records: Iterable[VerificationRecord]) -> Report:
        report = cls(sorted(records, key=_record_key))
        for rec in report.records:
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

    def merge(self, part: Report) -> None:
        """Append a report whose points all follow this one's in canonical order."""
        self.records.extend(part.records)
        for id, t in part.totals.items():
            mine = self.totals.setdefault(id, IdTotals())
            mine.checked += t.checked
            mine.matched += t.matched
            mine.skipped += t.skipped
        self.failures.extend(part.failures)

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
                for id, t in sorted(self.totals.items(), key=lambda kv: catalog_index(kv[0]))
            },
            "checked": checked,
            "matched": matched,
            "skipped": skipped,
            "failed": checked - matched,
            "verdict": "PASS" if self.passed else "FAIL",
        }

    def to_jsonl(self) -> str:
        return "".join(map(record_line, self.records)) + dump_json(self.summary_json()) + "\n"


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
    head: str, lhs: Fraction | None, rhs: Fraction | None, match: bool | None, skipped: str | None, error: str | None
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


def _record_key(rec: VerificationRecord) -> tuple:
    q = rec.params
    return (catalog_index(rec.id), q.n, q.j, q.r, q.s, q.p, q.m)


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


def _check_chunk(chunk: _Chunk, keep: bool, render: bool) -> tuple[Report, str]:
    """Check one chunk: its tallied report, with every record if `keep` and else
    only the failures' records, and, if `render`, its JSONL lines."""
    id, combos = chunk
    desc = descriptor(id)
    head, values = _head_format(desc), itemgetter(*(SLOT_ORDER.index(slot) for slot in desc.slots))
    records: list[VerificationRecord] = []
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
        if keep or outcome[2] is False:
            records.append(VerificationRecord(id, params, *outcome))
    totals = {id: IdTotals(len(combos) - skipped, matched, skipped)}
    failures = [rec for rec in records if rec.match is False]
    return Report(records if keep else [], totals, failures), "".join(lines)


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


def _checked_chunks(
    specs: Sequence[GridSpec], parallelism: int, keep: bool, render: bool
) -> Iterator[tuple[Report, str]]:
    """Every point of `specs`, checked chunk by chunk: (part, text) in canonical order."""
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
    fn = partial(_check_chunk, keep=keep, render=render)
    return _in_order(fn, _chunks(specs, size), workers)


def run_grid(spec: GridSpec, parallelism: int = 1) -> Report:
    """One record per grid point, in canonical order, identical on every run.

    Points outside an identity's domain become skipped records.
    """
    return run_grids([spec], parallelism)


def run_grids(specs: Sequence[GridSpec], parallelism: int = 1) -> Report:
    """Run several grid specs as one canonical report."""
    report = Report([])
    for part, _ in _checked_chunks(specs, parallelism, keep=True, render=False):
        report.merge(part)
    return report


def stream_grids(specs: Sequence[GridSpec], parallelism: int = 1, out: TextIO | None = None) -> Report:
    """Check every point of `specs`, keeping only the totals and the failures.

    With `out`, the points' JSONL lines are written to it in canonical order,
    one write per chunk, as the chunks complete; the trailing summary line is
    `dump_json(report.summary_json())`, left to the caller.
    """
    report = Report([])
    for part, text in _checked_chunks(specs, parallelism, keep=False, render=out is not None):
        report.merge(part)
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
    for id, t in sorted(report.totals.items(), key=lambda kv: catalog_index(kv[0])):
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
