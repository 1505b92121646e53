"""Exhaustive grid verification with deterministic, machine-readable reports.

A grid spec names a set of identities and inclusive integer ranges for the
parameter slots; unused slots are collapsed to a single canonical point.
`run_grid` checks every remaining grid point against the direct-summation
oracle, optionally across worker processes.  Records are always emitted in
the canonical order (catalog position, then params lexicographically), so a
report is byte-for-byte reproducible regardless of parallelism.

Report serialization is JSON lines: one object per record with keys
id, params (object of ints), lhs, rhs (decimal strings), match (bool) or
skipped (string), followed by one trailing summary object with totals.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import Iterable, Sequence

from .identities import (
    SLOT_ORDER,
    IdentityId,
    IdentityParams,
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
    id: IdentityId
    params: IdentityParams
    lhs: Fraction | None
    rhs: Fraction | None
    match: bool | None
    skipped_reason: str | None = None


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
        ordered = sorted(records, key=_record_key)
        totals: dict[IdentityId, IdTotals] = {}
        failures = []
        for rec in ordered:
            t = totals.setdefault(rec.id, IdTotals())
            if rec.skipped_reason is not None:
                t.skipped += 1
                continue
            t.checked += 1
            if rec.match:
                t.matched += 1
            else:
                failures.append(rec)
        return cls(ordered, totals, failures)

    @property
    def passed(self) -> bool:
        return not self.failures

    def counts(self) -> tuple[int, int, int]:
        checked = sum(t.checked for t in self.totals.values())
        matched = sum(t.matched for t in self.totals.values())
        skipped = sum(t.skipped for t in self.totals.values())
        return checked, matched, skipped

    def to_json_objects(self) -> Iterable[dict]:
        for rec in self.records:
            yield record_to_json(rec)
        yield self.summary_json()

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
        return "\n".join(dump_json(obj) for obj in self.to_json_objects()) + "\n"


def dump_json(obj: dict) -> str:
    """The one JSON writer used for reports; compact and key-order preserving."""
    return json.dumps(obj, separators=(",", ":"))


_digits_unlocked = False


def decimal_str(value: Fraction | int) -> str:
    """Decimal string of an exact value, however large.

    Lifts the interpreter's int-to-str digit cap on first use; grid values
    routinely exceed the default 4300-digit limit.
    """
    global _digits_unlocked
    if not _digits_unlocked:
        try:
            sys.set_int_max_str_digits(0)
        except (AttributeError, ValueError):
            pass
        _digits_unlocked = True
    return str(value)


def record_to_json(rec: VerificationRecord) -> dict:
    slots = descriptor(rec.id).slots
    obj: dict = {
        "id": rec.id.value,
        "params": {slot: getattr(rec.params, slot) for slot in slots},
    }
    if rec.skipped_reason is not None:
        obj["skipped"] = rec.skipped_reason
    else:
        obj["lhs"] = decimal_str(rec.lhs)
        obj["rhs"] = decimal_str(rec.rhs)
        obj["match"] = rec.match
    return obj


def _record_key(rec: VerificationRecord) -> tuple:
    q = rec.params
    return (catalog_index(rec.id), q.n, q.j, q.r, q.s, q.p, q.m)


# --- grid enumeration and evaluation ---------------------------------------

_Task = tuple[str, tuple[int, int, int, int, int, int]]
_Result = tuple[str | None, Fraction | None, Fraction | None, bool | None]


def _enumerate_tasks(spec: GridSpec) -> list[_Task]:
    tasks: list[_Task] = []
    wanted = set(spec.ids)
    for desc in catalog():
        if desc.id not in wanted:
            continue
        axes = []
        for slot in SLOT_ORDER:
            if slot in desc.slots:
                lo, hi = spec.range_for(slot)
                axes.append(range(lo, hi + 1))
            else:
                axes.append((getattr(IdentityParams(), slot),))
        for combo in product(*axes):
            tasks.append((desc.id.value, combo))
    return tasks


def _eval_task(task: _Task) -> _Result:
    id_value, combo = task
    params = IdentityParams(*combo)
    desc = descriptor(IdentityId(id_value))
    ok, reason = desc.applicable(params)
    if not ok:
        return (reason, None, None, None)
    lhs = desc.lhs(params)
    rhs = desc.rhs(params)
    return (None, lhs, rhs, lhs == rhs)


def _eval_chunk(chunk: list[_Task]) -> list[_Result]:
    return [_eval_task(t) for t in chunk]


def _run_tasks(tasks: list[_Task], parallelism: int) -> list[_Result]:
    # at most one worker per CPU and per chunk: fork starts all max_workers at once
    workers = min(parallelism, os.cpu_count() or 1)
    if workers <= 1 or len(tasks) < 64:
        return _eval_chunk(tasks)
    chunk_size = max(64, len(tasks) // (workers * 16))
    chunks = [tasks[i : i + chunk_size] for i in range(0, len(tasks), chunk_size)]
    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:
        ctx = multiprocessing.get_context()
    results: list[_Result] = []
    with ProcessPoolExecutor(max_workers=min(workers, len(chunks)), mp_context=ctx) as pool:
        for part in pool.map(_eval_chunk, chunks):
            results.extend(part)
    return results


def run_grid(spec: GridSpec, parallelism: int = 1) -> Report:
    """One record per grid point, in canonical order, identical on every run.

    Points outside an identity's domain become skipped records.
    """
    if parallelism < 1:
        raise ValueError(f"parallelism must be positive, got {parallelism}")
    tasks = _enumerate_tasks(spec)
    results = _run_tasks(tasks, parallelism)
    records = [
        VerificationRecord(IdentityId(t[0]), IdentityParams(*t[1]), lhs, rhs, match, reason)
        for t, (reason, lhs, rhs, match) in zip(tasks, results)
    ]
    return Report.from_records(records)


def run_grids(specs: Sequence[GridSpec], parallelism: int = 1) -> Report:
    """Run several grid specs and merge into one canonical report."""
    records: list[VerificationRecord] = []
    for spec in specs:
        records.extend(run_grid(spec, parallelism).records)
    return Report.from_records(records)


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


def run_default_grid(parallelism: int | None = None) -> Report:
    if parallelism is None:
        parallelism = os.cpu_count() or 1
    return run_grids(default_grid_specs(), parallelism)


def summarize(report: Report) -> str:
    """Per-identity one-line totals plus a global PASS/FAIL verdict."""
    checked, matched, skipped = report.counts()
    if not report.records:
        return "PASS (0 checks)"
    lines = []
    for id, t in sorted(report.totals.items(), key=lambda kv: catalog_index(kv[0])):
        lines.append(
            f"{id.value:<12} checked={t.checked:<8} matched={t.matched:<8} skipped={t.skipped}"
        )
    for rec in report.failures:
        obj = record_to_json(rec)
        lines.append(f"FAIL {rec.id.value} params={obj['params']} lhs={obj['lhs']} rhs={obj['rhs']}")
    if report.passed:
        lines.append(f"PASS ({checked} checks, {skipped} skipped)")
    else:
        lines.append(f"FAIL ({len(report.failures)} mismatches of {checked} checks)")
    return "\n".join(lines)
