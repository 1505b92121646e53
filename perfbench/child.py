"""One measured repetition of a benchmark workload, in a fresh interpreter.

    python3 perfbench/child.py SRC_DIR            < payload.json
    python3 perfbench/child.py SRC_DIR --setup-only

Imports fibsums from SRC_DIR first, timing the import (`setup_s`), then
reads the generated inputs as JSON on stdin, runs them and prints one JSON
object with the raw measurements.  The parent `run.py` checks and
aggregates them; this process never sees the workload seed.
"""

import sys
import time

_t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import fibsums.cli  # noqa: E402  (the import is the measured set-up)

SETUP_S = time.perf_counter() - _t0

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402

from fibsums import quadfield, sequences  # noqa: E402
from fibsums.identities import IdentityId, IdentityParams, descriptor  # noqa: E402

from tracing import Tracer, instrument  # noqa: E402

_TAIL_CHARS = 1 << 20
TIMED_REPS = 3
REFERENCE_STEPS = 50_000
REFERENCE_SAMPLES = 5


class Sink:
    """Stand-in for stdout that hashes and counts the report and keeps its tail."""

    def __init__(self) -> None:
        self.sha = hashlib.sha256()
        self.bytes = 0
        self.lines = 0
        self.tail = ""

    def write(self, text: str) -> int:
        data = text.encode()
        self.sha.update(data)
        self.bytes += len(data)
        self.lines += text.count("\n")
        if len(text) >= _TAIL_CHARS:
            self.tail = text[-_TAIL_CHARS:]
        else:
            self.tail = (self.tail + text)[-_TAIL_CHARS:]
        return len(text)

    def flush(self) -> None:
        pass


class MemoStats:
    """Cumulative hits, misses and peak entries of the two memo caches.

    `cache_clear` resets a cache's statistics, so `sample` must run right
    before every clear and once at the end.
    """

    def __init__(self) -> None:
        self.caches = {"fib": sequences._fib_pair, "alpha_pow": quadfield.alpha_pow}
        self.stats = {name: [0, 0, 0] for name in self.caches}

    def sample(self) -> None:
        for name, fn in self.caches.items():
            info = fn.cache_info()
            s = self.stats[name]
            s[0] += info.hits
            s[1] += info.misses
            s[2] = max(s[2], info.currsize)


def reference_s() -> list[float]:
    """Times of a fixed pure-Python loop: a gauge of how fast this CPU runs right now."""
    times = []
    for _ in range(REFERENCE_SAMPLES):
        t0 = time.perf_counter()
        total = 0
        for i in range(REFERENCE_STEPS):
            total += i * i % 7
        times.append(time.perf_counter() - t0)
    return times


def _clear(memo: MemoStats | None) -> None:
    if memo is not None:
        memo.sample()
    sequences.clear_caches()
    quadfield.clear_caches()


def _int_bytes(x: int) -> bytes:
    return x.to_bytes(x.bit_length() // 8 + 1, "big", signed=True)


def _timed(fn, params: IdentityParams, cold: bool, memo: MemoStats | None) -> tuple:
    """Value and median time of TIMED_REPS evaluations.

    Cold: the caches are cleared before every evaluation.  Warm: one untimed
    evaluation first fills them.
    """
    if not cold:
        fn(params)
    times = []
    for _ in range(TIMED_REPS):
        if cold:
            _clear(memo)
        t0 = time.perf_counter()
        value = fn(params)
        times.append(time.perf_counter() - t0)
    return value, statistics.median(times)


def time_points(points: list, cold: bool, memo: MemoStats | None = None) -> dict:
    """Time the oracle and closed side of each point, then compare exactly.

    Each side's time is the median of TIMED_REPS evaluations; cold timing
    clears the caches before each, as `fibsums.cli.bench_identity` does.
    A raised exception or a mismatch fails the point.
    """
    oracle, closed, errors = [], [], []
    failed = 0
    sha = hashlib.sha256()
    t0 = time.perf_counter()
    for point in points:
        desc = descriptor(IdentityId(point[0]))
        params = IdentityParams(*point[1:])
        try:
            lhs, lhs_s = _timed(desc.lhs, params, cold, memo)
            rhs, rhs_s = _timed(desc.rhs, params, cold, memo)
        except Exception as exc:  # a crash fails the point, the run goes on
            failed += 1
            errors.append(f"{point}: {type(exc).__name__}: {exc}")
            continue
        oracle.append(lhs_s)
        closed.append(rhs_s)
        if lhs != rhs:
            failed += 1
            errors.append(f"{point}: mismatch")
        sha.update(json.dumps(point).encode())
        sha.update(_int_bytes(lhs.numerator) + b"/" + _int_bytes(lhs.denominator))
    wall = time.perf_counter() - t0
    if memo is not None:
        memo.sample()
    return {
        "wall_s": wall,
        "attempted": len(points),
        "failed": failed,
        "errors": errors[:5],
        "oracle_s": oracle,
        "closed_s": closed,
        "sha256": sha.hexdigest(),
    }


def run_grid(payload: dict, tracer: Tracer | None) -> dict:
    sink = Sink()
    rc, error = None, None
    before = os.times()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink):
            rc = fibsums.cli.main(payload["argv"])
    except Exception as exc:  # reported as failed points by the parent
        error = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - t0
    after = os.times()
    out = {
        "wall_s": wall,
        "rc": rc,
        "error": error,
        "report": {"bytes": sink.bytes, "lines": sink.lines, "sha256": sink.sha.hexdigest()},
        "tail": sink.tail,
        "parent_cpu_s": (after.user - before.user) + (after.system - before.system),
        "workers_cpu_s": (after.children_user - before.children_user)
        + (after.children_system - before.children_system),
    }
    if tracer is None:
        out["sample"] = time_points(payload["sample"], cold=False)
    return out


def main() -> None:
    if sys.argv[2:] == ["--setup-only"]:
        reference = statistics.median(reference_s())
        print(json.dumps({"setup_s": SETUP_S, "reference_s": reference, "fibsums_file": fibsums.__file__}))
        return
    payload = json.loads(sys.stdin.read())
    reference = reference_s()
    tracer = memo = None
    if payload["trace"]:
        tracer = Tracer()
        instrument(tracer, payload["families"], payload["sides_in_process"])
        memo = MemoStats()
    if payload["kind"] == "grid":
        out = run_grid(payload, tracer)
        if memo is not None:
            memo.sample()
    else:
        out = time_points(payload["points"], cold=True, memo=memo)
    reference += reference_s()
    if tracer is not None:
        tracer.restore()
        out["trace"] = {
            "calls": tracer.calls,
            "total": tracer.total,
            "self": tracer.self_time,
            "spans": tracer.spans,
            "memo": memo.stats,
        }
    out["setup_s"] = SETUP_S
    out["reference_s"] = statistics.median(reference)
    out["fibsums_file"] = fibsums.__file__
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["workers_peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(json.dumps(out))


if __name__ == "__main__":
    main()
