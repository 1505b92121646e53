"""Layered benchmark of fibsums: end-to-end metrics per workload, per-layer metrics when traced.

    python3 perfbench/run.py --workload grid-serial --seed 1 --seconds 30 --trace 0

Without --workload every workload runs in turn.  The inputs are generated
from --seed alone.  Each repetition runs in a fresh interpreter
(`child.py`) against the fibsums sources in `src/` next to this directory;
repetitions continue until --seconds have passed, and each metric is the
median over them.  Every output is checked: the verdict and the
per-identity totals of `verify` against counts derived here from the
windows, the report line count, exact equality of both sides at every
large-n point, and identical report digests across repetitions.

stdout gets a header line, a detail line per workload and, last, one JSON
object {"correct", "attempted", "failed", "metrics"} per workload.  With
--trace 0 the metrics are the end-to-end ones; with --trace 1 they are the
per-layer ones, from traced repetitions alternated with untraced ones.
The exit code is 1 when a check fails and 2 when the sources are missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import re
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"

WORKLOADS = ("grid-serial", "grid-json-jobs", "large-n")

# The catalog as the README documents it: id, family, parameter slots.
_NJ, _NJP, _NS, _NJM = ("n", "j", "r", "s"), ("n", "j", "r", "s", "p"), ("n", "s"), ("n", "j", "r", "s", "m")
CATALOG = (
    [("F1", "linear", _NJ), ("L1", "linear", _NJ)]
    + [(f"E{i}", "special_linear", _NJ) for i in (5, 6, 7, 8)]
    + [(f"E{i}", "special_linear", _NJP) for i in (9, 10, 11, 12)]
    + [("T1_F2RHS", "quadratic_base", _NJ), ("T1_L2RHS", "quadratic_base", _NJ)]
    + [(f"Q{i}", "quadratic", _NJP) for i in (13, 14, 15, 16)]
    + [(f"C{i}", "cubic", _NS) for i in range(18, 24)]
    + [(i, "even_power", _NJM) for i in ("EVEN_F", "EVEN_L", "ALT_EVEN_F", "ALT_EVEN_L")]
    + [(i, "odd_power", _NJM) for i in ("ODD_F", "ODD_L", "ALT_ODD_F", "ALT_ODD_L")]
)
FAMILIES = {pid: family for pid, family, _ in CATALOG}
NONZERO_P = ("Q13", "Q14")  # skipped by verify at p = 0
SLOT_DEFAULTS = {"n": 0, "j": 1, "r": 1, "s": 0, "p": 1, "m": 1}
SLOT_ORDER = ("n", "j", "r", "s", "p", "m")

# Default grid ranges that the grid workloads keep in full.
GRID_RANGES = {"n": (0, 12), "p": (-4, 4)}
M_RANGE = {"odd_power": (0, 2)}  # every other family: (0, 3)

# |value| sets of the seeded j/r/s windows.  The seed picks each window's
# sign, so every seed verifies the same number of points at nearly the same
# index sizes, and the run-to-run spread stays small.
WINDOW_MAGNITUDES = {"j": (1, 4), "r": (1, 4), "s": (0, 3)}
SAMPLE_PER_N = 4  # grid sample points per identity and n value

# large-n strata: (n base, |j|, |r|, |p|, m).  The seed adds 0..15 to n and
# picks the signs, s and the order.  The oracle grows steeply with n*j*r*m;
# these keep one cold-timed pass near four seconds.
LARGE_N_LEVELS = ((1000, 2, 1, 3, 2), (1200, 1, 2, 2, 1), (1800, 1, 1, 1, 1))

MIN_REPS = 3
# Time metrics are scaled to a CPU on which child.reference_s() takes this long
# (about the unloaded speed of a 2-vCPU cloud VM under Python 3.11); see README.
REFERENCE_NOMINAL_S = 0.004
CHILD_DEADLINE_S = 165  # no repetition may run past this point of the run
LAUNCH_DEADLINE_S = 110  # no repetition starts after this point of the run

FAMILY_NAMES = (
    "linear", "special_linear", "quadratic_base", "quadratic", "cubic", "even_power", "odd_power",
)


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# --- inputs ------------------------------------------------------------------


def worker_count() -> int:
    """CPUs this process may use, capped at 4 to keep memory small."""
    return max(1, min(4, len(os.sched_getaffinity(0))))


def _slot_range(slot: str, family: str, windows: dict) -> tuple[int, int]:
    if slot == "m":
        return M_RANGE.get(family, (0, 3))
    return windows.get(slot) or GRID_RANGES[slot]


def expected_totals(windows: dict) -> dict[str, tuple[int, int]]:
    """(checked, skipped) per identity, from the slot ranges alone."""
    out = {}
    for pid, family, slots in CATALOG:
        sizes = {s: hi - lo + 1 for s in slots for lo, hi in [_slot_range(s, family, windows)]}
        total = math.prod(sizes.values())
        skipped = total // sizes["p"] if pid in NONZERO_P else 0
        out[pid] = (total - skipped, skipped)
    return out


def _point(pid: str, values: dict) -> list:
    return [pid] + [values.get(s, SLOT_DEFAULTS[s]) for s in SLOT_ORDER]


def grid_inputs(rng: random.Random) -> dict:
    windows = {}
    for axis, (lo, hi) in WINDOW_MAGNITUDES.items():
        windows[axis] = (lo, hi) if rng.random() < 0.5 else (-hi, -lo)
    return {"windows": windows, "sample": grid_sample(windows)}


def grid_sample(windows: dict) -> list:
    """SAMPLE_PER_N points per identity and n; the other slots follow a fixed pattern.

    The pattern picks positions in each slot's values ordered by magnitude,
    so only the seeded window signs differ between seeds and every seed
    times points of the same magnitudes.
    """
    pattern = random.Random("grid-sample")
    sample = []
    for pid, family, slots in CATALOG:
        for n in list(range(GRID_RANGES["n"][0], GRID_RANGES["n"][1] + 1)) * SAMPLE_PER_N:
            values = {"n": n}
            for slot in slots[1:]:
                lo, hi = _slot_range(slot, family, windows)
                choices = sorted(range(lo, hi + 1), key=abs)
                if slot == "p" and pid in NONZERO_P:
                    choices.remove(0)
                values[slot] = choices[pattern.randrange(len(choices))]
            sample.append(_point(pid, values))
    return sample


def large_n_points(rng: random.Random) -> list:
    points = []
    for pid, _, slots in CATALOG:
        for n, j, r, p, m in LARGE_N_LEVELS:
            values = {
                "n": n + rng.randrange(16),
                "j": rng.choice((-j, j)),
                "r": rng.choice((-r, r)),
                "s": rng.randint(-4, 4),
                "p": rng.choice((-p, p)),
                "m": m,
            }
            points.append(_point(pid, {s: values[s] for s in slots}))
    rng.shuffle(points)
    return points


def make_payload(workload: str, seed: int) -> dict:
    if workload == "large-n":
        return {"kind": "points", "points": large_n_points(random.Random(f"large-n:{seed}"))}
    grid = grid_inputs(random.Random(f"grid:{seed}"))  # both grid workloads share the windows
    argv = ["verify"] + [f"--{axis}={lo}..{hi}" for axis, (lo, hi) in grid["windows"].items()]
    if workload == "grid-json-jobs":
        argv += ["--format", "json", "--jobs", str(worker_count())]
    else:
        argv += ["--jobs", "1"]
    return {"kind": "grid", "argv": argv, **grid}


def jobs_of(workload: str) -> int:
    return worker_count() if workload == "grid-json-jobs" else 1


# --- running repetitions -----------------------------------------------------


def _spawn(args: list[str], stdin: str, deadline: float) -> dict:
    """Run one child interpreter in its own process group; parse its JSON line."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise TimeoutError("no time left for another repetition")
    proc = subprocess.Popen(
        [sys.executable, str(CHILD), str(SRC), *args],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(stdin, timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the child and any workers it forked
        proc.communicate()
        raise TimeoutError(f"repetition killed after {timeout:.0f} s") from None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0 or not out.strip():
        raise RuntimeError(f"child exited with code {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    if Path(result.get("fibsums_file", SRC)).resolve().parent.parent != SRC.resolve():
        raise BenchError(f"fibsums was imported from {result['fibsums_file']}, not {SRC}")
    return result


def run_repetitions(payload: dict, seconds: float, trace: bool, started: float) -> dict:
    """Repetitions until `seconds` have passed, and at least MIN_REPS of each kind."""
    reps, setups, errors = [], [], []
    lost = 0  # repetitions whose interpreter crashed or was killed
    t0 = time.monotonic()
    deadline = started + CHILD_DEADLINE_S
    min_reps = 2 * MIN_REPS if trace else MIN_REPS  # traced runs alternate with untraced
    i = 0
    while i < min_reps or time.monotonic() - t0 < seconds:
        if time.monotonic() - started > LAUNCH_DEADLINE_S:
            break
        traced = trace and i % 2 == 1
        try:
            if not trace:
                setups.append(_spawn(["--setup-only"], "", deadline))
            child = _spawn([], json.dumps({**payload, "trace": traced}), deadline)
        except BenchError:
            raise
        except (RuntimeError, TimeoutError, ValueError) as exc:
            errors.append(f"repetition {i}: {exc}")
            lost += 1
            if isinstance(exc, TimeoutError):
                break
        else:
            child["traced"] = traced
            reps.append(child)
            setups.append(child)
        i += 1
    return {"reps": reps, "setups": setups, "errors": errors, "lost": lost}


# --- checks ------------------------------------------------------------------

_TEXT_LINE = re.compile(r"^(\S+)\s+checked=(\d+)\s+matched=(\d+)\s+skipped=(\d+)$")


def _reported_totals(rep: dict, json_report: bool) -> tuple[dict, str]:
    """Per-identity (checked, matched, skipped) and the verdict, as the report states them."""
    lines = rep["tail"].rstrip("\n").splitlines()
    if json_report:
        summary = json.loads(lines[-1])
        totals = {
            pid: (t["checked"], t["matched"], t["skipped"]) for pid, t in summary["totals"].items()
        }
        return totals, summary["verdict"]
    totals = {}
    for line in lines:
        m = _TEXT_LINE.match(line)
        if m:
            totals[m.group(1)] = tuple(int(g) for g in m.group(2, 3, 4))
    return totals, lines[-1].split(" ", 1)[0]


def check_grid(rep: dict, expected: dict, json_report: bool) -> tuple[int, list[str]]:
    """Failed points of one verify run, and what was wrong with it."""
    points = sum(c + s for c, s in expected.values())
    if rep["error"] is not None:
        return points, [rep["error"]]
    if rep["rc"] not in (0, 1):
        return points, [f"verify exited with code {rep['rc']}"]
    try:
        totals, verdict = _reported_totals(rep, json_report)
    except (ValueError, KeyError, IndexError) as exc:
        return points, [f"unreadable report: {exc!r}"]
    problems = []
    failed = max(0, points - sum(c + s for c, _, s in totals.values()))
    for pid, (checked, skipped) in expected.items():
        got = totals.get(pid, (0, 0, 0))
        failed += got[0] - got[1]
        if got != (checked, checked, skipped):
            problems.append(f"{pid}: reported {got}, expected {(checked, checked, skipped)}")
    if verdict != "PASS" or rep["rc"] != 0:
        problems.append(f"verdict {verdict}, exit code {rep['rc']}")
    if json_report and rep["report"]["lines"] != points + 1:
        problems.append(f"{rep['report']['lines']} report lines for {points} points")
    return failed, problems


def check_run(workload: str, payload: dict, run: dict) -> dict:
    """Attempted and failed points over all repetitions, and every problem found."""
    problems = list(run["errors"])
    if payload["kind"] == "grid":
        expected = expected_totals(payload["windows"])
        grid_points = sum(c + s for c, s in expected.values())
        attempted = failed = grid_points * run["lost"]
        for rep in run["reps"]:
            f, p = check_grid(rep, expected, workload == "grid-json-jobs")
            attempted += grid_points
            failed += f
            problems += p
            if "sample" in rep:
                attempted += rep["sample"]["attempted"]
                failed += rep["sample"]["failed"]
                problems += rep["sample"]["errors"]
        digests = {rep["report"]["sha256"] for rep in run["reps"]}
    else:
        attempted = failed = len(payload["points"]) * run["lost"]
        for rep in run["reps"]:
            attempted += rep["attempted"]
            failed += rep["failed"]
            problems += rep["errors"]
        digests = {rep["sha256"] for rep in run["reps"]}
    if len(digests) > 1:
        problems.append(f"report digest differs between repetitions: {sorted(digests)}")
    if not run["reps"]:
        problems.append("no repetition completed")
        attempted = max(attempted, 1)
    return {"attempted": attempted, "failed": failed, "problems": problems, "digests": sorted(digests)}


# --- metrics -----------------------------------------------------------------


def p50_tail(samples: list[float]) -> tuple[float, float, float]:
    """Median and the highest percentile with at least ten samples beyond it.

    Returns (median, tail value, tail percentile); with eleven samples or
    fewer the tail is the maximum.
    """
    xs = sorted(samples)
    k = len(xs) - 11 if len(xs) > 11 else len(xs) - 1
    return statistics.median(xs), xs[k], 100.0 * (k + 1) / len(xs)


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _scale(sample: dict) -> float:
    """How much slower than nominal the CPU ran this repetition (reference / nominal)."""
    return sample["reference_s"] / REFERENCE_NOMINAL_S


def end_to_end(payload: dict, run: dict, scaled: bool = True) -> tuple[dict, dict]:
    """Medians over repetitions; times scaled to the nominal CPU speed unless `scaled` is off."""
    reps = run["reps"]
    scale = _scale if scaled else (lambda sample: 1.0)
    if payload["kind"] == "grid":
        points = sum(c + s for c, s in expected_totals(payload["windows"]).values())
        timed = [rep["sample"] for rep in reps]
    else:
        points = len(payload["points"])
        timed = reps
    values = {
        "setup_s": _median([p["setup_s"] / scale(p) for p in run["setups"]]),
        "points_per_s": _median([points / rep["wall_s"] * scale(rep) for rep in reps]),
        "peak_rss_mb": _median([rep["peak_rss_mb"] for rep in reps]),
    }
    detail = {}
    for side in ("closed", "oracle"):
        stats = [
            (p50_tail(t[f"{side}_s"]), scale(rep)) for t, rep in zip(timed, reps) if t[f"{side}_s"]
        ]
        values[f"{side}_p50_ms"] = 1e3 * _median([st[0] / k for st, k in stats])
        values[f"{side}_tail_ms"] = 1e3 * _median([st[1] / k for st, k in stats])
        detail[f"{side}_tail"] = {
            "percentile": stats[0][0][2] if stats else None,
            "samples_per_rep": len(timed[0][f"{side}_s"]) if timed else 0,
        }
    return values, detail


def _ratio(hits: float, lookups: float) -> float:
    return hits / lookups if lookups else 0.0


def layer_values(rep: dict, jobs: int) -> dict:
    t = rep["trace"]
    calls, total, self_time = t["calls"], t["total"], t["self"]
    fib_hits, fib_misses, fib_entries = t["memo"]["fib"]
    ap_hits, ap_misses, ap_entries = t["memo"]["alpha_pow"]
    v = {
        "sequences.fib.calls": calls.get("fib", 0),
        "sequences.lucas.calls": calls.get("lucas", 0),
        "sequences.direct_sum.calls": calls.get("direct_sum", 0),
        "sequences.direct_sum.total_s": total.get("direct_sum", 0.0),
        "sequences.memo.hit_ratio": _ratio(fib_hits, fib_hits + fib_misses),
        "sequences.memo.hits": fib_hits,
        "sequences.memo.lookups": fib_hits + fib_misses,
        "sequences.memo.entries": fib_entries,
        "quadfield.mul.calls": calls.get("QuadNum.mul", 0),
        "quadfield.pow.calls": calls.get("QuadNum.pow", 0),
        "quadfield.alpha_pow.hit_ratio": _ratio(ap_hits, ap_hits + ap_misses),
        "quadfield.alpha_pow.lookups": ap_hits + ap_misses,
        "quadfield.alpha_pow.entries": ap_entries,
        "transform.binomial_rhs.calls": calls.get("binomial_rhs", 0),
        "transform.binomial_rhs.total_s": total.get("binomial_rhs", 0.0),
    }
    for f in FAMILY_NAMES:
        v[f"identities.{f}.calls"] = calls.get(f"closed:{f}", 0)
        v[f"identities.{f}.closed_s"] = total.get(f"closed:{f}", 0.0)
        v[f"identities.{f}.oracle_s"] = total.get(f"oracle:{f}", 0.0)
    if "report" in rep:
        workers_cpu = rep["workers_cpu_s"]
        v.update({
            "verify.run_grid.self_s": self_time.get("run_grid", 0.0),
            "verify.from_records.calls": calls.get("from_records", 0),
            "verify.from_records.total_s": total.get("from_records", 0.0),
            "verify.serialize_s": total.get("serialize", 0.0),
            "verify.report_bytes": rep["report"]["bytes"],
            "verify.parent_cpu_s": rep["parent_cpu_s"],
            "verify.workers_cpu_s": workers_cpu,
            "verify.parallel_efficiency": workers_cpu / (jobs * rep["wall_s"]),
            "verify.workers_peak_rss_mb": rep["workers_peak_rss_mb"],
            "cli.main.self_s": self_time.get("main", 0.0),
        })
    return v


def unmeasured(workload: str, names: list[str]) -> dict[str, str]:
    """Per-layer metrics this workload cannot measure from outside, with the reason."""
    if workload == "large-n":
        prefixes = ("verify.", "cli.")
        why = "large-n calls the catalog sides directly, not verify or main"
    elif jobs_of(workload) > 1:
        prefixes = ("sequences.", "quadfield.", "transform.", "identities.")
        why = "the identity sides run in --jobs worker processes, seen only as verify.workers_*"
    else:
        return {
            name: "--jobs 1 starts no worker processes"
            for name in ("verify.workers_cpu_s", "verify.parallel_efficiency", "verify.workers_peak_rss_mb")
        }
    return {name: why for name in names if name.startswith(prefixes)}


def per_layer(workload: str, run: dict, names: list[str]) -> tuple[dict, dict]:
    traced = [rep for rep in run["reps"] if rep["traced"]]
    plain = [rep for rep in run["reps"] if not rep["traced"]]
    layers = [layer_values(rep, jobs_of(workload)) for rep in traced]
    values = {name: _median([lv.get(name, 0) for lv in layers]) for name in names}
    untraced_wall = _median([rep["wall_s"] for rep in plain])
    values["trace.overhead_frac"] = (
        _median([rep["wall_s"] for rep in traced]) / untraced_wall - 1 if untraced_wall else 0.0
    )
    detail = {
        "unmeasured": unmeasured(workload, names),
        "spans": traced[0]["trace"]["spans"] if traced else [],
    }
    return values, detail


# --- entry point -------------------------------------------------------------


def header(seed: int, seconds: int, trace: bool) -> dict:
    src_files = sorted(SRC.rglob("*.py"))
    tree = hashlib.sha256()
    lines = 0
    for path in src_files:
        data = path.read_bytes()
        tree.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "jobs": {w: jobs_of(w) for w in WORKLOADS},
        "commit": _commit(),
        "src_sha256": tree.hexdigest(),
        "src_lines": lines,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
    }


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def metric_units(trace: bool) -> dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json lists for this kind of run."""
    try:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read the metric list: {exc}") from None
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def run_workload(workload: str, seed: int, seconds: int, trace: bool, started: float) -> bool:
    payload = make_payload(workload, seed)
    if trace:
        payload.update(families=FAMILIES, sides_in_process=jobs_of(workload) == 1)
    run = run_repetitions(payload, seconds, trace, started)
    check = check_run(workload, payload, run)
    units = metric_units(trace)
    if trace:
        values, detail = per_layer(workload, run, list(units))
    else:
        values, detail = end_to_end(payload, run)
        detail["unscaled"] = end_to_end(payload, run, scaled=False)[0]
        detail["reference_s"] = _median([p["reference_s"] for p in run["setups"]])
    correct = not check["problems"] and check["failed"] == 0
    print(json.dumps({
        "workload": workload,
        "repetitions": len(run["reps"]),
        "traced_repetitions": sum(rep["traced"] for rep in run["reps"]),
        "attempted": check["attempted"],
        "failed": check["failed"],
        "failed_frac": check["failed"] / check["attempted"],
        "report_digests": check["digests"],
        "wall_s": [rep["wall_s"] for rep in run["reps"]],
        "problems": check["problems"][:20],
        **detail,
    }))
    print(json.dumps({
        "correct": correct,
        "attempted": check["attempted"],
        "failed": check["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }), flush=True)
    return correct


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="default: all, in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    try:
        if not (SRC / "fibsums" / "__init__.py").is_file():
            raise BenchError(f"no fibsums sources at {SRC}")
        print(json.dumps({"header": header(args.seed, args.seconds, bool(args.trace))}), flush=True)
        ok = True
        for workload in [args.workload] if args.workload else WORKLOADS:
            ok &= run_workload(workload, args.seed, args.seconds, bool(args.trace), started)
            started = time.monotonic()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
