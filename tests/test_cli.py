import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from fibsums import IdentityId, IntegralityError
from fibsums import cli
from fibsums.cli import MAX_BITS, bench_identity, main
from fibsums.identities import IdentityParams, _BY_ID, IdentityDescriptor
from fibsums.verify import default_grid_specs, run_grid

ROOT = Path(__file__).resolve().parent.parent


def _raise_integrality(params):
    raise IntegralityError("expected an integer value, got 1/5")


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def python_env(unbuffered: bool | None = None) -> dict[str, str]:
    """The environment of a fresh interpreter against the package in src/.

    `unbuffered` sets or clears PYTHONUNBUFFERED; None keeps it as it is.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    if unbuffered is not None:
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
    return env


def run_python(*argv: str, stdout=subprocess.PIPE, unbuffered: bool | None = None) -> subprocess.CompletedProcess:
    """`python ...` in a fresh interpreter, against the package in src/."""
    return subprocess.run(
        [sys.executable, *argv], stdout=stdout, stderr=subprocess.PIPE, env=python_env(unbuffered), cwd=ROOT
    )


def run_module(*argv: str) -> subprocess.CompletedProcess:
    """`python -m fibsums ...` in a fresh interpreter, against the package in src/."""
    return run_python("-m", "fibsums", *argv)


class TestSeq:
    @pytest.mark.parametrize("argv,expected", [(("fib", "10"), "55"), (("lucas", "0"), "2"), (("fib", "-7"), "13")])
    def test_values(self, capsys, argv, expected):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert out.strip() == expected

    def test_malformed_integer_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "fib", "ten")
        assert code == 2


class TestSum:
    def test_cubic_sum(self, capsys):
        code, out, _ = run_cli(
            capsys, "sum", "--n", "2", "--j", "1", "--r", "1", "--s", "1", "--m", "3", "--x", "1", "--z", "1", "--seq", "F"
        )
        assert (code, out.strip()) == (0, "11")

    def test_defaults(self, capsys):
        code, out, _ = run_cli(capsys, "sum", "--n", "3", "--m", "1", "--seq", "L")
        assert (code, out.strip()) == (0, "18")

    def test_m_zero_power_of_two(self, capsys):
        code, out, _ = run_cli(capsys, "sum", "--n", "5", "--m", "0")
        assert (code, out.strip()) == (0, "32")

    def test_rational_weights_print_with_denominator(self, capsys):
        code, out, _ = run_cli(capsys, "sum", "--n", "2", "--m", "0", "--x", "1/2", "--z", "1")
        assert (code, out.strip()) == (0, str(Fraction(9, 4)))

    def test_negative_rational_weight_as_separate_token(self, capsys):
        # 2x + 1 at x = -2/7: the token must not be taken for an option
        code, out, _ = run_cli(capsys, "sum", "--n", "2", "--x", "-2/7")
        assert (code, out.strip()) == (0, "3/7")

    def test_negative_exponent_weight_as_separate_token(self, capsys):
        # 2z + z^2 at z = -1/1000
        code, out, _ = run_cli(capsys, "sum", "--n", "2", "--z", "-1e-3")
        assert (code, out.strip()) == (0, "-1999/1000000")

    def test_negative_n_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "sum", "--n", "-1")
        assert code == 2
        assert "n >= 0" in err

    def test_p_is_not_a_sum_flag(self, capsys):
        # no sum reads p: the flag is a usage error rather than silently ignored
        code, out, err = run_cli(capsys, "sum", "--n", "2", "--s", "1", "--m", "3", "--p", "1")
        assert (code, out) == (2, "")
        assert "--p" in err
        code, out, _ = run_cli(capsys, "sum", "--n", "2", "--s", "1", "--m", "3")
        assert (code, out.strip()) == (0, "11")


class TestClosed:
    def test_match(self, capsys):
        code, out, _ = run_cli(capsys, "closed", "--id", "C18", "--n", "2", "--s", "1")
        assert code == 0
        assert out.strip() == "lhs=11 rhs=11 MATCH"

    def test_match_with_p(self, capsys):
        code, out, _ = run_cli(capsys, "closed", "--id", "E9", "--n", "2", "--p", "2")
        assert code == 0
        assert out.strip() == "lhs=-3 rhs=-3 MATCH"

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "closed", "--id", "C18", "--n", "2", "--s", "1", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj == {"id": "C18", "params": {"n": 2, "s": 1}, "lhs": "11", "rhs": "11", "match": True}

    @pytest.mark.parametrize(
        "id,point",
        [
            ("C18", {"n": 2, "s": 1}),
            ("Q13", {"n": 3, "j": 2, "r": -1, "s": 1, "p": 2}),
            ("EVEN_F", {"n": 3, "j": -1, "r": 2, "s": 1, "m": 2}),
            ("F1", {"n": 4, "j": 2, "r": 3, "s": -1}),
        ],
    )
    def test_json_is_the_verify_line(self, capsys, id, point):
        # one record renderer: the same bytes as that point's line in a verify report
        flags = [arg for slot, value in point.items() for arg in (f"--{slot}", str(value))]
        code, closed_out, _ = run_cli(capsys, "closed", "--id", id, *flags, "--format", "json")
        assert code == 0
        code, verify_out, _ = run_cli(capsys, "verify", "--ids", id, *flags, "--format", "json", "--jobs", "1")
        assert code == 0
        point_line, _summary = verify_out.splitlines(keepends=True)
        assert closed_out == point_line

    def test_inapplicable_params(self, capsys):
        code, _, err = run_cli(capsys, "closed", "--id", "Q13", "--n", "1", "--p", "0")
        assert code == 2
        assert "p must be nonzero" in err

    def test_unknown_id(self, capsys):
        code, _, _ = run_cli(capsys, "closed", "--id", "NOPE", "--n", "1")
        assert code == 2

    def test_unread_slot_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "closed", "--id", "C18", "--n", "2", "--s", "1", "--j", "99", "--m", "7", "--p", "5")
        assert (code, out) == (2, "")
        assert err == "error: C18 does not read --j, --p, --m; its slots are n, s\n"

    def test_read_slots_accepted_at_their_default_values(self, capsys):
        code, out, _ = run_cli(capsys, "closed", "--id", "F1", "--n", "3", "--j", "1", "--r", "1", "--s", "0")
        assert code == 0
        assert out.strip() == "lhs=8 rhs=8 MATCH"

    def test_mismatch_exits_one(self, capsys, monkeypatch):
        # force a wrong closed form to exercise the failure exit code
        real = _BY_ID[IdentityId.C18]
        broken = IdentityDescriptor(
            real.id, real.kind, real.slots, real.anchor, real.lhs_args, lambda q: Fraction(0)
        )
        monkeypatch.setitem(_BY_ID, IdentityId.C18, broken)
        code, out, _ = run_cli(capsys, "closed", "--id", "C18", "--n", "2", "--s", "1")
        assert code == 1
        assert "MISMATCH" in out


class TestInternalError:
    # an IntegralityError is an internal inconsistency: exit 1, never 2 or a traceback
    @pytest.fixture(autouse=True)
    def broken_c18(self, monkeypatch):
        real = _BY_ID[IdentityId.C18]
        broken = IdentityDescriptor(
            real.id, real.kind, real.slots, real.anchor, real.lhs_args, _raise_integrality
        )
        monkeypatch.setitem(_BY_ID, IdentityId.C18, broken)

    def test_closed(self, capsys):
        code, out, err = run_cli(capsys, "closed", "--id", "C18", "--n", "2", "--s", "1")
        assert (code, out) == (1, "")
        assert err == "error: expected an integer value, got 1/5\n"

    # in verify it is a failed check carrying the error, so the report stays whole
    def test_verify(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--ids", "C18", "--n", "0..2", "--s", "0..1", "--jobs", "1")
        assert (code, err) == (1, "")
        lines = out.splitlines()
        assert lines[1] == "FAIL C18 params={'n': 0, 's': 0} error=IntegralityError: expected an integer value, got 1/5"
        assert lines[-1] == "FAIL (6 mismatches of 6 checks)"

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_verify_json(self, capsys, jobs):
        code, out, err = run_cli(
            capsys, "verify", "--ids", "C18", "--n", "0..40", "--s", "-1..1", "--format", "json", "--jobs", jobs
        )
        assert (code, err) == (1, "")
        rows = [json.loads(line) for line in out.splitlines()]
        assert len(rows) == 124
        assert rows[0] == {
            "id": "C18",
            "params": {"n": 0, "s": -1},
            "error": "IntegralityError: expected an integer value, got 1/5",
            "match": False,
        }
        assert rows[-1]["failed"] == 123 and rows[-1]["verdict"] == "FAIL"


class TestVerify:
    def test_small_grid_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--ids", "C18", "--n", "0..2", "--s", "0..1", "--format", "json", "--jobs", "1"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 7
        rows = [json.loads(line) for line in lines]
        assert all(row["match"] for row in rows[:-1])
        assert rows[-1]["verdict"] == "PASS"

    def test_all_skipped_is_success(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--ids", "Q13", "--p", "0..0", "--n", "0..1", "--j", "1..1",
            "--r", "1..1", "--s", "0..0", "--jobs", "1"
        )
        assert code == 0
        assert "skipped=2" in out

    def test_text_summary(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--ids", "C18,C19", "--n", "0..3", "--s", "-1..1", "--jobs", "1"
        )
        assert code == 0
        assert out.splitlines()[0].startswith("C18")
        assert "PASS (24 checks, 0 skipped)" in out

    def test_mismatch_exits_one(self, capsys, monkeypatch):
        real = _BY_ID[IdentityId.C19]
        broken = IdentityDescriptor(
            real.id, real.kind, real.slots, real.anchor, real.lhs_args, lambda q: Fraction(-9)
        )
        monkeypatch.setitem(_BY_ID, IdentityId.C19, broken)
        code, out, _ = run_cli(capsys, "verify", "--ids", "C19", "--n", "0..1", "--s", "0..0", "--jobs", "1")
        assert code == 1
        assert "FAIL" in out

    def test_bad_range_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "--n", "0..x")
        assert code == 2

    def test_empty_range_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--ids", "C18", "--n", "2..1")
        assert code == 2
        # `A..B` is not ordered by the parser: the narrowed spec's `_replace` refuses it
        code, out, err = run_cli(capsys, "verify", "--n", "5..3", "--jobs", "1")
        assert (code, out) == (2, "")
        assert "n range is empty: (5, 3)" in err

    @pytest.mark.parametrize("ids", [",", ""])
    def test_empty_id_list_is_usage_error(self, capsys, ids):
        code, out, err = run_cli(capsys, "verify", "--ids", ids, "--jobs", "1")
        assert (code, out) == (2, "")
        assert f"error: argument --ids: expected at least one identity id, got {ids!r}" in err

    def test_range_no_selected_identity_reads_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--ids", "C18", "--j", "0..0", "--n", "0..1", "--s", "0..0")
        assert (code, out) == (2, "")
        assert err == "error: no selected identity reads --j; the slots of C18 are n, s\n"
        # one selected identity that reads the range is enough
        code, out, _ = run_cli(
            capsys, "verify", "--ids", "C18,F1", "--j", "0..0", "--n", "0..1", "--s", "0..0", "--r", "1..1", "--jobs", "1"
        )
        assert code == 0
        assert "PASS (4 checks, 0 skipped)" in out


class TestStreamedVerify:
    """`python -m fibsums verify --format json` in a fresh interpreter, serial and with workers."""

    ARGV = ["--ids", "C18,Q13,EVEN_L,ODD_F", "--n", "0..12", "--j", "1..2", "--r", "-1..1", "--s", "0..3", "--p", "-1..1"]
    POINTS = 13 * 4 + 13 * 2 * 3 * 4 * 3 + 13 * 2 * 3 * 4 * 4 + 13 * 2 * 3 * 4 * 3

    def run(self, jobs: str) -> bytes:
        proc = run_module("verify", *self.ARGV, "--format", "json", "--jobs", jobs)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    def test_bytes_equal_across_jobs_and_library(self):
        serial, parallel = self.run("1"), self.run("2")
        assert serial == parallel
        assert serial.count(b"\n") == self.POINTS + 1
        ranges = dict(n_range=(0, 12), j_range=(1, 2), r_range=(-1, 1), s_range=(0, 3), p_range=(-1, 1))
        wanted = {IdentityId.C18, IdentityId.Q13, IdentityId.EVEN_L, IdentityId.ODD_F}
        specs = [
            spec._replace(ids=tuple(i for i in spec.ids if i in wanted), **ranges)
            for spec in default_grid_specs()
        ]
        out = io.StringIO()
        summary = run_grid(specs, out=out).to_jsonl()
        assert serial.decode() == out.getvalue() + summary


class TestSerialStartUp:
    """A serial process loads neither the process pool nor `statistics`, which only bench reads."""

    SCRIPT = """
import sys
from fibsums import cli
codes = [cli.main(["verify", "--ids", "C18", "--n", "0..12", "--jobs", "1"])]
codes.append(cli.main(["closed", "--id", "C18", "--n", "2", "--s", "1"]))
print(codes, sorted({"multiprocessing", "concurrent.futures", "statistics"} & sys.modules.keys()))
"""

    def test_pool_and_statistics_stay_unloaded(self):
        proc = run_python("-c", self.SCRIPT)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == b"[0, 0] []"

    def test_import_loads_no_dataclasses_or_inspect(self):
        # -S: `site` preloads nothing, so the modules listed are the package's own imports
        script = (
            f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import fibsums.cli; "
            "print(sorted({'dataclasses', 'inspect', 'ast', 'dis', 'tokenize'} & sys.modules.keys()))"
        )
        proc = run_python("-S", "-c", script)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == b"[]"


class TestBench:
    def test_small_bench(self, capsys):
        code, out, _ = run_cli(
            capsys, "bench", "--id", "C18", "--n", "60", "--s", "1", "--reps", "3", "--format", "json"
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["id"] == "C18" and obj["reps"] == 3
        assert float(obj["speedup"]) > 0

    def test_equality_verified_before_timing(self, monkeypatch):
        real = _BY_ID[IdentityId.C18]
        broken = IdentityDescriptor(
            real.id, real.kind, real.slots, real.anchor, real.lhs_args, lambda q: Fraction(1)
        )
        monkeypatch.setitem(_BY_ID, IdentityId.C18, broken)
        with pytest.raises(Exception, match="refusing to time"):
            bench_identity(IdentityId.C18, IdentityParams(n=2, s=1), 1)

    def test_mismatch_exits_one(self, capsys, monkeypatch):
        real = _BY_ID[IdentityId.C18]
        broken = IdentityDescriptor(
            real.id, real.kind, real.slots, real.anchor, real.lhs_args, lambda q: Fraction(1)
        )
        monkeypatch.setitem(_BY_ID, IdentityId.C18, broken)
        code, out, err = run_cli(capsys, "bench", "--id", "C18", "--n", "2", "--s", "1", "--reps", "1")
        assert (code, out) == (1, "")
        assert err == "error: C18: sides disagree, refusing to time\n"

    def test_even_family_params_wired(self, capsys):
        code, out, _ = run_cli(
            capsys, "bench", "--id", "EVEN_F", "--n", "30", "--j", "3", "--r", "3",
            "--s", "1", "--m", "2", "--reps", "2", "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["speedup"] > 0

    def test_degenerate_point_reports_without_asserting(self, capsys):
        code, out, _ = run_cli(capsys, "bench", "--id", "F1", "--n", "0", "--reps", "1")
        assert code == 0
        assert "speedup" in out

    def test_inapplicable(self, capsys):
        code, _, err = run_cli(capsys, "bench", "--id", "Q13", "--n", "5", "--p", "0")
        assert code == 2

    def test_unread_slot_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "bench", "--id", "F1", "--n", "3", "--m", "9")
        assert (code, out) == (2, "")
        assert err == "error: F1 does not read --m; its slots are n, j, r, s\n"


class _Admitted(Exception):
    """Raised by the stand-ins for the evaluations: the command passed admission."""


def _admitted(*args, **kwargs):
    raise _Admitted


HUGE = "9" * 400


class TestSizeLimits:
    """One estimate admits every evaluation: MAX_BITS bounds its integers' size and MAX_WORK its work."""

    @pytest.mark.parametrize(
        "argv,err",
        [
            ("closed --id ODD_F --n 100 --j 31 --r 31 --m 10", "ODD_F: estimated integer size 2^21.5"),
            ("closed --id ODD_F --n 10000 --m 10", "ODD_F: estimated work 2^43.1"),
            ("closed --id EVEN_F --n 100 --j 31 --r 31 --m 10", "EVEN_F: estimated integer size 2^20.5"),
            ("closed --id EVEN_F --n 1000 --j 7 --r 7 --m 10", "EVEN_F: estimated work 2^40.9"),
            ("sum --n 1000 --j 9 --r 10 --m 10", "sum: estimated work 2^40.6"),
            ("bench --id C18 --n 5000 --s 1 --reps 100", "C18: estimated work 2^42.6"),
            # the weights' bit size counts once per step of n
            ("sum --n 300 --x 1e-6000", "sum: estimated integer size 2^22.6"),
            ("sum --n 1000 --z 1e20000", "sum: estimated integer size 2^26.0"),
            # verify admits each spec and identity at the spec's largest point
            ("verify --ids C18 --n 30000..30000 --jobs 1", "C18 at n=30000, s=4: estimated work 2^42.7"),
            # at index size 0 each step of n still counts 2 bits: C(n,k) and the weights L_0 = 2
            ("closed --id E11 --n 100000000 --j 0 --p 0", "E11: estimated integer size 2^27.6"),
            ("closed --id Q15 --n 100000000 --j 0 --p 0", "Q15: estimated integer size 2^27.6"),
            ("closed --id E12 --n 100000000 --j 1 --r 0 --s 0 --p 0", "E12: estimated integer size 2^27.6"),
            (
                "verify --ids E11 --n 0..100000000 --j 0..0 --p 0..0",
                "E11 at n=100000000, j=0, r=4, s=4, p=0: estimated integer size 2^27.6",
            ),
            # the ODD family's oracle steps its index by 2r
            ("closed --id ALT_ODD_F --n 418 --j -43 --r -5 --s -52 --m 3", "ALT_ODD_F: estimated work 2^40.1"),
        ],
    )
    def test_costly_evaluation_exits_at_once(self, capsys, argv, err):
        t0 = time.perf_counter()
        code, out, stderr = run_cli(capsys, *argv.split())
        assert time.perf_counter() - t0 < 1
        assert (code, out) == (2, "")
        bound = "2^20" if "size" in err else "2^39"
        assert stderr == f"error: {err} is above the limit of {bound}\n"

    @pytest.mark.parametrize(
        "argv",
        [
            f"sum --n {HUGE}",
            f"closed --id C18 --n 1 --s {HUGE}",
            f"fib {HUGE}",
            f"lucas -{HUGE}",
            f"bench --id C18 --n 5 --reps {HUGE}",
            f"verify --ids C18 --n 0..{HUGE}",
        ],
        ids=["sum-n", "closed-s", "fib", "lucas", "bench-reps", "verify-n"],
    )
    def test_huge_argument_exits_at_once(self, capsys, argv):
        # no float sees an unbounded int, so nothing overflows into an exit 1
        t0 = time.perf_counter()
        code, out, err = run_cli(capsys, *argv.split())
        assert time.perf_counter() - t0 < 1
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and " is above the limit of 2^" in err

    @pytest.mark.parametrize("argv", ["--x 1e999999999", "--z=-1e-999999999", "--x 2.5E+1_000_000"])
    def test_weight_with_a_huge_exponent_exits_at_once(self, capsys, argv):
        # refused before Fraction builds the power of ten, which alone takes seconds from 1e5000000 on
        t0 = time.perf_counter()
        code, out, err = run_cli(capsys, "sum", "--n", "1", *argv.split())
        assert time.perf_counter() - t0 < 1
        assert (code, out) == (2, "")
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1 and errors[0].endswith(": its power of ten has over 2^20 bits")

    def test_weight_exponent_bound_is_the_integer_size_bound(self, capsys):
        # 10^315646 has 1,048,554 bits and is admitted at n = 0; 10^315653 would have 1,048,577
        code, out, _ = run_cli(capsys, "sum", "--n", "0", "--x", "1e-315646", "--s", "7")
        assert (code, out) == (0, "13\n")
        code, out, err = run_cli(capsys, "sum", "--n", "0", "--x", "1e315653")
        assert (code, out) == (2, "") and err.endswith("'1e315653': its power of ten has over 2^20 bits\n")

    @pytest.mark.parametrize(
        "argv,err",
        [
            ("sum --n -1", "direct_sum requires n >= 0, got n=-1"),
            ("closed --id C18 --n -1", "C18: n must be non-negative"),
            ("closed --id EVEN_F --n 2 --m -1", "EVEN_F: m must be non-negative"),
            ("sum --n 2 --m -1", "direct_sum requires m >= 0, got m=-1"),
            ("bench --id C18 --n 2 --reps 0", "reps must be positive, got 0"),
            (f"closed --id C18 --n -{HUGE}", "C18: n must be non-negative"),
            (f"bench --id C18 --n 5000 --reps -{HUGE}", f"reps must be positive, got -{HUGE}"),
        ],
        ids=["sum-n", "closed-n", "closed-m", "sum-m", "bench-reps", "closed-huge-n", "bench-huge-reps"],
    )
    def test_negative_argument_keeps_its_message(self, capsys, argv, err):
        code, out, stderr = run_cli(capsys, *argv.split())
        assert (code, out, stderr) == (2, "", f"error: {err}\n")

    def test_unread_slot_is_rejected_before_the_size(self, capsys):
        code, out, err = run_cli(capsys, "closed", "--id", "C18", "--n", "5", "--j", "100000000")
        assert (code, out, err) == (2, "", "error: C18 does not read --j; its slots are n, s\n")

    @pytest.mark.parametrize(
        "argv",
        [
            "fib 1000000",
            "lucas -1509950",
            "sum --n 10000",
            "closed --id C18 --n 10000",
            "closed --id F1 --n 10000",
            "closed --id T1_F2RHS --n 10000",
            "closed --id Q15 --n 10000",
            "closed --id EVEN_F --n 2 --m 3000",
            "bench --id C18 --n 5000 --s 1 --reps 5",
            "verify",
            "verify --format json --jobs 2",
            "verify --j=-4..-1 --r=1..4 --s=-3..0",
        ],
    )
    def test_admitted_without_evaluating(self, monkeypatch, argv):
        # each evaluation is a stand-in here: this checks admission only
        for name in ("fib", "lucas", "direct_sum", "eval_pair", "bench_identity", "run_grid"):
            monkeypatch.setattr(cli, name, _admitted)
        with pytest.raises(_Admitted):
            main(argv.split())

    def test_ceilings_themselves_accepted(self, capsys):
        # a 21st power and 100 reps are admitted at small n
        assert run_cli(capsys, "sum", "--n", "2", "--m", "10")[0] == 0
        code, out, _ = run_cli(capsys, "closed", "--id", "ALT_ODD_F", "--n", "2", "--m", "10")
        assert code == 0 and out.endswith(" MATCH\n")
        assert run_cli(capsys, "bench", "--id", "C18", "--n", "2", "--reps", "100")[0] == 0

    @pytest.mark.parametrize(
        "argv,size",
        [
            (("closed", "--id", "EVEN_F", "--n", "100", "--j", "100", "--r", "100", "--m", "10"), 1_020_101),
            (("closed", "--id", "C18", "--n", "5", "--s", "100000000"), 100_000_013),
            (("sum", "--n", "10", "--j", "100000", "--r", "100000"), 120_000_000_011),
        ],
    )
    def test_index_above_ceiling_exits_at_once(self, capsys, argv, size):
        # the integer size is at least log2(phi) bits per step of the index size
        t0 = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - t0 < 1
        assert (code, out) == (2, "")
        assert ": estimated integer size 2^" in err
        assert float(err.split("2^")[1].split()[0]) >= math.log2(size * 25 // 36)

    @pytest.mark.parametrize("n", [1_509_951, 100_000_000, -100_000_000])
    def test_sequence_index_above_ceiling_exits_at_once(self, capsys, n):
        # F_N has about 0.694 |N| bits; 1,509,951 is the first |N| above MAX_BITS
        assert 1_509_951 * 25 // 36 > MAX_BITS >= 1_509_950 * 25 // 36
        for command in ("fib", "lucas"):
            t0 = time.perf_counter()
            code, out, err = run_cli(capsys, command, str(n))
            assert time.perf_counter() - t0 < 1
            assert (code, out) == (2, "")
            log2 = math.ceil(10 * math.log2(abs(n) * 25 // 36)) / 10
            assert err == f"error: {command}: estimated integer size 2^{log2} is above the limit of 2^20\n"

    def test_index_ceiling_itself_evaluates(self, capsys):
        # C18 at index size 10^5 and lucas at |N| = 10^6 evaluate
        code, out, _ = run_cli(capsys, "closed", "--id", "C18", "--n", "5", "--s", "99987")
        assert (code, out[-6:]) == (0, "MATCH\n")
        code, out, _ = run_cli(capsys, "lucas", "-1000000")
        assert code == 0 and len(out.strip()) == 208_988

    def test_weights_within_bounds_evaluate(self, capsys):
        # w = 6,644 bits per step of n: an estimated integer size of 2^19.4 and work of 2^37.4
        code, out, _ = run_cli(capsys, "sum", "--n", "100", "--x", "1e-2000")
        assert code == 0
        num, den = out.strip().split("/")
        assert len(num) == 198_019 and den == "1" + "0" * 197_998


class TestFib:
    def test_huge_value_prints_and_leaves_digit_limit(self, capsys):
        limit = sys.get_int_max_str_digits()
        code, out, _ = run_cli(capsys, "fib", "100000")
        digits = out.strip()
        assert code == 0
        assert len(digits) == 20899 and digits.isdigit() and digits.endswith("5")
        assert sys.get_int_max_str_digits() == limit


class TestList:
    def test_text(self, capsys):
        code, out, _ = run_cli(capsys, "list")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 30
        assert any(line.startswith("C18") and "F[k+s]^3" in line for line in lines)

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "list", "--format", "json")
        rows = [json.loads(line) for line in out.strip().splitlines()]
        assert len(rows) == 30
        assert rows[0]["id"] == "F1" and rows[0]["slots"] == ["n", "j", "r", "s"]

    @pytest.mark.parametrize(
        "argv,digest",
        [
            ((), "278b5fb0620a08df6d3df1bad7a2817a52453485f8992b184cd3263de9817d9f"),
            (("--format", "json"), "487ca8db5c637311b41cbee2dd1a242961743c4e858ee1d79a576c98e9176878"),
        ],
        ids=["text", "json"],
    )
    def test_anchors_pinned(self, capsys, argv, digest):
        # ids, slots and anchors are the public naming contract reports use
        code, out, _ = run_cli(capsys, "list", *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestEntryPoint:
    def test_module_invocation(self):
        proc = run_module("fib", "12")
        assert proc.returncode == 0
        assert proc.stdout.strip() == b"144"

    def test_usage_error_exit_code(self):
        proc = run_module("frob")
        assert proc.returncode == 2

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
    @pytest.mark.parametrize(
        "argv",
        [("fib", "10"), ("verify", "--ids", "C18", "--n", "0..12", "--format", "json", "--jobs", "1")],
        ids=["fib", "verify-json"],
    )
    def test_full_stdout_is_one_error_line(self, argv, unbuffered):
        # every write to /dev/full fails with ENOSPC: at the print when unbuffered,
        # at the flush after the command when buffered, and never again at exit
        with open("/dev/full", "wb") as full:
            proc = run_python("-m", "fibsums", *argv, stdout=full, unbuffered=unbuffered)
        err = proc.stderr.decode()
        assert proc.returncode == 1
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err
        assert "Traceback" not in err

    @pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
    def test_reader_that_stops_early_exits_zero(self, unbuffered):
        # `fibsums fib 1000000 | head -c 1`: 208,988 digits overflow the pipe, so a write meets its closed end
        argv = [sys.executable, "-m", "fibsums", "fib", "1000000"]
        env = python_env(unbuffered)
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=ROOT) as proc:
            assert proc.stdout.read(1) == b"1"
            proc.stdout.close()
            err = proc.stderr.read()
        assert proc.returncode == 0
        assert err == b""
