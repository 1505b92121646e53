import json
import os
import subprocess
import sys
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from fibsums import IdentityId, IntegralityError
from fibsums.cli import MAX_INDEX, MAX_M, MAX_N, MAX_REPS, MAX_SEQ_INDEX, bench_identity, main
from fibsums.identities import IdentityParams, _BY_ID, IdentityDescriptor
from fibsums.verify import default_grid_specs, run_grids

ROOT = Path(__file__).resolve().parent.parent


def _raise_integrality(params):
    raise IntegralityError("expected an integer value, got 1/5")


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_module(*argv: str) -> subprocess.CompletedProcess:
    """`python -m fibsums ...` in a fresh interpreter, against the package in src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "fibsums", *argv], capture_output=True, env=env, cwd=ROOT)


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
            replace(spec, ids=tuple(i for i in spec.ids if i in wanted), **ranges)
            for spec in default_grid_specs()
        ]
        assert serial.decode() == run_grids(specs).to_jsonl()


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


class TestSizeLimits:
    @pytest.mark.parametrize(
        "argv,flag,value,ceiling",
        [
            (("sum",), "n", MAX_N + 1, MAX_N),
            (("sum", "--n", "2"), "m", MAX_M + 1, MAX_M),
            (("closed", "--id", "C18"), "n", MAX_N + 1, MAX_N),
            (("closed", "--id", "EVEN_F", "--n", "2"), "m", MAX_M + 1, MAX_M),
            (("bench", "--id", "C18"), "n", MAX_N + 1, MAX_N),
            (("bench", "--id", "ODD_L", "--n", "2"), "m", MAX_M + 1, MAX_M),
            (("bench", "--id", "C18", "--n", "5"), "reps", 10**20, MAX_REPS),
        ],
    )
    def test_above_ceiling_is_usage_error(self, capsys, argv, flag, value, ceiling):
        code, out, err = run_cli(capsys, *argv, f"--{flag}", str(value))
        assert (code, out) == (2, "")
        assert err == f"error: --{flag} {value} is above the limit of {ceiling}\n"

    def test_ceilings_themselves_accepted(self, capsys):
        assert run_cli(capsys, "sum", "--n", "2", "--m", str(MAX_M))[0] == 0
        assert run_cli(capsys, "closed", "--id", "ALT_ODD_F", "--n", "2", "--m", str(MAX_M))[0] == 0
        assert run_cli(capsys, "bench", "--id", "C18", "--n", "2", "--reps", str(MAX_REPS))[0] == 0

    @pytest.mark.parametrize(
        "argv,size",
        [
            (("closed", "--id", "EVEN_F", "--n", "100", "--j", "100", "--r", "100", "--m", "10"), 1_020_101),
            (("closed", "--id", "C18", "--n", "5", "--s", "100000000"), 100_000_013),
            (("sum", "--n", "10", "--j", "100000", "--r", "100000"), 120_000_000_011),
            (("bench", "--id", "Q13", "--n", "3", "--p", "-100000"), 400_005),
        ],
    )
    def test_index_above_ceiling_exits_at_once(self, capsys, argv, size):
        t0 = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - t0 < 1
        assert (code, out) == (2, "")
        assert err == f"error: index size |j|(|r|(n+2)+|s|)+|p|(n+1) = {size} is above the limit of {MAX_INDEX}\n"

    @pytest.mark.parametrize("n", [MAX_SEQ_INDEX + 1, 100_000_000, -100_000_000])
    def test_sequence_index_above_ceiling_exits_at_once(self, capsys, n):
        for command in ("fib", "lucas"):
            t0 = time.perf_counter()
            code, out, err = run_cli(capsys, command, str(n))
            assert time.perf_counter() - t0 < 1
            assert (code, out) == (2, "")
            assert err == f"error: |N| = {abs(n)} is above the limit of {MAX_SEQ_INDEX}\n"

    def test_index_ceiling_itself_evaluates(self, capsys):
        # C18 reads n and s: 1*(1*(5+2)+s) + 1*(5+1) = s + 13
        code, out, _ = run_cli(capsys, "closed", "--id", "C18", "--n", "5", "--s", str(MAX_INDEX - 13))
        assert (code, out[-6:]) == (0, "MATCH\n")
        code, out, _ = run_cli(capsys, "lucas", str(-MAX_SEQ_INDEX))
        assert code == 0 and len(out.strip()) == 208_988


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


class TestEntryPoint:
    def test_module_invocation(self):
        proc = run_module("fib", "12")
        assert proc.returncode == 0
        assert proc.stdout.strip() == b"144"

    def test_usage_error_exit_code(self):
        proc = run_module("frob")
        assert proc.returncode == 2
