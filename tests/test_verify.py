import concurrent.futures
import io
import itertools
import json
import pickle
import random
import sys
from concurrent.futures import Future
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fibsums
from fibsums import GridSpec, IdentityDescriptor, IdentityId, IdentityParams, Report, VerificationRecord, summarize
from fibsums import cli, verify
from fibsums.identities import _BY_ID, InapplicableParamsError, IntegralityError, catalog, descriptor, eval_pair
from fibsums.verify import (
    decimal_str,
    default_grid_specs,
    dump_json,
    record_line,
    run_grid,
)
from oracles import canonical_key, exact_str, record_json_oracle


def small_spec(**kw):
    defaults = dict(
        ids=(IdentityId.C18,),
        n_range=(0, 2),
        j_range=(1, 1),
        r_range=(1, 1),
        s_range=(0, 1),
        p_range=(1, 1),
        m_range=(1, 1),
    )
    defaults.update(kw)
    return GridSpec(**defaults)


def report_bytes(specs, parallelism=1):
    """`run_grid`'s report and the bytes of `verify --format json`: the streamed points, then the summary line."""
    out = io.StringIO()
    report = run_grid(specs, parallelism, out)
    return report, out.getvalue() + report.to_jsonl()


def point_objects(text):
    """The point lines of a report's bytes, parsed; the summary line is left out."""
    return [json.loads(line) for line in text.splitlines()[:-1]]


class TestGridSpec:
    def test_rejects_empty_range(self):
        with pytest.raises(ValueError):
            small_spec(s_range=(2, 1))

    def test_rejects_ids_that_are_not_members(self):
        # a string matches no descriptor, so such a spec would check nothing and report PASS
        with pytest.raises(ValueError, match="unknown identity id: 'C18'"):
            GridSpec(ids=("C18", IdentityId.F1))
        with pytest.raises(ValueError, match="unknown identity id: 'F1'"):
            small_spec(ids=(IdentityId.C18, "F1"))

    def test_rejects_empty_ids(self):
        # it would check nothing and report PASS (0 checks)
        with pytest.raises(ValueError, match="at least one identity id"):
            small_spec(ids=())
        with pytest.raises(ValueError, match="at least one identity id"):
            GridSpec(())

    def test_replace_is_checked(self):
        spec = small_spec()
        narrowed = spec._replace(n_range=(3, 5))
        assert type(narrowed) is GridSpec and narrowed.n_range == (3, 5) and narrowed.ids == spec.ids
        with pytest.raises(ValueError, match=r"n range is empty: \(5, 3\)"):
            spec._replace(n_range=(5, 3))
        with pytest.raises(ValueError, match="at least one identity id"):
            spec._replace(ids=())
        with pytest.raises(ValueError, match="unknown identity id: 'C18'"):
            spec._replace(ids=("C18",))
        with pytest.raises(ValueError, match="m range must be non-negative"):
            spec._replace(m_range=(-1, 0))
        assert GridSpec._make(spec) == spec
        with pytest.raises(ValueError, match="at least one identity id"):
            GridSpec._make(((), *spec[1:]))

    def test_record_types_keep_their_fields_and_defaults(self):
        spec = GridSpec((IdentityId.C18,))
        assert spec == ((IdentityId.C18,), (0, 12), (-4, 4), (-4, 4), (-4, 4), (-4, 4), (0, 3))
        assert GridSpec._fields == ("ids", "n_range", "j_range", "r_range", "s_range", "p_range", "m_range")
        assert repr(spec).startswith("GridSpec(ids=(<IdentityId.C18: 'C18'>,), n_range=(0, 12), ")
        with pytest.raises(AttributeError):
            spec.n_range = (0, 1)
        rec = VerificationRecord(IdentityId.C18, IdentityParams(n=1), 2, 2, True)
        assert (rec.skipped_reason, rec.error) == (None, None)
        assert VerificationRecord._fields == ("id", "params", "lhs", "rhs", "match", "skipped_reason", "error")
        with pytest.raises(AttributeError):
            rec.match = False
        # every report owns its containers
        a, b = Report(), Report()
        a.totals[IdentityId.C18] = verify.IdTotals(1, 1, 0)
        a.failures.append(rec)
        assert b == ({}, []) and a != b
        assert repr(verify.IdTotals(3, 2, 1)) == "IdTotals(checked=3, matched=2, skipped=1)"
        assert verify.IdTotals(3, 2, 1) == verify.IdTotals(3, 2, 1) != verify.IdTotals(3, 2, 0)

    def test_record_types_pickle(self):
        spec = small_spec()
        rec = VerificationRecord(IdentityId.C18, IdentityParams(n=1), None, None, False, error="E")
        report = Report({IdentityId.C18: verify.IdTotals(1, 0, 0)}, [rec])
        for value in (spec, rec, report):
            copy = pickle.loads(pickle.dumps(value))
            assert copy == value and type(copy) is type(value)

    def test_rejects_negative_n_or_m(self):
        with pytest.raises(ValueError):
            small_spec(n_range=(-1, 3))
        with pytest.raises(ValueError):
            small_spec(m_range=(-2, 0))


class TestRunGrid:
    def test_c18_box(self):
        report, text = report_bytes([small_spec()])
        objs = point_objects(text)
        assert len(objs) == 6
        checked, matched, skipped = report.counts()
        assert (checked, matched, skipped) == (6, 6, 0)
        assert report.passed
        values = {
            (obj["params"]["n"], obj["params"]["s"]): obj["lhs"] for obj in objs
        }
        assert values[(2, 1)] == "11"

    def test_q13_p_zero_all_skipped(self):
        report, text = report_bytes([small_spec(ids=(IdentityId.Q13,), p_range=(0, 0))])
        objs = point_objects(text)
        assert objs
        assert all(obj["skipped"] == "p must be nonzero" for obj in objs)
        checked, matched, skipped = report.counts()
        assert checked == 0 and skipped == len(objs)
        assert report.passed  # skips are not failures

    def test_domain_decided_once(self, monkeypatch):
        # `rhs` decides a point's domain; only a skipped point asks `applicable` again, for its reason
        calls = []
        applicable = IdentityDescriptor.applicable
        monkeypatch.setattr(
            IdentityDescriptor, "applicable", lambda desc, params: calls.append(desc.id) or applicable(desc, params)
        )
        spec = small_spec(ids=(IdentityId.Q13, IdentityId.C18), n_range=(0, 3), j_range=(-1, 1), p_range=(-1, 1))
        report = run_grid([spec])  # tallied, no lines written
        checked, _, skipped = report.counts()
        assert skipped == 4 * 3 * 2  # Q13 at p = 0
        assert len(calls) == checked + 2 * skipped
        calls.clear()
        streamed, text = report_bytes([spec])
        assert streamed.counts() == report.counts()
        assert len(calls) == checked + 2 * skipped
        objs = point_objects(text)
        assert [obj["skipped"] for obj in objs if "skipped" in obj] == ["p must be nonzero"] * skipped

    def test_empty_ids(self):
        # no specs at all: a spec with an empty `ids` is refused when built
        report, text = report_bytes([])
        assert text == report.to_jsonl()  # the summary line alone
        assert summarize(report) == "PASS (0 checks)"

    def test_completeness_with_collapsed_slots(self):
        # E9 reads n,j,r,s,p; m is collapsed
        spec = small_spec(
            ids=(IdentityId.E9,), n_range=(0, 2), j_range=(-1, 1), s_range=(0, 1), p_range=(0, 1)
        )
        _, text = report_bytes([spec])
        assert len(point_objects(text)) == 3 * 3 * 1 * 2 * 2

    def test_rejects_bad_parallelism(self):
        with pytest.raises(ValueError):
            run_grid([small_spec()], parallelism=0)


class TestWorkerClamp:
    """The pool gets min(parallelism, CPUs, chunks) workers; no process is started."""

    @pytest.fixture
    def pools(self, monkeypatch):
        created = []

        class RecordingExecutor:
            def __init__(self, max_workers, mp_context=None):
                created.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingExecutor)
        return created

    def test_clamped_to_cpu_count(self, pools, monkeypatch):
        # without an affinity mask on the platform, the CPU count bounds the workers
        monkeypatch.delattr(verify.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(verify.os, "cpu_count", lambda: 3)
        spec = small_spec(n_range=(0, 40), s_range=(-10, 10))  # 861 points, 14 chunks
        _, text = report_bytes([spec], parallelism=100_000)
        assert pools == [3]
        assert text == report_bytes([spec])[1]

    def test_clamped_to_affinity(self, pools, monkeypatch):
        # under taskset or a cpuset the process may use fewer CPUs than the machine has
        monkeypatch.setattr(verify.os, "sched_getaffinity", lambda pid: {0, 5, 6}, raising=False)
        monkeypatch.setattr(verify.os, "cpu_count", lambda: 8)
        run_grid([small_spec(n_range=(0, 40), s_range=(-10, 10))], parallelism=100_000)
        assert pools == [3]
        assert verify.available_cpus() == 3

    def test_clamped_to_chunk_count(self, pools, monkeypatch):
        monkeypatch.setattr(verify.os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
        monkeypatch.setattr(verify.os, "cpu_count", lambda: 8)
        run_grid([small_spec(n_range=(0, 63), s_range=(0, 1))], parallelism=100_000)  # 2 chunks of 64
        assert pools == [2]

    def test_unknown_cpu_count_runs_serially(self, pools, monkeypatch):
        monkeypatch.delattr(verify.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(verify.os, "cpu_count", lambda: None)
        report = run_grid([small_spec(n_range=(0, 40), s_range=(-10, 10))], parallelism=100_000)
        assert pools == []
        assert report.passed


class TestInOrder:
    """Results come back in submission order, with a bounded number in flight."""

    def test_out_of_order_completion(self, monkeypatch):
        submitted, taken, completed, in_flight = [0], [0], [], []

        class LazyFuture(Future):
            def __init__(self, pool):
                super().__init__()
                self.pool = pool

            def result(self, timeout=None):
                if not self.done():
                    self.pool.complete_newest_first()
                taken[0] += 1
                return super().result(timeout)

        class ReversingExecutor:
            """Runs nothing until a result is awaited, then the newest task first."""

            def __init__(self, max_workers, mp_context=None):
                self.pending = []

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = LazyFuture(self)
                self.pending.append((future, fn, args))
                submitted[0] += 1
                in_flight.append(submitted[0] - taken[0])
                return future

            def complete_newest_first(self):
                while self.pending:
                    future, fn, args = self.pending.pop()
                    completed.append(args[0])
                    future.set_result(fn(*args))

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", ReversingExecutor)
        results = list(verify._in_order(lambda x: x * x, iter(range(100)), workers=3))
        assert results == [x * x for x in range(100)]
        assert completed != sorted(completed)
        assert max(in_flight) == verify._WINDOW_PER_WORKER * 3


def tally(objs):
    """Per-identity totals counted from parsed point lines, as the summary line states them."""
    totals = {}
    for obj in objs:
        t = totals.setdefault(obj["id"], {"checked": 0, "matched": 0, "skipped": 0})
        if "skipped" in obj:
            t["skipped"] += 1
        else:
            t["checked"] += 1
            t["matched"] += obj["match"]
    return totals


def walked_records(spec):
    """Each point of `spec` from its own `eval_pair` call, walked identity by identity in catalog order."""
    records = []
    for desc in catalog():
        if desc.id not in spec.ids:
            continue
        ranges = [range(lo, hi + 1) for lo, hi in map(spec.range_for, desc.slots)]
        for values in itertools.product(*ranges):
            params = IdentityParams(**dict(zip(desc.slots, values)))
            try:
                rec = VerificationRecord(desc.id, params, *eval_pair(desc.id, params))
            except InapplicableParamsError:
                rec = VerificationRecord(desc.id, params, None, None, None, desc.applicable(params)[1])
            except ArithmeticError as exc:
                rec = VerificationRecord(desc.id, params, None, None, False, error=f"{type(exc).__name__}: {exc}")
            records.append(rec)
    return records


class TestStreaming:
    def test_specs_sharing_an_identity_keep_sorted_order(self):
        a = small_spec(ids=(IdentityId.C18, IdentityId.F1), n_range=(0, 3), s_range=(-1, 1))
        b = small_spec(ids=(IdentityId.C18,), n_range=(2, 5), s_range=(0, 2))
        # each spec's points, concatenated, then stably sorted: equal points keep spec order
        points = [line for spec in (a, b) for line in report_bytes([spec])[1].splitlines(keepends=True)[:-1]]
        report, text = report_bytes([a, b])
        lines = text.splitlines(keepends=True)
        assert lines[:-1] == sorted(points, key=canonical_key)
        summary = json.loads(lines[-1])
        assert summary["totals"] == tally(map(json.loads, points))
        assert summary["checked"] == report.counts()[0] == len(points)

    def test_stream_keeps_totals_and_failures_only(self):
        spec = small_spec(n_range=(0, 40), s_range=(-1, 1))
        report = run_grid([spec], parallelism=2)
        assert report == (report.totals, report.failures) and not hasattr(report, "__dict__")
        assert report.failures == []
        assert report.counts() == (123, 123, 0)
        assert summarize(report) == summarize(report_bytes([spec])[0])

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_failures_and_errors_stream_as_collected(self, parallelism, monkeypatch, capsys):
        # C18's closed form off by one at some points and raising at others
        c18 = descriptor(IdentityId.C18)
        closed = c18.closed

        def faulty(q):
            if (q.n + q.s) % 3 == 1:
                return closed(q) + 1
            if (q.n + q.s) % 3 == 2 and q.n % 2:
                raise IntegralityError('5^-1 \\ "é"\x01')
            return closed(q)

        monkeypatch.setitem(_BY_ID, IdentityId.C18, c18._replace(closed=faulty))
        spec = small_spec(ids=(IdentityId.C18, IdentityId.Q13), n_range=(0, 40), s_range=(-1, 1), p_range=(-1, 1))
        walked = walked_records(spec)
        expected = "".join(dump_json(record_json_oracle(rec, descriptor(rec.id).slots)) + "\n" for rec in walked)
        expected += Report.from_records(walked).to_jsonl()
        streamed, text = report_bytes([spec], parallelism)
        assert text == expected
        assert streamed.failures == [rec for rec in walked if rec.match is False]
        assert {rec.match for rec in streamed.failures} == {False}
        assert {rec.error for rec in streamed.failures} == {None, 'IntegralityError: 5^-1 \\ "é"\x01'}
        assert summarize(streamed) == summarize(Report.from_records(walked))
        ranges = ["--n", "0..40", "--j", "1..1", "--r", "1..1", "--s", "-1..1", "--p", "-1..1"]
        argv = ["verify", "--ids", "C18,Q13", *ranges, "--jobs", str(parallelism)]
        capsys.readouterr()
        assert cli.main([*argv, "--format", "json"]) == 1
        assert capsys.readouterr().out == text
        assert cli.main(argv) == 1
        assert capsys.readouterr().out == summarize(streamed) + "\n"

    def test_empty_stream(self):
        out = io.StringIO()
        report = run_grid([], out=out)
        assert out.getvalue() == ""
        assert summarize(report) == "PASS (0 checks)"


class TestDecimalStr:
    def test_long_values_leave_the_digit_limit_alone(self):
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            assert decimal_str(10**10000 + 7) == "1" + "0" * 9999 + "7"
            assert decimal_str(Fraction(3, 10**9999 + 1)) == "3/1" + "0" * 9998 + "1"
            assert sys.get_int_max_str_digits() == 4300
        finally:
            sys.set_int_max_str_digits(saved)

    def test_equals_str_above_the_digit_limit(self):
        # seeded: sizes from just past the default 4300-digit cap up to ~200k bits, both signs
        rng = random.Random(12)
        floor = 10**4300  # the least int with 4301 digits
        values = [floor, floor + 1, floor * 10 - 1, -floor]
        values += [floor + rng.getrandbits(rng.randrange(1, 64)) for _ in range(4)]
        for bits in (14_300, 16_384, 50_000, 131_072, 200_000):
            for _ in range(2):
                v = rng.getrandbits(bits) | 1 << (bits - 1)
                values += [v, -v, 2**bits - 1, -(2**bits)]
        huge_den = Fraction(-rng.getrandbits(100), rng.getrandbits(150_000) | 1 << 149_999)
        values += [huge_den, 1 / huge_den, Fraction(floor * 7 + 1, 3), Fraction(floor)]
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            for v in values:
                assert decimal_str(v) == exact_str(v)
                assert sys.get_int_max_str_digits() == 4300
        finally:
            sys.set_int_max_str_digits(saved)


class TestDeterminism:
    def test_reports_identical_across_parallelism(self):
        specs = [
            small_spec(
                ids=tuple(IdentityId),
                n_range=(0, 3),
                j_range=(-1, 2),
                r_range=(-1, 2),
                s_range=(-1, 1),
                p_range=(0, 1),
                m_range=(0, 2),
            )
        ]
        assert report_bytes(specs, parallelism=1)[1] == report_bytes(specs, parallelism=2)[1]

    def test_totals_in_catalog_order_whatever_the_ids_order(self):
        # the totals are inserted as the chunks arrive, in catalog order, and rendered as inserted
        spec = small_spec(ids=(IdentityId.C18, IdentityId.Q13, IdentityId.F1), n_range=(0, 12))
        texts = []
        for parallelism in (1, 2):
            report, text = report_bytes([spec], parallelism)
            assert list(report.summary_json()["totals"]) == ["F1", "Q13", "C18"]
            assert [line.split()[0] for line in summarize(report).splitlines()[:-1]] == ["F1", "Q13", "C18"]
            texts.append(text)
        assert texts[0] == texts[1]

    def test_start_method_fallback_without_fork(self, monkeypatch):
        # where the platform has no fork the pool takes the default context, spawn here, so each
        # chunk's function and plain-data result cross a fresh interpreter's pickle boundary
        import multiprocessing

        get_context, asked = multiprocessing.get_context, []

        def without_fork(method=None):
            asked.append(method)
            if method == "fork":
                raise ValueError("cannot find context for 'fork'")
            return get_context("spawn")

        monkeypatch.setattr(multiprocessing, "get_context", without_fork)
        monkeypatch.setattr(verify, "available_cpus", lambda: 2)
        spec = small_spec(ids=(IdentityId.C18, IdentityId.Q13), n_range=(0, 40), s_range=(-1, 1), p_range=(-1, 1))
        serial, serial_text = report_bytes([spec], 1)
        assert asked == []
        spawned, spawned_text = report_bytes([spec], 2)
        assert asked == ["fork", None]
        assert spawned_text == serial_text
        assert spawned.counts() == serial.counts() == (492 - 123, 492 - 123, 123)  # Q13 skips p = 0

    def test_canonical_ordering_restored(self):
        # the points stream in canonical order, so sorting a shuffle of them by the key gives them back
        _, text = report_bytes([small_spec(ids=(IdentityId.C18, IdentityId.F1), n_range=(0, 1))])
        lines = text.splitlines()[:-1]
        assert len(set(map(canonical_key, lines))) == len(lines) == 2 * 2 + 2 * 2
        shuffled = list(lines)
        random.Random(7).shuffle(shuffled)
        assert sorted(shuffled, key=canonical_key) == lines


class TestSerialization:
    def test_record_objects(self):
        _, text = report_bytes([small_spec()])
        obj = point_objects(text)[-1]
        assert obj == {"id": "C18", "params": {"n": 2, "s": 1}, "lhs": "11", "rhs": "11", "match": True}

    def test_jsonl_shape_and_roundtrip(self):
        _, text = report_bytes([small_spec()])
        lines = text.splitlines()
        assert len(lines) == 7  # 6 points + summary
        for line in lines:
            assert dump_json(json.loads(line)) == line
        summary = json.loads(lines[-1])
        assert summary["verdict"] == "PASS"
        assert summary["totals"]["C18"] == {"checked": 6, "matched": 6, "skipped": 0}

    def test_big_values_stay_strings(self):
        spec = small_spec(ids=(IdentityId.C19,), n_range=(40, 41), s_range=(3, 3))
        _, text = report_bytes([spec])
        obj = point_objects(text)[0]
        assert isinstance(obj["lhs"], str)
        assert int(obj["lhs"]) == descriptor(IdentityId.C19).lhs(IdentityParams(**obj["params"]))

    def test_skipped_record_shape(self):
        _, text = report_bytes([small_spec(ids=(IdentityId.Q13,), p_range=(0, 0), n_range=(1, 1), s_range=(0, 0))])
        obj = point_objects(text)[0]
        assert obj == {
            "id": "Q13",
            "params": {"n": 1, "j": 1, "r": 1, "s": 0, "p": 0},
            "skipped": "p must be nonzero",
        }


# more digits than the interpreter's default int-to-str cap of 4300
_BIG = st.builds(
    lambda sign, e, k: sign * (10**e + k), st.sampled_from((1, -1)), st.integers(4300, 4500), st.integers(0, 10**9)
)
_VALUES = st.one_of(
    st.integers().map(Fraction),
    st.fractions(),
    _BIG.map(Fraction),
    st.builds(Fraction, st.integers(), _BIG.map(abs)),
    st.builds(Fraction, _BIG, st.integers(2, 10**6)),
)
_MESSAGES = st.text() | st.sampled_from(
    ['say "no"', "back\\slash", "\x00\x1f\n\t\x7f", "é ∤ 5^-1 \u2028 \U0001f600"]
)


class TestLineWriter:
    """`record_line` against the report object built key by key (tests/oracles.py)."""

    @settings(deadline=None, max_examples=300)
    @given(
        desc=st.sampled_from(catalog()),
        params=st.builds(IdentityParams, *[st.integers(-10**6, 10**6)] * 6),
        kind=st.sampled_from(("match", "mismatch", "skipped", "error")),
        lhs=_VALUES,
        rhs=_VALUES,
        message=_MESSAGES,
    )
    @example(
        desc=descriptor(IdentityId.Q13),
        params=IdentityParams(n=1, p=0),
        kind="error",
        lhs=Fraction(0),
        rhs=Fraction(0),
        message='IntegralityError: "\\\x01é',
    )
    def test_line_matches_oracle(self, desc, params, kind, lhs, rhs, message):
        rec = {
            "match": VerificationRecord(desc.id, params, lhs, lhs, True),
            "mismatch": VerificationRecord(desc.id, params, lhs, rhs, False),
            "skipped": VerificationRecord(desc.id, params, None, None, None, message),
            "error": VerificationRecord(desc.id, params, None, None, False, error=message),
        }[kind]
        line = record_line(rec)
        assert line == dump_json(record_json_oracle(rec, desc.slots)) + "\n"
        obj = json.loads(line)
        assert obj.get("skipped", obj.get("error", message)) == message


class TestSummarize:
    def test_failure_rendering(self):
        params = IdentityParams(n=2, s=1)
        good = VerificationRecord(IdentityId.C18, params, Fraction(11), Fraction(11), True)
        bad = VerificationRecord(IdentityId.C18, IdentityParams(n=1, s=0), Fraction(1), Fraction(2), False)
        report = Report.from_records([good, bad])
        text = summarize(report)
        assert "FAIL" in text
        assert "'n': 1" in text and "lhs=1 rhs=2" in text
        assert not report.passed
        assert report.summary_json()["verdict"] == "FAIL"

    def test_error_with_line_break_stays_one_line(self):
        # the exception text is escaped as repr escapes it, so no line forges a second FAIL
        error = "IntegralityError: a\nFAIL forged"
        rec = VerificationRecord(IdentityId.C18, IdentityParams(n=1), None, None, False, error=error)
        assert summarize(Report.from_records([rec])).splitlines() == [
            "C18          checked=1        matched=0        skipped=0",
            "FAIL C18 params={'n': 1, 's': 0} error=IntegralityError: a\\nFAIL forged",
            "FAIL (1 mismatches of 1 checks)",
        ]

    def test_printable_error_prints_as_is(self):
        error = "ValueError: don't \\ \"quote\" é"
        rec = VerificationRecord(IdentityId.C18, IdentityParams(n=1), None, None, False, error=error)
        assert f"error={error}\n" in summarize(Report.from_records([rec]))

    def test_pass_rendering(self):
        report = run_grid([small_spec()])
        text = summarize(report)
        assert "PASS (6 checks, 0 skipped)" in text
        assert text.splitlines()[0].startswith("C18")


class TestDefaultGrid:
    def test_specs_partition_catalog(self):
        spec_other, spec_odd = default_grid_specs()
        all_ids = set(spec_other.ids) | set(spec_odd.ids)
        assert len(all_ids) == 30
        assert not set(spec_other.ids) & set(spec_odd.ids)
        assert spec_odd.m_range == (0, 2)
        assert spec_other.m_range == (0, 3)
        assert spec_other.n_range == (0, 12)
        assert spec_other.j_range == spec_other.r_range == spec_other.s_range == (-4, 4)


class TestPackageExports:
    def test_no_two_public_names_for_one_object(self):
        owners = {}
        for name in fibsums.__all__:
            owners.setdefault(id(getattr(fibsums, name)), []).append(name)
        assert [names for names in owners.values() if len(names) > 1] == []
