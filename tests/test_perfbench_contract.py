"""The benchmark's trace mode wraps fibsums names by hand.

This runs `perfbench/tracing.py` against the package, read-only, so that a
rename of a wrapped boundary fails here instead of breaking
`python3 perfbench/run.py --trace 1`.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from fibsums import cli, identities, quadfield, sequences, transform, verify
from fibsums.identities import SLOT_ORDER, IdentityId, IdentityParams, catalog, descriptor

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_hand_catalog_matches_the_rows():
    # run.py derives each workload's expected totals from its own copy of the catalog
    run = _load("run")
    assert [(pid, slots) for pid, _, slots in run.CATALOG] == [(d.id.value, d.slots) for d in catalog()]
    assert run.NONZERO_P == tuple(d.id.value for d in catalog() if d.domain_error is not None)
    assert run.SLOT_ORDER == SLOT_ORDER
    assert run.SLOT_DEFAULTS == IdentityParams()._asdict()


def test_trace_mode_wraps_and_restores(capsys):
    tracing, run = _load("tracing"), _load("run")
    from_records = vars(verify.Report)["from_records"]
    to_jsonl = verify.Report.to_jsonl
    main = cli.main
    tracer = tracing.Tracer()
    tracing.instrument(tracer, run.FAMILIES, True)
    try:
        code = cli.main(["verify", "--ids", "C18", "--n", "0..2", "--s", "0..1", "--jobs", "1"])
    finally:
        tracer.restore()
    assert code == 0
    assert "PASS (6 checks, 0 skipped)" in capsys.readouterr().out
    assert tracer.calls["main"] == 1
    assert tracer.calls["closed:cubic"] == tracer.calls["oracle:cubic"] == 6
    assert vars(verify.Report)["from_records"] is from_records
    assert verify.Report.to_jsonl is to_jsonl
    assert cli.main is main
    # the wrappers were instance attributes over the class's methods; none may outlive restore()
    for desc in catalog():
        assert "lhs" not in vars(desc) and "rhs" not in vars(desc), desc.id


def test_child_reads_and_clears_the_two_memos(monkeypatch):
    # every cold repetition of `python3 perfbench/run.py` runs child.py's `_clear`, which calls
    # both modules' `clear_caches`, and traced ones read `sequences._fib_pair` and
    # `quadfield.alpha_pow` through `MemoStats`; a rename or removal of any of the four would
    # break the benchmark with no other test failing
    monkeypatch.setattr(sys, "argv", ["child.py", str(PERFBENCH.parent / "src")])
    monkeypatch.setattr(sys, "path", list(sys.path))  # child.py prepends its source directory
    monkeypatch.setitem(sys.modules, "tracing", _load("tracing"))
    child = _load("child")

    def fill() -> None:
        sequences.fib(300)
        quadfield.alpha_pow(7)
        assert sequences._fib_pair.cache_info().currsize > 0 and quadfield.alpha_pow.cache_info().currsize > 0

    def sizes() -> tuple:
        return sequences._fib_pair.cache_info().currsize, quadfield.alpha_pow.cache_info().currsize

    fill()
    sequences.clear_caches()
    assert sizes()[0] == 0
    quadfield.clear_caches()
    assert sizes() == (0, 0)
    fill()
    child._clear(None)  # untraced: no statistics kept
    assert sizes() == (0, 0)
    fill()
    memo = child.MemoStats()
    assert memo.caches == {"fib": sequences._fib_pair, "alpha_pow": quadfield.alpha_pow}
    child._clear(memo)
    assert sizes() == (0, 0)
    assert memo.stats["fib"][2] > 0 and memo.stats["alpha_pow"][2] > 0


def test_trace_mode_times_the_oracle():
    # `sequences.direct_sum.total_s` reads the "direct_sum" span; if the
    # oracle stopped going through the wrapped name it would read 0 silently.
    tracing, run = _load("tracing"), _load("run")
    direct_sum = sequences.direct_sum
    tracer = tracing.Tracer()
    tracing.instrument(tracer, run.FAMILIES, True)
    try:
        value = descriptor(IdentityId.C18).lhs(IdentityParams(n=40, s=1))
    finally:
        tracer.restore()
    assert value == direct_sum(40, 1, 1, 1, 1, 1, 3, sequences.SequenceKind.FIB)
    assert tracer.calls["direct_sum"] == 1
    assert tracer.total["direct_sum"] > 0
    assert tracer.calls["oracle:cubic"] == 1
    assert sequences.direct_sum is direct_sum


def test_trace_mode_times_binomial_rhs():
    # `transform.binomial_rhs.total_s` reads the "binomial_rhs" span; if the
    # engine stopped going through the wrapped name it would read 0 silently.
    tracing, run = _load("tracing"), _load("run")
    binomial_rhs = transform.binomial_rhs
    # every catalog entry that the engine evaluates, so a route around the wrapped name fails here
    ids = (IdentityId.F1, IdentityId.L1, IdentityId.T1_F2RHS, IdentityId.T1_L2RHS)
    params = IdentityParams(n=12, j=2, r=-3, s=1)
    tracer = tracing.Tracer()
    tracing.instrument(tracer, run.FAMILIES, True)
    try:
        values = [descriptor(id).rhs(params) for id in ids]
    finally:
        tracer.restore()
    assert values == [descriptor(id).lhs(params) for id in ids]
    assert tracer.calls["binomial_rhs"] == 4
    assert tracer.total["binomial_rhs"] > 0
    assert tracer.calls["closed:quadratic_base"] == tracer.calls["closed:linear"] == 2
    assert transform.binomial_rhs is binomial_rhs


def test_trace_mode_counts_and_restores_the_memoized_sequences(capsys):
    # fib and lucas are memoized (lru_cache wrappers); the tracer rebinds those
    # names, so its counts read 0 if a caller kept the unwrapped function, and
    # the memos stop working for the rest of the process if restore() misses one;
    # C18 reads only F and C19 only L; cold timing (large-n) clears the memos
    # while the names are wrapped
    tracing, run = _load("tracing"), _load("run")
    fib, lucas = sequences.fib, sequences.lucas
    tracer = tracing.Tracer()
    tracing.instrument(tracer, run.FAMILIES, True)
    try:
        code = cli.main(["verify", "--ids", "C18,C19", "--n", "0..2", "--s", "0..1", "--jobs", "1"])
        assert sequences.fib is not fib and fib.cache_info().currsize > 0
        sequences.clear_caches()
        assert fib.cache_info().currsize == lucas.cache_info().currsize == 0
        assert sequences._fib_pair.cache_info().currsize == 0
    finally:
        tracer.restore()
    assert code == 0
    assert "PASS (12 checks, 0 skipped)" in capsys.readouterr().out
    assert tracer.calls["fib"] > 0 and tracer.calls["lucas"] > 0
    assert sequences.fib is fib and sequences.lucas is lucas
    assert hasattr(sequences.fib, "cache_info") and hasattr(sequences.lucas, "cache_info")
    assert identities.fib is fib and identities.lucas is lucas


@pytest.mark.parametrize("report_format", ["text", "json"])
def test_trace_mode_times_the_verify_pipeline(capsys, report_format):
    # `verify.run_grid.self_s` reads the "run_grid" span and the report writer
    # the "serialize" span; if `verify` stopped going through the wrapped
    # names (or the pipeline were renamed) they would read 0 silently
    tracing, run = _load("tracing"), _load("run")
    run_grid = verify.run_grid
    tracer = tracing.Tracer()
    tracing.instrument(tracer, run.FAMILIES, True)
    try:
        argv = ["verify", "--ids", "C18", "--n", "0..2", "--s", "0..1", "--jobs", "1", "--format", report_format]
        code = cli.main(argv)
    finally:
        tracer.restore()
    assert code == 0
    out = capsys.readouterr().out.splitlines()
    if report_format == "json":
        assert len(out) == 7 and json.loads(out[-1])["verdict"] == "PASS"
    else:
        assert out[-1] == "PASS (6 checks, 0 skipped)"
    spans = [span for span in tracer.spans if span[0] == "run_grid"]
    assert len(spans) == 1 and tracer.calls["run_grid"] == 1
    assert tracer.total["run_grid"] > 0
    assert tracer.spans[spans[0][3]][0] == "main"  # kept under the command's span
    assert tracer.calls["serialize"] == 1
    assert verify.run_grid is run_grid and cli.run_grid is run_grid
