"""The benchmark's trace mode wraps fibsums names by hand.

This runs `perfbench/tracing.py` against the package, read-only, so that a
rename of a wrapped boundary fails here instead of breaking
`python3 perfbench/run.py --trace 1`.
"""

import importlib.util
from pathlib import Path

from fibsums import cli, sequences, transform, verify
from fibsums.identities import IdentityId, IdentityParams, catalog, descriptor

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
