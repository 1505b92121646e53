"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines
(or `-v` for per-test verdicts).  Everything is exact equality; the only
tolerance anywhere is the soft 10x speedup floor of the benchmark criterion.
"""

from __future__ import annotations

import hashlib
import io
import multiprocessing
import random
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from itertools import product

from fibsums import (
    ALPHA,
    ONE,
    SQRT5,
    BinomialKernel,
    IdentityId,
    IdentityParams,
    Kernel,
    SequenceKind,
    alpha_pow,
    binomial_rhs,
    direct_sum,
    fib,
    lucas,
    reduce_power,
)
from fibsums.cli import bench_identity
from fibsums.verify import GridSpec, default_grid_specs, run_grid

from oracles import frac_pow, naive_binomial, naive_fib, naive_lucas

F, L = SequenceKind.FIB, SequenceKind.LUCAS


def _report(line: str) -> None:
    print(line, flush=True)


# --- criterion 1: the full identity grid ------------------------------------


class _HashingSink:
    """A text sink that keeps only the SHA-256 and the line count of what it is given."""

    def __init__(self) -> None:
        self.sha = hashlib.sha256()
        self.lines = 0

    def write(self, text: str) -> None:
        self.sha.update(text.encode())
        self.lines += text.count("\n")


def test_criterion_1_full_identity_grid():
    # the bytes of `fibsums verify --format json`: the streamed points, then the summary line
    sink = _HashingSink()
    report = run_grid(default_grid_specs(), 4, out=sink)
    sink.write(report.to_jsonl())
    checked, matched, skipped = report.counts()
    assert sink.lines == 1_024_219  # completeness: every point and the summary, no silent drops
    assert sink.sha.hexdigest() == "2c67dc688e7e9c0f2fc219c1f508eddd72e7bb8ca7005e4ee38ba9443c4f01c6"
    assert skipped == 18_954  # exactly the Q13/Q14 p=0 points
    assert checked == matched == 1_005_264
    ok = not report.failures
    _report(
        f"{'PASS' if ok else 'FAIL'}: criterion 1 (full identity grid): "
        f"{checked} checked, {len(report.failures)} failures, {skipped} skipped"
    )
    assert ok, report.failures[:5]


# --- criterion 2: the binomial-kernel engine against the oracle -------------

_WEIGHTS = (-2, -1, 1, 2)


def _sweep_chunk(args: tuple[int, int, int]) -> tuple[int, tuple | None]:
    n, m, j = args
    checked = 0
    for r, s, x, z in product(range(-3, 4), range(-3, 4), _WEIGHTS, _WEIGHTS):
        bk = BinomialKernel(n, x, z, r, s)
        for kind in (F, L):
            if binomial_rhs(bk, j, m, kind) != direct_sum(n, x, z, j, r, s, m, kind):
                return checked, (n, m, j, r, s, x, z, kind.value)
            checked += 1
    return checked, None


def test_criterion_2_binomial_engine_oracle_equivalence():
    combos = list(product(range(9), range(4), range(-3, 4)))
    total = 0
    first_bad = None
    try:
        ctx = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(max_workers=2, mp_context=ctx) as pool:
            results = list(pool.map(_sweep_chunk, combos, chunksize=8))
    except (ValueError, OSError):
        results = [_sweep_chunk(c) for c in combos]
    for checked, bad in results:
        total += checked
        if bad is not None and first_bad is None:
            first_bad = bad
    ok = first_bad is None and total == 9 * 4 * 7 * 7 * 7 * 16 * 2
    _report(
        f"{'PASS' if ok else 'FAIL'}: criterion 2 (Lemma-2 engine vs oracle): "
        f"{total} exact comparisons, first mismatch: {first_bad}"
    )
    assert ok


# --- criterion 3: the generic kernel engine on random kernels ---------------


def test_criterion_3_kernel_engine_random_kernels():
    rng = random.Random(0xF1B0)
    zs = [1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4)]
    kernels = 0
    for _ in range(220):
        terms = [
            (Fraction(rng.randint(-9, 9), rng.randint(1, 7)), rng.randint(-10, 10))
            for _ in range(rng.randint(1, 6))
        ]
        h = Kernel(tuple(terms))
        j = rng.randint(-4, 4)
        m = rng.randint(0, 3)
        z = rng.choice(zs)
        for fibonacci in (True, False):
            seq = naive_fib if fibonacci else naive_lucas
            expected = sum(
                (Fraction(g) * frac_pow(Fraction(z), f) * frac_pow(Fraction(seq(j * f)), m)
                 for g, f in terms),
                Fraction(0),
            )
            got = reduce_power(h, j, m, z, F if fibonacci else L)
            assert got == expected, (terms, j, m, z, fibonacci)
        kernels += 1
    _report(f"PASS: criterion 3 (Lemma-1 engine): {kernels} random kernels, exact")


# --- criterion 4: the algebraic lemmas as exact ring equations --------------


def test_criterion_4_ring_lemmas():
    checks = 0
    for p in range(-20, 21):
        ap, bp = alpha_pow(p), alpha_pow(p).conj()
        sp = -1 if p % 2 else 1
        for q in range(-20, 21):
            aq, bq = alpha_pow(q), alpha_pow(q).conj()
            Fq, Lq = fib(q), lucas(q)
            # index-shift lemma, all four identities
            assert (lucas(p + q) * ONE) - lucas(p) * aq == -(bp * Fq) * SQRT5
            assert (lucas(p + q) * ONE) - lucas(p) * bq == (ap * Fq) * SQRT5
            assert (fib(p + q) * ONE) - fib(p) * aq == bp * Fq
            assert (fib(p + q) * ONE) - fib(p) * bq == ap * Fq
            # parity-split lemma, both signs
            a2q = alpha_pow(2 * q)
            if (p - q) % 2:
                assert ONE + sp * a2q == sp * aq * Fq * SQRT5
                assert ONE - sp * a2q == -sp * aq * Lq
            else:
                assert ONE + sp * a2q == sp * aq * Lq
                assert ONE - sp * a2q == -sp * aq * Fq * SQRT5
            checks += 6
    # the four sign-collapsed corollaries
    for q in range(-20, 21):
        aq, bq = alpha_pow(q), alpha_pow(q).conj()
        sq = (-1 if q % 2 else 1) * ONE
        assert sq + alpha_pow(2 * q) == aq * lucas(q)
        assert sq - alpha_pow(2 * q) == -(aq * fib(q)) * SQRT5
        assert sq + alpha_pow(2 * q).conj() == bq * lucas(q)
        assert sq - alpha_pow(2 * q).conj() == (bq * fib(q)) * SQRT5
        checks += 4
    _report(f"PASS: criterion 4 (ring lemmas): {checks} exact equations over p,q in [-20,20]")


# --- criterion 5: the sequence core ------------------------------------------


def test_criterion_5_sequence_core():
    for n in range(-300, 301):
        assert fib(n) == naive_fib(n)
        assert lucas(n) == naive_lucas(n)
    for n in range(-200, 201):
        assert alpha_pow(n).u == fib(n - 1) and alpha_pow(n).v == fib(n)
    for t in range(-200, 201):
        assert 2 * alpha_pow(t) == lucas(t) * ONE + fib(t) * SQRT5
    _report(
        "PASS: criterion 5 (sequence core): doubling == iteration on |n|<=300; "
        "alpha powers and sqrt5 parts exact on |n|<=200"
    )


# --- criterion 6: spot values through the literal oracle --------------------


def test_criterion_6_spot_values():
    def lit(n, weight, index, power, seq):
        return sum(
            naive_binomial(n, k) * weight**k * seq(index(k)) ** power for k in range(n + 1)
        )

    cubes_f = lit(2, 1, lambda k: k + 1, 3, naive_fib)
    assert cubes_f == 11 == direct_sum(2, 1, 1, 1, 1, 1, 3, F)
    cubes_l = lit(1, 1, lambda k: k, 3, naive_lucas)
    assert cubes_l == 9 == direct_sum(1, 1, 1, 1, 1, 0, 3, L)
    alt_lin = lit(2, -1, lambda k: 2 * k, 1, naive_lucas)
    assert alt_lin == 3 == direct_sum(2, 1, -1, 1, 2, 0, 1, L)
    alt_sq = lit(2, -1, lambda k: 2 * k, 2, naive_fib)
    assert alt_sq == 7 == direct_sum(2, 1, -1, 1, 2, 0, 2, F)
    odd_sum = lit(2, 1, lambda k: 2 * k + 1, 1, naive_fib)
    assert odd_sum == 10 == direct_sum(2, 1, 1, 1, 2, 1, 1, F)
    _report("PASS: criterion 6 (spot values): 11, 9, 3, 7, 10 reproduced exactly")


# --- criterion 7: the complexity gap -----------------------------------------


def test_criterion_7_benchmark_speedup():
    result = bench_identity(IdentityId.C18, IdentityParams(n=5000, s=1), reps=5)
    speedup = result["speedup"]
    ok = speedup >= 10.0
    _report(
        f"{'PASS' if ok else 'FAIL'}: criterion 7 (benchmark): oracle "
        f"{result['oracle_median_s']:.4f}s vs closed {result['closed_median_s']:.6f}s, "
        f"speedup {speedup:.0f}x (soft floor 10x, equality pre-verified)"
    )
    assert ok, result


# --- criterion 8: deterministic reports under parallelism --------------------


def test_criterion_8_determinism():
    specs = [
        GridSpec(
            ids=tuple(IdentityId),
            n_range=(0, 4),
            j_range=(-2, 2),
            r_range=(-2, 2),
            s_range=(-2, 2),
            p_range=(-2, 2),
            m_range=(0, 2),
        )
    ]
    # the bytes of `fibsums verify --format json`: the streamed points, then the summary line
    reports = []
    for parallelism in (1, 4):
        out = io.StringIO()
        summary = run_grid(specs, parallelism, out).to_jsonl()
        reports.append(out.getvalue() + summary)
    serial, parallel = reports
    # the serial report's bytes, pinned so they also stay identical across versions
    digest = hashlib.sha256(serial.encode()).hexdigest()
    assert digest == "072aa91ea4b6a5354c8015a735e571dcff3c6f0a96011003815426a3f3ee05a5"
    ok = serial == parallel
    _report(
        f"{'PASS' if ok else 'FAIL'}: criterion 8 (determinism): "
        f"{len(serial.splitlines())} report lines byte-identical across parallelism 1 and 4"
    )
    assert ok
