"""Time the power-reduction engine, `transform.binomial_rhs`, at fixed points.

    PYTHONPATH=src python3 tools/engine_table.py

Each point is `binomial_rhs(BinomialKernel(n, 1, 1, r, s), j, m, F)`, the
closed side of F1 (m = 1) or T1 (m = 2), timed two ways: with each lemma
point p built as a pair and its powers p^r and p^s taken by `power`, and as
the engine runs, with p^r and p^s read from alpha's powers, the Fibonacci
pairs of `sequences._fib_pair_at`.  Each time is the minimum of 5 runs, cold
(the sequence memos are cleared first) and warm (after one untimed run has
filled them), and the two ways alternate within each round.
The points are grid points, large-n points like perfbench's large-n
workload, and one huge-s point.  Standard library only.
"""

from __future__ import annotations

import time

from fibsums import BinomialKernel, SequenceKind, binomial_rhs, kernel_eval, sequences, transform

# (n, j, r, s, m): grid points, large-n points and one huge-s point
POINTS = (
    (3, 1, 1, 0, 1), (12, 4, -4, 3, 2), (12, -3, 2, -4, 1), (8, 2, -1, 1, 2),
    (1000, 2, 1, 3, 2), (1200, 1, 2, -2, 1), (1800, -1, -1, 4, 1), (1000, -2, -1, 0, 2),
    (3, 2, 1, 200_000, 2),
)
REPS = 5


def point_powers(h, c: int, e: int) -> tuple:
    # the kernel at the point c alpha^e built as a pair, whose r-th and s-th powers `kernel_eval` takes
    u, v = sequences._fib_pair_at(e)
    return kernel_eval(h, (c * u, c * v))


def run_s(point: tuple[int, int, int, int, int], cold: bool) -> float:
    n, j, r, s, m = point
    bk = BinomialKernel(n, 1, 1, r, s)
    sequences.clear_caches()
    if not cold:
        binomial_rhs(bk, j, m, SequenceKind.FIB)
    start = time.perf_counter()
    binomial_rhs(bk, j, m, SequenceKind.FIB)
    return time.perf_counter() - start


def timings(point: tuple[int, int, int, int, int]) -> list[float]:
    """Min-of-REPS seconds, cold and then warm, with the points' powers taken by `power` and as the engine runs."""
    engine = transform._lemma_value
    ways = ((True, point_powers), (True, engine), (False, point_powers), (False, engine))
    best = [float("inf")] * len(ways)
    try:
        for _ in range(REPS):
            for i, (cold, way) in enumerate(ways):
                transform._lemma_value = way
                best[i] = min(best[i], run_s(point, cold))
    finally:
        transform._lemma_value = engine
    return best


def fmt(seconds: float) -> str:
    if seconds < 1e-3:
        return f"{seconds * 1e6:.3g} us"
    return f"{seconds * 1e3:.3g} ms" if seconds < 1 else f"{seconds:.3g} s"


def main() -> None:
    print(f"{'':<26}{'cold':>26}{'warm':>26}")
    print(f"{'(n, j, r, s, m)':<26}" + f"{'point powers':>14}{'engine':>12}" * 2)
    for point in POINTS:
        print(f"{str(point):<26}" + "".join(f"{fmt(t):>{w}}" for t, w in zip(timings(point), (14, 12, 14, 12))))


if __name__ == "__main__":
    main()
