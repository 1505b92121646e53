"""Time the oracle's two kinds of block and its two kinds of short sum, to fit `sequences._expands` and `_SHORT`.

    PYTHONPATH=src python3 tools/oracle_table.py              # both tables' points
    PYTHONPATH=src python3 tools/oracle_table.py 418,-430,7   # the block table at one or more (n, jr, m)

A block point is `direct_sum(n, 2, -1, 1, jr, 1, m, F)`, timed three ways:
every block per term (w**m), every block expanded over its first W pair, and
as the rule chooses.  Each time is the minimum of 5 cold runs (the sequence
memos are cleared first), and the kinds alternate within each round.  The
last column counts the blocks the rule expands.

A short point is `direct_sum(n, x, z, 1, 2, 1, 2, F)`, n < 16, timed per call
three ways, with the row of W^m memoized: the dot product with the weights
memoized ("dot, kept"), the dot product with the weights built afresh at each
call ("dot, fresh"), and Horner's rule.  Each time is the minimum of 5 rounds of calls, and the kinds
alternate within each round.  The last column names the kind that the
weights' bound `_SHORT` chooses.  Standard library only.
"""

from __future__ import annotations

import sys
import time

from fibsums import SequenceKind, sequences

# (n, jr, m): the points the rule's comment quotes
POINTS = (
    (2000, 21, 3), (1000, 15, 6), (418, -430, 7), (600, -6, 8), (200, 2500, 2),
    (20, 2500, 8), (16, -2500, 6), (200, -6, 8), (1000, 2, 2), (32, 128, 2),
    (100, 1, 0), (2000, 50, 0), (5000, 1, 3), (391, 15, 7), (60, 3, 12),
    # sums of at most 16 terms past the byte bound of the memoized rows, which take the block loop
    (12, 150, 5), (15, 300, 2), (3, 100000, 1),
    # power 1, where the basis table is built once per sum for two rows
    (2000, -6, 1), (5000, 21, 1), (1000, 21, 1), (2000, 2, 1), (300, 1, 1),
    (100, -6, 1), (100, 21, 1), (300, 2500, 1), (2000, -430, 1),
)
# (n, x, z): short sums with weights below the bound, as on the grid, and past it
SHORT_POINTS = (
    (6, 1, 1), (12, 1, -1), (6, 3, -2), (12, 5, -2), (15, 1 - (1 << 128), 1 << 127),
    (15, 1 << 128, 1), (15, 3**1258, 1), (15, 10**2000, 10**2000),
)
REPS = 5


def cold_s(n: int, d: int, m: int) -> float:
    sequences.clear_caches()
    start = time.perf_counter()
    sequences.direct_sum(n, 2, -1, 1, d, 1, m, SequenceKind.FIB)
    return time.perf_counter() - start


def timings(n: int, d: int, m: int) -> tuple[float, float, float, int, int]:
    """Min-of-REPS seconds per term, expanded and by the rule; blocks the rule expands, and all blocks."""
    rule = sequences._expands
    chosen = []

    def recording(k: int, d: int, m: int, left: int) -> bool:
        chosen.append(rule(k, d, m, left))
        return chosen[-1]

    kinds = (lambda k, d, m, left: False, lambda k, d, m, left: True, recording)
    best = [float("inf")] * 3
    try:
        for _ in range(REPS):
            for i, kind in enumerate(kinds):
                chosen.clear()
                sequences._expands = kind
                best[i] = min(best[i], cold_s(n, d, m))
    finally:
        sequences._expands = rule
    return best[0], best[1], best[2], sum(chosen), len(chosen)


def short_timings(n: int, x: int, z: int) -> tuple[float, float, float]:
    """Min-of-REPS seconds per call by the dot product over memoized weights, over fresh weights, and by Horner."""
    bound, weights = sequences._SHORT, sequences._weights
    kinds = ((1 << 1_000_000, weights), (1 << 1_000_000, weights.__wrapped__), (0, weights))

    def call() -> None:
        sequences.direct_sum(n, x, z, 1, 2, 1, 2, SequenceKind.FIB)

    best = [float("inf")] * 3
    sequences.clear_caches()
    try:
        call()  # fills the row memo, and times one call to size the rounds
        start = time.perf_counter()
        call()
        calls = max(1, min(10_000, round(2e-3 / (time.perf_counter() - start))))
        for _ in range(REPS):
            for i, (short, memo) in enumerate(kinds):
                sequences._SHORT, sequences._weights = short, memo
                start = time.perf_counter()
                for _ in range(calls):
                    call()
                best[i] = min(best[i], (time.perf_counter() - start) / calls)
    finally:
        sequences._SHORT, sequences._weights = bound, weights
        sequences.clear_caches()
    return best[0], best[1], best[2]


def fmt(seconds: float) -> str:
    if seconds < 1e-3:
        return f"{seconds * 1e6:.3g} us"
    return f"{seconds * 1e3:.3g} ms" if seconds < 1 else f"{seconds:.3g} s"


def bits(v: int) -> str:
    return str(v) if abs(v) < 1000 else f"{'-' if v < 0 else ''}{abs(v).bit_length()} bits"


def main(argv: list[str]) -> None:
    points = [tuple(int(v) for v in arg.split(",")) for arg in argv] or POINTS
    print(f"{'(n, jr, m)':<18}{'per term':>12}{'expanded':>12}{'rule':>12}  expanded blocks")
    for n, d, m in points:
        per_term, expanded, chosen, picked, blocks = timings(n, d, m)
        print(f"{str((n, d, m)):<18}{fmt(per_term):>12}{fmt(expanded):>12}{fmt(chosen):>12}  {picked}/{blocks}")
    if argv:
        return
    print(f"\n{'(n, x, z)':<36}{'dot, kept':>12}{'dot, fresh':>12}{'Horner':>12}  bound picks")
    for n, x, z in SHORT_POINTS:
        times = short_timings(n, x, z)
        picks = "dot" if abs(x) < sequences._SHORT > abs(z) else "Horner"
        label = f"({n}, {bits(x)}, {bits(z)})"
        print(f"{label:<36}" + "".join(f"{fmt(t):>12}" for t in times) + f"  {picks}")


if __name__ == "__main__":
    main(sys.argv[1:])
