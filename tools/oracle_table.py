"""Time the oracle's two kinds of block, to fit the rule `sequences._expands`.

    PYTHONPATH=src python3 tools/oracle_table.py              # the table points
    PYTHONPATH=src python3 tools/oracle_table.py 418,-430,7   # one or more (n, jr, m)

Each point is `direct_sum(n, 2, -1, 1, jr, 1, m, F)`, timed three ways: every
block per term (w**m), every block expanded over its first W pair, and as the
rule chooses.  Each time is the minimum of 5 cold runs (the sequence memos are
cleared first), and the kinds alternate within each round.  The last column
counts the blocks the rule expands.  Standard library only.
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

    def recording(k: int, d: int, m: int) -> bool:
        chosen.append(rule(k, d, m))
        return chosen[-1]

    kinds = (lambda k, d, m: False, lambda k, d, m: True, recording)
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


def fmt(seconds: float) -> str:
    return f"{seconds * 1e3:.3g} ms" if seconds < 1 else f"{seconds:.3g} s"


def main(argv: list[str]) -> None:
    points = [tuple(int(v) for v in arg.split(",")) for arg in argv] or POINTS
    print(f"{'(n, jr, m)':<18}{'per term':>12}{'expanded':>12}{'rule':>12}  expanded blocks")
    for n, d, m in points:
        per_term, expanded, chosen, picked, blocks = timings(n, d, m)
        print(f"{str((n, d, m)):<18}{fmt(per_term):>12}{fmt(expanded):>12}{fmt(chosen):>12}  {picked}/{blocks}")


if __name__ == "__main__":
    main(sys.argv[1:])
