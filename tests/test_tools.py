"""The timing tools under tools/ still run: each one's `timings` on one small point.

The tools patch private names of the package (`transform._lemma_value`,
`sequences._expands`, `sequences._SHORT`, `sequences._weights`) and read
others, so a renamed name fails here rather than in the next run of a tool.
"""

import importlib.util
from pathlib import Path

from fibsums import sequences

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_engine_table_times_one_grid_point():
    times = load("engine_table").timings((3, 1, 1, 0, 1))
    assert len(times) == 4 and all(0 < t < 1 for t in times)


def test_oracle_table_times_one_block_sum():
    # 41 terms: two blocks of the block loop, each asking the rule
    *times, expanded, blocks = load("oracle_table").timings(40, 3, 2)
    assert len(times) == 3 and all(0 < t < 1 for t in times)
    assert (expanded, blocks) == (0, 2)
    # at power 1 the rule also reads the terms left: the 15 blocks whose first index passes 256 expand
    *times, expanded, blocks = load("oracle_table").timings(600, 2, 1)
    assert len(times) == 3 and all(0 < t < 1 for t in times)
    assert (expanded, blocks) == (15, 19)


def test_oracle_table_times_one_short_sum():
    bound, weights = sequences._SHORT, sequences._weights
    times = load("oracle_table").short_timings(6, 3, -2)
    assert len(times) == 3 and all(0 < t < 1e-3 for t in times)
    # the bound and the weights memo are restored, and the memos are left empty
    assert (sequences._SHORT, sequences._weights) == (bound, weights)
    assert sequences._weights.cache_info().currsize == 0
