"""Independent reference implementations used only by the tests.

These stay deliberately primitive (plain recurrence iteration, literal
term-by-term sums) so they share no code path with the package.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction

from fibsums.identities import catalog


def naive_fib(n: int) -> int:
    if n < 0:
        v = naive_fib(-n)
        return v if (-n) % 2 == 1 else -v
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def naive_lucas(n: int) -> int:
    if n < 0:
        v = naive_lucas(-n)
        return v if (-n) % 2 == 0 else -v
    a, b = 2, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def naive_binomial(n: int, k: int) -> int:
    # Pascal recurrence, no factorials
    if k < 0 or k > n:
        return 0
    row = [1]
    for _ in range(n):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
    return row[k]


def frac_pow(base: Fraction, e: int) -> Fraction:
    # 0^0 = 1; negative exponents need base != 0
    if e == 0:
        return Fraction(1)
    return Fraction(base) ** e


def naive_weighted_sum(n, x, z, j, r, s, m, fibonacci: bool) -> Fraction:
    seq = naive_fib if fibonacci else naive_lucas
    row = [1]  # Pascal's row n, built once so that n in the hundreds stays quick
    for _ in range(n):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
    total = Fraction(0)
    for k in range(n + 1):
        w = Fraction(seq(j * (r * k + s)))
        total += (
            row[k]
            * frac_pow(Fraction(x), n - k)
            * frac_pow(Fraction(z), k)
            * frac_pow(w, m)
        )
    return total


def exact_str(value: Fraction) -> str:
    # the interpreter caps int-to-str at 4300 digits by default; lift it for this value only
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        sys.set_int_max_str_digits(limit)


def record_json_oracle(rec, slots: tuple[str, ...]) -> dict:
    """A verification record as the report's JSON object, built key by key."""
    obj: dict = {"id": rec.id.value, "params": {slot: getattr(rec.params, slot) for slot in slots}}
    if rec.skipped_reason is not None:
        obj["skipped"] = rec.skipped_reason
    elif rec.error is not None:
        obj["error"] = rec.error
        obj["match"] = False
    else:
        obj["lhs"] = exact_str(rec.lhs)
        obj["rhs"] = exact_str(rec.rhs)
        obj["match"] = rec.match
    return obj


# the catalog supplies only the order of the ids
_POSITION = {desc.id.value: i for i, desc in enumerate(catalog())}
# the value of each slot an identity does not read: IdentityParams' defaults, in slot order
_SLOT_DEFAULTS = {"n": 0, "j": 1, "r": 1, "s": 0, "p": 1, "m": 1}


def loaded_memos() -> dict[str, object]:
    """Every `lru_cache` among the globals of the loaded `fibsums.*` modules, as `<defining module>.<global name>`."""
    memos = {}
    for name, module in list(sys.modules.items()):
        if name == "fibsums" or name.startswith("fibsums."):
            for attr, value in vars(module).items():
                if callable(getattr(value, "cache_info", None)):
                    memos[f"{value.__module__}.{attr}"] = value
    return memos


def canonical_key(line: str) -> tuple:
    """A report line's place in the canonical order: catalog position, then n, j, r, s, p, m."""
    obj = json.loads(line)
    return (_POSITION[obj["id"]], *(obj["params"].get(slot, default) for slot, default in _SLOT_DEFAULTS.items()))
