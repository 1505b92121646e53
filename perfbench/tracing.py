"""In-memory tracing of fibsums from outside the package.

Fine boundaries (`fib`, `lucas`, `QuadNum` multiply and power) only count
calls, so the per-call cost stays small.  Coarse boundaries (each catalog
side, `direct_sum`, `binomial_rhs`, `run_grid`, `from_records`,
serialization, `main`) are timed: per name the tracer keeps the call count,
the total time and the self time (total minus the time of timed spans
nested inside).  The outermost verify stages are also kept as individual
spans with their parent, for the report at the end of the run.

Wrappers replace public names of the loaded fibsums modules, classes and
catalog entries; `Tracer.restore` puts the originals back.
"""

from __future__ import annotations

import dataclasses
import sys
import time
from collections import Counter, defaultdict
from typing import Any, Callable

_MISSING = object()


class Tracer:
    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.total: defaultdict[str, float] = defaultdict(float)
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.spans: list[list] = []  # [name, start, end, index of parent span or None]
        # one frame per open timed call: [time of timed children, index of nearest kept span]
        self._stack: list[list] = [[0.0, None]]
        self._undo: list[tuple[Any, str, Any]] = []

    def counted(self, name: str, fn: Callable) -> Callable:
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def timed(self, name: str, fn: Callable, keep: bool = False) -> Callable:
        calls, total, self_time = self.calls, self.total, self.self_time
        stack, spans, clock = self._stack, self.spans, time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [0.0, parent[1]]
            if keep:
                frame[1] = len(spans)
                spans.append([name, 0.0, 0.0, parent[1]])
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                parent[0] += dur
                calls[name] += 1
                total[name] += dur
                self_time[name] += dur - frame[0]
                if keep:
                    spans[frame[1]][1:3] = (t0, t1)

        return wrapper

    def replace(self, owner: Any, attr: str, new: Any) -> None:
        """Set owner.attr to new, remembering what to put back."""
        self._undo.append((owner, attr, vars(owner).get(attr, _MISSING)))
        (object.__setattr__ if _frozen(owner) else setattr)(owner, attr, new)

    def replace_everywhere(self, original: Callable, new: Callable) -> None:
        """Rebind every fibsums module global that refers to `original`."""
        for modname, module in list(sys.modules.items()):
            if modname != "fibsums" and not modname.startswith("fibsums."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.replace(module, attr, new)

    def restore(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            if old is _MISSING:
                (object.__delattr__ if _frozen(owner) else delattr)(owner, attr)
            else:
                (object.__setattr__ if _frozen(owner) else setattr)(owner, attr, old)


def _frozen(owner: Any) -> bool:
    # catalog entries are frozen dataclass instances
    return dataclasses.is_dataclass(owner) and not isinstance(owner, type)


def instrument(tracer: Tracer, families: dict[str, str], sides_in_process: bool) -> None:
    """Wrap the fibsums layer boundaries.

    When the identity sides run in worker processes, only the parent-side
    stages are wrapped: wrappers inherited by forked workers would slow
    them while their counts are lost with the worker.
    """
    from fibsums import cli, quadfield, sequences, transform, verify
    from fibsums.identities import catalog

    report = verify.Report
    tracer.replace(cli, "main", tracer.timed("main", cli.main, keep=True))
    tracer.replace_everywhere(verify.run_grid, tracer.timed("run_grid", verify.run_grid, keep=True))
    from_records = vars(report)["from_records"].__func__
    tracer.replace(
        report, "from_records", classmethod(tracer.timed("from_records", from_records, keep=True))
    )
    tracer.replace(report, "to_jsonl", tracer.timed("serialize", report.to_jsonl, keep=True))
    tracer.replace_everywhere(verify.summarize, tracer.timed("serialize", verify.summarize, keep=True))
    if not sides_in_process:
        return

    tracer.replace_everywhere(sequences.fib, tracer.counted("fib", sequences.fib))
    tracer.replace_everywhere(sequences.lucas, tracer.counted("lucas", sequences.lucas))
    tracer.replace_everywhere(sequences.direct_sum, tracer.timed("direct_sum", sequences.direct_sum))
    tracer.replace_everywhere(
        transform.binomial_rhs, tracer.timed("binomial_rhs", transform.binomial_rhs)
    )
    quad = quadfield.QuadNum
    tracer.replace(quad, "__mul__", tracer.counted("QuadNum.mul", quad.__mul__))
    tracer.replace(quad, "__rmul__", tracer.counted("QuadNum.mul", quad.__rmul__))
    tracer.replace(quad, "__pow__", tracer.counted("QuadNum.pow", quad.__pow__))
    for desc in catalog():
        family = families[desc.id.value]
        tracer.replace(desc, "lhs", tracer.timed(f"oracle:{family}", desc.lhs))
        tracer.replace(desc, "rhs", tracer.timed(f"closed:{family}", desc.rhs))
