"""Grid verification with deterministic reports.

A GridSpec sweeps identities over inclusive parameter ranges; the verifier
checks every point against the oracle and streams one JSON line per point, in
a canonical order that is independent of how many worker processes ran.
"""

import io

from fibsums import GridSpec, IdentityId, run_grid, summarize
from fibsums.verify import default_grid_specs


def jsonl(spec, parallelism):
    """The report and its bytes as `fibsums verify --format json` writes them:
    each point's line, then the summary line."""
    out = io.StringIO()
    report = run_grid([spec], parallelism, out=out)
    return report, out.getvalue() + report.to_jsonl()


print("=== A small grid over two identities ===")
spec = GridSpec(
    ids=(IdentityId.C18, IdentityId.Q13),
    n_range=(0, 3),
    j_range=(1, 1),
    r_range=(1, 2),
    s_range=(-1, 1),
    p_range=(0, 1),
)
report, text = jsonl(spec, parallelism=1)
print(summarize(report))
print()
print("Q13 skips its p=0 slice by contract; skips are visible, not silent.")

print()
print("=== The JSON-lines serialization ===")
for line in text.splitlines()[:4]:
    print(line)
print("...")
print(text.splitlines()[-1])

print()
print("=== Determinism across parallelism ===")
parallel = jsonl(spec, parallelism=4)[1]
print("byte-identical reports from 1 and 4 workers:", text == parallel)

print()
print("=== The default grid ===")
spec_other, spec_odd = default_grid_specs()
print("ids:", len(spec_other.ids) + len(spec_odd.ids))
print("n:", spec_other.n_range, " j/r/s/p:", spec_other.j_range, " m:", spec_other.m_range,
      "(even powers) /", spec_odd.m_range, "(odd powers)")
print("running it takes a minute or two; here is a thin slice:")
thin = [
    GridSpec(ids=spec_other.ids, n_range=(0, 2), j_range=(-1, 1), r_range=(-1, 1),
             s_range=(-1, 1), p_range=(-1, 1), m_range=(0, 1)),
    GridSpec(ids=spec_odd.ids, n_range=(0, 2), j_range=(-1, 1), r_range=(-1, 1),
             s_range=(-1, 1), p_range=(-1, 1), m_range=(0, 1)),
]
print(summarize(run_grid(thin, parallelism=2)).splitlines()[-1])
