"""Survey the bundled corpus: bound, census, verdict, oracle agreement.

Run:  python demos/03_corpus_survey.py
"""

import time

from khfront import BUNDLED, sharpness_report

print(f"{'front':<22} {'n':>2} {'tb':>3} {'min d':>5} {'good/bad':>9}  verdict")
print("-" * 72)
start = time.monotonic()
for entry in BUNDLED:
    report = sharpness_report(entry.front(), with_oracle=True)
    if report.tb != entry.tb:
        # an explicit exit, since python -O strips asserts
        raise SystemExit(f"{entry.name}: tb={report.tb}, recorded {entry.tb}")
    good = sum(g for g, _ in report.census.values())
    bad = sum(b for _, b in report.census.values())
    print(
        f"{entry.name:<22} {entry.crossings:>2} {report.tb:>3} "
        f"{report.min_delta:>5} {good:>4}/{bad:<4}  {report.verdict}"
    )
print("-" * 72)
print(f"{len(BUNDLED)} fronts verified against the homology oracle "
      f"in {time.monotonic() - start:.1f}s")
