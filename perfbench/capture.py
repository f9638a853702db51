"""Capture the golden reports that the benchmark checks every output against.

Run once at the commit whose outputs are the reference:

    python3 perfbench/capture.py

It sends every request the benchmark can generate (the suite, each
cohomology-sweep model, every omega-n3 pool element) through
``symplab.cli.main`` and writes ``golden/manifest.json`` (exit code and
SHA-256 of the report bytes per request key) plus the suite and
cohomology reports themselves under ``golden/reports/`` for diffing.
"""

from __future__ import annotations

import hashlib
import json
import sys

import lab_inputs as inputs
import lab_worker
from run import OUT, source_stats

SUITE_SEEDS = (7, 1, 2)  # the report carries no seed; confirm it on several


def main() -> int:
    sys.path.insert(0, lab_worker.SRC)
    OUT.mkdir(exist_ok=True)
    raw_dir = inputs.GOLDEN_DIR / "reports"
    reports: dict[str, list] = {}

    suite_bytes = set()
    for seed in SUITE_SEEDS:
        req = inputs.suite_request(seed, str(OUT / "suite-report.json"))
        (_, rc, report, _, _), = lab_worker.run_requests([req])[2]
        suite_bytes.add((rc, report))
    if len(suite_bytes) != 1:
        raise SystemExit("suite report differs between seeds; cannot capture one golden")
    (rc, report), = suite_bytes
    reports["suite"] = [rc, hashlib.sha256(report).hexdigest()]
    (raw_dir / "cohomology").mkdir(parents=True, exist_ok=True)
    (raw_dir / "suite.json").write_bytes(report)

    sweep = inputs.sweep_order(0)
    for req, rc, report, _, _ in lab_worker.run_requests(sweep)[2]:
        reports[req["key"]] = [rc, hashlib.sha256(report).hexdigest()]
        (raw_dir / (req["key"] + ".csv")).write_bytes(report)

    pool = [inputs.omega_request(i) for i in range(inputs.OMEGA_POOL)]
    for req, rc, report, _, _ in lab_worker.run_requests(pool)[2]:
        reports[req["key"]] = [rc, hashlib.sha256(report).hexdigest()]

    bad = {k: v[0] for k, v in reports.items() if v[0] != (1 if k == "suite" else 0)}
    if bad:
        raise SystemExit(f"unexpected exit codes: {bad}")
    lines = [f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(reports.items())]
    source = json.dumps(source_stats())
    inputs.MANIFEST.write_text(
        '{\n "source": ' + source + ',\n "reports": {\n' + ",\n".join(lines) + "\n }\n}\n")
    print(f"captured {len(reports)} reports")
    return 0


if __name__ == "__main__":
    sys.exit(main())
