"""symplab benchmark: drive the ``lab`` CLI as one closed-loop client.

    python3 perfbench/run.py --workload suite --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  Each pass of a workload runs in a
fresh worker process (``lab_worker.py``) that sends the run's requests to
``symplab.cli.main`` one after the other.  The same requests are replayed
in at least two passes, and in more until the next one would overrun
``--seconds``.  Every report is checked against the golden capture of the
unmodified program.  The last line of stdout is the result record; the
line before it carries run metadata and detail.

With ``--trace 0`` the result holds the end-to-end metrics; with
``--trace 1`` it runs one untraced and one traced pass on the same
requests and holds the per-layer metrics named in BENCHMARK.json.  The
full per-layer table and the spans are written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import lab_inputs as inputs

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT = ROOT / ".bench_out"
WORKER = BENCH_DIR / "lab_worker.py"
PACKAGE = ROOT / "src" / "symplab"

WORKER_TIMEOUT_S = 150
SETUP_PROBES = 3  # fresh imports timed for setup_s before each pass
# setup_s must be in seconds: its cost in probe units is counted at this
# many seconds per unit, about the probe's time on an idle core of the
# 2-vCPU Xeon KVM guest the benchmark was written on
PROBE_UNIT_S = 1e-4
MIN_PASSES = 2
MAX_PASSES = 64

WORKLOADS = ("suite", "omega-n3", "cohomology-sweep")


def requests_for(workload: str, seed: int) -> list[dict]:
    """The request list every pass of the run replays, generated before timing."""
    if workload == "suite":
        return [inputs.suite_request(seed, str(OUT / "suite-report.json"))]
    if workload == "omega-n3":
        return inputs.omega_stream(seed, inputs.OMEGA_BATCH)
    return inputs.sweep_order(seed)


def run_worker(requests: list[dict], probe: bool = False, trace: Path | None = None) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "LAB_OUTPUT_DIR"}
    payload = json.dumps({"requests": requests, "probe": probe,
                          "trace": str(trace) if trace else None})
    proc = subprocess.run([sys.executable, str(WORKER)], input=payload, capture_output=True,
                          text=True, cwd=ROOT, env=env, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(results: list[dict], golden: dict[str, list]) -> list[str]:
    """Keys of results whose exit code or report bytes differ from the golden capture."""
    return [r["key"] for r in results if golden.get(r["key"]) != [r["exit"], r["sha256"]]]


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten samples beyond it.

    With ten samples or fewer no percentile has ten beyond it, and the
    maximum (percentile 100) is reported instead.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def source_stats() -> dict:
    files = sorted(PACKAGE.glob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        digest.update(f.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {"src_lines": lines, "src_sha256": digest.hexdigest()}


def git_commit() -> str | None:
    """HEAD of the checkout read from .git, or None outside a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def metadata() -> dict:
    return {"python": sys.version.split()[0], "nproc": os.cpu_count(),
            "commit": git_commit(), **source_stats()}


def measure(workload: str, seed: int, seconds: float, golden: dict) -> tuple[dict, dict, int, int]:
    """Replay the workload's requests, a fresh worker per pass, for about ``seconds``.

    Timings are costs in probe units (see ``lab_worker``): the host's own
    speed swings by up to 2x, and raw seconds would measure the host.  A
    request's cost is the median over the run's passes.  setup_s is the
    median import cost, counted at ``PROBE_UNIT_S`` per unit.
    """
    requests = requests_for(workload, seed)
    run_worker([])  # compiles bytecode; not a sample
    setup: list[float] = []
    passes: list[dict] = []
    child_s: list[float] = []
    begin = time.perf_counter()
    while len(passes) < MAX_PASSES:
        setup += [run_worker([])["import_cost"] for _ in range(SETUP_PROBES)]
        t = time.perf_counter()
        passes.append(run_worker(requests, probe=True))
        child_s.append(time.perf_counter() - t)
        setup.append(passes[-1]["import_cost"])
        if (len(passes) >= MIN_PASSES
                and time.perf_counter() - begin + statistics.median(child_s) > seconds):
            break
    results = [r for p in passes for r in p["results"]]
    failed = check(results, golden)
    cost = [statistics.median(p["results"][i]["cost"] for p in passes)
            for i in range(len(requests))]
    seconds_best = [min(p["results"][i]["seconds"] - p["results"][i]["probe_s"] for p in passes)
                    for i in range(len(requests))]
    tail_cost, tail_pct = tail(cost)
    metrics = {
        "wall_cost": sum(cost),
        "op_p50_cost": statistics.median(cost),
        "op_tail_cost": tail_cost,
        "peak_rss_mb": max(p["rss_kb"] for p in passes) / 1024,
        "setup_s": statistics.median(setup) * PROBE_UNIT_S,
    }
    detail = {"passes": len(passes), "pass_wall_s": [p["wall_s"] for p in passes],
              "pass_cost": [sum(r["cost"] for r in p["results"]) for p in passes],
              "requests": len(cost), "op_tail_percentile": tail_pct,
              "probe_share": sum(r["probe_s"] for r in results) / sum(r["seconds"] for r in results),
              "raw_best_wall_s": sum(seconds_best),
              "raw_best_op_p50_ms": 1000 * statistics.median(seconds_best),
              "raw_best_op_tail_ms": 1000 * tail(seconds_best)[0],
              "setup_samples": len(setup),
              "raw_setup_s": statistics.median(p["import_s"] for p in passes),
              "mismatches": failed[:10]}
    return metrics, detail, len(results), len(failed)


def measure_traced(workload: str, seed: int, golden: dict) -> tuple[dict, dict, int, int]:
    """One untraced and one traced pass on the same requests, both probed."""
    requests = requests_for(workload, seed)
    plain = run_worker(requests, probe=True)
    trace_path = OUT / f"trace-{workload}-seed{seed}.json"
    traced = run_worker(requests, probe=True, trace=trace_path)
    results = plain["results"] + traced["results"]
    failed = check(results, golden)  # both passes, so tracing cannot change a report
    layers = dict(traced["layers"])
    layers["trace.wall_s"] = traced["wall_s"]
    layers["trace.untraced_wall_s"] = plain["wall_s"]
    layers["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    layers["trace.overhead_cost"] = (sum(r["cost"] for r in traced["results"])
                                     - sum(r["cost"] for r in plain["results"]))
    detail = {"trace_file": str(trace_path.relative_to(ROOT)), "layers": layers,
              "mismatches": failed[:10]}
    return layers, detail, len(results), len(failed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (PACKAGE / "cli.py").is_file():
        print(f"no symplab sources under {PACKAGE}; run from a source checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    golden = inputs.load_manifest()
    OUT.mkdir(exist_ok=True)
    try:
        if args.trace:
            values, detail, attempted, failed = measure_traced(args.workload, args.seed, golden)
        else:
            values, detail, attempted, failed = measure(args.workload, args.seed,
                                                        args.seconds, golden)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"workload": args.workload, "seed": args.seed, "meta": metadata(),
                      **detail}))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
