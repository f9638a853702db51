"""One pass of a workload, run in a fresh interpreter.

Reads ``{"requests": [...], "probe": bool, "trace": path-or-null}`` as JSON
on stdin, imports ``symplab.cli`` (timing the import), sends each request
to ``symplab.cli.main`` one after the other, and prints one JSON line with
the import time and cost, the pass wall time, per-request latency, exit code and
SHA-256 of each report, and the peak RSS.  With a trace path it records
spans around every wrapped function, writes them to that path, and adds
the per-layer table.

A fresh process per pass keeps whatever the program caches from leaking
from one pass into the next, as with separate ``lab`` invocations.

The host this runs on shares its cores: its speed changes by up to 2x
within tens of milliseconds and drifts by 1.6x over minutes.  With
``probe`` set, a timer signal interrupts the pass every
``PROBE_PERIOD_S`` and times ``probe_unit``, a fixed piece of exact
rational arithmetic, in the same thread.  A request's cost is its latency
less the probe's own time, multiplied by the mean probe rate during the
request: the number of probe units the host could have run in that time.
That cost follows the program's work and cancels the host's speed.
"""

import os
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
PROBE_PERIOD_S = 0.01
PROBE_CONTEXT = 3  # probe samples taken before a request that also describe it
IMPORT_PROBES = 30  # probe samples right after the timed import, for its cost


def probe_unit():
    """Fixed reference work: a few dozen exact rational additions."""
    from fractions import Fraction
    acc = Fraction(0)
    for i in range(1, 60):
        acc += Fraction(i % 7 - 3, i % 5 + 1)
    return acc


class HostProbe:
    """Times ``probe_unit`` from a timer signal while the pass runs."""

    def __init__(self, tracer=None):
        self.samples: list[float] = []
        self.tracer = tracer  # if set, each sample is also a "probe" span

    def sample(self, *_):
        t = time.perf_counter()
        probe_unit()
        end = time.perf_counter()
        self.samples.append(end - t)
        if self.tracer is not None:
            self.tracer.record("probe", t, end)

    def __enter__(self):
        import signal
        tracer, self.tracer = self.tracer, None  # these samples precede the pass
        for _ in range(PROBE_CONTEXT):
            self.sample()
        self.tracer = tracer
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        import signal
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return False

    def rate(self, first: int, last: int) -> float:
        """Mean probe units per second over samples first..last."""
        window = self.samples[first:last]
        return sum(1 / d for d in window) / len(window)

    def cost(self, first: int, last: int, seconds: float) -> tuple[float, float]:
        """(probe seconds inside, cost) of a request that spanned samples first..last."""
        inside = sum(self.samples[first:last])
        return inside, (seconds - inside) * self.rate(max(0, first - PROBE_CONTEXT), last)


def _call(cli, argv):
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return f"exit:{exc.code}"
    except Exception as exc:  # a crash is a failed request, not a harness error
        return f"raised:{type(exc).__name__}: {exc}"


def run_requests(requests, tracer=None, probe=None):
    """Send ``requests`` in order.

    Returns (start, wall_s, [(request, exit, report bytes, seconds, probe samples)]),
    where the probe samples are the index range taken during the request.
    """
    import contextlib
    import io

    from symplab import cli

    done = []
    start = time.perf_counter()
    for req in requests:
        if "report" in req and os.path.exists(req["report"]):
            os.remove(req["report"])
        buf = io.StringIO()
        first = len(probe.samples) if probe else 0
        t = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            if tracer is None:
                rc = _call(cli, req["argv"])
            else:
                with tracer.span("cli"):
                    rc = _call(cli, req["argv"])
        seconds = time.perf_counter() - t
        samples = (first, len(probe.samples) if probe else 0)
        if "report" not in req:
            report = buf.getvalue().encode()
        elif os.path.exists(req["report"]):
            with open(req["report"], "rb") as fh:
                report = fh.read()
        else:
            report = b""
        done.append((req, rc, report, seconds, samples))
    return start, time.perf_counter() - start, done


def main() -> int:
    sys.path.insert(0, SRC)
    t = time.perf_counter()
    import symplab.cli  # noqa: F401  (timed: this is the set-up a `lab` process pays)
    import_s = time.perf_counter() - t

    # imported after the timed import so that symplab pays for its own imports
    import hashlib
    import json
    import resource

    after_import = HostProbe()
    for _ in range(IMPORT_PROBES):
        after_import.sample()
    import_cost = import_s * after_import.rate(0, IMPORT_PROBES)

    payload = json.loads(sys.stdin.read())
    tracer = probe = None
    if payload.get("trace"):
        from lab_trace import Tracer
        tracer = Tracer()
        tracer.install()
    try:
        if payload.get("probe"):
            with HostProbe(tracer) as probe:
                start, wall_s, done = run_requests(payload["requests"], tracer, probe)
        else:
            start, wall_s, done = run_requests(payload["requests"], tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    results = []
    for req, rc, report, seconds, samples in done:
        results.append({"key": req["key"], "exit": rc,
                        "sha256": hashlib.sha256(report).hexdigest(), "seconds": seconds})
        if probe is not None:
            results[-1]["probe_s"], results[-1]["cost"] = probe.cost(*samples, seconds)
    out = {
        "import_s": import_s,
        "import_cost": import_cost,
        "wall_s": wall_s,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "results": results,
    }
    if tracer is not None:
        from lab_trace import layer_table
        out["layers"] = layer_table(tracer.spans, wall_s)
        with open(payload["trace"], "w") as fh:
            json.dump({"wall_s": wall_s, "layers": out["layers"], **tracer.export(start)}, fh)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
