"""Tests of the benchmark harness itself: seeded inputs, golden checks, tracing."""

import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import lab_inputs as inputs  # noqa: E402
import lab_worker  # noqa: E402
from lab_trace import Tracer, layer_table  # noqa: E402

sys.path.insert(0, lab_worker.SRC)


def test_same_seed_gives_identical_request_lists():
    assert inputs.omega_stream(5, 120) == inputs.omega_stream(5, 120)
    assert inputs.omega_stream(5, 120) != inputs.omega_stream(6, 120)
    assert inputs.sweep_order(5) == inputs.sweep_order(5)
    assert inputs.suite_request(5, "r.json") == inputs.suite_request(5, "r.json")


def test_omega_stream_is_a_quarter_rational():
    stream = inputs.omega_stream(11, 200)
    rational = ["/" in "".join(r["argv"]) for r in stream]
    assert rational == [j % 4 == 3 for j in range(200)]


def test_sweep_names_each_model_once():
    keys = sorted(inputs.sweep_key(name) for name, _ in inputs.SWEEP)
    for seed in range(4):
        assert sorted(r["key"] for r in inputs.sweep_order(seed)) == keys


def test_manifest_covers_every_request():
    golden = inputs.load_manifest()
    keys = {"suite"} | {inputs.sweep_key(name) for name, _ in inputs.SWEEP}
    keys |= {inputs.omega_key(i) for i in range(inputs.OMEGA_POOL)}
    assert set(golden) == keys
    assert golden["suite"][0] == 1  # criterion 7 is red as stated, so `lab suite` exits 1


def test_reports_identical_with_tracing_on_and_off():
    sweep = {r["key"]: r for r in inputs.sweep_order(0)}
    requests = [inputs.omega_request(0), inputs.omega_request(3),
                sweep["cohomology/torus-n2"], sweep["cohomology/suspension-N16"]]
    _, _, plain = lab_worker.run_requests(requests)
    from symplab.linalg import Matrix
    original_rref = Matrix.__dict__["rref"]
    tracer = Tracer()
    tracer.install()
    try:
        _, wall_s, traced = lab_worker.run_requests(requests, tracer)
    finally:
        tracer.uninstall()
    assert Matrix.__dict__["rref"] is original_rref

    golden = inputs.load_manifest()
    for (req, rc_a, report_a, _, _), (_, rc_b, report_b, _, _) in zip(plain, traced):
        assert (rc_a, report_a) == (rc_b, report_b)
        assert golden[req["key"]] == [rc_a, hashlib.sha256(report_a).hexdigest()]

    table = layer_table(tracer.spans, wall_s)
    accounted = table["trace.self_total_s"] + table["trace.stats_s"] + table["trace.harness_s"]
    assert abs(accounted - wall_s) < 1e-6
    assert table["lie_core.context.calls"] == 2
    assert table["models.build.distinct"] == 2
    assert table["linalg.rref.calls"] > 0 and table["cli.self_s"] > 0


def test_probe_cost_follows_work():
    sweep = {r["key"]: r for r in inputs.sweep_order(0)}
    requests = [sweep["cohomology/torus-n2"], sweep["cohomology/suspension-N16"]]
    with lab_worker.HostProbe() as probe:
        done = lab_worker.run_requests(requests, probe=probe)[2]
    (small_probe_s, small), (big_probe_s, big) = [probe.cost(*samples, seconds)
                                                  for _, _, _, seconds, samples in done]
    assert 0 < small < big
    assert 0 < big_probe_s < done[1][3] / 5
