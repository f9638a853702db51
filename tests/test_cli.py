import csv
import hashlib
import importlib.util
import io
import json
from pathlib import Path

import pytest

import symplab.cohomology as coh
from symplab.cli import main
from symplab.suite import CheckResult


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_algebra_rank_kernel_json(capsys):
    code, out = run_cli(capsys, "algebra", "--n", "2", "--check", "rank-kernel",
                        "--samples", "5", "--seed", "7")
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 2 and payload["seed"] == 7
    assert len(payload["samples"]) == 5
    for row in payload["samples"]:
        assert row["regular"] is True
        assert row["rank"] == 8
        assert row["kernel_dim"] == 2
        assert row["kernel_abelian"] is True
        assert row["kernel_equals_centralizer"] is True


def test_algebra_rank_kernel_csv(capsys):
    code, out = run_cli(capsys, "algebra", "--n", "1", "--samples", "3",
                        "--seed", "1", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["sample", "regular", "rank", "kernel_dim",
                       "kernel_abelian", "kernel_equals_centralizer"]
    assert len(rows) == 4
    assert rows[1][2] == "2"


def test_algebra_closed_forms(capsys):
    code, out = run_cli(capsys, "algebra", "--n", "1", "--check", "closed-forms",
                        "--samples", "10", "--seed", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["closed_two_form_dim"] == 3
    assert payload["algebra_dim"] == 3
    assert payload["potential_roundtrip_exact"] is True


def test_omega_example(capsys):
    code, out = run_cli(capsys, "omega", "--n", "1",
                        "--element", '[["1","0"],["0","-1"]]')
    assert code == 0
    payload = json.loads(out)
    assert payload["rank"] == 2
    assert payload["kernel_dim"] == 1
    assert payload["closed"] is True
    assert payload["potential_roundtrip"] is True
    assert payload["spectral_type"]["label"] == "hyperbolic"


def test_omega_rejects_non_algebra_matrix(capsys):
    code, out = run_cli(capsys, "omega", "--n", "1",
                        "--element", '[["1","0"],["0","1"]]')
    assert code == 1
    payload = json.loads(out)
    assert payload["error"]["op"] == "omega"
    assert "sp(2n" in payload["error"]["reason"]


def _benchmark_inputs():
    """perfbench/lab_inputs.py, which builds the benchmark's omega requests and
    reads their golden reports; loaded from its file, read-only."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "lab_inputs.py"
    spec = importlib.util.spec_from_file_location("lab_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_omega_reports_match_golden_bytes(capsys):
    """One element from each block of 16 in the 1024-element omega pool, cycling
    through the pool's four lanes, so 64 requests of which 16 (lane 3) are
    rational; exit code and report SHA-256 must equal the captured goldens."""
    inputs = _benchmark_inputs()
    golden = inputs.load_manifest()
    indices = [16 * k + k % 4 for k in range(inputs.OMEGA_POOL // 16)]
    assert len(indices) == 64 and sum(i % 4 == 3 for i in indices) == 16
    for index in indices:
        code, out = run_cli(capsys, *inputs.omega_request(index)["argv"])
        assert [code, hashlib.sha256(out.encode()).hexdigest()] == golden[inputs.omega_key(index)]


def test_cohomology_sweep_matches_golden_csv(capsys):
    """The benchmark's ten cohomology-sweep requests; each CSV report must equal
    its golden capture in perfbench/golden/reports/cohomology, which is only read."""
    inputs = _benchmark_inputs()
    golden = inputs.GOLDEN_DIR / "reports" / "cohomology"
    assert len(inputs.SWEEP) == 10
    for name, flags in inputs.SWEEP:
        code, out = run_cli(capsys, *inputs.sweep_request(name, flags)["argv"])
        assert code == 0
        assert out.encode() == (golden / f"{name}.csv").read_bytes(), name


# SHA-256 of lab algebra reports (seed 7, 10 samples), captured before the
# algebra batch checks were shared with the acceptance suite.
ALGEBRA_REPORTS = [
    (["--n", "1", "--check", "rank-kernel"],
     "dc54915e153e6f156f2a8907b00eb7a3616766ff6ce21692d5432def334feef4"),
    (["--n", "1", "--check", "rank-kernel", "--format", "csv"],
     "9655007ad5c2e045ff1b7de426efdda6fbdb5683c4388784cea56bde33943dfc"),
    (["--n", "1", "--check", "closed-forms"],
     "7c9a69eaf70876c20ca3613f3060dad1711b61e4e8262b9b8f978b9de248c942"),
    (["--n", "2", "--check", "rank-kernel"],
     "add1f63a4c3388898396786dce62c7e4619a484b1f58bb6092f38cfea28a9e65"),
    (["--n", "2", "--check", "rank-kernel", "--format", "csv"],
     "3c6f117a71f46584d6d1d71412ca659074a8aa7c674028d08f140f2973f07a41"),
    (["--n", "2", "--check", "closed-forms"],
     "1aad1233f3f774f2cc73102dd869fd9758df134b16a780c68798d49b72a8556e"),
]


@pytest.mark.parametrize("flags, sha256", ALGEBRA_REPORTS,
                         ids=["n" + "-".join(flags[1::2]) for flags, _ in ALGEBRA_REPORTS])
def test_algebra_reports_match_pinned_bytes(capsys, flags, sha256):
    code, out = run_cli(capsys, "algebra", *flags, "--samples", "10", "--seed", "7")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


def test_cohomology_suspension_csv(capsys):
    code, out = run_cli(capsys, "cohomology", "--model", "suspension",
                        "--cutoff", "8", "--theories", "dr,dpl,ddl,hodge",
                        "--format", "csv")
    assert code == 0
    rows = {(r[1], r[2]): r[3] for r in list(csv.reader(io.StringIO(out)))[1:]}
    # truncated dimension table at N=8
    assert [rows[("dr", str(k))] for k in range(3)] == ["1", "1", "17"]
    assert [rows[("dpl", str(k))] for k in range(3)] == ["1", "17", "1"]
    assert [rows[("ddl", str(k))] for k in range(3)] == ["17", "1", "17"]
    assert [rows[("hodge", str(k))] for k in range(3)] == ["1", "17", "1"]


def test_cohomology_polynomial_windowed_json(capsys):
    code, out = run_cli(capsys, "cohomology", "--model", "polynomial",
                        "--n", "1", "--cutoff", "6", "--theories", "dpl,ddl")
    assert code == 0
    payload = json.loads(out)
    by_theory = {r["theory"]: r for r in payload["reports"]}
    assert by_theory["dPlusDLambda"]["dims"] == [1, 0, 1]
    assert by_theory["ddLambda"]["dims"] == [0, 1, 0]
    assert all(r["windowed"] for r in payload["reports"])


def test_cohomology_hodge_refuses_the_polynomial_model(capsys, monkeypatch):
    def fail(*args):
        pytest.fail("the model was built")  # not an Exception, so main cannot report it
    monkeypatch.setattr("symplab.cli.build_polynomial_model", fail)
    code, out = run_cli(capsys, "cohomology", "--model", "polynomial", "--n", "1",
                        "--cutoff", "4", "--theories", "dpl,hodge")
    assert code == 1
    assert json.loads(out) == {"error": {
        "op": "cohomology", "reason": "hodge_check requires a model with an inner product"}}


def test_cohomology_hodge_reuses_the_dpl_report(capsys, monkeypatch):
    calls = []
    original = coh.d_plus_dlambda_cohomology

    def counted(*args, **kwargs):
        calls.append(args[0].name)
        return original(*args, **kwargs)

    monkeypatch.setattr(coh, "d_plus_dlambda_cohomology", counted)
    code, out = run_cli(capsys, "cohomology", "--model", "suspension", "--cutoff", "4",
                        "--theories", "dpl,hodge")
    assert code == 0
    assert json.loads(out)["hodge"]["degrees"][1]["dim_h_dpl"] == 9
    assert calls == ["suspension-N4"]


def test_cohomology_deterministic_output(capsys):
    _, first = run_cli(capsys, "cohomology", "--model", "torus", "--n", "2",
                       "--theories", "dr,dpl,ddl")
    _, second = run_cli(capsys, "cohomology", "--model", "torus", "--n", "2",
                        "--theories", "dr,dpl,ddl")
    assert first == second


def test_cohomology_empty_theories_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["cohomology", "--model", "torus", "--theories", ","])
    assert err.value.code == 2


def test_cohomology_unknown_theory_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["cohomology", "--model", "torus", "--theories", "dr,bogus"])
    assert err.value.code == 2


def test_bad_cutoff_usage_error(capsys):
    code = main(["cohomology", "--model", "suspension", "--cutoff", "0",
                 "--theories", "dr"])
    assert code == 2


def test_bad_n_usage_error(capsys):
    code = main(["algebra", "--n", "0"])
    assert code == 2


@pytest.mark.parametrize("argv, code", [
    (["omega", "--n", "1", "--element", "[[null]]"], 1),         # not a number
    (["omega", "--n", "1", "--element", '[["1/0"]]'], 1),        # zero denominator
    (["omega", "--n", "1", "--element", '{"rows":2}'], 1),       # record without entries
    (["omega", "--n", "1", "--element", "[[1e400]]"], 1),        # parses to infinity
    (["omega", "--n", "1", "--element", "5"], 1),                # not a matrix
    (["algebra", "--n", "1", "--samples", "-3"], 2),             # negative count
    (["omega", "--n", "1", "--element", "[[true,0],[0,-1]]"], 1),      # booleans
    (["omega", "--n", "1", "--element", "[[1.5,0],[0,-1.5]]"], 1),     # floats
    (["omega", "--n", "1", "--element", '[["1e999999999"]]'], 1),      # not p/q: a huge power of ten
    (["omega", "--n", "1", "--element",                                # a huge declared shape
      '{"entries":[],"rows":1000000,"cols":2}'], 1),
    (["omega", "--n", "1", "--element", '{"entries":[],"rows":-3,"cols":2}'], 1),  # negative
    (["omega", "--n", "1", "--element", "[[1,0],[0]]"], 1),             # ragged rows
])
def test_bad_input_exits_without_traceback(capsys, argv, code):
    got, out = run_cli(capsys, *argv)
    assert got == code
    if code == 2:
        assert out == ""
    else:
        error = json.loads(out)["error"]
        assert error["op"] == "omega"
        assert error["reason"].startswith("malformed element")


@pytest.mark.parametrize("argv, builder", [
    (["cohomology", "--model", "polynomial", "--n", "3", "--cutoff", "40"],
     "build_polynomial_model"),
    (["cohomology", "--model", "torus", "--n", "1000000000000"], "build_torus_model"),
    (["cohomology", "--model", "suspension", "--cutoff", "100000"], "build_suspension_model"),
    (["algebra", "--n", "1000"], "lie.standard_basis"),
    (["algebra", "--n", "6", "--check", "closed-forms"], "lie.standard_basis"),
    (["omega", "--n", "1000", "--element", "[[0]]"], "lie.standard_basis"),
    (["algebra", "--n", "1", "--samples", "100000000"], "lie.standard_basis"),
    (["algebra", "--n", "1", "--check", "closed-forms", "--samples", "100000000"],
     "lie.standard_basis"),
    (["algebra", "--n", "1", "--samples", "10000000"], "lie.standard_basis"),
    (["algebra", "--n", "1", "--check", "closed-forms", "--samples", "10000000"],
     "lie.standard_basis"),
    (["algebra", "--n", "3", "--samples", "9000"], "lie.standard_basis"),
    (["algebra", "--n", "3", "--check", "closed-forms", "--samples", "9000"],
     "lie.standard_basis"),
    # 4.6e8 from the widest elimination alone: C(16, 8) * (C(16, 8) + 2 * C(16, 7))
    (["cohomology", "--model", "torus", "--n", "8"], "build_torus_model"),
])
def test_explosive_parameters_refused_before_any_build(capsys, monkeypatch, argv, builder):
    def fail(*args):
        pytest.fail("the builder ran")  # not an Exception, so main cannot report it
    monkeypatch.setattr(f"symplab.cli.{builder}", fail)
    code, out = run_cli(capsys, *argv)
    assert code == 1
    error = json.loads(out)["error"]
    assert error["op"] == argv[0]
    assert "entries" in error["reason"] and "limit of 1e+08" in error["reason"]


def test_largest_model_within_budget():
    from symplab.cli import MAX_MATRIX_CELLS, _model_cells
    # the widest elimination: the middle degree against its two neighbours
    assert _model_cells("polynomial", 3, 4) == pytest.approx(4200 * (4200 + 2 * 3150))
    assert _model_cells("polynomial", 3, 4) <= MAX_MATRIX_CELLS
    assert _model_cells("polynomial", 3, 5) > MAX_MATRIX_CELLS
    assert all(_model_cells("torus", n, 4) <= MAX_MATRIX_CELLS for n in range(1, 8))
    assert _model_cells("torus", 8, 4) > MAX_MATRIX_CELLS


def test_sample_counts_in_use_within_budget():
    """The README's and the suite's sample counts (50 per n) stay accepted
    under the per-sample price."""
    from symplab.cli import MAX_MATRIX_CELLS, _algebra_cells
    from symplab.suite import SAMPLES
    for n, closed_forms in ((1, False), (2, False), (3, False), (1, True), (2, True)):
        assert _algebra_cells(n, closed_forms, SAMPLES) <= MAX_MATRIX_CELLS


def test_output_file_and_lab_output_dir(tmp_path, monkeypatch, capsys):
    target = tmp_path / "out"
    target.mkdir()
    monkeypatch.setenv("LAB_OUTPUT_DIR", str(target))
    code, _ = run_cli(capsys, "omega", "--n", "1",
                      "--element", '[["0","1"],["0","0"]]',
                      "--output", "elsewhere/report.json")
    assert code == 0
    written = target / "report.json"
    assert written.exists()
    payload = json.loads(written.read_text())
    assert payload["rank"] == 2
    assert payload["regular"] is False


OUTPUT_COMMANDS = {
    "algebra": ["algebra", "--n", "1", "--samples", "1"],
    "omega": ["omega", "--n", "1", "--element", '[["1","0"],["0","-1"]]'],
    "cohomology": ["cohomology", "--model", "torus", "--n", "1", "--theories", "dr"],
    "suite": ["suite"],
}


@pytest.mark.parametrize("command", sorted(OUTPUT_COMMANDS))
@pytest.mark.parametrize("case", ["missing-directory", "a-directory", "missing-LAB_OUTPUT_DIR"])
def test_unwritable_output_is_an_error_record(tmp_path, monkeypatch, capsys, command, case):
    good = CheckResult(1, "alpha", "x", "x", True, 0.01)
    monkeypatch.setattr("symplab.suite.run_all", lambda seed: [good])
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("LAB_OUTPUT_DIR", raising=False)
    missing = tmp_path / "missing"
    if case == "missing-directory":
        output = str(missing / "x.json")
    elif case == "a-directory":
        output = str(tmp_path)
    else:
        monkeypatch.setenv("LAB_OUTPUT_DIR", str(missing))
        output = "x.json"
    code, out = run_cli(capsys, *OUTPUT_COMMANDS[command], "--output", output)
    assert code == 1
    lines = out.splitlines()  # lab suite prints its table before the record
    error = json.loads("\n".join(lines[lines.index("{"):]))["error"]
    assert error["op"] == command
    assert error["reason"].startswith("cannot write ")
    assert list(tmp_path.iterdir()) == []  # nothing was written


def test_suite_report_matches_golden_bytes(tmp_path, monkeypatch, capsys):
    """lab suite --seed 7 passes 10 of 11 criteria (criterion 7 red as stated) and
    exits 1; its report equals the benchmark's golden capture, which is only read."""
    golden = Path(__file__).resolve().parents[1] / "perfbench" / "golden" / "reports" / "suite.json"
    monkeypatch.delenv("LAB_OUTPUT_DIR", raising=False)
    report = tmp_path / "suite.json"
    code, out = run_cli(capsys, "suite", "--seed", "7", "--output", str(report))
    assert code == 1
    assert "10/11 criteria passed" in out
    assert report.read_bytes() == golden.read_bytes()


def test_suite_table_and_exit_codes(monkeypatch, capsys):
    good = CheckResult(1, "alpha", "x", "x", True, 0.01)
    bad = CheckResult(2, "beta", "y", "z", False, 0.02)
    monkeypatch.setattr("symplab.suite.run_all", lambda seed: [good, bad])
    code, out = run_cli(capsys, "suite")
    assert code == 1
    assert "PASS" in out and "FAIL" in out
    assert "1/2 criteria passed" in out
    monkeypatch.setattr("symplab.suite.run_all", lambda seed: [good])
    code, out = run_cli(capsys, "suite")
    assert code == 0
    assert "1/1 criteria passed" in out


def test_suite_report_file_excludes_timings(tmp_path, monkeypatch, capsys):
    good = CheckResult(1, "alpha", "x", "x", True, 0.01)
    monkeypatch.setattr("symplab.suite.run_all", lambda seed: [good])
    out_path = tmp_path / "suite.json"
    code, _ = run_cli(capsys, "suite", "--output", str(out_path))
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload == [{"criterion": 1, "name": "alpha", "expected": "x",
                        "computed": "x", "passed": True}]


def test_matrix_json_wrapper_accepted(capsys):
    element = json.dumps({"rows": 2, "cols": 2,
                          "entries": [["0", "1"], ["0", "0"]]})
    code, out = run_cli(capsys, "omega", "--n", "1", "--element", element)
    assert code == 0
    assert json.loads(out)["rank"] == 2
