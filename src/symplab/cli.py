"""Command-line front door.

Subcommands:

* ``lab algebra``    -- seeded batch checks on sp(2n, R) (rank/kernel or
                        closed-form classification), JSON reports, or CSV
                        for rank/kernel.
* ``lab omega``      -- analyze the invariant 2-form of one element given
                        as a JSON matrix of rationals.
* ``lab cohomology`` -- dimension reports for a chosen model and theories.
* ``lab suite``      -- run every acceptance criterion and print an
                        expected-vs-computed table.

Exit codes, each returned by ``main``: 0 success, 1 precondition or
computation failure, including an output path that cannot be written (with
a JSON error record on stdout), 2 usage errors, argparse's own included.
Parameters whose largest matrix, or for ``lab algebra`` the largest matrix
plus the per-sample work, would exceed ``MAX_MATRIX_CELLS`` entries are
refused before any work.
Identical arguments and seed produce byte-identical report files; set
LAB_OUTPUT_DIR to redirect any --output path into a fixed directory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import re
import sys

from . import algebra_forms as forms
from . import cohomology as coh
from . import lie_core as lie
from . import suite as acceptance
from .linalg import Matrix
from .models import (build_polynomial_model, build_suspension_model,
                     build_torus_model)
from .polynomials import charpoly, is_squarefree

USAGE_EXIT = 2
FAILURE_EXIT = 1

# Size budget: rows x cols of the largest matrix a command's parameters imply,
# plus, for lab algebra, the matrices built once per sample.
# polynomial-n3-D4, the largest model the tests build, needs 4.4e7.
MAX_MATRIX_CELLS = 10 ** 8
# A lab algebra sample builds dim x dim matrices and is priced at this many
# entries per entry of one.  The price dates from samples that also eliminated
# them; a rank-kernel sample eliminates none since its kernel is certified by a
# Pfaffian, and took 0.19, 0.61 and 1.83 ms at n = 1, 2, 3 (2-vCPU x86-64 host,
# Python 3.11), so the most samples accepted at those n run for 0.4 to 2 s.
SAMPLE_CELLS_PER_ENTRY = 10 ** 3


def _resolve_output(path: str | None) -> str | None:
    outdir = os.environ.get("LAB_OUTPUT_DIR")
    return os.path.join(outdir, os.path.basename(path)) if outdir and path is not None else path


def _emit(text: str, path: str | None) -> None:
    """Write a report to stdout or to the output path; a path that cannot be
    written raises ValueError, which main reports as an error record."""
    target = _resolve_output(path)
    if target is None:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
        return
    try:
        with open(target, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write {target}: {exc.strerror or exc}") from exc


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _error(op: str, reason: str) -> int:
    sys.stdout.write(_json_text({"error": {"op": op, "reason": reason}}))
    return FAILURE_EXIT


# -- size budget ----------------------------------------------------------------

def _binom(a: int, b: int) -> float:
    """C(a, b) as a float, so huge parameters cost nothing to estimate."""
    log = math.lgamma(a + 1) - math.lgamma(b + 1) - math.lgamma(a - b + 1)
    return math.exp(min(log, 700.0))


def _algebra_cells(n: int, closed_forms: bool = False, samples: int = 0) -> float:
    """The structure-constant table (pairs x dim) of sp(2n), or for the
    closed-forms check the Chevalley-Eilenberg d2 matrix (triples x pairs),
    plus SAMPLE_CELLS_PER_ENTRY * dim^2 per sample."""
    dim = 2 * n * n + n
    largest = _binom(dim, 3) * _binom(dim, 2) if closed_forms else _binom(dim, 2) * dim
    per_sample = SAMPLE_CELLS_PER_ENTRY * dim * dim
    return largest + min(samples, 1e300) * per_sample  # a float, even for a huge --samples


def _model_cells(model: str, n: int, cutoff: int) -> float:
    """The widest elimination of a model: its middle degree k (dimension d_k)
    against the images and kernels of d_(k-1), d_k and d_(k+1)."""
    if model == "suspension":
        functions, covectors = 2 * cutoff + 1, 2
    else:
        functions = _binom(2 * n + cutoff, cutoff) if model == "polynomial" else 1
        covectors = 2 * n
    mid = functions * _binom(covectors, covectors // 2)
    side = functions * _binom(covectors, covectors // 2 - 1)
    return mid * (mid + 2 * side)


def _check_budget(estimate, *params) -> None:
    """Refuse params whose estimate(*params) exceeds the limit, or overflows a float."""
    try:
        cells = estimate(*params)
    except OverflowError:
        cells = math.inf
    if cells > MAX_MATRIX_CELLS:
        raise ValueError(f"refused: an estimated {cells:.3g} matrix entries, "
                         f"above the limit of {MAX_MATRIX_CELLS:.3g}")


# -- algebra ------------------------------------------------------------------

RANK_KERNEL_COLUMNS = ("sample", "regular", "rank", "kernel_dim",
                       "kernel_abelian", "kernel_equals_centralizer")


def _cmd_algebra(args) -> int:
    if args.check == "closed-forms" and args.format == "csv":
        print("--format csv is only for --check rank-kernel", file=sys.stderr)
        return USAGE_EXIT
    _check_budget(_algebra_cells, args.n, args.check == "closed-forms", args.samples)
    ctx = lie.standard_basis(args.n)
    rng = random.Random(args.seed)
    if args.check == "rank-kernel":
        rows = [{"sample": i, "regular": True,
                 **forms.rank_kernel_record(lie.random_regular_element(ctx, rng))}
                for i in range(args.samples)]
        if args.format == "csv":
            _emit(coh.csv_text(RANK_KERNEL_COLUMNS,
                               ([r[c] for c in RANK_KERNEL_COLUMNS] for r in rows)),
                  args.output)
        else:
            _emit(_json_text({"n": args.n, "seed": args.seed, "check": args.check,
                              "samples": rows}), args.output)
        return 0
    # closed-forms
    dim = forms.closed_two_form_dimension(ctx)
    report = {"n": args.n, "seed": args.seed, "check": args.check,
              "closed_two_form_dim": dim, "algebra_dim": ctx.dim,
              "potential_roundtrip_exact": forms.potential_roundtrips(ctx, rng, args.samples)}
    _emit(_json_text(report), args.output)
    return 0


# -- omega --------------------------------------------------------------------

RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def _parse_element(text: str) -> Matrix:
    """The --element JSON as a matrix of integers and rational strings; any
    malformed input raises ValueError."""
    try:
        obj = json.loads(text)
        entries = obj["entries"] if isinstance(obj, dict) else obj
        for x in (x for row in entries for x in row):
            if type(x) is not int and not (isinstance(x, str) and RATIONAL.fullmatch(x)):
                raise TypeError(f"entry {json.dumps(x)} is not an integer or a rational string")
        if isinstance(obj, dict):
            return Matrix.from_json_dict(obj)
        return Matrix(obj)
    except (TypeError, KeyError, ValueError, ZeroDivisionError, RecursionError) as exc:
        raise ValueError(f"malformed element: {type(exc).__name__}: {exc}") from exc


def _cmd_omega(args) -> int:
    _check_budget(_algebra_cells, args.n)
    ctx = lie.standard_basis(args.n)
    mat = _parse_element(args.element)
    a = ctx.element_from_matrix(mat)
    report = forms.omega_report(a)
    p = charpoly(mat)  # one characteristic polynomial for both fields
    report["n"] = args.n
    report["regular"] = is_squarefree(p)
    report["spectral_type"] = lie.spectral_type_of(p, args.n)
    _emit(_json_text(report), args.output)
    return 0


# -- cohomology ----------------------------------------------------------------

# --theories flag -> name of the cohomology function, looked up on coh per call
THEORIES = {"dr": "de_rham", "dpl": "d_plus_dlambda_cohomology", "ddl": "dd_lambda_cohomology"}


def _cmd_cohomology(args) -> int:
    theories = [t.strip() for t in args.theories.split(",") if t.strip()]
    bad = [t for t in theories if t not in {*THEORIES, "hodge"} or theories.count(t) > 1]
    if bad or not theories:
        print(f"unknown, repeated or no theories: {args.theories!r}", file=sys.stderr)
        return USAGE_EXIT
    _check_budget(_model_cells, args.model, args.n, args.cutoff)
    if "hodge" in theories:
        coh.require_inner_product(args.model)
    model = (build_torus_model(args.n) if args.model == "torus"
             else build_polynomial_model(args.n, args.cutoff) if args.model == "polynomial"
             else build_suspension_model(args.cutoff))
    reports = [getattr(coh, THEORIES[t])(model) for t in theories if t != "hodge"]
    hodge = {"hodge": coh.hodge_check(model)} if "hodge" in theories else {}
    if args.format == "csv":
        _emit(coh.reports_to_csv(reports, hodge.values()), args.output)
    else:
        _emit(_json_text({"model": model.name, "reports": reports, **hodge}), args.output)
    return 0


# -- suite ----------------------------------------------------------------------

def _cmd_suite(args) -> int:
    if args.format == "csv" and args.output is None:
        print("--format csv needs --output", file=sys.stderr)
        return USAGE_EXIT
    results = acceptance.run_all(args.seed)
    print(acceptance.format_table(results))
    if args.output is not None:
        records = [{key: r[key] for key in acceptance.REPORT_FIELDS} for r in results]
        _emit(coh.csv_text(acceptance.REPORT_FIELDS, (rec.values() for rec in records))
              if args.format == "csv" else _json_text(records), args.output)
    return 0 if all(r["passed"] for r in results) else FAILURE_EXIT


# -- parser ----------------------------------------------------------------------

def build_parser(argv) -> argparse.ArgumentParser:
    """The parser of ``lab argv``.  Every command is listed with its help line,
    so usage, ``lab --help`` and an invalid choice read as in the full parser,
    but only a command named in argv, the one that parses, gets its arguments."""
    parser = argparse.ArgumentParser(
        prog="lab",
        description="Exact computations with invariant 2-forms on sp(2n,R) "
                    "and finite models of symplectic cohomology.")
    sub = parser.add_subparsers(dest="command", required=True)
    p_alg = sub.add_parser("algebra", help="seeded batch checks on sp(2n,R)")
    p_om = sub.add_parser("omega", help="analyze the invariant 2-form of one element")
    p_coh = sub.add_parser("cohomology", help="dimension reports for a model")
    p_suite = sub.add_parser("suite", help="run all acceptance criteria")

    if "algebra" in argv:
        p_alg.add_argument("--n", type=int, required=True)
        p_alg.add_argument("--check", choices=["rank-kernel", "closed-forms"],
                           default="rank-kernel")
        p_alg.add_argument("--samples", type=int, default=50)
        p_alg.add_argument("--seed", type=int, default=acceptance.DEFAULT_SEED)
        p_alg.add_argument("--format", choices=["json", "csv"], default="json")
        p_alg.add_argument("--output", default=None)
        p_alg.set_defaults(fn=_cmd_algebra)

    if "omega" in argv:
        p_om.add_argument("--n", type=int, required=True)
        p_om.add_argument("--element", required=True,
                          help='JSON matrix, e.g. \'[["1","0"],["0","-1"]]\'')
        p_om.add_argument("--output", default=None)
        p_om.set_defaults(fn=_cmd_omega)

    if "cohomology" in argv:
        p_coh.add_argument("--model", choices=["torus", "polynomial", "suspension"],
                           required=True)
        p_coh.add_argument("--n", type=int, default=1)
        p_coh.add_argument("--cutoff", type=int, default=4, help="coefficient degree D "
                           "(polynomial) or Fourier cutoff N (suspension)")
        p_coh.add_argument("--theories", default="dr,dpl,ddl",
                           help="comma-separated subset of dr,dpl,ddl,hodge")
        p_coh.add_argument("--format", choices=["json", "csv"], default="json")
        p_coh.add_argument("--output", default=None)
        p_coh.set_defaults(fn=_cmd_cohomology)

    if "suite" in argv:
        p_suite.add_argument("--seed", type=int, default=acceptance.DEFAULT_SEED)
        p_suite.add_argument("--format", choices=["json", "csv"], default="json")
        p_suite.add_argument("--output", default=None)
        p_suite.set_defaults(fn=_cmd_suite)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = build_parser(argv).parse_args(argv)
    except SystemExit as exc:  # argparse's usage errors, and --help's 0
        return exc.code
    for name, least in (("cutoff", 1), ("n", 1), ("samples", 0)):
        if getattr(args, name, least) < least:
            print(f"{name} must be >= {least}", file=sys.stderr)
            return USAGE_EXIT
    try:
        return args.fn(args)
    except (ValueError, AssertionError) as exc:
        return _error(args.command, str(exc))


if __name__ == "__main__":
    sys.exit(main())
