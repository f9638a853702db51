"""Exact cohomology of a finite cochain model.

Three theories per degree k:

* de Rham:            ker d / im d
* (d+dl)-cohomology:  (ker d  intersect  ker dl) / im(d.dl)
* dl.d-cohomology:    ker(d.dl) / (im d + im dl)

The kernel of the degree-mixing operator d + dl equals ker d intersect
ker dl because the two images live in different degrees.  Each quotient
is one elimination over Q of the denominator vectors followed by the
numerator vectors, taken as columns: the pivots that fall on numerator
columns are the representatives, and their count is the dimension.  The
model is the only input: on a model with a window (the polynomial model)
numerators are restricted to the window while denominators keep the full
truncated space, which removes exactly the truncation-boundary classes.

Every block of d and dl, in or out of the degree range, is read through
``model.d_block`` and ``model.dl_block``.  Also here: the reduction of an
even-degree cocycle to its constant, the finite Hodge operator, whose
adjoints are transposes in the orthonormal torus and suspension bases,
and the per-degree inequality check between the theories.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from fractions import Fraction

from .linalg import Matrix, Q
from .models import (ComplexModel, FormVector, d_apply, d_lambda_apply,
                     poincare_antiderivative)


@dataclass(frozen=True)
class CohomologyReport:
    model_name: str
    theory: str
    dims: tuple[int, ...]
    windowed: bool
    representatives: dict[int, list[list[Fraction]]]


@dataclass(frozen=True)
class HodgeDegree:
    dim_total: int
    dim_ker_d: int
    dim_h: int
    rank_ddl: int
    rank_adjoint: int
    decomposition_ok: bool
    kernel_matches_cohomology: bool


@dataclass(frozen=True)
class HodgeReport:
    model_name: str
    degrees: tuple[HodgeDegree, ...]

    def kernel_dims(self) -> tuple[int, ...]:
        return tuple(d.dim_ker_d for d in self.degrees)

    def all_ok(self) -> bool:
        return all(d.decomposition_ok and d.kernel_matches_cohomology
                   for d in self.degrees)


# -- operator block helpers --------------------------------------------------

def _ddl(model: ComplexModel, k: int) -> Matrix:
    """The composite d . d_lambda acting on degree k."""
    return model.d_block(k - 1) @ model.dl_block(k)


def _kernel(constraint: Matrix, model: ComplexModel, k: int) -> Matrix:
    """Basis of ker(constraint) as columns, within the model's window if it has one."""
    if model.window is None:
        return constraint.kernel_matrix()
    cols = model.window[k]
    embed = Matrix.identity(model.dim(k)).select_columns(cols)
    return embed @ constraint.select_columns(cols).kernel_matrix()


def _quotient(num: Matrix, den: Matrix) -> list[list[Fraction]]:
    """Columns of num that are independent modulo the column span of den.

    Each is the first numerator column, in order, outside the span of the
    denominator and the numerator columns before it; they form a basis of
    the quotient, so their count is its dimension.
    """
    if not num.cols:
        return []
    _, pivots = Matrix.hstack([den, num]).rref()
    return [num.column(p - den.cols) for p in pivots if p >= den.cols]


def _report(model: ComplexModel, theory: str, numerator, denominator) -> CohomologyReport:
    reps = {k: _quotient(numerator(k), denominator(k))
            for k in range(model.top_degree + 1)}
    return CohomologyReport(model.name, theory, tuple(len(rep) for rep in reps.values()),
                            model.window is not None, reps)


def de_rham(model: ComplexModel) -> CohomologyReport:
    return _report(model, "deRham", lambda k: _kernel(model.d_block(k), model, k),
                   lambda k: model.d_block(k - 1))


def d_plus_dlambda_cohomology(model: ComplexModel) -> CohomologyReport:
    return _report(
        model, "dPlusDLambda",
        lambda k: _kernel(Matrix.vstack([model.d_block(k), model.dl_block(k)]), model, k),
        lambda k: _ddl(model, k))


def dd_lambda_cohomology(model: ComplexModel) -> CohomologyReport:
    return _report(model, "ddLambda", lambda k: _kernel(_ddl(model, k), model, k),
                   lambda k: Matrix.hstack([model.d_block(k - 1), model.dl_block(k + 1)]))


def quotient_sanity(model: ComplexModel) -> bool:
    """Both quotients are well formed: im(d.dl) inside ker d and ker dl,
    and im d + im dl inside ker(d.dl); exact matrix identities."""
    for k in range(model.top_degree + 1):
        s = _ddl(model, k)
        if not (model.d_block(k) @ s).is_zero():
            return False
        if not (model.dl_block(k) @ s).is_zero():
            return False
        if not (s @ model.d_block(k - 1)).is_zero():
            return False
        if not (s @ model.dl_block(k + 1)).is_zero():
            return False
    return True


def inequality_check(dr: CohomologyReport, dpl: CohomologyReport,
                     ddl: CohomologyReport) -> dict[int, bool]:
    """Per-degree check dim H_dR <= dim H_(d+dl) + dim H_(ddl)."""
    if not (dr.model_name == dpl.model_name == ddl.model_name
            and dr.windowed == dpl.windowed == ddl.windowed):
        raise ValueError("reports must come from the same model and windowing")
    return {k: dr.dims[k] <= dpl.dims[k] + ddl.dims[k]
            for k in range(len(dr.dims))}


# -- reduction of an even cocycle to its constant ----------------------------

def _constant_value(v: FormVector) -> Fraction:
    model = v.model
    const_i = model.meta["mono_index"][(0,) * (2 * model.meta["n"])]
    value = Q(0)
    for i, c in enumerate(v.coords):
        if i == const_i:
            value = c
        elif c != 0:
            raise AssertionError("expected a constant function")
    return value


def reduction_constant(v: FormVector) -> Fraction:
    """Reduce an even-degree cocycle to its constant.

    Repeatedly take the radial d-antiderivative and apply the
    codifferential; the walk ends on a 0-form which is necessarily
    constant, and that constant is returned.  All antiderivative choices
    are deterministic (radial homotopy, zero integration constants); the
    result does not depend on them: adding a d-closed form to the first
    antiderivative gives the same constant.
    """
    if v.model.kind != "polynomial":
        raise ValueError("reduction_constant lives in the polynomial model")
    if v.degree % 2 != 0:
        raise ValueError("reduction_constant needs an even-degree form")
    if not d_apply(v).is_zero() or (v.degree > 0 and not d_lambda_apply(v).is_zero()):
        raise ValueError("input is not a (d + d_lambda)-cocycle")
    current = v
    while current.degree > 0:
        current = d_lambda_apply(poincare_antiderivative(current, "d"))
    return _constant_value(current)


# -- finite Hodge operator ----------------------------------------------------

def require_inner_product(kind: str) -> None:
    """The rule for which models get a Hodge check: the torus and suspension
    bases are orthonormal, the polynomial model has no inner product."""
    if kind == "polynomial":
        raise ValueError("hodge_check requires a model with an inner product")


def hodge_check(model: ComplexModel,
                dpl: CohomologyReport | None = None) -> HodgeReport:
    """Kernel of the finite (d+dl)-Laplacian against the cohomology.

    D = (d.dl)(d.dl)* + (d.dl)*(d.dl) + d*.dl.dl*.d + dl*.d.d*.dl
        + d*d + dl*dl  per degree.  The torus and suspension bases are
    orthonormal, so each adjoint is a transpose and D = M^t M for the six
    maps of M, stacked.  Reports, per degree, whether ker D matches the
    (d+dl)-cohomology dimension, taken from ``dpl`` when it is given, and
    whether the three-summand decomposition ker D + im(d.dl) + (im d* +
    im dl*) is exhaustive.
    """
    require_inner_product(model.kind)
    if dpl is None:
        dpl = d_plus_dlambda_cohomology(model)
    degrees = []
    for k in range(model.top_degree + 1):
        nk = model.dim(k)
        s = _ddl(model, k)
        d_k, dl_k = model.d_block(k), model.dl_block(k)
        m = Matrix.vstack([s.transpose(), s, d_k, dl_k,
                           model.dl_block(k + 2).transpose() @ d_k,
                           model.d_block(k - 2).transpose() @ dl_k])
        kernel_cols = (m.transpose() @ m).kernel_matrix()
        dim_ker = kernel_cols.cols
        rank_ddl = s.rank()
        adjoint_cols = Matrix.hstack([d_k.transpose(), dl_k.transpose()])
        rank_adj = adjoint_cols.rank()
        spanning = Matrix.hstack([kernel_cols, s, adjoint_cols])
        exhaustive = (dim_ker + rank_ddl + rank_adj == nk
                      and spanning.rank() == nk)
        degrees.append(HodgeDegree(
            dim_total=nk, dim_ker_d=dim_ker, dim_h=dpl.dims[k],
            rank_ddl=rank_ddl, rank_adjoint=rank_adj,
            decomposition_ok=exhaustive,
            kernel_matches_cohomology=(dim_ker == dpl.dims[k])))
    return HodgeReport(model.name, tuple(degrees))


# -- emission -----------------------------------------------------------------

THEORY_CSV_NAMES = {"deRham": "dr", "dPlusDLambda": "dpl", "ddLambda": "ddl"}


def report_to_json_dict(report: CohomologyReport) -> dict:
    return {"model": report.model_name, "theory": report.theory,
            "dims": list(report.dims), "windowed": report.windowed}


def hodge_to_json_dict(report: HodgeReport) -> dict:
    return {"model": report.model_name,
            "degrees": [{"dim_total": d.dim_total, "dim_ker_D": d.dim_ker_d,
                         "dim_h_dpl": d.dim_h, "rank_ddl": d.rank_ddl,
                         "rank_adjoint": d.rank_adjoint,
                         "decomposition_ok": d.decomposition_ok,
                         "kernel_matches_cohomology": d.kernel_matches_cohomology}
                        for d in report.degrees]}


def csv_text(header, rows) -> str:
    """The one CSV writer of every report: '\n' line ends, booleans as true/false."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([str(x).lower() if isinstance(x, bool) else x for x in row])
    return buf.getvalue()


def reports_to_csv(reports, hodge_reports=()) -> str:
    """CSV with schema model,theory,degree,dimension,windowed."""
    rows = [[rep.model_name, THEORY_CSV_NAMES[rep.theory], k, dim, rep.windowed]
            for rep in reports for k, dim in enumerate(rep.dims)]
    rows += [[rep.model_name, "hodge", k, deg.dim_ker_d, False]
             for rep in hodge_reports for k, deg in enumerate(rep.degrees)]
    return csv_text(["model", "theory", "degree", "dimension", "windowed"], rows)
