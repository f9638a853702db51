"""Exact cohomology of a finite cochain model.

Three theories per degree k, each a quotient ker(num) / im(den):

* de Rham:            ker d / im d
* (d+dl)-cohomology:  (ker d  intersect  ker dl) / im(d.dl)
* dl.d-cohomology:    ker(d.dl) / (im d + im dl)

(ker(d + dl) is ker d intersect ker dl: the two images live in different
degrees.)  On a model with a window W (the polynomial model) numerators
are restricted to W while denominators keep the full truncated space,
which removes exactly the truncation-boundary classes.  Dimensions come
from ranks alone, each a forward fraction-free elimination over int:

    dim H^k = |W| - rank(num|W) - rank(den) + rank(den rows outside W)

(no window: W is every coordinate and the last term is 0).  It rests on
im(den) inside ker(num), so that the numerator meets im(den) in its
vectors supported on W; that follows from d.d = 0, dl.dl = 0 and
d.dl + dl.d = 0, and the theories refuse a model whose recorded
``model.identities`` do not all hold.  Blocks are read through
``model.d_block``, ``model.dl_block`` and ``model.d_dl``.  Also here: the
reduction of an even cocycle to its constant, the finite Hodge operator
(adjoints are transposes in the orthonormal torus and suspension bases),
and the per-degree inequality check between the theories.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .linalg import Matrix
from .models import (IDENTITIES, ComplexModel, FormVector, d_apply, d_lambda_apply,
                     poincare_antiderivative)


@dataclass(frozen=True)
class CohomologyReport:
    model_name: str
    theory: str
    dims: tuple[int, ...]
    windowed: bool


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


# -- dimensions from ranks ----------------------------------------------------

def _require_identities(model: ComplexModel) -> None:
    """The rank formula's premise: the model records all five identities as holding."""
    failed = [name for name in IDENTITIES
              if name not in model.identities or not all(model.identities[name].values())]
    if failed:
        raise ValueError(f"{model.name} does not satisfy {', '.join(failed)}: "
                         "its cohomology dimensions are not defined")


def quotient_dim(num: Matrix, den: Matrix, window: Sequence[int]) -> int:
    """dim of (ker num within the window's columns) / im den, for im den inside ker num."""
    inside = set(window)
    rank_outside, rank_den = den.nested_ranks([i for i in range(den.rows) if i not in inside])
    return len(window) - num.select_columns(window).rank() - rank_den + rank_outside


def _report(model: ComplexModel, theory: str, numerator, denominator) -> CohomologyReport:
    _require_identities(model)
    window = model.window
    dims = tuple(quotient_dim(numerator(k), denominator(k),
                              range(model.dim(k)) if window is None else window[k])
                 for k in range(model.top_degree + 1))
    return CohomologyReport(model.name, theory, dims, window is not None)


def de_rham(model: ComplexModel) -> CohomologyReport:
    return _report(model, "deRham", model.d_block, lambda k: model.d_block(k - 1))


def d_plus_dlambda_cohomology(model: ComplexModel) -> CohomologyReport:
    return _report(model, "dPlusDLambda",
                   lambda k: Matrix.vstack([model.d_block(k), model.dl_block(k)]),
                   model.d_dl.__getitem__)


def dd_lambda_cohomology(model: ComplexModel) -> CohomologyReport:
    return _report(model, "ddLambda", model.d_dl.__getitem__,
                   lambda k: Matrix.hstack([model.d_block(k - 1), model.dl_block(k + 1)]))


def quotient_sanity(model: ComplexModel) -> bool:
    """Both quotients are well formed: im(d.dl) inside ker d and ker dl,
    and im d + im dl inside ker(d.dl); exact matrix identities on the products
    d.dl the build kept, in every degree (a model without them raises KeyError)."""
    d, dl = model.d_block, model.dl_block
    products = ((k, model.d_dl[k]) for k in range(model.top_degree + 1))
    return all((d(k) @ s).is_zero() and (dl(k) @ s).is_zero()
               and (s @ d(k - 1)).is_zero() and (s @ dl(k + 1)).is_zero() for k, s in products)


def inequality_check(dr: CohomologyReport, dpl: CohomologyReport,
                     ddl: CohomologyReport) -> dict[int, bool]:
    """Per-degree check dim H_dR <= dim H_(d+dl) + dim H_(ddl)."""
    if not (dr.model_name == dpl.model_name == ddl.model_name
            and dr.windowed == dpl.windowed == ddl.windowed):
        raise ValueError("reports must come from the same model and windowing")
    return {k: dr.dims[k] <= dpl.dims[k] + ddl.dims[k]
            for k in range(len(dr.dims))}


# -- reduction of an even cocycle to its constant ----------------------------

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
        current = d_lambda_apply(poincare_antiderivative(current))
    if any(current.coords[1:]):  # coordinate 0 is the constant monomial
        raise AssertionError("expected a constant function")
    return current.coords[0]


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
        s = model.d_dl[k]
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
