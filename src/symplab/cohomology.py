"""Exact cohomology of a finite cochain model.

Three theories per degree k, each a quotient ker(num) / im(den):

* de Rham:            ker d / im d
* (d+dl)-cohomology:  (ker d  intersect  ker dl) / im(d.dl)
* dl.d-cohomology:    ker(d.dl) / (im d + im dl)

(ker(d + dl) = ker d intersect ker dl: the images lie in two degrees.)  With a
window W (the polynomial model) numerators are restricted to W and denominators
keep the whole truncated space, which removes exactly the truncation-boundary
classes.  By forward fraction-free ranks over int (no window: W is everything),
dim H^k = |W| - rank(num|W) - rank(den) + rank(den rows outside W); this rests on
im den inside ker num, from d.d = 0, dl.dl = 0 and d.dl + dl.d = 0, which every
``ComplexModel`` satisfies: its constructor checks d.d = 0, star.star = id and
d.dl + dl.d = 0, from which dl.dl = 0 follows, and raises on a failed identity.

Rank table: ``model.ranks[k]`` keeps each rank of degree k once eliminated,
rank(d_k|W) and rank([d_k; dl_k]|W) from one nested elimination, rank(s_k|W) for
s_k = d.dl, and each den's term, which with no window is a rank already there.
Row space: the rows of s_k, dl_(k+2)^t d_k and d_(k-2)^t dl_k lie in those of dl_k,
d_k and dl_k, so the Hodge stack M_k (D = M^t M) has the rank of [d_k; dl_k; s_k^t],
the echelon of [d_k; dl_k] eliminated on with the rows of s_k^t.
Orthogonality: im s_k lies in ker d_k and ker dl_k, so it is orthogonal to im d_k^t
+ im dl_k^t, and ker M_k to both; over Q orthogonal spaces meet in 0, so the three
Hodge summands are exhaustive exactly when their dimensions add up to n_k.

Each report is the dict it emits: a theory {"model", "theory", "dims" (a tuple),
"windowed"}, the Hodge check {"model", "degrees"}, a dict of ranks and verdicts each.
"""

from __future__ import annotations

import csv
import io
from fractions import Fraction

from .linalg import Matrix
from .models import (ComplexModel, FormVector, d_apply, d_lambda_apply,
                     poincare_antiderivative)


# -- the rank table -----------------------------------------------------------

def _rank(model: ComplexModel, k: int, entry: str) -> int:
    """An entry of degree k's rank table, eliminated on first use together with
    the other entries that its elimination gives."""
    table = model.ranks.setdefault(k, {})
    if entry in table:
        return table[entry]
    whole = model.window is None
    window = range(model.dim(k)) if whole else model.window[k]
    if entry == "M":
        _rank(model, k, "d+dl")
        table["M"] = Matrix.vstack([table["echelon"], model.d_dl[k].transpose()]).rank()
    elif entry in ("d", "d+dl"):
        stacked = Matrix.vstack([model.d_block(k), model.dl_block(k)])
        stacked = stacked if whole else stacked.select_columns(window)
        (table["d"], table["d+dl"]), form = stacked.nested_ranks(range(model.dim(k + 1)))
        table["echelon"] = form if whole else None
    elif entry == "s":
        table["s"] = (model.d_dl[k] if whole else model.d_dl[k].select_columns(window)).rank()
    elif whole and entry != "im d|dl":  # whole images: numerator ranks
        table[entry] = _rank(model, k - 1, "d") if entry == "im d" else _rank(model, k, "s")
    else:  # rank(den) less the rank of den's rows outside the window
        den = (model.d_block(k - 1) if entry == "im d" else model.d_dl[k] if entry == "im s"
               else Matrix.hstack([model.d_block(k - 1), model.dl_block(k + 1)]))
        inside = set(window)
        (rank_outside, rank), _ = den.nested_ranks([i for i in range(den.rows) if i not in inside])
        table[entry] = rank - rank_outside
    return table[entry]


# theory -> the table entries of its numerator and of its denominator
TERMS = {"deRham": ("d", "im d"), "dPlusDLambda": ("d+dl", "im s"), "ddLambda": ("s", "im d|dl")}


def _report(model: ComplexModel, theory: str) -> dict:
    num, den = TERMS[theory]
    dims = tuple((model.dim(k) if model.window is None else len(model.window[k]))
                 - _rank(model, k, num) - _rank(model, k, den)
                 for k in range(model.top_degree + 1))
    return {"model": model.name, "theory": theory, "dims": dims,
            "windowed": model.window is not None}


def de_rham(model: ComplexModel) -> dict:
    return _report(model, "deRham")


def d_plus_dlambda_cohomology(model: ComplexModel) -> dict:
    return _report(model, "dPlusDLambda")


def dd_lambda_cohomology(model: ComplexModel) -> dict:
    return _report(model, "ddLambda")


def quotient_sanity(model: ComplexModel) -> bool:
    """Both quotients are well formed: im(d.dl) inside ker d and ker dl,
    and im d + im dl inside ker(d.dl); exact matrix identities on the products
    d.dl the constructor kept, in every degree (a missing one raises KeyError)."""
    d, dl = model.d_block, model.dl_block
    products = ((k, model.d_dl[k]) for k in range(model.top_degree + 1))
    return all((d(k) @ s).is_zero() and (dl(k) @ s).is_zero()
               and (s @ d(k - 1)).is_zero() and (s @ dl(k + 1)).is_zero() for k, s in products)


def inequality_check(dr: dict, dpl: dict, ddl: dict) -> dict[int, bool]:
    """Per-degree check dim H_dR <= dim H_(d+dl) + dim H_(ddl)."""
    if not (dr["model"] == dpl["model"] == ddl["model"]
            and dr["windowed"] == dpl["windowed"] == ddl["windowed"]):
        raise ValueError("reports must come from the same model and windowing")
    return {k: a <= b + c
            for k, (a, b, c) in enumerate(zip(dr["dims"], dpl["dims"], ddl["dims"]))}


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

def require_inner_product(kind: str, windowed: bool = False) -> None:
    """Hodge checks are for the orthonormal torus and suspension bases; the
    polynomial model, the one with a window, has no inner product."""
    if kind == "polynomial" or windowed:
        raise ValueError("hodge_check requires a model with an inner product")


def hodge_check(model: ComplexModel) -> dict:
    """Per degree, whether ker D matches the (d+dl)-cohomology and the three
    summands ker D + im(d.dl) + (im d* + im dl*) are exhaustive, for
    D = (d.dl)(d.dl)* + (d.dl)*(d.dl) + d*.dl.dl*.d + dl*.d.d*.dl + d*d + dl*dl
    = M^t M in the orthonormal bases: dim ker D = n_k - rank(M_k), and
    rank([d_k; dl_k]) = rank([d_k* | dl_k*]), all read off the rank table."""
    require_inner_product(model.kind, model.window is not None)
    degrees = []
    for k in range(model.top_degree + 1):  # dim_h as d_plus_dlambda_cohomology reads it
        nk, rank_ddl, rank_adj = model.dim(k), _rank(model, k, "s"), _rank(model, k, "d+dl")
        dim_ker, dim_h = nk - _rank(model, k, "M"), nk - rank_adj - _rank(model, k, "im s")
        degrees.append({
            "dim_total": nk, "dim_ker_D": dim_ker, "dim_h_dpl": dim_h, "rank_ddl": rank_ddl,
            "rank_adjoint": rank_adj, "decomposition_ok": dim_ker + rank_ddl + rank_adj == nk,
            "kernel_matches_cohomology": dim_ker == dim_h})
    return {"model": model.name, "degrees": degrees}


# -- emission -----------------------------------------------------------------

THEORY_CSV_NAMES = {"deRham": "dr", "dPlusDLambda": "dpl", "ddLambda": "ddl"}


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
    rows = [[rep["model"], THEORY_CSV_NAMES[rep["theory"]], k, dim, rep["windowed"]]
            for rep in reports for k, dim in enumerate(rep["dims"])]
    rows += [[rep["model"], "hodge", k, deg["dim_ker_D"], False]
             for rep in hodge_reports for k, deg in enumerate(rep["degrees"])]
    return csv_text(["model", "theory", "degree", "dimension", "windowed"], rows)
