"""Spans recorded from outside the program, by wrapping its public functions.

``Tracer.install`` replaces each function in ``WRAPS`` with a timing
wrapper at every place the package binds it (a module attribute, a name
imported into another module, or a ``Matrix`` method), and
``Tracer.uninstall`` puts the originals back.  Spans are kept in memory;
``layer_table`` turns them into per-layer totals.

Self time is a span's duration minus the part its child spans cover.
Shape, nonzero count and entry bit-length of matrix operands are measured
before a span's clock starts; that bookkeeping is reported as
``trace.stats_s`` and is excluded from every self time, so the self
times, the bookkeeping and the harness time add up to the traced wall time.

Small helpers (scalar coercion, vector arithmetic, polynomial arithmetic,
wedge bookkeeping) are left unwrapped: a wrapper would cost more than
their body, and their time shows as the self time of their caller.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from time import perf_counter

# span name, module, attribute ("Class.method" patches the class), stats, detail
WRAPS = [
    ("linalg.rref", "linalg", "Matrix.rref", "matrix", None),
    ("linalg.matmul", "linalg", "Matrix.__matmul__", "matmul", None),
    ("linalg.det", "linalg", "Matrix.det", "matrix", None),
    ("linalg.solve", "linalg", "Matrix.solve", None, None),
    ("linalg.solve", "linalg", "Matrix.solve_matrix", None, None),
    ("linalg.rank", "linalg", "Matrix.rank", None, None),
    ("linalg.nullspace", "linalg", "Matrix.nullspace", None, None),
    ("linalg.inverse", "linalg", "Matrix.inverse", None, None),
    ("linalg.echelon_rows", "linalg", "echelon_rows", None, None),
    ("linalg.rank_of_rows", "linalg", "rank_of_rows", None, None),
    ("polynomials.charpoly", "polynomials", "charpoly", None, None),
    ("polynomials.squarefree", "polynomials", "is_squarefree", None, None),
    ("polynomials.squarefree", "polynomials", "squarefree_part", None, None),
    ("polynomials.sturm", "polynomials", "count_real_roots", None, None),
    ("lie_core.context", "lie_core", "standard_basis", None, None),
    ("lie_core.centralizer", "lie_core", "centralizer", None, None),
    ("lie_core.is_regular", "lie_core", "is_regular", None, None),
    ("lie_core.regular_draw", "lie_core", "random_regular_element", None, None),
    ("lie_core.spectral_type", "lie_core", "spectral_type", None, None),
    ("lie_core.is_abelian", "lie_core", "is_abelian", None, None),
    ("algebra_forms.omega", "algebra_forms", "omega_from_element", None, None),
    ("algebra_forms.kernel", "algebra_forms", "form_kernel", None, None),
    ("algebra_forms.rank", "algebra_forms", "form_rank", None, None),
    ("algebra_forms.closed", "algebra_forms", "is_closed_2form", None, None),
    ("algebra_forms.potential", "algebra_forms", "potential_element", None, None),
    ("algebra_forms.quotient", "algebra_forms", "quotient_form", None, None),
    ("algebra_forms.closed_dim", "algebra_forms", "closed_two_form_dimension", None, None),
    ("algebra_forms.report", "algebra_forms", "omega_report", None, None),
    ("exterior.star_blocks", "exterior", "star_blocks", None, None),
    ("models.build", "models", "build_torus_model", None, "result"),
    ("models.build", "models", "build_polynomial_model", None, "result"),
    ("models.build", "models", "build_suspension_model", None, "result"),
    ("models.verify", "models", "operator_identity_report", None, "model"),
    ("cohomology.deRham", "cohomology", "de_rham", None, "model"),
    ("cohomology.dPlusDLambda", "cohomology", "d_plus_dlambda_cohomology", None, "model"),
    ("cohomology.ddLambda", "cohomology", "dd_lambda_cohomology", None, "model"),
    ("cohomology.hodge", "cohomology", "hodge_check", None, "model"),
    ("cohomology.reduction", "cohomology", "reduction_constant", None, "form"),
    ("cohomology.quotient_sanity", "cohomology", "quotient_sanity", None, "model"),
] + [
    (f"suite.crit{i:02d}", "suite", fn, None, None)
    for i, fn in enumerate(
        ["check_rank_kernel", "check_closed_form_classification",
         "check_quotient_nondegeneracy", "check_spectral_types",
         "check_operator_identities", "check_kunneth_failure",
         "check_reduction_constant", "check_suspension_dimensions",
         "check_hodge", "check_inequality", "check_kahler_sanity"], start=1)
]

# models whose build and verification are reported one by one
DETAIL_MODELS = ("polynomial-n2-D4", "polynomial-n1-D16", "suspension-N64")

# span fields, in order
NAME, PARENT, PRE, START, END, SHAPE, NNZ, BITS, DETAIL = range(9)
EXPORT_FIELDS = ["name", "parent", "start", "end", "stats_s", "shape", "nnz", "max_bits", "model"]


def _entry_stats(data) -> tuple[int, int]:
    nnz = bits = 0
    for row in data:
        for x in row:
            if x:
                nnz += 1
                b = max(x.numerator.bit_length(), x.denominator.bit_length())
                if b > bits:
                    bits = b
    return nnz, bits


def _matrix_stats(args):
    m = args[0]
    nnz, bits = _entry_stats(m.data)
    return [m.rows, m.cols], nnz, bits


def _matmul_stats(args):
    a, b = args[0], args[1]
    nnz_a, bits_a = _entry_stats(a.data)
    nnz_b, bits_b = _entry_stats(b.data)
    return [a.rows, a.cols, b.cols], nnz_a + nnz_b, max(bits_a, bits_b)


STATS = {"matrix": _matrix_stats, "matmul": _matmul_stats}
DETAILS = {
    "result": lambda args, result: result.name,
    "model": lambda args, result: args[0].name,
    "form": lambda args, result: args[0].model.name,
}


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, stats, detail):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            pre = perf_counter()
            shape = nnz = bits = None
            if stats is not None:
                shape, nnz, bits = stats(args)
            span = [name, stack[-1] if stack else -1, pre, 0.0, 0.0, shape, nnz, bits, None]
            spans.append(span)  # before the push: a probe signal may record a span in between
            stack.append(len(spans) - 1)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if detail is not None:
                span[DETAIL] = detail(args, result)
            return result

        return wrapper

    @contextmanager
    def span(self, name: str):
        """Record one span around the body (the harness's root spans)."""
        now = perf_counter()
        span = [name, self._stack[-1] if self._stack else -1, now, now, 0.0,
                None, None, None, None]
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            span[END] = perf_counter()
            self._stack.pop()

    def record(self, name: str, start: float, end: float) -> None:
        """Record a finished span with no children (the host probe's samples)."""
        self.spans.append([name, self._stack[-1] if self._stack else -1, start, start, end,
                           None, None, None, None])

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {name: mod for name, mod in sys.modules.items()
                   if mod is not None and (name == "symplab" or name.startswith("symplab."))}
        for span_name, module, attr, stats, detail in WRAPS:
            owner = modules[f"symplab.{module}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, original,
                            self._wrap(span_name, original, STATS.get(stats), DETAILS.get(detail)))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(span_name, original, STATS.get(stats), DETAILS.get(detail))
            for mod in modules.values():
                for bound, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, bound, original, wrapper)

    def _patch(self, target, attr, original, wrapper) -> None:
        setattr(target, attr, wrapper)
        self._patches.append((target, attr, original))

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()

    def export(self, origin: float) -> dict:
        """Spans as rows of ``EXPORT_FIELDS``, times relative to ``origin``."""
        return {"fields": EXPORT_FIELDS,
                "spans": [[s[NAME], s[PARENT], s[START] - origin, s[END] - origin,
                           s[START] - s[PRE], s[SHAPE], s[NNZ], s[BITS], s[DETAIL]]
                          for s in self.spans]}


def layer_table(spans: list[list], wall_s: float) -> dict[str, float]:
    """Per-layer totals of one traced pass whose wall time was ``wall_s``."""
    footprint = [s[END] - s[PRE] for s in spans]
    child_cover = [0.0] * len(spans)
    for s, fp in zip(spans, footprint):
        if s[PARENT] >= 0:
            child_cover[s[PARENT]] += fp
    self_s = [s[END] - s[START] - cover for s, cover in zip(spans, child_cover)]

    calls: dict[str, int] = {}
    selfs: dict[str, float] = {}
    for s, own in zip(spans, self_s):
        calls[s[NAME]] = calls.get(s[NAME], 0) + 1
        selfs[s[NAME]] = selfs.get(s[NAME], 0.0) + own

    rref = [s for s in spans if s[NAME] == "linalg.rref"]
    cells = sum(s[SHAPE][0] * s[SHAPE][1] for s in rref)
    matmul = [s for s in spans if s[NAME] == "linalg.matmul"]
    draws = sum(1 for s in spans if s[NAME] == "lie_core.is_regular"
                and s[PARENT] >= 0 and spans[s[PARENT]][NAME] == "lie_core.regular_draw")
    builds = [i for i, s in enumerate(spans) if s[NAME] == "models.build"]
    verify_in_build = {i: 0.0 for i in builds}
    for i, s in enumerate(spans):
        if s[NAME] == "models.verify" and s[PARENT] in verify_in_build:
            verify_in_build[s[PARENT]] += footprint[i]

    out: dict[str, float] = {
        "linalg.rref.cells": cells,
        "linalg.rref.density": (sum(s[NNZ] for s in rref) / cells) if cells else 0.0,
        "linalg.rref.max_bits": max((s[BITS] for s in rref), default=0),
        "linalg.matmul.nnz": sum(s[NNZ] for s in matmul),
    }
    for layer in ("linalg.rref", "linalg.matmul", "linalg.det", "linalg.solve",
                  "polynomials.charpoly", "polynomials.squarefree", "polynomials.sturm",
                  "lie_core.context", "lie_core.centralizer",
                  "algebra_forms.omega", "algebra_forms.kernel", "algebra_forms.closed",
                  "algebra_forms.potential", "algebra_forms.quotient",
                  "exterior.star_blocks", "models.verify",
                  "cohomology.deRham", "cohomology.dPlusDLambda", "cohomology.ddLambda",
                  "cohomology.hodge", "cohomology.reduction", "cohomology.quotient_sanity"):
        out[f"{layer}.calls"] = calls.get(layer, 0)
        out[f"{layer}.self_s"] = selfs.get(layer, 0.0)
    accepts = calls.get("lie_core.regular_draw", 0)
    out["lie_core.regular_draws_per_accept"] = draws / accepts if accepts else 0.0
    out["models.build.calls"] = len(builds)
    out["models.build.distinct"] = len({spans[i][DETAIL] for i in builds})
    out["models.build.construct_s"] = sum(
        spans[i][END] - spans[i][START] - verify_in_build[i] for i in builds)
    for model in DETAIL_MODELS:
        out[f"models.build_s.{model}"] = sum(
            spans[i][END] - spans[i][START] for i in builds if spans[i][DETAIL] == model)
        out[f"models.verify_s.{model}"] = sum(
            s[END] - s[START] for s in spans if s[NAME] == "models.verify" and s[DETAIL] == model)
    for i in range(1, 12):
        out[f"suite.crit{i:02d}_s"] = sum(
            s[END] - s[START] for s in spans if s[NAME] == f"suite.crit{i:02d}")
    out["cli.self_s"] = selfs.get("cli", 0.0)
    out["trace.probe_s"] = selfs.get("probe", 0.0)
    stats_s = sum(s[START] - s[PRE] for s in spans)
    roots = sum(fp for s, fp in zip(spans, footprint) if s[PARENT] < 0)
    out["trace.spans"] = len(spans)
    out["trace.stats_s"] = stats_s
    out["trace.harness_s"] = wall_s - roots
    out["trace.self_total_s"] = sum(self_s)
    return out
