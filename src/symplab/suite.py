"""Batch acceptance suite: every exit criterion as a timed check.

Each check returns a record with the expected and computed summaries so
the CLI can print an expected-vs-computed table and the test suite can
assert each criterion separately.  All checks are exact (zero tolerance);
random sampling is seeded and deterministic.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from . import algebra_forms as forms
from . import cohomology as coh
from . import lie_core as lie
from .linalg import Q
from .models import (build_polynomial_model, build_suspension_model,
                     build_torus_model, d_apply, d_lambda_apply, form_vector,
                     w0_power_form)

DEFAULT_SEED = 7
SAMPLES = 50


@dataclass
class CheckResult:
    cid: int
    name: str
    expected: str
    computed: str
    passed: bool
    seconds: float

    def to_dict(self, with_seconds: bool = False) -> dict:
        out = {"criterion": self.cid, "name": self.name,
               "expected": self.expected, "computed": self.computed,
               "passed": self.passed}
        if with_seconds:
            out["seconds"] = round(self.seconds, 3)
        return out


def _timed(cid: int, name: str, expected: str, fn) -> CheckResult:
    start = time.perf_counter()
    try:
        computed, passed = fn()
    except Exception as exc:  # a crashed criterion is a failed criterion
        computed, passed = f"error: {exc}", False
    return CheckResult(cid, name, expected, computed, passed,
                       time.perf_counter() - start)


def _sample_regular(ctx, seed: int, count: int = SAMPLES):
    rng = random.Random(seed)
    return [lie.random_regular_element(ctx, rng) for _ in range(count)]


def check_rank_kernel(seed: int = DEFAULT_SEED) -> CheckResult:
    expected = "rank 2n^2, kernel dim n, kernel = centralizer, kernel abelian; 50 samples each n in {1,2,3}"

    def run():
        bad = []
        for n in (1, 2, 3):
            ctx = lie.standard_basis(n)
            for a in _sample_regular(ctx, seed + n):
                kernel = forms.form_kernel(forms.omega_from_element(a))
                ok = (ctx.dim - kernel.dim == 2 * n * n  # rank, by rank-nullity
                      and kernel.dim == n
                      and kernel == lie.centralizer(a)
                      and lie.is_abelian(kernel))
                if not ok:
                    bad.append((n, a.coords))
        return ("all satisfied" if not bad else f"{len(bad)} failures"), not bad

    return _timed(1, "rank/kernel theorem", expected, run)


def check_closed_form_classification(seed: int = DEFAULT_SEED) -> CheckResult:
    expected = "closed 2-form space dim = 2n^2+n for n in {1,2}; potential round trip exact on 50 elements per n"

    def run():
        parts = []
        ok = True
        for n in (1, 2):
            ctx = lie.standard_basis(n)
            dim = forms.closed_two_form_dimension(ctx)
            want = 2 * n * n + n
            ok = ok and dim == want
            parts.append(f"n={n}: dim={dim}")
            rng = random.Random(seed + 10 * n)
            trips = all(
                forms.potential_element(forms.omega_from_element(a)).coords == a.coords
                for a in (lie.random_element(ctx, rng) for _ in range(SAMPLES)))
            ok = ok and trips
            parts.append(f"roundtrip={'exact' if trips else 'FAILED'}")
        return "; ".join(parts), ok

    return _timed(2, "closed 2-form classification", expected, run)


def check_quotient_nondegeneracy(seed: int = DEFAULT_SEED) -> CheckResult:
    expected = "reduced gram determinant nonzero for 50 regular elements each n in {1,2,3}"

    def run():
        bad = 0
        for n in (1, 2, 3):
            ctx = lie.standard_basis(n)
            for a in _sample_regular(ctx, seed + n):
                if forms.quotient_form(a).reduced_det == 0:
                    bad += 1
        return ("all nonzero" if bad == 0 else f"{bad} singular"), bad == 0

    return _timed(3, "quotient nondegeneracy", expected, run)


def check_spectral_types() -> CheckResult:
    expected = "J elliptic, H hyperbolic, E parabolic/defective in sp(2,R)"

    def run():
        ctx = lie.standard_basis(1)
        j = ctx.element([0, -1, 1])   # basis order H, E, F
        h = ctx.element([1, 0, 0])
        e = ctx.element([0, 1, 0])
        got = tuple(lie.spectral_type(x).label for x in (j, h, e))
        ok = got == ("elliptic", "hyperbolic", "parabolic/defective")
        return f"J={got[0]}, H={got[1]}, E={got[2]}", ok

    return _timed(4, "spectral types", expected, run)


def _acceptance_models():
    models = [build_torus_model(1), build_torus_model(2)]
    models += [build_polynomial_model(1, d) for d in (4, 6, 8)]
    models += [build_suspension_model(n) for n in (2, 4, 8)]
    return models


def check_operator_identities() -> CheckResult:
    expected = ("d.d=0, dl.dl=0, star.star=id, d.dl+dl.d=0 exactly on torus n in {1,2}, "
                "polynomial n=1 D in {4,6,8}, suspension N in {2,4,8}")

    def run():
        failures = []
        for model in _acceptance_models():
            for identity, per_degree in model.identities.items():
                for k, good in per_degree.items():
                    if not good:
                        failures.append(f"{model.name}:{identity}@{k}")
            if not coh.quotient_sanity(model):
                failures.append(f"{model.name}:quotient-sanity")
        return ("all identities hold" if not failures else "; ".join(failures)), not failures

    return _timed(5, "operator identities", expected, run)


def check_kunneth_failure() -> CheckResult:
    expected = "windowed n=1: H_(d+dl) = (1,0,1), H_(ddl) = (0,1,0), stable over D in {4,6,8}"

    def run():
        parts = []
        ok = True
        for d in (4, 6, 8):
            model = build_polynomial_model(1, d)
            dpl = coh.d_plus_dlambda_cohomology(model, windowed=True).dims
            ddl = coh.dd_lambda_cohomology(model, windowed=True).dims
            ok = ok and dpl == (1, 0, 1) and ddl == (0, 1, 0)
            parts.append(f"D={d}: dpl={dpl} ddl={ddl}")
        return "; ".join(parts), ok

    return _timed(6, "polynomial model dimensions", expected, run)


def check_reduction_constant(seed: int = DEFAULT_SEED) -> CheckResult:
    expected = "c(w0) = -1 (n=1); c(w0^2) = +1 (n=2); c(d.dl z) = 0 on 10 random z"

    def run():
        model1 = build_polynomial_model(1, 6)
        c1 = coh.reduction_constant(w0_power_form(model1, 1))
        model2 = build_polynomial_model(2, 4)
        c2 = coh.reduction_constant(w0_power_form(model2, 2))
        rng = random.Random(seed)
        zeros_ok = True
        for _ in range(10):
            z = form_vector(model1, 2, [Q(rng.randint(-9, 9)) for _ in range(model1.dim(2))])
            x = d_apply(d_lambda_apply(z))
            if coh.reduction_constant(x) != 0:
                zeros_ok = False
        ok = (c1 == Q(-1)) and (c2 == Q(1)) and zeros_ok
        return (f"c(w0)={c1}; c(w0^2)={c2}; exact forms reduce to zero: {zeros_ok}"), ok

    return _timed(7, "reduction constants", expected, run)


def check_suspension_dimensions() -> CheckResult:
    expected = "N in {2,4,8}: dR = (1,1,2N+1); H_(d+dl) = (1,2N+1,1); H_(ddl) = (2N+1,1,2N+1)"

    def run():
        parts = []
        ok = True
        for n in (2, 4, 8):
            model = build_suspension_model(n)
            dr = coh.de_rham(model).dims
            dpl = coh.d_plus_dlambda_cohomology(model).dims
            ddl = coh.dd_lambda_cohomology(model).dims
            width = 2 * n + 1
            ok = (ok and dr == (1, 1, width) and dpl == (1, width, 1)
                  and ddl == (width, 1, width))
            parts.append(f"N={n}: dR={dr} dpl={dpl} ddl={ddl}")
        return "; ".join(parts), ok

    return _timed(8, "suspension dimensions", expected, run)


def check_hodge() -> CheckResult:
    expected = "dim ker D = dim H_(d+dl) per degree and exhaustive 3-summand decomposition (suspension N in {2,4}, torus n=1)"

    def run():
        parts = []
        ok = True
        for model in (build_suspension_model(2), build_suspension_model(4),
                      build_torus_model(1)):
            report = coh.hodge_check(model)
            ok = ok and report.all_ok()
            parts.append(f"{model.name}: kerD={report.kernel_dims()} ok={report.all_ok()}")
        return "; ".join(parts), ok

    return _timed(9, "finite Hodge check", expected, run)


def check_inequality() -> CheckResult:
    expected = "dim H_dR <= dim H_(d+dl) + dim H_(ddl) in every degree of the criterion-6 and criterion-8 models"

    def run():
        ok = True
        for d in (4, 6, 8):
            model = build_polynomial_model(1, d)
            checks = coh.inequality_check(
                coh.de_rham(model, windowed=True),
                coh.d_plus_dlambda_cohomology(model, windowed=True),
                coh.dd_lambda_cohomology(model, windowed=True))
            ok = ok and all(checks.values())
        for n in (2, 4, 8):
            model = build_suspension_model(n)
            checks = coh.inequality_check(
                coh.de_rham(model),
                coh.d_plus_dlambda_cohomology(model),
                coh.dd_lambda_cohomology(model))
            ok = ok and all(checks.values())
        return ("holds in every degree" if ok else "violated"), ok

    return _timed(10, "foliated inequality", expected, run)


def check_kahler_sanity() -> CheckResult:
    expected = "torus n in {1,2}: all three theories report identical dimensions"

    def run():
        parts = []
        ok = True
        for n in (1, 2):
            model = build_torus_model(n)
            dims = [coh.de_rham(model).dims,
                    coh.d_plus_dlambda_cohomology(model).dims,
                    coh.dd_lambda_cohomology(model).dims]
            same = dims[0] == dims[1] == dims[2]
            ok = ok and same
            parts.append(f"n={n}: {dims[0]}{'' if same else ' MISMATCH'}")
        return "; ".join(parts), ok

    return _timed(11, "transversally Kaehler sanity", expected, run)


def run_all(seed: int = DEFAULT_SEED) -> list[CheckResult]:
    return [
        check_rank_kernel(seed),
        check_closed_form_classification(seed),
        check_quotient_nondegeneracy(seed),
        check_spectral_types(),
        check_operator_identities(),
        check_kunneth_failure(),
        check_reduction_constant(seed),
        check_suspension_dimensions(),
        check_hodge(),
        check_inequality(),
        check_kahler_sanity(),
    ]


def format_table(results: list[CheckResult]) -> str:
    lines = []
    header = f"{'crit':<5}{'name':<34}{'status':<7}{'seconds':>8}"
    lines.append(header)
    lines.append("-" * len(header))
    for r in results:
        lines.append(f"{r.cid:<5}{r.name:<34}{'PASS' if r.passed else 'FAIL':<7}{r.seconds:>8.2f}")
        lines.append(f"     expected: {r.expected}")
        lines.append(f"     computed: {r.computed}")
    passed = sum(r.passed for r in results)
    lines.append("-" * len(header))
    lines.append(f"{passed}/{len(results)} criteria passed")
    return "\n".join(lines)
