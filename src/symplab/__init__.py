"""Exact-arithmetic laboratory for invariant 2-forms on sp(2n, R) and
finite models of symplectic (d+dl)- and ddl-cohomology."""

from .algebra_forms import (AlgebraTwoForm, ce_d2_matrix, closed_two_form_dimension,
                            form_kernel, form_rank, is_closed_2form,
                            omega_from_element, omega_report, potential_element,
                            quotient_form)
from .cohomology import (d_plus_dlambda_cohomology, dd_lambda_cohomology,
                         de_rham, hodge_check, inequality_check,
                         quotient_sanity, reduction_constant, reports_to_csv)
from .lie_core import (AlgebraContext, AlgebraElement, RegularElement, centralizer,
                       is_abelian, is_in_algebra, is_regular, odd_powers,
                       random_element, random_regular_element, spectral_type,
                       standard_basis)
from .linalg import Matrix, Q
from .models import (ComplexModel, FormVector, build_polynomial_model,
                     build_suspension_model, build_torus_model, d_apply,
                     d_lambda_apply, form_vector, operator_identity_report,
                     poincare_antiderivative, w0_power_form)

__version__ = "0.1.0"
