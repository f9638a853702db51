"""Models that more than one test module reads, built once per session.

polynomial-n2-D4 is the largest model several modules read; importing it
from here instead of building it in each module pays for it once.  Tests
must not modify these models.
"""

from symplab.models import build_polynomial_model

POLY_N2 = build_polynomial_model(2, 4)
