"""siclift: high-precision SIC-POVM fiducial search and exact algebraic lifting.

The pipeline goes numeric -> exact: seed and refine a fiducial vector to
hundreds or thousands of digits, detect its Clifford symmetry, build orbit
polynomials of the Weyl-Heisenberg overlaps, and lift them to exact algebraic
numbers in an explicitly constructed field tower, with an exact verification
at the end.
"""

from .errors import (FieldError, LiftError, PrecisionError, RefinementError,
                     RelationError, SearchError, SicliftError)
from .exactify import (ExactFiducialCertificate, method1_exactify,
                       method2_exactify, overlap_minimal_polynomials,
                       symmetry_structure, verify_certified, verify_exact)
from .fidsearch import (Fiducial, detect_stabilizer, refine, seed_search,
                        strongly_centre)
from .heisenberg import overlaps
from .lattice import integer_relation, minimal_polynomial, raw_relation
from .numfield import FieldTower, adjoin, automorphisms, recognize

__version__ = "0.1.0"

__all__ = [
    "ExactFiducialCertificate", "FieldError", "FieldTower", "Fiducial",
    "LiftError", "PrecisionError", "RefinementError", "RelationError",
    "SearchError", "SicliftError", "adjoin", "automorphisms",
    "detect_stabilizer", "integer_relation",
    "method1_exactify", "method2_exactify", "minimal_polynomial",
    "overlap_minimal_polynomials", "overlaps", "raw_relation",
    "recognize", "refine", "seed_search",
    "strongly_centre", "symmetry_structure", "verify_certified",
    "verify_exact",
]
