"""Exact computation of jumping lines of logarithmic bundles on the plane.

Two independent routes from a point configuration to its jumping lines:
Kronecker splitting types of the associated Steiner matrix pencil, and
fat-point linear systems through the configuration.  All arithmetic is
exact (arbitrary-precision rationals or a prime field).
"""

from .algebra import DegenerateInputError, FieldSpec, Mat, RATIONALS, prime_field
from .geom import PointConfig, normalize_point, plane_points, random_config
from .forms import HForm, curves_through, fat_point_dim, gamma_minors, monoidal_det
from .steiner import SteinerPencil, jumping_order, steiner_pencil
from .jumping import (
    JumpingReport,
    VerificationError,
    base_locus_equality,
    containment_monoidal,
    gamma_points,
    jumping_scan,
    ninth_point,
    pencil4_eliminant,
    pinceau_factorization,
)
from .intersect import ChernPoly, cokernel_chern, jumping_length, length_accounting, tangency_degree

__version__ = "0.1.0"

__all__ = [
    "ChernPoly",
    "DegenerateInputError",
    "FieldSpec",
    "HForm",
    "JumpingReport",
    "Mat",
    "PointConfig",
    "RATIONALS",
    "SteinerPencil",
    "VerificationError",
    "base_locus_equality",
    "cokernel_chern",
    "containment_monoidal",
    "curves_through",
    "fat_point_dim",
    "gamma_minors",
    "gamma_points",
    "jumping_length",
    "jumping_order",
    "jumping_scan",
    "length_accounting",
    "monoidal_det",
    "ninth_point",
    "normalize_point",
    "pencil4_eliminant",
    "pinceau_factorization",
    "plane_points",
    "prime_field",
    "random_config",
    "steiner_pencil",
    "tangency_degree",
    "__version__",
]
