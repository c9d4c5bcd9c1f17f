"""Exact curves-on-a-surface calculus and L-space obstruction certificates."""

from .curves import (
    Curve,
    dehn_twist,
    homology_class,
    intersection_number,
    is_isotopic,
)
from .certify import Certificate, certify, cross_validate, derive_base_bound
from .floer import (
    HfkProfile,
    RankInterval,
    Staircase,
    Verdict,
    hf_rank,
    lspace_obstruction,
    lspace_profile,
    staircase_from_alexander,
    triangle_propagate,
)
from .mcg import (
    StandardCurveSystem,
    TwistWord,
    alexander_polynomial,
    apply_word,
    beta_gn,
    homology_action,
    monodromy_phi,
    monodromy_psi,
    standard_curve_system,
)
from .poly import LaurentPoly, parse_poly
from .surface import SurfaceSpec, standard_surface

__all__ = [
    "Certificate",
    "Curve",
    "HfkProfile",
    "LaurentPoly",
    "RankInterval",
    "Staircase",
    "StandardCurveSystem",
    "SurfaceSpec",
    "TwistWord",
    "Verdict",
    "alexander_polynomial",
    "apply_word",
    "beta_gn",
    "certify",
    "cross_validate",
    "dehn_twist",
    "derive_base_bound",
    "hf_rank",
    "homology_action",
    "homology_class",
    "intersection_number",
    "is_isotopic",
    "lspace_obstruction",
    "lspace_profile",
    "monodromy_phi",
    "monodromy_psi",
    "parse_poly",
    "staircase_from_alexander",
    "standard_curve_system",
    "standard_surface",
    "triangle_propagate",
]

__version__ = "0.1.0"
