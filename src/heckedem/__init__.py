"""heckedem: exact Demazure-operator models of the GL2 pro-p Iwahori-Hecke
algebra, its supersingular modules, and their bijection with tame Galois
parameters at small q."""

from .coeffs import GenericScalar, FieldTower, FieldElement, build_tower, discrete_log
from .weyl import WeylElement, length, act_on_index
from .charrings import GroupRingElement, SymElement, ZQ, FieldRing, demazure_k, demazure_ch
from .hecke import HeckeElement, CenterElement, normal_form_over_center, orbits, idempotent
from .krep import FiniteModule, reduce_at_theta, standard_module, is_isomorphic
from .chowrep import reduce_regular_at_theta, composition_series, check_naive_obstruction
from .galois import GaloisParam, bijection_check

__all__ = [
    "GenericScalar",
    "FieldTower",
    "FieldElement",
    "build_tower",
    "discrete_log",
    "WeylElement",
    "length",
    "act_on_index",
    "GroupRingElement",
    "SymElement",
    "ZQ",
    "FieldRing",
    "demazure_k",
    "demazure_ch",
    "HeckeElement",
    "CenterElement",
    "normal_form_over_center",
    "orbits",
    "idempotent",
    "FiniteModule",
    "reduce_at_theta",
    "standard_module",
    "is_isomorphic",
    "reduce_regular_at_theta",
    "composition_series",
    "check_naive_obstruction",
    "GaloisParam",
    "bijection_check",
]

__version__ = "0.1.0"
