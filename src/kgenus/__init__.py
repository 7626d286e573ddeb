"""Exact-arithmetic genus formulas, descent bounds and vanishing
classifications for tame kernels and even K-groups of cyclic
prime-degree and p-extensions of Q, with brute-force oracles for every
closed form that is checkable at desk scale."""

from .classify import (Decision, ExtensionShape, enumerate_vanishing,
                       positive_vanishing_decision, vanishing_decision)
from .exactnum import (FactoredInteger, bernoulli, is_prime, is_squarefree,
                       power_residue_character, prime_factorization,
                       primitive_root)
from .genus import (AbelianGroupStructure, DescentBounds, GenusReport,
                    NotApplicable, descent_bounds, exact_descent_structure,
                    genus_exponent, k_genus_ratio)
from .ktable import BaseOrder, base_table, bernoulli_numerator, h2_order_Z
from .kummer import (KummerRadical, PrimitivityReport, RadicalGenerator,
                     frobenius_vector, primitivity_rank, radical)
from .localdata import (CyclicExtensionOfQ, LocalData, local_invariants,
                        quadratic_extension)
from .quadforms import (FieldElement, QuadFieldData, discriminant, dyadic_type,
                        fundamental_unit, indefinite_cycles, quad_field_data,
                        reduced_definite_forms, reduced_indefinite_forms)
from .tatecoh import TateModule, residual_h0_closed_form, residual_module, tate_orders

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
