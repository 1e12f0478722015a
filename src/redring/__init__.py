"""Groebner bases in reduction rings.

A reduction ring is a commutative ring with identity carrying indexed
multiplier sets and a well-founded order with zero least; reduction,
normal forms and critical-pair completion are defined against that
interface.  Provided domains: the rational field, the integers, Z/nZ for
any n, and multivariate polynomial rings over any of them.
"""

from .buchberger import (
    CofactorRow,
    GBResult,
    GBTrace,
    gb,
    ideal_congruence_holds,
    is_groebner_basis,
    member_ideal,
    verify_cofactors,
)
from .core import (
    AxiomReport,
    ContractViolationError,
    Domain,
    NonTerminationError,
    check_axioms,
    normal_form,
    project_reduction_relation,
    reduce_step,
)
from .poly import (
    Monomial,
    Polynomial,
    PolyRing,
    TermOrder,
    make_poly_domain,
    mono_mul,
    pp_divides,
    pp_lcm,
    pp_quotient,
)
from .relations import (
    FiniteRelation,
    connectible_below,
    equivalent,
    generalized_newman_holds,
    is_church_rosser,
    is_locally_confluent,
    reachable,
)
from .scalars import (
    IntegerDomain,
    IntegerQuotientDomain,
    RationalFieldDomain,
    make_field_domain,
    make_integer_domain,
    make_integer_quotient_domain,
)

__version__ = "0.1.0"

__all__ = [
    "AxiomReport",
    "CofactorRow",
    "ContractViolationError",
    "Domain",
    "FiniteRelation",
    "GBResult",
    "GBTrace",
    "IntegerDomain",
    "IntegerQuotientDomain",
    "Monomial",
    "NonTerminationError",
    "Polynomial",
    "PolyRing",
    "RationalFieldDomain",
    "TermOrder",
    "check_axioms",
    "connectible_below",
    "equivalent",
    "gb",
    "generalized_newman_holds",
    "ideal_congruence_holds",
    "is_church_rosser",
    "is_groebner_basis",
    "is_locally_confluent",
    "make_field_domain",
    "make_integer_domain",
    "make_integer_quotient_domain",
    "make_poly_domain",
    "member_ideal",
    "mono_mul",
    "normal_form",
    "pp_divides",
    "pp_lcm",
    "pp_quotient",
    "project_reduction_relation",
    "reachable",
    "reduce_step",
    "verify_cofactors",
]
