"""Hadamard matrix constructions and prime-density censuses."""

from .arith import (
    Method,
    PrimalityResult,
    Verdict,
    is_prime,
    jacobi,
    mult_order,
)
from .census import (
    CensusReport,
    I_closed,
    I_quadrature,
    density_report,
    pi_count,
    psi,
)
from .construct import (
    ConstructionPlan,
    build_plan,
    paley_I,
    paley_II,
    sylvester,
)
from .matrix import (
    PlusMinusMatrix,
    is_hadamard,
    read_matrix,
    write_matrix,
)
from .solver import RieselCertificate, SearchResult, find_m, riesel_certificate

__all__ = [n for n in dir() if not n.startswith("_")]
__version__ = "0.1.0"
