from .fields import (Element, FieldError, PrimeField, RationalField, QQ,
                     is_square, smallest_nonsquare, sqrt, trace_to_f2)
from .poly import (Polynomial, is_irreducible, poly_factor, poly_gcd,
                   poly_xgcd, pow_mod, squarefree_decomposition)
from .ratfunc import FunctionField, RationalFunction
from .residue import ResidueField

__all__ = [
    "Element", "FieldError", "PrimeField", "RationalField",
    "QQ", "is_square", "smallest_nonsquare", "sqrt", "trace_to_f2",
    "Polynomial", "is_irreducible", "poly_factor", "poly_gcd",
    "poly_xgcd", "pow_mod", "squarefree_decomposition",
    "FunctionField", "RationalFunction", "ResidueField",
]
