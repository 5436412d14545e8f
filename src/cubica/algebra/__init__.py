from .fields import (Element, FieldError, PrimeField, QuadraticField,
                     RationalField, QQ, is_square, smallest_nonsquare, sqrt,
                     trace_to_f2)
from .poly import (Polynomial, is_irreducible, inverse_mod, poly_factor,
                   poly_gcd, poly_xgcd, pow_mod, radical_with_odd_part,
                   squarefree_decomposition, squarefree_part)
from .ratfunc import FunctionField, RationalFunction
from .residue import ResidueField

__all__ = [
    "Element", "FieldError", "PrimeField", "QuadraticField", "RationalField",
    "QQ", "is_square", "smallest_nonsquare", "sqrt", "trace_to_f2",
    "Polynomial", "is_irreducible", "inverse_mod", "poly_factor", "poly_gcd",
    "poly_xgcd", "pow_mod", "radical_with_odd_part",
    "squarefree_decomposition", "squarefree_part",
    "FunctionField", "RationalFunction", "ResidueField",
]
