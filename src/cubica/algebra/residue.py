"""Residue fields k[x]/(m) for irreducible m, with the element operations
needed by splitting tests: inverses, powers, norms, square tests, square
roots and minimal polynomials over k.

A ResidueField follows the payload protocol of the fields in ``.fields``
(``_add``/``_mul``/``_inv``/``_norm``/``elements``/``order``/...) with the
reduced Polynomial as payload, so ``fields.is_square``, ``sqrt``,
``smallest_nonsquare`` and ``trace_to_f2`` serve it through
``Element(R, a)``; its own methods take and return Polynomials.
"""

from __future__ import annotations

from itertools import product

from .fields import Element, FieldError, is_square, sqrt
from .linalg import min_poly_of_powers
from .poly import Polynomial, inverse_mod, pow_mod


class ResidueField:
    """F_q[x]/(m) (or Q[x]/(m)); elements are polynomials reduced mod m.

    The modulus must be irreducible for this to be a field; pass check=False
    only for moduli already certified elsewhere (e.g. place polynomials)."""

    def __init__(self, modulus: Polynomial, check: bool = True):
        if modulus.degree < 1:
            raise FieldError("modulus must be non-constant")
        if check:
            from .poly import is_irreducible
            if not is_irreducible(modulus):
                raise FieldError("modulus is reducible")
        self.modulus = modulus.monic()
        self.base = modulus.field
        self.deg = modulus.degree
        if self.base.order is not None:
            self.order = self.base.order ** self.deg
        else:
            self.order = None
        self.char = self.base.char

    def __call__(self, f) -> Polynomial:
        if not isinstance(f, Polynomial):
            f = Polynomial.constant(self.base, self.base(f))
        return f % self.modulus

    def xbar(self) -> Polynomial:
        return self(Polynomial.x(self.base))

    # -- payload protocol ------------------------------------------------------

    def _zero_val(self):
        return Polynomial.zero(self.base)

    def _one_val(self):
        return Polynomial.one(self.base)

    def _add(self, a, b):
        return (a + b) % self.modulus

    def _sub(self, a, b):
        return (a - b) % self.modulus

    def _mul(self, a, b):
        return (a * b) % self.modulus

    def _neg(self, a):
        return (-a) % self.modulus

    def _inv(self, a):
        return inverse_mod(a, self.modulus)

    def _norm(self, a):
        """N(a) = Res(m, a), the product of a(alpha) over the roots alpha of
        the monic modulus m, by Res(f, g) = (-1)^(deg f deg g)
        lc(g)^(deg f - deg r) Res(g, r) for r = f mod g; a base payload."""
        f, g = self.modulus, a % self.modulus
        acc = self.base.one
        while g.degree > 0:
            r = f % g
            if r.is_zero():
                return self.base._zero_val()
            if f.degree * g.degree % 2:
                acc = -acc
            acc = acc * g.leading() ** (f.degree - r.degree)
            f, g = g, r
        if g.is_zero():
            return self.base._zero_val()
        return (acc * g.coeffs[0] ** f.degree).val

    def sort_key(self, a):
        return a.sort_key()

    def elements(self):
        """All residues, the constant coefficient varying fastest, so the
        base constants come first."""
        base_elems = list(self.base.elements())
        # product varies its last factor fastest: reversed, the constant term
        for coeffs in product(base_elems, repeat=self.deg):
            yield Element(self, Polynomial(self.base, coeffs[::-1]))

    def format_element(self, a):
        return repr(a)

    # -- Polynomial in, Polynomial out -----------------------------------------

    add, mul, neg = _add, _mul, _neg

    def div(self, a, b):
        return self._mul(a, self._inv(b))

    def pow(self, a, n):
        if n < 0:
            return self.pow(self._inv(a), -n)
        return pow_mod(a, n, self.modulus)

    def norm(self, a: Polynomial) -> Element:
        """The norm of a down to the coefficient field."""
        return Element(self.base, self._norm(a))

    def is_square(self, a: Polynomial) -> bool:
        return is_square(Element(self, a))

    def sqrt(self, a: Polynomial) -> Polynomial:
        """The square root smaller by sort_key (fields.sqrt)."""
        return sqrt(Element(self, a)).val

    def min_poly(self, a: Polynomial) -> Polynomial:
        """Monic minimal polynomial of a over the coefficient field."""
        powers = []
        t = self._one_val()
        for _ in range(self.deg + 1):
            powers.append([t[i] for i in range(self.deg)])
            t = self.mul(t, a)
        coeffs = min_poly_of_powers(powers, self.base)
        return Polynomial(self.base, coeffs)
