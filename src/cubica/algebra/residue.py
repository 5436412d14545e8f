"""Residue fields k[x]/(m) for irreducible m.

A ResidueField is a field like those in ``.fields``: ``R(v)`` returns an
``Element`` whose payload is the Polynomial v reduced mod m, elements
compute with the ``Element`` operators, and ``fields.is_square``, ``sqrt``,
``smallest_nonsquare`` and ``trace_to_f2`` serve it through the payload
protocol (``_add``/``_mul``/``_inv``/``_norm``/``elements``/``order``/...).
``norm`` and ``min_poly`` take an Element and descend to k.
"""

from __future__ import annotations

from itertools import product

from .fields import Element, FieldError, sqrt
from .linalg import min_poly_of_powers
from .poly import Polynomial, _poly, inverse_mod


class ResidueField:
    """F_q[x]/(m) (or Q[x]/(m)); payload: a polynomial reduced mod m.

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
        self._hash = hash(("Res", self.modulus))
        self.zero = Element(self, Polynomial.zero(self.base))
        self.one = Element(self, Polynomial.one(self.base))

    def __call__(self, v) -> Element:
        if isinstance(v, Element) and v.field == self:
            return v
        if not isinstance(v, Polynomial):
            v = Polynomial.constant(self.base, self.base(v))
        return Element(self, v % self.modulus)

    def __eq__(self, other):
        return isinstance(other, ResidueField) and other.modulus == self.modulus

    def __hash__(self):
        return self._hash

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
        return (acc * g.constant_coeff() ** f.degree).val

    def sort_key(self, a):
        return a.sort_key()

    def elements(self, skip_base=False):
        """All residues, the constant coefficient varying fastest, so the
        base constants come first; with `skip_base` all but those, which are
        not built."""
        base_elems = list(self.base.elements())
        # product varies its last factor fastest; high = (c_{deg-1}, ..., c_1)
        highs = product(base_elems, repeat=self.deg - 1)
        if skip_base:
            next(highs)
        for high in highs:
            for c in base_elems:
                yield Element(self, Polynomial(self.base, (c,) + high[::-1]))

    def format_element(self, a):
        return repr(a)

    def norm(self, e: Element) -> Element:
        """The norm of e down to the coefficient field."""
        return Element(self.base, self._norm(e.val))

    def sqrt(self, e: Element) -> Element:
        return sqrt(e)

    def min_poly(self, e: Element) -> Polynomial:
        """Monic minimal polynomial of e over the coefficient field."""
        base, zero, ev = self.base, self.base._zero_val(), self(e).val
        powers = []
        t = self._one_val()
        for _ in range(self.deg + 1):
            powers.append(t.vals + [zero] * (self.deg - len(t.vals)))
            t = self._mul(t, ev)
        return _poly(base, min_poly_of_powers(base, powers))
