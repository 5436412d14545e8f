"""Residue fields k[x]/(m) for irreducible m, with the element operations
needed by splitting tests: inverses, powers, norms, square tests, square
roots, absolute traces (char 2) and minimal polynomials over k.
"""

from __future__ import annotations

from itertools import islice, product

from .fields import FieldError, is_square
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

    def zero(self):
        return Polynomial.zero(self.base)

    def one(self):
        return Polynomial.one(self.base)

    def add(self, a, b):
        return self(a + b)

    def sub(self, a, b):
        return self(a - b)

    def mul(self, a, b):
        return (a * b) % self.modulus

    def neg(self, a):
        return self(-a)

    def inverse(self, a):
        return inverse_mod(a, self.modulus)

    def div(self, a, b):
        return self.mul(a, self.inverse(b))

    def pow(self, a, n):
        if n < 0:
            return self.pow(self.inverse(a), -n)
        return pow_mod(a, n, self.modulus)

    def norm(self, a: Polynomial):
        """The norm of a down to the coefficient field: N(a) = Res(m, a), the
        product of a(alpha) over the roots alpha of the monic modulus m, by
        Res(f, g) = (-1)^(deg f deg g) lc(g)^(deg f - deg r) Res(g, r) for
        r = f mod g."""
        f, g = self.modulus, a % self.modulus
        acc = self.base.one
        while g.degree > 0:
            r = f % g
            if r.is_zero():
                return self.base.zero
            if f.degree * g.degree % 2:
                acc = -acc
            acc = acc * g.leading() ** (f.degree - r.degree)
            f, g = g, r
        if g.is_zero():
            return self.base.zero
        return acc * g.coeffs[0] ** f.degree

    def is_square(self, a: Polynomial) -> bool:
        """Norm criterion: a is a square of F_{q^k} = F_q[x]/(m) iff N(a) is
        a square of F_q, as chi_{q^k}(a) = chi_q(N(a)); one square test in
        the base field replaces Euler's with exponent (q^k - 1)/2.
        Everything is a square in characteristic 2."""
        if self.order is None:
            raise FieldError("squareness is only decided in finite residue fields")
        if a.is_zero():
            return True
        if self.char == 2:
            return True
        return is_square(self.norm(a))

    def sqrt(self, a: Polynomial) -> Polynomial:
        """Canonical square root (Tonelli-Shanks, smallest non-residue)."""
        if a.is_zero():
            return self.zero()
        q = self.order
        if self.char == 2:
            return self.pow(a, q // 2)
        if not self.is_square(a):
            raise FieldError("not a square in the residue field")
        if q % 4 == 3:
            r = self.pow(a, (q + 1) // 4)
        else:
            m, s = q - 1, 0
            while m % 2 == 0:
                m //= 2
                s += 1
            z = self._smallest_nonsquare()
            c = self.pow(z, m)
            r = self.pow(a, (m + 1) // 2)
            t = self.pow(a, m)
            while not t.is_one():
                i, tt = 0, t
                while not tt.is_one():
                    tt = self.mul(tt, tt)
                    i += 1
                b = self.pow(c, 1 << (s - i - 1))
                r = self.mul(r, b)
                c = self.mul(b, b)
                t = self.mul(t, c)
                s = i
        other = self.neg(r)
        if other.sort_key() < r.sort_key():
            r = other
        return r

    def _smallest_nonsquare(self):
        """The first non-square in the canonical order of residues, in which
        the constant coefficient varies fastest, so the base constants come
        first.  In even degree they are all squares (F_q lies in F_{q^2},
        which lies in F_{q^k}, and every element of F_q is a square in
        F_{q^2}), so the scan skips them; in odd degree a constant c has
        norm c^k and is a square iff it is one in F_q."""
        base_elems = list(self.base.elements())
        # product varies its last factor fastest: reversed, the constant term
        coeff_tuples = product(base_elems, repeat=self.deg)
        if self.deg % 2 == 0:
            coeff_tuples = islice(coeff_tuples, len(base_elems), None)
        for coeffs in coeff_tuples:
            e = Polynomial(self.base, coeffs[::-1])
            if not e.is_zero() and not self.is_square(e):
                return e
        raise FieldError("no non-square in residue field")

    def trace_to_f2(self, a: Polynomial) -> int:
        """Absolute trace F_{2^k} -> F_2 (char 2 only): sum of a^(2^i)."""
        if self.char != 2:
            raise FieldError("absolute trace to F_2 needs characteristic 2")
        k = self.order.bit_length() - 1
        acc = self.zero()
        t = a
        for _ in range(k):
            acc = self.add(acc, t)
            t = self.mul(t, t)
        if not acc.is_constant():
            raise ArithmeticError("trace did not land in the prime field")
        c = acc.constant_coeff()
        return 0 if c.is_zero() else 1

    def min_poly(self, a: Polynomial) -> Polynomial:
        """Monic minimal polynomial of a over the coefficient field."""
        powers = []
        t = self.one()
        for _ in range(self.deg + 1):
            powers.append([t[i] for i in range(self.deg)])
            t = self.mul(t, a)
        coeffs = min_poly_of_powers(powers, self.base)
        return Polynomial(self.base, coeffs)
