"""Places and divisors of K = k(x), valuations, and the genus of a cubic
cover from its ramification data.

A finite place is a monic irreducible polynomial; the infinite place is a
marker with degree 1.  Divisors are finite multiplicity maps.
"""

from __future__ import annotations

from .algebra import (FieldError, Polynomial, RationalFunction, ResidueField,
                      is_irreducible, poly_factor)


class Place:
    """A place of k(x): monic irreducible polynomial, or infinity."""

    __slots__ = ("field", "poly", "infinite", "_residue_field")

    def __init__(self, field, poly=None, infinite=False):
        self.field = field
        self.infinite = infinite
        self.poly = None if infinite else poly.monic()
        self._residue_field = None

    @staticmethod
    def infinity(field):
        return Place(field, infinite=True)

    @staticmethod
    def finite(poly: Polynomial, check=True):
        if poly.degree < 1:
            raise FieldError("a finite place needs a non-constant polynomial")
        if check and not is_irreducible(poly):
            raise FieldError(f"{poly!r} is not irreducible")
        return Place(poly.field, poly=poly)

    @property
    def degree(self):
        return 1 if self.infinite else self.poly.degree

    @property
    def residue_field(self) -> ResidueField:
        """k[x]/(poly) of a finite place, built on first use."""
        if self.infinite:
            raise FieldError("the residue field is built for finite places only")
        if self._residue_field is None:
            self._residue_field = ResidueField(self.poly, check=False)
        return self._residue_field

    def __eq__(self, other):
        if not isinstance(other, Place):
            return NotImplemented
        if self.infinite or other.infinite:
            return self.infinite == other.infinite and self.field == other.field
        return self.poly == other.poly

    def __hash__(self):
        if self.infinite:
            return hash((self.field, "inf"))
        return hash(self.poly)

    def sort_key(self):
        if self.infinite:
            return (0, ())
        return (1,) + self.poly.sort_key()

    def __repr__(self):
        return "(inf)" if self.infinite else f"({self.poly!r})"


class Divisor:
    """Formal Z-linear combination of places."""

    def __init__(self, entries=None):
        self._m = {}
        if entries:
            for place, mult in entries:
                self.add(place, mult)

    def add(self, place: Place, mult: int):
        if mult == 0:
            return
        new = self._m.get(place, 0) + mult
        if new == 0:
            self._m.pop(place, None)
        else:
            self._m[place] = new

    def multiplicity(self, place: Place) -> int:
        return self._m.get(place, 0)

    def items(self):
        return sorted(self._m.items(), key=lambda t: t[0].sort_key())

    @property
    def degree(self):
        return sum(p.degree * m for p, m in self._m.items())

    def __add__(self, other):
        out = Divisor(self.items())
        for p, m in other.items():
            out.add(p, m)
        return out

    def __neg__(self):
        return Divisor([(p, -m) for p, m in self.items()])

    def __sub__(self, other):
        return self + (-other)

    def __eq__(self, other):
        if not isinstance(other, Divisor):
            return NotImplemented
        return self._m == other._m

    def __bool__(self):
        return bool(self._m)

    def __repr__(self):
        if not self._m:
            return "0"
        return " + ".join(f"{m}*{p!r}" for p, m in self.items())


def valuation(f: RationalFunction, place: Place) -> int:
    """v_p(f); at infinity this is deg(den) - deg(num)."""
    if f.is_zero():
        raise ZeroDivisionError("valuation of the zero function")
    if place.infinite:
        return f.degree_at_infinity()
    v = 0
    num = f.num
    while True:
        q, r = divmod(num, place.poly)
        if not r.is_zero():
            break
        num = q
        v += 1
    den = f.den
    while True:
        q, r = divmod(den, place.poly)
        if not r.is_zero():
            break
        den = q
        v -= 1
    return v


def divisor_of(f: RationalFunction, factors=None) -> Divisor:
    """The principal divisor of f.

    Over a finite field the numerator and denominator are factored; over Q
    the caller must pass `factors`, a list of monic irreducible polynomials
    that jointly cover every irreducible factor of num and den.
    """
    if f.is_zero():
        raise ZeroDivisionError("divisor of the zero function")
    div = Divisor()
    if factors is None:
        if f.field.order is None:
            raise FieldError("divisor_of over Q needs caller-supplied factors")
        for poly, mult in poly_factor(f.num):
            div.add(Place.finite(poly, check=False), mult)
        for poly, mult in poly_factor(f.den):
            div.add(Place.finite(poly, check=False), -mult)
    else:
        rem_num, rem_den = f.num.monic(), f.den.monic()
        for poly in factors:
            place = Place.finite(poly, check=False)
            v = valuation(f, place)
            div.add(place, v)
            if v > 0:
                rem_num = rem_num.exact_div(poly ** v)
            elif v < 0:
                rem_den = rem_den.exact_div(poly ** (-v))
        if rem_num.degree > 0 or rem_den.degree > 0:
            raise FieldError("supplied factors do not cover the divisor")
    div.add(Place.infinity(f.field), f.degree_at_infinity())
    if div.degree != 0:
        raise ArithmeticError("principal divisor of nonzero degree (internal error)")
    return div


def genus_of_cubic(total, partial, char: int) -> int:
    """Genus of a cubic cover of the line with triple ramification exactly
    on `total` and double ramification exactly on `partial`.

    Tame double points contribute their degree to the different; in
    characteristic 2 they are wild with different exponent 2 (the unique
    choice consistent with the catalogued families).
    """
    if char == 3:
        raise FieldError("characteristic 3 is unsupported")
    deg_t = sum(p.degree for p in total)
    deg_s = sum(p.degree for p in partial)
    w = 2 if char == 2 else 1
    two_g_minus_2 = -6 + 2 * deg_t + w * deg_s
    if two_g_minus_2 % 2 != 0:
        raise ArithmeticError(f"inconsistent ramification data (odd 2g-2 = {two_g_minus_2})")
    g = (two_g_minus_2 + 2) // 2
    if g < 0:
        raise ArithmeticError(f"inconsistent ramification data (genus {g} < 0)")
    return g
