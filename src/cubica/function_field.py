"""Places and divisors of K = k(x), residues and valuations at a place, and
the genus of a cubic cover from its ramification data.

A finite place is a monic irreducible polynomial; the infinite place is a
marker with degree 1.  Divisors are finite multiplicity maps.
"""

from __future__ import annotations

from .algebra import (FieldError, Polynomial, RationalFunction, ResidueField,
                      is_irreducible, poly_factor, squarefree_decomposition)


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


def _multiplicity(poly: Polynomial, p: Polynomial):
    """(m, poly / p^m) for the largest m with p^m dividing the nonzero poly."""
    m = 0
    while True:
        q, r = divmod(poly, p)
        if not r.is_zero():
            return m, poly
        poly, m = q, m + 1


def place_factors(poly: Polynomial, hints=None, used=None):
    """[(Place, mult)] for the finite places where poly vanishes, or for
    those whose multiplicity the predicate `used` accepts: sorted by place
    over a finite field, in hint order over Q.

    The hints, irreducible polynomials, are divided out first, in
    their order; over a finite field `poly_factor` then factors what is
    left, and leaves the squarefree pieces of the multiplicities `used`
    rejects unsplit.  Over Q the hints must cover every factor whose
    multiplicity `used` accepts: the squarefree decomposition of what is
    left shows that without factoring it.  The answer is exact for any
    irreducible hints: each one that divides is a place with its full
    multiplicity, so what is left has only the places no hint names.  A
    missing hint costs a factorization, a hint that does not divide one
    `divmod`.
    """
    if poly.is_constant():
        return []
    finite = poly.field.order is not None
    if hints is None and not finite:
        raise FieldError("factorization over Q needs caller-supplied place hints")
    rem = poly.monic()
    out = []
    for h in hints or ():
        place = Place.finite(h, check=False)   # refuses a constant hint
        m, rem = _multiplicity(rem, place.poly)
        if m and (used is None or used(m)):
            out.append((place, m))
    if rem.degree > 0:
        if finite:
            out += [(Place.finite(p, check=False), m) for p, m in poly_factor(rem, used)]
        elif any(used is None or used(m) for _, m in squarefree_decomposition(rem)):
            raise FieldError("place hints do not cover all factors")
    if finite:
        out.sort(key=lambda t: t[0].sort_key())
    return out


def pole_divisor(f: RationalFunction, hints=None, used=None) -> dict:
    """{place: order} over the poles of f, or over those whose order `used`
    accepts: the finite poles in `place_factors` order, then infinity."""
    out = dict(place_factors(f.den, hints, used))
    order = f.num.degree - f.den.degree   # the zero function has no poles
    if order > 0 and (used is None or used(order)):
        out[Place.infinity(f.field)] = order
    return out


def value_at(f: RationalFunction, place: Place):
    """The residue class of f at the place, None at a pole: an element of
    k at infinity and at a place of degree one, of the residue field at a
    place of higher degree."""
    if place.infinite:
        order = f.den.degree - f.num.degree   # the zero function is 0 here
        if order < 0:
            return None
        return f.field.zero if order > 0 else f.num.leading() / f.den.leading()
    R = place.residue_field
    den = R(f.den)
    if den.is_zero():
        return None
    val = R(f.num) / den
    return R.lift(val).constant_coeff() if place.degree == 1 else val


def valuation(f: RationalFunction, place: Place) -> int:
    """v_p(f); at infinity this is deg(den) - deg(num)."""
    if f.is_zero():
        raise ZeroDivisionError("valuation of the zero function")
    if place.infinite:
        return f.degree_at_infinity()
    return _multiplicity(f.num, place.poly)[0] - _multiplicity(f.den, place.poly)[0]


def divisor_of(f: RationalFunction, factors=None) -> Divisor:
    """The principal divisor of f.

    The places come from `place_factors`: over Q the caller must pass
    `factors`, irreducible polynomials that jointly cover every
    irreducible factor of num and den; over a finite field they are
    optional.
    """
    if f.is_zero():
        raise ZeroDivisionError("divisor of the zero function")
    div = Divisor(place_factors(f.num, factors))
    for place, mult in place_factors(f.den, factors):
        div.add(place, -mult)
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
