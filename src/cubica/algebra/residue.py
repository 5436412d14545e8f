"""Residue fields k[x]/(m) for irreducible m: every finite extension field
of the library, F_{p^2} included.

A ResidueField is a field like those in ``.fields``: ``R(v)`` returns an
``Element`` whose payload is the tuple of the residue's coefficients as
base payloads, lowest degree first and trimmed (the layout of FLINT's
``fq_nmod``), so the sum, difference and product run the polynomial kernels
of ``.poly`` on those tuples, with their F_p and Q integer loops (the
product reduces by the monic modulus in the F_p remainder-only loop).
Elements compute with the ``Element`` operators, and ``fields.is_square``,
``sqrt``, ``smallest_nonsquare`` and ``trace_to_f2`` serve it through the
payload protocol (``_add``/``_mul``/``_inv``/``_norm``/``elements``/
``order``/...); ``sqrt`` descends from degree 1 and 2 to the base through
``_trace``, ``_embed`` and ``_disc_root``, and from every odd degree through
``_norm`` and the Frobenius map ``_frob``, whose rows the field keeps, and
``smallest_nonsquare`` of an odd-degree field is the base's.
Elements print as ``c0+c1*t+c2*t^2``, zero coefficients left out.
``norm`` and ``min_poly`` take an Element and descend to k; ``lift`` gives
its reduced representative as a Polynomial over k.
"""

from __future__ import annotations

from itertools import product

from .fields import Element, FieldError, PrimeField, _pow, sqrt
from .linalg import min_poly_of_powers
from .poly import (Polynomial, _add, _divmod, _Frobenius, _mul, _neg, _poly,
                   _rem, _sub, _trim)


class ResidueField:
    """F_q[x]/(m) (or Q[x]/(m)); payload: the trimmed coefficient tuple of
    the residue, a polynomial of degree below deg m.

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
        self._m = self.modulus.vals
        self.base = modulus.field
        self.deg = modulus.degree
        if self.base.order is not None:
            self.order = self.base.order ** self.deg
        else:
            self.order = None
        self.char = self.base.char
        self._power_sums = None
        self._frobenius = _Frobenius(self.base, self._m)
        self._hash = hash(("Res", self.modulus))
        self.zero = Element(self, ())
        self.one = Element(self, (self.base._one_val(),))

    def __call__(self, v) -> Element:
        """The residue of an Element of this field or of a field it
        coerces from, an int or Fraction, a Polynomial over the base, or a
        tuple (c0, c1, ...) of values the base takes."""
        if isinstance(v, Element) and v.field == self:
            return v
        base = self.base
        if isinstance(v, Polynomial):
            if v.field != base:
                raise FieldError("polynomial over a different field")
            vals = v.vals
        elif isinstance(v, tuple):
            vals = _trim([base(c).val for c in v], base._zero_val())
        else:
            vals = _trim([base(v).val], base._zero_val())
        return Element(self, tuple(_rem(base, vals, self._m)))

    def __eq__(self, other):
        return other is self or (isinstance(other, ResidueField)
                                 and other.modulus == self.modulus)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        if self.deg == 2 and isinstance(self.base, PrimeField):
            # F_{p^2} keeps its presentation F_p[t]/(t^2 - a t - b)
            p, (b, a, _) = self.base.p, self._m
            return f"{self.base!r}[t]/(t^2-{-a % p}t-{-b % p})"
        return f"{self.base!r}[t]/({self.format_element(self._m)})"

    # -- payload protocol ------------------------------------------------------

    def _zero_val(self):
        return ()

    def _one_val(self):
        return (self.base._one_val(),)

    def _add(self, a, b):
        return tuple(_add(self.base, a, b))

    def _sub(self, a, b):
        return tuple(_sub(self.base, a, b))

    def _mul(self, a, b):
        return tuple(_rem(self.base, _mul(self.base, a, b), self._m))

    def _neg(self, a):
        return tuple(_neg(self.base, a))

    def _inv(self, a):
        """By the extended Euclidean algorithm on m and a, keeping only the
        cofactor s_i of a in each remainder r_i = s_i a mod m."""
        B = self.base
        r0, r1, s0, s1 = self._m, a, (), (B._one_val(),)
        while len(r1) > 1:
            q, r = _divmod(B, r0, r1)
            r0, r1, s0, s1 = r1, r, s1, _sub(B, s0, _mul(B, q, s1))
        if not r1:
            raise ArithmeticError("element is not invertible modulo the modulus")
        return tuple(_mul(B, s1, [B._inv(r1[0])]))

    def _norm(self, a):
        """N(a) = Res(m, a), the product of a(alpha) over the roots alpha of
        the monic modulus m, by Res(f, g) = (-1)^(deg f deg g)
        lc(g)^(deg f - deg r) Res(g, r) for r = f mod g; a base payload."""
        B = self.base
        f, g, acc = self._m, a, B._one_val()
        while len(g) > 1:
            r = _rem(B, f, g)
            if not r:
                return B._zero_val()
            if (len(f) - 1) * (len(g) - 1) % 2:
                acc = B._neg(acc)
            acc = B._mul(acc, _pow(B, g[-1], len(f) - len(r)))
            f, g = g, r
        if not g:
            return B._zero_val()
        return B._mul(acc, _pow(B, g[0], len(f) - 1))

    def _trace(self, a):
        """Tr(a) down to the base, the sum of a_k P_k over the power sums P_k
        of the roots of m, which Newton's identities give from m once; a
        base payload."""
        B, m, n = self.base, self._m, self.deg
        if self._power_sums is None:
            sums = [B(n).val]
            for k in range(1, n):
                acc = B._mul(B(k).val, m[n - k])
                for i in range(1, k):
                    acc = B._add(acc, B._mul(m[n - i], sums[k - i]))
                sums.append(B._neg(acc))
            self._power_sums = sums
        acc = B._zero_val()
        for c, s in zip(a, self._power_sums):
            acc = B._add(acc, B._mul(c, s))
        return acc

    def _frob(self, a):
        """a^q for q the order of the base, by the Frobenius rows x^(iq) mod
        m, which the field keeps; a payload."""
        return tuple(self._frobenius(a))

    def _embed(self, c):
        """The payload of the base payload c."""
        return () if c == self.base._zero_val() else (c,)

    def _disc_root(self):
        """(u, d) for a quadratic modulus x^2 + m1 x + m0: u = 2x + m1, a
        payload, whose square is the discriminant d = m1^2 - 4 m0, a base
        payload (a non-square of the base in odd characteristic)."""
        B, (m0, m1, _) = self.base, self._m
        two = B._add(B._one_val(), B._one_val())
        disc = B._sub(B._mul(m1, m1), B._mul(B._add(two, two), m0))
        return tuple(_trim([m1, two], B._zero_val())), disc

    def sort_key(self, a):
        key = self.base.sort_key
        return (len(a) - 1, tuple(key(c) for c in reversed(a)))

    def elements(self, skip_base=False):
        """All residues, the constant coefficient varying fastest, so the
        base constants come first; with `skip_base` all but those, which are
        not built."""
        zero = self.base._zero_val()
        base_vals = [e.val for e in self.base.elements()]
        # product varies its last factor fastest; high = (c_{deg-1}, ..., c_1)
        highs = product(base_vals, repeat=self.deg - 1)
        if skip_base:
            next(highs)
        for high in highs:
            for c in base_vals:
                yield Element(self, tuple(_trim([c, *reversed(high)], zero)))

    def format_element(self, a):
        fmt, zero = self.base.format_element, self.base._zero_val()
        parts = [fmt(c) + ("" if i == 0 else "*t" if i == 1 else f"*t^{i}")
                 for i, c in enumerate(a) if c != zero]
        return "+".join(parts) or "0"

    def lift(self, e: Element) -> Polynomial:
        """The reduced representative of e, a Polynomial over the base of
        degree below deg m."""
        return _poly(self.base, list(self(e).val))

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
            powers.append(list(t) + [zero] * (self.deg - len(t)))
            t = self._mul(t, ev)
        return _poly(base, min_poly_of_powers(base, powers))
