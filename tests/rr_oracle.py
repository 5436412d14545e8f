"""Riemann-Roch spaces on a split model: the independent class-group oracle
of the tests.

`cubica.hyper` decides class equality and the symmetric form of a class by
comparing balanced representatives, which `_reduce_once` computes.  The
tests check that group law against this oracle, which never reduces: it
decides principality by linear algebra on functions (a + b y)/den with
prescribed vanishing (`rr_space`), so a fault in the reduction step cannot
hide behind itself.

A Riemann-Roch space of div(u1, v1) - div(u2, v2) + n+ inf+ + n- inf-
(`WDivisor`) takes its affine conditions from one Cantor composition: h u1 =
a + b y lies in the ideal of iota div(u1, v1) + div(u2, v2), which
`hyper._compose` writes as s (u3, y - v3), so h = (a + b y)/(u1/s) with
a + b v3 = 0 mod u3 (rows from `coeff_vec`).  At inf+- y = +-x^(g+1) S(1/x)
for the series S of `SplitCurve.sqrt_series`, and `y_coeff_at_infinity`
reads the coefficient of x^j in x^i y off S.  Condition rows and kernel
vectors are lists of field payloads; `kernel_basis` eliminates with
`algebra.linalg._rref`.
"""

from __future__ import annotations

from dataclasses import dataclass

from cubica.algebra import Polynomial
from cubica.algebra.linalg import _rref
from cubica.algebra.poly import _poly, _rem, _trim
from cubica.hyper import MumfordClass, SplitCurve, _compose


def kernel_basis(F, rows, ncols):
    """Basis of the right kernel of the matrix, as payload vectors.

    The basis is the canonical one from reduced row echelon form (one vector
    per free column, deterministic)."""
    work = list(rows)
    pivots = _rref(F, work, ncols)
    pivot_set = set(pivots)
    zero, one = F._zero_val(), F._one_val()
    basis = []
    for fc in range(ncols):
        if fc in pivot_set:
            continue
        vec = [zero] * ncols
        vec[fc] = one
        for r, pc in enumerate(pivots):
            vec[pc] = F._neg(work[r][fc])
        basis.append(vec)
    return basis


@dataclass
class WDivisor:
    """div(u1, v1) - div(u2, v2) + n+ inf+ + n- inf- for the semi-reduced
    Mumford pairs pos = (u1, v1) and neg = (u2, v2), u1 and u2 monic."""
    pos: tuple
    neg: tuple
    n_plus: int
    n_minus: int

    def degree(self):
        return (self.pos[0].degree - self.neg[0].degree
                + self.n_plus + self.n_minus)


def divisor_of_class(curve: SplitCurve, D: MumfordClass) -> WDivisor:
    field = curve.field
    one, zero = Polynomial.one(field), Polynomial.zero(field)
    return WDivisor((D.u, D.v), (one, zero), D.n_plus, D.n_minus)


def divisor_difference(D1: MumfordClass, D2: MumfordClass) -> WDivisor:
    return WDivisor((D1.u, D1.v), (D2.u, D2.v),
                    D1.n_plus - D2.n_plus, D1.n_minus - D2.n_minus)


def y_coeff_at_infinity(curve: SplitCurve, i: int, j: int, sign: int, S):
    """The payload of the coefficient of x^j in x^i * y at inf+-
    (y = sign * x^(g+1) S(1/x)): sign * S[i + g + 1 - j], zero beyond
    the payload series S."""
    k = i + curve.g + 1 - j
    if not 0 <= k < len(S):
        return curve.field._zero_val()
    return S[k] if sign > 0 else curve.field._neg(S[k])


def coeff_vec(poly_for_a, poly_for_b, modulus, na, nb, cols):
    """Payload rows of the conditions A*a + B*b = 0 mod modulus on
    a = sum a_i x^i (i <= na) and b = sum b_i x^i (i <= nb), for
    A = poly_for_a and B = poly_for_b: one row per x^d below deg modulus,
    columns a_i then b_i.  The column of x^i A is x times that of x^(i-1) A,
    reduced mod modulus."""
    F, m = modulus.field, modulus.vals
    zero = F._zero_val()
    rows = [[zero] * cols for _ in range(modulus.degree)]
    for poly, first, count in ((poly_for_a, 0, na + 1),
                               (poly_for_b, na + 1, nb + 1)):
        rem = _rem(F, poly.vals, m)
        for i in range(first, first + count):
            if i > first and rem:
                rem = _rem(F, [zero] + rem, m)
            for d, c in enumerate(rem):
                rows[d][i] = c
    return rows


def rr_space(curve: SplitCurve, div: WDivisor):
    """Basis of L(div) = {h : (h) + div >= 0} as triples (a, b, den) with
    h = (a + b y)/den.

    For div = div(u1, v1) - div(u2, v2) + ..., h u1 is regular on the affine
    part, so it is a + b y, and as div(u1) = div(u1, v1) + iota div(u1, v1)
    it lies in the ideal of iota div(u1, v1) + div(u2, v2).  Cantor's
    composition of (u1, -v1) with (u2, v2) writes that ideal as
    s (u3, y - v3); so den = u1/s, and the affine conditions on
    h = (a + b y)/den are a + b v3 = 0 mod u3."""
    field = curve.field
    (u1, v1), (u2, v2) = div.pos, div.neg
    E, s = _compose(curve, MumfordClass(u1, (-v1) % u1, 0, 0),
                    MumfordClass(u2, v2, 0, 0))
    den = u1.exact_div(s)
    na = den.degree + max(0, div.n_plus, div.n_minus)
    nb = na - (curve.g + 1)
    cols = (na + 1) + (nb + 1 if nb >= 0 else 0)
    if cols <= 0:
        return []

    zero = field._zero_val()
    rows = coeff_vec(Polynomial.one(field), E.v, E.u, na, nb, cols)
    # infinity conditions
    for sign, weight in ((1, div.n_plus), (-1, div.n_minus)):
        w = -weight - den.degree
        top = max(na, nb + curve.g + 1) if nb >= 0 else na
        jmin = -w + 1
        if top < jmin:
            continue
        S = curve.sqrt_series(top - jmin + curve.g + 3)
        for j in range(jmin, top + 1):
            row = [zero] * cols
            if 0 <= j <= na:
                row[j] = field._one_val()
            for i in range(nb + 1):
                row[na + 1 + i] = y_coeff_at_infinity(curve, i, j, sign, S)
            rows.append(row)
    out = []
    for vec in kernel_basis(field, rows, cols):
        a = _poly(field, _trim(vec[:na + 1], zero))
        b = _poly(field, _trim(vec[na + 1:], zero))
        out.append((a, b, den))
    return out


def is_principal(curve: SplitCurve, div: WDivisor) -> bool:
    if div.degree() != 0:
        return False
    return len(rr_space(curve, div)) == 1


def rr_classes_equal(curve: SplitCurve, D1: MumfordClass,
                     D2: MumfordClass) -> bool:
    """D1 ~ D2, decided by the principality of D1 - D2."""
    if (D1.u, D1.v, D1.n_plus, D1.n_minus) == (D2.u, D2.v, D2.n_plus, D2.n_minus):
        return True
    return is_principal(curve, divisor_difference(D1, D2))


def _norm_quotient(curve: SplitCurve, a, b, den, div: WDivisor) -> Polynomial:
    """The monic x-projection of the affine part of div(h) + div for
    h = (a + b y)/den and div = div(u1, v1) - div(u2, v2) + ...: the norm
    a^2 - b^2 F times u1, divided exactly by den^2 u2.  The division leaves
    a remainder iff the reduced quotient has a nonconstant denominator."""
    u_s, rem = divmod((a * a - b * b * curve.F) * div.pos[0],
                      den * den * div.neg[0])
    if not rem.is_zero():
        raise ArithmeticError("unexpected denominator in the norm quotient")
    return u_s.monic()
