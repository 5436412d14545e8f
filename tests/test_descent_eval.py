"""theta(m) and f = sigma(theta)/theta on polynomial pairs, against the boxed
reference: Horner's rule over A + B*y with rational-function parts (each
step in normal form), then a division through the norm.

Seeded rational functions of degree 0-6 in m, over F_5, F_13, F_101 and Q,
on all three branches of `ConicParametrization`: deg f = 1, a square
leading coefficient, and the slope through an affine point."""

import random
from fractions import Fraction

import pytest

from cubica.algebra import (Polynomial, PrimeField, QQ, RationalFunction,
                            is_square, smallest_nonsquare)
from cubica.descent import _at_m, _ring_element, _sigma_quotient
from cubica.quadratic import QuadraticModel

FIELDS = {"F5": PrimeField(5), "F13": PrimeField(13),
          "F101": PrimeField(101), "Q": QQ}
BRANCHES = ("degree_one", "square_lc", "slope")


# -- the boxed reference: parts are RationalFunctions, normalized every step --


def ref_mul(f_rat, x, y):
    (a1, b1), (a2, b2) = x, y
    return a1 * a2 + b1 * b2 * f_rat, a1 * b2 + b1 * a2


def ref_div(f_rat, x, y):
    """x / y = x * conj(y) / N(y)."""
    a, b = ref_mul(f_rat, x, (y[0], -y[1]))
    n = y[0] * y[0] - y[1] * y[1] * f_rat
    return a / n, b / n


def ref_horner(field, poly, m, f_rat):
    zero = RationalFunction.zero(field)
    acc = (zero, zero)
    for c in reversed(poly.coeffs):
        a, b = ref_mul(f_rat, acc, m)
        acc = (a + c, b)
    return acc


def ref_at_m(rf, par):
    field, f_rat = par.field, par.ring.f_rat
    m = (par.m_expr.a, par.m_expr.b)
    return ref_div(f_rat, ref_horner(field, rf.num, m, f_rat),
                   ref_horner(field, rf.den, m, f_rat))


def ref_sigma_quotient(theta, f_rat):
    return ref_div(f_rat, (theta[0], -theta[1]), theta)


# -- inputs ---------------------------------------------------------------------


def rand_coeff(field, rng):
    if field.order is None:
        return field(Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
    return field(rng.randrange(field.order))


def rand_poly(field, deg, rng, monic=False):
    cs = [rand_coeff(field, rng) for _ in range(deg)]
    lead = field.one if monic else rand_coeff(field, rng)
    while lead.is_zero():
        lead = rand_coeff(field, rng)
    return Polynomial(field, cs + [lead])


def rand_squarefree_quadratic(field, lead, rng):
    x = Polynomial.x(field)
    while True:
        f = (x * x + x * rand_coeff(field, rng) + rand_coeff(field, rng)) * lead
        disc = f[1] * f[1] - field(4) * f[2] * f[0]
        if not disc.is_zero():
            return f


def parametrization(field, branch, rng):
    x = Polynomial.x(field)
    point = None
    if branch == "degree_one":
        f = x * rand_coeff(field, rng) + rand_coeff(field, rng)
        while f.degree < 1:
            f = x * rand_coeff(field, rng) + rand_coeff(field, rng)
    elif branch == "square_lc":
        s = field(rng.randint(1, 4))
        f = rand_squarefree_quadratic(field, s * s, rng)
    elif field.order is None:
        # 2x^2 + b x + 1 passes through (0, 1); 2 is not a rational square
        f = x * x * 2 + x * rand_coeff(field, rng) + 1
        point = (0, 1)
    else:
        f = rand_squarefree_quadratic(field, smallest_nonsquare(field), rng)
    par = QuadraticModel.kummer(f).parametrize(point)
    lc_square = f.degree == 2 and is_square(f.leading())
    assert (f.degree, lc_square) == {"degree_one": (1, False),
                                     "square_lc": (2, True),
                                     "slope": (2, False)}[branch]
    return par


def rational_functions(field, rng):
    """Degree 0-6 in numerator and denominator; the polynomials (den = 1)
    and the num-heavy ones have a pole at m = infinity, where m has its."""
    out = [RationalFunction.one(field), RationalFunction.x(field)]
    for dn in range(7):
        out.append(RationalFunction(rand_poly(field, dn, rng)))
    for _ in range(6):
        dn, dd = rng.randint(0, 6), rng.randint(1, 6)
        out.append(RationalFunction(rand_poly(field, dn, rng),
                                    rand_poly(field, dd, rng, monic=True)))
    return out


def normal_form(pair):
    return tuple((part.num.vals, part.den.vals) for part in pair)


@pytest.mark.parametrize("branch", BRANCHES)
@pytest.mark.parametrize("name", sorted(FIELDS))
def test_pair_evaluation_matches_the_boxed_horner(name, branch):
    field = FIELDS[name]
    rng = random.Random(f"descent-eval:{name}:{branch}")
    # over Q one conic per branch: the boxed reference's gcds dominate there
    for _ in range(2 if field.order else 1):
        par = parametrization(field, branch, rng)
        ring = par.ring
        for rf in rational_functions(field, rng):
            U, V, N = _at_m(rf, par)
            theta = ring.as_pair(_ring_element(ring, U, V, N))
            ref = ref_at_m(rf, par)
            assert normal_form(theta) == normal_form(ref)
            f_pair = ring.as_pair(_sigma_quotient(ring, U, V))
            assert normal_form(f_pair) == normal_form(
                ref_sigma_quotient(ref, ring.f_rat))
