"""theta(m) and f = sigma(theta)/theta on polynomial triples (U + V y)/N,
against boxed references.

Nonconstant closures: Horner's rule over A + B*y with rational-function
parts (each step in normal form), then a division through the norm; seeded
rational functions of degree 0-6 in m, over F_5, F_13, F_101 and Q, on all
three branches of `ConicParametrization`: deg f = 1, a square leading
coefficient, and the slope through an affine point.  The same reference
checks the table of powers of m that a parametrization keeps, asked for
in any order, and the table of a second chart through another point.

Constant closures qK, q = k(sqrt(d)): the computation over q(x), where
sigma is the coefficient-wise Frobenius: f = conj(theta)/theta, and each
e = P + Q sqrt(d) split as P = (e + conj e)/2, Q = (e - conj e)/(2 sqrt(d));
over F_5, F_13 and F_101, for theta, f and the twists."""

import random
from fractions import Fraction

import pytest

from cubica.acceptance import random_places
from cubica.algebra import (Polynomial, PrimeField, QQ, RationalFunction,
                            is_square, smallest_nonsquare)
from cubica.descent import (_at_m, _norm, _pair, _sigma_quotient, construct,
                            make_problem, norm_one_cube_reps, twists_descent)
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
    field, f_rat = par.field, RationalFunction(par.model.f)
    P, Q, D = par.m
    m = (RationalFunction(P, D), RationalFunction(Q, D))
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
        f = par.model.f
        for rf in rational_functions(field, rng):
            U, V, N = _at_m(rf, par)
            theta = _pair((U, V, N))
            ref = ref_at_m(rf, par)
            assert normal_form(theta) == normal_form(ref)
            f_t = _sigma_quotient(U, V, f)
            assert normal_form(_pair(f_t)) == normal_form(
                ref_sigma_quotient(ref, RationalFunction(f)))
            assert _norm(f_t, f, "f * sigma(f) is not constant").is_one()


# -- the power table of one parametrization ----------------------------------------


def degree_in_m(rf):
    return max(rf.num.degree, rf.den.degree, 0)


def value(rf, t):
    return rf.num.evaluate(t) / rf.den.evaluate(t)


def another_point(par):
    """A point (X(t), Y(t)) of the conic with y != 0, other than the
    center (x0, y0) of a slope chart, for t = 1, 2, ..."""
    P, _, D = par.m
    center = (-D.constant_coeff(), -P.constant_coeff())
    for k in range(1, 20):
        t = par.field(k)
        if par.X.den.evaluate(t).is_zero():
            continue
        x, y = value(par.X, t), value(par.Y, t)
        if not y.is_zero() and (x, y) != center:
            return x, y
    raise AssertionError("no second point found")


@pytest.mark.parametrize("branch", BRANCHES)
@pytest.mark.parametrize("name", sorted(FIELDS))
def test_the_power_table_gives_the_same_values_in_any_order(name, branch):
    """One parametrization's table, asked for n in descending, ascending
    and shuffled repeated order (each on a fresh model of the same f), gives
    the boxed Horner's values and never holds more than max n + 1 powers;
    a chart of the same model through another point keeps its own table."""
    field = FIELDS[name]
    seed = f"descent-eval-order:{name}:{branch}"
    rfs = sorted(rational_functions(field, random.Random(seed)), key=degree_in_m)
    if field.order is None:
        rfs = rfs[::3]   # the boxed reference's gcds dominate over Q
    ref_par = parametrization(field, branch, random.Random(seed))
    refs = [normal_form(ref_at_m(rf, ref_par)) for rf in rfs]
    ascending = list(range(len(rfs)))
    repeated = ascending * 2
    random.Random(seed).shuffle(repeated)
    for order in (ascending[::-1], ascending, repeated):
        par = parametrization(field, branch, random.Random(seed))
        top = 0
        for k in order:
            assert normal_form(_pair(_at_m(rfs[k], par))) == refs[k]
            top = max(top, degree_in_m(rfs[k]))
            assert len(par.m_powers) == top + 1
    other = par.model.parametrize(point=another_point(par))
    assert other is not par and other.m_powers is not par.m_powers
    if branch == "slope":
        assert other.m != par.m
    for rf in rfs[::2]:
        assert normal_form(_pair(_at_m(rf, other))) == normal_form(ref_at_m(rf, other))
    assert len(other.m_powers) == max(map(degree_in_m, rfs[::2])) + 1
    assert len(par.m_powers) == top + 1


# -- constant closures: the reference over q(x) -----------------------------------


def map_rf(e, fn, field):
    return RationalFunction(e.num.map_coeffs(fn, field),
                            e.den.map_coeffs(fn, field))


def conj_rf(e):
    """The coefficient-wise Frobenius of q = F_{p^2} over F_p."""
    return map_rf(e, lambda c: c ** c.field.char, e.field)


def descend(e, field):
    """e in q(x) with coefficients in k, over k."""
    def down(c):
        c = c.field.lift(c)
        assert c.degree < 1
        return c[0]

    return map_rf(e, down, field)


def ref_split(e, par):
    """(P, Q) over k(x) with e = P + Q sqrt(d)."""
    two = par.qfield(2)
    conj_e = conj_rf(e)
    return (descend((e + conj_e) / two, par.field),
            descend((e - conj_e) / (two * par.root_d), par.field))


def lift(e, q):
    return map_rf(e, q, q)


@pytest.mark.parametrize("p", [5, 13, 101])
def test_constant_closure_matches_the_q_reference(p):
    field = PrimeField(p)
    closure = QuadraticModel.constant(field, smallest_nonsquare(field))
    par = closure.parametrize()
    q = par.qfield
    rng = random.Random(f"descent-eval:constant:{p}")
    twisted = 0
    for count in (1, 1, 2, 2, 3, 3, 4):
        T = random_places(closure, field, rng, count)
        res = construct(make_problem(closure, T, [rng.choice((1, -1)) for _ in T]))
        theta = Polynomial.one(q)
        for ch in res.problem.choices:
            theta = theta * par.upstairs_place(ch.place, ch.rho)
        theta = RationalFunction(theta)
        f = conj_rf(theta) / theta
        assert normal_form(res.theta) == normal_form(ref_split(theta, par))
        assert normal_form(res.f_pair) == normal_form(ref_split(f, par))
        P, Q = res.f_pair
        f_lift = lift(P, q) + lift(Q, q) * par.root_d
        assert f_lift == f
        reps = norm_one_cube_reps(q)
        ref_alphas = [descend(f * u + conj_rf(f * u), field) for u in reps]
        assert res.model.alpha == ref_alphas[0]
        twists = twists_descent(res)
        assert ([normal_form((t.alpha,)) for t in twists]
                == [normal_form((a,)) for a in ref_alphas])
        twisted += len(reps) > 1
    assert twisted == (7 if (p + 1) % 3 == 0 else 0)
