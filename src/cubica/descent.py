"""Impurely cubic extensions with prescribed quadratic closure K' and total
ramification T, by descending a Kummer extension of K'.

Every split place p of T picks one of the two places above it via a residue
sign rho; the product of a function theta with prescribed divisor (zeros at
the chosen places, poles in a Galois-stable divisor) yields f = sigma(theta)
/ theta with f*sigma(f) constant, and y = w + c/w for w^3 = c f satisfies
y^3 = 3c y + alpha with alpha = c (f + sigma(f)).

Three divisor shapes, by the parity of deg T and the stable points of K':
  even            poles spread over the pullback of a degree-one place of K
  odd_stable_point poles at a Galois-stable degree-one place
  case_2b          deg T odd, branch locus a single degree-two place: no
                   stable odd divisor exists; a degree-one auxiliary place
                   kappa and its mirror function l with l*sigma(l) = c yield
                   the generalized equation with c != 1 and simple poles
                   (the classical c = 1 form, which must carry one pole of
                   order 2, is attached as `unit_form`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .algebra import (Element, FieldError, Polynomial, RationalFunction,
                      sqrt)
from .function_field import Place
from .models import CubicModel, sorted_places
from .quadratic import (ConicParametrization, INF_MARK, QuadraticModel,
                        SPLIT, canonical_square_const)


@dataclass(frozen=True)
class UpstairsChoice:
    """A place of T together with the residue rho of the closure generator
    selecting which place above it is the zero of theta."""
    place: Place
    rho: object


@dataclass
class DescentProblem:
    closure: QuadraticModel
    choices: list
    twist: Element = None

    @property
    def places(self):
        return [ch.place for ch in self.choices]


@dataclass
class DescentResult:
    model: CubicModel
    case: str
    c: Element
    theta: tuple               # (P, Q) with theta = P + Q r
    f_pair: tuple              # (A, B) with f = A + B r
    closure: QuadraticModel
    problem: DescentProblem
    unit_form: CubicModel = None   # case_2b: the classical c = 1 model
    lam: Element = None            # the constant f * sigma(f)


def exists_descent(closure: QuadraticModel, places) -> bool:
    """A cubic extension with closure K' totally ramified exactly on T exists
    iff T is nonempty and every place of T splits in K'."""
    places = list(places)
    if not places:
        return False
    return all(closure.split_kind(p) == SPLIT for p in places)


def make_problem(closure: QuadraticModel, places, signs=None,
                 twist=None) -> DescentProblem:
    """Problem with explicit sign choices; signs[i] in {+1, -1} relative to
    the canonical square root at each place (default all +1)."""
    places = list(places)
    if signs is None:
        signs = [1] * len(places)
    choices = []
    for p, s in zip(places, signs):
        rho = closure.canonical_rho(p)
        if s < 0:
            rho = closure.other_rho(p, rho)
        choices.append(UpstairsChoice(p, rho))
    return DescentProblem(closure, choices, twist=twist)


def construct(problem: DescentProblem) -> DescentResult:
    """The explicit minimal model for the given problem."""
    closure = problem.closure
    places = problem.places
    if not places:
        raise FieldError("T must be nonempty")
    if len(set(places)) != len(places):
        raise FieldError("places of T must be distinct")
    if closure.field.char == 2:
        raise FieldError("characteristic-2 descent is not supported")
    if not exists_descent(closure, places):
        raise FieldError("some place of T does not split in the closure")
    if closure.is_constant_extension():
        return _construct_constant(problem)
    return _construct_conic(problem)


# ---------------------------------------------------------------------------
# constant closure K' = qK
# ---------------------------------------------------------------------------


def _construct_constant(problem: DescentProblem) -> DescentResult:
    closure = problem.closure
    par = closure.parametrize()
    ring = par.ring
    q = par.qfield
    theta_poly = Polynomial.one(q)
    for ch in problem.choices:
        theta_poly = theta_poly * par.upstairs_place(ch.place, ch.rho)
    theta = RationalFunction(theta_poly)
    f = RationalFunction(par.conj_poly(theta_poly), theta_poly)
    if problem.twist is not None:
        u = q(problem.twist.val if isinstance(problem.twist, Element) else problem.twist)
        if not q.norm(u).is_one():
            raise FieldError("twist parameter must have norm 1")
        f = f * u
    norm_f = ring.norm(f)
    if not (norm_f.is_constant() and norm_f.constant_value().is_one()):
        raise ArithmeticError("f * sigma(f) is not 1 (internal error)")
    alpha = ring.trace(f)
    field = closure.field
    model = CubicModel.impure(field.one, alpha)
    return DescentResult(model=model, case="even", c=field.one,
                         theta=ring.as_pair(ring.element(theta)),
                         f_pair=ring.as_pair(ring.element(f)),
                         closure=closure, problem=problem, lam=field.one)


# ---------------------------------------------------------------------------
# nonconstant closure: work on the parametrized m-line
# ---------------------------------------------------------------------------


def _eval_at_ring(rf: RationalFunction, elt, ring):
    num = _eval_poly(rf.num, elt, ring)
    den = _eval_poly(rf.den, elt, ring)
    return num / den


def _eval_poly(poly: Polynomial, elt, ring):
    acc = ring.element(RationalFunction.zero(ring.field))
    for c in reversed(poly.coeffs):
        acc = acc * elt + c
    return acc


def _realize_theta(net, field) -> RationalFunction:
    num = Polynomial.one(field)
    den = Polynomial.one(field)
    inf_mult = 0
    for place, mult in net.items():
        if mult == 0:
            continue
        if place.infinite:
            inf_mult = mult
        elif mult > 0:
            num = num * place.poly ** mult
        else:
            den = den * place.poly ** (-mult)
    theta = RationalFunction(num, den)
    if theta.degree_at_infinity() != inf_mult:
        raise ArithmeticError("theta divisor is not balanced (internal error)")
    return theta


def _net_add(net, place, mult):
    net[place] = net.get(place, 0) + mult


def _construct_conic(problem: DescentProblem) -> DescentResult:
    closure = problem.closure
    field = closure.field
    if problem.twist is not None:
        raise FieldError("nonconstant closures admit no nontrivial twists")
    par = closure.parametrize()
    ring = par.ring
    deg_t = sum(ch.place.degree for ch in problem.choices)

    net = {}
    for ch in problem.choices:
        _net_add(net, par.upstairs_place(ch.place, ch.rho), 1)
    base_net = dict(net)

    eta = par.infinity_pullback()
    fixed = par.sigma_fixed_points()
    ell_elt = None
    c = field.one
    if deg_t % 2 == 0:
        case = "even"
        e = deg_t // 2
        for place, mult in eta.items():
            _net_add(net, place, -e * mult)
    else:
        stable = _stable_degree_one(fixed, field)
        if stable is not None:
            case = "odd_stable_point"
            _net_add(net, stable, -deg_t)
        else:
            case = "case_2b"
            kappa_minus, kappa_plus = _choose_kappa(par, field)
            e = (deg_t + 1) // 2
            _net_add(net, kappa_minus, 1)
            for place, mult in eta.items():
                _net_add(net, place, -e * mult)
            ell_elt, c = _mirror_function(par, ring, kappa_minus, kappa_plus)

    theta = _realize_theta(net, field)
    theta_elt = _eval_at_ring(theta, par.m_expr, ring)
    f_elt = ring.conj(theta_elt) / theta_elt
    if ell_elt is not None:
        f_elt = ell_elt * f_elt
    norm_f = ring.norm(f_elt)
    if not norm_f.is_constant():
        raise ArithmeticError("f * sigma(f) is not constant (internal error)")
    lam = norm_f.constant_value()
    if lam != c:
        raise ArithmeticError("f * sigma(f) differs from the expected constant")
    alpha = ring.trace(f_elt) * c
    model = CubicModel.impure(c, alpha)

    unit_form = None
    if case == "case_2b":
        unit_form = _unit_form_case_2b(problem, par, ring, base_net, eta, deg_t)

    return DescentResult(model=model, case=case, c=c,
                         theta=ring.as_pair(theta_elt), f_pair=ring.as_pair(f_elt),
                         closure=closure, problem=problem,
                         unit_form=unit_form, lam=lam)


def _stable_degree_one(fixed, field):
    """The Galois-stable degree-one place to pile the poles on: the fixed
    point over infinity when there is one, else the smallest branch point."""
    over_inf = [mv for mv, xv in fixed if xv == INF_MARK]
    if over_inf:
        return _mvalue_to_place(over_inf[0], field)
    finite = sorted(((xv, mv) for mv, xv in fixed if xv != INF_MARK),
                    key=lambda t: t[0].sort_key())
    if finite:
        return _mvalue_to_place(finite[0][1], field)
    return None


def _mvalue_to_place(v, field) -> Place:
    if v == INF_MARK:
        return Place.infinity(field)
    return Place.finite(Polynomial(field, [-v, field.one]), check=False)


def _choose_kappa(par: ConicParametrization, field):
    """A deterministic degree-one place of the m-line not fixed by sigma."""
    candidates = [INF_MARK] + [field(i) for i in range(3)]
    for v in candidates:
        w = par.sigma.apply(v)
        if w != v:
            return _mvalue_to_place(v, field), _mvalue_to_place(w, field)
    raise ArithmeticError("no moving rational point found")


def _mirror_function(par, ring, kappa_minus: Place, kappa_plus: Place):
    """l with div(l) = kappa^- - kappa^+, rescaled so that the constant
    c = l * sigma(l) is the canonical square-class representative."""
    field = ring.field
    x = Polynomial.x(field)
    if kappa_minus.infinite:
        ell = RationalFunction(Polynomial.one(field), kappa_plus.poly)
    elif kappa_plus.infinite:
        ell = RationalFunction(kappa_minus.poly)
    else:
        ell = RationalFunction(kappa_minus.poly, kappa_plus.poly)
    ell_elt = _eval_at_ring(ell, par.m_expr, ring)
    c0_rf = ring.norm(ell_elt)
    if not c0_rf.is_constant():
        raise ArithmeticError("l * sigma(l) is not constant (internal error)")
    c0 = c0_rf.constant_value()
    c_target = canonical_square_const(c0)
    ratio = c_target / c0
    g = sqrt(ratio) if field.order is not None else _sqrt_rational(ratio)
    ell_elt = ell_elt * g
    return ell_elt, c_target


def _sqrt_rational(e: Element) -> Element:
    from .quadratic import _sqrt_const
    return _sqrt_const(e)


def _unit_form_case_2b(problem, par, ring, base_net, eta, deg_t) -> CubicModel:
    """The classical c = 1 equation: theta gets a triple cancellation at the
    smallest odd-degree chosen place, producing a single pole of order 2."""
    field = ring.field
    odd = [ch for ch in problem.choices if ch.place.degree % 2 == 1]
    odd.sort(key=lambda ch: (ch.place.degree,) + ch.place.sort_key())
    p1 = odd[0]
    net = dict(base_net)
    _net_add(net, par.upstairs_place(p1.place, p1.rho), -3)
    e = (deg_t - 3 * p1.place.degree) // 2
    for place, mult in eta.items():
        _net_add(net, place, -e * mult)
    theta = _realize_theta(net, field)
    theta_elt = _eval_at_ring(theta, par.m_expr, ring)
    f_elt = ring.conj(theta_elt) / theta_elt
    nrm = ring.norm(f_elt)
    if not (nrm.is_constant() and nrm.constant_value().is_one()):
        raise ArithmeticError("unit-form f has nonunit norm (internal error)")
    alpha = ring.trace(f_elt)
    return CubicModel.impure(field.one, alpha)


# ---------------------------------------------------------------------------
# enumeration and twists
# ---------------------------------------------------------------------------


def enumerate_descents(closure: QuadraticModel, places) -> list:
    """All 2^(t-1) descents (first sign fixed, absorbing global negation);
    empty when no descent exists."""
    places = sorted_places(places)
    if not exists_descent(closure, places):
        return []
    t = len(places)
    out = []
    for tail in product((1, -1), repeat=t - 1):
        signs = (1,) + tail
        out.append(construct(make_problem(closure, places, signs)))
    return out


def _multiplicative_generator(qfield):
    order = qfield.order
    divisors = [d for d in range(1, order) if (order - 1) % d == 0 and d < order - 1]
    for e in qfield.elements():
        if e.is_zero():
            continue
        if all(not (e ** d).is_one() for d in divisors):
            return e
    raise ArithmeticError("no generator found")


def norm_one_cube_reps(qfield) -> list:
    """Representatives of N_1/N_1^3 for the norm-1 subgroup N_1 of q^*."""
    p = qfield.p
    gen = _multiplicative_generator(qfield)
    n1 = gen ** (p - 1)          # generates the norm-1 subgroup, order p + 1
    if (p + 1) % 3 != 0:
        return [qfield.one]
    return [qfield.one, n1, n1 * n1]


def twists_descent(result: DescentResult) -> list:
    """All twists of a descent: trivial unless the closure is constant, in
    which case one model per class of N_1/N_1^3."""
    closure = result.closure
    if not closure.is_constant_extension():
        return [result.model]
    par = closure.parametrize()
    ring = par.ring
    q = par.qfield
    p_rf, q_rf = result.f_pair
    f = ring.element(p_rf.map_coeffs(lambda e: q(e.val), q)
                     + q_rf.map_coeffs(lambda e: q(e.val), q)
                     * Polynomial.constant(q, ring.root_d))
    out = []
    for u in norm_one_cube_reps(q):
        fu = f * u
        alpha = ring.trace(fu)
        out.append(CubicModel.impure(closure.field.one, alpha))
    return out


# ---------------------------------------------------------------------------
# character-sum cross count
# ---------------------------------------------------------------------------


def serre_count(s: int, t: int) -> Fraction:
    """Isomorphism classes of covers of the line with s double and t triple
    branch points, by the character-sum count of monodromy tuples: the S_3
    character table for s >= 1 (dividing by |S_3| since the tuples generate
    S_3 and have no automorphisms), and the Z/3 variant modulo inversion for
    s = 0."""
    if s < 0 or t < 1:
        raise FieldError("need s >= 0 and t >= 1")
    if s == 0:
        # tuples of nontrivial elements of Z/3 with zero sum, mod inversion
        n_tuples = Fraction(2 ** t + 2 * (-1) ** t, 3)
        return n_tuples / 2
    # |2-cycle class| = 3, |3-cycle class| = 2; chi over {triv, sign, std};
    # the standard character vanishes on 2-cycles, killing its term for s >= 1
    chi_sum = Fraction(1) + Fraction((-1) ** s)
    n_solutions = Fraction(3 ** s * 2 ** t, 6) * chi_sum
    return n_solutions / 6
