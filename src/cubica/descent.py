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

Both closure shapes are K' = K(y) with y^2 = f, f the constant d for the
constant closure qK (where deg T is always even), and one construction
serves both: theta is built from its divisor on the line of K' and the
parametrization's `at_m` gives it, like f and l, as a polynomial triple
(U, V, N) over k[x], meaning (U + V y)/N.  On a conic K' = k(m), theta(m)
and l(m) are sums over the powers of m = (P + y)/D.  The parametrization
builds and keeps what is read off its m-line: the powers of m, the stable
place (the point above a degree-one branch place) and l; `construct` only
reads them.

`make_problem` takes the square root rho of f at every place of T, and
`construct` checks each rho as a witness (one residue product) instead of
deciding squareness again; over Q, where squareness is not decided, the
witness is the caller's certificate.  alpha is put into normal form when
the model is built; theta and f are kept as triples and put into normal
form when first read.

The model knows its places: it carries the polynomials of the finite
places of T and of the branch locus of K' as place hints, which the
analyzer divides out before it factors anything.  alpha has its poles on
T, and for f = (U + V y)/N, alpha^2 - 4c^3 = c^2 (f - sigma f)^2 =
4c^2 V^2 y^2 / N^2 has its odd zeros on the branch locus, so what is left
is a square times a constant.  The hints take no part in equality,
hashing, repr or JSON.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product

from .algebra import Element, FieldError, Polynomial, RationalFunction
from .algebra.fields import _factor_int
from .function_field import Place
from .models import CubicModel, sorted_places
from .quadratic import QuadraticModel, SPLIT, _norm, kummer_residue


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

    @property
    def places(self):
        return [ch.place for ch in self.choices]


@dataclass
class DescentResult:
    """The model with its witnesses.  theta and f are kept as the triples
    (U, V, N) of `_finish`; `theta` and `f_pair` are their pairs
    (U/N, V/N) in normal form, built when first read."""
    model: CubicModel
    case: str
    c: Element
    theta_triple: tuple        # (U, V, N) with theta = (U + V y)/N
    f_triple: tuple            # (U, V, N) with f = (U + V y)/N
    closure: QuadraticModel
    problem: DescentProblem
    unit_form: CubicModel = None   # case_2b: the classical c = 1 model

    @cached_property
    def theta(self) -> tuple:
        """(P, Q) with theta = P + Q y."""
        return _pair(self.theta_triple)

    @cached_property
    def f_pair(self) -> tuple:
        """(A, B) with f = A + B y."""
        return _pair(self.f_triple)


def exists_descent(closure: QuadraticModel, places) -> bool:
    """A cubic extension with closure K' totally ramified exactly on T exists
    iff T is nonempty and every place of T splits in K'."""
    places = list(places)
    if not places:
        return False
    return all(closure.split_kind(p) == SPLIT for p in places)


def make_problem(closure: QuadraticModel, places, signs=None) -> DescentProblem:
    """Problem with explicit sign choices; signs[i] in {+1, -1} relative to
    the canonical square root at each place (default all +1)."""
    places = list(places)
    if signs is None:
        signs = [1] * len(places)
    choices = []
    for p, s in zip(places, signs):
        rho = closure.canonical_rho(p)
        choices.append(UpstairsChoice(p, rho if s > 0 else -rho))
    return DescentProblem(closure, choices)


def construct(problem: DescentProblem) -> DescentResult:
    """The explicit minimal model for the given problem, for either closure
    shape: theta by the shape of its divisor (module docstring) on the line
    of K', carried down by the parametrization's `at_m`.

    Each residue sign rho is checked as a witness that its place splits:
    rho != 0 and rho^2 = f at the place.  Only when that fails is the
    splitting decided, to tell a place that does not split from a wrong
    rho."""
    closure = problem.closure
    field = closure.field
    places = problem.places
    if not places:
        raise FieldError("T must be nonempty")
    if len(set(places)) != len(places):
        raise FieldError("places of T must be distinct")
    if field.char == 2:
        raise FieldError("characteristic-2 descent is not supported")
    for ch in problem.choices:
        if not _is_root(closure.f, ch):
            if closure.split_kind(ch.place) != SPLIT:
                raise FieldError("some place of T does not split in the closure")
            raise FieldError("the residue sign is not a square root of f "
                             f"at {ch.place!r}")
    par = closure.parametrize()
    deg_t = sum(ch.place.degree for ch in problem.choices)
    ups = [par.upstairs_place(ch.place, ch.rho) for ch in problem.choices]
    ell = unit_alpha = None
    c = field.one
    if deg_t % 2 == 0:
        case = "even"
        theta = _theta_at_m(par, ups, [], deg_t // 2)
    elif par.stable_place is not None:
        case = "odd_stable_point"
        theta = _theta_at_m(par, ups, [(par.stable_place, -deg_t)], 0)
    else:
        # sigma has no rational fixed point, so infinity moves: kappa^- is
        # infinity and kappa^+ = sigma(infinity) = a/c is finite
        case = "case_2b"
        theta = _theta_at_m(par, ups, [(Place.infinity(field), 1)],
                            (deg_t + 1) // 2)
        ell, c = par.mirror
        unit_alpha = _unit_form_case_2b(problem.choices, ups, par, deg_t)
    return _finish(problem, case, theta, c, ell, unit_alpha)


def _is_root(f, choice: UpstairsChoice) -> bool:
    """rho^2 = f at the place, read off `kummer_residue`, which is None
    where the place ramifies."""
    fbar = kummer_residue(f, choice.place)
    return fbar is not None and choice.rho * choice.rho == fbar


# ---------------------------------------------------------------------------
# elements (U + V y)/N of K' = K(y), y^2 = f, as triples of polynomials
# ---------------------------------------------------------------------------


def _sigma_quotient(U, V, f):
    """f = sigma(theta)/theta for theta = (U + V y)/N: (U - V y)^2 over the
    norm U^2 - V^2 f, in which N cancels."""
    uu, vvf = U * U, V * V * f
    return uu + vvf, U * V * -2, uu - vvf


def _times(s, t, f):
    """The product s * t."""
    (u1, v1, n1), (u2, v2, n2) = s, t
    return u1 * u2 + v1 * v2 * f, u1 * v2 + v1 * u2, n1 * n2


def _pair(t):
    """(U/N, V/N), each in normal form."""
    U, V, N = t
    return RationalFunction(U, N), RationalFunction(V, N)


def _f_and_alpha(theta, f, c, ell=None):
    """f = ell * sigma(theta)/theta, its norm checked against c, and
    alpha = c (f + sigma f) = 2c U/N for f = (U + V y)/N."""
    f_t = _sigma_quotient(theta[0], theta[1], f)
    if ell is not None:
        f_t = _times(ell, f_t, f)
    if _norm(f_t, f, "f * sigma(f) is not constant (internal error)") != c:
        raise ArithmeticError("f * sigma(f) differs from the expected constant")
    return f_t, RationalFunction(f_t[0] * (c + c), f_t[2])


def _finish(problem, case, theta, c, ell=None, unit_alpha=None) -> DescentResult:
    """The model y^3 = 3c y + alpha of `_f_and_alpha`; it and the unit form
    y^3 = 3y + unit_alpha carry the places of T and of the branch locus as
    place hints."""
    closure = problem.closure
    hints = tuple(place.poly for place in problem.places + closure.branch_places()
                  if not place.infinite)
    f_t, alpha = _f_and_alpha(theta, closure.f, c, ell)
    unit_form = (None if unit_alpha is None
                 else CubicModel.impure(closure.field.one, unit_alpha, hints))
    return DescentResult(model=CubicModel.impure(c, alpha, hints), case=case, c=c,
                         theta_triple=theta, f_triple=f_t,
                         closure=closure, problem=problem,
                         unit_form=unit_form)


# ---------------------------------------------------------------------------
# theta on the line of the closure: the m-line of a conic, q(x) for qK
# ---------------------------------------------------------------------------


def _theta_at_m(par, ups, extra, e):
    """theta(m) as a triple, for theta with divisor the sum of the places
    ups, plus the (place, mult) pairs of extra, minus e times the pullback
    of infinity; the places lie on the line of the closure, over q for qK."""
    field = ups[0].field
    net = Counter(ups)
    for place, mult in extra + [(p, -e * m) for p, m in par.infinity_pullback.items()]:
        net[place] += mult
    num = den = Polynomial.one(field)
    for place, mult in net.items():
        if place.infinite or mult == 0:
            continue
        if mult > 0:
            num = num * place.poly ** mult
        else:
            den = den * place.poly ** (-mult)
    theta = RationalFunction(num, den)
    if theta.degree_at_infinity() != net[Place.infinity(theta.field)]:
        raise ArithmeticError("theta divisor is not balanced (internal error)")
    return par.at_m(theta)


def _unit_form_case_2b(choices, ups, par, deg_t) -> RationalFunction:
    """alpha of the classical c = 1 equation: theta gets a triple
    cancellation at the smallest odd-degree chosen place (ups holds the
    upstairs place of each choice), producing a single pole of order 2."""
    p1, up = min(((ch, up) for ch, up in zip(choices, ups)
                  if ch.place.degree % 2 == 1),
                 key=lambda t: (t[0].place.degree,) + t[0].place.sort_key())
    theta = _theta_at_m(par, ups, [(up, -3)], (deg_t - 3 * p1.place.degree) // 2)
    return _f_and_alpha(theta, par.model.f, par.field.one)[1]


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
    """The first element of q^* in element order whose order is q - 1: e
    with e^((q - 1)/r) != 1 for every prime r dividing q - 1."""
    n = qfield.order - 1
    cofactors = [n // r for r, _ in _factor_int(n)]
    for e in qfield.elements():
        if e.is_zero():
            continue
        if all(not (e ** d).is_one() for d in cofactors):
            return e
    raise ArithmeticError("no generator found")


def norm_one_cube_reps(qfield) -> list:
    """Representatives of N_1/N_1^3 for the norm-1 subgroup N_1 of q^*."""
    p = qfield.char
    if (p + 1) % 3 != 0:
        return [qfield.one]
    gen = _multiplicative_generator(qfield)
    n1 = gen ** (p - 1)          # generates the norm-1 subgroup, order p + 1
    return [qfield.one, n1, n1 * n1]


def twists_descent(result: DescentResult) -> list:
    """All twists of a descent: trivial unless the closure is constant, in
    which case one model per class of N_1/N_1^3."""
    closure = result.closure
    if not closure.is_constant_extension():
        return [result.model]
    par = closure.parametrize()
    P, Q = result.f_pair
    out = []
    for u in norm_one_cube_reps(par.qfield):
        # f u = (P u0 + Q u1 d) + (P u1 + Q u0) sqrt(d) for u = u0 + u1 sqrt(d)
        u0, u1 = par.split(u)
        alpha = (P * u0 + Q * (u1 * par.d)) * 2
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
