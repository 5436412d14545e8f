"""Purely cubic extensions y^3 = beta with prescribed total ramification.

Given a set T of places, the admissible models are y^3 = prod P_i^{e_i}
over sign vectors e with e_1 = +1 (absorbing the global y -> 1/y flip) and
the mod-3 balance condition making infinity unramified (resp. ramified when
infinity lies in T).  Places are bucketed by degree mod 3: deg = 0 first,
then deg = -1 (these enter through the denominator), then deg = +1.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from .algebra import (FieldError, Polynomial, RationalFunction,
                      is_irreducible)
from .models import CubicModel


def _bucket_order(places):
    """Finite places sorted into the deg mod 3 buckets (0, -1, +1), each
    bucket in canonical order; returns (ordered places, s, r)."""
    b0 = sorted([p for p in places if p.degree % 3 == 0], key=lambda p: p.sort_key())
    b2 = sorted([p for p in places if p.degree % 3 == 2], key=lambda p: p.sort_key())
    b1 = sorted([p for p in places if p.degree % 3 == 1], key=lambda p: p.sort_key())
    ordered = b0 + b2 + b1
    return ordered, len(b0), len(b0) + len(b2)


def admissible_sign_vectors(T):
    """All sign vectors over the finite places of T: epsilon_1 = +1 and the
    tail sum is = 0 mod 3 when infinity is not in T, != 0 mod 3 otherwise.
    Yields (ordered finite places, s, r, vector)."""
    places = list(T)
    has_inf = any(p.infinite for p in places)
    finite = [p for p in places if not p.infinite]
    ordered, s, r = _bucket_order(finite)
    n = len(ordered)
    want_zero = not has_inf
    if n == 0:
        return
    for tail in product((1, -1), repeat=n - 1):
        eps = (1,) + tail
        total = sum(eps[s:]) % 3
        if (total == 0) == want_zero:
            yield ordered, s, r, eps


def model_from_signs(ordered, s, r, eps) -> CubicModel:
    """y^3 = prod_{i<=s} P_i^{e_i} * prod_{i>r} P_i^{e_i} /
    prod_{s<i<=r} P_i^{e_i}."""
    field = ordered[0].field
    num = Polynomial.one(field)
    den = Polynomial.one(field)
    for i, (place, e) in enumerate(zip(ordered, eps)):
        exp = -e if s <= i < r else e
        if exp > 0:
            num = num * place.poly ** exp
        else:
            den = den * place.poly ** (-exp)
    return CubicModel.pure(RationalFunction(num, den))


def enumerate_pure(T) -> list:
    """One pure model per kbar-isomorphism class fully ramified exactly on T
    (unit u = 1), ordered lexicographically in the sign vector."""
    T = list(T)
    if not T:
        raise FieldError("T must be nonempty")
    if len({q.field.char for q in T}) > 1:
        raise FieldError("mixed fields")
    if T[0].field.char == 3:
        raise FieldError("characteristic 3 is unsupported")
    if len(set(T)) != len(T):
        raise FieldError("places must be distinct")
    out = []
    for ordered, s, r, eps in admissible_sign_vectors(T):
        out.append(model_from_signs(ordered, s, r, eps))
    return out


def count_pure(s: int, t: int) -> int:
    """Number of kbar-classes with s places of degree = 0 mod 3 among t total:
    (1/3) 2^s (2^(t-s-1) - (-1)^(t-s-1)), continued as 2^(s-1) at t = s."""
    if s < 0 or t < s:
        raise FieldError("need 0 <= s <= t")
    if t == 0:
        return 0
    if t == s:
        return 2 ** (s - 1)
    val = Fraction(2 ** s, 3) * (2 ** (t - s - 1) - (-1) ** (t - s - 1))
    assert val.denominator == 1
    return int(val)


def recursion_pair(k: int):
    """(E_k, F_k): counts of {+-1}-vectors of length k with sum = 0 mod 3,
    resp. sum != 0 mod 3, in closed form."""
    if k < 1:
        raise FieldError("k must be >= 1")
    e = Fraction(2, 3) * (2 ** (k - 1) - (-1) ** (k - 1))
    f = Fraction(2, 3) * (2 ** k - (-1) ** k)
    return int(e), int(f)


def recursion_iterate(k: int):
    """(E_k, F_k) by iterating E_{i+1} = F_i, F_{i+1} = 2 E_i + F_i."""
    if k < 1:
        raise FieldError("k must be >= 1")
    e, f = 0, 2
    for _ in range(k - 1):
        e, f = f, 2 * e + f
    return e, f


def cube_class_reps(field) -> list:
    """Representatives of k^*/(k^*)^3 over a finite field, smallest first:
    {1} unless q = 1 mod 3, in which case three coset representatives."""
    if field.order is None:
        raise FieldError("cube classes enumerated over finite fields only")
    q = field.order
    if q % 3 != 1:
        return [field.one]
    nonzero = [e for e in field.elements() if not e.is_zero()]
    cubes = [e ** 3 for e in nonzero]
    reps, covered = [], set()
    for e in nonzero:
        if e._hash_val() in covered:
            continue
        reps.append(e)
        covered |= {(e * c)._hash_val() for c in cubes}
        if len(reps) == 3:
            break
    return reps


def twists_pure(model: CubicModel) -> list:
    """The twists y^3 = u*beta over the cube-class representatives u."""
    if model.kind != "pure":
        raise FieldError("twists_pure expects a pure model")
    return [CubicModel.pure(model.beta * u) for u in cube_class_reps(model.base)]


def smallest_irreducible(field, degree: int) -> Polynomial:
    """The first monic irreducible polynomial of the degree, scanning its
    lower coefficients in element order, the constant term slowest."""
    elems = list(field.elements())
    for low in product(elems, repeat=degree):
        p = Polynomial(field, list(low) + [field.one])
        if is_irreducible(p):
            return p
    raise FieldError("no irreducible polynomial found")


def bitwist_reps_deg3(field) -> list:
    """Representatives of the bi-twists of y^3 = x(x-1): one branch-locus
    shape per Galois-set structure of a degree-3 locus ({0,1,inf} split,
    point + quadratic, cubic) times a cube-class unit: 9 models when
    q = 1 mod 3, else 3."""
    x = Polynomial.x(field)
    shapes = [
        x * (x - 1),
        x * smallest_irreducible(field, 2),
        smallest_irreducible(field, 3),
    ]
    out = []
    for f in shapes:
        for u in cube_class_reps(field):
            out.append(CubicModel.pure(RationalFunction(f) * u))
    return out
