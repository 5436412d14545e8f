"""Seeded input generators for the four workloads and their censuses.

Everything here is plain integer (and Fraction) arithmetic and imports
nothing from `cubica`, so a change to the library's irreducibility tests,
square roots or factoring cannot change the inputs a seed produces.  Op `i`
of a run draws from its own `random.Random(f"{stream}:{seed}:{i}")`, so
the input stream is indexable and the same for every run of one seed,
however many ops a run gets through.

Inputs are returned as plain data (ints, tuples, Fractions); `workloads.py`
turns them into library objects outside the timed region.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

INF = "inf"

DESCENT_SMALL_PRIMES = (5, 7, 11, 13)
DESCENT_LARGE_PRIMES = (101, 257)
# The timed genus-2 covers run over primes near 10^9.  Over small primes
# about 2/p of the covers raise an untyped ArithmeticError today (a known
# defect); the census runs those primes, untimed, to count and name them.
GENUS2_FP_PRIMES = (1000000007, 1000000009, 998244353)
GENUS2_FP_CENSUS_PRIMES = (13, 101, 1009)

# the README golden curve x^8 + 4x^6 + 4x^4 - 5 with base point (1, 2)
GOLDEN_OCTIC = (4, 4, 0, -5)
GOLDEN_POINT = (1, 2)


def op_rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


# -- arithmetic in F_p[x] on coefficient lists (lowest degree first) -----------


def is_square_mod(a: int, p: int) -> bool:
    """Euler's criterion for a nonzero residue mod an odd prime."""
    return pow(a % p, (p - 1) // 2, p) == 1


def smallest_nonsquare_mod(p: int) -> int:
    return next(a for a in range(2, p) if not is_square_mod(a, p))


def _trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _polymod(a, m, p):
    """a mod m for monic m."""
    a = list(a)
    dm = len(m) - 1
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i] % p
        if c:
            for j in range(dm + 1):
                a[i - dm + j] = (a[i - dm + j] - c * m[j]) % p
    return _trim([c % p for c in a[:dm]])


def _polymulmod(a, b, m, p):
    prod = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    return _polymod(prod, m, p)


def residue_is_square(f, m, p):
    """Is f mod m a nonzero square in F_p[x]/(m), for m monic irreducible?
    (None when f vanishes mod m.)"""
    a = _polymod(f, m, p)
    if not a:
        return None
    e = (p ** (len(m) - 1) - 1) // 2
    result, base = [1], a
    while e:
        if e & 1:
            result = _polymulmod(result, base, m, p)
        base = _polymulmod(base, base, m, p)
        e >>= 1
    return result == [1]


def is_irreducible_small(m, p) -> bool:
    """Irreducibility of a monic polynomial of degree 1 to 3 over F_p (p odd):
    degree 1 always, degree 2 by Euler's criterion on the discriminant,
    degree 3 by having no root."""
    d = len(m) - 1
    if d == 1:
        return True
    if d == 2:
        b, a = m[0], m[1]
        disc = (a * a - 4 * b) % p
        return disc != 0 and not is_square_mod(disc, p)
    if d == 3:
        return all((((x + m[2]) * x + m[1]) * x + m[0]) % p for x in range(p))
    raise ValueError("degrees 1 to 3 only")


# -- descent ---------------------------------------------------------------------


def closure_menu_polys(p: int):
    """Coefficient lists of `cubica.acceptance.closure_menu(PrimeField(p))`,
    in menu order: the constant non-square, x, eps (x - 1), x (x - 1), the
    first irreducible monic quadratic irr in (b, a) order, and eps * irr."""
    eps = smallest_nonsquare_mod(p)
    b, a = next((b, a) for b in range(p) for a in range(p)
                if is_irreducible_small([b, a, 1], p))
    return [
        [eps],
        [0, 1],
        [(-eps) % p, eps],
        [0, p - 1, 1],
        [b, a, 1],
        [eps * b % p, eps * a % p, eps],
    ]


def _splits_at_infinity(f, p) -> bool:
    return (len(f) - 1) % 2 == 0 and is_square_mod(f[-1], p)


def descent_input(rng: random.Random, index: int, primes, t_max: int,
                  max_deg: int):
    """(p, closure index, places, signs) for op `index`.

    The shape of op `index` does not depend on the seed: t = 1 + index mod
    t_max varies fastest, then the prime, then the closure_menu entry; place
    j has degree 1 + (index + j) mod max_deg (always 2 for the constant
    closure, which splits only even-degree places), and when infinity splits
    it is the last place of every fifth op.  The seed draws the place
    polynomials among the split irreducibles of that degree (moving to the
    next degree when they run out), and the signs."""
    p = primes[(index // t_max) % len(primes)]
    menu = closure_menu_polys(p)
    idx = (index // (t_max * len(primes))) % len(menu)
    f = menu[idx]
    t = 1 + index % t_max
    with_inf = index % 5 == 0 and _splits_at_infinity(f, p)
    places = []
    seen = set()
    for j in range(t - 1 if with_inf else t):
        d = 2 if len(f) == 1 else 1 + (index + j) % max_deg
        for attempt in itertools.count(1):
            m = tuple(rng.randrange(p) for _ in range(d)) + (1,)
            if m not in seen and is_irreducible_small(m, p) \
                    and residue_is_square(f, m, p):
                break
            # over F_5 some closures have a single split place of degree 1
            if attempt % 64 == 0 and len(f) > 1:
                d = d % max_deg + 1
        seen.add(m)
        places.append(m)
    if with_inf:
        places.append(INF)
    signs = tuple(rng.choice((1, -1)) for _ in places)
    return p, idx, tuple(places), signs


def descent_small_input(seed: int, index: int):
    rng = op_rng("descent_small_q", seed, index)
    return descent_input(rng, index, DESCENT_SMALL_PRIMES, 4, 2)


def descent_large_input(seed: int, index: int):
    rng = op_rng("descent_large_q", seed, index)
    return descent_input(rng, index, DESCENT_LARGE_PRIMES, 6, 3)


# -- genus 2 -------------------------------------------------------------------------


def even_octic_through(a, b, c, x0, y0):
    """Coefficients (lowest first) of x^8 + a x^6 + b x^4 + c x^2 + d with d
    chosen so that (x0, y0) lies on y^2 = F(x)."""
    s = x0 * x0
    d = y0 * y0 - (((s + a) * s + b) * s + c) * s
    return (d, 0, c, 0, b, 0, a, 0, 1)


def _genus2_fp(rng: random.Random, p: int):
    a, b, c = (rng.randrange(p) for _ in range(3))
    x0, y0 = rng.randrange(1, p), rng.randrange(p)
    F = tuple(v % p for v in even_octic_through(a, b, c, x0, y0))
    return p, F, (x0, y0)


def genus2_fp_input(seed: int, index: int):
    """(p, octic coefficients mod p, base point) over the primes near 10^9."""
    rng = op_rng("genus2_fp", seed, index)
    return _genus2_fp(rng, GENUS2_FP_PRIMES[index % len(GENUS2_FP_PRIMES)])


def genus2_fp_census_input(seed: int, index: int):
    """The same kind of cover over F_13, F_101 and F_1009."""
    rng = op_rng("genus2_fp_census", seed, index)
    primes = GENUS2_FP_CENSUS_PRIMES
    return _genus2_fp(rng, primes[index % len(primes)])


def _genus2_q(rng: random.Random, index: int):
    """An octic through a rational point: every seventh op the golden curve."""
    if index % 7 == 0:
        a, b, c, _ = GOLDEN_OCTIC
        x0, y0 = GOLDEN_POINT
    else:
        a, b, c = (rng.randint(-6, 6) for _ in range(3))
        x0 = Fraction(rng.choice((1, 1, 2, 3)), rng.choice((1, 1, 2)))
        y0 = rng.choice((-1, 1)) * rng.randint(1, 9)
    F = even_octic_through(a, b, c, Fraction(x0), y0)
    return F, (Fraction(x0), Fraction(y0))


def genus2_q_input(seed: int, index: int):
    """(octic, point, n) over Q for a Mumford check; n cycles through 2..12."""
    rng = op_rng("genus2_q", seed, index)
    F, point = _genus2_q(rng, index)
    return F, point, 2 + index % 11


def genus2_q_census_input(seed: int, index: int):
    """(octic, point) over Q for a `parshin_cover` attempt."""
    rng = op_rng("genus2_q_census", seed, index)
    return _genus2_q(rng, index)
