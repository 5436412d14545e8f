"""The payload linear algebra of `algebra.linalg` against a boxed reference:
Gauss-Jordan elimination on field Elements, the form `_rref` had before it
ran on payload rows.  Seeded random matrices, rank-deficient, wide and tall,
over F_13, F_{10^9+7}, F_{13^2} and Q; `ResidueField.min_poly`, whose
solve goes through the same elimination; and the kernels that the tests'
Riemann-Roch oracle (`rr_oracle.kernel_basis`) takes from it."""

import random
from fractions import Fraction

import pytest

from cubica.algebra import Element, Polynomial, PrimeField, QQ, ResidueField
from cubica.algebra.linalg import _rref, solve
from cubica.quadratic import canonical_quadratic_field
from rr_oracle import kernel_basis


def ref_rref(rows, ncols):
    """Reduced row echelon form of Element rows in place; the pivot list."""
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(rows)):
            if not rows[i][c].is_zero():
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [e * inv for e in rows[r]]
        for i in range(len(rows)):
            if i != r and not rows[i][c].is_zero():
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots


def ref_kernel_basis(rows, ncols, field):
    work = [list(r) for r in rows]
    pivots = ref_rref(work, ncols)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [field.zero] * ncols
        vec[fc] = field.one
        for r, pc in enumerate(pivots):
            vec[pc] = -work[r][fc]
        basis.append(vec)
    return basis


def ref_solve(rows, rhs, ncols, field):
    work = [list(r) + [v] for r, v in zip(rows, rhs)]
    pivots = ref_rref(work, ncols)
    for row in work:
        if all(e.is_zero() for e in row[:-1]) and not row[-1].is_zero():
            return None
    x = [field.zero] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = work[r][-1]
    return x


def ref_min_poly(R, e):
    """The monic minimal polynomial of e over the base of R, by solving for
    the first power of e that depends on the lower ones."""
    base = R.base
    powers, t = [], R.one
    for _ in range(R.deg + 1):
        powers.append([R.lift(t)[i] for i in range(R.deg)])
        t = t * e
    for d in range(1, R.deg + 1):
        rows = [[powers[j][i] for j in range(d)] for i in range(R.deg)]
        sol = ref_solve(rows, [powers[d][i] for i in range(R.deg)], d, base)
        if sol is not None:
            return Polynomial(base, [-c for c in sol] + [base.one])
    raise AssertionError("no dependency")


F13 = PrimeField(13)
FIELDS = [F13, PrimeField(1000000007), canonical_quadratic_field(F13), QQ]


def draw(field, rng):
    if field is QQ:
        return QQ(Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
    if isinstance(field, ResidueField):
        return field((rng.randrange(field.char), rng.randrange(field.char)))
    # small fields: about a third zeros, so pivots have to be searched for
    return field(rng.choice([0, 0, rng.randrange(field.p)]))


def random_matrix(field, rng, nrows, ncols, rank):
    """nrows x ncols of rank <= rank: a product of random nrows x rank and
    rank x ncols factors (rank 0 gives the zero matrix)."""
    left = [[draw(field, rng) for _ in range(rank)] for _ in range(nrows)]
    right = [[draw(field, rng) for _ in range(ncols)] for _ in range(rank)]
    return [[sum((left[i][k] * right[k][j] for k in range(rank)), field.zero)
             for j in range(ncols)] for i in range(nrows)]


def shapes():
    """(rows, cols, rank bound): square, wide and tall; full rank and
    rank-deficient."""
    for nrows, ncols in ((4, 4), (3, 7), (8, 3), (6, 9), (9, 5), (1, 5),
                         (5, 1)):
        for rank in sorted({0, 1, min(nrows, ncols) - 1, min(nrows, ncols)}):
            yield nrows, ncols, rank


def cases(field):
    rng = random.Random(f"linalg:{field!r}")
    for nrows, ncols, rank in shapes():
        for _ in range(3):
            yield random_matrix(field, rng, nrows, ncols, rank), ncols, rng


def payload(rows):
    return [[e.val for e in row] for row in rows]


def boxed(field, vec):
    return [Element(field, v) for v in vec]


def apply(rows, vec, field):
    return [sum((a * b for a, b in zip(row, vec)), field.zero) for row in rows]


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_rref_matches_the_boxed_reference(field):
    for rows, ncols, _ in cases(field):
        ref = [list(r) for r in rows]
        ref_pivots = ref_rref(ref, ncols)
        work = payload(rows)
        assert _rref(field, work, ncols) == ref_pivots
        assert work == payload(ref)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_kernel_basis_matches_the_boxed_reference(field):
    for rows, ncols, _ in cases(field):
        kern = kernel_basis(field, payload(rows), ncols)
        assert kern == payload(ref_kernel_basis(rows, ncols, field))
        rank = len(ref_rref([list(r) for r in rows], ncols))
        assert len(kern) == ncols - rank
        for vec in kern:
            assert all(e.is_zero() for e in apply(rows, boxed(field, vec), field))


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_solve_matches_the_boxed_reference(field):
    """Consistent right-hand sides A x0 and random ones, which a
    rank-deficient A mostly cannot reach."""
    for rows, ncols, rng in cases(field):
        x0 = [draw(field, rng) for _ in range(ncols)]
        for rhs in (apply(rows, x0, field),
                    [draw(field, rng) for _ in rows]):
            got = solve(field, payload(rows), [e.val for e in rhs], ncols)
            ref = ref_solve(rows, rhs, ncols, field)
            if ref is None:
                assert got is None
                continue
            assert got == [e.val for e in ref]
            assert apply(rows, boxed(field, got), field) == rhs


@pytest.mark.parametrize("modulus", [
    (F13, [2, 0, 0, 1]),                 # x^3 + 2 over F_13
    (PrimeField(1000000007), [1, 0, 1]),  # x^2 + 1
    (QQ, [-2, 0, 0, 1]),                 # x^3 - 2 over Q
], ids=["F13-cubic", "F1e9+7-quadratic", "Q-cubic"])
def test_min_poly_matches_the_boxed_reference(modulus):
    base, coeffs = modulus
    R = ResidueField(Polynomial(base, coeffs))
    rng = random.Random(f"min_poly:{R.modulus!r}")
    for _ in range(12):
        e = R(Polynomial(base, [draw(base, rng) for _ in range(R.deg)]))
        mp = R.min_poly(e)
        assert mp == ref_min_poly(R, e)
        assert mp.leading().is_one() and 1 <= mp.degree <= R.deg
        acc = R.zero
        for c in reversed(mp.coeffs):
            acc = acc * e + R(Polynomial.constant(base, c))
        assert acc.is_zero()
