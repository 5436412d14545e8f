"""Small exact linear algebra over any field: solving and minimal
polynomials, for the residue fields' `min_poly`.

A matrix is a list of rows, each a list of the field's payloads (an int in
[0, p) over F_p, a coefficient tuple over a residue field, a Fraction over
Q, ...), the layout ``poly.py`` keeps coefficients in; the vectors returned
are payload lists too.  One elimination loop serves every field through
the payload protocol (``_sub``/``_mul``/``_inv``).  Sizes here are tiny, so
this is plain Gauss-Jordan elimination with field division.
"""

from __future__ import annotations


def _rref(F, rows, ncols):
    """Reduced row echelon form of the payload rows in the first ncols
    columns, in place; returns the pivot column list.  Rows are replaced,
    never mutated, so the caller's row lists may be shared."""
    zero = F._zero_val()
    sub, mul = F._sub, F._mul
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != zero),
                     None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = F._inv(rows[r][c])
        prow = rows[r] = [mul(e, inv) for e in rows[r]]
        for i, row in enumerate(rows):
            f = row[c]
            if f != zero and i != r:
                rows[i] = [sub(a, mul(f, b)) for a, b in zip(row, prow)]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots


def solve(F, rows, rhs, ncols):
    """One solution of A x = b as a payload vector, or None when
    inconsistent."""
    work = [r + [v] for r, v in zip(rows, rhs)]
    pivots = _rref(F, work, ncols)
    zero = F._zero_val()
    if any(row[-1] != zero for row in work[len(pivots):]):
        return None
    x = [zero] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = work[r][-1]
    return x


def min_poly_of_powers(F, powers):
    """Given 1, e, e^2, ... as payload coordinate vectors over F, the monic
    minimal polynomial of e as a payload list, lowest first."""
    n = len(powers[0])
    for d in range(1, len(powers)):
        rows = [[powers[j][i] for j in range(d)] for i in range(n)]
        rhs = [powers[d][i] for i in range(n)]
        sol = solve(F, rows, rhs, d)
        if sol is not None:
            return [F._neg(c) for c in sol] + [F._one_val()]
    raise ArithmeticError("no linear dependency found")
