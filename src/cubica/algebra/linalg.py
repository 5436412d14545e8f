"""Small exact linear algebra over any field: kernels, solving, rank.

Matrices are lists of rows of field Elements.  Everything is fraction-free
in spirit but uses field division directly; sizes here are tiny.
"""

from __future__ import annotations


def _rref(rows, ncols):
    """Reduced row echelon form in place; returns pivot column list."""
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


def kernel_basis(rows, ncols, field):
    """Basis of the right kernel of the matrix (list of coefficient vectors).

    The basis is the canonical one from reduced row echelon form (one vector
    per free column, deterministic)."""
    work = [list(r) for r in rows]
    pivots = _rref(work, ncols)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        vec = [field.zero] * ncols
        vec[fc] = field.one
        for r, pc in enumerate(pivots):
            vec[pc] = -work[r][fc]
        basis.append(vec)
    return basis


def solve(rows, rhs, ncols, field):
    """One solution of A x = b, or None when inconsistent."""
    work = [list(r) + [v] for r, v in zip(rows, rhs)]
    pivots = _rref(work, ncols)
    for row in work:
        if all(e.is_zero() for e in row[:-1]) and not row[-1].is_zero():
            return None
    x = [field.zero] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = work[r][-1]
    return x


def min_poly_of_powers(powers, field):
    """Given 1, e, e^2, ... as coordinate vectors over `field`, the monic
    minimal polynomial coefficients (lowest first) of e."""
    n = len(powers[0])
    for d in range(1, len(powers)):
        rows = [[powers[j][i] for j in range(d)] for i in range(n)]
        rhs = [powers[d][i] for i in range(n)]
        sol = solve(rows, rhs, d, field)
        if sol is not None:
            return [-c for c in sol] + [field.one]
    raise ArithmeticError("no linear dependency found")
