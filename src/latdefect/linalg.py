"""Exact linear algebra over Python ints and Fractions.

Dependency-free routines sized for the small dense matrices (rank <= ~40)
this package works with. No floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul
from typing import Sequence

from .errors import (
    FormatError, NotIntegerError, NotPositiveDefiniteError, NotSymmetricError, ToolkitError,
)

IntMatrix = Sequence[Sequence[int]]


def identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def transpose(mat):
    return [list(col) for col in zip(*mat)]


def mat_mul(a, b):
    bt = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in bt] for row in a]


def mat_vec(mat, vec):
    return [sum(map(mul, row, vec)) for row in mat]


def dot(u, v):
    return sum(map(mul, u, v))


def require_square(mat) -> None:
    """Raise FormatError naming the first row whose length is not the number
    of rows."""
    n = len(mat)
    for i, row in enumerate(mat):
        if len(row) != n:
            raise FormatError(f"row {i} has length {len(row)}, expected {n}")


def require_symmetric(mat) -> None:
    """FormatError unless mat is square (require_square), NotSymmetricError
    naming the first (i, j) with i < j and mat[i][j] != mat[j][i]."""
    require_square(mat)
    n = len(mat)
    for i in range(n):
        for j in range(i + 1, n):
            if mat[i][j] != mat[j][i]:
                raise NotSymmetricError(i, j, mat[i][j], mat[j][i])


def fraction_free_ldl(q) -> tuple[list[list[int]], list[int], int]:
    """Integer LDL^T data of a symmetric positive definite form q.

    With s the least scale making s * q integral, returns (lam, minors, s):
    minors[k] is the k-th leading principal minor of s * q (minors[0] = 1),
    and row i of lam holds lam[i][j] = minors[j + 1] * L[i][j] for j < i. So
    L[i][j] = lam[i][j] / minors[j + 1] and D[k] = minors[k + 1] / (minors[k] s).
    The recurrence is fraction-free Gram-Schmidt (Cohen, A Course in
    Computational Algebraic Number Theory, Alg. 2.6.7, step 2): every
    intermediate value is an integer minor, so each division is exact. A
    step whose product lam[k][i] lam[j][i] is 0 only scales val by
    minors[i + 1] / minors[i], so a run of them from a to b is one exact step
    val minors[b] / minors[a]; entry j takes one big-int step per index where
    lam[k] and lam[j] are both nonzero, not j steps. Only the lower triangle
    is read. Raises NotPositiveDefiniteError at the first
    non-positive minor, with its index (that of the first non-positive pivot
    of D) and its value.
    """
    a, scale = clear_denominators(q)
    n = len(a)
    lam = [[0] * i for i in range(n)]
    minors = [1] * (n + 1)
    for k in range(n):
        fraction_free_row(a[k], k, lam, minors)
    return lam, minors, scale


def fraction_free_row(gram_row, k: int, lam, minors) -> None:
    """Set lam[k][j] for j < k and minors[k + 1] from row k of an integer Gram
    matrix, given the rows and minors before k; see fraction_free_ldl."""
    row = lam[k]
    support = []  # the j < k set so far with row[j] != 0
    for j in range(k + 1):
        other = lam[j] if j < k else row
        val, last = gram_row[j], 0
        for i in support:
            if other[i]:
                if last < i and val:
                    val = val * minors[i] // minors[last]
                val = (minors[i + 1] * val - row[i] * other[i]) // minors[i]
                last = i + 1
        if last < j and val:
            val = val * minors[j] // minors[last]
        if j < k:
            row[j] = val
            if val:
                support.append(j)
        elif val <= 0:
            raise NotPositiveDefiniteError(k + 1, minor=val)
        else:
            minors[k + 1] = val


def factor_solve(factor, vec) -> list[int]:
    """adj(s q) vec = det(s q) (s q)^-1 vec from factor = fraction_free_ldl(q)
    = (lam, minors, s), in integers only, for n ints vec
    (IntegralLattice.solve checks them).

    Forward, the row step of fraction_free_row applied to vec as one more
    row gives row[j] = minors[j] y_j for L y = vec; so with
    z = D^-1 y, z_j = row[j] / minors[j + 1]. Back-substituting L^T x = z
    and scaling by det = minors[n] gives the integers
    N_i = det x_i = (det row[i] - sum over j > i of lam[j][i] N_j) / minors[i + 1].
    Both passes walk only the nonzeros of each lam[j], forward with runs of
    zero products jumped as in fraction_free_ldl, so they take O(n +
    nonzeros of lam) big-int steps. Each value is an integer minor, so every
    division is exact for a true factor; each, jumps included, is checked,
    and ToolkitError is raised when one is not.
    """
    lam, minors, _scale = factor
    row = list(vec)
    supports = [[i for i, x in enumerate(other) if x] for other in lam]
    for j, other in enumerate(lam):
        val, last = row[j], 0
        for i in supports[j]:
            if row[i]:
                if last < i and val:
                    val = exact_quotient(val * minors[i], minors[last])
                val = exact_quotient(minors[i + 1] * val - row[i] * other[i], minors[i])
                last = i + 1
        if last < j and val:
            val = exact_quotient(val * minors[j], minors[last])
        row[j] = val
    out = [minors[-1] * x for x in row]
    for j in reversed(range(len(lam))):
        out[j] = x = exact_quotient(out[j], minors[j + 1])
        for i in supports[j]:
            out[i] -= lam[j][i] * x
    return out


def exact_quotient(num: int, den: int) -> int:
    """num / den, raising ToolkitError when den does not divide num."""
    quotient, rest = divmod(num, den)
    if rest:
        raise ToolkitError(f"{num} is not divisible by {den}")
    return quotient


def ldl_decomposition(q) -> tuple[list[list[Fraction]], list[Fraction]]:
    """Q = L D L^T with L unit lower triangular, D positive diagonal.

    Built once from fraction_free_ldl, so the only Fractions are the result.
    Raises NotPositiveDefiniteError at the first non-positive pivot; the pivot
    index equals the index of the first failing leading principal minor.
    """
    lam, minors, scale = fraction_free_ldl(q)
    n = len(lam)
    zero, one = Fraction(0), Fraction(1)
    lower = [
        [Fraction(x, minors[j + 1]) for j, x in enumerate(row)] + [one] + [zero] * (n - i - 1)
        for i, row in enumerate(lam)
    ]
    diag = [Fraction(minors[k + 1], minors[k] * scale) for k in range(n)]
    return lower, diag


def integer_entries(values) -> tuple[int, ...]:
    """values as a tuple of ints, without truncation: the one integer rule.

    ints pass as they are and integral Fractions give their numerators; any
    other entry (a bool, a float, a string, a Fraction such as 1/2) raises
    NotIntegerError, where int() would silently round it toward zero. The
    common all-int case costs one type test per entry.
    """
    out = tuple(values)
    if all(type(x) is int for x in out):
        return out
    for x in out:
        if type(x) is not int and not (isinstance(x, Fraction) and x.denominator == 1):
            raise NotIntegerError(f"entry {x!r} is not an integer")
    return tuple(map(int, out))


def require_rational(x, what: str):
    """x itself when it is an int or a Fraction, else FormatError naming
    what: a bool, float or string is not taken as a rational."""
    if type(x) in (int, Fraction):
        return x
    raise FormatError(f"{what} {x!r} is not an int or Fraction")


def clear_denominators(mat) -> tuple[list[list[int]], int]:
    """(scale * mat, scale) for the least scale making every entry an integer,
    in new rows that callers may mutate; an all-int matrix is only copied."""
    if all(type(x) is int for row in mat for x in row):
        return [list(row) for row in mat], 1
    scale = lcm(*(x.denominator for row in mat for x in row))
    return [[x.numerator * (scale // x.denominator) for x in row] for row in mat], scale


def adjugate(mat: IntMatrix) -> tuple[list[list[int]], int]:
    """(adj, det) with adj = det * mat^-1, by fraction-free Gauss-Jordan.

    Each step replaces every other row by (pivot * row - factor * pivot_row)
    divided by the previous pivot. Every entry stays an integer minor, so each
    division is exact (Bareiss, Math. Comp. 22, 1968), and the last pivot is
    the determinant up to the sign of the row swaps. Raises ValueError on a
    singular matrix. Entries follow the one integer rule (integer_entries).
    """
    n = len(mat)
    a = [list(integer_entries(row)) + [1 if i == j else 0 for j in range(n)]
         for i, row in enumerate(mat)]
    sign = 1
    prev = 1
    for k in range(n):
        p = next((r for r in range(k, n) if a[r][k] != 0), None)
        if p is None:
            raise ValueError("matrix is singular")
        if p != k:
            a[k], a[p] = a[p], a[k]
            sign = -sign
        top = a[k][k + 1:]
        pivot = a[k][k]
        for i in range(n):
            if i != k:
                row = a[i]
                f = row[k]
                row[k + 1:] = [(pivot * x - f * y) // prev for x, y in zip(row[k + 1:], top)]
        prev = pivot
    if sign > 0:
        return [row[n:] for row in a], prev
    return [[-x for x in row[n:]] for row in a], -prev


def invert_matrix(mat) -> list[list[Fraction]]:
    """Inverse of a nonsingular square matrix with int or Fraction entries.

    Denominators are cleared by one scale s, so mat^-1 = s * adj / det for
    the adjugate of the integer matrix s * mat; Fractions are built only for
    the result.
    """
    rows, scale = clear_denominators(mat)
    adj, det = adjugate(rows)
    return [[Fraction(scale * x, det) for x in row] for row in adj]


def integer_matrix_inverse(mat: IntMatrix) -> list[list[int]]:
    """Inverse of a unimodular integer matrix, returned with integer entries."""
    rows, scale = clear_denominators(mat)
    if scale != 1:
        raise ToolkitError("matrix is not unimodular")
    adj, det = adjugate(rows)
    if abs(det) != 1:
        raise ToolkitError("matrix is not unimodular")
    return adj if det == 1 else [[-x for x in row] for row in adj]


def smith_normal_form(mat: IntMatrix) -> tuple[list[int], list[list[int]], list[list[int]]]:
    """U * mat * V = diag(d) with U, V unimodular, d[i] >= 0 and d[i] | d[i+1].

    Returns (d, U, V) where d has length min(rows, cols) and zeros, if any,
    sit at the end. Entries follow the one integer rule (integer_entries).
    """
    a = [list(integer_entries(row)) for row in mat]
    m = len(a)
    n = len(a[0]) if m else 0
    left = identity(m)
    right = identity(n)

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        left[i], left[j] = left[j], left[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in right:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, factor):
        a[dst] = [x + factor * y for x, y in zip(a[dst], a[src])]
        left[dst] = [x + factor * y for x, y in zip(left[dst], left[src])]

    def add_col(dst, src, factor):
        for row in a:
            row[dst] += factor * row[src]
        for row in right:
            row[dst] += factor * row[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        left[i] = [-x for x in left[i]]

    t = 0
    while t < min(m, n):
        # locate smallest-magnitude nonzero entry in the trailing block
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        swap_rows(t, best[0])
        swap_cols(t, best[1])
        if a[t][t] < 0:
            negate_row(t)
        dirty = False
        for i in range(t + 1, m):
            if a[i][t] != 0:
                add_row(i, t, -(a[i][t] // a[t][t]))
                if a[i][t] != 0:
                    dirty = True
        for j in range(t + 1, n):
            if a[t][j] != 0:
                add_col(j, t, -(a[t][j] // a[t][t]))
                if a[t][j] != 0:
                    dirty = True
        if dirty:
            continue
        pivot = a[t][t]
        offender = next(
            ((i, j) for i in range(t + 1, m) for j in range(t + 1, n) if a[i][j] % pivot),
            None,
        )
        if offender is not None:
            add_row(t, offender[0], 1)
            continue
        t += 1

    diag = [a[i][i] for i in range(min(m, n))]
    return diag, left, right


def hermite_row_basis(rows: IntMatrix) -> list[list[int]]:
    """Canonical row Hermite form: pivots positive, entries above a pivot
    reduced into [0, pivot). Zero rows are dropped; entries follow the one
    integer rule (integer_entries).

    Two passes (Cohen, A Course in Computational Algebraic Number Theory,
    2.4): Euclid steps below each pivot reach echelon form; then each row,
    from the second-to-last up, is reduced against the final rows below it
    at their pivot columns in order (a multiple of row k moves only columns
    from pivot k on). The form is unique, so it is the one that reducing
    above each pivot as it is found gives, with one row operation per
    nonzero quotient in place of one per pair of rows.
    """
    work = [list(r) for r in map(integer_entries, rows) if any(r)]
    if not work:
        return []
    pivots = []
    for col in range(len(work[0])):
        pivot_row = len(pivots)
        while True:
            nz = [i for i in range(pivot_row, len(work)) if work[i][col] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: (abs(work[i][col]), i))
            work[pivot_row], work[i0] = work[i0], work[pivot_row]
            done = True
            for i in range(pivot_row + 1, len(work)):
                if work[i][col] != 0:
                    q = work[i][col] // work[pivot_row][col]
                    work[i] = [x - q * y for x, y in zip(work[i], work[pivot_row])]
                    if work[i][col] != 0:
                        done = False
            if done:
                if work[pivot_row][col] < 0:
                    work[pivot_row] = [-x for x in work[pivot_row]]
                pivots.append(col)
                break
    for i in range(len(pivots) - 2, -1, -1):
        row = work[i]
        for k in range(i + 1, len(pivots)):
            q = row[pivots[k]] // work[k][pivots[k]]
            if q:
                row = [x - q * y for x, y in zip(row, work[k])]
        work[i] = row
    return work[:len(pivots)]


def reduce_mod_rows(vec, hnf_rows) -> list[int]:
    """Canonical representative of vec modulo the row lattice of hnf_rows;
    vec follows the one integer rule (integer_entries)."""
    out = list(integer_entries(vec))
    for row in hnf_rows:
        col = next(j for j, x in enumerate(row) if x != 0)
        q = out[col] // row[col]
        if q:
            out = [x - q * y for x, y in zip(out, row)]
    return out


def sign_normalize(vec) -> tuple:
    """Flip the sign so the first nonzero entry is positive."""
    for x in vec:
        if x != 0:
            return tuple(vec) if x > 0 else tuple(-y for y in vec)
    return tuple(vec)


def sign_representatives(vectors) -> list[tuple]:
    """One sign_normalize representative per +-pair among vectors, sorted."""
    return sorted({sign_normalize(v) for v in vectors})
