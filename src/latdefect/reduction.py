"""Integral LLL reduction operating directly on Gram matrices.

Used only as preprocessing for the minimum searches of coset enumeration:
the output is a unimodular change of basis, so search results never depend
on reduction quality, only node counts do.
"""

from __future__ import annotations

from fractions import Fraction

from .linalg import clear_denominators, fraction_free_row, identity

# Lovasz constant of the swap test
DELTA = Fraction(3, 4)


def lll_reduce_gram(gram):
    """Return (reduced, u) with reduced = u^T gram u and u unimodular.

    Integral LLL (de Weger, J. Number Theory 26, 1987; Cohen, A Course in
    Computational Algebraic Number Theory, Alg. 2.6.7) on the Gram matrix
    scaled to integers: the leading Gram minors d[k] and
    lam[k][j] = d[j + 1] mu[k][j] stay integers and every division is exact.
    It takes exactly the size reductions (rounding mu half up) and swaps of
    rational LLL, so u is the one the Gram-Schmidt form over Fractions gives.
    reduced is the integer working matrix itself when gram is integral, and
    Fractions built once at the end otherwise; gram is never mutated. Raises
    NotPositiveDefiniteError when a non-positive Gram-Schmidt norm shows the
    form is not positive definite.
    """
    a, scale = clear_denominators(gram)
    n = len(a)
    u = identity(n)
    lovasz_num, lovasz_den = DELTA.numerator, DELTA.denominator
    lam = [[0] * n for _ in range(n)]
    d = [1] * (n + 1)  # d[k]: leading k x k minor of the current Gram matrix
    if n:
        fraction_free_row(a[0], 0, lam, d)

    def size_reduce(k: int, l: int) -> None:
        lk, dl = lam[k], d[l + 1]
        if 2 * abs(lk[l]) <= dl:
            return
        m = (2 * lk[l] + dl) // (2 * dl)
        for row in u:
            row[k] -= m * row[l]
        # symmetric Gram update for b_k <- b_k - m b_l
        akk = a[k][k] - 2 * m * a[k][l] + m * m * a[l][l]
        for j in range(n):
            a[k][j] -= m * a[l][j]
        for row in a:
            row[k] -= m * row[l]
        a[k][k] = akk
        lk[l] -= m * dl
        ll = lam[l]
        for i in range(l):
            lk[i] -= m * ll[i]

    def swap_step(k: int, kmax: int) -> None:
        for row in u:
            row[k], row[k - 1] = row[k - 1], row[k]
        a[k], a[k - 1] = a[k - 1], a[k]
        for row in a:
            row[k], row[k - 1] = row[k - 1], row[k]
        lk, lk1 = lam[k], lam[k - 1]
        for j in range(k - 1):
            lk[j], lk1[j] = lk1[j], lk[j]
        bar = lk[k - 1]  # unchanged by the swap
        big = (d[k - 1] * d[k + 1] + bar * bar) // d[k]
        for i in range(k + 1, kmax + 1):
            li = lam[i]
            t = li[k]
            li[k] = (d[k + 1] * li[k - 1] - bar * t) // d[k]
            li[k - 1] = (big * t + bar * li[k]) // d[k + 1]
        d[k] = big

    k = 1
    kmax = 0
    while k < n:
        if k > kmax:
            kmax = k
            fraction_free_row(a[k], k, lam, d)
        size_reduce(k, k - 1)
        bar = lam[k][k - 1]
        # B_k < (DELTA - mu^2) B_{k-1} with B_k = d[k+1] / d[k], mu = bar / d[k]
        if lovasz_den * d[k + 1] * d[k - 1] < lovasz_num * d[k] ** 2 - lovasz_den * bar * bar:
            swap_step(k, kmax)
            k = max(1, k - 1)
        else:
            for l in range(k - 2, -1, -1):
                size_reduce(k, l)
            k += 1
    if scale == 1:
        return a, u
    return [[Fraction(x, scale) for x in row] for row in a], u
