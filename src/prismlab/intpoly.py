"""Integer-valued polynomials in the binomial basis.

An element is a finite integer vector (a_0, ..., a_d) standing for
sum a_n * C(u, n), a `ringcore.BasisVector` over Z; Int is the h = 1 fibre
of qhopf's B_0 under c_n -> C(u, n).  Products use the Vandermonde
constants of the basis (`vandermonde`).  Powers, lambda-operations and the
delta operator work in value space: an element of degree <= D is fixed by
its values at 0..D, the operation is integer work per value, and the
coordinates are read back as forward differences at 0.  Monomial form
over Q is kept for the oracle `int_mul_rational` and for the delta-basis
expansion.
"""
from __future__ import annotations

import functools
import math

from .ringcore import (
    BasisVector, BoundExceeded, DomainError, IdentityFailed, IntRing,
    NotIntegral, PolyQuotRing, RatPoly, RatRing,
)


_RATPOLY = PolyQuotRing(RatRing(), None, "u")


def gen_binom(m: int, n: int) -> int:
    """C(m, n) for any integer m and n >= 0."""
    if n < 0:
        return 0
    if m >= 0:
        return math.comb(m, n)
    return (-1) ** n * math.comb(n - m - 1, n)


@functools.lru_cache(maxsize=None)
def binom_poly(n: int) -> RatPoly:
    """C(u, n) = u(u-1)...(u-n+1)/n! in Q[u], memoized."""
    R = _RATPOLY
    out = R.one
    for i in range(n):
        out = R.mul(out, R.make([-i, 1]))
    return R.div_int_exact(out, math.factorial(n))


class IntPoly(BasisVector):
    """Finite integer coordinate vector against the basis C(u, n)."""

    scalars = IntRing()
    symbol = "C(u,%d)"

    @classmethod
    def u(cls) -> "IntPoly":
        return cls.basis(1)

    def degree(self) -> int:
        return len(self.coords) - 1 if self.coords else -1

    def __call__(self, m: int) -> int:
        return sum(a * gen_binom(m, n) for n, a in enumerate(self.coords))

    def to_rational(self) -> RatPoly:
        R = _RATPOLY
        acc = R.zero
        for n, a in enumerate(self.coords):
            if a:
                acc = R.add(acc, R.mul_int(binom_poly(n), a))
        return acc

    def __mul__(self, other):
        return int_mul(self, other)

    def scale(self, n: int) -> "IntPoly":
        return IntPoly(tuple(n * a for a in self.coords))

    def __pow__(self, n: int) -> "IntPoly":
        if n < 0:
            raise ValueError("negative powers not supported")
        return _pointwise(self, n, lambda v: v ** n)


def to_binomial(poly) -> IntPoly:
    """Convert a rational polynomial (an element of Q[u], or its ints and
    Fractions, low degree first) to binomial coordinates via iterated
    finite differences at 0."""
    R = _RATPOLY
    coords = []
    current = R.make(poly)
    while current:
        a = current[0]          # Delta^n f(0), n = len(coords)
        if a.denominator != 1:
            raise NotIntegral("difference Delta^%d f(0) = %s is not an integer"
                              % (len(coords), a))
        coords.append(int(a))
        # Delta f(u) = f(u+1) - f(u)
        current = R.sub(R.subst(current, R.make([1, 1])), current)
    return IntPoly(tuple(coords))


@functools.lru_cache(maxsize=None)
def vandermonde(m: int, n: int) -> tuple:
    """((k, C(k, m) C(m, m+n-k)) for max(m, n) <= k <= m+n): the constants of
    C(u, m) C(u, n) = sum_k C(k, m) C(m, m+n-k) C(u, k)."""
    return tuple((k, math.comb(k, m) * math.comb(m, m + n - k))
                 for k in range(max(m, n), m + n + 1))


def int_mul(a: IntPoly, b: IntPoly) -> IntPoly:
    # integer arithmetic throughout; int_mul_rational is the oracle
    out = [0] * (len(a.coords) + len(b.coords) - 1)
    for m, am in enumerate(a.coords):
        if am:
            for n, bn in enumerate(b.coords):
                if bn:
                    c = am * bn
                    for k, g in vandermonde(m, n):
                        out[k] += c * g
    return IntPoly(tuple(out))


def _pointwise(x: IntPoly, n: int, f) -> IntPoly:
    """The element of degree <= n deg(x) whose value at m is f(x(m))."""
    vals = [0] * (n * max(x.degree(), 0) + 1)
    # the values of Delta^i x from those of Delta^(i+1) x and Delta^i x(0)
    for a in reversed(x.coords):
        acc = a
        for m, v in enumerate(vals):
            vals[m], acc = acc, acc + v
    vals = [f(v) for v in vals]
    coords = []
    while vals:
        coords.append(vals[0])
        vals = [b - a for a, b in zip(vals, vals[1:])]
    return IntPoly(tuple(coords))


def int_mul_rational(a: IntPoly, b: IntPoly) -> IntPoly:
    """Multiplication through the transient monomial form over Q."""
    return to_binomial(_RATPOLY.mul(a.to_rational(), b.to_rational()))


def lambda_op(n: int, x: IntPoly) -> IntPoly:
    """lambda_n(x) = x(x-1)...(x-n+1)/n!, integer-valued by Wilkerson."""
    if n < 0:
        raise ValueError("lambda operations are indexed by n >= 0")
    return _pointwise(x, n, lambda v: gen_binom(v, n))


def delta_p(x: IntPoly, p: int) -> IntPoly:
    """delta(x) = (x - x^p)/p; integrality is the Frobenius-fixed-point fact,
    and each value's division fails loudly if it broke."""
    def delta(v):
        q, r = divmod(v - v ** p, p)
        if r:
            raise NotIntegral("%d - %d^%d is not divisible by %d"
                              % (v, v, p, p))
        return q
    return _pointwise(x, p, delta)


def mahler_table(x: IntPoly, p: int, n: int) -> dict:
    """Smallest period p^k with x(a) = x(b) mod p^n whenever a = b mod p^k,
    plus the residue table.

    Periodicity is decided on coordinates: all values of g lie in p^n Z
    exactly when all binomial coordinates of g do."""
    d = max(x.degree(), 0)
    mod = p ** n
    cap = n + d + 2
    for k in range(cap + 1):
        if all(a % mod == 0 for a in (_shift_by(x, p ** k) - x).coords):
            period = p ** k
            return {"period": period,
                    "residues": [x(r) % mod for r in range(period)]}
    raise BoundExceeded("no period found below p^%d" % cap)


def _shift_by(x: IntPoly, s: int) -> IntPoly:
    # C(u+s, n) = sum_j C(s, n-j) C(u, j)
    out = [0] * (len(x.coords) or 1)
    for n, a in enumerate(x.coords):
        if a:
            for j in range(n + 1):
                out[j] += a * gen_binom(s, n - j)
    return IntPoly(tuple(out))


@functools.lru_cache(maxsize=None)
def _delta_iterate(p: int, i: int) -> IntPoly:
    """delta^i(u)."""
    if i == 0:
        return IntPoly.u()
    return delta_p(_delta_iterate(p, i - 1), p)


@functools.lru_cache(maxsize=None)
def delta_basis(p: int, n: int) -> RatPoly:
    """The basis monomial prod delta^i(u)^{d_i} indexed by the base-p digits
    d_i of n, as a rational polynomial (degree exactly n)."""
    R = _RATPOLY
    digits = []
    m = n
    while m:
        digits.append(m % p)
        m //= p
    acc = R.one
    for i, d in enumerate(digits):
        if d:
            acc = R.mul(acc, R.pow(_delta_iterate(p, i).to_rational(), d))
    return acc


def delta_basis_expand(x: IntPoly, p: int, deg: int) -> dict:
    """Coordinates of x against the monomials prod delta^i(u)^{d_i} with
    0 <= d_i < p, as p-integral rationals, by triangular degree reduction."""
    if x.degree() >= p ** (deg + 1):
        raise DomainError("degree %d exceeds p^(deg+1)" % x.degree())
    R = _RATPOLY
    residual = x.to_rational()
    coords: dict = {}
    while residual:
        n = len(residual) - 1
        basis = delta_basis(p, n)
        c = residual[-1] / basis[-1]
        if c.denominator % p == 0:
            raise NotIntegral(
                "leading coordinate %s at degree %d is not p-integral" % (c, n))
        coords[n] = c
        residual = R.sub(residual, R.mul(R.make([c]), basis))
        if len(residual) - 1 >= n and residual:
            raise IdentityFailed("reduction failed to lower the degree")
    return coords


def delta_basis_combine(coords: dict, p: int) -> RatPoly:
    """Rational polynomial sum of coords[n] * basis_n (roundtrip check)."""
    R = _RATPOLY
    acc = R.zero
    for n, c in coords.items():
        acc = R.add(acc, R.mul(R.make([c]), delta_basis(p, n)))
    return acc
