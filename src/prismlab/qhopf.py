"""The graded Hopf algebra over Z[h] on the q-binomial basis
c_n = t(t-h)...(t-(n-1)h)/n! = h^n C(t/h, n), with Adams operations, the
delta operator, and the comparison with integer-valued polynomials at h = 1.
An element is a `ringcore.BasisVector` against c_n over Q[h]; its h = 1
fibre is Int against C(u, n) (`b0_at_h1`) and its h = 0 fibre the
divided-power hull against gamma_n (`pd_dual.PDElem`).  Its coordinates
are `ringcore.RatPoly` values, integer numerators over one denominator,
which `b0_mul`, `adams` and `specialize_h` read directly.

Under c_n -> h^n C(u, n) the basis is Int's binomial basis with h-weights,
so the structure constants are closed forms:
c_m c_n = sum_k C(k, m) C(m, m+n-k) h^(m+n-k) c_k (the Vandermonde constants
of `intpoly.vandermonde`) and Delta c_n = sum_{i+j=n} c_i (x) c_j.  The
monomial form of c_n over Q[h][t], or over the truncated Q[h]/(h^N)[t] of
`qprism.bhat_ring`, comes from the signed Stirling numbers, and c_n(m t, h)
from it (`_c_at_mt`); `_from_monomial` re-expresses a monomial-form element
of either ring in the basis by triangular elimination, which is also the
harness's oracle for the closed forms.
"""
from __future__ import annotations

import functools
import math
from fractions import Fraction

from .intpoly import IntPoly, vandermonde
from .pd_dual import stirling_first
from .ringcore import (
    BasisVector, DomainError, IdentityFailed, NotIntegral, PolyQuotRing,
    RatPoly, RatRing, Ring, _common_den, _kronecker_mul, q_number,
)


QH = PolyQuotRing(RatRing(), None, "h")
QHT = PolyQuotRing(QH, None, "t")

_gamma_cache: dict = {}


def _h_monomial(c, j: int) -> RatPoly:
    """c h^j in Q[h] for an int or Fraction c."""
    return QH.make((0,) * j + (c,))


@functools.lru_cache(maxsize=None)
def _c_monomial(n: int, R: PolyQuotRing = QHT) -> tuple:
    """c_n in monomial form over R = Q[h][t] or Q[h]/(h^N)[t]:
    sum_k s(n, k) t^k h^(n-k) / n!, memoized per (n, R)."""
    nf = math.factorial(n)
    H = R.scalar
    return R.make([H.make(_h_monomial(Fraction(stirling_first(n, k), nf),
                                      n - k))
                   for k in range(n + 1)])


def _c_at_mt(n: int, m, R: PolyQuotRing = QHT) -> tuple:
    """c_n(m t, h) in monomial form over R = Q[h][t] or Q[h]/(h^N)[t], for
    a rational m = u / w: the t^i coefficient of _c_monomial(n, R) with its
    numerators times u^i and its denominator times w^i."""
    H, m = R.scalar, Fraction(m)
    return R.make([H.div_int_exact(H.mul_int(c, m.numerator ** i),
                                   m.denominator ** i)
                   for i, c in enumerate(_c_monomial(n, R))])


def _from_monomial(P: tuple, R: PolyQuotRing = QHT) -> tuple:
    """Coordinates against the basis of an element P of R = Q[h][t] or
    Q[h]/(h^N)[t], by triangular elimination on the t-degree (c_n has
    leading t-coefficient 1/n!).  Every step is Q[h]-linear, so in
    Q[h]/(h^N)[t] it gives the coordinates over Q[h] cut mod h^N."""
    H = R.scalar
    coords: list = []
    P = tuple(P)
    while P:
        n = len(P) - 1
        coord = H.mul_int(P[n], math.factorial(n))
        while len(coords) <= n:
            coords.append(H.zero)
        coords[n] = coord
        P = R.sub(P, R.mul((coord,), _c_monomial(n, R)))
        if len(P) - 1 >= n and P:
            raise IdentityFailed("triangular reduction stalled")
    return tuple(coords)


def structure_constants(m: int, n: int) -> tuple:
    """gamma^k_{mn}(h) with c_m c_n = sum_k gamma^k_{mn} c_k:
    gamma^k_{mn} = C(k, m) C(m, m+n-k) h^(m+n-k) for max(m, n) <= k <= m+n."""
    key = (min(m, n), max(m, n))
    hit = _gamma_cache.get(key)
    if hit is None:
        coords = [QH.zero] * (m + n + 1)
        for k, g in vandermonde(*key):
            coords[k] = _h_monomial(g, m + n - k)
        hit = _gamma_cache.setdefault(key, tuple(coords))
    return hit


class B0Elem(BasisVector):
    """Coordinates (elements of Q[h], canonically Z[h]) against c_n."""

    scalars = QH
    symbol = "c%d"
    term = "(%s)*%s"

    @staticmethod
    def _normalise(coords):
        return tuple(map(QH.make, coords))

    @classmethod
    def t(cls) -> "B0Elem":
        return cls.basis(1)

    @classmethod
    def q_scalar(cls) -> RatPoly:
        return QH.make([1, 1])

    def is_zero(self) -> bool:
        return not self.coords

    def is_integral(self) -> bool:
        return all(c.den == 1 for c in self.coords)

    def is_p_integral(self, p: int) -> bool:
        return all(c.den % p for c in self.coords)

    def __mul__(self, other):
        return b0_mul(self, other)

    def __pow__(self, n: int) -> "B0Elem":
        return _B0.pow(self, n)

    @classmethod
    def from_monomial(cls, P: tuple) -> "B0Elem":
        return cls(_from_monomial(P))

    def specialize_h(self, value: Fraction) -> tuple:
        """Coordinates with h evaluated at a rational u / w, each a constant
        of Q[h]; same basis index.  Horner's rule on the numerators: a
        coordinate sum_j n_j h^j / d becomes sum_j n_j u^j w^(k-j) / (d w^k)
        with k its degree."""
        v = Fraction(value)
        u, w = v.numerator, v.denominator
        out = []
        for c in self.coords:
            acc, wk = 0, 1
            for x in reversed(c.nums):
                acc, wk = acc * u + x * wk, wk * w
            out.append(QH.from_numerators([acc], c.den * wk // w) if c else c)
        return tuple(out)


def b0_mul(a: B0Elem, b: B0Elem) -> B0Elem:
    """c_m c_n = sum_k g h^(m+n-k) c_k (vandermonde) on integer numerators,
    each operand over one denominator: one Kronecker product per pair of
    coordinates, added with its shift into one integer accumulator per k.
    An operand f c_0 with one coordinate takes no structure constants:
    c_0 c_n = c_n, so the product is f times each coordinate of the other
    operand, one QH.mul each."""
    if not a.coords or not b.coords:
        return B0Elem(())
    if len(b.coords) == 1:
        a, b = b, a
    if len(a.coords) == 1:
        f = a.coords[0]
        return B0Elem(tuple(QH.mul(f, c) for c in b.coords))
    na, da = _common_den(a.coords)
    nb, db = _common_den(b.coords)
    # a pair's product has at most max|a_m| + max|b_n| - 1 coefficients,
    # shifted by m + n - k <= min(m, n)
    width = (max(map(len, na)) + max(map(len, nb))
             + min(len(na), len(nb)) - 2)
    out = [[0] * width for _ in range(len(na) + len(nb) - 1)]
    for m, am in enumerate(na):
        if am:
            for n, bn in enumerate(nb):
                if bn:
                    prod = _kronecker_mul(am, bn)
                    for k, g in vandermonde(m, n):
                        acc, shift = out[k], m + n - k
                        for i, x in enumerate(prod, shift):
                            acc[i] += g * x
    return B0Elem(tuple(QH.from_numerators(row, da * db) for row in out))


def b0_coproduct(a: B0Elem) -> dict:
    """{(i, j): Q[h] coefficient} for Delta(a) = sum c_i tensor c_j terms;
    Delta c_n = sum_{i+j=n} c_i tensor c_j."""
    return {(i, n - i): c for n, c in enumerate(a.coords) if c
            for i in range(n, -1, -1)}


def v_scalar(n: int) -> RatPoly:
    """(q^n - 1)/(q - 1) = 1 + q + ... + q^(n-1) in Q[h]."""
    return q_number(QH, n, B0Elem.q_scalar())


def adams(n: int, a: B0Elem) -> B0Elem:
    """psi^n: multiplication by ((q^n-1)/(q-1))^d on the degree-d piece,
    on integer numerators: f h^j in coordinate m adds f v^(m+j), shifted
    by j, over that coordinate's denominator."""
    if n < 1:
        raise ValueError("Adams operations are indexed by positive integers")
    v = v_scalar(n).nums        # an integer polynomial
    powers = [[1]]              # powers[k] = v^k
    out: list = []
    for m, c in enumerate(a.coords):
        acc: list = []
        for j, f in enumerate(c.nums):
            if f:
                while len(powers) <= m + j:
                    powers.append(_kronecker_mul(powers[-1], v))
                power = powers[m + j]
                acc += [0] * (j + len(power) - len(acc))
                for i, x in enumerate(power, j):
                    acc[i] += f * x
        out.append(QH.from_numerators(acc, c.den))
    return B0Elem(tuple(out))


def b0_delta(a: B0Elem, p: int) -> B0Elem:
    """delta(a) = (psi^p(a) - a^p)/p with a p-integrality certificate."""
    num = adams(p, a) - a ** p
    out = B0Elem(tuple(QH.div_int_exact(c, p) for c in num.coords))
    if not out.is_p_integral(p):
        raise NotIntegral(
            "(psi^p - (.)^p)/p left a p in a denominator: %r" % (out,))
    return out


def b0_to_int_h(a: B0Elem) -> dict:
    """Image in Int[h] under c_n -> h^n C(u,n): {h-degree: IntPoly}."""
    if not a.is_integral():
        raise NotIntegral("element is not in the integral form")
    out: dict = {}
    for n, c in enumerate(a.coords):
        for j, f in enumerate(c.nums):
            if f:
                k = n + j
                cur = out.get(k, IntPoly(()))
                out[k] = cur + IntPoly.basis(n).scale(f)
    # each term at h^k is at its own C(u, n), so no entry sums to zero
    return out


def b0_at_h1(a: B0Elem) -> IntPoly:
    """The h = 1 fibre: the image in Int under c_n -> C(u, n), the sum of
    b0_to_int_h over the h-degrees."""
    return sum(b0_to_int_h(a).values(), IntPoly(()))


def b0_from_filtration(f: IntPoly, n: int) -> B0Elem:
    """h^n f under the inverse comparison, defined when deg f <= n."""
    if f.degree() > n:
        raise DomainError(
            "degree %d exceeds filtration level %d" % (f.degree(), n))
    return B0Elem(tuple(_h_monomial(a, n - m)
                        for m, a in enumerate(f.coords)))


# ---------------------------------------------------------------------------
# the Hopf algebra as a coefficient ring (for series and big Witt vectors)


class B0Ring(Ring):
    """Ring protocol adapter; elements are B0Elem values, whose coordinates
    are stored over Q[h] and certified to lie in Z[h] by div_int_exact."""

    name = "B0"

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def from_int(self, n):
        return B0Elem.from_int(n)

    def is_zero(self, a):
        return a.is_zero()

    def div_int_exact(self, a, n):
        """a / n coordinate by coordinate; None unless every coordinate of
        the quotient is in Z[h]."""
        out = B0Elem(tuple(QH.div_int_exact(c, n) for c in a.coords))
        return out if out.is_integral() else None

    def rand(self, rng):
        coords = tuple(QH.make([rng.randrange(-3, 4), rng.randrange(-2, 3)])
                       for _ in range(rng.randrange(1, 4)))
        return B0Elem(coords)

    def __eq__(self, other):
        return type(other) is B0Ring

    def __hash__(self):
        return hash("B0Ring")


_B0 = B0Ring()
