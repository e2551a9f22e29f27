"""The graded Hopf algebra over Z[h] on the q-binomial basis
c_n = t(t-h)...(t-(n-1)h)/n!, with Adams operations, the delta operator,
and the comparison with integer-valued polynomials at h = 1.

Multiplication goes through a synchronized, append-only structure-constant
cache; the constants are derived from the product identity
(1+hz_1)^{t/h} (1+hz_2)^{t/h} = (1+h(z_1+z_2+hz_1z_2))^{t/h} or, concretely,
by expanding in the monomial form over Q[h,t] and re-expressing in the basis,
with integrality of every constant asserted.
"""
from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from fractions import Fraction

from .intpoly import IntPoly
from .ringcore import (
    IntRing, PolyQuotRing, PrismlabError, RatRing, Ring, TruncSeries,
    q_number,
)


class NonIntegralStructureConstant(PrismlabError):
    pass


class DegreeExceedsFiltration(PrismlabError):
    pass


ZH = PolyQuotRing(IntRing(), None, "h")
QH = PolyQuotRing(RatRing(), None, "h")
QHT = PolyQuotRing(QH, None, "t")

_c_mono: list = [QHT.one]
_gamma_cache: dict = {}
_coproduct_cache: dict = {}
_cache_lock = threading.Lock()


def _c_monomial(n: int) -> tuple:
    """c_n in monomial form over Q[h][t]."""
    with _cache_lock:
        while len(_c_mono) <= n:
            k = len(_c_mono) - 1
            # c_{k+1} = c_k (t - k h) / (k+1)
            factor = QHT.make([QH.make([Fraction(0), Fraction(-k)]), QH.one])
            nxt = QHT.mul(_c_mono[k], factor)
            inv = QHT.inv_int(k + 1)
            _c_mono.append(QHT.mul(nxt, inv))
    return _c_mono[n]


def _from_monomial(P: tuple) -> tuple:
    """Coordinates against the basis, by triangular elimination on the
    t-degree (c_n has leading t-coefficient 1/n!)."""
    coords: list = []
    P = tuple(P)
    while P:
        n = len(P) - 1
        lead = P[n]
        coord = QH.mul_int(lead, math.factorial(n))
        while len(coords) <= n:
            coords.append(QH.zero)
        coords[n] = coord
        P = QHT.sub(P, QHT.mul((coord,), _c_monomial(n)))
        if len(P) - 1 >= n and P:
            raise NonIntegralStructureConstant("triangular reduction stalled")
    return tuple(coords)


def structure_constants(m: int, n: int) -> tuple:
    """gamma^k_{mn}(h) with c_m c_n = sum_k gamma^k_{mn} c_k, integral."""
    key = (min(m, n), max(m, n))
    with _cache_lock:
        hit = _gamma_cache.get(key)
    if hit is not None:
        return hit
    prod = QHT.mul(_c_monomial(key[0]), _c_monomial(key[1]))
    coords = _from_monomial(prod)
    for k, c in enumerate(coords):
        if _qh_integral(c) is None:
            raise NonIntegralStructureConstant(
                "gamma^%d_{%d,%d} = %s" % (k, m, n, QH.fmt(c)))
    with _cache_lock:
        _gamma_cache[key] = coords
    return coords


def _qh_integral(c):
    return ZH.from_rational(c)


def _qh_p_integral(c, p: int) -> bool:
    return all(f.denominator % p != 0 for f in c)


@dataclass(frozen=True)
class B0Elem:
    """Coordinates (elements of Q[h], canonically Z[h]) against c_n."""

    coords: tuple

    def __post_init__(self):
        coords = tuple(tuple(c) for c in self.coords)
        while coords and QH.is_zero(coords[-1]):
            coords = coords[:-1]
        object.__setattr__(self, "coords", coords)

    @classmethod
    def basis(cls, n: int) -> "B0Elem":
        return cls(((),) * n + (QH.one,))

    @classmethod
    def from_int(cls, n: int) -> "B0Elem":
        return cls((QH.make([Fraction(n)]),))

    @classmethod
    def t(cls) -> "B0Elem":
        return cls.basis(1)

    @classmethod
    def q_scalar(cls) -> tuple:
        return QH.make([Fraction(1), Fraction(1)])

    def coord(self, n: int) -> tuple:
        return self.coords[n] if n < len(self.coords) else QH.zero

    def degree(self) -> int:
        return len(self.coords) - 1 if self.coords else -1

    def is_zero(self) -> bool:
        return not self.coords

    def is_integral(self) -> bool:
        return all(_qh_integral(c) is not None for c in self.coords)

    def is_p_integral(self, p: int) -> bool:
        return all(_qh_p_integral(c, p) for c in self.coords)

    def __add__(self, other):
        n = max(len(self.coords), len(other.coords))
        return B0Elem(tuple(QH.add(self.coord(i), other.coord(i))
                            for i in range(n)))

    def __neg__(self):
        return B0Elem(tuple(QH.neg(c) for c in self.coords))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return b0_mul(self, other)

    def scale(self, c) -> "B0Elem":
        """Multiply by a scalar in Q[h]."""
        return B0Elem(tuple(QH.mul(c, x) for x in self.coords))

    def scale_int(self, n: int) -> "B0Elem":
        return self.scale(QH.make([Fraction(n)]))

    def __pow__(self, n: int) -> "B0Elem":
        acc = B0Elem.from_int(1)
        base = self
        while n:
            if n & 1:
                acc = acc * base
            base = base * base
            n >>= 1
        return acc

    @classmethod
    def from_monomial(cls, P: tuple) -> "B0Elem":
        return cls(_from_monomial(P))

    def specialize_h(self, value: Fraction) -> tuple:
        """Coordinates with h evaluated at a rational; same basis index."""
        return tuple(QH.subst(c, QH.make([Fraction(value)]))
                     for c in self.coords)

    def __repr__(self):
        if not self.coords:
            return "0"
        parts = []
        for n, c in enumerate(self.coords):
            if QH.is_zero(c):
                continue
            cs = QH.fmt(c)
            base = "1" if n == 0 else "c%d" % n
            parts.append(base if cs == "1" and n else
                         cs if n == 0 else "(%s)*%s" % (cs, base))
        return " + ".join(parts)


def b0_mul(a: B0Elem, b: B0Elem) -> B0Elem:
    out: list = []
    for m, am in enumerate(a.coords):
        if QH.is_zero(am):
            continue
        for n, bn in enumerate(b.coords):
            if QH.is_zero(bn):
                continue
            scale = QH.mul(am, bn)
            for k, g in enumerate(structure_constants(m, n)):
                if QH.is_zero(g):
                    continue
                while len(out) <= k:
                    out.append(QH.zero)
                out[k] = QH.add(out[k], QH.mul(scale, g))
    return B0Elem(tuple(out))


def b0_coproduct(a: B0Elem) -> dict:
    """{(i, j): Q[h] coefficient} for Delta(a) = sum c_i tensor c_j terms."""
    out: dict = {}
    for n, c in enumerate(a.coords):
        if QH.is_zero(c):
            continue
        for (i, j), g in _coproduct_of_basis(n).items():
            cur = out.get((i, j), QH.zero)
            cur = QH.add(cur, QH.mul(c, g))
            if QH.is_zero(cur):
                out.pop((i, j), None)
            else:
                out[(i, j)] = cur
    return out


def _coproduct_of_basis(n: int) -> dict:
    with _cache_lock:
        hit = _coproduct_cache.get(n)
    if hit is not None:
        return hit
    # expand c_n(t1 + t2, h) and eliminate against c_i(t1) c_j(t2)
    t1 = TruncSeries.var(QH, ("t1", "t2"), None, "t1")
    t2 = TruncSeries.var(QH, ("t1", "t2"), None, "t2")
    mono = _c_monomial(n)
    acc = TruncSeries.zero(QH, ("t1", "t2"), None)
    tsum = t1 + t2
    power = TruncSeries.one(QH, ("t1", "t2"), None)
    for i, ci in enumerate(mono):
        if i:
            power = power * tsum
        if not QH.is_zero(ci):
            acc = acc + power.scale(ci)
    basis_products: dict = {}
    out: dict = {}
    while not acc.is_zero():
        (i, j) = max(acc.coeffs, key=lambda e: (sum(e), e))
        lead = acc.coeffs[(i, j)]
        coord = QH.mul_int(lead, math.factorial(i) * math.factorial(j))
        if _qh_integral(coord) is None:
            raise NonIntegralStructureConstant(
                "coproduct constant at (%d, %d) of c_%d" % (i, j, n))
        out[(i, j)] = coord
        key = (i, j)
        if key not in basis_products:
            mi, mj = _c_monomial(i), _c_monomial(j)
            prod = TruncSeries.zero(QH, ("t1", "t2"), None)
            for a_, ca in enumerate(mi):
                for b_, cb in enumerate(mj):
                    c = QH.mul(ca, cb)
                    if not QH.is_zero(c):
                        prod = prod + TruncSeries(QH, ("t1", "t2"),
                                                  {(a_, b_): c}, None)
            basis_products[key] = prod
        acc = acc - basis_products[key].scale(coord)
    with _cache_lock:
        _coproduct_cache[n] = out
    return out


def v_scalar(n: int) -> tuple:
    """(q^n - 1)/(q - 1) = 1 + q + ... + q^(n-1) in Q[h]."""
    return q_number(QH, n, B0Elem.q_scalar())


def adams(n: int, a: B0Elem) -> B0Elem:
    """psi^n: multiplication by ((q^n-1)/(q-1))^d on the degree-d piece."""
    if n < 1:
        raise ValueError("Adams operations are indexed by positive integers")
    v = v_scalar(n)
    powers = [QH.one]           # powers[k] = v^k
    zero = QH.scalar.zero
    out: list = []
    for m, c in enumerate(a.coords):
        acc = QH.zero
        for j, f in enumerate(c):
            if f:
                while len(powers) <= m + j:
                    powers.append(QH.mul(powers[-1], v))
                # f h^j v^(m+j): v^(m+j) scaled by f and shifted by j
                term = (zero,) * j + tuple([f * x for x in powers[m + j]])
                acc = QH.add(acc, term)
        out.append(acc)
    return B0Elem(tuple(out))


def b0_delta(a: B0Elem, p: int) -> B0Elem:
    """delta(a) = (psi^p(a) - a^p)/p with a p-integrality certificate."""
    num = adams(p, a) - a ** p
    inv_p = QH.inv_int(p)
    out = B0Elem(tuple(QH.mul(c, inv_p) for c in num.coords))
    if not out.is_p_integral(p):
        raise NonIntegralStructureConstant(
            "(psi^p - (.)^p)/p left a p in a denominator: %r" % (out,))
    return out


def b0_to_int_h(a: B0Elem) -> dict:
    """Image in Int[h] under c_n -> h^n C(u,n): {h-degree: IntPoly}."""
    if not a.is_integral():
        raise NonIntegralStructureConstant("element is not in the integral form")
    out: dict = {}
    for n, c in enumerate(a.coords):
        for j, f in enumerate(c):
            if f:
                k = n + j
                cur = out.get(k, IntPoly(()))
                out[k] = cur + IntPoly.basis(n).scale(int(f))
    return {k: v for k, v in out.items() if v.coords}


def b0_from_filtration(f: IntPoly, n: int) -> B0Elem:
    """h^n f under the inverse comparison, defined when deg f <= n."""
    if f.degree() > n:
        raise DegreeExceedsFiltration(
            "degree %d exceeds filtration level %d" % (f.degree(), n))
    coords = []
    for m, a in enumerate(f.coords):
        coords.append(QH.make([Fraction(0)] * (n - m) + [Fraction(a)]))
    return B0Elem(tuple(coords))


# ---------------------------------------------------------------------------
# the Hopf algebra as a coefficient ring (for series and big Witt vectors)


class B0Ring(Ring):
    """Ring protocol adapter; elements are B0Elem values.

    rational=True relaxes coordinates to Q[h] (the fraction cover used by
    ghost arithmetic); the certificate back into the integral ring checks
    Z[h]-ness of every coordinate.
    """

    def __init__(self, rational: bool = False):
        self.rational = rational
        self.is_torsion_free = True
        self.name = "B0" if not rational else "B0@Q"

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

    def inv_int(self, n):
        if self.rational:
            return B0Elem((QH.make([Fraction(1, n)]),))
        return B0Elem.from_int(1) if n in (1, -1) else None

    def from_rational(self, x: B0Elem):
        if self.rational:
            return x
        return x if x.is_integral() else None

    def rationalized(self):
        return B0Ring(rational=True), (lambda a: a), self.from_rational

    def rand(self, rng):
        coords = tuple(QH.make([Fraction(rng.randrange(-3, 4)),
                                Fraction(rng.randrange(-2, 3))])
                       for _ in range(rng.randrange(1, 4)))
        return B0Elem(coords)

    def fmt(self, a):
        return repr(a)

    def __eq__(self, other):
        return type(other) is B0Ring and other.rational == self.rational

    def __hash__(self):
        return hash(("B0Ring", self.rational))
