"""Divided-power hulls of the multiplicative group and monoid, the dual
ind-group of integer points, distribution algebras, the evaluation pairing,
powers of the logarithm, and the mu_p and rescaled-group comparisons.

A PD element is an integer vector against gamma_n = (x-1)^n / n! (so
gamma_m gamma_n = C(m+n, n) gamma_{m+n}), a `ringcore.BasisVector` over Z;
the divided-power hull is the h = 0 fibre of qhopf's B_0 under
c_n -> gamma_n.  Distributions are integer vectors against
e_n = (delta_1 - delta_0)^n / n! with delta_m delta_n = delta_{m+n}.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .intpoly import binom_poly, gen_binom
from .ringcore import (
    BasisVector, IdentityFailed, IntRing, NotIntegral, PolyQuotRing,
    RatRing, TruncSeries, _kronecker_mul, _numerators, padic_log,
    q_element, series_exp,
)


class PDElem(BasisVector):
    """sum coords[n] gamma_n with integer coordinates."""

    scalars = IntRing()
    symbol = "g%d"

    @classmethod
    def gamma(cls, n: int) -> "PDElem":
        return cls.basis(n)

    def __mul__(self, other):
        return PDElem(tuple(_binomial_convolution(self.coords, other.coords)))


def _binomial_convolution(a, b, size: int | None = None) -> list:
    """c_k = sum_{m+n=k} a_m b_n C(k, n) for k < size (all k when size is
    None): the product of gamma- and of e-coordinates.  With M and N the
    last indices of a and b, A_m = a_m M!/m! and B_n = b_n N!/n! are
    integers with (AB)_k = sum a_m b_n M! N! / (m! n!), so one Kronecker
    product AB and the exact divisions c_k = k! (AB)_k / (M! N!) give
    every c_k."""
    if size is not None:
        a, b = a[:size], b[:size]
    if not a or not b:
        return []
    prod = _kronecker_mul(_by_falling_factorial(a), _by_falling_factorial(b))
    den = math.factorial(len(a) - 1) * math.factorial(len(b) - 1)
    out, fact = [], 1
    for k, c in enumerate(prod[:size]):
        if k:
            fact *= k
        out.append(fact * c // den)
    return out


def _by_falling_factorial(coords) -> list:
    """[c_m M!/m!] for the coordinates c_0..c_M."""
    out, f = list(coords), 1
    for m in range(len(out) - 1, 0, -1):
        out[m] *= f
        f *= m
    out[0] *= f
    return out


def pd_normalize(series) -> PDElem:
    """From (x-1)-adic rational coefficients to PD coordinates; membership
    requires n! a_n integral, and the error names the first failing index."""
    coords = []
    for n, a in enumerate(series):
        c = Fraction(a) * math.factorial(n)
        if c.denominator != 1:
            raise NotIntegral("coefficient of (x-1)^%d is %s; n! a_n is not "
                              "integral" % (n, Fraction(a)))
        coords.append(int(c))
    return PDElem(tuple(coords))


# ---------------------------------------------------------------------------
# distributions


@dataclass(frozen=True)
class DistrElem:
    """Integer coordinates against e_n, truncated at a filtration order."""

    coords: tuple
    order: int

    def coord(self, n: int) -> int:
        return self.coords[n] if n < len(self.coords) else 0

    def __add__(self, other):
        order = min(self.order, other.order)
        return DistrElem(tuple(self.coord(i) + other.coord(i)
                               for i in range(order + 1)), order)

    def __mul__(self, other):
        order = min(self.order, other.order)
        out = _binomial_convolution(self.coords, other.coords, order + 1)
        return DistrElem(tuple(out + [0] * (order + 1 - len(out))), order)

    def __eq__(self, other):
        if not isinstance(other, DistrElem):
            return NotImplemented
        order = min(self.order, other.order)
        return all(self.coord(i) == other.coord(i) for i in range(order + 1))

    def __repr__(self):
        return "Distr(%s; order %d)" % (list(self.coords), self.order)


def delta_to_e(m: int, order: int = 12) -> DistrElem:
    """delta_m = sum_n C(m,n) n! e_n, valid for every integer m (negative m
    is the truncated expansion of delta_1^{-1}); C(m,n) n! is the falling
    factorial m (m-1) ... (m-n+1)."""
    coords, f = [], 1
    for n in range(order + 1):
        coords.append(f)
        f *= m - n
    return DistrElem(tuple(coords), order)


def distr_mul(a: DistrElem, b: DistrElem) -> DistrElem:
    return a * b


def pair_xu(m: int, f: PDElem) -> int:
    """Cartier pairing of the integer point m against a PD function:
    sum a_n C(m, n), from the expansion x^m = sum C(m,n) (x-1)^n."""
    return sum(a * gen_binom(m, n) for n, a in enumerate(f.coords))


def pair_distr(d: DistrElem, f: PDElem) -> Fraction:
    """Bilinear extension: <e_n, gamma_n> = 1/n!; integer on distributions
    that come from integer points."""
    if not d.coords:
        return Fraction(0)
    top = math.factorial(len(d.coords) - 1)
    # sum c f_n / n! over the common denominator D! of the last index D
    return Fraction(sum(c * f.coord(n) * (top // math.factorial(n))
                        for n, c in enumerate(d.coords)), top)


# ---------------------------------------------------------------------------
# the logarithm and Stirling certification


def log_pd(N: int) -> PDElem:
    """log x = sum (-1)^(n-1) (n-1)! gamma_n, to order N."""
    return PDElem(tuple(0 if n == 0 else
                        (-1) ** (n - 1) * math.factorial(n - 1)
                        for n in range(N + 1)))


def log_sharp_power(k: int, N: int) -> PDElem:
    """(log x)^k / k! to order N with certified integral PD coordinates.

    Step j multiplies the integral (log x)^(j-1) / (j-1)! by log x and
    divides by j, certifying each division exact; since the step before
    is integral, that is the same test as (log x)^j divisible by j!.
    Each (j, N) is memoized by _log_sharp_step, and the steps are filled
    upward in a loop, so no call recurses more than one level."""
    if k < 1:
        raise ValueError("k must be >= 1")
    for j in range(1, k + 1):
        out = _log_sharp_step(j, N)
    return out


@functools.lru_cache(maxsize=None)
def _log_sharp_step(k: int, N: int) -> PDElem:
    """(log x)^k / k! to order N from the memoized (k - 1, N) value."""
    log = log_pd(N)
    if k == 1:
        return log
    # gamma_m gamma_n = C(m+n, n) gamma_(m+n) never lowers the degree, so
    # the product cut at gamma_N is the cut of the full product
    out = []
    for n, c in enumerate(_binomial_convolution(
            _log_sharp_step(k - 1, N).coords, log.coords, N + 1)):
        q, r = divmod(c, k)
        if r:
            raise NotIntegral("(log x)^%d not divisible by %d! at gamma_%d"
                              % (k, k, n))
        out.append(q)
    return PDElem(tuple(out))


@functools.lru_cache(maxsize=None)
def stirling_first(n: int, k: int) -> int:
    """Signed Stirling numbers of the first kind via the recurrence
    s(n+1, k) = s(n, k-1) - n s(n, k)."""
    if n == k == 0:
        return 1
    if n == 0 or k == 0 or k > n:
        return 0
    return stirling_first(n - 1, k - 1) - (n - 1) * stirling_first(n - 1, k)


# ---------------------------------------------------------------------------
# mu_p inside the PD hull


def mu_p_in_pd_hull(Rq, f) -> bool:
    """In Rq = Z[x]/(x^p - 1): f^p is in p (x - 1), as the lemma says it is
    for f in (x - 1); for no other f, since f^p(1) = f(1)^p."""
    p = Rq.deg
    fp = Rq.pow(f, p)
    # evaluation at x = 1 detects (x-1)-membership
    return not any(c % p for c in fp) and sum(c // p for c in fp) == 0


# ---------------------------------------------------------------------------
# comparison with the p-rescaled group


def rescaled_section(p: int) -> PDElem:
    """z = ((1+t)^p - 1)/p in the PD coordinates of t."""
    coeffs = [Fraction(0)] + [Fraction(math.comb(p, i), p) for i in range(1, p + 1)]
    return pd_normalize(coeffs)


def _gamma_op(w: PDElem, p: int) -> PDElem:
    """gamma(w) = w^p / p for w in the PD ideal."""
    acc = w
    for _ in range(p - 1):
        acc = acc * w
    out = []
    for c in acc.coords:
        q, r = divmod(c, p)
        if r:
            raise NotIntegral("w^p not divisible by p")
        out.append(q)
    return PDElem(tuple(out))


def _gsharp_basis_elem(n: int, p: int, z_iterates: list) -> PDElem:
    """t^{d_0} prod_{i>=1} (gamma^{i-1}(z))^{d_i} for the base-p digits d_i
    of n; has t-degree exactly n."""
    digits = []
    m = n
    while m:
        digits.append(m % p)
        m //= p
    acc = PDElem.from_int(1)
    t = PDElem.gamma(1)
    for d0 in range(digits[0] if digits else 0):
        acc = acc * t
    for i, d in enumerate(digits[1:]):
        for _ in range(d):
            acc = acc * z_iterates[i]
    return acc


def gsharp_basis(p: int, max_degree: int) -> dict:
    """{n: t^{d_0} prod_{i>=1} gamma^{i-1}(z)^{d_i}} for n <= max_degree,
    the basis of the G_m^sharp/mu_p comparison, with z = ((1+t)^p - 1)/p."""
    depth = 1
    while p ** (depth + 1) <= max_degree:
        depth += 1
    z_iter = [rescaled_section(p)]
    for _ in range(depth):
        z_iter.append(_gamma_op(z_iter[-1], p))
    return {n: _gsharp_basis_elem(n, p, z_iter) for n in range(max_degree + 1)}


def gsharp_reduces(f: PDElem, basis: dict, p: int) -> bool:
    """f reduces by triangular reduction against gsharp_basis to a
    combination with p-integral coefficients c_n, and the round trip holds
    on integers: D f = sum (D c_n) basis[n], with D the common denominator
    of the c_n."""
    try:
        coords = reduce_against_basis(f, basis, p)
    except (NotIntegral, IdentityFailed):
        return False
    nums, den = _numerators(list(coords.values()))
    back = [0] * len(basis)
    for n, c in zip(coords, nums):
        for i, v in enumerate(basis[n].coords):
            back[i] += c * v
    return all(back[i] == den * f.coord(i) for i in range(len(basis)))


def reduce_against_basis(f: PDElem, basis: dict, p: int) -> dict:
    """The coefficients c_n with f = sum c_n basis[n], by triangular
    reduction on the top degree; each must be p-integral.  They need not be
    integers: at p = 2 random integer inputs give denominators such as 25,
    63 and 10395, all odd.

    The reduction runs on M f, with M the product of the leading
    coordinates of basis[0..deg f]: the residual after the steps down to
    degree n has denominators dividing the leads above n, so the scaled
    residual stays integral and each step's M c_n is an exact quotient by
    the lead at n; a remainder raises NotIntegral.  Each c_n is the
    one Fraction (M c_n) / M."""
    coords: dict = {}
    scale = math.prod(basis[n].coord(n) for n in range(len(f.coords)))
    residual = [scale * c for c in f.coords]
    while residual:
        n = len(residual) - 1
        q, r = divmod(residual[n], basis[n].coord(n))
        if r:
            raise NotIntegral(
                "coefficient %s at degree %d is not an exact quotient"
                % (Fraction(residual[n], scale * basis[n].coord(n)), n))
        c = Fraction(q, scale)
        if c.denominator % p == 0:
            raise NotIntegral(
                "coefficient %s at degree %d is not p-integral" % (c, n))
        coords[n] = c
        for i, v in enumerate(basis[n].coords):
            residual[i] -= q * v
        while residual and residual[-1] == 0:
            residual.pop()
        if len(residual) - 1 >= n and residual:
            raise IdentityFailed("degree did not drop at %d" % n)
    return coords


# ---------------------------------------------------------------------------
# the exact sequence: log, mu_p, and the exponential pairing


def log_and_pairing_check(N: int) -> dict:
    """The parts of the exact sequence that do not depend on p, to order N:
    log(x^u) = u log(x) in Q[u][[x-1]], log(1) = 0, and exp(uv) exhibiting
    gamma_n(u) and v^n as dual bases (log_mu_p_vanishes has the rest)."""
    QU = PolyQuotRing(RatRing(), None, "u")
    u = QU.x
    # x^u = sum C(u,n) w^n with w = x - 1
    xu = TruncSeries(QU, ("w",), {
        (n,): binom_poly(n) for n in range(N + 1)}, N)
    log_xu = padic_log(xu)
    w = TruncSeries.var(QU, ("w",), N, "w")
    one = TruncSeries.one(QU, ("w",), N)
    log_x = padic_log(one + w)
    # exp(uv) = sum gamma_n(u) v^n: at order 2N + 1 its matrix in the bases
    # gamma_i(u) = u^i/i! and v^j, entry c_ij * i!, is the identity, i, j <= N
    exp_uv = series_exp(TruncSeries(RatRing(), ("u", "v"),
                                    {(1, 1): Fraction(1)}, 2 * N + 1))
    exp_pairing = all(i <= N and j <= N for i, j in exp_uv.coeffs) and all(
        exp_uv.coefficient((i, j)) * math.factorial(i) == int(i == j)
        for i in range(N + 1) for j in range(N + 1))
    return {"log_xu": log_xu == log_x.scale(u),
            "log_at_zero": padic_log(one).is_zero(),   # u = 0 sanity
            "exp_pairing": exp_pairing}


def log_mu_p_vanishes(C) -> bool:
    """log vanishes on the mu_p classes: log(zeta) = 0 in C =
    CyclotomicRing(p, n_p), so mod p^n_p."""
    return padic_log(TruncSeries.const(C, ("w",), 1, q_element(C))).is_zero()
