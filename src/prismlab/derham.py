"""The de Rham fiber: Witt vectors x with 1 + px a Teichmuller unit, the
mutually inverse log/exp maps onto the Frobenius eigen-space {Fy = py},
the kernel description of the special fiber, and the characteristic-p
discrepancy between the two identifications.

The unit map 1 + px (a de Rham draw's certificate) and the group law
(`_RescaledPoint`'s), the series, the eigen test F y = p y, the V-series
and the discrepancy's unit test are each one ghost solve.  A series sum
c_n x^n is Horner's rule on every ghost component of x; its cutoff is
certified by solving its last two terms c_n x^n separately and requiring
both to vanish as Witt vectors; f_log and g_exp derive their integer
coefficients once per (p, n_p, bound).  Every eigen-space input is
certified first, since for p = 2 the exponential's coefficients do not
tend to zero and only the argument's nilpotence makes the sum finite.

The samplers draw one digit at a time, with one ghost step
(`witt._GhostStep`) per side of each equation over the bounded lift of
length L, and solve no prefix.  A solve there is exact mod m for any lift
factor at least p^(len-1) (`witt._bounded_lift`), so the digits and the
rng draws are those of solving each prefix at its own length.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .ringcore import (
    BoundExceeded, DomainError, IdentityFailed, ModP, NotIntegral,
    SeriesCoeffRing, _padic_profile,
)
from .witt import (
    WittVector, _bounded_lift, _GhostStep, frobenius, ghost_combine,
    scalar_mul, teichmuller, verschiebung, witt_neg, witt_op, witt_sub,
)


def one_plus_p_x(x: WittVector) -> WittVector:
    """1 + px in two solves, the reference for GdRPoint.unit's one."""
    one = teichmuller(x.ring, x.p, x.L, x.ring.one)
    return witt_op(one, scalar_mul(x.p, x), "add")


def is_teichmuller(w: WittVector) -> bool:
    return w == teichmuller(w.ring, w.p, w.L, w.components[0])


class _RescaledPoint:
    """A Witt vector x with 1 + s x Teichmuller: s = p (GdRPoint), the q = 1
    case of s = Phi_p([q]) (qprism.GQPoint).  A subclass sets refusal, tag
    and one hook, _scalar(x) -> (vectors, times), times(r, g, *gs) being
    g times the n-th ghost of s given the n-th ghosts gs of the vectors.
    Points of two classes are never equal."""

    __slots__ = ("x",)

    def __init__(self, x: WittVector, check: bool = True):
        if check and not is_teichmuller(self.unit(x)):
            raise DomainError(self.refusal)
        self.x = x

    @classmethod
    def unit(cls, x: WittVector, *q) -> WittVector:
        """1 + s x, one ghost solve; only GQPoint's _scalar takes a q."""
        scalars, times = cls._scalar(x, *q)
        return ghost_combine((x,) + scalars, lambda r, g: [
            r.add(r.one, times(r, *c)) for c in zip(*g)])

    def op(self, other):
        """x1 + x2 + s x1 x2, the group law, one ghost solve."""
        self.x._check(other.x)
        scalars, times = self._scalar(self.x)
        out = ghost_combine((self.x, other.x) + scalars, lambda r, g: [
            r.add(r.add(g1, g2), times(r, r.mul(g1, g2), *gs))
            for g1, g2, *gs in zip(*g)])
        return type(self)(out, check=False)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.x == other.x

    def __repr__(self):
        return "%s(%r)" % (self.tag, self.x)


class GdRPoint(_RescaledPoint):
    """A Witt vector x over Z/p^n with 1 + px Teichmuller."""

    __slots__ = ()
    refusal = "1 + px is not a Teichmuller unit"
    tag = "GdR"

    @staticmethod
    def _scalar(x):
        """s = p, every ghost p: an integer multiple; there is no q."""
        return (), lambda r, g: r.mul_int(g, x.p)


# --- series evaluation on Witt vectors ---------------------------------------


def _witt_poly(cs, x: WittVector, L: int) -> WittVector:
    """sum_{n>=1} cs[n-1] . x^n for integers cs, truncated to length L <=
    x.L, as one ghost solve: Horner's rule on each ghost component."""
    def combine(r, g):
        coeffs = [r.from_int(c) for c in reversed(cs)]
        out = []
        for gx in g[0][:L]:
            acc = r.zero
            for c in coeffs:
                acc = r.mul(r.add(acc, c), gx)
            out.append(acc)
        return out
    return ghost_combine((x,), combine)


def witt_series_eval(coeff, x: WittVector, bound: int) -> WittVector:
    """sum_{n=1}^{bound} coeff(n) . x^n, where coeff(n) is a p-integral
    rational.

    Terms vanish once x^n does (componentwise p-valuations of x add up
    under Witt multiplication), so the cutoff is certified by checking that
    the final terms, n = bound - 1 and bound, contribute nothing.
    """
    n_p = _padic_profile(x.ring)[1]
    cs = _integer_coeffs(coeff, x.p, n_p, bound)
    for n in range(max(bound - 1, 1), bound + 1):
        if not _witt_poly((0,) * (n - 1) + cs[n - 1:n], x, x.L).is_zero():
            raise BoundExceeded(
                "series did not stabilize within %d terms" % bound)
    return _witt_poly(cs, x, x.L)


def _integer_coeffs(coeff, p: int, n_p: int, bound: int) -> tuple:
    """coeff(1), ..., coeff(bound) as integer representatives at the
    ring's precision plus a margin covering scalar-multiplication slack;
    an int needs no inverse, so it is reduced as it stands."""
    mod = ModP(p, n_p + 4)
    cs = []
    for n in range(1, bound + 1):
        frac = coeff(n)
        c = frac % mod.m if type(frac) is int else mod.from_rational(frac)
        if c is None:
            raise NotIntegral("coefficient %s is not p-integral"
                              % Fraction(frac))
        cs.append(c)
    return tuple(cs)


@lru_cache(maxsize=None)
def _series_coeffs(name: str, p: int, n_p: int, bound: int) -> tuple:
    """f_log's ("log") or g_exp's ("exp") integer coefficients, derived
    once per (p, n_p, bound)."""
    term = {"log": lambda n: Fraction((-p) ** (n - 1), n),
            "exp": lambda n: Fraction(p ** (n - 1), math.factorial(n))}[name]
    return _integer_coeffs(term, p, n_p, bound)


def f_log(a: GdRPoint) -> WittVector:
    """p^{-1} log(1 + px) evaluated in the Witt ring; lands in {Fy = py}."""
    x = a.x
    p, n_p, _ = _padic_profile(x.ring)
    cs = _series_coeffs("log", p, n_p, n_p + 2)
    y = witt_series_eval(lambda n: cs[n - 1], x, n_p + 2)
    if not is_eigen(y):
        raise IdentityFailed("f_log output broke F y = p y")
    return y


def is_eigen(y: WittVector) -> bool:
    """F y = p y at the available length: F y - p y, whose ghost
    components are g_(n+1) - p g_n, is one ghost solve and must vanish."""
    p = y.p
    return ghost_combine((y,), lambda r, g: [
        r.sub(g1, r.mul_int(g0, p)) for g0, g1 in zip(g[0], g[0][1:])
    ]).is_zero()


def g_exp(y: WittVector) -> GdRPoint:
    """(exp(py) - 1)/p, defined only on certified {Fy = py} points."""
    if not is_eigen(y):
        raise DomainError("g_exp needs Fy = py")
    p, n_p, _ = _padic_profile(y.ring)
    cs = _series_coeffs("exp", p, n_p, n_p + 2)
    return GdRPoint(witt_series_eval(lambda n: cs[n - 1], y, n_p + 2))


def frob_power_identity(a: GdRPoint) -> dict:
    """F x equals the p-th power of x for the rescaled group operation:
    h(x) = ((1+px)^p - 1)/p = sum C(p,i) p^(i-1) x^i."""
    x = a.x
    p = x.p
    h = _witt_poly([math.comb(p, i) * p ** (i - 1) for i in range(1, p + 1)],
                   x, x.L - 1)
    fx = frobenius(x)
    return {"ok": fx == h, "fx": fx, "h": h}


def id_minus_V(y: WittVector) -> WittVector:
    """y - Vy, mapping {Fy = py} into the kernel of F; the inverse is
    summing Verschiebung iterates."""
    if not is_eigen(y):
        raise DomainError("id - V is certified on Fy = py only")
    out = witt_sub(y, verschiebung(y))
    if not frobenius(out).is_zero():
        raise IdentityFailed("F(y - Vy) did not vanish")
    return out


def v_geometric(x: WittVector) -> WittVector:
    """sum_k V^k x, the inverse of id - V at finite length, as one ghost
    solve: ghost(V x)_n = p g_(n-1), so the sum has ghost components
    sum_{k<=n} p^k g_(n-k), i.e. h_n = g_n + p h_(n-1)."""
    p = x.p

    def combine(r, g):
        out = []
        acc = r.zero
        for gx in g[0]:
            acc = r.add(gx, r.mul_int(acc, p))
            out.append(acc)
        return out
    return ghost_combine((x,), combine)


# --- samplers -----------------------------------------------------------------


def sample_gdr(ring, p, L, rng) -> GdRPoint:
    """Random point: pick a unit u in 1 + pA and solve p . x = [u] - 1
    triangularly, choosing p-adic digit branches at random.  (p.x)_i is
    p x_i plus a polynomial in earlier components: the step solving p.x
    from its ghosts p g_i(x_0, ..., x_(i-1), 0) gives that base, and x_i
    adds p^(i+1) x_i to the ghost, so p x_i to the component, which
    amend puts in place.  The digits of [u] - 1, whose ghosts are
    u^(p^i) - 1, come from a step too.  Returned only once the unit map
    certifies 1 + p x = [u], the point's own invariant: one solve."""
    n_p = _padic_profile(ring)[1]
    wide, up, down = _bounded_lift(ring, p ** (L - 1))
    for _ in range(64):
        u = ring.from_int(1 + p * rng.randrange(p ** (n_p - 1)))
        xs, px, target = (_GhostStep(wide, p) for _ in range(3))
        power, comps = up(u), []
        for i in range(L):
            if i:
                power = wide.pow(power, p)
            have = down(target.solve(wide.sub(power, wide.one)))
            base = px.solve(wide.mul_int(xs.ghost(wide.zero), p))
            x = _digit(ring, p, n_p, have, down(base), rng)
            if x is None:
                break
            comps.append(x)
            xs.amend(up(x))
            px.amend(wide.add(base, wide.mul_int(up(x), p)))
        else:
            x = WittVector(ring, p, comps)
            if GdRPoint.unit(x) == teichmuller(ring, p, L, u):
                return GdRPoint(x, check=False)
    raise BoundExceeded("no de Rham point found")


def _digit(ring, p, n_p, have, base, rng):
    """x_i with p x_i = have - base on the representatives, plus a random
    branch p^(n_p-1) r; None, drawing nothing, if p does not divide."""
    div = ring.div_int_exact(ring.sub(have, base), p)
    if div is None:
        return None
    return ring.add(div, ring.from_int(p ** (n_p - 1) * rng.randrange(p)))


def sample_eigen(ring, p, L, rng) -> WittVector:
    """Random y with Fy = py: solve F(y) - p.y = 0 triangularly; y_(i+1)
    enters equation i linearly with coefficient p.  The p side's step is
    fed p g_i, the F side's g_(i+1) of (y_0, ..., y_i, 0), whose component
    then grows by p y_(i+1); returned only once is_eigen certifies it."""
    n_p = _padic_profile(ring)[1]
    wide, up, down = _bounded_lift(ring, p ** (L - 1))
    for _ in range(64):
        comps = [ring.mul_int(ring.from_int(rng.randrange(p ** (n_p - 1))), p)]
        ys, fy, py = (_GhostStep(wide, p) for _ in range(3))
        g = ys.ghost(up(comps[0]))
        for i in range(L - 1):
            have = down(py.solve(wide.mul_int(g, p)))
            pre = ys.ghost(wide.zero)
            base = fy.solve(pre)
            y = _digit(ring, p, n_p, have, down(base), rng)
            if y is None:
                break
            comps.append(y)
            ys.amend(up(y))
            fy.amend(wide.add(base, wide.mul_int(up(y), p)))
            g = wide.add(pre, wide.mul_int(up(y), p ** (i + 1)))
        else:
            y = WittVector(ring, p, comps)
            if is_eigen(y):
                return y
    raise BoundExceeded("no eigen point found")


# --- characteristic-p checks ---------------------------------------------------


def discrepancy_check(ring, p: int, L: int, xs) -> dict:
    """The two unit-group identifications of the kernel fiber differ by
    exactly id - V: running the honest composite (geometric V-series, then
    the exponential back into the rescaled group) on the argument Vx - x
    reproduces the naive class of x, i.e. f(Vx - x) = f_naive(x).

    The displayed form f(x) = f_naive(Vx - x) puts id - V on the wrong
    side: it only agrees up to V^2-terms and has counterexamples for odd p
    at length >= 3.

    The composite's class is the inverse of the unit 1 + V(point.x), and
    inverses are unique, so it is 1 + V(x) iff the product
    (1 + V(point.x)) (1 + V(x)) is 1: one solve, with ghost components
    ghost(V y)_n = p g_(n-1)(y).
    """
    one = teichmuller(ring, p, L, ring.one)
    failures = []
    count = 0
    nontrivial = False

    def unit_product(r, g):
        """ghost((1 + Va)(1 + Vb)): 1, then (1 + p a_(n-1))(1 + p b_(n-1))"""
        return [r.one] + [r.mul(r.add(r.one, r.mul_int(a, p)),
                                r.add(r.one, r.mul_int(b, p)))
                          for a, b in zip(g[0][:L - 1], g[1])]
    for x in xs:
        count += 1
        if not frobenius(x).is_zero():
            failures.append(("not in kernel", repr(x)))
            continue
        arg = witt_sub(verschiebung(x), x)
        geometric = v_geometric(arg)
        # the point of the rescaled group that the composite sends to arg
        point = g_exp(geometric)
        # triangular identity: sum_k V^k (Vx - x) = -x
        if geometric != witt_neg(x):
            failures.append(("geometric series", repr(x)))
        if ghost_combine((point.x, x), unit_product) != one:
            failures.append(("class mismatch", repr(x)))
        if arg != x:
            nontrivial = True
    return {"count": count, "failures": failures,
            "differs_from_identity": nontrivial}


def g_eta_check(ring, p: int, L: int, xs_pairs) -> dict:
    """At the special point: V(1) x = V(Fx) identically, the subgroup cut
    out by V(1) x = 0 is exactly ker F, and on it the induced operation is
    plain Witt addition."""
    v1 = verschiebung(teichmuller(ring, p, L, ring.one))
    failures = []
    for x, y in xs_pairs:
        lhs = witt_op(v1, x, "mul")
        # V maps length L-1 into length L: V(Fx) uses every component of Fx
        rhs = WittVector(ring, p, (ring.zero,) + frobenius(x).components)
        if lhs != rhs:
            failures.append(("projection formula", repr(x)))
        in_kernel_v = lhs.is_zero()
        in_kernel_f = frobenius(x).is_zero()
        if in_kernel_v != in_kernel_f:
            failures.append(("kernel mismatch", repr(x)))
        if in_kernel_f and frobenius(y).is_zero():
            xy = witt_op(x, y, "add")
            law = witt_op(xy, witt_op(v1, witt_op(x, y, "mul"), "mul"), "add")
            if law != xy:
                failures.append(("law not additive", (repr(x), repr(y))))
    return {"failures": failures}


def generic_vector(p: int, L: int):
    """A Witt vector whose components are polynomial generators over F_p,
    for symbolic identity checks; the degree cap covers the largest power
    a length-L identity can produce."""
    base = ModP(p, 1)
    names = tuple("x%d" % i for i in range(L))
    ring = SeriesCoeffRing(base, names, p ** L + 2)
    comps = [ring.var(n) for n in names]
    return ring, WittVector(ring, p, comps)
