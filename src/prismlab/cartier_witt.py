"""Group-like series and their embeddings into big Witt vectors.

Points of the Cartier duals in play here are series f with f(0) = 1
satisfying one of two functional equations: the multiplicative-hom equation
f(y1 y2) = f(y1) f(y2) (written in w = y - 1) or the q-deformed equation
f(z1 + z2 + (q-1) z1 z2) = f(z1) f(z2).  Embedding by f -> f(-z) or
f -> f(z/(z-1)) turns the functional equation into a Frobenius eigenvalue
condition in the big Witt ring, which is what gets checked here.
"""
from __future__ import annotations

from dataclasses import dataclass

from .fgl import FGLHom, h_law, n_series, verify_hom
from .intpoly import IntPoly, lambda_op
from .qhopf import QH, QHT, B0Elem, B0Ring, _c_at_mt, _c_monomial, b0_at_h1
from .ringcore import (
    BoundExceeded, DomainError, ExactInt, NotIntegral, QPoly, TruncSeries,
    h_element, q_element, q_number,
)
from .witt import (
    BigWitt, frobenius_big, from_int_vector, teich_mul, witt_to_bj,
)


@dataclass(frozen=True)
class MultHomSeries:
    """A series with constant term 1 satisfying the tagged functional
    equation to its truncation order."""

    series: TruncSeries           # univariate, constant term 1
    tag: str                      # "R" or "G"
    h: object = None              # the ring element q - 1, for G-type

    def __post_init__(self):
        ring = self.series.ring
        if not ring.eq(self.series.constant_term(), ring.one):
            raise DomainError("constant term must be 1")
        if self.tag not in ("R", "G"):
            raise ValueError("tag must be R or G")

    def verify(self) -> bool:
        """Expand both sides of the functional equation to the stored order."""
        ring = self.series.ring
        order = self.series.order
        var = self.series.variables[0]
        z1 = TruncSeries.var(ring, ("z1", "z2"), order, "z1")
        z2 = TruncSeries.var(ring, ("z1", "z2"), order, "z2")
        law = h_law(ring, ring.one if self.tag == "R" else self.h, order)
        lhs = self.series.subs({var: law.apply(z1, z2)})
        rhs = self.series.subs({var: z1}) * self.series.subs({var: z2})
        return lhs == rhs


def universal_pairing(N: int) -> MultHomSeries:
    """sum c_n z^n over the q-binomial Hopf algebra: the universal G-type
    point, whose functional equation encodes the structure constants."""
    R = B0Ring()
    series = TruncSeries(R, ("z",), {(n,): B0Elem.basis(n)
                                     for n in range(N + 1)}, N)
    h_elem = B0Elem((QH.x,))
    return MultHomSeries(series, "G", h_elem)


def specialize_pairing_at_t(N: int, t_value) -> TruncSeries:
    """Coefficients c_n(t_value, h) in Q[h] for a Q[h]-scalar t_value.
    At t_value = h the series collapses to 1 + h z exactly."""
    out = {}
    for n in range(N + 1):
        mono = _c_monomial(n)
        out[(n,)] = QHT.coeff(QHT.subst(mono, (t_value,)), 0)
    return TruncSeries(QH, ("z",), out, N)


def embed_R(f: MultHomSeries) -> BigWitt:
    """f -> f(1 - z): w = y - 1 becomes -z."""
    if f.tag != "R":
        raise DomainError("embed_R needs an R-type series")
    return _embed_minus_z(f.series)


def embed_G_I(f: MultHomSeries) -> BigWitt:
    """f -> f(-z)."""
    if f.tag != "G":
        raise DomainError("embed_G_I needs a G-type series")
    return _embed_minus_z(f.series)


def _embed_minus_z(series: TruncSeries) -> BigWitt:
    ring = series.ring
    coeffs = {e[0]: (ring.neg(c) if e[0] % 2 else c)
              for e, c in series.coeffs.items() if e[0] >= 1}
    return BigWitt(ring, series.order, coeffs)


def embed_G_II(f: MultHomSeries) -> BigWitt:
    """f -> f(z/(z-1)) = f(-z - z^2 - z^3 - ...)."""
    if f.tag != "G":
        raise DomainError("embed_G_II needs a G-type series")
    ring = f.series.ring
    N = f.series.order
    inner = TruncSeries(ring, ("z",),
                        {(k,): ring.neg(ring.one) for k in range(1, N + 1)}, N)
    return BigWitt.from_series(f.series.compose(inner))


def eigencheck_R(w: BigWitt, m: int) -> bool:
    """F_m(w) = w at the available order."""
    return frobenius_big(w, m) == w.truncate(w.N // m)


def eigencheck_I(w: BigWitt, q, m: int) -> bool:
    """F_m(w) = [q-1]^(m-1) . w."""
    ring = w.ring
    h = ring.sub(q, ring.one)
    rhs = teich_mul(ring.pow(h, m - 1), w)
    return frobenius_big(w, m) == rhs.truncate(w.N // m)


def eigencheck_II(w: BigWitt, q, m: int) -> bool:
    """F_m(w) = (1 + [q] + ... + [q]^(m-1)) . w."""
    ring = w.ring
    acc = BigWitt.one(ring, w.N)
    for i in range(m):
        acc = acc + teich_mul(ring.pow(q, i), w)
    return frobenius_big(w, m) == acc.truncate(w.N // m)


def psi_map(variant: str, n: int, w: BigWitt, q) -> tuple:
    """(w', q^n): the lambda-structure maps on the two Witt realizations."""
    ring = w.ring
    qn = ring.pow(q, n)
    if variant == "I":
        return teich_mul(q_number(ring, n, q), w), qn
    if variant == "II":
        return frobenius_big(w, n), qn
    raise ValueError("variant must be I or II")


# ---------------------------------------------------------------------------
# the fixed-ring rewrite system x_n^p -> x_n - p x_{n+1}


def wf_ring_reduce(expr: dict, p: int, bound: int) -> dict:
    """Normal form of a polynomial in Buium-Joyal coordinates modulo the
    relations x_n^p + p x_{n+1} - x_n, lowering every exponent below p.
    Monomials are exponent tuples over x_0..x_bound; the rewrite terminates
    since total degree drops, and exceeding the variable bound errors."""
    work = {tuple(e): int(c) for e, c in expr.items() if c}
    out: dict = {}
    while work:
        e, c = work.popitem()
        idx = next((i for i, v in enumerate(e) if v >= p), None)
        if idx is None:
            _acc(out, e, c)
            continue
        if idx + 1 > bound:
            raise BoundExceeded("rewrite needs x_%d beyond bound %d"
                                % (idx + 1, bound))
        base = list(e)
        base[idx] -= p
        # x_idx^p = x_idx - p x_{idx+1}
        e1 = list(base)
        e1[idx] += 1
        _acc(work, tuple(e1), c)
        e2 = list(base) + [0] * (idx + 2 - len(base))
        e2[idx + 1] += 1
        _acc(work, tuple(e2), -p * c)
    return out


def _acc(d: dict, e: tuple, c: int):
    cur = d.get(e, 0) + c
    if cur:
        d[e] = cur
    else:
        d.pop(e, None)


def eval_bj_poly(expr: dict, values: list) -> int:
    acc = 0
    for e, c in expr.items():
        term = c
        for i, n in enumerate(e):
            if n:
                term *= values[i] ** n
        acc += term
    return acc


def fixed_point_bj_values(m: int, p: int, L: int) -> list:
    """Buium-Joyal coordinates of the F-fixed Witt vector m*1 over Z."""
    w = from_int_vector(ExactInt(), p, L, m)
    return witt_to_bj(w)


# ---------------------------------------------------------------------------
# the m-series identity and the hom pullback


def m_series_identity(m: int, N: int) -> dict:
    """Three forms of the same element of B0[[z]]:
    sum_n c_n(m t, h) z^n,  (sum_n c_n(t, h) z^n)^m,  and the universal
    pairing composed with the [m]-series of the group law; plus the h = 1
    cross-check against integer-valued polynomials."""
    R = B0Ring()
    pairing = universal_pairing(N).series
    lhs = TruncSeries(R, ("z",), {
        (n,): _basis_at_mt(n, m) for n in range(N + 1)}, N)
    power = pairing ** m
    # [m]-series of z1 + z2 + h z1 z2 over B0
    h_elem = B0Elem((QH.x,))
    law = h_law(R, h_elem, N)
    mz = n_series(law, m).series
    composed = pairing.compose(mz)
    ok_power = lhs == power
    ok_compose = lhs == composed
    # h = 1: z-coefficients specialize to lambda_n(m u) in Int
    ok_int = True
    for n in range(N + 1):
        got = b0_at_h1(lhs.coefficient((n,)))
        mu = IntPoly.u().scale(m)
        ok_int = ok_int and got == lambda_op(n, mu)
    return {"power": ok_power, "compose": ok_compose, "int_h1": ok_int}


def _basis_at_mt(n: int, m: int) -> B0Elem:
    """c_n(m t, h) expanded in the basis, certified integral."""
    elem = B0Elem.from_monomial(_c_at_mt(n, m))
    if not elem.is_integral():
        raise NotIntegral("c_%d(%dt, h) is not integral" % (n, m))
    return elem


def hom_pullback_check(n: int) -> dict:
    """z = (q^n - 1)/(q - 1) y is a hom from the law with parameter q^n - 1
    to the law with parameter q - 1, to order 6; exact on the polynomial
    side."""
    order = 6
    P = QPoly()
    q = q_element(P)
    v = q_number(P, n)
    exact = P.eq(P.sub(P.pow(q, n), P.one), P.mul(h_element(P), v))
    src = h_law(P, P.sub(P.pow(q, n), P.one), order)
    tgt = h_law(P, h_element(P), order)
    y = TruncSeries.var(P, ("z",), order, "z")
    hom = FGLHom(y.scale(v), src, tgt, check=False)
    return {"scalar_identity": exact, "hom": verify_hom(hom)["ok"]}
