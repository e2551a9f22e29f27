"""One-dimensional formal group laws over a pluggable coefficient ring.

Laws are truncated bivariate series verified against the group axioms to
their stated order; homomorphisms are univariate series checked against the
intertwining identity.  Includes the multiplication-by-n series, rescaling
by a ring element, and the deformation to the additive law.
"""
from __future__ import annotations

from .ringcore import (
    DomainError, IdentityFailed, Ring, SeriesCoeffRing, TruncSeries,
    q_element, q_number,
)


LAW_VARS = ("z1", "z2")


class FormalGroupLaw:
    """A bivariate series satisfying unit, commutativity and associativity
    to its truncation order."""

    __slots__ = ("ring", "law", "order")

    def __init__(self, law: TruncSeries, check: bool = True):
        if law.variables != LAW_VARS:
            raise DomainError("a law is a series in %s, not %s"
                              % (LAW_VARS, law.variables))
        self.law = law
        self.ring = law.ring
        self.order = law.order
        if check:
            failure = law_axiom_failure(law)
            if failure is not None:
                raise IdentityFailed(failure)

    def __eq__(self, other):
        if not isinstance(other, FormalGroupLaw):
            return NotImplemented
        return self.law == other.law

    def __hash__(self):
        return hash(self.law)

    def __repr__(self):
        return "FGL(%s)" % self.law

    def apply(self, a: TruncSeries, b: TruncSeries) -> TruncSeries:
        return self.law.subs({"z1": a, "z2": b})


def law_axiom_failure(law: TruncSeries):
    """None if the law satisfies the axioms, else a message naming the axiom
    and the lowest failing total degree."""
    ring, order = law.ring, law.order
    z = TruncSeries.var(ring, ("z",), order, "z")
    zero = TruncSeries.zero(ring, ("z",), order)
    left_unit = law.subs({"z1": z, "z2": zero})
    if left_unit != z:
        return "unit fails: F(z, 0) = %s at degree %s" % (
            left_unit, _low_diff(left_unit, z))
    right_unit = law.subs({"z1": zero, "z2": z})
    if right_unit != z:
        return "unit fails: F(0, z) = %s at degree %s" % (
            right_unit, _low_diff(right_unit, z))
    swapped = TruncSeries(ring, LAW_VARS,
                          {(j, i): c for (i, j), c in law.coeffs.items()}, order)
    if swapped != law:
        return "commutativity fails at degree %s" % _low_diff(swapped, law)
    t = [TruncSeries.var(ring, ("z1", "z2", "z3"), order, v)
         for v in ("z1", "z2", "z3")]
    lhs = law.subs({"z1": law.subs({"z1": t[0], "z2": t[1]}), "z2": t[2]})
    rhs = law.subs({"z1": t[0], "z2": law.subs({"z1": t[1], "z2": t[2]})})
    if lhs != rhs:
        return "associativity fails at degree %s" % _low_diff(lhs, rhs)
    return None


def _low_diff(a, b):
    d = a - b
    return d.low_order()


def additive_law(ring: Ring, order: int) -> FormalGroupLaw:
    return FormalGroupLaw(TruncSeries(
        ring, LAW_VARS, {(1, 0): ring.one, (0, 1): ring.one}, order),
        check=False)


def h_law(ring: Ring, h, order: int) -> FormalGroupLaw:
    """z1 + z2 + h z1 z2."""
    return FormalGroupLaw(TruncSeries(
        ring, LAW_VARS, {(1, 0): ring.one, (0, 1): ring.one, (1, 1): h},
        order), check=False)


def multiplicative_law(ring: Ring, order: int) -> FormalGroupLaw:
    return h_law(ring, ring.one, order)


def f_pullback_h_law(ring: Ring, p: int, order: int) -> FormalGroupLaw:
    """y1 + y2 + (q^p - 1) y1 y2 over a ring containing q."""
    q = q_element(ring)
    return h_law(ring, ring.sub(ring.pow(q, p), ring.one), order)


class FGLHom:
    """A series with zero constant term intertwining two laws."""

    __slots__ = ("series", "source", "target")

    def __init__(self, series: TruncSeries, source: FormalGroupLaw,
                 target: FormalGroupLaw, check: bool = True):
        if len(series.variables) != 1:
            raise DomainError("hom series must be univariate")
        if not series.ring.is_zero(series.constant_term()):
            raise DomainError("hom series has a constant term")
        self.series = series
        self.source = source
        self.target = target
        if check:
            rep = verify_hom(self)
            if not rep["ok"]:
                raise IdentityFailed(rep["detail"])

    def __call__(self, arg: TruncSeries) -> TruncSeries:
        return self.series.subs({self.series.variables[0]: arg})

    def __repr__(self):
        return "FGLHom(%s)" % self.series


def verify_hom(f: FGLHom) -> dict:
    """Check f(F(z1,z2)) = G(f(z1), f(z2)) to the working order."""
    law_s, law_t = f.source, f.target
    order = min(x for x in (f.series.order, law_s.order, law_t.order)
                if x is not None) if law_s.order is not None else f.series.order
    z1 = TruncSeries.var(f.series.ring, LAW_VARS, order, "z1")
    z2 = TruncSeries.var(f.series.ring, LAW_VARS, order, "z2")
    lhs = f(law_s.apply(z1, z2))
    rhs = law_t.apply(f(z1), f(z2))
    ok = lhs == rhs
    return {"ok": ok,
            "detail": "intertwining holds to order %s" % order if ok else
            "intertwining fails at degree %s" % _low_diff(lhs, rhs)}


def n_series(law: FormalGroupLaw, n: int) -> FGLHom:
    """[n](z), the multiplication-by-n endomorphism series, for n >= 0."""
    if n < 0:
        raise ValueError("n_series takes n >= 0, not %d" % n)
    ring, order = law.ring, law.order
    z = TruncSeries.var(ring, ("z",), order, "z")
    acc = TruncSeries.zero(ring, ("z",), order)
    for _ in range(n):
        acc = law.apply(acc, z)
    return FGLHom(acc, law, law, check=False)


def rescale(law: FormalGroupLaw, alpha) -> FormalGroupLaw:
    """Conjugate by multiplication by alpha: coefficient of z1^i z2^j picks
    up alpha^(i+j-1).  Well defined for non-invertible alpha since i+j >= 1."""
    ring = law.ring
    out = {}
    for (i, j), c in law.law.coeffs.items():
        out[(i, j)] = ring.mul(ring.pow(alpha, i + j - 1), c)
    return FormalGroupLaw(TruncSeries(ring, LAW_VARS, out, law.order),
                          check=False)


def scaling_map(law_rescaled: FormalGroupLaw, law: FormalGroupLaw,
                alpha) -> FGLHom:
    """psi_alpha: multiplication by alpha, a hom from the rescaled law."""
    ring = law.ring
    z = TruncSeries.var(ring, ("z",), law.order, "z")
    return FGLHom(z.scale(alpha), law_rescaled, law, check=False)


def deformation_family(law: FormalGroupLaw) -> FormalGroupLaw:
    """The law over ring[a] restricting to `law` at a=1 and to the additive
    law at a=0."""
    ring = law.ring
    ext = SeriesCoeffRing(ring, ("a",), law.order)
    lifted = law.law.map_coeffs(ext.embed, ext)
    return rescale(FormalGroupLaw(lifted, check=False), ext.var("a"))


def specialize_deformation(family: FormalGroupLaw, value) -> FormalGroupLaw:
    """Evaluate the deformation parameter at a base-ring element."""
    ext = family.ring
    if not isinstance(ext, SeriesCoeffRing):
        raise DomainError("not a deformation family")
    collapsed = family.law.map_coeffs(
        lambda c: ext.eval_at(c, {"a": value}), ext.base)
    return FormalGroupLaw(collapsed, check=False)


def phi_q_hom(ring: Ring, p: int, order: int) -> FGLHom:
    """z = Phi_p(q) y, from the Frobenius pullback law to the q-deformed
    multiplicative law."""
    src = f_pullback_h_law(ring, p, order)
    tgt = h_law(ring, ring.sub(q_element(ring), ring.one), order)
    y = TruncSeries.var(ring, ("z",), order, "z")
    return FGLHom(y.scale(q_number(ring, p)), src, tgt)
