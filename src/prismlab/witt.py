"""p-typical and big Witt vectors.

Every Witt operation, p-typical or big, is one ghost solve through one
dispatch (`ghost_combine`, which also runs whole expressions), on one of
two paths: over the ring itself when it is torsion-free and divides
exactly (B_0 among them), or over the bounded lift reduced back: Z/m, or a
polynomial or series ring over it, solves exactly mod m in the same ring
over Z/(m p^(L-1)) for length L, over Z/(m lcm(1..N)) for big Witt order
N (`_bounded_lift`).  Each vector keeps its ghost components in the last
ring a solve needed them in and computes them again only in another
ring.  Ghost components live in the coefficient ring itself, which must
be torsion-free for them to determine the vector: `ghost`, `from_ghost`,
`from_ghost_big`, `bj_to_witt` and `witt_to_bj` raise DomainError on a
torsion ring.  A p-typical solve or ghost map is one step per component
(`_GhostStep`), on plain ints over Z and Z/m; every solve divides with
its ring's `div_int_exact`, and a quotient outside the ring raises
NotIntegral.  The memoized universal polynomial tables, evaluated in the
coefficient ring with no lift, are an oracle only (`witt_op_universal`):
no operation falls back to them, and over Z the two must agree
(`verify --suite witt.universal`).
"""
from __future__ import annotations

import math
from bisect import bisect_right
from functools import lru_cache, reduce
from operator import itemgetter, neg, or_

from .ringcore import (
    BoundExceeded, DomainError, IdentityFailed, IntModRing, IntRing,
    NotIntegral, Ring, TruncSeries, _same, build_once, series_inverse,
    widened,
)


# ---------------------------------------------------------------------------
# p-typical vectors


class WittVector:
    """Witt coordinates (x_0, ..., x_{L-1}) over a coefficient ring."""

    __slots__ = ("ring", "p", "components", "_ghost_memo")

    def __init__(self, ring: Ring, p: int, components):
        self.ring = ring
        self.p = p
        self.components = tuple(components)
        self._ghost_memo = None

    @property
    def L(self) -> int:
        return len(self.components)

    def _check(self, other: "WittVector"):
        if self.ring != other.ring or self.p != other.p:
            raise DomainError("incompatible Witt vectors")
        if len(self.components) != len(other.components):
            raise DomainError("Witt lengths differ")

    def __eq__(self, other):
        if not isinstance(other, WittVector):
            return NotImplemented
        return (self.ring == other.ring and self.p == other.p
                and len(self.components) == len(other.components)
                and all(self.ring.eq(a, b)
                        for a, b in zip(self.components, other.components)))

    def __hash__(self):
        return hash((self.ring, self.p, self.components))

    def is_zero(self):
        return all(self.ring.is_zero(c) for c in self.components)

    def __add__(self, other):
        return witt_op(self, other, "add")

    def __mul__(self, other):
        return witt_op(self, other, "mul")

    def __neg__(self):
        return witt_neg(self)

    def __sub__(self, other):
        return witt_sub(self, other)

    def __repr__(self):
        return "W(%s)" % ", ".join(self.ring.fmt(c) for c in self.components)

    # the three hooks of the ghost dispatch ghost_combine

    def _ghosts(self) -> list:
        return ghost_in_ring(self)

    def _solve(self, ring, ghosts) -> "WittVector":
        """The vector over ring with these ghost components, one _GhostStep
        solve per component."""
        step = _GhostStep(ring, self.p)
        return WittVector(ring, self.p, [step.solve(g) for g in ghosts])

    def _map(self, ring, fn) -> "WittVector":
        """fn applied to each component, into ring."""
        return WittVector(ring, self.p, _images(
            self.ring, fn, self.components, "ghost component"))


def _images(ring, fn, items, what: str) -> list:
    """[fn(c) for c in items], or items as they stand if fn is _same;
    NotIntegral at the first c with fn(c) None (no image there)."""
    if fn is _same:
        return items
    out = [fn(c) for c in items]
    for n, img in enumerate(out):
        if img is None:
            raise NotIntegral("%s %d solves to %s"
                              % (what, n, ring.fmt(items[n])))
    return out


def zero_vector(ring, p, L) -> WittVector:
    return WittVector(ring, p, [ring.zero] * L)


def teichmuller(ring, p, L, a) -> WittVector:
    return WittVector(ring, p, [a][:L] + [ring.zero] * (L - 1))


def from_int_vector(ring, p, L, n: int) -> WittVector:
    """The image of the integer n under Z -> W(ring)."""
    return scalar_mul(n, teichmuller(ring, p, L, ring.one))


# --- ghost backend ----------------------------------------------------------


def ghost_in_ring(w: WittVector) -> list:
    """Ghost components computed with the vector's own ring arithmetic
    (polynomial data, no division), one _GhostStep per component."""
    step = _GhostStep(w.ring, w.p)
    return [step.ghost(x) for x in w.components]


class _GhostStep:
    """The ghost map of one p-typical vector, one index n at a time, both
    ways: ghost(x_n) gives g_n, and solve(g_n) gives x_n = (g_n -
    sum_{i<n} p^i x_i^(p^(n-i))) / p^n by ring.div_int_exact, which also
    certifies x_0 = g_0 / 1; each pushes x_n.  pows holds the
    x_i^(p^(n-1-i)), raised to the p-th power once per index.  Over Z and
    Z/M (IntRing, IntModRing) it works on plain ints: running powers, an
    unreduced weighted sum, one % M and one divmod by p^n; other rings use
    their own arithmetic.  amend(x) takes x as the last component in place
    of the one pushed, any x whose ghost the caller knows, as the de Rham
    samplers do."""

    __slots__ = ("ring", "p", "pows", "mod")

    def __init__(self, ring, p: int):
        self.ring, self.p, self.pows = ring, p, []
        # the modulus of Z/M, 0 over Z (no reduction), None elsewhere
        kind = type(ring)
        self.mod = (ring.m if kind is IntModRing
                    else 0 if kind is IntRing else None)

    def ghost(self, x):
        p, mod = self.p, self.mod
        if mod is None:
            r = self.ring
            self.pows = pows = [r.pow(y, p) for y in self.pows] + [x]
            return reduce(r.add, [r.mul_int(y, p ** i)
                                  for i, y in enumerate(pows)])
        self.pows = pows = [pow(y, p, mod or None) for y in self.pows] + [x]
        acc, pk = 0, 1
        for y in pows:
            acc += pk * y
            pk *= p
        return acc % mod if mod else acc

    def solve(self, g):
        p, mod = self.p, self.mod
        if mod is None:
            r = self.ring
            self.pows = pows = [r.pow(y, p) for y in self.pows]
            for i, y in enumerate(pows):
                g = r.sub(g, r.mul_int(y, p ** i))
            x = r.div_int_exact(g, p ** len(pows))
        else:
            self.pows = pows = [pow(y, p, mod or None) for y in self.pows]
            pk = 1
            for y in pows:
                g -= pk * y
                pk *= p
            x, rem = divmod(g % mod if mod else g, pk)
            x = None if rem else x
        if x is None:
            raise NotIntegral("ghost component %d is not integral"
                              % len(pows))
        pows.append(x)
        return x

    def amend(self, x):
        self.pows[-1] = x


def _has_exact_division(ring) -> bool:
    return ring.div_int_exact(ring.one, 1) is not None


def _torsion_free(ring):
    """ring, or DomainError if it has torsion: the ghost map is defined
    over every ring, but only over a torsion-free one is it injective, so
    that ghost components determine the vector."""
    if not ring.is_torsion_free:
        raise DomainError("ring %s has torsion: ghost components do "
                          "not determine a Witt vector there" % ring)
    return ring


def ghost(w):
    """Ghost components of a p-typical or big Witt vector, in its
    coefficient ring, which must be torsion-free."""
    _torsion_free(w.ring)
    return w._ghosts()


def from_ghost(ring, p, ghosts) -> WittVector:
    """Solve the ghost equations over the torsion-free ring, in which the
    ghosts live; error if a component is not integral."""
    return WittVector(ring, p, ())._solve(_torsion_free(ring), ghosts)


@lru_cache(maxsize=None)
def _bounded_lift(ring, factor: int):
    """widened(ring, factor), memoized per (ring, factor): a PolyQuotRing is
    too costly to build per operation.

    The factor is M, the lcm of the truncation set S: p^(L-1) for
    S = {1, p, ..., p^(L-1)} at length L, lcm(1..N) for S = {1, ..., N} at
    big Witt order N.  It makes a solve exact mod m, for any lift of the
    inputs and any choice among the quotients div_int_exact may return.
    The ring is B/m and the lift B/(m M), B free over Z (Z, or a
    polynomial or series ring over Z).  The inputs lift to B, where
    combine gives the ghosts of a vector y.  Step n of the solve makes
    ghost n of its result x equal to combine's g_n in B/(m M), so any lift
    of x to B has ghost(x) = ghost(y) mod m M.  In Witt coordinates (a big
    Witt series is prod (1 - x_k z^k), an integral change of coordinates
    both ways), ghost n is the sum over k in S dividing n of k x_k^(n/k).

    Prime by prime: let q be a prime dividing m, a = v_q(m) and
    e = v_q(M), the largest v_q(k) for k in S: floor(log_q N) for
    lcm(1..N).  By induction on n in S, x_n = y_n mod q^(a+e-v_q(n)).
    For k < n in S this holds mod some q^c with c >= a >= 1, and u = v mod
    q^c gives u^j = v^j mod q^(c+v_q(j)), so k (x_k^(n/k) - y_k^(n/k))
    vanishes mod q^(a+e).  Then so does n (x_n - y_n), and x_n = y_n mod
    q^(a+e-v_q(n)), at least mod q^a since v_q(n) <= e.  Over all q,
    x = y mod m.  With M / q in place of M, the same argument gives step
    n = q^e only mod q^(a-1)."""
    return widened(ring, factor)


def ghost_combine(vectors, combine):
    """The Witt vector, p-typical or big, whose ghost components are
    combine(R, ghosts), where ghosts holds the ghost tuples of the vectors
    computed in the ring R, on one of two paths: the coefficient ring
    itself when it is torsion-free and divides exactly (Z, Q, the
    polynomial and series rings over them, B_0); else its bounded lift
    (_bounded_lift), factor p^(L-1) at length L or lcm(1..N) at order N,
    with the result reduced back (reduction W(lift) -> W(ring) is a ring
    map).
    Every solve divides with its ring's div_int_exact.  One ghost solve
    however many operations combine makes.  combine must send ghost lists
    of Witt vectors to the ghost list of a Witt vector: ring operations per
    component, F (drop the first component) and V (g_n -> p g_(n-1)); its
    output is no longer than its longest input.  DomainError on a ring with
    neither exact division nor a bounded lift.

    Each input keeps (R, its ghosts in R), R the bounded lift or the ring
    itself, so a vector solved again in the same R is not ghosted again;
    beside a longer partner R can have a larger factor, and then they are
    recomputed.  The memo holds tuples, which no combine can mutate.

    The result keeps (R, gs), gs the combine output it was solved from.
    Both solves are exact in R: div_int_exact returns q with q n equal to
    the representative it divides, p^n in step n of the p-typical solve
    and n in step n of the big-Witt Newton step.  So the solved vector in
    W(R) has ghost components exactly gs.  It lifts the reduced result, and
    the bounded solve is exact mod m for any lift of its inputs, so gs
    serves the reduced result as well as any lift's ghosts would."""
    w, ring = vectors[0], vectors[0].ring
    if ring.is_torsion_free and _has_exact_division(ring):
        wide, up = ring, _same
    else:
        if isinstance(w, WittVector):
            factor = w.p ** max(max(v.L for v in vectors) - 1, 0)
        else:
            factor = math.lcm(*range(1, max(v.N for v in vectors) + 1))
        bounded = _bounded_lift(ring, factor)
        if bounded is None:
            raise DomainError("ring %s has neither exact division nor "
                              "a bounded lift" % ring)
        wide, up, down = bounded
    ghosts = []
    for v in vectors:
        memo = v._ghost_memo
        if memo is None or memo[0] != wide:
            lifted = v if wide is v.ring else v._map(wide, up)
            memo = v._ghost_memo = (wide, tuple(lifted._ghosts()))
        ghosts.append(memo[1])
    gs = tuple(combine(wide, ghosts))
    out = w._solve(wide, gs)
    if wide is not ring:
        out = out._map(ring, down)
    out._ghost_memo = (wide, gs)
    return out


# --- universal polynomial tables, the oracle --------------------------------
#
# The tables are built once per (op, p, L) in plain integer arithmetic: the
# p=5, L=4 entries run to tens of thousands of monomials and Fraction
# overhead would dominate.  During the build a monomial prod x_i^e_i is one
# int, sum e_i << (i*B) (Kronecker packing), so multiplying two monomials is
# one int addition.  The width B is fixed by (p, L), not chosen: with a_i and
# b_i of weight p^i, every polynomial the build forms is isobaric of weight
# at most p^(L-1) in the a's and, separately, in the b's, so no exponent
# exceeds p^(L-1).  B is that bound's bit length plus a guard bit, rounded
# up to whole bytes, so a field is one byte in every table up to p^(L-1) =
# 127 and unpacks with one int.to_bytes per monomial.  The guard bit is the
# top bit of each field: an in-bound field stays below it, so adding two
# never carries into the next field.  Every product checks its operands'
# guard bits and the unpacked exponents are checked against the bound, so
# an overflow raises instead of corrupting a table.

_UNIVERSAL_OPS = ("add", "mul", "neg", "frobenius")
# (5, 4) addition, the largest table in use, has 37,760 monomials in its
# last component and builds in about 1.5 s; (3, 5) addition (83,640) takes
# about 6 s, and (7, 4) addition, bounded by 706,814, did not finish in 150 s.
UNIVERSAL_MAX_MONOMIALS = 200_000


def _pk_mul(a: dict, b: dict, guard: int) -> dict:
    """Product of packed polynomials; a square visits each pair once."""
    if (reduce(or_, a, 0) | reduce(or_, b, 0)) & guard:
        raise IdentityFailed("packed exponent reached its guard bit")
    out: dict = {}
    get = out.get
    if a is b:
        items = list(a.items())
        for k, (e1, c1) in enumerate(items):
            e = e1 + e1
            out[e] = get(e, 0) + c1 * c1
            c1 *= 2
            for e2, c2 in items[k + 1:]:
                e = e1 + e2
                out[e] = get(e, 0) + c1 * c2
    else:
        if len(a) < len(b):
            a, b = b, a
        inner = list(b.items())
        for e1, c1 in a.items():
            for e2, c2 in inner:
                e = e1 + e2
                out[e] = get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _pk_pow(a: dict, n: int, guard: int) -> dict:
    acc = None
    while True:
        if n & 1:
            acc = a if acc is None else _pk_mul(acc, a, guard)
        n >>= 1
        if not n:
            return acc
        a = _pk_mul(a, a, guard)


def _pk_axpy(acc: dict, s: int, b: dict) -> dict:
    for e, c in b.items():
        v = acc.get(e, 0) + s * c
        if v:
            acc[e] = v
        else:
            acc.pop(e, None)
    return acc


def _pk_div_exact(a: dict, d: int) -> dict:
    out = {}
    for e, c in a.items():
        q, r = divmod(c, d)
        if r:
            raise NotIntegral("universal polynomial solve hit %s/%s" % (c, d))
        out[e] = q
    return out


def _pk_ghosts(p, L, offset, width) -> list:
    """Ghost components of a generic vector whose i-th coordinate is
    variable offset+i, as packed polynomials."""
    return [{p ** (n - i) << ((offset + i) * width): p ** i
             for i in range(n + 1)} for n in range(L)]


def _pk_solve_ghosts(p, ghosts, guard) -> list:
    """Witt components with the given ghost components.  pows[i] holds
    S_i^(p^(n-i)) and is raised to the p-th power once per step."""
    sols: list = []
    pows: list = []
    for n, g in enumerate(ghosts):
        acc = dict(g)
        pows = [_pk_pow(x, p, guard) for x in pows]
        for i, x in enumerate(pows):
            _pk_axpy(acc, -(p ** i), x)
        sols.append(_pk_div_exact(acc, p ** n))
        pows.append(sols[-1])
    return sols


def _pk_unpack(poly: dict, nvars: int, width: int, bound: int) -> dict:
    """{exponent tuple: coefficient}; raises if an exponent exceeds bound
    or a monomial has bits above its nvars fields."""
    if width == 8:
        try:
            keys = [e.to_bytes(nvars, "little") for e in poly]
        except OverflowError:
            keys = None
        if keys is None or max(b"".join(keys), default=0) > bound:
            e = next(e for e in poly if e >> (nvars * 8)
                     or max(e.to_bytes(nvars, "little")) > bound)
            raise IdentityFailed("packed exponent %#x exceeds %d" % (e, bound))
        return dict(zip(map(tuple, keys), poly.values()))
    mask = (1 << width) - 1
    out = {}
    for e, c in poly.items():
        exps = tuple((e >> (i * width)) & mask for i in range(nvars))
        if max(exps) > bound or e >> (nvars * width):
            raise IdentityFailed("packed exponent %#x exceeds %d" % (e, bound))
        out[exps] = c
    return out


def _build_universal(op: str, p: int, L: int) -> tuple:
    bound = p ** (L - 1) if L else 1
    width = -(-(bound.bit_length() + 1) // 8) * 8
    guard = sum(1 << (i * width + width - 1) for i in range(2 * L))
    avars = tuple("a%d" % i for i in range(L))
    if op in ("add", "mul"):
        names = avars + tuple("b%d" % i for i in range(L))
        ga = _pk_ghosts(p, L, 0, width)
        gb = _pk_ghosts(p, L, L, width)
        if op == "add":
            combined = [_pk_axpy(x, 1, y) for x, y in zip(ga, gb)]
        else:
            combined = [_pk_mul(x, y, guard) for x, y in zip(ga, gb)]
    else:
        names = avars
        ga = _pk_ghosts(p, L, 0, width)
        if op == "neg":
            combined = [{e: -c for e, c in g.items()} for g in ga]
        else:
            combined = ga[1:]
    Z = IntRing()
    return tuple(TruncSeries(Z, names, _pk_unpack(s, len(names), width, bound),
                             None)
                 for s in _pk_solve_ghosts(p, combined, guard))


def universal_size_bound(op: str, p: int, L: int) -> int:
    """The most monomials one polynomial of the (op, p, L) table can have,
    counted without building it.  With a_i and b_i of weight p^i, component
    n is isobaric of weight at most p^(L-1), and multiplying by a0 embeds
    the monomials of one weight in those of the next, so the monomials of
    weight p^(L-1), counted by the coin-change recurrence over the weights,
    bound every component.  A product component is isobaric in the a's
    and, separately, in the b's: its bound is the one-vector count
    squared."""
    weight = p ** (L - 1) if L else 0
    ways = [1] + [0] * weight
    copies = 2 if op == "add" else 1
    for i in range(L):
        for _ in range(copies):
            for t in range(p ** i, weight + 1):
                ways[t] += ways[t - p ** i]
    return ways[weight] ** 2 if op == "mul" else ways[weight]


def check_universal_size(op: str, p: int, L: int) -> None:
    """Raise BoundExceeded if the (op, p, L) table may exceed
    UNIVERSAL_MAX_MONOMIALS.  A weight p^(L-1) above the limit is refused
    uncounted: the count would take that many steps, and the build raises
    polynomials to that power."""
    limit = UNIVERSAL_MAX_MONOMIALS
    weight = p ** (L - 1) if L else 0
    if weight > limit:
        raise BoundExceeded(
            "the %s table for p=%d, L=%d has weight p^(L-1) = %d, over the "
            "limit of %d monomials" % (op, p, L, weight, limit))
    estimate = universal_size_bound(op, p, L)
    if estimate > limit:
        raise BoundExceeded(
            "the %s table for p=%d, L=%d may have %d monomials in one "
            "polynomial, over the limit of %d" % (op, p, L, estimate, limit))


def witt_universal(op: str, p: int, L: int):
    """Universal polynomials for add/mul/neg/frobenius, memoized per (op, p, L).

    add/mul: polynomials in a0..a_{L-1}, b0..b_{L-1}; neg: in a_i;
    frobenius: L-1 polynomials in a0..a_{L-1}.  Each table is built once
    (ringcore.build_once), however many threads ask for it; one that
    check_universal_size refuses raises BoundExceeded unbuilt, and nothing
    is stored for it.
    """
    if op not in _UNIVERSAL_OPS:
        raise ValueError("unknown op %r" % op)
    return _universal_table(op, p, L)


@build_once
def _universal_table(op: str, p: int, L: int) -> tuple:
    check_universal_size(op, p, L)
    return _build_universal(op, p, L)


# (op, p, L) -> the polynomials of that table
_universal_cache = _universal_table.cache


@build_once
def _table_evaluators(op: str, p: int, L: int) -> list:
    """The compiled evaluators of the components of a table, compiled once
    (ringcore.build_once) the first time an evaluation over Z or Z/m asks
    for them.  A product table's evaluators nest its a's outside its b's
    (_horner_source's split)."""
    return [_compile_int_poly(s, op == "mul")
            for s in _universal_table(op, p, L)]


# Parentheses a Horner evaluator nests before it moves the expression to a
# local; Python's parser refuses more than 200.
_HORNER_DEPTH = 64


def _horner_source(poly: TruncSeries, maxdeg: list,
                   split: bool = False) -> str:
    """Source of _f(_p0, _p1, ...) computing poly in nested Horner form from
    one power table _pi per variable: the terms are grouped by the exponent
    of the outer variable, each group's cofactor is a polynomial in the
    remaining variables, and a gap between two exponents is one factor
    _pi[gap], bound once to a local.  The variables nest by falling degree,
    and with split the first half of them (a table's a's) nest outside the
    second (its b's), each half by falling degree.  In a table a_i and b_i
    both have degree p^(n-i) in component n.  An addition component is
    isobaric in the a's and b's together, so the order interleaves them,
    a0, b0, a1, b1, ...: the outer levels split on the variables with the
    most distinct exponents, and the cofactors inside stay few and small.
    A product component is isobaric in the a's and, separately, in the b's
    (_table_evaluators splits it), so its a-monomials are few (82 at p=5,
    L=4): with the a's outside, the outer levels run over them and each
    carries one polynomial in the b's, which the interleaved order would
    cut apart at every level of an a.  Each order measured the faster, to
    emit, compile and call, on its own kind of table."""
    nv = len(maxdeg)
    order = sorted(range(nv),
                   key=lambda i: (split and 2 * i >= nv, -maxdeg[i]))
    perm = itemgetter(*order) if nv > 1 else tuple
    coeffs = poly.coeffs
    coeff = dict(zip(map(perm, coeffs), coeffs.values()))
    terms = sorted(coeff, reverse=True)
    # within a run of terms that agree before level d, column d falls, so
    # the run of one exponent at d ends where bisecting the negated column
    # puts it
    cols = list(zip(*terms))
    # names[d][x] is the local that holds variable order[d] to the power x,
    # named once; used[d] collects the x the body refers to
    names = [["_x%d_%d" % (i, x) for x in range(maxdeg[i] + 1)]
             for i in order]
    used = [set() for _ in order]
    hoisted: list = []

    def emit(lo, hi, d):
        # (expression, parenthesis depth) for the sum of terms[lo:hi]
        if hi - lo == 1:
            e = terms[lo]
            c = coeff[e]
            factors = []
            for k in range(d, nv):
                x = e[k]
                if x:
                    used[k].add(x)
                    factors.append(names[k][x])
            return "*".join(factors if c == 1 and factors
                            else [repr(c)] + factors), 0
        col, name, use = cols[d], names[d], used[d]
        out = depth = prev = None
        while lo < hi:
            x = col[lo]
            mid = bisect_right(col, -x, lo + 1, hi, key=neg)
            inner, idepth = emit(lo, mid, d + 1)
            if out is None:
                out, depth = inner, idepth
            else:
                use.add(prev - x)
                out = "%s+%s*(%s)" % (inner, name[prev - x], out)
                depth = max(idepth, depth + 1)
            if depth >= _HORNER_DEPTH:
                hoisted.append("    _t%d = %s" % (len(hoisted), out))
                out, depth = "_t%d" % (len(hoisted) - 1), 0
            prev, lo = x, mid
        if prev:
            use.add(prev)
            return "%s*(%s)" % (name[prev], out), depth + 1
        return out, depth

    body = emit(0, len(terms), 0)[0] if terms else "0"
    # free the emission tables before the source is joined
    del cols, coeff, terms, names
    powers = sorted((i, x) for i, use in zip(order, used) for x in use)
    return "\n".join(
        ["def _f(%s):" % ", ".join("_p%d" % i for i in range(nv))]
        + ["    _x%d_%d = _p%d[%d]" % (i, x, i, x) for i, x in powers]
        + hoisted + ["    return " + body])


def _compile_int_poly(poly: TruncSeries, split: bool = False):
    """The plain-int evaluator of an integer polynomial, a function of one
    power table per variable, with the table lengths it needs; split is
    _horner_source's."""
    maxdeg = (list(map(max, zip(*poly.coeffs))) if poly.coeffs
              else [0] * len(poly.variables))
    ns: dict = {}
    source = _horner_source(poly, maxdeg, split)
    exec(source, ns)  # noqa: S102 - from a trusted table
    return ns["_f"], maxdeg


def eval_int_poly(poly: TruncSeries, ring: Ring, values: list,
                  compiled=None):
    """Evaluate an integer polynomial at ring elements.  Over Z and Z/m at
    int values, compiled, the evaluator of poly from _compile_int_poly, is
    fed one power table per variable; over Z/m the tables are reduced mod
    m, which leaves the result mod m unchanged and keeps the factors small.
    Without an evaluator the polynomial goes term by term, caching
    powers."""
    if compiled is not None:
        fn, maxdeg = compiled
        m = ring.m if isinstance(ring, IntModRing) else None
        tables = []
        for v, d in zip(values, maxdeg):
            table = [1]
            for _ in range(d):
                x = table[-1] * v
                table.append(x if m is None else x % m)
            tables.append(table)
        out = fn(*tables)
        return out if m is None else out % m
    pows = [{} for _ in values]
    acc = ring.zero
    for e, c in poly.coeffs.items():
        term = ring.from_int(c)
        for i, n in enumerate(e):
            if n:
                cache = pows[i]
                if n not in cache:
                    cache[n] = ring.pow(values[i], n)
                term = ring.mul(term, cache[n])
        acc = ring.add(acc, term)
    return acc


def witt_op(a: WittVector, b: WittVector, op: str) -> WittVector:
    a._check(b)
    if op not in ("add", "mul"):
        raise ValueError("op must be add or mul")
    return ghost_combine((a, b), lambda r, g: list(map(getattr(r, op), *g)))


def witt_sub(a: WittVector, b: WittVector) -> WittVector:
    """a - b, one ghost solve of g_a - g_b."""
    a._check(b)
    return ghost_combine((a, b), lambda r, g: list(map(r.sub, *g)))


def witt_neg(a: WittVector) -> WittVector:
    return ghost_combine((a,), lambda r, g: [r.neg(x) for x in g[0]])


def witt_op_universal(a: WittVector, b: WittVector, op: str) -> WittVector:
    """Force the universal-polynomial backend (oracle cross-checks)."""
    return _universal(op, a, b)


def _universal(op: str, *vectors) -> WittVector:
    """The table for op evaluated at the components of vectors: by the
    table's compiled evaluators over Z and Z/m at int values, else term by
    term."""
    w, ring = vectors[0], vectors[0].ring
    values = [c for v in vectors for c in v.components]
    polys = witt_universal(op, w.p, w.L)
    compiled = [None] * len(polys)
    if (isinstance(ring, (IntRing, IntModRing))
            and all(isinstance(v, int) for v in values)):
        compiled = _table_evaluators(op, w.p, w.L)
    return WittVector(ring, w.p, [eval_int_poly(s, ring, values, f)
                                  for s, f in zip(polys, compiled)])


def scalar_mul(n: int, w: WittVector) -> WittVector:
    """n . w for an integer n, as one ghost scaling: ghost(n.w) = n.ghost(w)."""
    return ghost_combine((w,), lambda r, g: [r.mul_int(x, n) for x in g[0]])


def witt_pow(w: WittVector, n: int) -> WittVector:
    """w^n for an integer n >= 0, one ghost solve: ghost(w^n) = ghost(w)^n."""
    if n < 0:
        raise ValueError("negative powers not supported")
    return ghost_combine((w,), lambda r, g: [r.pow(x, n) for x in g[0]])


def frobenius(w: WittVector) -> WittVector:
    """F: W_L -> W_{L-1}; ghost(Fw)_n = ghost(w)_{n+1}."""
    return ghost_combine((w,), lambda r, g: g[0][1:])


def verschiebung(w: WittVector) -> WittVector:
    """V at fixed length: (0, x_0, ..., x_{L-2})."""
    return WittVector(w.ring, w.p, (w.ring.zero,) + w.components[:-1])


# ---------------------------------------------------------------------------
# delta-rings and the Joyal lift


class DeltaRing:
    """A torsion-free ring with a Frobenius lift phi."""

    def __init__(self, ring: Ring, p: int, phi):
        if not ring.is_torsion_free:
            raise DomainError("delta structure needs a torsion-free ring")
        self.ring = ring
        self.p = p
        self.phi = phi


def joyal_lift(dr: DeltaRing, b, L: int) -> WittVector:
    """The unique delta-ring section of W(ring) -> ring, componentwise:
    ghost_n = phi^n(b), Buium-Joyal coordinates (b, delta b, delta^2 b, ...).
    The ghosts are solved in dr.ring itself, which is torsion-free."""
    ghosts = [b]
    while len(ghosts) < L:
        ghosts.append(dr.phi(ghosts[-1]))
    return WittVector(dr.ring, dr.p, ())._solve(dr.ring, ghosts[:L])


def _formal_phi(ring, p, cs):
    """phi_of(j, k) = phi^k(c_j), expanding the Frobenius formally as
    phi(c_j) = c_j^p + p c_{j+1}, with c_j = 0 beyond the list cs (read
    at call time, so cs may grow between calls, by appending only).
    phi^k(c_j) reads c_j, ..., c_(j+k), so a value is kept once all of
    them exist: j + k < len(cs)."""
    memo = {}

    def phi_of(j, k):
        if k == 0:
            return cs[j] if j < len(cs) else ring.zero
        if (j, k) in memo:
            return memo[j, k]
        value = ring.add(ring.pow(phi_of(j, k - 1), p),
                         ring.mul_int(phi_of(j + 1, k - 1), p))
        if j + k < len(cs):
            memo[j, k] = value
        return value
    return phi_of


def bj_to_witt(ring, p, coords) -> WittVector:
    """Convert Buium-Joyal coordinates to Witt coordinates over a
    torsion-free ring: the ghost components are phi^n(c_0) under the formal
    Frobenius."""
    phi_of = _formal_phi(ring, p, list(coords))
    return from_ghost(ring, p, [phi_of(0, n) for n in range(len(coords))])


def witt_to_bj(w: WittVector) -> list:
    """Buium-Joyal coordinates of a Witt vector (torsion-free rings)."""
    ring, p = w.ring, w.p
    cs: list = []
    phi_of = _formal_phi(ring, p, cs)
    for n, g in enumerate(ghost(w)):
        # c_n enters phi^n(c_0) only linearly, with coefficient p^n
        c = ring.div_int_exact(ring.sub(g, phi_of(0, n)), p ** n)
        if c is None:
            raise NotIntegral("BJ coordinate %d is not integral" % n)
        cs.append(c)
    return cs


# ---------------------------------------------------------------------------
# big Witt vectors, stored as series 1 + z A[[z]] mod z^(N+1)


class BigWitt:
    """Group of series 1 + z A[[z]] mod z^(N+1); addition is series product."""

    __slots__ = ("ring", "N", "coeffs", "_ghost_memo")

    def __init__(self, ring: Ring, N: int, coeffs: dict):
        self.ring = ring
        self.N = N
        self.coeffs = {n: c for n, c in coeffs.items()
                       if 1 <= n <= N and not ring.is_zero(c)}
        self._ghost_memo = None

    @classmethod
    def one(cls, ring, N):
        """Additive unit: the series 1."""
        return cls(ring, N, {})

    def coefficient(self, n: int):
        if n == 0:
            return self.ring.one
        return self.coeffs.get(n, self.ring.zero)

    def truncate(self, N: int) -> "BigWitt":
        return BigWitt(self.ring, min(N, self.N), self.coeffs)

    def _check(self, other):
        if self.ring != other.ring:
            raise DomainError("big Witt rings differ")

    def __eq__(self, other):
        if not isinstance(other, BigWitt):
            return NotImplemented
        if self.ring != other.ring or self.N != other.N:
            return False
        r = self.ring
        return all(r.eq(self.coefficient(n), other.coefficient(n))
                   for n in range(1, self.N + 1))

    def to_series(self) -> TruncSeries:
        ts = {(0,): self.ring.one}
        ts.update({(n,): c for n, c in self.coeffs.items()})
        return TruncSeries(self.ring, ("z",), ts, self.N)

    @classmethod
    def from_series(cls, f: TruncSeries) -> "BigWitt":
        if len(f.variables) != 1:
            raise DomainError("big Witt vectors are univariate series")
        if not f.ring.eq(f.constant_term(), f.ring.one):
            raise DomainError("constant term must be 1")
        return cls(f.ring, f.order,
                   {e[0]: c for e, c in f.coeffs.items() if e[0] >= 1})

    def __add__(self, other):
        self._check(other)
        return BigWitt.from_series(self.to_series() * other.to_series())

    def __neg__(self):
        return BigWitt.from_series(series_inverse(self.to_series()))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return bigwitt_mul(self, other)

    def __repr__(self):
        return "BigW(%s)" % self.to_series()

    # the three hooks of the ghost dispatch ghost_combine

    def _ghosts(self) -> list:
        return ghost_big_in_ring(self)

    def _solve(self, ring, gs) -> "BigWitt":
        """The series of order len(gs) over ring with ghost components gs,
        by Newton's identities n f_n = -sum_{d=1}^n g_d f_{n-d}, divided by
        ring.div_int_exact."""
        f = [ring.one]
        for n in range(1, len(gs) + 1):
            acc = ring.zero
            for d in range(1, n + 1):
                acc = ring.add(acc, ring.mul(gs[d - 1], f[n - d]))
            q = ring.div_int_exact(ring.neg(acc), n)
            if q is None:
                raise NotIntegral(
                    "big Witt coefficient %d is not integral" % n)
            f.append(q)
        return BigWitt(ring, len(gs), dict(enumerate(f)))

    def _map(self, ring, fn) -> "BigWitt":
        """fn applied to each coefficient, the constant 1 included, into
        ring."""
        f = [self.coefficient(n) for n in range(self.N + 1)]
        return BigWitt(ring, self.N, dict(enumerate(
            _images(self.ring, fn, f, "big Witt coefficient"))))


def teichmuller_big(ring, N, a) -> BigWitt:
    """[a] = 1 - a z (the ring unit of W_big is 1 - z)."""
    return BigWitt(ring, N, {1: ring.neg(a)})


def teich_mul(a, w: BigWitt) -> BigWitt:
    """Multiplication by the Teichmuller lift [a]: f(z) -> f(a z)."""
    r = w.ring
    return BigWitt(r, w.N, {n: r.mul(r.pow(a, n), c)
                            for n, c in w.coeffs.items()})


def ghost_big_in_ring(w: BigWitt) -> list:
    """[g_1, ..., g_N] from -z f'(z)/f(z) = sum g_d z^d, with the ring's own
    arithmetic (no division)."""
    ring = w.ring
    f = [w.coefficient(n) for n in range(w.N + 1)]
    gs = [ring.zero]
    for n in range(1, w.N + 1):
        acc = ring.mul_int(f[n], -n)
        for d in range(1, n):
            acc = ring.sub(acc, ring.mul(gs[d], f[n - d]))
        gs.append(acc)
    return gs[1:]


def from_ghost_big(ring, N, gs) -> BigWitt:
    """Inverse of the big ghost map with integrality certificate, solved
    over the torsion-free ring in which the ghosts live."""
    return BigWitt.one(ring, N)._solve(_torsion_free(ring), gs[:N])


def bigwitt_mul(a: BigWitt, b: BigWitt) -> BigWitt:
    a._check(b)
    N = min(a.N, b.N)
    # a vector of order N passes as it stands, with its ghost memo
    return ghost_combine(tuple(v if v.N == N else v.truncate(N)
                               for v in (a, b)),
                         lambda r, g: list(map(r.mul, *g)))


def frobenius_big(w: BigWitt, m: int) -> BigWitt:
    """F_m; ghost(F_m w)_d = ghost(w)_{m d}.  Output order floor(N/m)."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if w.N < m:
        raise BoundExceeded("F_%d needs order >= %d, got a vector of order "
                            "%d" % (m, m, w.N))
    return ghost_combine((w,), lambda r, g: g[0][m - 1::m])


# ---------------------------------------------------------------------------
# characteristic-p kernel checks


def f_kernel_lemma(x: WittVector) -> bool:
    """Lemma l:W^F over an F_p-algebra, in one direction only: x is in
    ker F, and then px = 0 and x^p = 0.  The converse, Fy = py implies
    Fy = 0, is not checked here; the tier-1 test
    test_eigen_condition_is_kernel_in_char_p in tests/test_derham.py
    checks it exhaustively."""
    return (frobenius(x).is_zero() and scalar_mul(x.p, x).is_zero()
            and witt_pow(x, x.p).is_zero())


def sample_f_kernel(ring, p, L, rng) -> WittVector:
    """Random x over a char-p ring with Fx = 0, i.e. every component a
    p-th-power nilpotent (F is the componentwise p-power map in char p)."""
    comps = []
    for _ in range(L):
        for _ in range(64):
            c = ring.rand(rng)
            if ring.is_zero(ring.pow(c, p)):
                comps.append(c)
                break
        else:
            comps.append(ring.zero)
    return WittVector(ring, p, comps)
