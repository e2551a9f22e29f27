"""Coefficient rings and truncated multivariate power series.

Everything downstream (Witt vectors, formal group laws, the q-binomial Hopf
algebra) runs over the small ring protocol defined here: exact integers and
rationals, integers mod p^n, polynomial and series quotients in h = q - 1,
and the cyclotomic quotient Z[q]/(Phi_p(q)).  All values are immutable;
rings are stateless and freely shareable across threads.  The four
library errors are defined here, once, each for one way a map can fail
(`DomainError`, `NotIntegral`, `BoundExceeded`, `IdentityFailed`).
`BasisVector` is the one finite coordinate vector against a basis: the
elements of B_0 against c_n over Q[h] (`qhopf.B0Elem`), of its h = 1 fibre
Int against C(u, n) (`intpoly.IntPoly`) and of its h = 0 fibre, the
divided-power hull, against gamma_n (`pd_dual.PDElem`) subclass it.
"""
from __future__ import annotations

import functools
import itertools
import math
import operator
import threading
from dataclasses import dataclass
from fractions import Fraction


class PrismlabError(Exception):
    """Base class for all library errors; each is one of the four below."""


class DomainError(PrismlabError):
    """An argument the map does not accept: mismatched rings, variables or
    lengths, a ring of the wrong kind, a required constant term, degree,
    order or series tag, or an input's membership certificate."""


class NotIntegral(PrismlabError):
    """An inexact division, a denominator or unit with no inverse, or a
    value that is not integral or not p-integral."""


class BoundExceeded(PrismlabError):
    """A series, search, precision or size budget that ran out."""


class IdentityFailed(PrismlabError):
    """An output or internal certificate that did not hold."""


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def floor_log(k: int, p: int) -> int:
    """The largest e with p^e <= k, for k >= 1."""
    e = 0
    while k >= p:
        k //= p
        e += 1
    return e


def valuation(n: int, p: int) -> int:
    """The exponent of p in the nonzero integer n."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def build_once(build):
    """build memoized per tuple of positional arguments, safe under threads:
    the first caller of a key builds it under that key's lock, later callers
    wait for it and get the same object, and a build that raises stores
    nothing.  The memo's dict, keyed by the argument tuples, is the
    wrapper's `cache`."""
    cache: dict = {}
    locks: dict = {}
    guard = threading.Lock()

    @functools.wraps(build)
    def once(*key):
        try:
            return cache[key]
        except KeyError:
            pass
        with guard:
            lock = locks.setdefault(key, threading.Lock())
        with lock:
            if key not in cache:
                cache[key] = build(*key)
        return cache[key]

    once.cache = cache
    return once


# ---------------------------------------------------------------------------
# scalar rings


class Ring:
    """Protocol shared by all coefficient rings.

    Elements are plain immutable values (int, Fraction, tuples of those,
    RatPoly); all arithmetic goes through the ring object.  Each ring
    defines its own is_zero, and a ring that receives elements over Q defines
    from_rational: the image of an element of the same ring over Q
    (Fraction scalars), or None if a denominator is not invertible there.
    """

    name = "?"
    is_torsion_free = True

    def add(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def from_int(self, n: int):
        raise NotImplementedError

    @property
    def zero(self):
        return self.from_int(0)

    @property
    def one(self):
        return self.from_int(1)

    def eq(self, a, b) -> bool:
        return self.is_zero(self.sub(a, b))

    def pow(self, a, n: int):
        if n < 0:
            raise ValueError("negative powers not supported")
        result = None
        while n:
            if n & 1:
                result = a if result is None else self.mul(result, a)
            n >>= 1
            if n:
                a = self.mul(a, a)
        return self.one if result is None else result

    def mul_int(self, a, n: int):
        return self.mul(a, self.from_int(n))

    # --- optional capabilities -------------------------------------------

    def inv(self, a):
        """Inverse of the element a when it is a unit this ring can see, or
        None; here only 1 and -1 are seen."""
        one = self.one
        if self.eq(a, one):
            return one
        minus_one = self.neg(one)
        return minus_one if self.eq(a, minus_one) else None

    def div_int_exact(self, a, n: int):
        """Some x with n x = a, or None (None also when the ring cannot
        divide): the one division of every ghost solve.  On a torsion-free
        ring x is unique.  On Z/m it is the quotient of the representative
        of a in [0, m) when n divides that integer, else None, so 1 / 2 in
        Z/9 is None although 2 * 5 = 1 there."""
        return None

    def rand(self, rng):
        raise NotImplementedError

    def fmt(self, a) -> str:
        return str(a)

    def __repr__(self):
        return self.name


class IntRing(Ring):
    name = "Z"
    zero = 0
    one = 1

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def from_int(self, n):
        return n

    def is_zero(self, a):
        return not a

    def pow(self, a, n):
        return a ** n

    def mul_int(self, a, n):
        return a * n

    def div_int_exact(self, a, n):
        q, r = divmod(a, n)
        return q if r == 0 else None

    def from_rational(self, x):
        x = Fraction(x)
        return int(x) if x.denominator == 1 else None

    def rand(self, rng):
        return rng.randrange(-9, 10)

    def __eq__(self, other):
        return type(other) is IntRing

    def __hash__(self):
        return hash("Z")


class RatRing(Ring):
    name = "Q"
    zero = Fraction(0)

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def from_int(self, n):
        return Fraction(n)

    def is_zero(self, a):
        return not a

    def inv(self, a):
        return 1 / Fraction(a) if a else None

    def div_int_exact(self, a, n):
        return a / n if type(a) is Fraction else Fraction(a, n)

    def from_rational(self, x):
        return Fraction(x)

    def __eq__(self, other):
        return type(other) is RatRing

    def __hash__(self):
        return hash("Q")


class IntModRing(Ring):
    """Z/m, normally with m = p^n_p."""

    is_torsion_free = False
    zero = 0

    def __init__(self, m: int, p: int | None = None):
        if m < 2:
            raise ValueError("modulus must be >= 2")
        self.m = m
        self.p = p
        self.name = "Z/%d" % m

    def add(self, a, b):
        return (a + b) % self.m

    def neg(self, a):
        return (-a) % self.m

    def sub(self, a, b):
        return (a - b) % self.m

    def mul(self, a, b):
        return (a * b) % self.m

    def from_int(self, n):
        return n % self.m

    def is_zero(self, a):
        return not a

    def pow(self, a, n):
        return pow(a, n, self.m)

    def mul_int(self, a, n):
        return (a * n) % self.m

    def inv(self, a):
        if math.gcd(a, self.m) != 1:
            return None
        return pow(a, -1, self.m)

    def div_int_exact(self, a, n):
        q, r = divmod(a, n)
        return q if r == 0 else None

    def from_rational(self, x):
        x = Fraction(x)
        inv = self.inv(x.denominator)
        if inv is None:
            return None
        return (x.numerator * inv) % self.m

    def rand(self, rng):
        return rng.randrange(self.m)

    def __eq__(self, other):
        return type(other) is IntModRing and other.m == self.m

    def __hash__(self):
        return hash(("Zmod", self.m))


class PolyQuotRing(Ring):
    """scalar[x]/(modulus), or the plain polynomial ring scalar[x].

    Elements are tuples of scalar elements (coefficients of 1, x, x^2, ...)
    with trailing zeros stripped.  modulus is a monic integer polynomial
    given by its coefficient tuple; None means no reduction.  Over Q the
    constructor returns a RatPolyRing, whose elements are RatPoly values.

    Every other ring adds in one pass through the scalar ring's add, raises
    powers by square-and-multiply and multiplies by the schoolbook through
    the scalar ring, except Q[h][t] and Q[h]/(h^N)[t], which bind mul to
    _mul_nested, one Kronecker product of the numerators.  Over Z and Q a
    modulus that is not a monomial x^N binds _reduce_int, the fold of each
    coefficient above the degree on plain integers.  subst evaluates by
    Horner's rule.
    """

    zero = ()

    def __new__(cls, scalar: Ring = None, *args, **kwargs):
        # no argument when copy and pickle rebuild an instance
        if cls is PolyQuotRing and type(scalar) is RatRing:
            cls = RatPolyRing
        return super().__new__(cls)

    def __init__(self, scalar: Ring, modulus: tuple | None, var: str = "h"):
        self.scalar = scalar
        self.var = var
        self.modulus = tuple(modulus) if modulus is not None else None
        self._monomial = False
        if self.modulus is not None:
            if self.modulus[-1] != 1:
                raise ValueError("modulus must be monic")
            self.deg = len(self.modulus) - 1
            self._monomial = not any(self.modulus[:-1])
            # x^deg = -(m_0 + m_1 x + ...): its nonzero terms
            self._top_terms = tuple((j, -c) for j, c in
                                    enumerate(self.modulus[:-1]) if c)
            if self._monomial:
                self._reduce = self._truncate
            elif type(scalar) in (IntRing, RatRing):
                self._reduce = self._reduce_int
        else:
            self.deg = None
        if (type(scalar) is RatPolyRing and self.modulus is None
                and (scalar.modulus is None or scalar._monomial)):
            self.mul = self._mul_nested
        self.is_torsion_free = scalar.is_torsion_free
        mod_tag = "" if modulus is None else "/(%s)" % self._fmt_modulus()
        self.name = "%s[%s]%s" % (scalar.name, var, mod_tag)

    def _fmt_modulus(self):
        parts = []
        for i, c in enumerate(self.modulus):
            if c:
                parts.append("%s%s" % ("" if (c == 1 and i) else c,
                                       "" if i == 0 else
                                       self.var if i == 1 else "%s^%d" % (self.var, i)))
        return "+".join(parts)

    def _strip(self, coeffs: list) -> tuple:
        while coeffs and self.scalar.is_zero(coeffs[-1]):
            coeffs.pop()
        return tuple(coeffs)

    def _reduce(self, coeffs: list) -> tuple:
        """Each coefficient above the degree folds into those below it
        through the nonzero terms of x^deg, by the scalar ring's add and
        mul_int."""
        if self.modulus is not None:
            s, d = self.scalar, self.deg
            for i in range(len(coeffs) - 1, d - 1, -1):
                c = coeffs.pop()
                if not s.is_zero(c):
                    for j, t in self._top_terms:
                        coeffs[i - d + j] = s.add(coeffs[i - d + j],
                                                  s.mul_int(c, t))
        return self._strip(coeffs)

    def _reduce_int(self, coeffs: list) -> tuple:
        """_reduce over Z, or of integer numerators over Q, bound in
        __init__ for a modulus that is not a monomial: the same fold on
        plain integers."""
        d = self.deg
        terms = self._top_terms
        for i in range(len(coeffs) - 1, d - 1, -1):
            c = coeffs.pop()
            if c:
                for j, t in terms:
                    coeffs[i - d + j] += c * t
        return self._strip(coeffs)

    def _truncate(self, coeffs: list) -> tuple:
        """_reduce for a modulus x^deg, bound in __init__: x^deg = 0."""
        del coeffs[self.deg:]
        return self._strip(coeffs)

    def make(self, coeffs) -> tuple:
        """Element from an iterable of scalar coefficients, low degree first;
        over Z/m each is taken into [0, m), as from_int does, and over a
        polynomial ring each is that ring's make of it."""
        s = self.scalar
        if type(s) is IntModRing:
            return self._reduce([c % s.m for c in coeffs])
        if isinstance(s, PolyQuotRing):
            coeffs = map(s.make, coeffs)
        return self._reduce(list(coeffs))

    def make_ints(self, coeffs) -> tuple:
        return self.make([self.scalar.from_int(c) for c in coeffs])

    def coeff(self, a, i: int):
        return a[i] if i < len(a) else self.scalar.zero

    @property
    def x(self) -> tuple:
        return self.make_ints([0, 1])

    def add(self, a, b):
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        add = self.scalar.add
        for i, c in enumerate(b):
            out[i] = add(out[i], c)
        return self._strip(out)

    def neg(self, a):
        return tuple(self.scalar.neg(c) for c in a)

    def sub(self, a, b):
        s = self.scalar
        out = list(a)
        out += [s.zero] * (len(b) - len(a))
        sub = s.sub
        for i, c in enumerate(b):
            out[i] = sub(out[i], c)
        return self._strip(out)

    def mul(self, a, b):
        if not a or not b:
            return ()
        s = self.scalar
        out = [s.zero] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if s.is_zero(ca):
                continue
            for j, cb in enumerate(b):
                out[i + j] = s.add(out[i + j], s.mul(ca, cb))
        return self._reduce(out)

    def mul_int(self, a, n):
        s = self.scalar
        return self._strip([s.mul_int(c, n) for c in a])

    def _mul_nested(self, a, b):
        """mul over Q[h][t] or Q[h]/(h^N)[t], bound in __init__: over each
        operand's common denominator, the numerators of the t^i coefficient
        go to slot i*S of one integer vector, with S one more than the
        largest h-degree of the product, so a single Kronecker product
        multiplies in both variables at once."""
        if not a or not b:
            return ()
        stride = max(map(len, a)) + max(map(len, b)) - 1

        def flat(x):
            rows, den = _common_den(x)
            out = [0] * (stride * (len(x) - 1) + len(x[-1]))
            for i, row in enumerate(rows):
                out[i * stride:i * stride + len(row)] = row
            return out, den

        (na, da), (nb, db) = flat(a), flat(b)
        prod = _kronecker_mul(na, nb)
        keep = stride if self.scalar.deg is None else min(stride,
                                                          self.scalar.deg)
        return self._strip([_ratpoly(prod[i:i + keep], da * db)
                            for i in range(0, len(prod), stride)])

    def from_int(self, n):
        c = self.scalar.from_int(n)
        return (c,) if not self.scalar.is_zero(c) else ()

    def is_zero(self, a):
        return not a

    def eq(self, a, b):
        return not self.sub(a, b)

    def inv(self, a):
        """Modulo x^N, a is a unit when its constant term is a unit of the
        scalar ring; Newton lifts that inverse to all N coefficients."""
        if not self._monomial:
            return super().inv(a)
        inv0 = self.scalar.inv(self.coeff(a, 0))
        if inv0 is None:
            return None
        return newton_inverse(a, self.make([inv0]), self.one, self.mul,
                              self.sub, self.deg.bit_length())

    def _over(self, scalar) -> "PolyQuotRing":
        return PolyQuotRing(scalar, self.modulus, self.var)

    def _image(self, a, fn):
        """The element with coefficients fn(c) for those c of a, or None."""
        out = _images(fn, a)
        return None if out is None else self._strip(out)

    def div_int_exact(self, a, n):
        return self._image(a, lambda c: self.scalar.div_int_exact(c, n))

    def from_rational(self, x):
        return self._image(x, self.scalar.from_rational)

    def rand(self, rng):
        n = self.deg if self.deg is not None else rng.randrange(1, 4)
        return self._strip([self.scalar.rand(rng) for _ in range(n)])

    def subst(self, a, value):
        """Evaluate the polynomial a at a ring element, by Horner's rule:
        one mul per coefficient."""
        acc = self.zero
        for c in reversed(a):
            acc = self.add(self.mul(acc, value), self.make([c]))
        return acc

    def fmt(self, a):
        if not a:
            return "0"
        parts = []
        for i, c in enumerate(a):
            if self.scalar.is_zero(c):
                continue
            cs = self.scalar.fmt(c)
            if i == 0:
                parts.append(cs)
            else:
                xs = self.var if i == 1 else "%s^%d" % (self.var, i)
                parts.append(xs if cs == "1" else "%s*%s" % (cs, xs))
        return " + ".join(parts)

    def __eq__(self, other):
        return (isinstance(other, PolyQuotRing) and other.scalar == self.scalar
                and other.modulus == self.modulus and other.var == self.var)

    def __hash__(self):
        return hash(("PolyQuot", self.scalar, self.modulus, self.var))


class RatPoly:
    """An element of a polynomial ring over Q: integer numerators `nums`
    (low degree first, no trailing zero) over one denominator `den` > 0
    prime to them, so == and hash are structural.  len, truth value,
    iteration, [i] and repr are those of its tuple of Fractions; == with a
    plain tuple or list raises TypeError, so a missed conversion fails
    loudly.  _ratpoly builds it in this normal form."""

    __slots__ = ("nums", "den")

    def __init__(self, nums: tuple, den: int = 1):
        self.nums, self.den = nums, den

    def __len__(self):
        return len(self.nums)

    def __iter__(self):
        if self.den == 1:
            return map(Fraction, self.nums)
        return (Fraction(n, self.den) for n in self.nums)

    def __getitem__(self, i):
        return Fraction(self.nums[i], self.den)

    def __repr__(self):
        return repr(tuple(self))

    def __eq__(self, other):
        if isinstance(other, (tuple, list)):
            raise TypeError("%r compared with a plain %s"
                            % (self, type(other).__name__))
        return (type(other) is RatPoly and self.den == other.den
                and self.nums == other.nums)

    def __hash__(self):
        return hash((self.nums, self.den))


def _ratpoly(nums, den: int) -> RatPoly:
    """nums / den in normal form, for integers nums (trailing zeros
    allowed) and den > 0."""
    n = len(nums)
    while n and not nums[n - 1]:
        n -= 1
    if not n:
        return _ZERO
    nums = nums[:n]
    g = math.gcd(den, *nums) if den != 1 else 1
    if g != 1:
        nums, den = [c // g for c in nums], den // g
    return RatPoly(tuple(nums), den)


_ZERO = RatPoly(())


class RatPolyRing(PolyQuotRing):
    """PolyQuotRing over Q, which PolyQuotRing(RatRing(), ...) returns.  Its
    elements are RatPoly values and each operation runs on the numerators:
    a sum over the lcm of the denominators, a product as one Kronecker
    product, a power over Q[x] as one packed big-integer power, _reduce on
    integers, and one _ratpoly per result."""

    zero, one = _ZERO, RatPoly((1,))

    def make(self, coeffs) -> RatPoly:
        """From ints and Fractions, low degree first, reduced; DomainError on
        any other coefficient.  An element comes back as it is, reduced if
        it has more coefficients than the modulus allows."""
        if type(coeffs) is RatPoly:
            if self.deg is None or len(coeffs) <= self.deg:
                return coeffs
            return self.from_numerators(coeffs.nums, coeffs.den)
        coeffs = list(coeffs)
        for c in coeffs:
            if not isinstance(c, (int, Fraction)):
                raise DomainError("coefficient %r of an element of %s is not "
                                  "an int or a Fraction" % (c, self))
        nums, den = _numerators(coeffs)       # a new list, for _reduce
        return _ratpoly(self._reduce(nums), den)

    make_ints = from_rational = make

    def from_numerators(self, nums, den: int = 1) -> RatPoly:
        """sum nums[i] x^i / den, reduced, for integers nums and den > 0."""
        return _ratpoly(self._reduce(list(nums)), den)

    def from_int(self, n):
        return RatPoly((n,)) if n else _ZERO

    def add(self, a, b):
        """a + b over the lcm of the denominators."""
        if not b:
            return a
        na, nb, den = a.nums, b.nums, a.den
        if den != b.den:
            g = math.gcd(den, b.den)
            na, nb = [x * (b.den // g) for x in na], [y * (den // g) for y in nb]
            den *= b.den // g
        out = list(na) + [0] * (len(nb) - len(na))
        for i, y in enumerate(nb):
            out[i] += y
        return _ratpoly(out, den)

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def neg(self, a):
        return RatPoly(tuple([-x for x in a.nums]), a.den)

    def mul(self, a, b):
        """One Kronecker product of the numerators; an operand c x^k (a
        constant or a monomial) shifts and scales the other one instead."""
        na, nb = a.nums, b.nums
        if not na or not nb:
            return _ZERO
        if any(nb[:-1]):
            if any(na[:-1]):
                return _ratpoly(self._reduce(_kronecker_mul(na, nb)),
                                a.den * b.den)
            na, nb = nb, na
        return _ratpoly(self._reduce([0] * (len(nb) - 1)
                                     + [x * nb[-1] for x in na]), a.den * b.den)

    def pow(self, a, n):
        """Over Q[x] the numerators packed in digits of w bits, wide enough
        for sum |a_i| ^ n, and raised as one integer; by Gauss's lemma a^n
        comes in normal form.  Under a modulus square-and-multiply reduces
        every factor."""
        if self.deg is not None or n < 1 or not a:
            return Ring.pow(self, a, n)
        na = a.nums
        w = (sum(map(abs, na)) ** n).bit_length() + 1
        return RatPoly(tuple(_unpack(_pack(na, w) ** n, w,
                                     n * (len(na) - 1) + 1)), a.den ** n)

    def mul_int(self, a, n):
        return _ratpoly([x * n for x in a.nums], a.den)

    def div_int_exact(self, a, n):
        if not n:
            raise ZeroDivisionError("%r / 0" % (a,))
        return _ratpoly([-x for x in a.nums] if n < 0 else a.nums,
                        a.den * abs(n))


def _images(fn, items):
    """[fn(c) for c in items], or None as soon as some fn(c) is None."""
    out = []
    for c in items:
        img = fn(c)
        if img is None:
            return None
        out.append(img)
    return out


# --- the integer kernel behind mul over Q and series over Z ---------------


def _numerators(coeffs) -> tuple:
    """(integer numerators, common denominator) of rational coefficients."""
    den = math.lcm(*[c.denominator for c in coeffs])
    if den == 1:
        return [c.numerator for c in coeffs], 1
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _common_den(elems) -> tuple:
    """(numerator rows, den): RatPoly elements over the lcm of their
    denominators."""
    den = math.lcm(*[c.den for c in elems])
    return [c.nums if c.den == den else [x * (den // c.den) for x in c.nums]
            for c in elems], den


def _kronecker_mul(a: list, b: list) -> list:
    """Coefficients of the product of two integer polynomials (low degree
    first) by one big-integer multiplication: each operand is packed into
    one integer in digits of w bits, wide enough that every coefficient of
    the product, with its sign, fits in one digit."""
    bound = max(map(abs, a)) * max(map(abs, b)) * min(len(a), len(b))
    if not bound:
        # an all-zero operand: the other one need not fit the digits
        return [0] * (len(a) + len(b) - 1)
    w = bound.bit_length() + 1
    return _unpack(_pack(a, w) * _pack(b, w), w, len(a) + len(b) - 1)


# Packing and unpacking by shifts copy the growing integer once per
# coefficient, quadratic in the length; but most products this library
# forms have at most 17 coefficients: 84 % of the 14,474 of the verify_cli
# benchmark's suites at their calls per round, 94 % of a qdeform round's
# 2,496 and 87 % of the 10,885 of `verify --suite all --trials 1`.  On all
# of them together the shifts take about 70 % of the time of a linear path
# through bytes (half of it up to 17 coefficients, as much above).


def _pack(coeffs: list, w: int) -> int:
    """sum c_i 2^(w i)."""
    x = 0
    for c in reversed(coeffs):
        x = (x << w) + c
    return x


def _unpack(x: int, w: int, n: int) -> list:
    """The n signed digits of x in base 2^w, each below 2^(w - 1) in
    absolute value."""
    mask = (1 << w) - 1
    half = 1 << (w - 1)
    out = []
    for _ in range(n):
        d = x & mask
        if d >= half:
            d -= 1 << w
        out.append(d)
        x = (x - d) >> w
    return out


def _int_series_mul(a: dict, b: dict, order):
    """The product of two series over Z, {exponents: coefficient}, with no
    zero coefficient and no term of total degree above order, by one
    Kronecker product; None when the operands are too sparse for it.

    Each operand fills the box of exponents 0 <= e_i < s_i, where s_i is one
    more than the largest i-th exponent in a plus that in b, so adding slots
    adds exponents without a carry from one variable into the next.  The
    strides come from the operands, not from order: an operand of order
    None may carry exponents above the other one's order.  A box with more
    slots than there are pairs of terms would pack and unpack mostly zeros,
    so then the caller multiplies term by term.  Otherwise the monomial
    with exponents e goes to slot sum e_i R_i, with the last variable
    running fastest (R_(n-1) = 1, R_i = R_(i+1) s_(i+1)), so the slots of
    the product come out in the order of itertools.product over the box."""
    if not a or not b:
        return {}
    sizes = [x + y + 1 for x, y in zip(map(max, zip(*a)), map(max, zip(*b)))]
    if math.prod(sizes) > len(a) * len(b):
        return None
    radices = [math.prod(sizes[i + 1:]) for i in range(len(sizes))]
    prod = _kronecker_mul(_dense(a, radices), _dense(b, radices))
    slots = zip(itertools.product(*map(range, sizes)), prod)
    if order is None:
        return {e: c for e, c in slots if c}
    return {e: c for e, c in slots if c and sum(e) <= order}


def _dense(terms: dict, radices: list) -> list:
    """The coefficients of a series as one vector, e at sum e_i R_i."""
    slots = {sum(map(operator.mul, e, radices)): c for e, c in terms.items()}
    vec = [0] * (max(slots) + 1)
    for slot, c in slots.items():
        vec[slot] = c
    return vec


# ---------------------------------------------------------------------------
# vectors against a basis


@dataclass(frozen=True)
class BasisVector:
    """sum coords[n] e_n over the scalar ring `scalars`, e_n printed as
    `symbol` % n (e_0 as 1) and c e_n as `term` % (c, e_n): subclasses set
    these and keep their own products.  `_normalise` maps the coordinates
    to scalars and trailing zeros (the one falsy scalar) are stripped, so
    each element has one coords tuple; elements of two classes are never
    equal."""

    coords: tuple
    _normalise = staticmethod(tuple)
    term = "%s*%s"

    def __post_init__(self):
        coords = self._normalise(self.coords)
        while coords and not coords[-1]:
            coords = coords[:-1]
        object.__setattr__(self, "coords", coords)

    @classmethod
    def basis(cls, n: int):
        return cls((cls.scalars.zero,) * n + (cls.scalars.one,))

    @classmethod
    def from_int(cls, n: int):
        return cls((cls.scalars.from_int(n),))

    def coord(self, n: int):
        return self.coords[n] if n < len(self.coords) else self.scalars.zero

    def __add__(self, other):
        pairs = itertools.zip_longest(self.coords, other.coords,
                                      fillvalue=self.scalars.zero)
        return type(self)(tuple(itertools.starmap(self.scalars.add, pairs)))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return type(self)(tuple(map(self.scalars.neg, self.coords)))

    def __repr__(self):
        parts = []
        for n, c in enumerate(self.coords):
            if c:
                cs = self.scalars.fmt(c)
                parts.append(cs if n == 0 else self.symbol % n if cs == "1"
                             else self.term % (cs, self.symbol % n))
        return " + ".join(parts) or "0"


# --- named constructors ----------------------------------------------------


def ExactInt() -> IntRing:
    return IntRing()


def ModP(p: int, n_p: int) -> IntModRing:
    if not is_prime(p):
        raise ValueError("p must be prime")
    return IntModRing(p ** n_p, p=p)


def _same(a):
    return a


def widened(ring, factor: int):
    """(wide, up, down), the one change of ring: wide is ring, Z/m or a
    PolyQuotRing or SeriesCoeffRing over it (nested or not), with
    Z/(m factor) in place of Z/m; up carries ring into wide and down
    reduces wide onto ring, coefficient by coefficient.  up is _same where
    an element of ring is one of wide as it stands (ints in [0, m) and
    tuples of them); a series is re-wrapped.  None on any other ring."""
    if type(ring) is IntModRing:
        m = ring.m
        return IntModRing(m * factor, ring.p), _same, lambda a: a % m
    if type(ring) not in (PolyQuotRing, SeriesCoeffRing):
        return None
    poly = type(ring) is PolyQuotRing
    inner = widened(ring.scalar if poly else ring.base, factor)
    if inner is None:
        return None
    cring, cup, down = inner
    wide = ring._over(cring)
    up = cup if poly and cup is _same else (lambda a: wide._image(a, cup))
    return wide, up, lambda a: ring._image(a, down)


def QPoly() -> PolyQuotRing:
    """Z[q] represented on the basis of powers of h = q - 1."""
    return PolyQuotRing(IntRing(), None, "h")


def QSeriesRing(n_q: int, p: int | None = None, n_p: int | None = None) -> PolyQuotRing:
    """Z[q]/((q-1)^n_q), optionally with coefficients mod p^n_p."""
    scalar = IntRing() if p is None else ModP(p, n_p)
    return PolyQuotRing(scalar, (0,) * n_q + (1,), "h")


def cyclotomic_modulus(p: int) -> tuple:
    return (1,) * p


def CyclotomicRing(p: int, n_p: int | None = None) -> PolyQuotRing:
    """Z[q]/(Phi_p(q)), basis 1, z, ..., z^(p-2) where z is the image of q."""
    scalar = IntRing() if n_p is None else ModP(p, n_p)
    return PolyQuotRing(scalar, cyclotomic_modulus(p), "zeta")


def q_element(ring: PolyQuotRing) -> tuple:
    """The image of q in a ring built on h = q - 1 or on zeta."""
    if ring.var == "zeta":
        return ring.make_ints([0, 1])
    return ring.make_ints([1, 1])


def h_element(ring: PolyQuotRing) -> tuple:
    """The image of q - 1."""
    if ring.var == "zeta":
        return ring.make_ints([-1, 1])
    return ring.make_ints([0, 1])


def q_number(ring: Ring, n: int, q=None):
    """[n]_q = (q^n - 1)/(q - 1) = 1 + q + ... + q^(n-1) inside the given
    ring, Phi_p(q) for n = p prime; q defaults to q_element(ring)."""
    if q is None:
        q = q_element(ring)
    acc, power = ring.zero, ring.one
    for _ in range(n):
        acc = ring.add(acc, power)
        power = ring.mul(power, q)
    return acc


class SeriesCoeffRing(Ring):
    """Adapter: truncated series over a base ring used as coefficients.

    Lets a formal group law acquire an extra polynomial parameter (the
    deformation variable) without special-casing downstream code.
    """

    def __init__(self, base: Ring, variables, order):
        self.base = base
        self.variables = tuple(variables)
        self.order = order
        self.is_torsion_free = base.is_torsion_free
        self.name = "%s[[%s]]<=%s" % (base.name, ",".join(self.variables), order)

    def _const(self, value):
        return TruncSeries.const(self.base, self.variables, self.order, value)

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def from_int(self, n):
        return self._const(self.base.from_int(n))

    def is_zero(self, a):
        return a.is_zero()

    def var(self, name):
        return TruncSeries.var(self.base, self.variables, self.order, name)

    def embed(self, c):
        return self._const(c)

    def eval_at(self, a, values: dict):
        """Collapse a coefficient series at base-ring values."""
        acc = self.base.zero
        for e, c in a.coeffs.items():
            term = c
            for v, n in zip(self.variables, e):
                if n:
                    term = self.base.mul(term, self.base.pow(values[v], n))
            acc = self.base.add(acc, term)
        return acc

    def _over(self, base) -> "SeriesCoeffRing":
        return SeriesCoeffRing(base, self.variables, self.order)

    def _image(self, a, fn):
        """The series with coefficients fn(c) for those c of a, or None."""
        out = _images(fn, a.coeffs.values())
        return None if out is None else TruncSeries(
            self.base, self.variables, dict(zip(a.coeffs, out)), self.order)

    def div_int_exact(self, a, n):
        return self._image(a, lambda c: self.base.div_int_exact(c, n))

    def from_rational(self, x):
        return self._image(x, self.base.from_rational)

    def __eq__(self, other):
        return (type(other) is SeriesCoeffRing and other.base == self.base
                and other.variables == self.variables and other.order == self.order)

    def __hash__(self):
        return hash(("SeriesCoeff", self.base, self.variables, self.order))


# ---------------------------------------------------------------------------
# truncated multivariate power series


class TruncSeries:
    """Sparse truncated series: {exponent tuple: coefficient} with a total
    degree bound.  order None means no truncation (plain polynomials)."""

    __slots__ = ("ring", "variables", "coeffs", "order")

    def __init__(self, ring, variables, coeffs, order):
        self.ring = ring
        self.variables = tuple(variables)
        self.order = order
        self.coeffs = {e: c for e, c in coeffs.items()
                       if (order is None or sum(e) <= order)
                       and not ring.is_zero(c)}

    # --- constructors -----------------------------------------------------

    @classmethod
    def _reduced(cls, ring, variables: tuple, coeffs: dict, order):
        """A series from coefficients already free of zeros and of terms
        above order, kept as they are."""
        self = cls.__new__(cls)
        self.ring, self.variables, self.coeffs, self.order = (
            ring, variables, coeffs, order)
        return self

    @classmethod
    def zero(cls, ring, variables, order):
        return cls(ring, variables, {}, order)

    @classmethod
    def const(cls, ring, variables, order, value):
        n = len(tuple(variables))
        return cls(ring, variables, {(0,) * n: value}, order)

    @classmethod
    def one(cls, ring, variables, order):
        return cls.const(ring, variables, order, ring.one)

    @classmethod
    def var(cls, ring, variables, order, name):
        variables = tuple(variables)
        e = [0] * len(variables)
        e[variables.index(name)] = 1
        return cls(ring, variables, {tuple(e): ring.one}, order)

    # --- bookkeeping --------------------------------------------------------

    def _check(self, other):
        if self.ring != other.ring:
            raise DomainError("%s vs %s" % (self.ring, other.ring))
        if self.variables != other.variables:
            raise DomainError("variable sets differ: %s vs %s"
                              % (self.variables, other.variables))

    def _join_order(self, other):
        if self.order is None:
            return other.order
        if other.order is None:
            return self.order
        return min(self.order, other.order)

    def is_zero(self):
        return not self.coeffs

    def coefficient(self, exps: tuple):
        return self.coeffs.get(tuple(exps), self.ring.zero)

    def constant_term(self):
        return self.coefficient((0,) * len(self.variables))

    def low_order(self):
        """Smallest total degree with a nonzero coefficient; None if zero."""
        return min((sum(e) for e in self.coeffs), default=None)

    def map_coeffs(self, fn, ring=None):
        ring = ring or self.ring
        return TruncSeries(ring, self.variables,
                           {e: fn(c) for e, c in self.coeffs.items()}, self.order)

    # --- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        self._check(other)
        out = dict(self.coeffs)
        r = self.ring
        for e, c in other.coeffs.items():
            out[e] = r.add(out.get(e, r.zero), c)
        return TruncSeries(r, self.variables, out, self._join_order(other))

    def __neg__(self):
        return self.map_coeffs(self.ring.neg)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        order = self._join_order(other)
        r = self.ring
        if type(r) is IntRing:
            coeffs = _int_series_mul(self.coeffs, other.coeffs, order)
            if coeffs is not None:
                return TruncSeries._reduced(r, self.variables, coeffs, order)
        out = {}
        for e1, c1 in self.coeffs.items():
            d1 = sum(e1)
            for e2, c2 in other.coeffs.items():
                if order is not None and d1 + sum(e2) > order:
                    continue
                e = tuple(a + b for a, b in zip(e1, e2))
                prod = r.mul(c1, c2)
                out[e] = r.add(out[e], prod) if e in out else prod
        return TruncSeries(r, self.variables, out, order)

    def scale(self, c):
        r = self.ring
        return self.map_coeffs(lambda x: r.mul(c, x))

    def __pow__(self, n):
        """Square-and-multiply as Ring.pow: at most floor(log2 n) squarings
        and popcount(n) - 1 further products, none by one; n = 0 gives
        one."""
        if n < 0:
            raise ValueError("negative series power")
        result = None
        base = self
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        return (TruncSeries.one(self.ring, self.variables, self.order)
                if result is None else result)

    def eq(self, other):
        self._check(other)
        order = self._join_order(other)
        d = self - other
        if order is None:
            return d.is_zero()
        return all(sum(e) > order for e in d.coeffs)

    def __eq__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return (self.ring == other.ring and self.variables == other.variables
                and self.order == other.order and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.ring, self.variables, self.order,
                     frozenset(self.coeffs.items())))

    # --- substitution -------------------------------------------------------

    def subs(self, mapping: dict):
        """Substitute series for variables.  Every variable occurring in a
        monomial with positive exponent must be mapped; values must share
        ring, variables and order.  The powers of each value are built
        once, and each term c * (product of powers) is added, coefficient
        by coefficient, into one dict that becomes a series at the end."""
        template = next(iter(mapping.values()))
        r = template.ring
        if r != self.ring:
            raise DomainError("substitution into a different ring")
        order = template.order
        out: dict = {}
        powers = {v: [None, mapping[v]] for v in mapping}

        def power(v, n):
            cache = powers[v]
            while len(cache) <= n:
                cache.append(cache[-1] * mapping[v])
            return cache[n]

        def accumulate(e, x):
            out[e] = r.add(out[e], x) if e in out else x

        for e, c in self.coeffs.items():
            term = None
            for v, n in zip(self.variables, e):
                if n:
                    if v not in mapping:
                        raise DomainError("no substitution given for %s" % v)
                    term = power(v, n) if term is None else term * power(v, n)
            if term is None:
                accumulate((0,) * len(template.variables), c)
            else:
                for e2, x in term.coeffs.items():
                    accumulate(e2, r.mul(c, x))
        return TruncSeries(r, template.variables, out, order)

    def compose(self, g: "TruncSeries"):
        """f(g) for univariate f; g must have zero constant term unless f is
        a polynomial (finite, untruncated)."""
        if len(self.variables) != 1:
            raise DomainError("compose needs a univariate outer series")
        if not g.ring.is_zero(g.constant_term()) and self.order is not None:
            raise DomainError("inner series has nonzero constant term")
        return self.subs({self.variables[0]: g})

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for e in sorted(self.coeffs, key=lambda t: (sum(t), t)):
            c = self.coeffs[e]
            mono = "*".join("%s^%d" % (v, n) if n > 1 else v
                            for v, n in zip(self.variables, e) if n)
            cs = self.ring.fmt(c)
            parts.append(cs if not mono else
                         mono if cs == "1" else "%s*%s" % (cs, mono))
        return " + ".join(parts)


# ---------------------------------------------------------------------------
# spec-level operations


def clear_denominators(f: TruncSeries, target: Ring) -> TruncSeries:
    """Map a series over Q (or a quotient ring over Q) into target.

    Each coefficient's denominator must be invertible in target; the error
    names the offending monomial and the ring.  A ring that defines no
    from_rational receives no coefficient at all.
    """
    image = getattr(target, "from_rational", None)
    out = {}
    for e, c in f.coeffs.items():
        img = None if image is None else image(c)
        if img is None:
            mono = "*".join("%s^%d" % (v, n) if n > 1 else v
                            for v, n in zip(f.variables, e) if n) or "1"
            raise NotIntegral(
                "coefficient %s of %s has no image in %s"
                % (f.ring.fmt(c), mono, target))
        out[e] = img
    return TruncSeries(target, f.variables, out, f.order)


def newton_inverse(a, u0, one, mul, sub, steps: int):
    """The inverse of a, from an inverse u0 of a modulo a nilpotent ideal I,
    by Newton's iteration u <- u - u(a u - 1): after k steps a u - 1 lies in
    I^(2^k) (von zur Gathen & Gerhard, Modern Computer Algebra, 9.1).
    Returns u as soon as a u == one, tested before each of at most steps
    steps and after the last; None if it never holds.  Needs only mul, sub
    and == on the elements."""
    u = u0
    for _ in range(steps):
        au = mul(a, u)
        if au == one:
            return u
        u = sub(u, mul(u, sub(au, one)))
    return u if mul(a, u) == one else None


def series_inverse(f: TruncSeries) -> TruncSeries:
    """1/f for f whose constant term is a unit of the ring (Ring.inv)."""
    r = f.ring
    inv0 = r.inv(f.constant_term())
    if inv0 is None:
        raise NotIntegral("constant term is not a visible unit")
    if f.order is None:
        raise DomainError("series inverse needs a finite order")
    one = TruncSeries.one(r, f.variables, f.order)
    u = newton_inverse(f, TruncSeries.const(r, f.variables, f.order, inv0), one,
                       operator.mul, operator.sub, f.order.bit_length())
    if u is None:
        raise IdentityFailed("series inverse did not reach 1")
    return u


def series_exp(f: TruncSeries) -> TruncSeries:
    """exp f for f of positive order, over a Q-type ring."""
    r = f.ring
    if f.low_order() in (0,) and not f.is_zero():
        raise DomainError("exp needs positive order")
    if f.order is None:
        raise DomainError("exp needs a finite order")
    out = TruncSeries.one(r, f.variables, f.order)
    term = TruncSeries.one(r, f.variables, f.order)
    for n in range(1, f.order + 1):
        inv_n = r.div_int_exact(r.one, n)
        if inv_n is None:
            raise NotIntegral("ring does not contain 1/%d" % n)
        term = term * f.scale(inv_n)
        if term.is_zero():
            break
        out = out + term
    return out


def padic_log(u: TruncSeries) -> TruncSeries:
    """log u = sum (-1)^(n-1) w^n / n with w = u - 1, term by term, each
    term divided in the ring of _log_term_ring.  Over a torsion-free ring w
    needs positive order and the terms stop at the series order; over a
    mod-p^n quotient w(0) may lie in (p, q - 1, zeta - 1), and
    _log_term_bound terms are summed.  The loop stops once w^n is zero.  A
    term outside the ring raises NotIntegral, a constant term over a ring
    with no p-adic modulus DomainError."""
    r = u.ring
    w = u - TruncSeries.one(r, u.variables, u.order)
    if w.is_zero():
        return w
    if r.is_torsion_free and not w.low_order():
        raise DomainError("constant term differs from 1 and %s "
                          "carries no p-adic modulus" % r)
    if w.order is None:
        raise DomainError("log needs a finite order")
    bound = w.order if r.is_torsion_free else _log_term_bound(r, w.order)
    wide, term, reduce = _log_term_ring(r, bound)
    w = TruncSeries(wide, w.variables, w.coeffs, w.order)
    power = TruncSeries.one(wide, w.variables, w.order)
    out = TruncSeries.zero(r, w.variables, w.order)
    for n in range(1, bound + 1):
        power = power * w
        if power.is_zero():
            break
        terms = _images(lambda c: term(c, n), power.coeffs.values())
        if terms is None:
            raise NotIntegral("w^%d / %d has no image in %s"
                              % (n, n, r))
        out = out + TruncSeries(r, w.variables, dict(
            zip(power.coeffs, map(reduce, terms))), w.order)
    return out


def _log_term_ring(ring, bound: int) -> tuple:
    """(wide, term, reduce): term(c, n) = (-1)^(n-1) c / n in wide, or None,
    for n <= bound, and reduce, widened's down, maps wide onto ring.  A
    torsion-free ring divides in itself.  A mod-p^n quotient runs in
    widened(ring, p^K), p^K <= bound: the unit part of n is inverted and its
    p part p^v, v <= K, divided out, and a = b mod m p^K gives
    a / p^v = b / p^v mod m.
    """
    if ring.is_torsion_free:
        return ring, (lambda c, n: ring.div_int_exact(
            ring.mul_int(c, (-1) ** (n - 1)), n)), _same
    p = _padic_profile(ring)[0]
    wide, _, reduce = widened(ring, p ** floor_log(bound, p))
    scalar = wide
    while type(scalar) is PolyQuotRing:
        scalar = scalar.scalar

    def term(c, n):
        p_part = p ** valuation(n, p)
        unit = scalar.inv((-1) ** (n - 1) * n // p_part)
        return (None if unit is None else
                wide.div_int_exact(wide.mul_int(c, unit), p_part))
    return wide, term, reduce


def _log_term_bound(ring, order: int) -> int:
    """The last n at which w^n / n may be nonzero, for w of this order over
    a mod-p^n quotient with w(0) in I = (p, q - 1, zeta - 1).

    Weigh p as p - 1 and q - 1, zeta - 1 as 1: weights add in products, an
    exact division by p^v takes (p - 1) v off, and with (p, n_p, extra) =
    _padic_profile(ring) weight (p - 1)(n_p + extra) is zero.  The z^j
    coefficient of w^k comes from w(0)^(k-i) (w - w(0))^i with
    i <= j <= order, so it lies in I^(k-order) and w^k / k weighs at least
    k - order - (p - 1) floor_log(k, p); the bound is the last k where that
    is below (p - 1)(n_p + extra)."""
    p, n_p, extra = _padic_profile(ring)
    return _last_live_term(p, (p - 1) * (n_p + extra), order)


def _last_live_term(p: int, target: int, shift: int) -> int:
    """The last k >= 1 with F(k) = k - shift - (p - 1) floor_log(k, p)
    below target, or 0.  F grows on each [p^e, p^(e+1)) and
    F(p^(e+1)) - F(p^e) = (p - 1)(p^e - 1) >= 0, so F(k) >= target for
    every k >= n once it holds at n and at the first power of p above n."""
    n = 1
    while (min(n, p ** (floor_log(n, p) + 1) - (p - 1))
           - (p - 1) * floor_log(n, p) - shift < target):
        n += 1
    return n - 1


def _padic_profile(ring) -> tuple:
    """(p, n_p, extra_steps) of a mod-p^n quotient: Z/m with its prime p
    and n_p = v_p(m), or a PolyQuotRing over one, each of whose degrees
    adds extra steps.  DomainError on a ring with no p-adic modulus."""
    scalar, extra = ring, 0
    while isinstance(scalar, PolyQuotRing):
        scalar, extra = scalar.scalar, extra + (scalar.deg or 0)
    if not isinstance(scalar, IntModRing) or scalar.p is None:
        raise DomainError("%s carries no p-adic modulus" % ring)
    return scalar.p, valuation(scalar.m, scalar.p), extra
