"""The same ring over Q, for the reference computations of the tests: sums
that divide by integers run there and come back through the library's
ring.from_rational, which certifies each coefficient."""
from fractions import Fraction

from prismlab.ringcore import (
    IntModRing, IntRing, PolyQuotRing, RatRing, SeriesCoeffRing,
)


def rational_twin(ring):
    """(twin, to_rat): ring with Q in place of Z or Z/m, and the map that
    sends an element to its integral lift (representatives in [0, m)) in
    the twin, coefficient by coefficient."""
    if isinstance(ring, (IntRing, RatRing, IntModRing)):
        return RatRing(), Fraction
    if isinstance(ring, PolyQuotRing):
        scalar, up = rational_twin(ring.scalar)
        twin = PolyQuotRing(scalar, ring.modulus, ring.var)
        return twin, lambda a: twin.make(map(up, a))
    if isinstance(ring, SeriesCoeffRing):
        base, up = rational_twin(ring.base)
        return (SeriesCoeffRing(base, ring.variables, ring.order),
                lambda a: a.map_coeffs(up, base))
    raise TypeError("no rational twin for %s" % ring)
