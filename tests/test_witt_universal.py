"""The universal Witt tables: an independent symbolic oracle, the packed
build's overflow checks, the size gate, the compiled Horner evaluator
against direct evaluation over Z and Z/p^n, and the caches around them."""
import gc
import hashlib
import json
import pathlib
import random
import sys
import threading
import time

import pytest
import sympy

from prismlab import witt
from prismlab.ringcore import (BoundExceeded, ExactInt, IdentityFailed, ModP,
                               TruncSeries)
from prismlab.witt import eval_int_poly, universal_size_bound, witt_universal

REFERENCES = (pathlib.Path(__file__).resolve().parents[1]
              / "perfbench" / "references.json")


def sympy_table(op, p, L):
    """Solve the ghost equations for op in sympy's polynomial arithmetic."""
    a = sympy.symbols("a0:%d" % L)
    b = sympy.symbols("b0:%d" % L)

    def w(x, n):
        return sum(p ** i * x[i] ** (p ** (n - i)) for i in range(n + 1))

    if op == "add":
        gens, ghosts = a + b, [w(a, n) + w(b, n) for n in range(L)]
    elif op == "mul":
        gens, ghosts = a + b, [w(a, n) * w(b, n) for n in range(L)]
    elif op == "neg":
        gens, ghosts = a, [-w(a, n) for n in range(L)]
    else:
        gens, ghosts = a, [w(a, n + 1) for n in range(L - 1)]
    sols = []
    for n, g in enumerate(ghosts):
        rest = sum(p ** i * sols[i] ** (p ** (n - i)) for i in range(n))
        sols.append(sympy.expand((g - rest) / p ** n))
    return [sympy.Poly(s, *gens) for s in sols]


@pytest.mark.parametrize("op", ["add", "mul", "neg", "frobenius"])
@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("L", [1, 2, 3])
def test_tables_match_sympy_ghost_solve(op, p, L):
    table = witt_universal(op, p, L)
    oracle = sympy_table(op, p, L)
    assert len(table) == len(oracle)
    for poly, sym in zip(table, oracle):
        assert sym.domain == sympy.ZZ
        assert poly.variables == tuple(str(g) for g in sym.gens)
        assert poly.coeffs == {e: int(c) for e, c in sym.as_dict().items()}


def reference_tables():
    tables = json.loads(REFERENCES.read_text())["tables"]
    assert len(tables) == 24
    for name, ref in tables.items():
        op, p, L = name.split("/")
        yield name, ref, op, int(p), int(L)


def test_tables_match_reference_digests():
    for name, ref, op, p, L in reference_tables():
        polys = witt_universal(op, p, L)
        digest = hashlib.sha256(repr([sorted(s.coeffs.items())
                                      for s in polys]).encode()).hexdigest()
        assert sum(len(s.coeffs) for s in polys) == ref["monomials"], name
        assert digest[:16] == ref["digest"], name


def direct_eval(poly, values):
    out = 0
    for e, c in poly.coeffs.items():
        for v, n in zip(values, e):
            if n:
                c *= v ** n
        out += c
    return out


@pytest.mark.parametrize("op,p,L", [("mul", 5, 4), ("add", 2, 6)])
def test_mod_pn_evaluation_is_integer_evaluation_reduced(op, p, L):
    m = p ** 6
    R, Z = ModP(p, 6), ExactInt()
    table = witt_universal(op, p, L)
    evaluators = witt._table_evaluators(op, p, L)
    rng = random.Random(6)
    for trial in range(4):
        values = [rng.randrange(m) for _ in range(2 * L)]
        for poly, f in zip(table, evaluators):
            exact = eval_int_poly(poly, Z, values, f)
            assert eval_int_poly(poly, R, values, f) == exact % m
            if trial == 0:
                assert exact == direct_eval(poly, values)
    assert witt._universal_cache[(op, p, L)] is table
    assert witt._table_evaluators(op, p, L) is evaluators


def test_horner_evaluator_matches_direct_evaluation():
    """Every component of the 24 reference tables at 20 seeded points over
    Z (entries up to 9 in size) and 20 over Z/p^6."""
    Z = ExactInt()
    for name, _, op, p, L in reference_tables():
        m, R = p ** 6, ModP(p, 6)
        rng = random.Random(name)
        for poly, f in zip(witt_universal(op, p, L),
                           witt._table_evaluators(op, p, L)):
            n = len(poly.variables)
            for _ in range(20):
                values = [rng.randrange(-9, 10) for _ in range(n)]
                assert eval_int_poly(poly, Z, values, f) == \
                    direct_eval(poly, values), name
                values = [rng.randrange(m) for _ in range(n)]
                assert eval_int_poly(poly, R, values, f) == \
                    direct_eval(poly, values) % m, name


@pytest.mark.parametrize("coeffs", [
    {},                                      # empty: compiles to 0
    {(0, 0): -7},                            # constant
    {(e,): e - 150 for e in range(300)},     # nests past the hoisting depth
    {(0, 5): 3, (200, 0): 1, (7, 9): -2},    # gaps between exponents
])
def test_horner_evaluator_edge_polynomials(coeffs):
    Z, R = ExactInt(), ModP(3, 4)
    nv = len(next(iter(coeffs), (0, 0)))
    poly = TruncSeries(Z, ("x", "y")[:nv], coeffs, None)
    for f in (witt._compile_int_poly(poly), witt._compile_int_poly(poly, True),
              None):
        for values in ([0] * nv, [1] * nv, [-3, 2][:nv], [7, -1][:nv]):
            assert eval_int_poly(poly, Z, values, f) == \
                direct_eval(poly, values)
            assert eval_int_poly(poly, R, [v % 81 for v in values], f) == \
                direct_eval(poly, values) % 81


def test_compiled_evaluator_follows_its_polynomial(monkeypatch):
    """A table rebuilt after both memos are cleared compiles its own
    evaluators; a polynomial outside the tables is evaluated from its terms,
    so a fresh one that may reuse a freed id gets its own value."""
    Z = ExactInt()
    a = witt.WittVector(Z, 3, [2, -1, 4])
    b = witt.WittVector(Z, 3, [-5, 3, 1])
    values = list(a.components + b.components)
    memos = (witt._universal_cache, witt._table_evaluators.cache)
    for op in ("add", "mul"):
        key = (op, 3, 3)
        for cache in memos:
            monkeypatch.delitem(cache, key, raising=False)
        first = witt.witt_op_universal(a, b, op)
        polys, evaluators = (cache[key] for cache in memos)
        assert len(evaluators) == len(polys) == 3
        assert list(first.components) == [direct_eval(s, values)
                                          for s in polys]
        for cache in memos:
            del cache[key]
        del polys
        gc.collect()
        assert witt.witt_op_universal(a, b, op) == first
        assert witt._table_evaluators.cache[key] is not evaluators

    def poly(scale):
        return TruncSeries(Z, ("x", "y"), {(i, j): scale * (i + 2 * j + 1)
                                           for i in range(24)
                                           for j in range(24)}, None)

    for scale in range(1, 6):
        other = poly(scale)
        assert eval_int_poly(other, Z, [2, 3]) == direct_eval(other, [2, 3])
        del other
        gc.collect()


def test_fresh_polynomials_are_not_retained():
    """200 fresh 25-term polynomials, each evaluated from its terms and
    through an evaluator compiled for it, leave nothing behind: kept, the
    evaluators would hold about 350 KiB."""
    import tracemalloc
    Z = ExactInt()
    polys = [TruncSeries(Z, ("x", "y"), {(i, j): k + i - j for i in range(5)
                                         for j in range(5)}, None)
             for k in range(200)]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for f in polys:
            expected = direct_eval(f, [2, -3])
            assert eval_int_poly(f, Z, [2, -3]) == expected
            assert eval_int_poly(f, Z, [2, -3],
                                 witt._compile_int_poly(f)) == expected
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 64 * 1024, grown


def test_concurrent_requests_build_a_table_once(monkeypatch):
    key = ("add", 3, 3)
    monkeypatch.delitem(witt._universal_cache, key, raising=False)
    real_build = witt._build_universal
    builds = []

    def slow_build(op, p, L):
        builds.append((op, p, L))
        time.sleep(0.05)
        return real_build(op, p, L)

    monkeypatch.setattr(witt, "_build_universal", slow_build)
    workers = 4
    barrier = threading.Barrier(workers)
    results = [None] * workers

    def ask(i):
        barrier.wait(timeout=10)
        results[i] = witt_universal(*key)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=ask, args=(i,))
                   for i in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert builds == [key]
    assert all(r is results[0] for r in results)


def test_packed_exponent_overflow_raises():
    # width 3 holds exponents up to 3 plus the guard bit 4 (0b100)
    with pytest.raises(IdentityFailed):
        witt._pk_unpack({4: 1}, 2, 3, 3)
    with pytest.raises(IdentityFailed):
        witt._pk_unpack({1 << 6: 1}, 2, 3, 3)
    with pytest.raises(IdentityFailed):
        witt._pk_mul({4: 1}, {1: 1}, 0b100100)
    assert witt._pk_unpack({3 | 2 << 3: 5}, 2, 3, 3) == {(3, 2): 5}


def test_byte_wide_packed_exponent_overflow_raises():
    # width 8, the width of every table up to p^(L-1) = 127: the byte path
    # of _pk_unpack, with the guard bit 0x80 at the top of each field
    assert witt._pk_unpack({125 | 3 << 8: 7, 1 << 8: -2}, 2, 8, 125) == \
        {(125, 3): 7, (0, 1): -2}
    for packed in (126, 126 << 8, 3 | 127 << 8, 0x80):
        with pytest.raises(IdentityFailed):
            witt._pk_unpack({1: 1, packed: 1}, 2, 8, 125)
    for packed in (1 << 16, 5 | 1 << 23, 1 << 40):
        with pytest.raises(IdentityFailed):
            witt._pk_unpack({packed: 1}, 2, 8, 125)
    for operand in (0x80, 0x8000, 0xff, 1 | 0x80 << 8):
        with pytest.raises(IdentityFailed):
            witt._pk_mul({operand: 1}, {1: 1}, 0x8080)
        with pytest.raises(IdentityFailed):
            witt._pk_mul({1: 1}, {operand: 1}, 0x8080)
    assert witt._pk_mul({0x7f: 2}, {0x7f << 8: 3}, 0x8080) == {0x7f7f: 6}
    assert witt._pk_mul({0x7f: 1}, {0x7f: 1}, 0x8080) == {0xfe: 1}


def test_products_nest_the_as_outside_the_bs(monkeypatch):
    """Only the product tables split their variables, a's outside b's;
    the order changes the source, not the value."""
    Z = ExactInt()
    poly = TruncSeries(Z, ("a0", "b0"), {(1, 1): 1, (1, 0): 1, (0, 2): 1},
                       None)
    # by falling degree b0 nests outside a0; split, a0 nests outside b0
    assert witt._horner_source(poly, [1, 2]).endswith(
        "return _x0_1+_x1_1*(_x0_1+_x1_1*(1))")
    assert witt._horner_source(poly, [1, 2], True).endswith(
        "return _x1_2+_x0_1*(1+_x1_1*(1))")
    real = witt._compile_int_poly
    splits = {}

    def compile_int_poly(poly, split=False):
        splits.setdefault(op, set()).add(split)
        return real(poly, split)

    monkeypatch.setattr(witt, "_compile_int_poly", compile_int_poly)
    for op in ("add", "mul", "neg", "frobenius"):
        # the build behind the memo, which compiles on every call
        witt._table_evaluators.__wrapped__(op, 3, 3)
    assert splits == {"add": {False}, "mul": {True}, "neg": {False},
                      "frobenius": {False}}


@pytest.mark.parametrize("op,p,L,bound", [
    ("add", 2, 6, 23_400), ("add", 5, 4, 47_098), ("add", 3, 5, 115_602),
    ("add", 7, 4, 706_814), ("add", 2, 7, 1_357_608),
    ("add", 3, 6, 62_251_674), ("mul", 5, 4, 82 ** 2), ("neg", 5, 4, 82),
])
def test_size_bound_values(op, p, L, bound):
    assert universal_size_bound(op, p, L) == bound


def test_size_bound_covers_every_reference_table():
    for name, _, op, p, L in reference_tables():
        size = max((len(s.coeffs) for s in witt_universal(op, p, L)),
                   default=0)
        assert size <= universal_size_bound(op, p, L), name


def test_infeasible_table_is_refused_unbuilt(monkeypatch):
    def no_build(op, p, L):
        raise AssertionError("built %s table for p=%d, L=%d" % (op, p, L))

    monkeypatch.setattr(witt, "_build_universal", no_build)
    for op, p, L in [("add", 7, 4), ("mul", 2, 7), ("neg", 2, 30)]:
        with pytest.raises(BoundExceeded) as err:
            witt_universal(op, p, L)
        assert "p=%d, L=%d" % (p, L) in str(err.value)
        assert str(witt.UNIVERSAL_MAX_MONOMIALS) in str(err.value)
        assert (op, p, L) not in witt._universal_cache
