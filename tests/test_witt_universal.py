"""The universal Witt tables: an independent symbolic oracle, the packed
build's overflow checks, evaluation over Z/p^n and the caches around them."""
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
from prismlab.ringcore import ExactInt, ModP, PrismlabError, TruncSeries
from prismlab.witt import eval_int_poly, witt_universal

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


def test_tables_match_reference_digests():
    tables = json.loads(REFERENCES.read_text())["tables"]
    assert len(tables) == 24
    for name, ref in tables.items():
        op, p, L = name.split("/")
        polys = witt_universal(op, int(p), int(L))
        digest = hashlib.sha256(repr([sorted(s.coeffs.items())
                                      for s in polys]).encode()).hexdigest()
        assert sum(len(s.coeffs) for s in polys) == ref["monomials"], name
        assert digest[:16] == ref["digest"], name


def direct_eval(poly, values):
    out = 0
    for e, c in poly.coeffs.items():
        for v, n in zip(values, e):
            c *= v ** n
        out += c
    return out


@pytest.mark.parametrize("op,p,L", [("mul", 5, 4), ("add", 2, 6)])
def test_mod_pn_evaluation_is_integer_evaluation_reduced(op, p, L):
    m = p ** 6
    R, Z = ModP(p, 6), ExactInt()
    table = witt_universal(op, p, L)
    assert max(len(s.coeffs) for s in table) >= witt._COMPILE_THRESHOLD
    rng = random.Random(6)
    for trial in range(4):
        values = [rng.randrange(m) for _ in range(2 * L)]
        for poly in table:
            exact = eval_int_poly(poly, Z, values)
            assert eval_int_poly(poly, R, values) == exact % m
            if trial == 0:
                assert exact == direct_eval(poly, values)


def test_compiled_evaluator_follows_its_polynomial(monkeypatch):
    monkeypatch.setattr(witt, "_compiled_cache", {})
    Z = ExactInt()

    def poly(scale):
        return TruncSeries(Z, ("x", "y"), {(i, j): scale * (i + 2 * j + 1)
                                           for i in range(24)
                                           for j in range(24)}, None)

    first = poly(1)
    assert len(first.coeffs) >= witt._COMPILE_THRESHOLD
    assert eval_int_poly(first, Z, [2, 3]) == direct_eval(first, [2, 3])
    del first
    gc.collect()
    # fresh polynomials of the same shape, which may reuse the freed id
    for scale in range(2, 6):
        other = poly(scale)
        assert eval_int_poly(other, Z, [2, 3]) == direct_eval(other, [2, 3])


def test_concurrent_requests_build_a_table_once(monkeypatch):
    monkeypatch.setattr(witt, "_universal_cache", {})
    monkeypatch.setattr(witt, "_universal_locks", {})
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
        results[i] = witt_universal("add", 3, 3)

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
    assert builds == [("add", 3, 3)]
    assert all(r is results[0] for r in results)


def test_packed_exponent_overflow_raises():
    # width 3 holds exponents up to 3 plus the guard bit 4 (0b100)
    with pytest.raises(PrismlabError):
        witt._pk_unpack({4: 1}, 2, 3, 3)
    with pytest.raises(PrismlabError):
        witt._pk_unpack({1 << 6: 1}, 2, 3, 3)
    with pytest.raises(PrismlabError):
        witt._pk_mul({4: 1}, {1: 1}, 0b100100)
    assert witt._pk_unpack({3 | 2 << 3: 5}, 2, 3, 3) == {(3, 2): 5}
