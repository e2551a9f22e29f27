"""The benchmark's four workloads.

Each workload is a fixed list of tasks made from the seed.  `make_inputs`
returns that list as plain data, drawing every random choice from the seed
without calling library code; `build_tasks` turns it into tasks, each one
certified call into prismlab; `check_references` compares the outputs,
after the timed phase, with the references recorded in references.json.

The library is reached through module attributes at call time
(`witt.witt_op`, not a name imported once), so the traced run sees every
call through the wrappers that spans.Tracer installs.
"""
from __future__ import annotations

import functools
import hashlib
import itertools
import json
import os
import random
from fractions import Fraction

WORKLOADS = ("witt_tables", "qdeform", "derham_modp", "verify_cli")

# Universal tables built cold in every round: add/mul/neg/frobenius for
# (p, L) in {2,3,5}x{3,4}, except the p = 5, L = 4 addition table, plus the
# p = 2, L = 6 addition table.  The (5, 4) addition table alone takes 10 to
# 15 s cold, which leaves room for one round per run and makes a run's
# figures those of one slow or fast moment of the machine.  The (2, 6) table,
# 13,083 monomials and about 1.5 s cold, puts the same build kernel at the
# top of a round instead.  (7, 4) is left out too: its addition table did
# not finish building within 300 s.
TABLE_OPS = ("add", "mul", "neg", "frobenius")
TABLES = tuple((op, p, L) for p in (2, 3, 5) for L in (3, 4)
               for op in TABLE_OPS if (op, p, L) != ("add", 5, 4)) \
    + (("add", 2, 6),)

# Trials per (p, L, coefficient ring, op), the ring Z/p^6 if True, else Z.
# The counts put the median task inside the (2, 6) additions over Z and the
# p90 task inside the (5, 4) multiplications over Z/5^6, each at least 8 %
# of the tasks away from the edge of its group: on such an edge a
# percentile jumps between two groups of tasks from run to run.
WITT_TRIALS = {(2, 4, False, "add"): 4, (2, 4, False, "mul"): 4,
               (2, 4, True, "add"): 4, (2, 4, True, "mul"): 4,
               (3, 4, False, "add"): 4, (3, 4, False, "mul"): 4,
               (3, 4, True, "add"): 4, (3, 4, True, "mul"): 4,
               (5, 4, False, "mul"): 20,
               (2, 6, False, "add"): 30, (2, 6, True, "add"): 30,
               (5, 4, True, "mul"): 40}

# canonical_point(2, 4, 4, L=2, t_deg=4) is requested twice a round: once
# directly and once inside r0_relation_check, as tier-1 and verify do.
# p = 3 and t_deg = 6 are left out: each further construction adds 1.5 to
# 3 s to a round.
CANONICAL = (2, 4)              # (p, t_deg)
Q_EXP_PRIMES = (2, 3)
HOPF_MAX_DEGREE = 8
# (kind, Adams index n, count).  The coproducts hold both the median and
# the p90 task; the products (2 ms) and Adams trials (15-22 ms) below them
# and the four qprism tasks above them are few enough that neither
# percentile comes within 6 % of the tasks of the edge of that group.
HOPF_TRIALS = (("product", None, 40), ("adams", 2, 8), ("coproduct", 2, 72))

DERHAM_GRID = [(p, L, n_p) for p in (2, 3) for L in (2, 3, 4) for n_p in (4, 6)]
DERHAM_TRIALS = 20              # per grid cell
# The discrepancy check runs on all 8 kernel vectors for p = 2 and on 81 of
# the 729 for p = 3, drawn from the seed: all 729 take 8 to 10 s.
DISCREPANCY_SAMPLE = {2: 8, 3: 81}

# (suite, calls per round), each call with its own seed.  The three
# intpoly.wilkerson, intpoly.delta_basis and cartier_witt.eigen suites are
# left out: together they take 5 s, more than the rest of a round.  The
# counts put the median call inside the pd_dual.pairing and
# pd_dual.exact_sequence calls (10-17 ms) and the p90 call inside the
# padic_log, series_arith and m_series calls (60-100 ms), with the wf_ring
# and log_sharp calls beyond it.
VERIFY_CALLS = (
    ("fgl.deformation", 3), ("fgl.rescale", 3),
    ("cartier_witt.hom_pullback", 3), ("ringcore.clear_denominators", 3),
    ("intpoly.basis", 3), ("cartier_witt.psi", 3), ("fgl.axioms", 3),
    ("intpoly.mahler", 3),
    ("pd_dual.pairing", 8), ("pd_dual.exact_sequence", 8),
    ("pd_dual.mu_p", 4), ("pd_dual.gsharp", 3),
    ("cartier_witt.universal_pairing", 3),
    ("ringcore.padic_log", 3), ("ringcore.series_arith", 3),
    ("cartier_witt.m_series", 2),
    ("cartier_witt.wf_ring", 1), ("pd_dual.log_sharp", 1),
)
VERIFY_SUITES = tuple(sid for sid, _ in VERIFY_CALLS)

REFERENCES = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "references.json")


class Task:
    """One certified call.  run() returns (certified, output)."""

    __slots__ = ("label", "group", "run")

    def __init__(self, label: str, group: str, run):
        self.label = label
        self.group = group
        self.run = run


def _rng(seed: int, workload: str, round_: int) -> random.Random:
    digest = hashlib.blake2b(("%d:%s:%d" % (seed, workload, round_)).encode(),
                             digest_size=8).digest()
    return random.Random(int.from_bytes(digest, "big"))


def digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# inputs


def make_inputs(workload: str, seed: int, round_: int = 0) -> list:
    """The task list of round `round_` of a run as plain data: (kind,
    arguments) in the order the tasks run.  Every round of a run draws new
    inputs from the seed, so a run's figures rest on more than one draw.
    Seeded trials are shuffled so that each kind of task is sampled across
    the whole round, not in one burst."""
    rng = _rng(seed, workload, round_)

    def coeffs(n, k):
        # n coefficients with magnitudes 1..k in a fixed pattern and random
        # signs, so that the work per trial does not depend on the seed
        return [rng.choice((-1, 1)) * (1 + i % k) for i in range(n)]

    specs = []
    if workload == "witt_tables":
        tables = [("table", key) for key in TABLES]
        for (p, L, modular, op), count in WITT_TRIALS.items():
            for _ in range(count):
                if modular:
                    a, b = ([rng.randrange(p ** 6) for _ in range(L)]
                            for _ in range(2))
                else:
                    k = 9 if L == 4 and p < 5 else 2
                    a, b = coeffs(L, k), coeffs(L, k)
                specs.append(("universal", (p, modular, op, a, b)))
        rng.shuffle(specs)
        return tables + specs
    if workload == "qdeform":
        p, t_deg = CANONICAL
        specs = [("canonical_point", (p, t_deg)), ("r0_relation", (p, t_deg))]
        specs += [("q_exp_agreement", (q,)) for q in Q_EXP_PRIMES]
        half = HOPF_MAX_DEGREE // 2
        for kind, n, count in HOPF_TRIALS:
            for _ in range(count):
                if kind == "product":
                    args = (coeffs(half + 1, 3), coeffs(half + 1, 3))
                elif kind == "adams":
                    # coefficients linear in h: the product has degree <= 8
                    a = coeffs(2 * half, 2)
                    args = (n, [a[i:i + 2] for i in range(0, 2 * half, 2)],
                            [[c] for c in coeffs(half + 1, 2)])
                else:
                    args = (n, coeffs(HOPF_MAX_DEGREE + 1, 3))
                specs.append((kind, args))
        rng.shuffle(specs)
        return specs
    if workload == "derham_modp":
        specs = [("roundtrip", (p, L, n_p, rng.getrandbits(64)))
                 for p, L, n_p in DERHAM_GRID for _ in range(DERHAM_TRIALS)]
        for p, count in DISCREPANCY_SAMPLE.items():
            specs += [("discrepancy", (p, comps))
                      for comps in rng.sample(kernel_vectors(p), count)]
        rng.shuffle(specs)
        return specs
    if workload == "verify_cli":
        specs = [("verify", (sid, rng.randrange(2 ** 31)))
                 for sid, count in VERIFY_CALLS for _ in range(count)]
        rng.shuffle(specs)
        return specs
    raise ValueError("unknown workload %r" % workload)


def kernel_vectors(p: int) -> list:
    """Length-3 Witt vectors over F_p[a]/(a^3) whose components c satisfy
    c^p = 0, as coefficient triples; computed here without the library."""
    def mul(x, y):
        out = [0, 0, 0]
        for i, xi in enumerate(x):
            for j, yj in enumerate(y):
                if i + j < 3:
                    out[i + j] = (out[i + j] + xi * yj) % p
        return out

    nilpotent = []
    for c in itertools.product(range(p), repeat=3):
        power = [1, 0, 0]
        for _ in range(p):
            power = mul(power, c)
        if not any(power):
            nilpotent.append(c)
    return [list(v) for v in itertools.product(nilpotent, repeat=3)]


# ---------------------------------------------------------------------------
# tasks


def build_tasks(workload: str, specs: list, out_dir: str) -> list:
    """One Task per spec, in order."""
    from prismlab import derham, harness, intpoly, qhopf, qprism, ringcore, witt

    def table(op, p, L):
        return True, witt.witt_universal(op, p, L)

    def universal(p, modular, op, a, b):
        R = ringcore.ModP(p, 6) if modular else ringcore.ExactInt()
        wa = witt.WittVector(R, p, [R.from_int(x) for x in a])
        wb = witt.WittVector(R, p, [R.from_int(x) for x in b])
        out = witt.witt_op_universal(wa, wb, op)
        return out == witt.witt_op(wa, wb, op), out.components

    def canonical_point(p, t_deg):
        rep = qprism.canonical_point(p, 4, 4, L=2, t_deg=t_deg)
        ok = rep["teichmuller"] and rep["rank_one"] and rep["zeroth_component"]
        return ok, (rep["x"].components, rep["tail"])

    def r0_relation(p, t_deg):
        rep = qprism.r0_relation_check(p, 4, 4, t_deg)
        return all(rep.values()), sorted(rep.items())

    def q_exp_agreement(p):
        rep = qprism.q_exp_agreement(p, 4, 4, 4)
        return (rep["coords_are_phi_powers"] and rep["agree"],
                sorted(rep.items()))

    def product(a, b):
        a, b = _b0([[c] for c in a]), _b0([[c] for c in b])
        ab = qhopf.b0_mul(a, b)
        return _at_h1(ab) == intpoly.int_mul(_at_h1(a), _at_h1(b)), ab.coords

    def adams(n, a, b):
        a, b = _b0(a), _b0(b)
        lhs = qhopf.adams(n, a * b)
        return lhs == qhopf.adams(n, a) * qhopf.adams(n, b), lhs.coords

    def coproduct(n, coeffs):
        QH = qhopf.QH
        a = _b0([[c] for c in coeffs])
        lhs = qhopf.b0_coproduct(qhopf.adams(n, a))
        # psi^n (x) psi^n: h^k c_i (x) c_j -> h^k v_n^(i+j+k) c_i (x) c_j
        v = qhopf.v_scalar(n)
        rhs: dict = {}
        for (i, j), c in qhopf.b0_coproduct(a).items():
            for k, f in enumerate(c):
                if f:
                    term = QH.mul(QH.make([Fraction(0)] * k + [f]),
                                  QH.pow(v, i + j + k))
                    rhs[(i, j)] = QH.add(rhs.get((i, j), QH.zero), term)
        rhs = {k: x for k, x in rhs.items() if not QH.is_zero(x)}
        return lhs == rhs, sorted(lhs.items())

    def roundtrip(p, L, n_p, seed):
        R = ringcore.ModP(p, n_p)
        a = derham.sample_gdr(R, p, L, random.Random(seed))
        y = derham.f_log(a)
        return (derham.is_eigen(y) and derham.g_exp(y) == a,
                (a.x.components, y.components))

    def discrepancy(p, comps):
        R = ringcore.PolyQuotRing(ringcore.ModP(p, 1), (0, 0, 0, 1), "a")
        x = witt.WittVector(R, p, [R.make_ints(c) for c in comps])
        rep = derham.discrepancy_check(R, p, 3, [x])
        return (not rep["failures"],
                (rep["count"], rep["differs_from_identity"]))

    def verify(sid, seed, path):
        code = harness.main(["--suite", sid, "--seed", str(seed),
                             "--format", "json", "--out", path])
        return code == 0, path

    runners = {"table": table, "universal": universal,
               "canonical_point": canonical_point, "r0_relation": r0_relation,
               "q_exp_agreement": q_exp_agreement, "product": product,
               "adams": adams, "coproduct": coproduct, "roundtrip": roundtrip,
               "discrepancy": discrepancy, "verify": verify}
    tasks = []
    for i, (kind, args) in enumerate(specs):
        if kind == "table":
            label, group = "table %s p=%d L=%d" % args, "table:%s/%d/%d" % args
        elif kind == "universal":
            p, modular, op = args[:3]
            label = "universal %s p=%d %s" % (op, p,
                                               "Z/p^6" if modular else "Z")
            group = "trials"
        elif kind in ("canonical_point", "r0_relation", "q_exp_agreement"):
            label, group = "%s %s" % (kind, args), "canonical"
        elif kind in ("product", "adams", "coproduct"):
            label = kind if kind == "product" else "%s n=%d" % (kind, args[0])
            group = "hopf"
        elif kind == "roundtrip":
            label, group = "f_log/g_exp p=%d L=%d n_p=%d" % args[:3], "roundtrip"
        elif kind == "discrepancy":
            label = "discrepancy p=%d" % args[0]
            group = "discrepancy:%d" % args[0]
        else:
            label, group = "verify --suite %s" % args[0], "suite:" + args[0]
            args = args + (os.path.join(out_dir, "report-%02d.json" % i),)
        tasks.append(Task(label, group, functools.partial(runners[kind],
                                                          *args)))
    return tasks


def _b0(coeffs):
    """B0 element from integer coordinates, each a list of h-coefficients."""
    from prismlab import qhopf
    return qhopf.B0Elem(tuple(qhopf.QH.make([Fraction(c) for c in cs])
                              for cs in coeffs))


def _at_h1(x):
    from prismlab import intpoly
    out = intpoly.IntPoly(())
    for n, c in enumerate(x.specialize_h(Fraction(1))):
        v = c[0] if c else Fraction(0)
        out = out + intpoly.IntPoly.basis(n).scale(int(v))
    return out


# ---------------------------------------------------------------------------
# references, checked after the timed phase


def table_digest(polys) -> str:
    return digest([sorted(s.coeffs.items()) for s in polys])


def structure_constants_digest() -> str:
    """Digest of gamma^k_{mn} for every m + n <= 12."""
    from prismlab import qhopf
    return digest([(m, n, qhopf.structure_constants(m, n))
                   for m in range(7) for n in range(m, 13 - m)])


def load_references() -> dict:
    with open(REFERENCES) as fh:
        return json.load(fh)


def summarize(workload: str, task: Task, out):
    """What a task's output contributes to the round digest and to the
    reference checks: a table's size and digest, a report's check counts."""
    if task.group.startswith("table:"):
        return {"monomials": sum(len(s.coeffs) for s in out),
                "digest": table_digest(out)}
    if task.group.startswith("suite:"):
        with open(out) as fh:
            report = json.load(fh)
        return {"checks": len(report["checks"]), "failed": report["failed"],
                "report": digest(json.dumps(
                    [{k: v for k, v in c.items() if k != "elapsed"}
                     for c in report["checks"]], sort_keys=True))}
    if task.group.startswith("discrepancy:"):
        return list(out)
    return digest(out)


def check_references(workload: str, tasks: list, summaries: list,
                     refs: dict) -> dict:
    """{group: reason} for every group whose outputs disagree with the
    recorded references; each task of such a group counts as failed."""
    bad: dict = {}
    if workload == "witt_tables":
        for task, s in zip(tasks, summaries):
            if task.group.startswith("table:"):
                want = refs["tables"][task.group[len("table:"):]]
                if s != want:
                    bad[task.group] = "table %s != %s" % (s, want)
    elif workload == "qdeform":
        got = structure_constants_digest()
        if got != refs["structure_constants"]:
            bad["hopf"] = "structure constants digest %s" % got
    elif workload == "derham_modp":
        # one kernel vector per task; the references hold the outcome on
        # all of them, so a sample must count one per task and differ from
        # the identity where the whole set does
        for p in (2, 3):
            group = "discrepancy:%d" % p
            outs = [s for t, s in zip(tasks, summaries) if t.group == group]
            got = {"count": sum(s[0] for s in outs if isinstance(s, list)),
                   "differs_from_identity": any(
                       s[1] for s in outs if isinstance(s, list))}
            want = dict(refs["discrepancy"][str(p)], count=len(outs))
            if got != want:
                bad[group] = "discrepancy %s, expected %s" % (got, want)
    elif workload == "verify_cli":
        for task, s in zip(tasks, summaries):
            sid = task.group[len("suite:"):]
            want = refs["verify_checks"][sid]
            if not isinstance(s, dict):
                bad[task.group] = "%s: no report" % sid
            elif s["checks"] != want or s["failed"]:
                bad[task.group] = "%s: %d checks (%d failed), expected %d" % (
                    sid, s["checks"], s["failed"], want)
    return bad
