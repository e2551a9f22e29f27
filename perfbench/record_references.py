"""Record the correctness references every benchmark run is checked against.

    python3 perfbench/record_references.py

Writes references.json: the monomial count and digest of each universal
table, a digest of the Hopf structure constants up to total degree 12, the
outcome of the exhaustive discrepancy check, and the check count of each
verify_cli suite.  Run it only on a commit whose results are trusted; a
change that alters any of these values is a change of results.
"""
from __future__ import annotations

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from bench_round import load_library  # noqa: E402


def main() -> int:
    load_library()
    from prismlab import derham, harness, ringcore, witt

    import workloads
    tables = {}
    for op, p, L in workloads.TABLES:
        polys = witt.witt_universal(op, p, L)
        tables["%s/%d/%d" % (op, p, L)] = {
            "monomials": sum(len(s.coeffs) for s in polys),
            "digest": workloads.table_digest(polys)}
    discrepancy = {}
    for p in (2, 3):
        R = ringcore.PolyQuotRing(ringcore.ModP(p, 1), (0, 0, 0, 1), "a")
        xs = [witt.WittVector(R, p, [R.make_ints(c) for c in comps])
              for comps in workloads.kernel_vectors(p)]
        rep = derham.discrepancy_check(R, p, 3, xs)
        if rep["failures"]:
            raise SystemExit("discrepancy check failed: %s" % rep["failures"])
        discrepancy[str(p)] = {"count": rep["count"],
                               "differs_from_identity":
                                   rep["differs_from_identity"]}
    verify_checks = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "report.json")
        for sid in workloads.VERIFY_SUITES:
            if harness.main(["--suite", sid, "--format", "json",
                             "--out", path]) != 0:
                raise SystemExit("suite %s failed" % sid)
            with open(path) as fh:
                verify_checks[sid] = len(json.load(fh)["checks"])
    refs = {"tables": tables,
            "structure_constants": workloads.structure_constants_digest(),
            "discrepancy": discrepancy, "verify_checks": verify_checks}
    with open(workloads.REFERENCES, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
