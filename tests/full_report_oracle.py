"""full_report against one fold of the whole top wedge per point, whose
four memberships are decided on their lattices as the checkers decide,
never reading det X, and against first_nonzero_evaluation of each
lattice's merged annihilators (every block reduced, on lattices built
apart from the caches), at one odd rank over F_13.  Per ring (the field, the dual
numbers, poly(a, b)) it checks one dense sampled point, one dense
nilpotent point and the counterexample's shape, X1 = diag(x, -x, 0, ...,
0, -x, x) with x = 1, the dual generator or a.  Too slow for the tier-1
suite at n = 9; run it from the root of a checkout:

    PYTHONPATH=src python tests/full_report_oracle.py [--n 9]

Exit 0 when every report equals those verdicts and points with
det X = 0 and with det X != 0 both occur."""

import argparse
import sys
import time

from ramwedge.chart import (charpoly_coefficients, check_kottwitz,
                            check_naive_relations, check_trace, check_wedge,
                            full_report)
from ramwedge.fields import PrimeField

from test_chart import dense_points, every_block_memberships, folded_memberships, rings_over


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--n", type=int, default=9)
    n = parser.parse_args(argv).n
    failures, dets = [], set()
    for ring in rings_over(PrimeField(13)):
        for kind, pt in dense_points(n, ring).items():
            start = time.perf_counter()
            report = full_report(pt).conditions  # first, on the coldest caches
            standalone = {
                "naive": check_naive_relations(pt),
                "kottwitz": check_kottwitz(pt),
                "wedge": check_wedge(pt),
                "trace": check_trace(pt),
                **folded_memberships(pt),
            }
            every_block = every_block_memberships(pt)
            det_zero = ring.is_zero(charpoly_coefficients(ring, pt.rows)[n])
            dets.add(det_zero)
            same = report == standalone and every_block.items() <= report.items()
            print(f"n = {n} {ring.kind} {kind}: det X {'=' if det_zero else '!='} 0, "
                  f"{'same' if same else 'DIFFERENT'} "
                  f"({time.perf_counter() - start:.1f} s)")
            if not same:
                failures.append(f"{ring.kind} {kind}: {report} != {standalone} "
                                f"or every block {every_block}")
    if dets != {True, False}:
        failures.append(f"det X = 0 only: {dets == {True}}")
    for failure in failures:
        print(failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
