"""full_report against one fold of the whole top wedge per point, whose
four memberships are decided on their lattices as the checkers decide,
never reading det X, at one odd rank over F_13.  Per ring (the field, the
dual numbers, poly(a, b)) it checks one dense sampled point, one dense
nilpotent point and the counterexample's shape, X1 = diag(x, -x, 0, ...,
0, -x, x) with x = 1, the dual generator or a.  Too slow for the tier-1
suite at n = 9; run it from the root of a checkout:

    PYTHONPATH=src python tests/full_report_oracle.py [--n 9]

Exit 0 when every report equals those verdicts and points with
det X = 0 and with det X != 0 both occur."""

import argparse
import random
import sys
import time

from ramwedge.chart import (ChartPoint, charpoly_coefficients,
                            check_kottwitz, check_naive_relations,
                            check_trace, check_wedge, full_report)
from ramwedge.drivers import sample_chart_points
from ramwedge.fields import PrimeField

from test_chart import folded_memberships, nilpotent_point, rings_over


def counterexample_shape(n, ring):
    x = (ring.one if ring.kind == "field" else ring.x() if ring.kind == "dual"
         else ring.var(0))
    diag = [ring.zero] * (n - 1)
    diag[0], diag[1], diag[n - 3], diag[n - 2] = x, ring.neg(x), ring.neg(x), x
    x1 = [[diag[i] if i == j else ring.zero for j in range(n - 1)] for i in range(n - 1)]
    return ChartPoint.from_blocks(n, ring, x1, [ring.zero] * (n - 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--n", type=int, default=9)
    n = parser.parse_args(argv).n
    failures, dets = [], set()
    for ring in rings_over(PrimeField(13)):
        points = {"dense": sample_chart_points(n, ring, 2, seed=n)[1],  # X2, X4 too
                  "nilpotent": nilpotent_point(n, ring, random.Random(n)),
                  "counterexample": counterexample_shape(n, ring)}
        for kind, pt in points.items():
            start = time.perf_counter()
            standalone = {
                "naive": check_naive_relations(pt),
                "kottwitz": check_kottwitz(pt),
                "wedge": check_wedge(pt),
                "trace": check_trace(pt),
                **folded_memberships(pt),
            }
            report = full_report(pt).conditions
            det_zero = ring.is_zero(charpoly_coefficients(ring, pt.rows)[n])
            dets.add(det_zero)
            same = report == standalone
            print(f"n = {n} {ring.kind} {kind}: det X {'=' if det_zero else '!='} 0, "
                  f"{'same' if same else 'DIFFERENT'} "
                  f"({time.perf_counter() - start:.1f} s)")
            if not same:
                failures.append(f"{ring.kind} {kind}: {report} != {standalone}")
    if dets != {True, False}:
        failures.append(f"det X = 0 only: {dets == {True}}")
    for failure in failures:
        print(failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
