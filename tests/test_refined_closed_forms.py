"""The refined lattice of signature (n-1, 1) in closed form, with
m = (n - 1)/2: 2m^2 + 2m + 1 blocks, none empty, C(n + 1, 2) generators
and span rank, m(2m - 1) kernel functionals, a support of 4m^2 + 2m + 1
coordinates, and the counterexample's refined witness
functional[C(m + 1, 2) - 1].  These are observed at every rank checked,
not proved.  Tier-1 checks n = 5, 7
and 9 over F_3, F_13, F_(2^61 - 1) and Q at precision P and P + 8; higher
ranks take seconds each, so run them from the root of a checkout:

    PYTHONPATH=src python tests/test_refined_closed_forms.py --n 11 13

Exit 0 when every form holds at every given rank, field and precision."""

import argparse
import sys
import time
from math import comb

import pytest

from ramwedge.chart import DEFAULT_PRECISION, ChartPoint, full_report, refined_annihilators
from ramwedge.fields import PrimeField, Rationals
from ramwedge.rings import DualNumbers

FIELDS = (PrimeField(3), PrimeField(13), PrimeField(2**61 - 1), Rationals())
PRECISIONS = (DEFAULT_PRECISION, DEFAULT_PRECISION + 8)


def counterexample_point(n: int, field) -> ChartPoint:
    """drivers.counterexample_point over any field: X1 = diag(x, -x, 0, ...,
    0, -x, x) over the dual numbers, signature (n-1, 1)."""
    ring = DualNumbers(field)
    x = ring.x()
    diag = [ring.zero] * (n - 1)
    diag[0], diag[1], diag[n - 3], diag[n - 2] = x, ring.neg(x), ring.neg(x), x
    x1 = [[diag[i] if i == j else ring.zero for j in range(n - 1)] for i in range(n - 1)]
    return ChartPoint.from_blocks(n, ring, x1, [ring.zero] * (n - 1))


def closed_forms(n: int) -> dict:
    m = (n - 1) // 2
    return {"blocks": 2 * m * m + 2 * m + 1, "empty_blocks": 0,
            "generators": comb(n + 1, 2), "span_rank": comb(n + 1, 2),
            "functionals": m * (2 * m - 1), "support": 4 * m * m + 2 * m + 1,
            "witness": f"functional[{comb(m + 1, 2) - 1}]"}


def measured(n: int, field, precision: int) -> dict:
    # a fresh lattice, whatever blocks the cached one built for other points
    lattice = refined_annihilators.__wrapped__(n, field.key(), n - 1, 1, precision)
    ann = lattice.annihilators  # builds every block with a family mask in it
    blocks = {id(block): block for block in lattice._block_of.values()}.values()
    report = full_report(counterexample_point(n, field), precision)
    return {"blocks": len(blocks),
            "empty_blocks": sum(not block.span_rank for block in blocks),
            "generators": lattice.generators, "span_rank": ann.span_rank,
            "functionals": len(ann.functionals), "support": len(ann.support),
            "witness": report.conditions["refined"].witness}


@pytest.mark.parametrize("precision", PRECISIONS)
@pytest.mark.parametrize("field", FIELDS, ids=lambda f: "Q" if f.key() == ("Q",) else f"F{f.p}")
@pytest.mark.parametrize("n", [5, 7, 9])
def test_refined_lattice_closed_forms(n, field, precision):
    assert measured(n, field, precision) == closed_forms(n)


@pytest.mark.parametrize("n", [5, 7, 9])
def test_the_block_index_holds_at_most_two_entries_a_block(n):
    # keyed by slot weight: a paired block's own and that of S-perp, one
    # entry when the two agree, and none per mask
    lattice = refined_annihilators.__wrapped__(n, FIELDS[1].key(), n - 1, 1, DEFAULT_PRECISION)
    lattice.annihilators
    blocks = {id(block) for block in lattice._block_of.values()}
    assert len(blocks) == closed_forms(n)["blocks"]
    assert len(lattice._block_of) <= 2 * len(blocks)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--n", type=int, nargs="+", default=[11])
    failures = 0
    for n in parser.parse_args(argv).n:
        want = closed_forms(n)
        for field in FIELDS:
            for precision in PRECISIONS:
                start = time.perf_counter()
                got = measured(n, field, precision)
                ok = got == want
                failures += not ok
                print(f"n = {n}, field {field.key()}, precision {precision}: "
                      f"{'ok' if ok else f'{got} != {want}'} "
                      f"({time.perf_counter() - start:.1f} s)", flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
