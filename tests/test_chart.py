"""Chart points and the condition checkers."""

import random
from functools import lru_cache
from itertools import combinations

import pytest

from ramwedge import chart
from ramwedge.chart import (FAIL, PASS, ChartPoint, Verdict, _columns_in_e,
                            charpoly_coefficients, chart_point_from_json,
                            chart_point_to_json, check_kl, check_kottwitz,
                            check_naive_relations, check_refined, check_spin,
                            check_trace, check_wedge, full_report, wedge_vector)
from ramwedge.drivers import sample_chart_points
from ramwedge.errors import SchemaError
from ramwedge.exterior import wedge_columns_masks
from ramwedge.fields import PrimeField, Rationals
from ramwedge.indexsets import IndexSet, index_masks
from ramwedge.rings import DualNumbers, FieldRing, PolyRing

from oracles import det, first_nonzero_evaluation

F = PrimeField(13)


def zero_matrix(ring, rows, cols):
    return [[ring.zero] * cols for _ in range(rows)]


def worst_point(n, ring):
    return ChartPoint.from_blocks(n, ring, zero_matrix(ring, n - 1, n - 1),
                                  [ring.zero] * (n - 1))


def diag_point(n, ring, diag):
    x1 = zero_matrix(ring, n - 1, n - 1)
    for i, d in enumerate(diag):
        x1[i][i] = d
    return ChartPoint.from_blocks(n, ring, x1, [ring.zero] * (n - 1))


def counterexample(n, ring):
    x = ring.x()
    diag = [ring.zero] * (n - 1)
    diag[0], diag[1], diag[n - 3], diag[n - 2] = x, ring.neg(x), ring.neg(x), x
    return diag_point(n, ring, diag)


def chart_position_columns(pt):
    """The columns of [X; I_n] at their chart positions: column j carries
    X[., j] on rows 1..n and a 1 on row n + j."""
    cols = []
    for j in range(pt.n):
        col = {i + 1: row[j] for i, row in enumerate(pt.rows) if not pt.ring.is_zero(row[j])}
        col[pt.n + j + 1] = pt.ring.one
        cols.append(col)
    return cols


def test_embed_worst_point():
    # at n = 3 the chart order is (3, 1, 2): the 1s of I_3 sit at e-positions
    # 6, 4, 5
    n = 3
    pt = worst_point(n, FieldRing(F))
    assert chart_position_columns(pt) == [{4: F.one}, {5: F.one}, {6: F.one}]
    assert _columns_in_e(pt) == [{6: F.one}, {4: F.one}, {5: F.one}]


def test_worst_point_wedge_is_top_coordinate():
    for n in (3, 5):
        v = wedge_vector(worst_point(n, FieldRing(F)))
        assert v.terms == {IndexSet.of(n, range(n + 1, 2 * n + 1)).mask: F.one}


@pytest.mark.parametrize("n", [3, 5])
def test_corner_entry_coefficient(n):
    # fully symbolic corner: its coefficient on the detecting coordinate is
    # (-1)^m times the corner entry
    m = n // 2
    ring = PolyRing(F, ("t",))
    pt = ChartPoint.from_blocks(n, ring, zero_matrix(ring, n - 1, n - 1),
                                [ring.zero] * (n - 1), x4=ring.var(0))
    v = wedge_vector(pt)
    detector = IndexSet.of(
        n, [m + 1] + [n + t for t in range(1, n + 1) if t != m + 1]).mask
    expected = ring.var(0) if m % 2 == 0 else ring.neg(ring.var(0))
    assert v.terms.get(detector) == expected


def test_naive_relations_verdicts():
    n = 5
    ring = FieldRing(F)
    assert check_naive_relations(worst_point(n, ring)).passed
    dual = DualNumbers(F)
    assert check_naive_relations(counterexample(n, dual)).passed
    identity = diag_point(n, ring, [ring.one] * (n - 1))
    bad = check_naive_relations(identity)
    assert bad.failed
    # nonzero nilpotent corner: out of the translated locus but consistent
    corner = ChartPoint.from_blocks(n, dual, zero_matrix(dual, n - 1, n - 1),
                                    [dual.zero] * (n - 1), x4=dual.x())
    assert check_naive_relations(corner).status == "out-of-chart"
    # corner with nonzero square: flatly wrong
    corner_bad = ChartPoint.from_blocks(n, ring, zero_matrix(ring, n - 1, n - 1),
                                        [ring.zero] * (n - 1), x4=ring.one)
    assert check_naive_relations(corner_bad).failed


def test_kottwitz_verdicts():
    n = 5
    ring = FieldRing(F)
    assert check_kottwitz(worst_point(n, ring)).passed
    for pt in sampled_points(n, 10, seed=3):
        check_kottwitz(pt)
    dual = DualNumbers(F)
    assert check_kottwitz(counterexample(n, dual)).passed
    one_entry = diag_point(n, ring, [ring.one] + [ring.zero] * (n - 2))
    assert check_kottwitz(one_entry).failed


def test_wedge_and_trace_verdicts():
    n = 5
    dual = DualNumbers(F)
    pt = counterexample(n, dual)
    assert check_wedge(pt).passed
    assert check_trace(pt).passed
    lone = diag_point(n, dual, [dual.x()] + [dual.zero] * (n - 2))
    assert check_wedge(lone).passed
    assert check_trace(lone).failed
    ring = FieldRing(F)
    assert check_wedge(worst_point(n, ring)).passed
    off_locus = ChartPoint.from_blocks(n, ring, zero_matrix(ring, n - 1, n - 1),
                                       [ring.zero] * (n - 1), x4=ring.one)
    assert check_wedge(off_locus).status == "out-of-chart"
    assert check_trace(off_locus).status == "out-of-chart"


def test_spin_verdicts():
    n = 5
    ring = FieldRing(F)
    dual = DualNumbers(F)
    for eps in (1, -1):
        assert check_spin(worst_point(n, ring), eps).passed
        assert check_spin(counterexample(n, dual), eps).passed
    corner = ChartPoint.from_blocks(n, ring, zero_matrix(ring, n - 1, n - 1),
                                    [ring.zero] * (n - 1), x4=ring.one)
    for eps in (1, -1):
        assert check_spin(corner, eps).failed


def test_refined_verdicts():
    n = 5
    ring = FieldRing(F)
    assert check_refined(worst_point(n, ring)).passed
    dual = DualNumbers(F)
    assert check_refined(counterexample(n, dual)).failed
    # bottom-row points: the open locus the checkers must accept
    for values in ([1, 2, 3, 4], [0, 5, 0, 7], [12, 12, 12, 12]):
        x3 = [F.of_int(v) for v in values]
        pt = ChartPoint.from_blocks(n, ring, zero_matrix(ring, n - 1, n - 1), x3)
        assert check_refined(pt).passed


def test_kl_verdicts():
    n = 3
    ring = FieldRing(F)
    pt = worst_point(n, ring)
    for l in range(1, n + 1):
        assert check_kl(pt, l).passed
    # charpoly failure must surface in the top-degree membership
    bad = diag_point(n, ring, [ring.one] + [ring.zero] * (n - 2))
    assert check_kottwitz(bad).failed
    assert check_kl(bad, n).failed
    with pytest.raises(ValueError):
        check_kl(pt, 0)


def test_lower_wedge_degrees_imply_wedge_condition():
    # passing both bounded wedge-degree memberships forces the rank-one
    # wedge equations on the translated locus
    import random
    from ramwedge.drivers import sample_chart_points
    n, r, s = 3, 2, 1
    rng_seed = 31
    hits = 0
    for ring in (FieldRing(F), DualNumbers(F)):
        for pt in sample_chart_points(n, ring, 30, rng_seed):
            if not pt.on_translated_locus():
                continue
            if check_kl(pt, s + 1).passed and check_kl(pt, r + 1).passed:
                hits += 1
                assert check_wedge(pt).passed
    assert hits > 0


def test_full_report_functoriality_smoke():
    # a field point embedded into the dual numbers keeps its verdicts
    n = 3
    ring = FieldRing(F)
    dual = DualNumbers(F)
    x3 = [F.of_int(2), F.of_int(5)]
    pt_field = ChartPoint.from_blocks(n, ring, zero_matrix(ring, 2, 2), x3)
    pt_dual = ChartPoint.from_blocks(
        n, dual, zero_matrix(dual, 2, 2), [dual.from_base(c) for c in x3])
    assert (full_report(pt_field).verdict_vector()
            == full_report(pt_dual).verdict_vector())


def test_chart_point_validation():
    ring = FieldRing(F)
    with pytest.raises(ValueError):
        ChartPoint.from_blocks(4, ring, zero_matrix(ring, 3, 3), [ring.zero] * 3)
    with pytest.raises(ValueError):
        ChartPoint.from_blocks(3, ring, zero_matrix(ring, 2, 2), [ring.zero] * 2,
                               signature=(1, 1))


def test_chart_point_json_round_trip():
    n = 3
    dual = DualNumbers(F)
    pt = counterexample(5, dual)
    obj = chart_point_to_json(pt)
    back = chart_point_from_json(obj)
    assert back.rows == pt.rows
    assert back.signature == pt.signature
    ring = PolyRing(F, ("a",))
    pt2 = ChartPoint.from_blocks(n, ring, [[ring.var(0), ring.zero],
                                           [ring.zero, ring.neg(ring.var(0))]],
                                 [ring.zero, ring.zero])
    assert chart_point_from_json(chart_point_to_json(pt2)).rows == pt2.rows


def test_chart_point_schema_errors():
    with pytest.raises(SchemaError, match="'n'"):
        chart_point_from_json({"ring": {"kind": "field"}, "X": []})
    # above MAX_RANK a product of n capped entries could reach a guard bit
    with pytest.raises(SchemaError, match="'n': rank 23 above"):
        chart_point_from_json({"n": 23, "ring": {"kind": "field"}, "X": []})
    with pytest.raises(SchemaError, match="'X'"):
        chart_point_from_json({"n": 3, "ring": {"kind": "field"}, "X": [[0]]})
    with pytest.raises(SchemaError, match=r"X\[0\]\[1\]"):
        chart_point_from_json({"n": 3, "ring": {"kind": "dual"},
                               "X": [[[0, 0], 1, [0, 0]],
                                     [[0, 0], [0, 0], [0, 0]],
                                     [[0, 0], [0, 0], [0, 0]]]})
    for p, why in ((9, "is not prime"), (2**64 + 13, "is not below 2\\^64")):
        with pytest.raises(SchemaError, match=f"field 'p': modulus {p} {why}"):
            chart_point_from_json({"n": 3, "p": p, "ring": {"kind": "field"},
                                   "X": [[0, 0, 0], [0, 0, 0], [0, 0, 0]]})


# ---------------------------------------------------------------------------
# The characteristic polynomial against principal minors, and one fold per
# report


def principal_minor_coefficients(ring, m):
    """The reference for charpoly_coefficients: c_k is (-1)^k times the sum
    of the k x k principal minors, each by cofactor expansion."""
    n = len(m)
    out = [ring.one]
    for k in range(1, n + 1):
        total = ring.zero
        for combo in combinations(range(n), k):
            total = ring.add(total, det(ring, m, combo, combo))
        out.append(ring.neg(total) if k % 2 else total)
    return out


def integer_nilpotent(n, rng):
    """Dense integer L N L^-1 with N strictly upper triangular and L lower
    unitriangular, so it is nilpotent over Z and over every ring."""
    lower = [[int(i == j) or (rng.randrange(-2, 3) if i > j else 0)
              for j in range(n)] for i in range(n)]
    inverse = [[int(i == j) for j in range(n)] for i in range(n)]
    for i in range(n):  # forward substitution, column by column
        for j in range(i):
            inverse[i][j] = -sum(lower[i][k] * inverse[k][j] for k in range(j, i))
    upper = [[rng.randrange(-2, 3) if j > i else 0 for j in range(n)]
             for i in range(n)]

    def mul(a, b):
        return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
                for i in range(n)]

    return mul(mul(lower, upper), inverse)


def nilpotent_point(n, ring, rng):
    """M, (1 + x) M and (a + 2b) M for an integer nilpotent M: dense, with
    every charpoly coefficient below the top cancelling to zero."""
    f = ring.field
    if ring.kind == "field":
        scale = ring.one
    elif ring.kind == "dual":
        scale = ring.add(ring.one, ring.x())
    else:
        scale = ring.add(ring.var(0), ring.mul(ring.const(f.of_int(2)), ring.var(1)))
    m = integer_nilpotent(n, rng)
    rows = tuple(tuple(ring.mul(scale, ring.from_base(f.of_int(c))) for c in row)
                 for row in m)
    return ChartPoint(n, ring, rows, (n - 1, 1))


def rings_over(field):
    return [FieldRing(field), DualNumbers(field), PolyRing(field, ("a", "b"))]


def counterexample_shape(n, ring):
    """X1 = diag(x, -x, 0, ..., 0, -x, x), with x = 1, the dual generator or
    a, and X2, X3, X4 zero: the counterexample's shape over any ring."""
    x = (ring.one if ring.kind == "field" else ring.x() if ring.kind == "dual"
         else ring.var(0))
    diag = [ring.zero] * (n - 1)
    diag[0], diag[1], diag[n - 3], diag[n - 2] = x, ring.neg(x), ring.neg(x), x
    x1 = [[diag[i] if i == j else ring.zero for j in range(n - 1)] for i in range(n - 1)]
    return ChartPoint.from_blocks(n, ring, x1, [ring.zero] * (n - 1))


def dense_points(n, ring) -> dict:
    """One dense sampled point (X2 and X4 nonzero too), one dense nilpotent
    point and the counterexample's shape over the ring, by kind."""
    return {"dense": sample_chart_points(n, ring, 2, seed=n)[1],
            "nilpotent": nilpotent_point(n, ring, random.Random(n)),
            "counterexample": counterexample_shape(n, ring)}


def sampled_points(n, count, seed, field=F):
    pts = []
    for ring in rings_over(field):
        pts += sample_chart_points(n, ring, count, seed)
        pts.append(nilpotent_point(n, ring, random.Random(seed)))
    return pts


@pytest.mark.parametrize("field", [F, Rationals()], ids=["F13", "Q"])
@pytest.mark.parametrize("n", [3, 5])
def test_chart_fold_coordinates_are_minors_of_x(n, field):
    # Pluecker: the coordinate at S = A u (n + B) of the fold of [X; I_n] is
    # det X[A, C], C the complement of B, times one sign per S across all
    # points: the sign of moving the columns of B behind those of C
    nonzero = set()
    for ring in rings_over(field):
        pts = sample_chart_points(n, ring, 10, seed=n)
        pts.append(nilpotent_point(n, ring, random.Random(n)))
        for pt in pts:
            fold = wedge_columns_masks(chart_position_columns(pt), ring)
            for s in index_masks(n):
                rows = [i for i in range(n) if s >> i & 1]
                cols = [j for j in range(n) if not s >> n + j & 1]
                moves = sum(c > b for c in cols for b in range(n) if s >> n + b & 1)
                minor = det(ring, pt.rows, rows, cols)
                want = ring.neg(minor) if moves % 2 else minor
                assert fold.get(s, ring.zero) == want, IndexSet(n, s).members
                if not ring.is_zero(minor):
                    nonzero.add(s)
    assert nonzero == set(index_masks(n))


@pytest.mark.parametrize("field", [PrimeField(3), PrimeField(5), PrimeField(13),
                                   Rationals()], ids=["F3", "F5", "F13", "Q"])
def test_berkowitz_matches_principal_minor_sums(field):
    # (sampled, nilpotent) points per rank; the reference costs n! per
    # dense point, so n = 7 gets two dense sampled points and one nilpotent
    counts = {3: (8, 3), 5: (8, 3), 7: (3, 1)}
    compared = 0
    for ring in rings_over(field):
        for n, (sampled, nilpotent) in counts.items():
            rng = random.Random(f"berkowitz:{n}:{ring.kind}")
            pts = sample_chart_points(n, ring, sampled, seed=n)
            nil = [nilpotent_point(n, ring, rng) for _ in range(nilpotent)]
            for pt in pts + nil:
                got = charpoly_coefficients(ring, pt.rows)
                assert len(got) == n + 1
                assert got == principal_minor_coefficients(ring, pt.rows)
                compared += n
            for pt in nil:
                assert all(ring.is_zero(c)
                           for c in charpoly_coefficients(ring, pt.rows)[1:])
                assert check_kottwitz(pt).passed
    assert compared == 3 * (11 * 3 + 11 * 5 + 4 * 7)


def test_kottwitz_names_first_nonzero_coefficient_without_minors():
    ring = FieldRing(F)
    n = 5
    # trace zero, second coefficient -1: the first nonzero is at T^(n-2)
    x1 = zero_matrix(ring, n - 1, n - 1)
    x1[0][1], x1[1][0] = ring.one, ring.one
    pt = ChartPoint.from_blocks(n, ring, x1, [ring.zero] * (n - 1))
    assert check_kottwitz(pt).witness == f"charpoly coefficient at T^{n - 2} is nonzero"
    one_entry = diag_point(n, ring, [ring.one] + [ring.zero] * (n - 2))
    assert check_kottwitz(one_entry).witness == f"charpoly coefficient at T^{n - 1} is nonzero"
    assert check_kottwitz(worst_point(n, ring)).passed
    for pt in sampled_points(n, 10, seed=3):
        check_kottwitz(pt)


def det_x(pt):
    """det X = (-1)^n c_n, from the charpoly coefficients (n is odd)."""
    return pt.ring.neg(charpoly_coefficients(pt.ring, pt.rows)[pt.n])


def counting_folds(monkeypatch):
    """Patch the fold that chart calls; returns the list of folded column
    counts."""
    folds = []
    fold = chart.wedge_columns

    def counting_fold(n, columns, ring):
        folds.append(len(columns))
        return fold(n, columns, ring)

    monkeypatch.setattr(chart, "wedge_columns", counting_fold)
    return folds


def fresh_lattices(monkeypatch):
    """Give chart empty lattice caches for the rest of the test; returns the
    three caches, which the global ones never see."""
    caches = []
    for name in ("spin_annihilators", "refined_annihilators", "kl_annihilators"):
        cache = lru_cache(maxsize=None)(getattr(chart, name).__wrapped__)
        monkeypatch.setattr(chart, name, cache)
        caches.append(cache)
    return caches


@pytest.mark.parametrize("field", [PrimeField(3), F, Rationals()], ids=["F3", "F13", "Q"])
@pytest.mark.parametrize("n", [3, 5, 7])
def test_top_wedge_coordinate_at_e_1_to_n_is_det_x(n, field):
    # the chart frame puts the rows of X at e-positions 1..n in an even
    # order, so the fold's minor there is det X itself
    top = (1 << n) - 1
    nonzero = 0
    for ring in rings_over(field):
        pts = sample_chart_points(n, ring, 5 if n < 7 else 3, seed=n)
        pts.append(nilpotent_point(n, ring, random.Random(n)))
        for pt in pts:
            got = wedge_vector(pt).terms.get(top, ring.zero)
            assert got == det_x(pt)
            if n < 7:
                assert got == det(ring, pt.rows, list(range(n)), list(range(n)))
            nonzero += not ring.is_zero(got)
    assert nonzero > 0


def test_full_report_folds_the_top_wedge_at_most_once(monkeypatch):
    pts = sampled_points(3, 5, seed=7) + sampled_points(5, 5, seed=7)
    for pt in pts:
        full_report(pt)  # lattice construction folds too: warm its caches
    folds = counting_folds(monkeypatch)
    decided = 0
    for pt in pts:
        folds.clear()
        full_report(pt)
        if pt.ring.is_zero(det_x(pt)):
            assert folds == [pt.n]
        else:  # det X decides spin(+1), spin(-1), refined and kn
            assert folds == []
            decided += 1
    assert 0 < decided < len(pts)


@pytest.mark.parametrize("n", [3, 5, 7])
def test_a_report_decided_by_det_x_builds_only_the_block_of_e_1_to_n(monkeypatch, n):
    top, members = (1 << n) - 1, tuple(range(1, n + 1))
    caches = fresh_lattices(monkeypatch)
    folds = counting_folds(monkeypatch)
    for ring in rings_over(F):
        pt = sample_chart_points(n, ring, 3, seed=5)[1]  # dense X
        assert not ring.is_zero(det_x(pt))
        report = full_report(pt).conditions
        assert report["kn"] == Verdict(FAIL, f"columns {members}: coordinate{members}")
        for name in ("spin(+1)", "spin(-1)", "refined"):
            assert report[name] == Verdict(FAIL, f"coordinate{members}")
    assert folds == []
    assert [cache.cache_info().currsize for cache in caches] == [2, 1, 1]
    p = chart.DEFAULT_PRECISION  # the cache keys of full_report's calls
    for lattice in (chart.spin_annihilators(n, F.key(), 1, p),
                    chart.spin_annihilators(n, F.key(), -1, p),
                    chart.refined_annihilators(n, F.key(), n - 1, 1, p),
                    chart.kl_annihilators(n, F.key(), n, n - 1, 1, p)):
        assert set(lattice._block_of) == set(lattice._block_weights(top))


def folded_memberships(pt) -> dict:
    """full_report's four membership verdicts from one fold of the whole top
    wedge, each decided on its lattice as the checkers decide, never reading
    det X."""
    n, ring, (r, s), key = pt.n, pt.ring, pt.signature, pt.ring.field.key()
    p, w = chart.DEFAULT_PRECISION, wedge_vector(pt)  # p as the checkers key the caches
    verdict = chart._membership_verdict
    return {
        "spin(+1)": verdict(chart.spin_annihilators(n, key, 1, p), w, ring),
        "spin(-1)": verdict(chart.spin_annihilators(n, key, -1, p), w, ring),
        "refined": verdict(chart.refined_annihilators(n, key, r, s, p), w, ring),
        "kn": verdict(chart.kl_annihilators(n, key, n, r, s, p), w, ring,
                      f"columns {tuple(range(1, n + 1))}: "),
    }


@lru_cache(maxsize=None)
def merged_lattices(n, field_key, r, s, precision) -> dict:
    """full_report's four lattices with their witness prefixes, built apart
    from chart's caches and with every block reduced."""
    build = {name: getattr(chart, name).__wrapped__
             for name in ("spin_annihilators", "refined_annihilators", "kl_annihilators")}
    lattices = {
        "spin(+1)": (build["spin_annihilators"](n, field_key, 1, precision), ""),
        "spin(-1)": (build["spin_annihilators"](n, field_key, -1, precision), ""),
        "refined": (build["refined_annihilators"](n, field_key, r, s, precision), ""),
        "kn": (build["kl_annihilators"](n, field_key, n, r, s, precision),
               f"columns {tuple(range(1, n + 1))}: "),
    }
    for lattice, _ in lattices.values():
        lattice.annihilators
    return lattices


def every_block_memberships(pt, precision=chart.DEFAULT_PRECISION) -> dict:
    """full_report's four membership verdicts as first_nonzero_evaluation
    gives them against each lattice's merged annihilators, every block
    reduced: the oracle of BlockLattice.membership, which reduces the blocks
    of a wedge only up to its witness."""
    w, ring = wedge_vector(pt), pt.ring
    out = {}
    for name, (lattice, prefix) in merged_lattices(
            pt.n, ring.field.key(), *pt.signature, precision).items():
        ok, witness, _ = first_nonzero_evaluation(lattice.annihilators, w.terms, ring)
        out[name] = Verdict(PASS) if ok else Verdict(FAIL, prefix + witness)
    return out


@pytest.mark.parametrize("precision", [5, 6, 7, 8])
@pytest.mark.parametrize("n", [3, 5, 7])
def test_low_precision_reports_are_the_every_block_oracle(monkeypatch, n, precision):
    # a report decided at an early witness reduces no block after it, so it
    # cannot run out of precision in one; at precisions 5 to 8 neither the
    # reports nor the oracle, every block reduced, run out (at 3 the merged
    # lattices do, at every n)
    fresh_lattices(monkeypatch)
    for field in (F, Rationals()):
        for ring in rings_over(field):
            for pt in dense_points(n, ring).values():
                report = full_report(pt, precision).conditions
                assert every_block_memberships(pt, precision).items() <= report.items()


@pytest.mark.parametrize("n", [3, 5, 7])
def test_full_report_matches_standalone_checkers(n):
    # one fold per point decides the four memberships; at n = 3 and 5 the
    # checkers themselves, each folding on its own, give them too
    checked = 0
    det_zero = det_nonzero = 0
    for field in (PrimeField(3), F, Rationals()):
        for pt in sampled_points(n, 10 if n < 7 else 3, seed=11, field=field):
            standalone = {
                "naive": check_naive_relations(pt),
                "kottwitz": check_kottwitz(pt),
                "wedge": check_wedge(pt),
                "trace": check_trace(pt),
                **folded_memberships(pt),
            }
            report = full_report(pt).conditions
            assert report == standalone
            if n < 7:
                checkers = {"spin(+1)": check_spin(pt, 1), "spin(-1)": check_spin(pt, -1),
                            "refined": check_refined(pt), "kn": check_kl(pt, n)}
                assert checkers.items() <= standalone.items()
            checked += sum(v.failed for v in report.values())
            if pt.ring.is_zero(det_x(pt)):
                det_zero += 1
            else:
                det_nonzero += 1
    assert checked > 0
    assert det_zero > 0 and det_nonzero > 0
