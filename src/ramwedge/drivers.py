"""End-to-end mechanized verifications of the library's structural results.
Each driver runs its sub-checks to completion and emits a machine-readable
certificate; nothing here is random except the implication sampler, which
takes an explicit seed.
"""

from __future__ import annotations

import random
from math import comb

from .chart import (DEFAULT_P, DEFAULT_PRECISION, ChartPoint, _columns_in_e,
                    block_reflection, full_report, mat_add, mat_mul,
                    mat_transpose, refined_annihilators, spin_annihilators,
                    wedge_vector)
from .errors import RankError, SignatureError
from .exterior import (WedgeVector, apply_operator, basis_wedge, frame_in_e,
                       operator_pi_action, wedge_columns, wedge_scale,
                       worst_terms)
from .fields import PrimeField
from .indexsets import (DRIVER_RANKS, MAX_RANK, IndexSet, bounded_type_masks,
                        bundle_ranks, i_vee, index_masks, shuffle_sign,
                        sigma_sign_bruteforce, type_masks, type_n11_sets)
from .lattices import (paired_generator, pi_adic_column_echelon, residue_rank,
                       signature_eps)
from .records import frozen
from .rings import DualNumbers, FieldRing
from .scalars import LaurentOps, PiLaurent


@frozen
class Certificate:
    result: str
    params: dict
    verdict: str  # "pass" | "fail" | "inconclusive"
    evidence: dict

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_json(self):
        return {"result": self.result, "params": self.params,
                "verdict": self.verdict, "evidence": self.evidence}


def _require_rank(result_id: str, n: int):
    low, high, odd, _ = DRIVER_RANKS[result_id]
    high = MAX_RANK if high is None else high
    if not low <= n <= high or (odd and n % 2 == 0):
        raise RankError(f"{result_id} needs {'odd ' if odd else ''}n with "
                        f"{low} <= n <= {high}, got {n}")


def _require_signature(result_id: str, n: int, signature):
    r, s = signature
    if r + s != n or r < 0 or s < 0:
        raise SignatureError(f"{result_id} runs at n = {n} and needs r + s = {n} "
                             f"with r, s >= 0, got {r},{s}")


# ---------------------------------------------------------------------------
# Shuffle-sign closed form


def verify_sign_lemma(n_max: int) -> Certificate:
    """Exhaustive agreement of the closed form (-1)^(sum(S) + ceil(n/2))
    with brute-force permutation parity, for all cardinality-n subsets of
    {1..2n} and all n up to n_max."""
    _require_rank("sign-lemma", n_max)
    counts = {}
    mismatches = []
    for n in range(2, n_max + 1):
        total = 0
        for m in index_masks(n):
            total += 1
            if shuffle_sign(n, m) != sigma_sign_bruteforce(n, m):
                mismatches.append({"n": n, "set": IndexSet(n, m).to_json()})
        counts[str(n)] = total
    verdict = "pass" if not mismatches else "fail"
    return Certificate("sign-lemma", {"n_max": n_max}, verdict,
                       {"sets_checked": counts, "mismatches": mismatches})


# ---------------------------------------------------------------------------
# Worst-term closed forms


def _pset(n: int, i: int, j: int) -> int:
    """The mask of {i} together with {n+1..2n} minus {n+j}."""
    return 1 << i - 1 | (_full_set(n) ^ 1 << n + j - 1)


def _full_set(n: int) -> int:
    """The mask of {n+1..2n}."""
    return ((1 << n) - 1) << n


def _sign_elem(field, k: int):
    return field.one if k % 2 == 0 else field.neg(field.one)


def expected_single_worst_term(field, n: int, i: int, j: int):
    """Coded closed form for the worst term of the g-frame wedge at the
    type-(n-1, 1) set with row j removed and column n+i added: the six-case
    table.  Returns (valuation, expected e-basis terms)."""
    m = n // 2
    if j == i:
        sign = _sign_elem(field, i + m) if i < m + 1 else _sign_elem(field, i + m + 1)
        coeff = field.mul(sign, field.inv(field.of_int(2)))
        val = -(m + 1)
        return val, {_full_set(n): PiLaurent.make(field, {val: coeff})}
    if i < m + 1 and j < m + 1:
        val, k = -m, m + 1
    elif i < m + 1 <= j:
        val, k = -(m - 1), m
    elif j < m + 1 <= i:
        val, k = -(m + 1), m + 1
    else:
        val, k = -m, m
    return val, {_pset(n, i, j): PiLaurent.make(field, {val: _sign_elem(field, k)})}


def classify_pair_case(n: int, i: int, j: int) -> int:
    """The unique case 1..9 of the worst-term table for the difference
    element attached to the pair (i, j) with i + j <= n + 1."""
    if i + j > n + 1:
        raise ValueError("pair not in canonical order")
    m = n // 2
    if j == i_vee(n, i):  # self-perp
        if i == m + 1:
            return 1
        return 2 if i < m + 1 else 3
    if j == i:
        return 4
    jv = i_vee(n, j)
    if jv < m + 1:
        return 5
    if i < m + 1:
        return 6 if jv == m + 1 else 7
    return 8 if i == m + 1 else 9


def expected_pair_worst_term(field, n: int, i: int, j: int):
    """Coded closed form for the worst term of g_S - sgn(sigma_S)*g_{S-perp}
    at the type-(n-1, 1) pair (i, j): the nine-case table, at the valuation
    that scaled_generator_exponent cancels."""
    m = n // 2
    iv, jv = i_vee(n, i), i_vee(n, j)
    case = classify_pair_case(n, i, j)
    val = -scaled_generator_exponent(n, i, j)
    two = field.of_int(2)

    def mono(k):
        return PiLaurent.make(field, {val: _sign_elem(field, k)})

    if case == 1:
        return val, {_full_set(n): PiLaurent.monomial(field, val)}
    if case in (2, 3):
        return val, {_pset(n, i, iv): PiLaurent.make(
            field, {val: field.mul(two, _sign_elem(field, m if case == 2 else m + 1))})}
    if case == 4:
        return val, {_pset(n, i, i): mono(m + 1), _pset(n, iv, iv): mono(m)}
    if case == 5:
        return val, {_pset(n, i, j): mono(m), _pset(n, jv, iv): mono(m + i + j)}
    if case == 6:
        return val, {_pset(n, m + 1, iv): mono(i + 1)}
    if case == 7:
        return val, {_pset(n, i, j): mono(m + 1), _pset(n, jv, iv): mono(m + i + j)}
    if case == 8:
        return val, {_pset(n, m + 1, j): mono(m + 1)}
    return val, {_pset(n, i, j): mono(m + 1), _pset(n, jv, iv): mono(m + 1 + i + j)}


def canonical_pairs(n: int):
    """(i, j) pairs indexing the type-(n-1, 1) difference elements, one per
    perp-orbit: the added column of S precedes the added column of S-perp."""
    for j in range(1, n + 1):
        for i in range(1, n + 2 - j):
            yield i, j


def pair_element(field, n: int, i: int, j: int) -> WedgeVector:
    """g_S - sgn(sigma_S)*g_{S-perp} in e-basis for the pair (i, j)."""
    s = (((1 << n) - 1) ^ 1 << j - 1) | 1 << n + i - 1  # type_n11_sets' (i, j)
    return paired_generator(frame_in_e("g_split", n, field), s, -1)


def verify_worst_term_tables(n: int, p: int = DEFAULT_P) -> Certificate:
    """Engine worst terms against the coded six-case and nine-case closed
    forms for every type-(n-1, 1) set and every canonical pair, plus the
    check that exactly one case predicate fires per pair."""
    _require_rank("worst-terms", n)
    field = PrimeField(p)
    gfr = frame_in_e("g_split", n, field)
    mismatches = []
    singles = 0
    for i, j, s in type_n11_sets(n):
        singles += 1
        w = basis_wedge(gfr, s)
        wt, val = worst_terms(w)
        want_val, want_terms = expected_single_worst_term(field, n, i, j)
        if val != want_val or wt.terms != want_terms:
            mismatches.append({"kind": "single", "i": i, "j": j})
    histogram = {}
    pairs = 0
    for i, j in canonical_pairs(n):
        pairs += 1
        case = classify_pair_case(n, i, j)
        histogram[str(case)] = histogram.get(str(case), 0) + 1
        w = pair_element(field, n, i, j)
        wt, val = worst_terms(w)
        want_val, want_terms = expected_pair_worst_term(field, n, i, j)
        if val != want_val or wt.terms != want_terms:
            mismatches.append({"kind": "pair", "i": i, "j": j, "case": case})
    verdict = "pass" if not mismatches else "fail"
    return Certificate("worst-terms", {"n": n, "p": p}, verdict,
                       {"type_sets": singles, "pairs": pairs,
                        "case_histogram": histogram, "mismatches": mismatches})


# ---------------------------------------------------------------------------
# The signature-(n-1, 1) lattice basis and its residue span


def scaled_generator_exponent(n: int, i: int, j: int) -> int:
    """The pi-power that saturates the pair element into the standard
    lattice: the seven valuation conditions, keyed by worst-term case."""
    m = n // 2
    case = classify_pair_case(n, i, j)
    return {1: m + 1, 2: m - 1, 3: m + 1, 4: m,
            5: m - 1, 6: m, 7: m, 8: m + 1, 9: m + 1}[case]


def scaled_pair_generators(field, n: int) -> list:
    ring = LaurentOps(field)
    out = []
    for i, j in canonical_pairs(n):
        w = pair_element(field, n, i, j)
        c = scaled_generator_exponent(n, i, j)
        out.append(wedge_scale(w, PiLaurent.monomial(field, c), ring))
    return out


def corollary_residue_vectors(field, n: int) -> list:
    """The six families of e-basis residue vectors spanning the mod-pi image
    of the signature-(n-1, 1) lattice."""
    m = n // 2
    one = field.one
    neg = field.neg
    out = [{_full_set(n): one}]
    for i in range(1, n + 1):
        if i != m + 1:
            out.append({_pset(n, i, i_vee(n, i)): one})
    for i in range(1, m + 1):
        out.append({_pset(n, i, i): one, _pset(n, i_vee(n, i), i_vee(n, i)): neg(one)})
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            jv = i_vee(n, j)
            if (i < jv < m + 1) or (m + 1 < i < jv <= n):
                out.append({_pset(n, i, j): one,
                            _pset(n, jv, i_vee(n, i)): _sign_elem(field, i + j)})
    for i in range(1, n + 1):
        if i != m + 1:
            out.append({_pset(n, m + 1, i): one})
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            jv = i_vee(n, j)
            if i < m + 1 < jv <= n and j != i:
                out.append({_pset(n, i, j): one,
                            _pset(n, jv, i_vee(n, i)): _sign_elem(field, i + j + 1)})
    return out


def verify_refined_basis(n: int, p: int = DEFAULT_P,
                         precision: int = DEFAULT_PRECISION) -> Certificate:
    """Two-sided lattice equality between the refined lattice (the
    saturated columns of its echelon) and the scaled pair generators, and
    residue-span equality with the six coded families.

    Each echelon column attains its minimum valuation at its pivot, so the
    pivot valuations sum to the least valuation of a full minor, an
    invariant of the lattice.  N contains M iff M + N, which contains N,
    has N's rank and sum; a saturated basis has sum 0."""
    _require_rank("refined-basis", n)
    field = PrimeField(p)
    refined = refined_annihilators(n, field.key(), n - 1, 1, precision)
    computed = refined.whole()[0]
    scaled = scaled_pair_generators(field, n)

    def rank_and_covolume(generators):
        basis = pi_adic_column_echelon(generators, precision)
        return len(basis), sum(val for _, val in basis.pivots)

    union = rank_and_covolume(scaled + list(computed.saturated()))
    fwd = union == rank_and_covolume(scaled)
    bwd = union == (len(computed), 0)
    cor = corollary_residue_vectors(field, n)
    rank = residue_rank(field, cor)
    spans = rank == refined.span_rank and all(
        refined.membership(v, FieldRing(field)).ok for v in cor)
    dims = refined.span_rank == len(cor) == rank
    verdict = "pass" if (fwd and bwd and spans and dims) else "fail"
    return Certificate("refined-basis", {"n": n, "p": p, "precision": precision},
                       verdict,
                       {"generators": refined.generators, "lattice_rank": len(computed),
                        "computed_in_scaled": fwd, "scaled_in_computed": bwd,
                        "residue_dimension": refined.span_rank,
                        "listed_elements": len(cor), "residue_spans_equal": spans})


# ---------------------------------------------------------------------------
# Half-spin residue structure


def verify_spin_structure(n: int, p: int = DEFAULT_P,
                          precision: int = DEFAULT_PRECISION) -> Certificate:
    """For both signs: the coordinate detecting the chart corner entry
    vanishes identically on the half-spin residue basis, and the listed
    monomial elements are members of the residue span."""
    _require_rank("spin-structure", n)
    field = PrimeField(p)
    m = n // 2
    detector = _pset(n, m + 1, m + 1)
    listed = [_full_set(n)] + [_pset(n, i, i) for i in range(1, n + 1) if i != m + 1]
    ring = FieldRing(field)
    evidence = {}
    ok = True
    for eps in (1, -1):
        lattice = spin_annihilators(n, field.key(), eps, precision)
        basis, rb, _ = lattice.whole()
        hits = sum(1 for vec in rb.vectors if detector in vec)
        members = {}
        for t in listed:
            res = lattice.membership({t: field.one}, ring)
            members[str(IndexSet(n, t).members)] = res.ok
            ok = ok and res.ok
        ok = ok and hits == 0
        evidence[f"eps={eps:+d}"] = {
            "rank": len(basis),
            "detector_coordinate_hits": hits,
            "listed_memberships": members,
        }
    return Certificate("spin-structure", {"n": n, "p": p, "precision": precision},
                       "pass" if ok else "fail", evidence)


# ---------------------------------------------------------------------------
# The dual-number point separating the spin and refined loci


def counterexample_point(n: int, p: int = DEFAULT_P) -> ChartPoint:
    """X1 = diag(x, -x, 0, ..., 0, -x, x) over the dual numbers, X2 = X3 =
    X4 = 0, signature (n-1, 1).  Needs odd n >= 5 so the four nonzero
    entries fit."""
    _require_rank("counterexample", n)
    ring = DualNumbers(PrimeField(p))
    x = ring.x()
    diag = [ring.zero] * (n - 1)
    diag[0], diag[1] = x, ring.neg(x)
    diag[n - 3], diag[n - 2] = ring.neg(x), x
    x1 = [[ring.zero] * (n - 1) for _ in range(n - 1)]
    for i in range(n - 1):
        x1[i][i] = diag[i]
    return ChartPoint.from_blocks(n, ring, x1, [ring.zero] * (n - 1))


REQUIRED_COUNTEREXAMPLE_VECTOR = {
    "naive": "pass", "wedge": "pass", "trace": "pass", "kottwitz": "pass",
    "spin(+1)": "pass", "spin(-1)": "pass", "refined": "fail",
}


def run_counterexample(n: int, p: int = DEFAULT_P,
                       precision: int = DEFAULT_PRECISION) -> Certificate:
    """The diagonal dual-number point passes every condition through spin
    but fails the refined condition; exactly this verdict vector."""
    pt = counterexample_point(n, p)
    report = full_report(pt, precision)
    got = report.verdict_vector()
    deviations = {name: got.get(name) for name, want in
                  REQUIRED_COUNTEREXAMPLE_VECTOR.items() if got.get(name) != want}
    verdict = "pass" if not deviations else "fail"
    return Certificate("counterexample", {"n": n, "p": p, "precision": precision},
                       verdict,
                       {"verdicts": got, "deviations": deviations,
                        "refined_witness": report.conditions["refined"].witness})


# ---------------------------------------------------------------------------
# Symbolic certificate: membership plus antisymmetry force the block to zero


def verify_x1_zero(n: int, p: int = DEFAULT_P,
                   precision: int = DEFAULT_PRECISION) -> Certificate:
    """With the (n-1) x (n-1) block X1 symbolic and the other blocks zero,
    the homogeneous-linear equations extracted from the refined membership
    conditions, together with the entries of X1 + J X1^t J, must span the
    full coordinate space of the variables.  That certifies over every
    coefficient k-algebra at once: membership plus the antisymmetry relation
    force X1 = 0.  If the linear equations fall short while nonlinear ones
    exist, the certificate is inconclusive rather than failed.

    The equations are the nonzero wedge coordinates off the refined support
    and the nonzero functional values.  The coordinate at S is, up to sign,
    a minor of X1 of degree |S ∩ {1..n}|: nonzero iff S avoids e_(m+1)
    (X's last row, m = n // 2) and holds e_(n+m+1) (the 1 of X's last
    column), so C(2d, d) masks are nonzero minors (d = n - 1), d^2 of them
    of degree one.  Distinct minors of a generic matrix are linearly
    independent over any field (Doubilet-Rota-Stein, On the foundations of
    combinatorial theory IX, 1974: each is a one-row standard bitableau).
    So a functional is nonlinear iff it has a nonzero coefficient on a
    nonzero minor of degree other than one, and otherwise zero or
    homogeneous linear.  The linear parts are read one variable v at a
    time: at X1 = x E_v over the dual numbers, the x-coefficients of the
    wedge and of X1 + J X1^t J are column v of theirs."""
    _require_rank("x1-zero", n)
    field = PrimeField(p)
    ring = DualNumbers(field)
    d = n - 1
    ann = refined_annihilators(n, field.key(), n - 1, 1, precision).annihilators
    j_mat = block_reflection(ring, d)
    linear = {}  # degree-one mask: (variable, its coefficient there)
    symmetry = {}  # entry of X1 + J X1^t J: its row {variable: coefficient}
    for v in range(d * d):
        x1 = [[ring.zero] * d for _ in range(d)]
        x1[v // d][v % d] = ring.x()
        pt = ChartPoint.from_blocks(n, ring, x1, [ring.zero] * d)
        linear.update((t, (v, b)) for t, (_, b) in wedge_vector(pt).terms.items()
                      if not field.is_zero(b))
        sym = mat_add(ring, x1, mat_mul(ring, j_mat, mat_mul(ring, mat_transpose(x1), j_mat)))
        for entry, (a, b) in enumerate(c for row in sym for c in row):
            if not field.is_zero(a):
                raise AssertionError("symmetry relation produced a nonlinear entry")
            if not field.is_zero(b):
                symmetry.setdefault(entry, {})[v] = b
    # X's last column is the 1 at e_(n+m+1), and its last row sits at e_(m+1)
    (unit,) = _columns_in_e(pt)[-1]
    hold = 1 << unit - 1
    minor_bits = hold | 1 << unit - n - 1

    def nonlinear_at(t):
        """Whether the coordinate at t is a nonzero minor of degree other than one."""
        return t & minor_bits == hold and t not in linear

    linear_rows = [{v: b} for t, (v, b) in linear.items() if t not in ann.support_set]
    nonlinear = comb(2 * d, d) - len(linear) - sum(map(nonlinear_at, ann.support))
    for phi in ann.functionals:
        if any(map(nonlinear_at, phi)):
            nonlinear += 1
        elif row := {linear[t][0]: field.mul(a, linear[t][1])
                     for t, a in phi.items() if t in linear}:
            linear_rows.append(row)
    symmetry_rows = list(symmetry.values())
    nvars = d * d
    rank_all = residue_rank(field, linear_rows + symmetry_rows)
    verdict = "pass" if rank_all == nvars else "inconclusive" if nonlinear else "fail"
    return Certificate("x1-zero", {"n": n, "p": p, "precision": precision}, verdict,
                       {"variables": nvars, "combined_rank": rank_all,
                        "linear_equations": len(linear_rows),
                        "nonlinear_equations": nonlinear,
                        "rank_membership_alone": residue_rank(field, linear_rows),
                        "rank_symmetry_alone": residue_rank(field, symmetry_rows)})


# ---------------------------------------------------------------------------
# Wedge-power operator identities


def verify_operator_identities(n: int, r: int, s: int,
                               p: int = DEFAULT_P) -> Certificate:
    """Eigenvalue identity on the signature summand (sampled at T = 0, 1,
    pi): the degree-n action of pi x 1 - T scales a type-(r, s) g-wedge by
    (-pi - T)^r (pi - T)^s; and annihilation of pi x 1 + pi and pi x 1 - pi
    on the bounded summands of degrees s + 1 and r + 1.

    A g-wedge g_{t1} ^ ... ^ g_{tk} goes to A g_{t1} ^ ... ^ A g_{tk} under
    the k-th wedge power of an operator A, so its image is the fold of the
    images of its frame vectors, computed once per operator.  Only the
    scaled right-hand side reads basis_wedge."""
    _require_rank("operator-identities", n)
    _require_signature("operator-identities", n, (r, s))
    field = PrimeField(p)
    ring = LaurentOps(field)
    gfr = frame_in_e("g_split", n, field)
    pi = PiLaurent.monomial(field, 1)

    def frame_images(shift):
        op = operator_pi_action(field, n, shift)
        return [apply_operator(op, v, field) for v in gfr.vectors]

    def wedge_image(images, t):
        return wedge_columns(n, [images[q] for q in range(2 * n) if t >> q & 1], ring)

    failures = []
    eig_checked = 0
    type_sets = type_masks(n, r, s)
    for t_val in (PiLaurent.zero(field), PiLaurent.one(field), pi):
        shift = -t_val
        images = frame_images(shift)
        scalar = PiLaurent.one(field)
        for eigenvalue, power in ((shift - pi, r), (shift + pi, s)):
            for _ in range(power):
                scalar = scalar * eigenvalue
        for t in type_sets:
            eig_checked += 1
            if wedge_image(images, t) != wedge_scale(basis_wedge(gfr, t), scalar, ring):
                failures.append({"kind": "eigenvalue", "T": t_val.to_json(),
                                 "set": IndexSet(n, t).to_json()})
    ann_checked = 0
    if r != s:
        for degree, shift, label in ((s + 1, pi, "pi_action+pi"),
                                     (r + 1, -pi, "pi_action-pi")):
            images = frame_images(shift)
            for t in bounded_type_masks(n, degree, r, s):
                ann_checked += 1
                if not wedge_image(images, t).is_zero:
                    failures.append({"kind": "annihilation", "operator": label,
                                     "set": IndexSet(n, t).to_json()})
    verdict = "pass" if not failures else "fail"
    return Certificate("operator-identities", {"n": n, "r": r, "s": s, "p": p},
                       verdict,
                       {"eigenvalue_checks": eig_checked,
                        "annihilation_checks": ann_checked,
                        "failures": failures})


# ---------------------------------------------------------------------------
# Seeded implication sampling across the condition lattice


def _random_element(ring, rng):
    f = ring.field
    if ring.kind == "field":
        return f.of_int(rng.randrange(-3, 4))
    if ring.kind == "dual":
        return (f.of_int(rng.randrange(-2, 3)), f.of_int(rng.randrange(-2, 3)))
    c = f.of_int(rng.randrange(-2, 3))
    if f.is_zero(c):
        return ring.zero
    if rng.random() < 0.5:
        return ring.const(c)
    mono = ring.var(rng.randrange(ring.nvars))
    return ring.mul(ring.const(c), mono)


def sample_chart_points(n: int, ring, count: int, seed: int):
    """Deterministic mixed sample: a share of points on the refined locus
    (zero block, free bottom row), plus dense, sparse, and diagonal noise."""
    rng = random.Random(seed)
    pts = []
    d = n - 1
    for idx in range(count):
        mode = idx % 5
        x1 = [[ring.zero] * d for _ in range(d)]
        x3 = [ring.zero] * d
        x2 = None
        x4 = None
        if mode == 0:
            x3 = [_random_element(ring, rng) for _ in range(d)]
        elif mode == 1:
            x1 = [[_random_element(ring, rng) for _ in range(d)] for _ in range(d)]
            x3 = [_random_element(ring, rng) for _ in range(d)]
            x2 = [_random_element(ring, rng) for _ in range(d)]
            x4 = _random_element(ring, rng)
        elif mode == 2:
            x1 = [[_random_element(ring, rng) for _ in range(d)] for _ in range(d)]
            x3 = [_random_element(ring, rng) for _ in range(d)]
        elif mode == 3:
            for i in range(d):
                x1[i][i] = _random_element(ring, rng)
        else:
            for _ in range(rng.randrange(1, 4)):
                x1[rng.randrange(d)][rng.randrange(d)] = _random_element(ring, rng)
        pts.append(ChartPoint.from_blocks(n, ring, x1, x3, x2=x2, x4=x4))
    return pts


def check_point_implications(pt: ChartPoint, precision: int = DEFAULT_PRECISION):
    """Violations of: refined => spin, refined => K_n => charpoly condition,
    and (on the translated locus) refined => wedge."""
    report = full_report(pt, precision)
    v = report.conditions
    eps = signature_eps(pt.signature[1])
    spin_key = f"spin({eps:+d})"
    out = []
    if v["refined"].passed and not v[spin_key].passed:
        out.append(f"refined passed but {spin_key} failed")
    if v["refined"].passed and not v["kn"].passed:
        out.append("refined passed but kn failed")
    if v["kn"].passed and not v["kottwitz"].passed:
        out.append("kn passed but kottwitz failed")
    if pt.on_translated_locus() and v["refined"].passed and not v["wedge"].passed:
        out.append("refined passed but wedge failed")
    return out, report


# ---------------------------------------------------------------------------
# Registry


def run_driver(result_id: str, n: int = None, p: int = DEFAULT_P,
               precision: int = DEFAULT_PRECISION, signature=None) -> list:
    """Run one named driver at rank n (its default when None), or the
    whole bundle at the ranks of bundle_ranks (n = 3 when None); returns
    the list of certificates.  A rank outside a driver's range raises
    RankError, and a signature that is not a partition of the rank of
    operator-identities (the one driver that takes it) SignatureError,
    before anything runs."""
    if result_id == "all":
        plan = bundle_ranks(3 if n is None else n)
        for rid, rank in plan:
            _require_rank(rid, rank)
            if rid == "operator-identities" and signature is not None:
                _require_signature(rid, rank, signature)
        return [cert for rid, rank in plan
                for cert in run_driver(rid, rank, p, precision, signature)]
    if result_id not in DRIVER_RANKS:
        raise ValueError(f"unknown result id {result_id!r}")
    n = DRIVER_RANKS[result_id][3] if n is None else n
    r, s = signature or (n - 1, 1)
    run = {
        "sign-lemma": lambda: verify_sign_lemma(n),
        "worst-terms": lambda: verify_worst_term_tables(n, p),
        "refined-basis": lambda: verify_refined_basis(n, p, precision),
        "spin-structure": lambda: verify_spin_structure(n, p, precision),
        "counterexample": lambda: run_counterexample(n, p, precision),
        "x1-zero": lambda: verify_x1_zero(n, p, precision),
        "operator-identities": lambda: verify_operator_identities(n, r, s, p),
    }
    return [run[result_id]()]
