"""Frames, bilinear forms, e-coordinate frames, sparse wedges, worst terms,
and wedge-power operators."""

import random

import pytest

from ramwedge.chart import ChartPoint, _columns_in_e
from ramwedge.errors import FrameShapeError
from ramwedge.exterior import (E_BASIS, Frame, WedgeVector, _add_multiple,
                               apply_operator, basis_wedge, f_frame, form_eval,
                               frame_in_e, g_frame, operator_pi_action,
                               wedge_columns, wedge_columns_masks, wedge_scale,
                               worst_terms)
from ramwedge.fields import PrimeField, Rationals
from ramwedge.indexsets import (IndexSet, i_vee, index_masks, perp_mask,
                                shuffle_sign)
from ramwedge.rings import MAX_EXPONENT, DualNumbers, FieldRing, PolyRing
from ramwedge.scalars import LaurentOps, PiLaurent

from oracles import (ambient_form_eval, ambient_frame, apply_wedge_power_operator,
                     in_lattice_basis, wedge_columns_masks_per_term)

F = PrimeField(13)
Q = Rationals()
FIELDS = [PrimeField(3), F, Q]


def L(coeffs, field=F):
    return PiLaurent.make(field, {e: field.of_int(c) for e, c in coeffs.items()})


def test_g_frame_first_and_middle_vectors():
    # e_j - pi^-1 (pi x 1) e_j and its +pi partner, in e-coordinates: for
    # j <= m, e_j sits at position n+j and (pi x 1) e_j is pi^2 times
    # position j; for j > m, at positions j and n+j
    half = F.inv(F.of_int(2))
    for n in (3, 5):
        g = g_frame(F, n)
        assert g.vector(1) == {n + 1: L({0: 1}), 1: L({1: -1})}
        assert g.vector(n + 1) == {n + 1: PiLaurent.const(F, half),
                                   1: PiLaurent.make(F, {1: half})}
        assert g.vector(n) == {n: L({0: 1}), 2 * n: L({-1: -1})}


def test_symmetric_form_on_ambient_basis():
    # the ambient basis vectors e_i x 1 and (pi x 1) e_i, through the
    # ambient reference form and through form_eval on their e-coordinates
    # (at n = 3: e_1 x 1 is position 4, (pi x 1) e_1 is pi^2 times
    # position 1, and e_i, (pi x 1) e_i for i > 1 are positions i, 3+i)
    n = 3
    one, zero = PiLaurent.one(F), PiLaurent.zero(F)
    u = lambda i: {i: one}
    in_e = {1: {4: one}, 2: u(2), 3: u(3), 4: {1: L({2: 1})}, 5: u(5), 6: u(6)}
    for kind, a, b, want in [("symmetric", 1, 3, one), ("symmetric", 1, 4, zero),
                             ("symmetric", 4, 6, L({2: -1})),
                             ("alternating", 1, 1, zero), ("alternating", 1, 6, one),
                             ("alternating", 6, 1, L({0: -1}))]:
        assert ambient_form_eval(kind, n, u(a), u(b), F) == want
        assert form_eval(kind, n, in_e[a], in_e[b], F) == want
    with pytest.raises(ValueError):
        form_eval("hermitian", n, u(1), u(3), F)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_f_frame_is_split(n):
    f = f_frame(F, n)
    one = PiLaurent.one(F)
    zero = PiLaurent.zero(F)
    for a in range(1, 2 * n + 1):
        for b in range(1, 2 * n + 1):
            want = one if b == 2 * n + 1 - a else zero
            assert form_eval("symmetric", n, f.vector(a), f.vector(b), F) == want


def test_wedge_of_bottom_identity_block():
    n = 3
    ring = LaurentOps(F)
    cols = [{n + j: PiLaurent.one(F)} for j in range(1, n + 1)]
    w = wedge_columns(n, cols, ring)
    assert w.terms == {IndexSet.of(n, (4, 5, 6)).mask: PiLaurent.one(F)}


def test_wedge_alternates_in_columns():
    n = 3
    ring = LaurentOps(F)
    rng = random.Random(7)
    cols = [{p: L({0: rng.randrange(1, 13)}) for p in rng.sample(range(1, 7), 3)}
            for _ in range(3)]
    w = wedge_columns(n, cols, ring)
    swapped = wedge_columns(n, [cols[1], cols[0], cols[2]], ring)
    for s, c in w.terms.items():
        assert swapped.terms.get(s) == -c
    dup = wedge_columns(n, [cols[0], cols[0], cols[2]], ring)
    assert dup.is_zero


def test_a_fold_with_an_empty_column_multiplies_nothing(monkeypatch):
    # a zero column makes the wedge zero, wherever it stands among the columns
    # (counted at the field's mul, the one multiply the fold kernel makes)
    calls = []
    original = PrimeField.mul
    monkeypatch.setattr(PrimeField, "mul",
                        lambda self, a, b: calls.append(a) or original(self, a, b))
    ring = FieldRing(F)
    full = {p: F.of_int(p) for p in range(1, 7)}
    for at in range(4):
        cols = [full] * 3
        cols.insert(at, {})
        assert wedge_columns_masks(cols, ring) == {}
        assert wedge_columns(3, cols, ring).is_zero
    assert calls == []
    # the counter sees the products of a fold without one
    assert wedge_columns_masks([full, {1: F.one}], ring) and calls


def test_wedge_column_validation():
    ring = LaurentOps(F)
    with pytest.raises(ValueError):
        wedge_columns(3, [{7: PiLaurent.one(F)}], ring)
    with pytest.raises(ValueError):
        wedge_columns(3, [], ring)


def chart_in_e(n, field):
    """The chart's reordering of the standard lattice basis as a frame of
    unit e-vectors, read off chart._columns_in_e at X = I_n: column j holds
    row j at the e-position of chart vector j, then the 1 of I_n at that of
    chart vector n+j."""
    ring = FieldRing(field)
    ident = tuple(tuple(ring.one if i == j else ring.zero for j in range(n))
                  for i in range(n))
    cols = _columns_in_e(ChartPoint(n, ring, ident, (n - 1, 1)))
    rows, ones = zip(*(list(col) for col in cols))
    one = PiLaurent.one(field)
    return Frame("chart", n, field, tuple({q: one} for q in rows + ones))


ORACLE_CASES = [(kind, n) for n in (3, 4, 5, 7)
                for kind in ("f_split", "g_split", "chart")
                if kind != "chart" or n % 2]


@pytest.mark.parametrize("field", [F, Q], ids=["F13", "Q"])
@pytest.mark.parametrize("kind,n", ORACLE_CASES)
def test_e_coordinates_expand_to_ambient_wedge(kind, n, field):
    # independent of the conversion to e-coordinates: the ambient wedge of
    # the frame vectors at S equals sum_T c_T * (ambient wedge of the
    # standard lattice frame vectors at T), c_T the e-coordinates at T; the
    # chart's frame is read off the positions of _columns_in_e
    ring = LaurentOps(field)
    ambient = ambient_frame(kind, n, field)
    lattice = ambient_frame("lambda", n, field)
    in_e = chart_in_e(n, field) if kind == "chart" else frame_in_e(kind, n, field)
    sets = [s for k, s in enumerate(index_masks(n)) if k % (41 if n == 7 else 1) == 0]
    for s in sets:
        want = wedge_columns_masks([ambient.vector(p) for p in IndexSet(n, s).members],
                                   ring)
        got = {}
        for t, c in basis_wedge(in_e, s).terms.items():
            cols = [lattice.vector(q) for q in IndexSet(n, t).members]
            for mask, x in wedge_columns_masks(cols, ring).items():
                total = got.get(mask, ring.zero) + c * x
                if total.is_zero:
                    got.pop(mask, None)
                else:
                    got[mask] = total
        assert got == want


def test_pi_action_has_the_same_matrix_in_e_coordinates():
    # pi x 1 applied to standard lattice vector p equals sum_q A[q, p] times
    # vector q, A the ambient matrix of pi x 1
    for n in (3, 4, 5):
        lattice = ambient_frame("lambda", n, F)
        op = operator_pi_action(F, n, PiLaurent.zero(F))
        for p in range(1, 2 * n + 1):
            (q, a), = op[p - 1].items()
            want = {pos: c * a for pos, c in lattice.vector(q).items()}
            assert apply_operator(op, lattice.vector(p), F) == want


def test_frames_in_e_are_cached():
    assert frame_in_e("g_split", 5, F) is frame_in_e("g_split", 5, PrimeField(13))


def test_build_frame_dispatch_and_errors():
    assert [frame_in_e(kind, 3, F).kind for kind in ("f_split", "g_split")] == [
        "f_split", "g_split"]
    for kind, n in (("f_split", 0), ("g_split", 1), ("nope", 3), ("lambda", 3),
                    ("chart", 3)):
        with pytest.raises(ValueError):
            frame_in_e(kind, n, F)


@pytest.mark.parametrize("field", FIELDS, ids=["F3", "F13", "Q"])
@pytest.mark.parametrize("n", range(2, 12))
def test_frames_in_e_are_the_ambient_frames_in_the_lattice_basis(n, field):
    # vector by vector, coefficients and dict order included
    def entries(frame):
        return [[(p, x.coeffs) for p, x in v.items()] for v in frame.vectors]
    for kind in ("f_split", "g_split"):
        want = in_lattice_basis(ambient_frame(kind, n, field))
        assert entries(frame_in_e(kind, n, field)) == entries(want), kind


@pytest.mark.parametrize("field", FIELDS, ids=["F3", "F13", "Q"])
@pytest.mark.parametrize("n", [3, 5, 7, 9, 11])
def test_chart_columns_sit_at_the_ambient_chart_frame_positions(n, field):
    # the ambient chart frame in the lattice basis is unit vectors, and
    # _columns_in_e puts row i of X at the position of vector i and the 1
    # of column j at that of vector n+j, rows first in increasing order
    one = PiLaurent.one(field)
    frame = in_lattice_basis(ambient_frame("chart", n, field))
    assert all(list(v.values()) == [one] for v in frame.vectors)
    pos = [next(iter(v)) for v in frame.vectors]
    assert sorted(pos) == list(range(1, 2 * n + 1))
    ring = FieldRing(field)
    pt = ChartPoint(n, ring, ((ring.one,) * n,) * n, (n - 1, 1))
    assert [list(col.items()) for col in _columns_in_e(pt)] == [
        [(pos[i], ring.one) for i in range(n)] + [(pos[n + j], ring.one)]
        for j in range(n)]


@pytest.mark.parametrize("field", [F, Q], ids=["F13", "Q"])
@pytest.mark.parametrize("n", range(2, 9))
def test_form_eval_is_the_ambient_form_on_every_basis_pair(n, field):
    # e-position p is lattice vector p, so the form of the unit vectors at p
    # and q is the ambient form of lattice vectors p and q
    lattice = ambient_frame("lambda", n, field).vectors
    one = PiLaurent.one(field)
    for kind in ("symmetric", "alternating"):
        for p, v in enumerate(lattice, 1):
            for q, w in enumerate(lattice, 1):
                assert (form_eval(kind, n, {p: one}, {q: one}, field)
                        == ambient_form_eval(kind, n, v, w, field)), (kind, p, q)


def test_hand_expanded_g_wedge():
    # worked instance frozen from a manual expansion: at n = 3 the g-frame
    # wedge over {1, 3, 4} equals -pi*e_{134} - e_{146}
    n = 3
    w = basis_wedge(frame_in_e("g_split", n, F), IndexSet.of(n, (1, 3, 4)).mask)
    assert w.terms == {IndexSet.of(n, (1, 3, 4)).mask: L({1: -1}),
                       IndexSet.of(n, (1, 4, 6)).mask: L({0: -1})}


def test_worst_terms_minimum_filter():
    n = 3
    a, b, c = (IndexSet.of(n, t).mask for t in ((1, 2, 3), (1, 2, 4), (1, 2, 5)))
    w = WedgeVector(n, {a: L({-2: 1}), b: L({-1: 1}), c: L({-2: 1})})
    wt, val = worst_terms(w)
    assert val == -2
    assert set(wt.terms) == {a, c}
    with pytest.raises(ValueError):
        worst_terms(WedgeVector(n, {}))


def test_worst_term_of_near_diagonal_g_wedge():
    # n = 5, set {2,3,4,5,6}: removing row 1 and adding column 6 gives the
    # coefficient (-1)^(1+2)/2 on pi^-3 times the top coordinate
    n, i = 5, 1
    s = IndexSet.of(n, (2, 3, 4, 5, n + i)).mask
    w = basis_wedge(frame_in_e("g_split", n, F), s)
    wt, val = worst_terms(w)
    assert val == -3
    half = F.inv(F.of_int(2))
    expected = PiLaurent.make(F, {-3: F.neg(half)})
    assert wt.terms == {IndexSet.of(n, range(6, 11)).mask: expected}


@pytest.mark.parametrize("n", [3, 5, 7])
def test_g_wedge_coefficients_preserve_weight(n):
    ring = LaurentOps(F)
    gfr = frame_in_e("g_split", n, F)
    stride = {3: 1, 5: 17, 7: 131}[n]
    def weight(m):
        return [(m >> i & 1) + (m >> n + i & 1) for i in range(n)]

    sets = [s for k, s in enumerate(index_masks(n)) if k % stride == 0]
    for s in sets:
        w = basis_wedge(gfr, s)
        for t in w.terms:
            assert weight(t) == weight(s)


def test_pair_factor_identity():
    # the two-factor combination that drives the cancellation case:
    # g_i ^ g_{i*} - g_{i_vee} ^ g_{n+i} equals
    # (e_i x 1) ^ (e_{i_vee} x 1) - (pi^-1 e_i x 1) ^ (pi e_{i_vee} x 1),
    # in e-coordinates (i <= m < i_vee) {n+i} ^ {i_vee} - {i} ^ {n+i_vee}
    ring = LaurentOps(F)
    one = PiLaurent.one(F)

    def difference(a, b):
        out = dict(a.terms)
        _add_multiple(ring, out, -one, b.terms)
        return out

    for n in (3, 5):
        g = g_frame(F, n)
        for i in range(1, n // 2 + 1):
            iv = i_vee(n, i)
            lhs = difference(wedge_columns(n, [g.vector(i), g.vector(2 * n + 1 - i)], ring),
                             wedge_columns(n, [g.vector(iv), g.vector(n + i)], ring))
            rhs = difference(wedge_columns(n, [{n + i: one}, {iv: one}], ring),
                             wedge_columns(n, [{i: one}, {n + iv: one}], ring))
            assert lhs == rhs


def spin_involution(n, terms: dict, ring) -> dict:
    """The involution sending the basis wedge at S to its shuffle sign times
    the basis wedge at S-perp, extended linearly over coordinates in any
    split frame.  An involution because S and S-perp share their shuffle
    sign."""
    out = {}
    for s, c in terms.items():
        if shuffle_sign(n, s) < 0:
            c = ring.neg(c)
        out[perp_mask(n, s)] = c
    return out


def test_spin_involution_squares_to_identity():
    ring = LaurentOps(F)
    rng = random.Random(3)
    for n in (3, 4):
        terms = {s: L({0: rng.randrange(1, 13)})
                 for s in rng.sample(index_masks(n), 4)}
        twice = spin_involution(n, spin_involution(n, terms, ring), ring)
        assert twice == terms


@pytest.mark.parametrize("n,eps", [(3, 1), (3, -1), (4, 1), (4, -1)])
def test_spin_generators_are_eigenvectors(n, eps):
    ring = LaurentOps(F)
    factor = PiLaurent.const(F, F.of_int(eps))
    for s in index_masks(n):
        terms = {s: PiLaurent.one(F)}
        sgn = shuffle_sign(n, s)
        partner = perp_mask(n, s)
        cur = terms.get(partner, PiLaurent.zero(F)) + PiLaurent.const(
            F, F.of_int(eps * sgn))
        if cur.is_zero:
            terms.pop(partner, None)
        else:
            terms[partner] = cur
        if not terms:
            continue
        image = spin_involution(n, terms, ring)
        scaled = {t: c * factor for t, c in terms.items()}
        assert image == scaled


def test_identity_operator_fixes_wedges():
    n = 3
    ring = LaurentOps(F)
    identity = tuple({p: PiLaurent.one(F)} for p in range(1, 2 * n + 1))
    w = basis_wedge(g_frame(F, n), IndexSet.of(n, (1, 2, 4)).mask)
    out = apply_wedge_power_operator(identity, n, w, ring=ring)
    assert out == w


def test_pi_action_eigenvalue_products():
    # degree-n action of (pi x 1 - T) at T = 0 multiplies a type-(r, s)
    # g-frame wedge by (-pi)^r pi^s
    n = 3
    ring = LaurentOps(F)
    gfr = g_frame(F, n)
    op = operator_pi_action(F, n, PiLaurent.zero(F))
    for s in index_masks(n):
        rr = (s & (1 << n) - 1).bit_count()
        w = basis_wedge(gfr, s)
        lhs = apply_wedge_power_operator(op, n, w, ring=ring)
        coeff = PiLaurent.make(F, {n: F.of_int((-1) ** rr)})
        assert lhs == wedge_scale(w, coeff, ring)


def test_pi_action_annihilation_on_bounded_summand():
    # (pi x 1 + pi)^2 kills every degree-2 g-frame wedge with at most one
    # +pi eigenvector factor
    n, r, s = 3, 2, 1
    ring = LaurentOps(F)
    gfr = g_frame(F, n)
    op = operator_pi_action(F, n, PiLaurent.monomial(F, 1))
    for t in index_masks(n, s + 1):
        j, k = (t & (1 << n) - 1).bit_count(), (t >> n).bit_count()
        if j <= r and k <= s:
            w = basis_wedge(gfr, t)
            assert apply_wedge_power_operator(op, s + 1, w, ring=ring).is_zero


@pytest.mark.parametrize("n", [3, 4, 5])
def test_shifted_pi_action_scales_the_g_frame(n):
    # pi x 1 + c acts by c - pi on the first n g-frame vectors and by c + pi
    # on the last n
    pi = PiLaurent.monomial(F, 1)
    g = g_frame(F, n)
    for c in (PiLaurent.zero(F), PiLaurent.one(F), pi, -pi):
        op = operator_pi_action(F, n, c)
        for pos in range(1, 2 * n + 1):
            lam = c - pi if pos <= n else c + pi
            want = {p: x * lam for p, x in g.vector(pos).items()}
            want = {p: x for p, x in want.items() if not x.is_zero}
            assert apply_operator(op, g.vector(pos), F) == want


@pytest.mark.parametrize("field", [PrimeField(3), F], ids=["F3", "F13"])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_image_fold_is_the_per_term_action(n, field):
    # on a g-frame wedge, the fold of the images of its frame vectors (what
    # verify operator-identities computes) is the term-by-term action
    ring = LaurentOps(field)
    gfr = frame_in_e("g_split", n, field)
    pi = PiLaurent.monomial(field, 1)
    for shift in (PiLaurent.zero(field), PiLaurent.one(field), pi, -pi):
        op = operator_pi_action(field, n, shift)
        images = [apply_operator(op, v, field) for v in gfr.vectors]
        for degree in range(1, n + 1):
            for t in index_masks(n, degree):
                fold = wedge_columns(n, [images[q] for q in range(2 * n)
                                         if t >> q & 1], ring)
                w = basis_wedge(gfr, t)
                assert apply_wedge_power_operator(op, degree, w, ring) == fold


def test_operator_degree_mismatch_rejected():
    n = 3
    ring = LaurentOps(F)
    w = basis_wedge(g_frame(F, n), IndexSet.of(n, (1, 2)).mask)
    with pytest.raises(ValueError):
        apply_wedge_power_operator(operator_pi_action(F, n, PiLaurent.zero(F)),
                                   3, w, ring=ring)


# ---------------------------------------------------------------------------
# The one sparse update against a dense coordinatewise reference


def _laurent_values(field, exps):
    def draw(rng):
        coeffs = {e: field.of_int(rng.randrange(1, 6))
                  for e in rng.sample(exps, rng.randrange(1, 3))}
        if field == Q and rng.random() < 0.5:
            coeffs = {e: c / 3 for e, c in coeffs.items()}
        return PiLaurent.make(field, coeffs)
    return draw


def _poly_value(ring):
    def draw(rng):
        f = ring.field
        out = ring.const(f.of_int(rng.randrange(1, 13)))
        if rng.random() < 0.6:
            term = ring.mul(ring.const(f.of_int(rng.randrange(1, 13))),
                            ring.var(rng.randrange(ring.nvars)))
            out = ring.add(out, term)
        return out
    return draw


UPDATE_CASES = {
    "laurent-F13": (LaurentOps(F), _laurent_values(F, range(-2, 3))),
    "laurent-Q": (LaurentOps(Q), _laurent_values(Q, range(-2, 3))),
    "field-F13": (F, lambda rng: F.of_int(rng.randrange(1, 13))),
    "field-ring": (FieldRing(F), lambda rng: F.of_int(rng.randrange(1, 13))),
    "dual": (DualNumbers(F), lambda rng: (F.of_int(rng.randrange(0, 3)),
                                          F.of_int(rng.randrange(0, 3)))),
    "poly": (PolyRing(F, ("a", "b")), _poly_value(PolyRing(F, ("a", "b")))),
}


@pytest.mark.parametrize("case", sorted(UPDATE_CASES))
def test_add_multiple_matches_dense_reference(case):
    ops, draw = UPDATE_CASES[case]
    rng = random.Random(f"add_multiple:{case}")

    def sparse(keys):
        vec = {}
        for k in keys:
            v = draw(rng)
            if not ops.is_zero(v):
                vec[k] = v
        return vec

    dropped = 0
    for trial in range(200):
        target = sparse(rng.sample(range(12), rng.randrange(0, 7)))
        source = sparse(rng.sample(range(12), rng.randrange(0, 7)))
        q = draw(rng)
        if trial % 3 == 0:
            # exact cancellation on every shared key
            q = ops.one
            source.update({k: ops.neg(v) for k, v in target.items() if k in source})
        zero = ops.zero
        want = {}
        for k in list(target) + [k for k in source if k not in target]:
            v = ops.add(target.get(k, zero), ops.mul(q, source.get(k, zero)))
            if not ops.is_zero(v):
                want[k] = v
        before = list(target)
        new_keys = [k for k in source if k not in target]
        _add_multiple(ops, target, q, source)
        assert target == want
        assert not any(ops.is_zero(v) for v in target.values())
        assert list(target) == [k for k in before + new_keys if k in want]
        dropped += len(before) + len(new_keys) - len(target)
    assert dropped > 0


def test_wedge_vector_json():
    n = 3
    w = WedgeVector(n, {IndexSet.of(n, (1, 2, 3)).mask: L({-1: 2})})
    obj = w.to_json()
    assert obj["basis"] == E_BASIS
    assert obj["terms"] == [{"indexSet": [1, 2, 3], "coefficient": [[-1, 2]]}]


# ---------------------------------------------------------------------------
# The closed-form frame wedge against the generic fold

def unit_frame(n, field):
    """The unit frame e_1, ..., e_2n: the standard lattice basis in
    e-coordinates."""
    return Frame("unit", n, field,
                 tuple({p: PiLaurent.one(field)} for p in range(1, 2 * n + 1)))


def oracle_frames(n, field):
    """The frame_in_e frames, the chart's unit frame (odd n only), the unit
    frame and the ambient g-frame."""
    return ([frame_in_e(kind, n, field) for kind in ("f_split", "g_split")]
            + ([chart_in_e(n, field)] if n % 2 else [])
            + [unit_frame(n, field), ambient_frame("g_split", n, field)])


def assert_matches_fold(frame, masks):
    ring = LaurentOps(frame.field)
    for s in masks:
        members = IndexSet(frame.n, s).members
        want = wedge_columns_masks([frame.vector(p) for p in members], ring)
        # terms, coefficients and key order
        assert list(basis_wedge(frame, s).terms.items()) == list(want.items()), \
            (frame.kind, members)


@pytest.mark.parametrize("field", FIELDS, ids=["F3", "F13", "Q"])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_basis_wedge_is_the_fold_at_every_set(n, field):
    for frame in oracle_frames(n, field):
        for card in range(1, 2 * n + 1):
            assert_matches_fold(frame, index_masks(n, card))


@pytest.mark.parametrize("field", FIELDS, ids=["F3", "F13", "Q"])
@pytest.mark.parametrize("n", [7, 9])
def test_basis_wedge_is_the_fold_on_a_seeded_sample(n, field):
    rng = random.Random(n)
    for frame in oracle_frames(n, field):
        masks = rng.sample(range(1 << 2 * n), 12)
        assert_matches_fold(frame, masks)
        assert_matches_fold(frame, rng.sample(index_masks(n), 12))


def reshaped_unit_frame(n, replaced):
    """The unit frame with the vectors at the given positions replaced."""
    vectors = list(unit_frame(n, F).vectors)
    for pos, vector in replaced.items():
        vectors[pos - 1] = vector
    return Frame("reshaped", n, F, tuple(vectors))


@pytest.mark.parametrize("vector,message", [
    ({1: PiLaurent.one(F), 2: PiLaurent.one(F)}, "spans the slots"),
    ({1: L({0: 1, 1: 1})}, "non-monomial"),
    ({}, "is zero"),
], ids=["two-slots", "binomial", "zero"])
def test_basis_wedge_refuses_a_frame_off_the_slot_shape(vector, message):
    # the refusal holds for every set, also one avoiding the bad vector
    frame = reshaped_unit_frame(3, {1: vector})
    with pytest.raises(FrameShapeError, match=message):
        basis_wedge(frame, IndexSet.of(3, (2, 3, 5)).mask)


def test_basis_wedge_refuses_a_slot_determinant_with_two_exponents():
    # e_1 + e_4 and pi^5 e_1 + e_4 fill slot 1: the determinant is 1 - pi^5
    one = PiLaurent.one(F)
    frame = reshaped_unit_frame(3, {1: {1: one, 4: one},
                                    4: {1: PiLaurent.monomial(F, 5), 4: one}})
    with pytest.raises(FrameShapeError, match="2 x 2 determinant"):
        basis_wedge(frame, IndexSet.of(3, (1, 4)).mask)


def test_basis_wedge_refuses_a_slot_holding_three_vectors():
    frame = reshaped_unit_frame(3, {2: {4: PiLaurent.one(F)}})
    with pytest.raises(FrameShapeError, match="holds 3 vectors"):
        basis_wedge(frame, IndexSet.of(3, (1,)).mask)


# ---------------------------------------------------------------------------
# The base-field fold kernel against the per-term fold


def random_columns(rng, n, count, entry):
    """count seeded sparse columns over 2n positions; some entries are zero
    and some columns repeat, so terms cancel and wedges vanish."""
    cols = []
    for _ in range(count):
        if cols and rng.random() < 0.1:
            cols.append(rng.choice(cols))
            continue
        cols.append({p: entry() for p in rng.sample(range(1, 2 * n + 1),
                                                    rng.randint(1, 2 * n))})
    return cols


def assert_kernel_matches(ring, entry, seed, ordered=False, n=4, trials=40):
    # the kernel against the per-term fold on seeded columns, one in ten
    # with an empty column inserted
    rng = random.Random(seed)
    empty = 0
    for _ in range(trials):
        cols = random_columns(rng, n, rng.randint(1, 2 * n), lambda: entry(rng))
        if rng.random() < 0.1:
            cols.insert(rng.randrange(len(cols) + 1), {})
        got, want = wedge_columns_masks(cols, ring), wedge_columns_masks_per_term(cols, ring)
        assert got == want
        if ordered:
            assert list(got) == list(want)
        empty += not got
    assert 0 < empty < trials  # both vanishing and nonzero wedges are compared


@pytest.mark.parametrize("field", FIELDS, ids=["F3", "F13", "Q"])
def test_fold_kernel_over_the_field(field):
    def entry(rng):
        return field.of_int(rng.randrange(-2, 3))
    assert_kernel_matches(FieldRing(field), entry, 1, ordered=True)


@pytest.mark.parametrize("field", FIELDS, ids=["F3", "F13", "Q"])
def test_fold_kernel_over_dual_numbers(field):
    # entries with a zero constant part: their products die by x^2 = 0
    def entry(rng):
        return (field.of_int(rng.choice([0, 0, 1, 2])), field.of_int(rng.randrange(3)))
    assert_kernel_matches(DualNumbers(field), entry, 2)


@pytest.mark.parametrize("field", FIELDS, ids=["F3", "F13", "Q"])
def test_fold_kernel_over_poly_in_two_variables(field):
    ring = PolyRing(field, ("a", "b"))

    def entry(rng):
        return ring.add(ring.const(field.of_int(rng.randrange(3))),
                        {ring._pack([rng.randrange(3), rng.randrange(2)]):
                         field.of_int(rng.randrange(1, 3))})
    assert_kernel_matches(ring, entry, 3)


def test_fold_kernel_on_the_symbolic_x1_zero_point():
    # the top wedge of [X; I] with X1 a 4 x 4 matrix of 16 variables (n = 5)
    n, d = 5, 4
    ring = PolyRing(F, tuple(f"x{i}" for i in range(d * d)))
    x1 = [[ring.var(i * d + j) for j in range(d)] for i in range(d)]
    cols = _columns_in_e(ChartPoint.from_blocks(n, ring, x1, [ring.zero] * d))
    got = wedge_columns_masks(cols, ring)
    assert got == wedge_columns_masks_per_term(cols, ring)
    assert sum(map(len, got.values())) > len(got) > 1


def test_fold_kernel_over_exact_laurent_scalars():
    ring = LaurentOps(F)

    def entry(rng):
        return L({e: rng.randrange(13) for e in rng.sample(range(-3, 3), 2)})
    assert_kernel_matches(ring, entry, 4)


@pytest.mark.parametrize("field", FIELDS, ids=["F3", "F13", "Q"])
@pytest.mark.parametrize("n", [3, 4])
def test_fold_kernel_keeps_the_key_order_of_frame_folds(n, field):
    ring = LaurentOps(field)
    for frame in oracle_frames(n, field):
        for s in index_masks(n)[::3]:
            cols = [frame.vector(p) for p in IndexSet(n, s).members]
            got = wedge_columns_masks(cols, ring)
            assert list(got.items()) == list(wedge_columns_masks_per_term(cols, ring).items())


def test_fold_kernel_raises_where_a_polynomial_product_passes_the_guard():
    ring = PolyRing(F, ("a", "b"))
    high = {ring._pack([0, MAX_EXPONENT]): F.one}
    cols = [{1: high, 2: ring.one}, {2: ring.var(1), 3: ring.var(0)}]
    for fold in (wedge_columns_masks, wedge_columns_masks_per_term):
        with pytest.raises(OverflowError):
            fold(cols, ring)
    # one exponent lower, both folds agree again
    cols[0][1] = {ring._pack([0, MAX_EXPONENT - 1]): F.one}
    assert wedge_columns_masks(cols, ring) == wedge_columns_masks_per_term(cols, ring)
