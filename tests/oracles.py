"""Brute-force oracles shared by the tests; the package does not use them."""


def det(ring, m, rows, cols):
    """Determinant of the submatrix of m on the given rows and columns, by
    cofactor expansion along the first row (sparse entries prune the
    recursion).  The reference for the Berkowitz characteristic polynomial
    (test_chart.py) and for ranks (test_lattices.py); no checker calls it."""
    if not rows:
        return ring.one
    i = rows[0]
    rest = rows[1:]
    acc = ring.zero
    for pos, j in enumerate(cols):
        c = m[i][j]
        if ring.is_zero(c):
            continue
        sub = det(ring, m, rest, cols[:pos] + cols[pos + 1:])
        term = ring.mul(c, sub)
        if pos % 2:
            term = ring.neg(term)
        acc = ring.add(acc, term)
    return acc


def series_inverse(a, precision: int):
    """Truncated inverse of a nonzero PiLaurent by the geometric series
    1 / (1 + t) = 1 - t + t^2 - ..., for monomials too: the reference for
    scalars.truncated_inverse, which skips the series at a monomial."""
    from ramwedge.scalars import PiLaurent

    f = a.field
    v = a.ord()
    lead_inv = f.inv(a.coeffs[v])
    unit = a.shift(-v).scale(lead_inv).truncate(precision)
    t = unit - PiLaurent.one(f)
    acc = PiLaurent.make(f, {0: f.one}, unit.precision)
    term = acc
    while not term.is_zero:
        term = -(term * t)
        acc = acc + term
    return acc.scale(lead_inv).shift(-v)
