import random

import pytest

from advnet import gf
from advnet.errors import NotPrimePower, TooLarge


def test_make_field_rejects_non_prime_powers():
    for q in (0, 1, 6, 10, 12, 100):
        with pytest.raises(NotPrimePower):
            gf.make_field(q)


def test_make_field_rejects_huge_orders():
    with pytest.raises(TooLarge):
        gf.make_field(1 << 17)


def test_characteristic_two_identity():
    F = gf.make_field(2)
    assert F.add(1, 1) == 0


def test_f5_inverse():
    F = gf.make_field(5)
    assert F.mul(2, 3) == 1
    assert F.inv(2) == 3


def test_f4_modulus_and_generator():
    # canonical modulus x^2 + x + 1; the element X (code 2) satisfies g^2 = g + 1
    F = gf.make_field(4)
    assert F.modulus == (1, 1, 1)
    g = 2
    assert F.mul(g, g) == F.add(g, 1)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 32, 49, 64])
def test_field_axioms_exhaustive(q):
    F = gf.make_field(q)
    els = list(F.elements())
    # inverses
    for a in els[1:]:
        assert F.mul(a, F.inv(a)) == 1
    # commutativity + identity
    for a in els:
        assert F.add(a, 0) == a
        assert F.mul(a, 1) == a
        assert F.mul(a, 0) == 0
        assert F.add(a, F.neg(a)) == 0
    sample = els if q <= 16 else els[:12] + els[-4:]
    for a in sample:
        for b in sample:
            assert F.add(a, b) == F.add(b, a)
            assert F.mul(a, b) == F.mul(b, a)
            for c in sample:
                assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
                assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
                assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))


def test_extension_degree_one_is_identity():
    F2 = gf.make_field(2)
    E, expand, flatten = gf.make_extension(F2, 1)
    assert E.q == 2
    for a in (0, 1):
        assert expand(a) == (a,)
        assert flatten(expand(a)) == a


def test_expand_flatten_roundtrip_degree_two():
    F2 = gf.make_field(2)
    E, expand, flatten = gf.make_extension(F2, 2)
    for a in E.elements():
        assert flatten(expand(a)) == a
    for v in [(0, 0), (0, 1), (1, 0), (1, 1)]:
        assert expand(flatten(v)) == v


def test_expand_is_additive_degree_three():
    F2 = gf.make_field(2)
    E, expand, _ = gf.make_extension(F2, 3)
    for a in E.elements():
        for b in E.elements():
            lhs = expand(E.add(a, b))
            rhs = tuple(F2.add(x, y) for x, y in zip(expand(a), expand(b)))
            assert lhs == rhs


def test_expand_flatten_on_tower():
    # F_2 -> F_8 -> F_512 tower; spot-check inverse maps and base-linearity
    F2 = gf.make_field(2)
    F8, exp1, flat1 = gf.make_extension(F2, 3)
    F512, exp2, flat2 = gf.make_extension(F8, 3)
    assert F512.q == 512
    rng = random.Random(7)
    for _ in range(50):
        a = rng.randrange(512)
        b = rng.randrange(512)
        assert flat2(exp2(a)) == a
        got = exp2(F512.add(a, b))
        want = tuple(F8.add(x, y) for x, y in zip(exp2(a), exp2(b)))
        assert got == want
    # base scalar multiplication commutes with expansion
    for _ in range(20):
        a = rng.randrange(512)
        c = rng.randrange(8)
        lifted = F512.mul(c, a)  # constants embed with unchanged code
        assert exp2(lifted) == tuple(F8.mul(c, x) for x in exp2(a))


def test_expand_matrix_stacks_columns():
    F2 = gf.make_field(2)
    F4, expand, flatten = gf.make_extension(F2, 2)
    m = gf.Matrix(F4, ((2, 1), (3, 0)))
    em = expand(m)
    assert em.shape == (4, 2)
    # entry (0,0) = 2 = X -> column (0,1)
    assert (em.rows[0][0], em.rows[1][0]) == (0, 1)
    assert flatten(em) == m


def test_matrix_rank_and_right_inverse_trivial():
    F2 = gf.make_field(2)
    ident = gf.Matrix.identity(F2, 3)
    assert ident.rank() == 3
    assert ident.right_inverse() == ident
    zero = gf.Matrix(F2, ((0, 0, 0),) * 2)
    assert zero.rank() == 0
    assert zero.right_inverse() is None


def test_exfinale_generator_has_rank_three():
    F5 = gf.make_field(5)
    g = gf.Matrix(F5, ((1, 0, 0, 3, 1), (2, 1, 0, 2, 0), (3, 0, 1, 1, 0)))
    assert g.rank() == 3


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8])
def test_right_inverse_property_random(q):
    F = gf.make_field(q)
    rng = random.Random(100 + q)
    for _ in range(30):
        r = rng.randint(1, 3)
        c = rng.randint(r, 4)
        m = gf.Matrix(F, tuple(tuple(rng.randrange(q) for _ in range(c)) for _ in range(r)))
        ri = m.right_inverse()
        if ri is None:
            assert m.rank() < r
        else:
            assert m @ ri == gf.Matrix.identity(F, r)


def test_rank_agrees_with_brute_force_row_span():
    # independent oracle: count distinct vectors in the row span
    F3 = gf.make_field(3)
    rng = random.Random(11)
    for _ in range(20):
        r, c = rng.randint(1, 3), rng.randint(1, 3)
        m = gf.Matrix(F3, tuple(tuple(rng.randrange(3) for _ in range(c)) for _ in range(r)))
        span = set(gf.row_span(m))
        assert len(span) == 3 ** m.rank()


def test_row_span_and_mat_vec():
    F2 = gf.make_field(2)
    g = gf.Matrix(F2, ((1, 0, 1), (0, 1, 1)))
    words = set(gf.row_span(g))
    assert words == {(0, 0, 0), (1, 0, 1), (0, 1, 1), (1, 1, 0)}
    assert gf.mat_vec_row(F2, (1, 1), g) == (1, 1, 0)


def _random_matrix(rng, F, r, c):
    return gf.Matrix(F, tuple(tuple(rng.randrange(F.q) for _ in range(c)) for _ in range(r)))


@pytest.mark.parametrize("q", [3, 4])
def test_matmul_is_mat_vec_row_per_row(q):
    F = gf.make_field(q)
    rng = random.Random(q)
    for _ in range(30):
        k, n, p = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
        a, b = _random_matrix(rng, F, k, n), _random_matrix(rng, F, n, p)
        prod = a @ b
        assert prod.rows == tuple(gf.mat_vec_row(F, row, b) for row in a.rows)
        for i in range(k):          # independent oracle: the entry sums
            for j in range(p):
                want = 0
                for l in range(n):
                    want = F.add(want, F.mul(a.rows[i][l], b.rows[l][j]))
                assert prod.rows[i][j] == want


def test_matmul_empty_shapes():
    F3 = gf.make_field(3)
    rng = random.Random(5)
    a = _random_matrix(rng, F3, 3, 2)
    no_cols = gf.Matrix(F3, ((), ()))                   # 2 x 0
    assert (a @ no_cols).shape == (3, 0)
    assert (a @ no_cols).rows == tuple(gf.mat_vec_row(F3, row, no_cols) for row in a.rows)
    # a matrix without rows has no columns either: it reads as 0 x 0
    no_rows = gf.Matrix(F3, ())
    assert no_rows.shape == (0, 0)
    assert (no_rows @ no_rows).shape == (0, 0)
    assert (gf.Matrix(F3, ((),) * 3) @ no_rows).rows == ((), (), ())
    assert gf.mat_vec_row(F3, (), no_rows) == ()
    with pytest.raises(ValueError):
        no_rows @ a


def test_mat_vec_row_rejects_wrong_length():
    F3 = gf.make_field(3)
    m = _random_matrix(random.Random(6), F3, 3, 2)
    for row in [(1, 2), (1, 2, 0, 1), ()]:
        with pytest.raises(ValueError):
            gf.mat_vec_row(F3, row, m)


def test_sub_rejects_shape_mismatch():
    F3 = gf.make_field(3)
    rng = random.Random(7)
    a = _random_matrix(rng, F3, 2, 2)
    assert (a - a) == gf.Matrix(F3, ((0, 0),) * 2)
    for b in [gf.Matrix(F3, ((1, 1),)), _random_matrix(rng, F3, 2, 1),
              _random_matrix(rng, F3, 3, 2)]:
        with pytest.raises(ValueError):
            a - b
        with pytest.raises(ValueError):
            b - a


def test_smallest_irreducible_is_canonical_for_f8():
    F2 = gf.make_field(2)
    F8, _, _ = gf.make_extension(F2, 3)
    # x^3 + x + 1 encodes as (1, 1, 0, 1)
    assert F8.modulus == (1, 1, 0, 1)


@pytest.mark.parametrize("q, n", [(2, 3), (3, 2), (5, 1), (4, 0)])
def test_digit_tuples_are_little_endian_in_integer_order(q, n):
    words = list(gf.digit_tuples(q, n))
    assert len(words) == q ** n
    for k, word in enumerate(words):
        assert sum(d * q ** i for i, d in enumerate(word)) == k
        assert len(word) == n and all(0 <= d < q for d in word)


def test_lift_embeds_constants():
    F2 = gf.make_field(2)
    F8, _, _ = gf.make_extension(F2, 3)
    m = gf.Matrix(F2, ((1, 0), (1, 1)))
    lifted = m.lift(F8)
    assert lifted.field is F8
    assert lifted.rows == m.rows
    # embedded arithmetic agrees with the base field
    assert F8.mul(1, 1) == 1 and F8.add(1, 1) == 0


# Extension fields the package builds up to order 512, with the towers
# GF(64) over GF(4) and GF(512) over GF(8).
TABLE_FIELDS = [gf.make_field(q) for q in (4, 8, 9, 16, 25, 27, 32, 49, 64, 81, 125,
                                           128, 243, 256, 512)]
TABLE_FIELDS += [gf.make_extension(gf.make_field(4), 3)[0],
                 gf.make_extension(gf.make_field(8), 3)[0]]


def _reference_products(F, a):
    """a * b for every b by polynomial arithmetic over the base: products
    with the elements p^i, whose encodings have one base-p digit 1, summed
    by additivity (in characteristic 2 the encoding's bits are coordinates
    over F_2, so the sum is XOR)."""
    add = int.__xor__ if F.p == 2 else F.add
    by_place, place = {}, 1
    while place < F.q:
        by_place[place] = F._poly_mul(a, place)
        place *= F.p
    row = [0] * F.q
    for b in range(1, F.q):
        place = 1
        while b // place % F.p == 0:
            place *= F.p
        row[b] = add(row[b - place], by_place[place])
    return row


@pytest.mark.parametrize("F", TABLE_FIELDS, ids=lambda F: f"{F!r}/{F.base!r}")
def test_tables_match_polynomial_arithmetic(F):
    q = F.q
    for a in range(q):
        row = _reference_products(F, a)
        assert [F.mul(a, b) for b in range(q)] == row
        assert (F.pow(a, 0), F.pow(a, 1), F.pow(a, 2), F.pow(a, 3)) == (1, a, row[a], row[row[a]])
        assert F.pow(a, q) == a                 # x^(q^m) == x over the base of order q^(1/m)
        assert F.pow(a, q + 1) == row[a]
        if a:
            assert row[F.inv(a)] == 1
            assert F.pow(a, q - 1) == 1
            assert F.pow(a, -1) == F.inv(a)
            assert F._poly_mul(row[row[a]], F.pow(a, -3)) == 1


@pytest.mark.parametrize("F", [gf.make_field(8), gf.make_field(81), TABLE_FIELDS[-1]],
                         ids=repr)
def test_zero_and_negative_exponents(F):
    assert F.pow(0, 0) == 1
    assert F.pow(0, 1) == F.pow(0, 7) == 0
    with pytest.raises(ZeroDivisionError):
        F.pow(0, -1)
    with pytest.raises(ZeroDivisionError):
        F.inv(0)
    rng = random.Random(F.q)
    for _ in range(200):
        a, e = rng.randrange(1, F.q), rng.randrange(1, 3 * F.q)
        assert F.pow(a, -e) == F.inv(F.pow(a, e))
        assert F.mul(F.pow(a, -e), F.pow(a, e + 2)) == F.mul(a, a)


def test_extension_field_state_does_not_grow():
    # exp/log tables of O(q) entries, built once; no per-pair memo
    F = TABLE_FIELDS[-1]
    sizes = {name: len(value) for name, value in vars(F).items() if hasattr(value, "__len__")}
    assert len(F._exp) == 2 * (F.q - 1) and len(F._log) == F.q
    rng = random.Random(3)
    for _ in range(5000):
        a, b = rng.randrange(F.q), rng.randrange(1, F.q)
        F.mul(a, b), F.inv(b), F.pow(b, rng.randrange(-600, 600))
    assert sizes == {name: len(value) for name, value in vars(F).items()
                     if hasattr(value, "__len__")}
