import functools
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from advnet import codes, gf
from advnet.channel import STAR
from advnet.errors import (FieldTooSmall, InvalidParams, NoCodewordInRange,
                           SearchLimitExceeded, SingletonCode)

F2 = gf.make_field(2)
F3 = gf.make_field(3)
F5 = gf.make_field(5)

EXFINALE_G = gf.Matrix(F5, ((1, 0, 0, 3, 1), (2, 1, 0, 2, 0), (3, 0, 1, 1, 0)))


def brute_min_distance(words):
    return min(codes.hamming_distance(x, y)
               for x, y in itertools.combinations(words, 2))


def brute_max_code_size(a, u, d):
    """Oracle: greedy-complete search over all subsets via MIS on the full
    conflict graph, no containing-zero reduction."""
    words = list(gf.digit_tuples(a, u))
    best = 1
    n = len(words)
    # depth-first over words in order, keeping pairwise distance >= d
    def extend(chosen, start):
        nonlocal best
        best = max(best, len(chosen))
        if len(chosen) + (n - start) <= best:
            return
        for i in range(start, n):
            w = words[i]
            if all(codes.hamming_distance(w, c) >= d for c in chosen):
                chosen.append(w)
                extend(chosen, i + 1)
                chosen.pop()
    extend([], 0)
    return best


# ---------------------------------------------------------------------------
# min distance
# ---------------------------------------------------------------------------


def test_repetition_distance():
    rep = codes.BlockCode((0, 1), 3, codewords=[(0, 0, 0), (1, 1, 1)])
    assert rep.min_distance() == 3


def test_exfinale_code_distance_three():
    code = codes.BlockCode.from_generator(F5, EXFINALE_G)
    assert len(code) == 125
    assert code.min_distance() == 3


def test_min_distance_matches_brute_force_on_random_linear_codes():
    rng = random.Random(17)
    for _ in range(10):
        g = gf.Matrix(F3, tuple(tuple(rng.randrange(3) for _ in range(4))
                                for _ in range(2)))
        if g.rank() < 2:
            continue
        code = codes.BlockCode.from_generator(F3, g)
        assert code.min_distance() == brute_min_distance(code.codewords)


def test_min_distance_rejects_singletons():
    with pytest.raises(SingletonCode):
        codes.min_distance(codes.BlockCode((0, 1), 2, codewords=[(0, 0)]))


# ---------------------------------------------------------------------------
# beta
# ---------------------------------------------------------------------------


def test_beta_distance_one_is_full_space():
    for a, u in [(2, 3), (3, 2), (5, 4)]:
        b = codes.beta(a, u, 1)
        assert b.exact and b.size == a ** u and b.value == pytest.approx(u)


def test_beta_2_4_3_is_one():
    b = codes.beta(2, 4, 3)
    assert b.exact and b.size == 2 and b.value == pytest.approx(1.0)


def test_beta_5_5_3_is_three():
    b = codes.beta(5, 5, 3)
    assert b.exact and b.value == pytest.approx(3.0)
    # cross-check the two sides: Singleton upper bound and the explicit code
    assert b.size == 5 ** 3
    code = codes.BlockCode.from_generator(F5, EXFINALE_G)
    assert code.min_distance() >= 3 and len(code) == 5 ** 3


def test_beta_degenerate_cases():
    # no two words fit: a one-word code, log 0
    assert codes.beta(2, 0, 1).size == codes.beta(2, 0, 1).upper_size == 1
    assert codes.beta(2, 3, 5).size == codes.beta(2, 3, 5).upper_size == 1
    assert codes.beta(2, 3, 5).value == 0.0
    with pytest.raises(InvalidParams):
        codes.beta(1, 3, 1)
    with pytest.raises(InvalidParams):
        codes.beta(2, 3, 0)


def test_beta_matches_brute_force_oracle():
    for a, u, d in [(2, 4, 3), (2, 5, 3), (3, 3, 2), (2, 4, 2), (3, 3, 3),
                    (2, 5, 4), (2, 6, 5)]:
        got = codes.beta(a, u, d)
        assert got.exact
        assert got.size == brute_max_code_size(a, u, d)


def test_beta_respects_singleton_and_constructions():
    rng = random.Random(23)
    for _ in range(20):
        a = rng.choice([2, 3, 4, 5])
        u = rng.randint(1, 5)
        d = rng.randint(1, u)
        b = codes.beta(a, u, d)
        assert b.size <= a ** (u - d + 1)
        assert b.upper_size <= a ** (u - d + 1)
        assert b.size >= min(a, a ** (u - d + 1))


def test_beta_bounds_path_for_large_spaces():
    b = codes.beta(6, 7, 4)  # 6^7 too large to enumerate; 6 not a prime power
    assert not b.exact
    assert b.size == 6
    assert b.upper_size == 6 ** 4


def test_beta_6_4_3_reports_the_search_incumbent():
    # 34, since no pair of orthogonal Latin squares of order 6 exists; the
    # constant words alone gave 6
    b = codes.beta(6, 4, 3)
    assert (b.size, b.upper_size, b.exact) == (31, 36, False)


def test_exhausted_beta_floor_is_a_code_from_the_incumbent():
    with pytest.raises(SearchLimitExceeded) as info:
        codes._beta_exhaustive(2, 8, 3, 2_000)
    far = [w for w in gf.digit_tuples(2, 8) if sum(1 for c in w if c) >= 3]
    code = [(0,) * 8] + [far[v] for v in info.value.incumbent]
    assert len(code) > 2 and brute_min_distance(code) >= 3
    b = codes.beta(2, 8, 3, node_budget=2_000)
    assert (b.size, b.exact) == (len(code), False)


def test_beta_memo_keeps_budgets_apart():
    # a search that runs out of budget is not the answer for a larger budget
    starved = codes.beta(2, 6, 3, node_budget=1)
    assert not starved.exact and starved.size == 2
    full = codes.beta(2, 6, 3)
    assert full.exact and full.size == 8 == brute_max_code_size(2, 6, 3)
    assert codes.beta(2, 6, 3, node_budget=1) is starved


# ---------------------------------------------------------------------------
# MDS generators
# ---------------------------------------------------------------------------


def test_mds_identity_and_repetition():
    g = codes.mds_generator(F2, 4, 4)
    assert g == gf.Matrix.identity(F2, 4)
    rep = codes.mds_generator(F2, 3, 1)
    code = codes.BlockCode.from_generator(F2, rep)
    assert code.min_distance() == 3


def test_mds_5_3_over_f5():
    g = codes.mds_generator(F5, 5, 3)
    code = codes.BlockCode.from_generator(F5, g)
    assert len(code) == 125
    assert code.min_distance() == 3


def test_mds_needs_large_enough_field():
    with pytest.raises(FieldTooSmall):
        codes.mds_generator(F2, 4, 2)


def test_extended_rs_first_codeword_structure():
    # n = q + 1 uses the top-coefficient coordinate
    g = codes.mds_generator(F2, 3, 2)
    code = codes.BlockCode.from_generator(F2, g)
    assert code.min_distance() == 2 and len(code) == 4


@pytest.mark.parametrize("q,n,k", [(5, 4, 2), (5, 5, 2), (7, 6, 3), (4, 4, 2),
                                   (8, 5, 3), (3, 3, 2), (5, 6, 3), (4, 5, 3),
                                   (3, 4, 2)])
def test_mds_generators_reach_singleton_distance(q, n, k):
    F = gf.make_field(q)
    g = codes.mds_generator(F, n, k)
    code = codes.BlockCode.from_generator(F, g)
    assert code.min_distance() == n - k + 1


# ---------------------------------------------------------------------------
# decoding
# ---------------------------------------------------------------------------


def test_decode_identity_on_codewords():
    code = codes.BlockCode.from_generator(F5, EXFINALE_G)
    for w in code.codewords[:20]:
        assert codes.decode_hamming(code, w) == w


def test_decode_fills_erasures():
    rep = codes.BlockCode((0, 1), 3, codewords=[(0, 0, 0), (1, 1, 1)])
    assert codes.decode_hamming(rep, (0, STAR, 0)) == (0, 0, 0)
    assert codes.decode_hamming(rep, (STAR, 1, STAR)) == (1, 1, 1)


def test_decode_corrects_single_errors_exhaustively():
    code = codes.BlockCode.from_generator(F5, EXFINALE_G)
    for w in code.codewords:
        for pos in range(5):
            for val in range(5):
                if val == w[pos]:
                    continue
                rec = list(w)
                rec[pos] = val
                assert codes.decode_hamming(code, tuple(rec)) == w
        assert codes.decode_hamming(code, w) == w


def test_decode_is_total_on_garbage():
    rep = codes.BlockCode((0, 1), 3, codewords=[(0, 0, 0), (1, 1, 1)])
    # beyond the correction radius: still returns some codeword (lexicographic tie)
    assert codes.decode_hamming(rep, (STAR, STAR, STAR)) == (0, 0, 0)


def test_majority_extend():
    assert codes.majority_extend(1, 1, 2) == 1
    assert codes.majority_extend(2, 1, 1) == 1
    assert codes.majority_extend(1, 2, 1) == 1
    assert codes.majority_extend(3, 3, 3) == 3
    assert codes.majority_extend(1, 2, 3) == 1


# ---------------------------------------------------------------------------
# Gabidulin codes
# ---------------------------------------------------------------------------


def rank_one_words(rc):
    """Every word of rank <= 1 over the base field: c * (r_0, ..., r_{n-1})
    for c in the extension and r over the base (base elements keep their
    encoding in the extension)."""
    F = rc.ext_field
    return {tuple(F.mul(c, r) for r in row)
            for c in F.elements() for row in gf.digit_tuples(rc.base_field.q, rc.n)}


class BruteForce:
    """The brute-force decoder, as an oracle: try every message and keep
    the one whose codeword is within rank t of the received word.  A word
    has rank <= t when it is a sum of t words of rank <= 1
    (`test_rank_one_words_are_the_words_of_rank_at_most_one` ties this to
    `rank_of_word`); differences come from a table, so that a received
    word costs one pass over the codebook."""

    def __init__(self, rc):
        F = rc.ext_field
        self.rc = rc
        self.sub = [[F.sub(a, b) for b in F.elements()] for a in F.elements()]
        self.book = [(msg, rc.encode(msg)) for msg in gf.digit_tuples(F.q, rc.k)]
        ones = rank_one_words(rc)
        self.balls = [{(0,) * rc.n}]
        for _ in range((rc.n - rc.k) // 2):
            self.balls.append({tuple(F.add(a, b) for a, b in zip(w, o))
                               for w in self.balls[-1] for o in ones})

    def decode(self, received, t):
        rc = self.rc
        if len(received) != rc.n or not 0 <= t <= (rc.n - rc.k) // 2:
            raise InvalidParams("word length or radius out of range")
        ball, sub = self.balls[t], self.sub
        found = [msg for msg, cw in self.book
                 if tuple(sub[y][c] for y, c in zip(received, cw)) in ball]
        if not found:
            raise NoCodewordInRange("no codeword within rank radius")
        assert len(found) == 1      # minimum rank distance n-k+1 > 2t
        return found[0]


def outcome(decode, received, t):
    try:
        return decode(received, t)
    except (NoCodewordInRange, InvalidParams) as error:
        return type(error)


# (q, m, n, k): [3,1] over GF(2^3) and GF(4^3); [4,2] over GF(2^4) and
# GF(3^4); and n < m, [4,2] over GF(2^5).  Each corrects t = 1.
ORACLE_CODES = [(2, 3, 3, 1), (4, 3, 3, 1), (2, 4, 4, 2), (3, 4, 4, 2), (2, 5, 4, 2)]


@functools.cache
def oracle(q, m, n, k):
    return BruteForce(codes.gabidulin(gf.make_field(q), m, n, k))


def add_words(F, *words):
    return tuple(functools.reduce(F.add, symbols) for symbols in zip(*words))


def test_gabidulin_roundtrip_no_errors():
    rc = codes.gabidulin(F2, 3, 3, 1)
    for msg in gf.digit_tuples(rc.ext_field.q, rc.k):
        assert rc.rank_decode(rc.encode(msg), 0) == msg


def test_gabidulin_3_1_min_rank_distance():
    rc = codes.gabidulin(F2, 3, 3, 1)
    words = rc.codewords()
    assert len(words) == 8
    dmin = min(rc.rank_distance(a, b)
               for a, b in itertools.combinations(words, 2))
    assert dmin == 3 == rc.min_rank_distance


def test_gabidulin_corrects_rank_one_errors():
    rc = codes.gabidulin(F2, 3, 3, 1)
    ext = rc.ext_field
    # every rank-1 error word: outer product of a column and a row pattern
    errors = set()
    for col_bits in range(1, 8):
        col = [(col_bits >> d) & 1 for d in range(3)]
        for row_bits in range(1, 8):
            word = []
            for j in range(3):
                on = (row_bits >> j) & 1
                digits = tuple(col[d] if on else 0 for d in range(3))
                word.append(rc.flatten(digits))
            errors.add(tuple(word))
    assert len(errors) == 49
    for msg in gf.digit_tuples(ext.q, rc.k):
        cw = rc.encode(msg)
        for err in errors:
            rec = tuple(ext.add(a, e) for a, e in zip(cw, err))
            assert rc.rank_decode(rec, 1) == msg


def test_gabidulin_ambiguity_guard():
    rc = codes.gabidulin(F2, 3, 3, 1)
    with pytest.raises(InvalidParams):
        rc.rank_decode((0, 0, 0), 2)


def test_gabidulin_over_f4():
    F4 = gf.make_field(4)
    rc = codes.gabidulin(F4, 3, 3, 1)
    words = rc.codewords()
    assert len(words) == 64
    dmin = min(rc.rank_distance(a, b)
               for a, b in itertools.combinations(words, 2))
    assert dmin == 3


def test_rank_decode_rejects_wrong_lengths_and_negative_radius():
    rc = codes.gabidulin(F2, 3, 3, 1)
    cw = rc.encode((1,))
    for word in [(1, 2), (1, 2, 4, 0), ()]:
        with pytest.raises(InvalidParams):
            rc.rank_decode(word, 1)
    with pytest.raises(InvalidParams):
        rc.rank_decode(cw, -1)
    assert rc.rank_decode(cw, 1) == (1,)


def test_rank_distance_rejects_wrong_lengths():
    rc = codes.gabidulin(F2, 3, 3, 1)
    for w1, w2 in [((1, 2, 4), (1, 2)), ((1, 2), (1, 2, 4)), ((1, 2), (1, 2)),
                   ((1, 2, 4, 0), (1, 2, 4, 0))]:
        with pytest.raises(InvalidParams):
            rc.rank_distance(w1, w2)
    assert rc.rank_distance((1, 2, 4), (1, 2, 4)) == 0


@pytest.mark.parametrize("q, m, n", [(2, 3, 3), (3, 2, 2), (4, 2, 2)])
def test_rank_one_words_are_the_words_of_rank_at_most_one(q, m, n):
    rc = codes.gabidulin(gf.make_field(q), m, n, 1)
    every = gf.digit_tuples(rc.ext_field.q, n)
    assert rank_one_words(rc) == {w for w in every if rc.rank_of_word(w) <= 1}


def test_rank_decode_matches_brute_force_on_every_word():
    brute = oracle(2, 3, 3, 1)
    rc = brute.rc
    words = list(gf.digit_tuples(rc.ext_field.q, rc.n)) + [(1, 2), (1, 2, 4, 0)]
    for received in words:
        for t in (-1, 0, 1, 2):
            want = outcome(brute.decode, received, t)
            assert outcome(rc.rank_decode, received, t) == want, (received, t)


@pytest.mark.parametrize("q, m, n, k", ORACLE_CODES)
def test_rank_decode_corrects_every_rank_one_error(q, m, n, k):
    """Every word within rank 1 of one codeword; the brute-force decoder
    returns that codeword's message on all of them, as no two codewords
    are within rank 2 of each other (checked over the whole codebook)."""
    brute = oracle(q, m, n, k)
    rc, F = brute.rc, brute.rc.ext_field
    assert min(rc.rank_of_word(cw) for msg, cw in brute.book if any(msg)) == n - k + 1
    msg, cw = brute.book[len(brute.book) // 3]
    for e in rank_one_words(rc):
        assert rc.rank_decode(add_words(F, cw, e), 1) == msg, e


@pytest.mark.parametrize("q, m, n, k", ORACLE_CODES)
def test_rank_decode_matches_brute_force(q, m, n, k):
    """Inside the radius, just outside it (rank-2 errors) and uniformly
    random words, at t = 0 and t = 1: values and errors agree."""
    brute = oracle(q, m, n, k)
    rc, F = brute.rc, brute.rc.ext_field
    rng = random.Random(q * 1000 + m * 100 + n)
    ones = sorted(rank_one_words(rc))
    raised = 0
    for _ in range(25):
        _, cw = rng.choice(brute.book)
        for received in (add_words(F, cw, rng.choice(ones)),
                         add_words(F, cw, rng.choice(ones), rng.choice(ones)),
                         tuple(rng.randrange(F.q) for _ in range(n))):
            for t in (0, 1):
                want = outcome(brute.decode, received, t)
                assert outcome(rc.rank_decode, received, t) == want, (received, t)
                raised += want is NoCodewordInRange
    assert raised >= 25


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(code=st.sampled_from([(2, 3, 3, 1), (2, 4, 4, 2), (2, 5, 4, 2), (4, 3, 3, 1)]),
       data=st.data())
def test_rank_decode_agrees_with_brute_force_property(code, data):
    brute = oracle(*code)
    rc, F = brute.rc, brute.rc.ext_field
    ones = sorted(rank_one_words(rc))
    _, cw = data.draw(st.sampled_from(brute.book))
    errors = data.draw(st.lists(st.sampled_from(ones), max_size=3))
    t = data.draw(st.integers(0, (rc.n - rc.k) // 2))
    received = add_words(F, cw, *errors)
    assert outcome(rc.rank_decode, received, t) == outcome(brute.decode, received, t)


def random_rank_word(rng, rc, rank):
    """A word of exactly the given rank: a sum of `rank` words of rank one."""
    F = rc.ext_field
    while True:
        word = (0,) * rc.n
        for _ in range(rank):
            c = rng.randrange(1, F.q)
            word = add_words(F, word, tuple(F.mul(c, rng.randrange(rc.base_field.q))
                                            for _ in range(rc.n)))
        if rc.rank_of_word(word) == rank:
            return word


@pytest.mark.parametrize("m, k, t, cases", [(8, 4, 2, 12), (16, 8, 4, 3)])
def test_rank_decode_beyond_brute_force(m, k, t, cases):
    """[8,4] over GF(2^8) has 2^32 messages and [16,8] over GF(2^16) has
    2^128: both decode random rank-t errors."""
    rc = codes.gabidulin(F2, m, m, k)
    F = rc.ext_field
    rng = random.Random(m)
    for _ in range(cases):
        msg = tuple(rng.randrange(F.q) for _ in range(k))
        received = add_words(F, rc.encode(msg), random_rank_word(rng, rc, t))
        assert rc.rank_decode(received, t) == msg
        with pytest.raises(NoCodewordInRange):
            rc.rank_decode(add_words(F, received, random_rank_word(rng, rc, 1)), 0)
