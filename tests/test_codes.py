import itertools
import random

import pytest

from advnet import codes, gf
from advnet.channel import STAR
from advnet.errors import (AmbiguousDecode, FieldTooSmall, InvalidParams,
                           SingletonCode)

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
    assert codes.beta(2, 0, 1).size == 0
    assert codes.beta(2, 3, 5).size == 0
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


def test_gabidulin_roundtrip_no_errors():
    rc = codes.gabidulin(F2, 3, 3, 1)
    for msg in rc.messages():
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
    for msg in rc.messages():
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
