"""Block codes over finite alphabets and fields.

Covers minimum-distance computation, the beta table (largest code of a
given length and minimum distance, as exact code sizes), MDS generator
constructions, erasure-aware minimum-distance decoding, and Gabidulin
rank-metric codes with Welch-Berlekamp rank-error decoding (Loidreau, "A
Welch-Berlekamp like algorithm for decoding Gabidulin codes", 2006).
"""

import functools
import itertools

from . import gf
from .channel import STAR, BaseValue
from .errors import (FieldTooSmall, InvalidParams, NoCodewordInRange,
                     SearchLimitExceeded, SingletonCode)
from .search import max_independent_set


class BlockCode:
    """A code of fixed length over a finite alphabet.

    Either an explicit codeword list or a generator matrix (linear case;
    codewords are the row space).
    """

    def __init__(self, alphabet, length, codewords=None, generator=None, field=None):
        self.alphabet = tuple(alphabet)
        self.length = length
        self.generator = generator
        self.field = field
        if codewords is None:
            if generator is None:
                raise InvalidParams("need codewords or a generator")
            codewords = gf.row_span(generator)
        self.codewords = tuple(sorted(set(tuple(w) for w in codewords)))
        if not self.codewords:
            raise InvalidParams("a code must be non-empty")
        if any(len(w) != length for w in self.codewords):
            raise InvalidParams("codeword length mismatch")
        self._min_distance = None

    @classmethod
    def from_generator(cls, field, generator):
        return cls(tuple(field.elements()), generator.ncols,
                   generator=generator, field=field)

    def __len__(self):
        return len(self.codewords)

    def min_distance(self):
        if self._min_distance is None:
            self._min_distance = min_distance(self)
        return self._min_distance


def hamming_distance(x, y):
    return sum(1 for a, b in zip(x, y) if a != b)


def min_distance(code):
    """Exact minimum pairwise Hamming distance (|C| >= 2)."""
    words = code.codewords if isinstance(code, BlockCode) else tuple(code)
    if len(words) < 2:
        raise SingletonCode("minimum distance needs at least two codewords")
    return min(hamming_distance(x, y)
               for x, y in itertools.combinations(words, 2))


# -- the beta table ----------------------------------------------------------

class BetaValue:
    """Largest code size for given (a, u, d) as exact counts: size, of a
    code in hand, and upper_size, the Singleton bound where exact is False.
    `value`/`upper_value` read their logs in base a through `BaseValue`.
    """

    __slots__ = ("a", "u", "d", "size", "upper_size", "exact")

    def __init__(self, a, u, d, size, upper_size, exact):
        self.a, self.u, self.d = a, u, d
        self.size = size
        self.upper_size = upper_size
        self.exact = exact

    @property
    def value(self):
        return BaseValue(0, self.a, count=self.size).value

    @property
    def upper_value(self):
        return BaseValue(0, self.a, count=self.upper_size).value

    def __repr__(self):
        tag = "exact" if self.exact else f"<= {self.upper_value:.4g}"
        return f"beta({self.a},{self.u},{self.d}) = {self.value:.4g} ({tag})"


EXHAUSTIVE_BETA_LIMIT = 1 << 12


def _beta_exhaustive(a, u, d, node_budget):
    """Largest code with min distance >= d; every maximum code can be
    relabelled per-coordinate to contain the zero word, so search only
    extensions of 0."""
    far = [w for w in gf.digit_tuples(a, u) if sum(1 for c in w if c) >= d]
    n = len(far)
    adj = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if hamming_distance(far[i], far[j]) < d:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    size, _ = max_independent_set(adj, node_budget=node_budget)
    return 1 + size


def beta(a, u, d, node_budget=300_000):
    """beta(a, u, d): the largest size of a code of length u with minimum
    distance >= d over an alphabet of size a (1 when no two words fit).
    Exact via constructions matching the Singleton bound, or exhaustive
    search when a**u is small; otherwise a (lower, Singleton-upper) bounded
    value.  The inexact lower bound is the a constant words, or, when the
    search budget runs out, the zero word plus the search's incumbent if
    that code is larger.  Memoized per budget,
    since a larger budget may give the exact size where a smaller one ran out."""
    if a < 2:
        raise InvalidParams("alphabet size must be >= 2")
    if d < 1:
        raise InvalidParams("distance must be >= 1")
    return _beta_compute(a, u, d, node_budget)


@functools.cache
def _beta_compute(a, u, d, node_budget):
    if u == 0 or d > u:
        return BetaValue(a, u, d, 1, 1, True)
    singleton = a ** (u - d + 1)
    if d == 1:
        return BetaValue(a, u, d, a ** u, singleton, True)
    if d == u:
        # the a constant words are pairwise at distance u; Singleton gives a
        return BetaValue(a, u, d, a, singleton, True)
    if d == 2:
        # zero-sum code over Z_a meets the Singleton bound
        return BetaValue(a, u, d, a ** (u - 1), singleton, True)
    if gf._factor_prime_power(a) is not None and u <= a + 1:
        # (extended) Reed-Solomon evaluation code is MDS
        return BetaValue(a, u, d, singleton, singleton, True)
    # constructive floor: constant words are pairwise at distance u >= d
    floor = a
    if a ** u <= EXHAUSTIVE_BETA_LIMIT:
        try:
            size = _beta_exhaustive(a, u, d, node_budget)
            return BetaValue(a, u, d, size, size, True)
        except SearchLimitExceeded as exc:
            floor = max(a, 1 + len(exc.incumbent))
    return BetaValue(a, u, d, floor, singleton, False)


# -- MDS generators ----------------------------------------------------------

def mds_generator(field, n, k):
    """Generator of an [n, k] code with minimum distance n-k+1.

    k = 1 (repetition) and k = n (identity) work over any field; otherwise
    the Reed-Solomon evaluation construction covers n <= field.q, and the
    extended construction (an extra coefficient coordinate) covers
    n = field.q + 1.
    """
    if not 1 <= k <= n:
        raise InvalidParams(f"need 1 <= k <= n, got k={k}, n={n}")
    if k == n:
        return gf.Matrix.identity(field, n)
    if k == 1:
        return gf.Matrix(field, ((1,) * n,))
    if n > field.q + 1:
        raise FieldTooSmall(
            f"Reed-Solomon needs n <= q+1; got n={n} over GF({field.q})")
    extended = n == field.q + 1
    points = list(range(field.q if extended else n))
    rows = []
    for i in range(k):
        row = [field.pow(x, i) for x in points]
        if extended:
            row.append(1 if i == k - 1 else 0)
        rows.append(tuple(row))
    return gf.Matrix(field, tuple(rows))


# -- decoding ----------------------------------------------------------------

def discrepancy_on_known(codeword, received):
    """Disagreements on the non-erased coordinates."""
    return sum(1 for c, r in zip(codeword, received) if r != STAR and r != c)


def decode_hamming(code, received):
    """Minimum-discrepancy decoding with erasures; total by construction
    (lexicographically smallest codeword wins ties)."""
    best = None
    best_disc = None
    for w in code.codewords:
        disc = discrepancy_on_known(w, received)
        if best_disc is None or disc < best_disc:
            best, best_disc = w, disc
    return best


def majority_extend(x5, x6, x7):
    """Majority vote among three symbols; falls back to the first argument
    when all three differ."""
    if x5 == x6 or x5 == x7:
        return x5
    if x6 == x7:
        return x6
    return x5


# -- Gabidulin rank-metric codes ----------------------------------------------

class RankCode:
    """Gabidulin code: the codeword of a message f = (f_0, ..., f_{k-1}) is
    the linearized polynomial f(x) = sum_i f_i x^(q^i) evaluated at the
    base-linearly independent points g_j = basis element j of the
    extension field; rows of the generator are (g_j^(q^i))_j.

    base_field : the small field F_q over which rank is measured
    ext_field  : F_{q^m}; codeword symbols live here
    n <= m     : code length; k: dimension; min rank distance n-k+1
    """

    def __init__(self, base_field, ext_field, expand, flatten, m, n, k):
        if not (1 <= k <= n <= m):
            raise InvalidParams(f"need 1 <= k <= n <= m, got k={k} n={n} m={m}")
        self.base_field = base_field
        self.ext_field = ext_field
        self.expand = expand
        self.flatten = flatten
        self.m, self.n, self.k = m, n, k
        self.min_rank_distance = n - k + 1
        q = base_field.q
        self.points = tuple(flatten(tuple(1 if i == j else 0 for i in range(m)))
                            for j in range(n))
        # g_j^(q^l) for l < n: the generator's rows (l < k), and the decoder's
        self._point_powers = tuple(tuple(ext_field.pow(g, q ** l) for g in self.points)
                                   for l in range(n))
        self.generator = gf.Matrix(ext_field, self._point_powers[:k])

    def encode(self, message):
        """message: tuple of k extension elements -> codeword of length n."""
        if len(message) != self.k:
            raise InvalidParams(f"message length must be {self.k}")
        return gf.mat_vec_row(self.ext_field, message, self.generator)

    def codewords(self):
        return gf.row_span(self.generator)

    def _check_length(self, word):
        if len(word) != self.n:
            raise InvalidParams(f"word length must be {self.n}, got {len(word)}")

    def rank_of_word(self, word):
        """Rank over the base field of the m x n expansion of a word."""
        mat = self.expand(gf.Matrix(self.ext_field, (tuple(word),)))
        return mat.rank()

    def rank_distance(self, w1, w2):
        self._check_length(w1)
        self._check_length(w2)
        F = self.ext_field
        return self.rank_of_word(tuple(F.sub(a, b) for a, b in zip(w1, w2)))

    def rank_decode(self, received, t):
        """The unique message whose codeword lies within rank distance t of
        `received`; raises NoCodewordInRange when there is none.

        Welch-Berlekamp: find a nonzero pair of linearized polynomials V of
        q-degree <= t and N of q-degree <= k+t-1 with V(y_j) + N(g_j) = 0
        for every j, a null vector of an n x (2t+k+1) system.  When y is
        within rank t of the codeword of f, every nonzero pair has
        N = (-V) o f, since 2t < n-k+1; f is then N right-divided by -V.
        The result is returned only if its codeword is within rank t of y."""
        self._check_length(received)
        if not 0 <= t <= (self.n - self.k) // 2:
            raise InvalidParams(f"need 0 <= t <= {(self.n - self.k) // 2}, got t={t}")
        F, q, k = self.ext_field, self.base_field.q, self.k
        powers = [tuple(received)]          # y_j^(q^i) for i <= t
        for _ in range(t):
            powers.append(tuple(F.pow(y, q) for y in powers[-1]))
        system = gf.Matrix(F, tuple(zip(*powers, *self._point_powers[:k + t])))
        reduced, pivots = system._rref()
        free = next((c for c in range(system.ncols) if c not in pivots), None)
        if free is None:
            raise NoCodewordInRange("no codeword within rank radius")
        solution = [0] * system.ncols
        solution[free] = 1
        for row, c in zip(reduced.rows, pivots):
            solution[c] = F.neg(row[free])
        v = [F.neg(c) for c in solution[:t + 1]]
        message = self._right_divide(solution[t + 1:], v)[:k]
        if self.rank_distance(self.encode(message), received) > t:
            raise NoCodewordInRange("no codeword within rank radius")
        return message

    def _right_divide(self, numer, v):
        """Coefficients of f with numer = v o f + r, r of q-degree below
        that of v, found top-down: the top term of v o (c x^(q^l)) is
        v_d c^(q^d) x^(q^(d+l)), and c = (numer_{d+l} / v_d)^(q^(m-d))."""
        F, q = self.ext_field, self.base_field.q
        d = max(i for i, c in enumerate(v) if c)
        lead_inv = F.inv(v[d])
        unfrobenius = q ** ((self.m - d) % self.m)
        rem = list(numer)
        f = [0] * (len(rem) - d)
        for l in range(len(f) - 1, -1, -1):
            c = F.pow(F.mul(rem[d + l], lead_inv), unfrobenius)
            if c:
                f[l] = c
                for i, vi in enumerate(v[:d + 1]):
                    if vi:
                        rem[i + l] = F.sub(rem[i + l], F.mul(vi, F.pow(c, q ** i)))
        return tuple(f)


def gabidulin(field_q, m, n, k):
    """Gabidulin [n, k] code over the degree-m extension of field_q."""
    ext, expand, flatten = gf.make_extension(field_q, m)
    return RankCode(field_q, ext, expand, flatten, m, n, k)
