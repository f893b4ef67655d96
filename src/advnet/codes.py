"""Block codes over finite alphabets and fields.

Covers minimum-distance computation, the beta table (largest code of a
given length and minimum distance, measured as a log in the alphabet
size), MDS generator constructions, erasure-aware minimum-distance
decoding, and Gabidulin rank-metric codes with brute-force rank-error
decoding at desk scale.
"""

import itertools
import math
import threading

from . import gf
from .channel import STAR
from .errors import (AmbiguousDecode, FieldTooSmall, InvalidParams,
                     NoCodewordInRange, SearchLimitExceeded, SingletonCode)
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
    """Largest code size (and its log in base a) for given (a, u, d).

    exact is False when only construction/Singleton bounds are available;
    then size/value hold the lower bound and upper_* the Singleton bound.
    """

    __slots__ = ("a", "u", "d", "size", "upper_size", "exact")

    def __init__(self, a, u, d, size, upper_size, exact):
        self.a, self.u, self.d = a, u, d
        self.size = size
        self.upper_size = upper_size
        self.exact = exact

    @property
    def value(self):
        return math.log(self.size, self.a) if self.size else 0.0

    @property
    def upper_value(self):
        return math.log(self.upper_size, self.a) if self.upper_size else 0.0

    def __repr__(self):
        tag = "exact" if self.exact else f"<= {self.upper_value:.4g}"
        return f"beta({self.a},{self.u},{self.d}) = {self.value:.4g} ({tag})"


_beta_memo = {}
_beta_lock = threading.Lock()

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
    """beta(a, u, d): log_a of the largest size of a code of length u with
    minimum distance >= d over an alphabet of size a (0 when no code with
    at least two words exists).  Exact via constructions matching the
    Singleton bound, or exhaustive search when a**u is small; otherwise (or
    when the search budget runs out) a (lower, Singleton-upper) bounded
    value.  Values are memoized per budget, since a budget that runs out
    gives a bounded value where a larger one may give the exact size."""
    if a < 2:
        raise InvalidParams("alphabet size must be >= 2")
    if d < 1:
        raise InvalidParams("distance must be >= 1")
    key = (a, u, d, node_budget)
    with _beta_lock:
        hit = _beta_memo.get(key)
    if hit is not None:
        return hit
    result = _beta_compute(a, u, d, node_budget)
    with _beta_lock:
        _beta_memo.setdefault(key, result)
    return result


def _is_prime_power(a):
    return gf._factor_prime_power(a) is not None


def _beta_compute(a, u, d, node_budget):
    if u == 0 or d > u:
        return BetaValue(a, u, d, 0, 0, True)
    singleton = a ** (u - d + 1)
    if d == 1:
        return BetaValue(a, u, d, a ** u, singleton, True)
    if d == u:
        # the a constant words are pairwise at distance u; Singleton gives a
        return BetaValue(a, u, d, a, singleton, True)
    if d == 2:
        # zero-sum code over Z_a meets the Singleton bound
        return BetaValue(a, u, d, a ** (u - 1), singleton, True)
    if _is_prime_power(a) and u <= a + 1:
        # (extended) Reed-Solomon evaluation code is MDS
        return BetaValue(a, u, d, singleton, singleton, True)
    if a ** u <= EXHAUSTIVE_BETA_LIMIT:
        try:
            size = _beta_exhaustive(a, u, d, node_budget)
            return BetaValue(a, u, d, size, size, True)
        except SearchLimitExceeded:
            pass
    # constructive floor: constant words are pairwise at distance u >= d
    return BetaValue(a, u, d, a, singleton, False)


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
    """Gabidulin code: rows of the generator evaluate the q^i-power maps at
    base-linearly independent points of the extension field.

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
        points = [self._basis_element(j) for j in range(n)]
        rows = []
        for i in range(k):
            e = q ** i
            rows.append(tuple(ext_field.pow(g, e) for g in points))
        self.generator = gf.Matrix(ext_field, tuple(rows))

    def _basis_element(self, j):
        coeffs = [0] * self.m
        coeffs[j] = 1
        return self.flatten(tuple(coeffs))

    def encode(self, message):
        """message: tuple of k extension elements -> codeword of length n."""
        if len(message) != self.k:
            raise InvalidParams(f"message length must be {self.k}")
        return gf.mat_vec_row(self.ext_field, message, self.generator)

    def codewords(self):
        return gf.row_span(self.generator)

    def messages(self):
        return gf.digit_tuples(self.ext_field.q, self.k)

    def rank_of_word(self, word):
        """Rank over the base field of the m x n expansion of a word."""
        mat = self.expand(gf.Matrix(self.ext_field, (tuple(word),)))
        return mat.rank()

    def rank_distance(self, w1, w2):
        F = self.ext_field
        return self.rank_of_word(tuple(F.sub(a, b) for a, b in zip(w1, w2)))

    def rank_decode(self, received, t):
        """The unique message whose codeword lies within rank distance t of
        `received`; brute force over the codeword space."""
        if t > (self.n - self.k) // 2:
            raise InvalidParams("t exceeds the unique-decoding radius")
        found = None
        for msg in self.messages():
            cw = self.encode(msg)
            if self.rank_distance(cw, received) <= t:
                if found is not None:
                    raise AmbiguousDecode("two codewords within rank radius")
                found = msg
        if found is None:
            raise NoCodewordInRange("no codeword within rank radius")
        return found


def gabidulin(field_q, m, n, k):
    """Gabidulin [n, k] code over the degree-m extension of field_q."""
    ext, expand, flatten = gf.make_extension(field_q, m)
    return RankCode(field_q, ext, expand, flatten, m, n, k)
