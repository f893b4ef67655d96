"""Finite field arithmetic and matrices over finite fields.

Elements of a field of order q are encoded as the integers 0..q-1.  For a
prime field this is the value mod p.  For an extension of degree n over a
base field of order b, the integer encodes the coefficient vector
(c_0, ..., c_{n-1}) of the polynomial-basis representation via
c_0 + c_1*b + ... + c_{n-1}*b^(n-1).  The modulus is always the monic
irreducible polynomial of the requested degree with the smallest integer
encoding, so tables are reproducible across runs.

Extension towers are built by composing `make_extension`; `expand` and
`flatten` are the mutually inverse base-linear maps between an extension
element and its length-n coefficient column, extended entrywise to matrices
(matrix entries expand to column vectors, stacked per row).

`mat_vec_row` is the one vector-matrix multiply-accumulate: `Matrix @`
runs it once per row, and every linear vertex and encoder calls it.
"""

import itertools

from .errors import NotPrimePower, TooLarge

MAX_FIELD_ORDER = 1 << 16


def digit_tuples(q, n):
    """Little-endian base-q digit tuples (d_0, ..., d_{n-1}) of the integers
    0, 1, ..., q**n - 1, in that order."""
    for word in itertools.product(range(q), repeat=n):
        yield word[::-1]


def _factor_prime_power(q):
    """Return (p, k) with q = p**k, or None if q is not a prime power."""
    if q < 2:
        return None
    for p in range(2, q + 1):
        if p * p > q:
            return (q, 1)
        if q % p:
            continue
        k, m = 0, q
        while m % p == 0:
            m //= p
            k += 1
        return (p, k) if m == 1 else None
    return None


class Field:
    """Common interface for prime and extension fields.

    q       : field order
    p       : characteristic
    zero/one: the encodings 0 and 1
    """

    q = None
    p = None
    zero = 0
    one = 1

    def add(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("zero has no inverse")
        return self.pow(a, self.q - 2)

    def pow(self, a, e):
        if e < 0:
            return self.pow(self.inv(a), -e)
        result = 1
        base = a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def elements(self):
        return range(self.q)

    def __eq__(self, other):
        return isinstance(other, Field) and self.signature == other.signature

    def __hash__(self):
        return hash(self.signature)

    def __repr__(self):
        return f"GF({self.q})"


class PrimeField(Field):
    def __init__(self, p):
        self.q = p
        self.p = p
        self.signature = ("prime", p)

    def add(self, a, b):
        return (a + b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("zero has no inverse")
        return pow(a, self.p - 2, self.p)


class ExtensionField(Field):
    """Degree-n extension of `base`, modulus given as a monic coefficient
    tuple (c_0, ..., c_{n-1}, 1) of base-field encodings."""

    def __init__(self, base, degree, modulus):
        self.base = base
        self.degree = degree
        self.modulus = modulus
        self.q = base.q ** degree
        self.p = base.p
        self.signature = ("ext", base.signature, degree, modulus)
        self._mul_memo = {}
        self._inv_memo = {}

    def digits(self, a):
        """Coefficient tuple (c_0, ..., c_{n-1}) of element a."""
        b = self.base.q
        out = []
        for _ in range(self.degree):
            out.append(a % b)
            a //= b
        return tuple(out)

    def undigits(self, coeffs):
        b = self.base.q
        a = 0
        for c in reversed(coeffs):
            a = a * b + c
        return a

    def add(self, a, b):
        ca, cb = self.digits(a), self.digits(b)
        return self.undigits(tuple(self.base.add(x, y) for x, y in zip(ca, cb)))

    def neg(self, a):
        return self.undigits(tuple(self.base.neg(x) for x in self.digits(a)))

    def mul(self, a, b):
        if a > b:
            a, b = b, a
        key = (a, b)
        hit = self._mul_memo.get(key)
        if hit is not None:
            return hit
        prod = _poly_mul(self.base, self.digits(a), self.digits(b))
        prod = _poly_mod(self.base, prod, self.modulus)
        prod = prod + (0,) * (self.degree - len(prod))
        result = self.undigits(prod)
        if len(self._mul_memo) < (1 << 20):
            self._mul_memo[key] = result
        return result

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("zero has no inverse")
        hit = self._inv_memo.get(a)
        if hit is None:
            hit = self.pow(a, self.q - 2)
            self._inv_memo[a] = hit
        return hit


# -- polynomial helpers over an arbitrary base field ------------------------
# Polynomials are tuples of base-field encodings, lowest degree first,
# normalized to have no trailing zeros (the zero polynomial is ()).


def _poly_trim(c):
    n = len(c)
    while n and c[n - 1] == 0:
        n -= 1
    return tuple(c[:n])


def _poly_mul(F, a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            if bj:
                out[i + j] = F.add(out[i + j], F.mul(ai, bj))
    return _poly_trim(out)


def _poly_mod(F, a, m):
    """Remainder of a modulo the monic polynomial m."""
    a = list(a)
    dm = len(m) - 1
    while len(a) > dm:
        lead = a[-1]
        if lead != 0:
            shift = len(a) - 1 - dm
            for i, mi in enumerate(m[:-1]):
                if mi:
                    a[shift + i] = F.sub(a[shift + i], F.mul(lead, mi))
        a.pop()
    return _poly_trim(a)


def _poly_divides(F, d, a):
    """Whether polynomial d divides a (d monic after scaling)."""
    lead_inv = F.inv(d[-1])
    monic = tuple(F.mul(c, lead_inv) for c in d)
    return not _poly_mod(F, a, monic)


def _is_irreducible(F, m):
    """Trial division by every monic polynomial of degree 1..deg(m)//2."""
    deg = len(m) - 1
    if deg <= 0:
        return False
    if deg == 1:
        return True
    for d in range(1, deg // 2 + 1):
        for low in digit_tuples(F.q, d):
            if _poly_divides(F, low + (1,), m):  # monic
                return False
    return True


def _smallest_irreducible(base, degree):
    """Monic irreducible of given degree over base with the smallest integer
    encoding of its non-leading coefficients."""
    for low in digit_tuples(base.q, degree):
        cand = low + (1,)
        if _is_irreducible(base, cand):
            return cand
    raise AssertionError("no irreducible polynomial found")  # unreachable


_field_cache = {}


def make_field(q):
    """Field of order q (a prime power).  Deterministic construction:
    extensions use the smallest irreducible modulus over the prime field."""
    if q > MAX_FIELD_ORDER:
        raise TooLarge(f"field order {q} exceeds limit {MAX_FIELD_ORDER}")
    cached = _field_cache.get(q)
    if cached is not None:
        return cached
    pk = _factor_prime_power(q)
    if pk is None:
        raise NotPrimePower(f"{q} is not a prime power")
    p, k = pk
    if k == 1:
        field = PrimeField(p)
    else:
        field, _, _ = make_extension(PrimeField(p), k)
    _field_cache[q] = field
    return field


_extension_cache = {}


def make_extension(base, degree):
    """Extension of `base` of the given degree.

    Returns (field, expand, flatten) where expand maps an extension element
    to its length-`degree` coefficient tuple over the base (and a matrix to
    its entrywise column expansion), and flatten is the inverse.
    """
    if degree < 1:
        raise TooLarge("extension degree must be >= 1")
    if base.q ** degree > MAX_FIELD_ORDER:
        raise TooLarge(f"extension order {base.q ** degree} exceeds limit {MAX_FIELD_ORDER}")
    key = (base.signature, degree)
    cached = _extension_cache.get(key)
    if cached is not None:
        return cached

    if degree == 1:
        field = base

        def expand(x):
            if isinstance(x, Matrix):
                return Matrix(base, tuple(tuple(row) for row in x.rows))
            return (x,)

        def flatten(v):
            if isinstance(v, Matrix):
                return Matrix(base, tuple(tuple(row) for row in v.rows))
            return v[0]

    else:
        modulus = _smallest_irreducible(base, degree)
        field = ExtensionField(base, degree, modulus)

        def expand(x, _f=field):
            if isinstance(x, Matrix):
                rows = []
                for row in x.rows:
                    cols = [_f.digits(entry) for entry in row]
                    for d in range(degree):
                        rows.append(tuple(c[d] for c in cols))
                return Matrix(base, tuple(rows))
            return _f.digits(x)

        def flatten(v, _f=field):
            if isinstance(v, Matrix):
                if v.nrows % degree:
                    raise ValueError("row count not divisible by extension degree")
                rows = []
                for i in range(v.nrows // degree):
                    block = v.rows[i * degree:(i + 1) * degree]
                    rows.append(tuple(_f.undigits(tuple(block[d][j] for d in range(degree)))
                                      for j in range(v.ncols)))
                return Matrix(_f, tuple(rows))
            return _f.undigits(tuple(v))

    result = (field, expand, flatten)
    _extension_cache[key] = result
    return result


class Matrix:
    """Immutable matrix over a Field; entries are field encodings."""

    __slots__ = ("field", "rows", "nrows", "ncols")

    def __init__(self, field, rows):
        self.field = field
        self.rows = tuple(tuple(r) for r in rows)
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0
        if any(len(r) != self.ncols for r in self.rows):
            raise ValueError("ragged rows")

    @classmethod
    def zeros(cls, field, nrows, ncols):
        return cls(field, tuple((0,) * ncols for _ in range(nrows)))

    @classmethod
    def identity(cls, field, n):
        return cls(field, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.field == other.field
                and self.rows == other.rows)

    def __hash__(self):
        return hash((self.field.signature, self.rows))

    def __sub__(self, other):
        F = self.field
        return Matrix(F, tuple(tuple(F.sub(a, b) for a, b in zip(ra, rb))
                               for ra, rb in zip(self.rows, other.rows)))

    def __matmul__(self, other):
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        return Matrix(self.field, tuple(mat_vec_row(self.field, row, other)
                                        for row in self.rows))

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def vstack(self, other):
        return Matrix(self.field, self.rows + other.rows)

    def submatrix(self, row_idx=None, col_idx=None):
        rows = self.rows if row_idx is None else [self.rows[i] for i in row_idx]
        if col_idx is not None:
            rows = [tuple(r[j] for j in col_idx) for r in rows]
        return Matrix(self.field, tuple(rows))

    def lift(self, bigger_field):
        """Reinterpret entries in an extension whose base encoding embeds
        this field's encodings (constant polynomials keep their code)."""
        return Matrix(bigger_field, self.rows)

    def _rref(self):
        """Row-reduce; returns (R, ops, pivots) with ops @ self == R."""
        F = self.field
        a = [list(r) for r in self.rows]
        ops = [[1 if i == j else 0 for j in range(self.nrows)] for i in range(self.nrows)]
        pivots = []
        r = 0
        for c in range(self.ncols):
            pivot = next((i for i in range(r, self.nrows) if a[i][c]), None)
            if pivot is None:
                continue
            a[r], a[pivot] = a[pivot], a[r]
            ops[r], ops[pivot] = ops[pivot], ops[r]
            inv = F.inv(a[r][c])
            a[r] = [F.mul(inv, x) for x in a[r]]
            ops[r] = [F.mul(inv, x) for x in ops[r]]
            for i in range(self.nrows):
                if i != r and a[i][c]:
                    f = a[i][c]
                    a[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(a[i], a[r])]
                    ops[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(ops[i], ops[r])]
            pivots.append(c)
            r += 1
            if r == self.nrows:
                break
        return (Matrix(F, tuple(tuple(x) for x in a)),
                Matrix(F, tuple(tuple(x) for x in ops)), pivots)

    def rank(self):
        return len(self._rref()[2])

    def right_inverse(self):
        """Matrix R with self @ R == identity, or None if rank < nrows."""
        _, ops, pivots = self._rref()
        if len(pivots) < self.nrows:
            return None
        out = [[0] * self.nrows for _ in range(self.ncols)]
        for j, pcol in enumerate(pivots):
            out[pcol] = list(ops.rows[j])
        return Matrix(self.field, tuple(tuple(r) for r in out))

    def __repr__(self):
        return f"Matrix({self.field!r}, {self.nrows}x{self.ncols})"


def row_span(generator):
    """All row-space vectors of a generator matrix, as tuples (message order
    is the mixed-radix enumeration of message vectors)."""
    F = generator.field
    return [mat_vec_row(F, msg, generator)
            for msg in digit_tuples(F.q, generator.nrows)]


def mat_vec_row(F, row, matrix):
    """row (length k) times a k x n matrix, as a tuple of length n.

    The one vector-matrix multiply-accumulate: `Matrix.__matmul__`,
    `network.LinearVertex` and every encoder run through it."""
    if len(row) != matrix.nrows:
        raise ValueError(f"vector of length {len(row)} @ {matrix.shape} matrix")
    add, mul = F.add, F.mul
    acc = [0] * matrix.ncols
    for v, coeffs in zip(row, matrix.rows):
        if v:
            for j, c in enumerate(coeffs):
                if c:
                    acc[j] = add(acc[j], mul(v, c))
    return tuple(acc)
