"""Elliptic curve arithmetic over prime fields (short Weierstrass form).

Implements the NIST curves P-256 and P-384 from scratch.  P-384 is what
AMD uses to sign SEV-SNP attestation reports (the VCEK is an ECDSA P-384
key), and P-256 is used for VM/TLS identities where smaller signatures
suffice.

Internally points are manipulated in Jacobian projective coordinates so a
scalar multiplication costs no field inversions until the final
normalisation.

Beyond the textbook double-and-add (retained as :func:`_jac_multiply`, the
reference the property tests and benchmarks compare against), the module
carries a fast-path engine — every trust decision in Revelio bottoms out
here, so scalar multiplication is the system-wide throughput ceiling:

* **wNAF multiplication** (:func:`multiply_wnaf`) — width-5 windowed
  non-adjacent form over precomputed odd multiples, for arbitrary points.
* **Fixed-base tables** (:class:`FixedBaseTable`) — signed-digit
  windowed tables, one class for the generators (width 8, built lazily
  and cached per curve) and for hot public keys (width 5), turning
  ``k * B`` into ~bits/width mixed additions with *no* doublings.  A
  row holds only the positive half of its digits (a negative digit
  negates y), so a table has half the entries of an unsigned one, and
  it is built with mixed additions.  Table entries are batch-normalised
  to affine (one modular inversion for the whole table, Montgomery's
  trick) so every table addition is a cheap mixed add.
* **A per-public-key precompute cache** (:class:`PointPrecomputeCache`)
  — keyed by point, two bounded LRUs.  The first use of a key
  precomputes its wNAF odd multiples; from the second use on, the key
  is considered hot and gets its own fixed-base table, so the keys
  Revelio verifies constantly (VCEK, ASK, ARK, site certificates,
  subnet keys) run at fixed-base speed.  Keys with a table and keys
  without one are kept apart, so the many keys a rollout sees once
  never evict a table.
* **Strauss–Shamir joint multiplication** (:func:`verification_multiply`)
  — ``u1*G + u2*Q`` in one interleaved pass for ECDSA verification,
  sharing the doubling chain between both scalars; hot keys skip the
  doubling chain entirely (both halves table-backed).

Intermediate results stay in Jacobian form throughout the engine and are
normalised exactly once at the boundary; points produced internally are
constructed through :meth:`Point._trusted` and skip the on-curve
revalidation (they are on the curve by construction).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple


class InvalidPointError(ValueError):
    """Raised when coordinates do not lie on the curve."""


@dataclass(frozen=True)
class Curve:
    """Domain parameters of a short Weierstrass curve y^2 = x^3 + ax + b."""

    name: str
    p: int  # field prime
    a: int
    b: int
    gx: int  # generator
    gy: int
    n: int  # group order
    h: int  # cofactor

    @property
    def coordinate_size(self) -> int:
        """Size in bytes of one field element."""
        return (self.p.bit_length() + 7) // 8

    @property
    def generator(self) -> "Point":
        """The curve's base point."""
        return Point(self, self.gx, self.gy)

    def point(self, x: int, y: int) -> "Point":
        """Construct and validate an affine point on this curve."""
        return Point(self, x, y)


P256 = Curve(
    name="P-256",
    p=0xFFFFFFFF00000001000000000000000000000000FFFFFFFFFFFFFFFFFFFFFFFF,
    a=-3,
    b=0x5AC635D8AA3A93E7B3EBBD55769886BC651D06B0CC53B0F63BCE3C3E27D2604B,
    gx=0x6B17D1F2E12C4247F8BCE6E563A440F277037D812DEB33A0F4A13945D898C296,
    gy=0x4FE342E2FE1A7F9B8EE7EB4A7C0F9E162BCE33576B315ECECBB6406837BF51F5,
    n=0xFFFFFFFF00000000FFFFFFFFFFFFFFFFBCE6FAADA7179E84F3B9CAC2FC632551,
    h=1,
)

P384 = Curve(
    name="P-384",
    p=0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFE
    * (1 << 128)
    + 0xFFFFFFFF0000000000000000FFFFFFFF,
    a=-3,
    b=0xB3312FA7E23EE7E4988E056BE3F82D19181D9C6EFE8141120314088F5013875A
    * (1 << 128)
    + 0xC656398D8A2ED19D2A85C8EDD3EC2AEF,
    gx=0xAA87CA22BE8B05378EB1C71EF320AD746E1D3B628BA79B9859F741E082542A38
    * (1 << 128)
    + 0x5502F25DBF55296C3A545E3872760AB7,
    gy=0x3617DE4A96262C6F5D9E98BF9292DC29F8F41DBD289A147CE9DA3113B5F0B8C0
    * (1 << 128)
    + 0x0A60B1CE1D7E819D7A431D7C90EA0E5F,
    n=0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFC7634D81F4372DDF
    * (1 << 128)
    + 0x581A0DB248B0A77AECEC196ACCC52973,
    h=1,
)

CURVES = {curve.name: curve for curve in (P256, P384)}


def get_curve(name: str) -> Curve:
    """Look up a curve by its registered name ("P-256", "P-384")."""
    try:
        return CURVES[name]
    except KeyError:
        raise ValueError(f"unknown curve {name!r}") from None


# Jacobian coordinates: (X, Y, Z) with x = X/Z^2, y = Y/Z^3.
_Jacobian = Tuple[int, int, int]
_Affine = Tuple[int, int]
_INFINITY: _Jacobian = (1, 1, 0)

#: wNAF window width for arbitrary-point multiplication (2^(w-2) = 8
#: precomputed odd multiples per point).
WNAF_WIDTH = 5
#: Window width of the per-generator fixed-base tables (signed digits:
#: 128 entries a row, at most 33 / 49 additions per P-256 / P-384
#: multiply).
GENERATOR_TABLE_WIDTH = 8
#: Window width of per-public-key fixed-base tables (smaller: these are
#: built at runtime for every hot key, so build cost matters).
POINT_TABLE_WIDTH = 5


def _jac_double(point: _Jacobian, curve: Curve) -> _Jacobian:
    x1, y1, z1 = point
    p = curve.p
    if z1 == 0 or y1 == 0:
        return _INFINITY
    ysq = (y1 * y1) % p
    s = (4 * x1 * ysq) % p
    zz = (z1 * z1) % p
    m = (3 * x1 * x1 + curve.a * zz * zz) % p
    x3 = (m * m - 2 * s) % p
    y3 = (m * (s - x3) - 8 * ysq * ysq) % p
    z3 = (2 * y1 * z1) % p
    return x3, y3, z3


def _jac_add(left: _Jacobian, right: _Jacobian, curve: Curve) -> _Jacobian:
    x1, y1, z1 = left
    x2, y2, z2 = right
    p = curve.p
    if z1 == 0:
        return right
    if z2 == 0:
        return left
    z1sq = (z1 * z1) % p
    z2sq = (z2 * z2) % p
    u1 = (x1 * z2sq) % p
    u2 = (x2 * z1sq) % p
    s1 = (y1 * z2sq * z2) % p
    s2 = (y2 * z1sq * z1) % p
    if u1 == u2:
        if s1 != s2:
            return _INFINITY
        return _jac_double(left, curve)
    h = (u2 - u1) % p
    r = (s2 - s1) % p
    hsq = (h * h) % p
    hcu = (h * hsq) % p
    u1hsq = (u1 * hsq) % p
    x3 = (r * r - hcu - 2 * u1hsq) % p
    y3 = (r * (u1hsq - x3) - s1 * hcu) % p
    z3 = (h * z1 * z2) % p
    return x3, y3, z3


def _jac_add_affine(left: _Jacobian, ax: int, ay: int, curve: Curve) -> _Jacobian:
    """Mixed addition: *left* (Jacobian) + an affine point (Z = 1).

    Saves ~6 field multiplications over the general formula; table
    entries are stored affine exactly so additions take this path.
    """
    x1, y1, z1 = left
    p = curve.p
    if z1 == 0:
        return (ax, ay, 1)
    z1sq = (z1 * z1) % p
    u2 = (ax * z1sq) % p
    s2 = (ay * z1sq * z1) % p
    if x1 == u2:
        if y1 != s2:
            return _INFINITY
        return _jac_double(left, curve)
    h = (u2 - x1) % p
    r = (s2 - y1) % p
    hsq = (h * h) % p
    hcu = (h * hsq) % p
    u1hsq = (x1 * hsq) % p
    x3 = (r * r - hcu - 2 * u1hsq) % p
    y3 = (r * (u1hsq - x3) - y1 * hcu) % p
    z3 = (h * z1) % p
    return x3, y3, z3


def _jac_neg(point: _Jacobian, curve: Curve) -> _Jacobian:
    x, y, z = point
    return (x, (-y) % curve.p, z)


def _jac_multiply(point: _Jacobian, scalar: int, curve: Curve) -> _Jacobian:
    """Reference binary double-and-add (the pre-fast-path implementation).

    Kept as the independent oracle the Hypothesis suite and
    ``benchmarks/bench_crypto.py`` compare the wNAF/table/Strauss–Shamir
    paths against.
    """
    if scalar % curve.n == 0 or point[2] == 0:
        return _INFINITY
    scalar = scalar % curve.n
    result = _INFINITY
    addend = point
    while scalar:
        if scalar & 1:
            result = _jac_add(result, addend, curve)
        addend = _jac_double(addend, curve)
        scalar >>= 1
    return result


def _jac_to_affine(point: _Jacobian, curve: Curve) -> Optional[_Affine]:
    x, y, z = point
    if z == 0:
        return None
    p = curve.p
    z_inv = pow(z, -1, p)
    z_inv_sq = (z_inv * z_inv) % p
    return (x * z_inv_sq) % p, (y * z_inv_sq * z_inv) % p


def _jac_x_affine(point: _Jacobian, curve: Curve) -> Optional[int]:
    """Affine x-coordinate only (ECDSA verification needs nothing else)."""
    x, _, z = point
    if z == 0:
        return None
    p = curve.p
    z_inv = pow(z, -1, p)
    return (x * z_inv * z_inv) % p


def _batch_to_affine(points: Sequence[_Jacobian], curve: Curve) -> List[_Affine]:
    """Normalise many Jacobian points with one inversion (Montgomery's
    trick).  Callers guarantee no point at infinity is in the batch."""
    p = curve.p
    prefix: List[int] = []
    acc = 1
    for _, _, z in points:
        prefix.append(acc)
        acc = (acc * z) % p
    inv = pow(acc, -1, p)
    affine: List[Optional[_Affine]] = [None] * len(points)
    for index in range(len(points) - 1, -1, -1):
        x, y, z = points[index]
        z_inv = (inv * prefix[index]) % p
        inv = (inv * z) % p
        z_inv_sq = (z_inv * z_inv) % p
        affine[index] = ((x * z_inv_sq) % p, (y * z_inv_sq * z_inv) % p)
    return affine  # type: ignore[return-value]


# -- wNAF ----------------------------------------------------------------------


def _wnaf(scalar: int, width: int) -> List[int]:
    """Width-*w* non-adjacent form of a non-negative scalar, LSB first.

    Every digit is zero or odd with |digit| < 2^(w-1); at most one in
    any *w* consecutive digits is non-zero.
    """
    digits: List[int] = []
    full = 1 << width
    half = 1 << (width - 1)
    mask = full - 1
    while scalar > 0:
        if scalar & 1:
            digit = scalar & mask
            if digit >= half:
                digit -= full
            digits.append(digit)
            scalar -= digit
        else:
            digits.append(0)
        scalar >>= 1
    return digits


def _odd_multiples_affine(
    point: _Jacobian, curve: Curve, width: int = WNAF_WIDTH
) -> List[_Affine]:
    """[1P, 3P, 5P, ... (2^(w-1)-1)P] normalised to affine in one batch."""
    count = 1 << (width - 2)
    twice = _jac_double(point, curve)
    table = [point]
    for _ in range(count - 1):
        table.append(_jac_add(table[-1], twice, curve))
    return _batch_to_affine(table, curve)


def multiply_wnaf(
    point: _Jacobian,
    scalar: int,
    curve: Curve,
    odd_multiples: Optional[Sequence[_Affine]] = None,
    width: int = WNAF_WIDTH,
) -> _Jacobian:
    """wNAF scalar multiplication; the generic (cold-key) fast path."""
    scalar = scalar % curve.n
    if scalar == 0 or point[2] == 0:
        return _INFINITY
    if odd_multiples is None:
        odd_multiples = _odd_multiples_affine(point, curve, width)
    p = curve.p
    result = _INFINITY
    for digit in reversed(_wnaf(scalar, width)):
        result = _jac_double(result, curve)
        if digit > 0:
            ax, ay = odd_multiples[digit >> 1]
            result = _jac_add_affine(result, ax, ay, curve)
        elif digit < 0:
            ax, ay = odd_multiples[(-digit) >> 1]
            result = _jac_add_affine(result, ax, (-ay) % p, curve)
    return result


# -- fixed-base tables ---------------------------------------------------------


class FixedBaseTable:
    """Signed-digit fixed-base multiplication over a precomputed table
    ``rows[j][d-1] = d * 2^(j*w) * B`` for d = 1 .. 2^(w-1).

    The scalar is recoded into radix-2^w digits in
    [-(2^(w-1) - 1), 2^(w-1)]: a window worth more than 2^(w-1) becomes
    that value minus 2^w and carries one into the next window, and a
    negative digit adds its row entry with y negated.  A multiplication
    is then one mixed addition per non-zero digit — no doublings at
    all.  A scalar below 2^bits carries at most into bit ``bits``, so
    ``bits // w + 1`` windows (one more than an unsigned table needs
    when w divides ``bits``) take every carry, and each row holds half
    the 2^w - 1 entries of an unsigned one.

    Row j is built with mixed additions from its affine base
    ``2^(j*w) * B``.  The next row's base, ``2^w`` times this one's, is
    one doubling of the row's top entry, normalised on its own so the
    next row can use mixed additions too.  The entries are then
    batch-normalised to affine (one inversion for the whole table) so
    every multiplication step is the cheap :func:`_jac_add_affine`.
    """

    __slots__ = ("curve", "width", "windows", "_offset", "_rows")

    def __init__(self, curve: Curve, x: int, y: int, width: int):
        self.curve = curve
        self.width = width
        self.windows = curve.n.bit_length() // width + 1
        per_row = 1 << (width - 1)
        self._offset = sum(
            (per_row - 1) << (window * width) for window in range(self.windows)
        )
        flat: List[_Jacobian] = []
        bx, by = x, y
        for row in range(self.windows):
            entry: _Jacobian = (bx, by, 1)
            flat.append(entry)
            for _ in range(per_row - 1):
                entry = _jac_add_affine(entry, bx, by, curve)
                flat.append(entry)
            if row + 1 < self.windows:
                bx, by = _jac_to_affine(_jac_double(entry, curve), curve)
        affine = _batch_to_affine(flat, curve)
        self._rows: List[List[_Affine]] = [
            affine[row * per_row : (row + 1) * per_row]
            for row in range(self.windows)
        ]

    def multiply(self, scalar: int) -> _Jacobian:
        """``scalar * B`` (scalar reduced mod n), in Jacobian form."""
        curve = self.curve
        p = curve.p
        width = self.width
        mask = (1 << width) - 1
        bias = (1 << (width - 1)) - 1
        # Adding bias to every window (``_offset``) makes the carries of
        # the signed recoding ordinary binary carries: each window of the
        # sum, less bias, is the signed digit.
        scalar = scalar % curve.n + self._offset
        result = _INFINITY
        for row in self._rows:
            digit = (scalar & mask) - bias
            scalar >>= width
            if digit > 0:
                ax, ay = row[digit - 1]
                result = _jac_add_affine(result, ax, ay, curve)
            elif digit:
                ax, ay = row[-digit - 1]
                result = _jac_add_affine(result, ax, (-ay) % p, curve)
        return result


_generator_tables: Dict[str, FixedBaseTable] = {}
_generator_odd_multiples: Dict[str, List[_Affine]] = {}
#: wNAF width for the generator inside Strauss–Shamir: the odd-multiple
#: table is per-curve and built once, so a wider window is free.
GENERATOR_WNAF_WIDTH = 7


def generator_table(curve: Curve) -> FixedBaseTable:
    """The curve's fixed-base generator table (built lazily, cached)."""
    table = _generator_tables.get(curve.name)
    if table is None:
        table = FixedBaseTable(curve, curve.gx, curve.gy, GENERATOR_TABLE_WIDTH)
        _generator_tables[curve.name] = table
    return table


def generator_odd_multiples(curve: Curve) -> List[_Affine]:
    """Cached wNAF odd multiples of the generator (for Strauss–Shamir)."""
    table = _generator_odd_multiples.get(curve.name)
    if table is None:
        table = _odd_multiples_affine(
            (curve.gx, curve.gy, 1), curve, GENERATOR_WNAF_WIDTH
        )
        _generator_odd_multiples[curve.name] = table
    return table


def multiply_base(curve: Curve, scalar: int) -> _Jacobian:
    """``scalar * G`` through the fixed-base table."""
    return generator_table(curve).multiply(scalar)


# -- per-public-key precompute cache -------------------------------------------


class _PointEntry:
    __slots__ = ("odd_multiples", "fixed", "uses")

    def __init__(self, odd_multiples: List[_Affine]):
        self.odd_multiples = odd_multiples
        self.fixed: Optional[FixedBaseTable] = None
        self.uses = 0


#: (curve name, x, y) of an affine point.
_PointKey = Tuple[str, int, int]


class PointPrecomputeCache:
    """Per-point precomputations, keyed by the point, in two bounded LRUs.

    First use of a point builds its wNAF odd multiples (cheap — eight
    additions) and files the entry in the LRU of keys without a table.
    At :attr:`hot_threshold` uses the point earns a private fixed-base
    table, moves to the LRU of keys with one, and its multiplications
    stop doubling entirely.  Each LRU holds up to :attr:`capacity` keys,
    so a key used once can evict only another key without a table.  A
    fleet rollout verifies most of its signatures under keys it sees
    once (a fresh chip or node key per replaced node); in one LRU they
    would push the hot verification keys (VCEK, ASK, ARK, site
    certificates) out and have their tables rebuilt over and over.  A
    newly hot key always gets its table; when the table LRU is full,
    the least recently used table goes.
    """

    def __init__(self, capacity: int = 48, hot_threshold: int = 2):
        self.capacity = capacity
        self.hot_threshold = hot_threshold
        self._tabled: "OrderedDict[_PointKey, _PointEntry]" = OrderedDict()
        self._untabled: "OrderedDict[_PointKey, _PointEntry]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.fixed_builds = 0

    def _touch(self, key: _PointKey) -> Optional[_PointEntry]:
        """The entry for *key*, made most recent in its LRU, if present."""
        for lru in (self._tabled, self._untabled):
            entry = lru.get(key)
            if entry is not None:
                lru.move_to_end(key)
                return entry
        return None

    def _trim(self) -> None:
        for lru in (self._tabled, self._untabled):
            if len(lru) > self.capacity:
                lru.popitem(last=False)

    def lookup(self, curve: Curve, x: int, y: int) -> _PointEntry:
        """The precompute entry for an affine point, building on miss."""
        key = (curve.name, x, y)
        entry = self._touch(key)
        if entry is None:
            self.misses += 1
            entry = _PointEntry(_odd_multiples_affine((x, y, 1), curve))
            self._untabled[key] = entry
        else:
            self.hits += 1
        entry.uses += 1
        if entry.fixed is None and entry.uses >= self.hot_threshold:
            entry.fixed = FixedBaseTable(curve, x, y, POINT_TABLE_WIDTH)
            self.fixed_builds += 1
            self._tabled[key] = self._untabled.pop(key)
        self._trim()
        return entry

    def peek(self, curve: Curve, x: int, y: int) -> Optional[_PointEntry]:
        """The entry for a point if present — never builds anything, and
        never moves a key between the LRUs.

        The batch verifier uses this so cold keys don't get per-point
        odd-multiple builds (it amortises those across the whole batch
        and then :meth:`seed`\\ s the results back in).  A use counted
        here still counts towards the table the next :meth:`lookup`
        builds.
        """
        entry = self._touch((curve.name, x, y))
        if entry is not None:
            self.hits += 1
            entry.uses += 1
        return entry

    def seed(self, curve: Curve, x: int, y: int,
             odd_multiples: List[_Affine]) -> _PointEntry:
        """Insert externally built odd multiples for a point (counted as
        the miss the builder absorbed, and as one use, without a table),
        so later per-signature verifications of the same key start
        warm."""
        key = (curve.name, x, y)
        entry = self._tabled.get(key) or self._untabled.get(key)
        if entry is None:
            self.misses += 1
            entry = _PointEntry(list(odd_multiples))
            self._untabled[key] = entry
            self._trim()
        entry.uses += 1
        return entry

    def __len__(self) -> int:
        return len(self._tabled) + len(self._untabled)

    def stats(self) -> dict:
        """Plain-data counters for benchmarks and the trace layer."""
        return {
            "entries": len(self),
            "hits": self.hits,
            "misses": self.misses,
            "fixed_tables_built": self.fixed_builds,
        }


_point_cache = PointPrecomputeCache()


def get_point_cache() -> PointPrecomputeCache:
    """The process-wide per-public-key precompute cache."""
    return _point_cache


def reset_point_cache(
    capacity: int = 48, hot_threshold: int = 2
) -> PointPrecomputeCache:
    """Install (and return) a fresh process-wide point cache."""
    global _point_cache
    _point_cache = PointPrecomputeCache(capacity, hot_threshold)
    return _point_cache


# -- joint multiplication (ECDSA verification) ---------------------------------


def shamir_multiply_jac(
    curve: Curve,
    u1: int,
    qx: int,
    qy: int,
    u2: int,
    q_odd_multiples: Optional[Sequence[_Affine]] = None,
) -> _Jacobian:
    """Strauss–Shamir joint multiplication ``u1*G + u2*Q``.

    Both wNAF expansions are interleaved over one shared doubling chain,
    so the combination costs barely more than a single multiplication.
    """
    u1 %= curve.n
    u2 %= curve.n
    g_table = generator_odd_multiples(curve)
    if q_odd_multiples is None:
        q_odd_multiples = _odd_multiples_affine((qx, qy, 1), curve)
    d1 = _wnaf(u1, GENERATOR_WNAF_WIDTH)
    d2 = _wnaf(u2, WNAF_WIDTH)
    p = curve.p
    result = _INFINITY
    for index in range(max(len(d1), len(d2)) - 1, -1, -1):
        result = _jac_double(result, curve)
        if index < len(d1):
            digit = d1[index]
            if digit > 0:
                ax, ay = g_table[digit >> 1]
                result = _jac_add_affine(result, ax, ay, curve)
            elif digit < 0:
                ax, ay = g_table[(-digit) >> 1]
                result = _jac_add_affine(result, ax, (-ay) % p, curve)
        if index < len(d2):
            digit = d2[index]
            if digit > 0:
                ax, ay = q_odd_multiples[digit >> 1]
                result = _jac_add_affine(result, ax, ay, curve)
            elif digit < 0:
                ax, ay = q_odd_multiples[(-digit) >> 1]
                result = _jac_add_affine(result, ax, (-ay) % p, curve)
    return result


def verification_multiply_jac(
    curve: Curve, u1: int, qx: int, qy: int, u2: int
) -> _Jacobian:
    """``u1*G + u2*Q`` choosing the fastest available strategy for Q.

    Hot Q (fixed-base table cached): both halves are table-backed mixed
    additions with no doubling chain at all.  Cold Q: one Strauss–Shamir
    pass over its freshly cached odd multiples.
    """
    entry = _point_cache.lookup(curve, qx, qy)
    if entry.fixed is not None:
        return _jac_add(
            generator_table(curve).multiply(u1),
            entry.fixed.multiply(u2),
            curve,
        )
    return shamir_multiply_jac(
        curve, u1, qx, qy, u2, q_odd_multiples=entry.odd_multiples
    )


def verification_multiply(
    curve: Curve, u1: int, qx: int, qy: int, u2: int
) -> Optional[int]:
    """Affine x-coordinate of ``u1*G + u2*Q`` (None for infinity) — the
    single normalisation at the engine boundary."""
    return _jac_x_affine(verification_multiply_jac(curve, u1, qx, qy, u2), curve)


class Point:
    """An affine point on a :class:`Curve`, or the point at infinity.

    Instances are immutable; arithmetic returns new points.
    """

    __slots__ = ("curve", "x", "y")

    def __init__(self, curve: Curve, x: Optional[int], y: Optional[int]):
        self.curve = curve
        self.x = x
        self.y = y
        if not self.is_infinity and not self._on_curve():
            raise InvalidPointError(f"point not on {curve.name}")

    @classmethod
    def infinity(cls, curve: Curve) -> "Point":
        """The point at infinity."""
        return cls(curve, None, None)

    @classmethod
    def _trusted(cls, curve: Curve, x: int, y: int) -> "Point":
        """Internal constructor for points produced by the engine itself:
        on the curve by construction, so the revalidation is skipped."""
        point = object.__new__(cls)
        point.curve = curve
        point.x = x
        point.y = y
        return point

    @property
    def is_infinity(self) -> bool:
        """Whether this is the point at infinity."""
        return self.x is None

    def _on_curve(self) -> bool:
        p = self.curve.p
        lhs = (self.y * self.y) % p
        rhs = (self.x * self.x * self.x + self.curve.a * self.x + self.curve.b) % p
        return lhs == rhs

    def _jacobian(self) -> _Jacobian:
        if self.is_infinity:
            return _INFINITY
        return (self.x, self.y, 1)

    @classmethod
    def _from_jacobian(cls, jac: _Jacobian, curve: Curve) -> "Point":
        affine = _jac_to_affine(jac, curve)
        if affine is None:
            return cls.infinity(curve)
        return cls._trusted(curve, affine[0], affine[1])

    @property
    def is_generator(self) -> bool:
        """Whether this is the curve's base point."""
        return self.x == self.curve.gx and self.y == self.curve.gy

    def __add__(self, other: "Point") -> "Point":
        if self.curve is not other.curve and self.curve != other.curve:
            raise ValueError("points on different curves")
        jac = _jac_add(self._jacobian(), other._jacobian(), self.curve)
        return Point._from_jacobian(jac, self.curve)

    def __mul__(self, scalar: int) -> "Point":
        if not isinstance(scalar, int):
            return NotImplemented
        if self.is_infinity:
            return self
        if self.is_generator:
            jac = multiply_base(self.curve, scalar)
        else:
            jac = multiply_wnaf(self._jacobian(), scalar, self.curve)
        return Point._from_jacobian(jac, self.curve)

    __rmul__ = __mul__

    def __neg__(self) -> "Point":
        if self.is_infinity:
            return self
        return Point._trusted(self.curve, self.x, (-self.y) % self.curve.p)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Point):
            return NotImplemented
        return (
            self.curve.name == other.curve.name
            and self.x == other.x
            and self.y == other.y
        )

    def __hash__(self) -> int:
        return hash((self.curve.name, self.x, self.y))

    def __repr__(self) -> str:
        if self.is_infinity:
            return f"Point({self.curve.name}, infinity)"
        return f"Point({self.curve.name}, x=0x{self.x:x}, y=0x{self.y:x})"

    def encode(self) -> bytes:
        """Uncompressed SEC1 encoding (0x04 || X || Y); infinity is 0x00."""
        if self.is_infinity:
            return b"\x00"
        size = self.curve.coordinate_size
        return b"\x04" + self.x.to_bytes(size, "big") + self.y.to_bytes(size, "big")

    @classmethod
    def decode(cls, curve: Curve, data: bytes) -> "Point":
        """Decode a point produced by :meth:`encode`, validating it."""
        if data == b"\x00":
            return cls.infinity(curve)
        size = curve.coordinate_size
        if len(data) != 1 + 2 * size or data[0] != 0x04:
            raise InvalidPointError("malformed point encoding")
        x = int.from_bytes(data[1 : 1 + size], "big")
        y = int.from_bytes(data[1 + size :], "big")
        if not (0 <= x < curve.p and 0 <= y < curve.p):
            raise InvalidPointError("coordinate out of range")
        return cls(curve, x, y)
