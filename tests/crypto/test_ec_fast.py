"""Fast-path EC engine tests: every optimised multiplication strategy
must agree with the retained naive ``_jac_multiply`` oracle, on random
scalars and on the edge cases (0, 1, n-1, n, infinity, and the scalars
whose signed-digit recoding carries)."""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import ec
from repro.crypto.drbg import HmacDrbg
from repro.crypto.ec import (
    P256,
    P384,
    FixedBaseTable,
    InvalidPointError,
    Point,
    PointPrecomputeCache,
    get_curve,
    multiply_base,
    multiply_wnaf,
    shamir_multiply_jac,
    verification_multiply,
)

CURVES = [P256, P384]
CURVE_IDS = [c.name for c in CURVES]
EDGE_SCALARS = [0, 1, 2, 3]  # plus n-1, n, n+1 added per curve below
TABLE_WIDTHS = range(2, 9)


def naive(curve, jac, scalar):
    """The oracle: naive double-and-add, normalised to affine."""
    return ec._jac_to_affine(ec._jac_multiply(jac, scalar, curve), curve)


def random_point(curve, seed):
    """A random curve point with a known discrete log kept out of sight."""
    rng = HmacDrbg(seed)
    d = 1 + rng.randint_below(curve.n - 1)
    return ec._jac_to_affine(ec._jac_multiply((curve.gx, curve.gy, 1), d, curve), curve)


def edge_scalars(curve):
    return EDGE_SCALARS + [curve.n - 1, curve.n, curve.n + 1]


def carry_scalars(curve, width):
    """Scalars on the signed recoding's carries: n - 1 carries into the
    top window at every width, 2^bits - 1 mod n runs long carry chains,
    and the scalars with every full window 2^(w-1) (the largest digit
    that does not carry) or 2^(w-1) + 1 (the smallest that does) sit on
    the carry boundary in every window."""
    bits = curve.n.bit_length()
    half = 1 << (width - 1)
    full_windows = range(bits // width)
    return [
        curve.n - 1,
        ((1 << bits) - 1) % curve.n,
        sum(half << (j * width) for j in full_windows),
        sum((half + 1) << (j * width) for j in full_windows),
    ]


@functools.lru_cache(maxsize=None)
def generator_table_of_width(curve, width):
    return FixedBaseTable(curve, curve.gx, curve.gy, width)


@pytest.mark.parametrize("curve", CURVES, ids=CURVE_IDS)
class TestAgreementWithNaive:
    def test_wnaf_on_edge_scalars(self, curve):
        g = (curve.gx, curve.gy, 1)
        for scalar in edge_scalars(curve):
            fast = ec._jac_to_affine(multiply_wnaf(g, scalar, curve), curve)
            assert fast == naive(curve, g, scalar % curve.n), scalar

    def test_fixed_base_table_on_edge_scalars(self, curve):
        g = (curve.gx, curve.gy, 1)
        for width in TABLE_WIDTHS:
            table = generator_table_of_width(curve, width)
            for scalar in edge_scalars(curve) + carry_scalars(curve, width):
                fast = ec._jac_to_affine(table.multiply(scalar), curve)
                assert fast == naive(curve, g, scalar % curve.n), (width, scalar)

    def test_signed_table_layout(self, curve):
        """Rows of d * 2^(jw) * B for d = 1 .. 2^(w-1), and one window
        beyond the n.bit_length() // w full ones for the top carry."""
        bits = curve.n.bit_length()
        for width in TABLE_WIDTHS:
            table = generator_table_of_width(curve, width)
            assert table.windows == len(table._rows) == bits // width + 1
            assert {len(row) for row in table._rows} == {1 << (width - 1)}
        entries = {
            "P-256": (4224, 832), "P-384": (6272, 1232),
        }[curve.name]
        key = FixedBaseTable(curve, *random_point(curve, b"layout"), ec.POINT_TABLE_WIDTH)
        assert (
            sum(map(len, ec.generator_table(curve)._rows)),
            sum(map(len, key._rows)),
        ) == entries

    def test_generator_table_on_edge_scalars(self, curve):
        g = (curve.gx, curve.gy, 1)
        for scalar in edge_scalars(curve):
            fast = ec._jac_to_affine(multiply_base(curve, scalar), curve)
            assert fast == naive(curve, g, scalar % curve.n), scalar

    def test_wnaf_of_infinity_is_infinity(self, curve):
        assert multiply_wnaf(ec._INFINITY, 12345, curve)[2] == 0

    def test_shamir_edge_combinations(self, curve):
        qx, qy = random_point(curve, b"shamir-edge" + curve.name.encode())
        g = (curve.gx, curve.gy, 1)
        for u1 in (0, 1, curve.n - 1):
            for u2 in (0, 1, curve.n - 1):
                joint = ec._jac_to_affine(
                    shamir_multiply_jac(curve, u1, qx, qy, u2), curve
                )
                expected = ec._jac_to_affine(
                    ec._jac_add(
                        ec._jac_multiply(g, u1, curve),
                        ec._jac_multiply((qx, qy, 1), u2, curve),
                        curve,
                    ),
                    curve,
                )
                assert joint == expected, (u1, u2)

    def test_shamir_cancellation_hits_infinity(self, curve):
        """u1*G + u2*Q with Q = G and u2 = n - u1 sums to infinity."""
        u1 = 7
        result = shamir_multiply_jac(curve, u1, curve.gx, curve.gy, curve.n - u1)
        assert result[2] == 0
        assert verification_multiply(curve, u1, curve.gx, curve.gy, curve.n - u1) is None


@settings(max_examples=30, deadline=None)
@given(scalar=st.integers(min_value=0), data=st.data())
def test_wnaf_multiply_matches_naive_on_random_scalars(scalar, data):
    curve = data.draw(st.sampled_from(CURVES))
    g = (curve.gx, curve.gy, 1)
    fast = ec._jac_to_affine(multiply_wnaf(g, scalar, curve), curve)
    assert fast == naive(curve, g, scalar % curve.n)


@settings(max_examples=50, deadline=None)
@given(scalar=st.integers(min_value=0),
       width=st.sampled_from(TABLE_WIDTHS), data=st.data())
def test_fixed_base_matches_naive_on_random_scalars(scalar, width, data):
    curve = data.draw(st.sampled_from(CURVES))
    g = (curve.gx, curve.gy, 1)
    expected = naive(curve, g, scalar % curve.n)
    assert ec._jac_to_affine(multiply_base(curve, scalar), curve) == expected
    table = generator_table_of_width(curve, width)
    assert ec._jac_to_affine(table.multiply(scalar), curve) == expected


@settings(max_examples=20, deadline=None)
@given(u1=st.integers(min_value=0), u2=st.integers(min_value=0),
       seed=st.binary(min_size=1, max_size=8), data=st.data())
def test_shamir_matches_naive_on_random_inputs(u1, u2, seed, data):
    curve = data.draw(st.sampled_from(CURVES))
    qx, qy = random_point(curve, b"shamir-prop" + seed)
    joint = ec._jac_to_affine(shamir_multiply_jac(curve, u1, qx, qy, u2), curve)
    expected = ec._jac_to_affine(
        ec._jac_add(
            ec._jac_multiply((curve.gx, curve.gy, 1), u1, curve),
            ec._jac_multiply((qx, qy, 1), u2, curve),
            curve,
        ),
        curve,
    )
    assert joint == expected


@settings(max_examples=50, deadline=None)
@given(scalar=st.integers(min_value=0), width=st.integers(min_value=2, max_value=8))
def test_wnaf_digits_reconstruct_and_are_nonadjacent(scalar, width):
    digits = ec._wnaf(scalar, width)
    assert sum(d << i for i, d in enumerate(digits)) == scalar
    half = 1 << (width - 1)
    for index, digit in enumerate(digits):
        if digit == 0:
            continue
        assert digit % 2 == 1 or digit % 2 == -1
        assert -half < digit < half
        # non-adjacency: the next width-1 digits are all zero
        assert all(d == 0 for d in digits[index + 1 : index + width])


class TestPointPrecomputeCache:
    def test_hot_key_earns_fixed_table_and_lru_evicts(self):
        cache = PointPrecomputeCache(capacity=2, hot_threshold=2)
        points = [random_point(P256, b"lru%d" % i) for i in range(4)]

        first = cache.lookup(P256, *points[0])
        assert first.fixed is None  # one use: odd multiples only
        assert cache.lookup(P256, *points[0]) is first
        assert first.fixed is not None  # second use crossed hot_threshold
        assert cache.stats()["fixed_tables_built"] == 1

        # Keys without a table evict only each other: capacity 2 holds
        # two of them beside the table.
        cold = cache.lookup(P256, *points[1])
        cache.lookup(P256, *points[2])
        cache.lookup(P256, *points[3])  # evicts points[1], not points[0]
        assert len(cache) == 3
        assert cache.lookup(P256, *points[0]) is first
        evicted = cache.lookup(P256, *points[1])  # rebuilt from scratch
        assert evicted is not cold and evicted.uses == 1
        assert evicted.fixed is None
        assert cache.stats()["fixed_tables_built"] == 1

    def test_one_shot_keys_leave_a_hot_table_alone(self):
        """A rollout's pattern: one hot key among more one-shot keys
        than the cache holds.  The hot key's table is built once."""
        cache = PointPrecomputeCache()
        hot = random_point(P256, b"rollout-hot")
        table = cache.lookup(P256, *hot)
        cache.lookup(P256, *hot)
        assert table.fixed is not None
        for index in range(cache.capacity + 12):
            one_shot = ec._jac_to_affine(multiply_base(P256, 1000 + index), P256)
            assert cache.lookup(P256, *one_shot).fixed is None
        for _ in range(2):
            assert cache.lookup(P256, *hot) is table
        assert cache.stats()["fixed_tables_built"] == 1

    def test_new_hot_key_earns_a_table_when_tables_fill_the_lru(self):
        cache = PointPrecomputeCache(capacity=2, hot_threshold=2)
        old = [random_point(P256, b"old-table%d" % i) for i in range(2)]
        for point in old + old:
            cache.lookup(P256, *point)
        assert cache.stats()["fixed_tables_built"] == 2  # table LRU full

        newcomer = random_point(P256, b"newcomer")
        for index in range(2):
            one_shot = random_point(P256, b"between%d" % index)
            cache.lookup(P256, *one_shot)
            entry = cache.lookup(P256, *newcomer)
        assert entry.fixed is not None
        assert cache.stats()["fixed_tables_built"] == 3
        # The least recently used table made room.
        assert cache.lookup(P256, *old[1]).fixed is not None
        assert cache.lookup(P256, *old[0]).uses == 1

    def test_peek_and_seed_leave_table_building_to_lookup(self):
        """The batch verifier's seam: ``peek`` never builds a table or
        moves a key into the table LRU, ``seed`` files a key without a
        table as one use, and the next ``lookup`` past the threshold
        builds the table once."""
        cache = PointPrecomputeCache(capacity=2, hot_threshold=2)
        key = random_point(P256, b"seeded")
        assert cache.peek(P256, *key) is None  # absent: nothing built
        assert len(cache) == 0

        odd = ec._odd_multiples_affine((key[0], key[1], 1), P256)
        seeded = cache.seed(P256, *key, odd)
        assert (seeded.uses, seeded.fixed) == (1, None)
        assert cache.stats()["misses"] == 1
        assert cache.peek(P256, *key) is seeded
        assert (seeded.uses, seeded.fixed) == (2, None)
        assert cache.stats()["fixed_tables_built"] == 0

        assert cache.lookup(P256, *key) is seeded  # builds the table
        assert cache.lookup(P256, *key).fixed is seeded.fixed is not None
        assert cache.stats()["fixed_tables_built"] == 1

        # A peeked key stays among the keys without a table: seeded
        # one-shot keys evict it and leave the table alone.
        def seed(point):
            cache.seed(P256, *point, ec._odd_multiples_affine((*point, 1), P256))

        peeked = random_point(P256, b"peeked")
        seed(peeked)
        cache.peek(P256, *peeked)
        for index in range(2):
            seed(random_point(P256, b"seed-one-shot%d" % index))
        assert cache.peek(P256, *peeked) is None
        assert cache.peek(P256, *key) is seeded
        assert cache.stats()["fixed_tables_built"] == 1

    def test_verification_multiply_uses_process_cache(self):
        ec.reset_point_cache()
        qx, qy = random_point(P384, b"proc-cache")
        for _ in range(3):
            verification_multiply(P384, 5, qx, qy, 7)
        stats = ec.get_point_cache().stats()
        assert stats == {
            "entries": 1, "hits": 2, "misses": 1, "fixed_tables_built": 1,
        }

    def test_hot_and_cold_paths_agree(self):
        ec.reset_point_cache()
        qx, qy = random_point(P256, b"hot-cold")
        u1, u2 = 0xABCDEF, 0x123456
        cold = verification_multiply(P256, u1, qx, qy, u2)
        hot = verification_multiply(P256, u1, qx, qy, u2)
        assert cold == hot is not None


class TestTrustedConstruction:
    def test_trusted_skips_validation(self):
        off_curve = Point._trusted(P256, 1, 1)
        assert off_curve.x == 1  # no InvalidPointError raised

    def test_public_constructor_still_validates(self):
        with pytest.raises(InvalidPointError):
            Point(P256, 1, 1)

    def test_point_mul_routes_by_base(self):
        g = get_curve("P-256").generator
        assert g.is_generator
        q = 12345 * g
        assert not q.is_generator
        expected = ec._jac_to_affine(
            ec._jac_multiply(q._jacobian(), 3, P256), P256
        )
        product = 3 * q
        assert (product.x, product.y) == expected
