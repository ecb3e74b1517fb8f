"""Group layer: toy group vs bare modular arithmetic, the production
curve vs an independent affine implementation and vs the 4-bit ladder
it used before GLV, encodings, counters."""

import functools
import hashlib
import random
import runpy
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from hsc import group as group_module
from hsc.group import (
    GroupElement,
    NonCanonicalScalarError,
    OffGroupError,
    Secp256k1Group,
    ToyGroup,
    WrongLengthError,
    make_group,
)

# -- independent oracles -------------------------------------------------------


def egcd_inverse(a: int, q: int) -> int:
    """Extended Euclid, kept free of the library's pow() shortcut."""
    old_r, r = a % q, q
    old_s, s = 1, 0
    while r:
        quot = old_r // r
        old_r, r = r, old_r - quot * r
        old_s, s = s, old_s - quot * s
    assert old_r == 1, "not invertible"
    return old_s % q


_P = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEFFFFFC2F


def affine_add(p1, p2):
    """Textbook affine secp256k1 addition; independent of the library's
    Jacobian path."""
    if p1 is None:
        return p2
    if p2 is None:
        return p1
    if p1[0] == p2[0] and (p1[1] + p2[1]) % _P == 0:
        return None
    if p1 == p2:
        lam = 3 * p1[0] * p1[0] * egcd_inverse(2 * p1[1], _P) % _P
    else:
        lam = (p2[1] - p1[1]) * egcd_inverse((p2[0] - p1[0]) % _P, _P) % _P
    x3 = (lam * lam - p1[0] - p2[0]) % _P
    return (x3, (lam * (p1[0] - x3) - p1[1]) % _P)


def affine_mul(k, point):
    acc = None
    while k:
        if k & 1:
            acc = affine_add(acc, point)
        point = affine_add(point, point)
        k >>= 1
    return acc


# -- toy group exhaustive against modular arithmetic ---------------------------


@pytest.mark.parametrize("q", [13, 101])
class TestToyAgainstModularOracle:
    def test_add_sub_exhaustive(self, q):
        toy = ToyGroup(q)
        for a in range(q):
            for b in range(q):
                assert (toy.element(a) + toy.element(b)).value == (a + b) % q
                assert (toy.element(a) - toy.element(b)).value == (a - b) % q

    def test_mul_exhaustive(self, q):
        toy = ToyGroup(q)
        for k in range(q):
            for x in range(q):
                assert (k * toy.element(x)).value == k * x % q

    def test_scalar_field_exhaustive(self, q):
        toy = ToyGroup(q)
        for a in range(q):
            for b in range(q):
                assert int(toy.scalar(a) + toy.scalar(b)) == (a + b) % q
                assert int(toy.scalar(a) - toy.scalar(b)) == (a - b) % q
                assert int(toy.scalar(a) * toy.scalar(b)) == a * b % q

    def test_invert_against_egcd(self, q):
        toy = ToyGroup(q)
        for a in range(1, q):
            assert int(toy.scalar(a).invert()) == egcd_inverse(a, q)


class TestScalarOps:
    def test_worked_inverse(self):
        toy = ToyGroup(13)
        assert int(toy.scalar(5).invert()) == 8  # 5*8 = 40 = 1 mod 13

    def test_additive_identity(self):
        toy = ToyGroup(13)
        for a in range(13):
            assert toy.scalar(a) + toy.scalar(0) == toy.scalar(a)

    def test_worked_mul(self):
        toy = ToyGroup(13)
        assert int((toy.scalar(9) - toy.scalar(7)) * toy.scalar(5)) == 10

    def test_invert_zero_raises(self):
        toy = ToyGroup(13)
        with pytest.raises(ZeroDivisionError):
            toy.scalar(0).invert()

    def test_cross_group_mixing_rejected(self):
        with pytest.raises(ValueError):
            ToyGroup(13).scalar(1) + ToyGroup(101).scalar(1)

    @given(a=st.integers(0, 100), b=st.integers(0, 100), c=st.integers(0, 100))
    def test_field_laws_q101(self, a, b, c):
        s = ToyGroup(101).scalar
        assert (s(a) + s(b)) + s(c) == s(a) + (s(b) + s(c))
        assert s(a) * (s(b) + s(c)) == s(a) * s(b) + s(a) * s(c)
        if a % 101:
            assert s(a) * s(a).invert() == s(1)


class TestScalarRandom:
    def test_toy_draws_nonzero_in_range(self):
        toy = ToyGroup(13)
        rng = random.Random(1)
        draws = {int(toy.random_scalar(rng)) for _ in range(10_000)}
        assert draws == set(range(1, 13))

    def test_seeded_determinism(self):
        toy = ToyGroup(13)
        a = [int(toy.random_scalar(random.Random(7))) for _ in range(20)]
        b = [int(toy.random_scalar(random.Random(7))) for _ in range(20)]
        assert a == b

    def test_production_range(self, secp):
        rng = random.Random(2)
        q = secp.descriptor.q
        assert all(0 < int(secp.random_scalar(rng)) < q for _ in range(10_000))

    def test_no_rng_draws_from_the_os_csprng(self):
        toy = ToyGroup(13)
        draws = [int(toy.random_scalar()) for _ in range(2_000)]
        assert set(draws) == set(range(1, 13))


class TestPointOps:
    def test_worked_toy_mul(self):
        toy = ToyGroup(13)
        assert (7 * toy.element(6)).value == 3  # 42 mod 13

    def test_identity_scalar(self, secp, rng):
        X = secp.random_scalar(rng) * secp.generator()
        assert 1 * X == X
        assert (0 * X).is_identity()

    def test_worked_toy_add(self):
        toy = ToyGroup(13)
        assert (toy.element(2) + toy.element(2)).value == 4

    def test_add_identity_and_self_cancel(self, secp, rng):
        X = secp.random_scalar(rng) * secp.generator()
        assert X + secp.identity() == X
        assert (X - X).is_identity()

    @given(a=st.integers(0, 100), b=st.integers(0, 100), x=st.integers(0, 100))
    def test_distributivity_toy(self, a, b, x):
        toy = ToyGroup(101)
        X = toy.element(x)
        assert (toy.scalar(a) + toy.scalar(b)) * X == a * X + b * X

    @settings(max_examples=10, deadline=None)
    @given(a=st.integers(1, 2**256), b=st.integers(1, 2**256))
    def test_distributivity_production(self, secp, a, b):
        X = secp.generator()
        assert (secp.scalar(a) + secp.scalar(b)) * X == a * X + b * X

    @settings(max_examples=10, deadline=None)
    @given(a=st.integers(1, 2**255))
    def test_invert_undoes_mul(self, secp, a):
        s = secp.scalar(a)
        if s.is_zero():
            return
        X = secp.generator()
        assert s.invert() * (s * X) == X


class TestSecpAgainstAffineOracle:
    def test_mul_matches_affine_double_and_add(self, secp, rng):
        G = secp.generator()
        for _ in range(12):
            k = rng.randrange(1, secp.descriptor.q)
            assert (k * G).value == affine_mul(k, G.value)

    def test_mul_on_non_generator_base(self, secp, rng):
        X = rng.randrange(2, 2**64) * secp.generator()
        for _ in range(6):
            k = rng.randrange(1, secp.descriptor.q)
            assert (k * X).value == affine_mul(k, X.value)

    def test_add_matches_affine(self, secp, rng):
        G = secp.generator()
        X = rng.randrange(2, 2**64) * G
        Y = rng.randrange(2, 2**64) * G
        assert (X + Y).value == affine_add(X.value, Y.value)
        assert (X + X).value == affine_add(X.value, X.value)

    def test_order_annihilates(self, secp):
        q = secp.descriptor.q
        G = secp.generator()
        assert (q * G).is_identity()
        assert (q - 1) * G == -G


class TestEncodings:
    def test_identity_roundtrips(self, secp):
        for group in (secp, ToyGroup(13)):
            data = group.encode_element(group.identity())
            assert len(data) == group.descriptor.element_len
            assert group.decode_element(data).is_identity()

    def test_toy_fixed_width_big_endian(self):
        toy = ToyGroup(13)
        assert toy.encode_element(toy.element(7)) == b"\x07"
        assert toy.decode_element(b"\x07").value == 7

    def test_production_roundtrip_1000(self, secp, rng):
        G = secp.generator()
        for _ in range(1000):
            X = secp.random_scalar(rng) * G
            assert secp.decode_element(secp.encode_element(X)) == X

    def test_scalar_roundtrip(self, secp, rng):
        for _ in range(200):
            s = secp.random_scalar(rng)
            assert secp.decode_scalar(secp.encode_scalar(s)) == s

    def test_equality_across_group_instances(self, secp, rng):
        other = Secp256k1Group()
        X = 7 * secp.generator()
        assert other.decode_element(secp.encode_element(X)) == X


class TestHeldJacobianValues:
    """A secp256k1 element may hold a Jacobian triple: it equals, hashes
    and encodes like the element of its affine point, in its own group
    instance and in another, and it is made affine once."""

    def test_equal_hash_and_encode_like_the_affine_twin(self, secp, inversions):
        other = Secp256k1Group()
        rng = random.Random(101)
        pairs = []
        for X in _kernel_points():
            held = GroupElement(secp, _jacobian(X, rng.randrange(2, _P)))
            twins = [GroupElement(secp, X), GroupElement(other, X),
                     GroupElement(other, _jacobian(X, rng.randrange(2, _P)))]
            pairs.append((held, twins, X))
        identity = GroupElement(secp, (5, 7, 0))
        # equality cross-multiplies: no inversion
        for held, twins, X in pairs:
            for twin in twins:
                assert held == twin and twin == held
            assert held != GroupElement(secp, (X[0], _P - X[1]))
            assert held != identity and identity != held
        assert identity == secp.identity() == GroupElement(other, (0, 1, 0))
        assert inversions == []
        for held, twins, X in pairs:
            for twin in twins:
                assert hash(held) == hash(twin)
                assert held.encode() == twin.encode()
            assert held.value == X
        assert hash(identity) == hash(secp.identity())
        assert identity.encode() == secp.identity().encode() == b"\x00" * 33
        assert identity.is_identity() and identity.value is None
        # one inversion per held triple of a point, each made once: its
        # affine point is kept
        assert inversions == ["_jac_to_affine"] * 16
        for held, twins, X in pairs:
            assert held.value == X and held.encode() == twins[0].encode()
        assert inversions == ["_jac_to_affine"] * 16

    def test_threads_read_shared_held_triples(self, secp):
        # each thread encodes, compares and reads the same elements, which
        # hold Jacobian triples until one of them keeps the affine point
        rng = random.Random(103)
        points = _kernel_points()
        shared = [GroupElement(secp, _jacobian(X, rng.randrange(2, _P))) for X in points]
        expected = [(GroupElement(secp, X).encode(), True, X) for X in points]
        results = [None] * 4
        start = threading.Barrier(len(results))

        def run(slot):
            start.wait(timeout=10)
            results[slot] = [(E.encode(), E == GroupElement(secp, X), E.value)
                             for E, X in zip(shared, points)]

        _run_concurrently(run, [(slot,) for slot in range(len(results))])
        assert results == [expected] * len(results)

    def test_sums_and_negations_of_every_representation(self, secp):
        rng = random.Random(102)
        X, Y = _kernel_points()[:2]

        def forms(point):
            if point is None:
                return [secp.identity(), GroupElement(secp, (3, 4, 0))]
            return [GroupElement(secp, point),
                    GroupElement(secp, _jacobian(point, rng.randrange(2, _P)))]

        def minus(point):
            return None if point is None else (point[0], _P - point[1])

        for A, B in [(X, Y), (X, X), (X, minus(X)), (X, None), (None, None)]:
            for a in forms(A):
                for b in forms(B):
                    assert (a + b).value == affine_add(A, B)
                    assert (b + a).value == affine_add(A, B)
                    assert (a - b).value == affine_add(A, minus(B))
                    assert (-b).value == minus(B)


def _off_curve_x(limit=1000):
    """Smallest x whose x^3+7 is a quadratic non-residue mod p."""
    for x in range(2, limit):
        y_sq = (pow(x, 3, _P) + 7) % _P
        if pow(y_sq, (_P - 1) // 2, _P) != 1:
            return x
    raise AssertionError("no off-curve x found")


class TestDecodeRejections:
    def test_wrong_length_is_distinct(self, secp):
        with pytest.raises(WrongLengthError):
            secp.decode_element(b"\x02" + b"\x00" * 31)
        with pytest.raises(WrongLengthError):
            secp.decode_scalar(b"\x00" * 31)

    def test_bad_prefix(self, secp):
        with pytest.raises(OffGroupError):
            secp.decode_element(b"\x04" + b"\x11" * 32)

    def test_x_at_least_field_prime(self, secp):
        with pytest.raises(OffGroupError):
            secp.decode_element(b"\x02" + _P.to_bytes(32, "big"))

    def test_x_not_on_curve(self, secp):
        bad = b"\x02" + _off_curve_x().to_bytes(32, "big")
        with pytest.raises(OffGroupError):
            secp.decode_element(bad)

    def test_non_canonical_identity(self, secp):
        with pytest.raises(OffGroupError):
            secp.decode_element(b"\x00" * 32 + b"\x01")

    def test_scalar_out_of_range(self, secp):
        q = secp.descriptor.q
        for v in (q, q + 1, 2**256 - 1):
            with pytest.raises(NonCanonicalScalarError):
                secp.decode_scalar(v.to_bytes(32, "big"))

    def test_toy_rejects_residues_at_or_above_q(self):
        toy = ToyGroup(13)
        for v in range(13, 256):
            with pytest.raises(OffGroupError):
                toy.decode_element(bytes([v]))
            with pytest.raises(NonCanonicalScalarError):
                toy.decode_scalar(bytes([v]))


class TestDecodeCache:
    """secp256k1 keeps the points of the 16 most recent accepted
    encodings; a rejected encoding is checked in full every time."""

    def _encodings(self, secp, count):
        return [secp.encode_element(k * secp.generator()) for k in range(1, count + 1)]

    def test_hit_equals_cold_decode_and_ladder(self, secp):
        X = _random_points(1, seed=61)[0]
        data = secp.encode_element(GroupElement(secp, X))
        group_module._decompress.cache_clear()
        cold = secp.decode_element(data)
        hit = secp.decode_element(data)
        info = group_module._decompress.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        assert cold == hit and hit.value == X

    @pytest.mark.parametrize("data", [
        b"\x04" + b"\x11" * 32,
        b"\x02" + _P.to_bytes(32, "big"),
        b"\x03" + _off_curve_x().to_bytes(32, "big"),
        b"\x00" * 32 + b"\x01",
    ])
    def test_rejections_are_never_cached(self, secp, data):
        group_module._decompress.cache_clear()
        secp.decode_element(secp.encode_element(secp.generator()))
        before = group_module._decompress.cache_info()
        raised = []
        for _ in range(2):
            with pytest.raises(OffGroupError) as exc:
                secp.decode_element(data)
            raised.append(exc.type)
        after = group_module._decompress.cache_info()
        assert raised == [OffGroupError, OffGroupError]
        assert after.currsize == before.currsize == 1
        assert (after.misses - before.misses, after.hits - before.hits) == (2, 0)

    def test_cache_never_holds_more_than_16_entries(self, secp):
        group_module._decompress.cache_clear()
        assert group_module._decompress.cache_info().maxsize == 16
        for data in self._encodings(secp, 40):
            secp.decode_element(data)
            assert group_module._decompress.cache_info().currsize <= 16
        assert group_module._decompress.cache_info().currsize == 16

    def test_bytes_bytearray_and_memoryview_alike(self, secp):
        (data,) = self._encodings(secp, 1)
        expected = secp.generator()
        for convert in (bytes, bytearray, memoryview):
            group_module._decompress.cache_clear()
            assert secp.decode_element(convert(data)) == expected  # cold
            assert secp.decode_element(convert(data)) == expected  # hit

    def test_threads_decode_same_and_different_encodings(self, secp):
        points = _random_points(5, seed=62)
        encoded = [secp.encode_element(GroupElement(secp, X)) for X in points]
        # both threads decode encoded[0]; each also has two of its own
        work = [[0, 1, 2] * 4, [0, 3, 4] * 4]
        results = [None, None]
        start = threading.Barrier(2)

        def run(slot):
            start.wait(timeout=10)
            results[slot] = [secp.decode_element(encoded[i]).value for i in work[slot]]

        group_module._decompress.cache_clear()
        _run_concurrently(run, [(0,), (1,)])
        assert results == [[points[i] for i in jobs] for jobs in work]


class TestCounters:
    def test_counts_only_inside_scope(self):
        toy = ToyGroup(13)
        X = toy.element(2)
        2 * X
        with toy.counting() as c:
            2 * X
            X + X
            X - X
        2 * X
        assert (c.scalar_mults, c.group_adds) == (1, 2)

    def test_nested_scope_shadows_outer(self):
        toy = ToyGroup(13)
        X = toy.element(2)
        with toy.counting() as outer:
            2 * X
            with toy.counting() as inner:
                2 * X
                2 * X
        assert outer.scalar_mults == 1
        assert inner.scalar_mults == 2

    def test_pause_blocks_counting(self):
        toy = ToyGroup(13)
        X = toy.element(2)
        with toy.counting() as c:
            2 * X
            with toy.counter_paused():
                2 * X
                toy.count_hash_call()
            toy.count_hash_call()
        assert (c.scalar_mults, c.hash_calls) == (1, 1)

    def test_fresh_counter_per_scope(self):
        toy = ToyGroup(13)
        with toy.counting() as a:
            2 * toy.element(2)
        with toy.counting() as b:
            pass
        assert a.scalar_mults == 1
        assert b.scalar_mults == 0


class TestRegistry:
    def test_make_group_names(self):
        assert isinstance(make_group("secp256k1"), Secp256k1Group)
        assert make_group("toy-13").descriptor.q == 13

    def test_descriptor_widths(self, secp):
        d = secp.descriptor
        assert (d.scalar_len, d.element_len) == (32, 33)
        assert ToyGroup(101).descriptor.scalar_len == 1

    def test_rejects_unknown_and_composite(self):
        with pytest.raises(ValueError):
            make_group("p256")
        with pytest.raises(ValueError):
            make_group("toy-12")
        # no factor up to 37, so Miller-Rabin decides: 1763 = 41 * 43 fails
        # to base 2, and 3215031751 = 151 * 751 * 28351 is a strong
        # pseudoprime to bases 2, 3, 5 and 7 whose witness is 11
        for name in ("toy-1763", "toy-3215031751"):
            with pytest.raises(ValueError, match="must be prime"):
                make_group(name)
        with pytest.raises(ValueError):
            make_group("toy-abc")
        # int() takes each of these, but none is the group's own name
        for name in ("toy-013", "toy-1_3", "toy-+13", "toy- 13", "toy-13 "):
            with pytest.raises(ValueError):
                make_group(name)

    @pytest.mark.parametrize("name, message", [
        ("toy-2", "at least 13"), ("toy-3", "at least 13"),
        ("toy-11", "at least 13"), ("toy-12", "must be prime")])
    def test_rejects_orders_below_13(self, name, message):
        # CLC extraction would never return on some keys of these groups;
        # primality is checked first
        with pytest.raises(ValueError, match=message):
            make_group(name)


# -- the 4-bit fixed-window ladder the library used before GLV -----------------
# Kept as the oracle for the GLV + wNAF + mixed-add path: Jacobian
# coordinates throughout, full additions (add-2007-bl), 64 windows.

_N = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141


def _ladder_double(X1, Y1, Z1):
    # dbl-2009-l, a = 0
    A = X1 * X1 % _P
    B = Y1 * Y1 % _P
    C = B * B % _P
    D = 2 * ((X1 + B) * (X1 + B) - A - C) % _P
    E = 3 * A % _P
    F = E * E % _P
    X3 = (F - 2 * D) % _P
    Y3 = (E * (D - X3) - 8 * C) % _P
    return X3, Y3, 2 * Y1 * Z1 % _P


def _jac_add(X1, Y1, Z1, X2, Y2, Z2):
    # add-2007-bl; falls back to doubling when the inputs coincide
    Z1Z1 = Z1 * Z1 % _P
    Z2Z2 = Z2 * Z2 % _P
    U1 = X1 * Z2Z2 % _P
    U2 = X2 * Z1Z1 % _P
    S1 = Y1 * Z2 * Z2Z2 % _P
    S2 = Y2 * Z1 * Z1Z1 % _P
    H = (U2 - U1) % _P
    if H == 0:
        if (S2 - S1) % _P == 0:
            return _ladder_double(X1, Y1, Z1)
        return 0, 1, 0
    I = 4 * H * H % _P
    J = H * I % _P
    r = 2 * (S2 - S1) % _P
    V = U1 * I % _P
    X3 = (r * r - J - 2 * V) % _P
    Y3 = (r * (V - X3) - 2 * S1 * J) % _P
    Z3 = ((Z1 + Z2) * (Z1 + Z2) - Z1Z1 - Z2Z2) % _P * H % _P
    return X3, Y3, Z3


def _to_affine(X, Y, Z):
    if Z % _P == 0:
        return None
    zi = pow(Z, -1, _P)
    return X * zi * zi % _P, Y * zi * zi * zi % _P


def _normalized(value):
    """The affine point, or None, of the Jacobian triple (or None) that
    the multiplication paths (_mul_value, _mul_glv, _mul_wnaf and
    _mul_fixed) return."""
    return None if value is None else _to_affine(*value)


def ladder_mul(k, point):
    """k*point by a 4-bit fixed window over a Jacobian table."""
    k %= _N
    if point is None or k == 0:
        return None
    x, y = point
    tbl = [(0, 1, 0), (x, y, 1)]
    for i in range(2, 16):
        if i & 1:
            tbl.append(_jac_add(*tbl[i - 1], x, y, 1))
        else:
            tbl.append(_ladder_double(*tbl[i >> 1]))
    nibbles = []
    while k:
        nibbles.append(k & 15)
        k >>= 4
    rx, ry, rz = 0, 1, 0
    for nib in reversed(nibbles):
        if rz:
            for _ in range(4):
                rx, ry, rz = _ladder_double(rx, ry, rz)
        if nib:
            if rz == 0:
                rx, ry, rz = tbl[nib]
            else:
                rx, ry, rz = _jac_add(rx, ry, rz, *tbl[nib])
    return _to_affine(rx, ry, rz)


_LAMBDA = group_module._LAMBDA
_BETA = group_module._BETA
_GEN = group_module._GX, group_module._GY

EDGE_SCALARS = [0, 1, 2, _N - 1, _N - 2, _N // 2, _LAMBDA, _N - _LAMBDA,
                2**128, 2**129 - 1]


def _random_points(count, seed):
    rng = random.Random(seed)
    return [ladder_mul(rng.randrange(1, _N), _GEN) for _ in range(count)]


def _run_concurrently(target, args_list):
    """One thread per entry of args_list, switching every microsecond;
    every thread must finish."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=target, args=args) for args in args_list]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)


def _jacobian(point, z):
    """The affine point in Jacobian coordinates with the given Z."""
    x, y = point
    return x * z * z % _P, y * z * z * z % _P, z


def _unpack(entry):
    """The affine (x, y) a fixed-window table entry x << 256 | y packs."""
    return entry >> 256, entry & ((1 << 256) - 1)


def _wnaf_bit_at_a_time(k):
    """Width-5 NAF of k >= 0 one bit per step, every digit, zeros
    included, least significant first: the recoder the library used
    before it skipped runs of zeros."""
    digits = []
    while k:
        if k & 1:
            d = k & 31
            if d >= 16:
                d -= 32
            k -= d
        else:
            d = 0
        digits.append(d)
        k >>= 1
    return digits


class TestGlvConstants:
    def test_lambda_acts_as_beta_on_the_generator(self):
        assert ladder_mul(_LAMBDA, _GEN) == (_BETA * _GEN[0] % _P, _GEN[1])

    def test_lambda_acts_as_beta_on_a_random_point(self):
        (X,) = _random_points(1, seed=11)
        assert ladder_mul(_LAMBDA, X) == (_BETA * X[0] % _P, X[1])


class TestGlvSplit:
    def test_halves_recombine_and_stay_short(self):
        rng = random.Random(129)
        for k in EDGE_SCALARS + [rng.randrange(_N) for _ in range(1000)]:
            k1, k2 = group_module._glv_split(k)
            assert (k1 + k2 * _LAMBDA - k) % _N == 0
            # G's 13 rows of width 10 cover halves below 2^128 only
            assert abs(k1) < 2**128 and abs(k2) < 2**128

    def test_negative_halves_occur(self):
        assert group_module._glv_split(_N - 1) == (-1, 0)
        rng = random.Random(5)
        halves = [group_module._glv_split(rng.randrange(_N)) for _ in range(200)]
        assert any(k1 < 0 for k1, _ in halves)
        assert any(k2 < 0 for _, k2 in halves)

    def test_wnaf_digits(self):
        rng = random.Random(6)
        for k in [1, 2, 15, 16, 17, 31, 2**128] + [rng.getrandbits(129) for _ in range(200)]:
            pairs = group_module._wnaf(k)
            assert sum(d << i for i, d in pairs) == k
            assert all(d % 2 == 1 and -15 <= d <= 15 for _, d in pairs)
            # at most one non-zero digit in any five consecutive positions
            positions = [i for i, _ in pairs]
            assert all(b - a >= 5 for a, b in zip(positions, positions[1:]))
            assert pairs[-1][1] > 0

    def test_wnaf_matches_the_bit_at_a_time_recoder(self):
        rng = random.Random(7)
        halves = [abs(h) for _ in range(250)
                  for h in group_module._glv_split(rng.randrange(_N))]
        for k in [0, 1, 2**128 - 1, _N - 1] + halves:
            assert group_module._wnaf(k) == \
                [(i, d) for i, d in enumerate(_wnaf_bit_at_a_time(k)) if d]

    def test_wnaf_chain_matches_the_ladder(self):
        # the first-use path, which reads the recoder's pairs
        (X,) = _random_points(1, seed=8)
        tables = group_module._odd_multiples(X)
        rng = random.Random(9)
        for k in [1, 2, 31, 2**128 - 1, _N - 1] + [rng.randrange(1, _N) for _ in range(8)]:
            assert _normalized(group_module._mul_wnaf(k, tables)) == ladder_mul(k, X)


@functools.cache
def _kernel_points():
    return _random_points(8, seed=21)


# the kernels' inputs: one of 8 random points in Jacobian coordinates with
# a random Z, which picks the representative the formulas see
_point_index = st.integers(0, 7)
_z = st.integers(1, _P - 1)
_kernel_settings = settings(max_examples=25, deadline=None)


class TestMixedAdd:
    @_kernel_settings
    @given(i=_point_index, z=_z)
    @example(i=0, z=1)
    @example(i=0, z=_P - 1)
    def test_coinciding_inputs_double(self, i, z):
        X = _kernel_points()[i]
        doubled = group_module._jac_madd(*_jacobian(X, z), *X)
        assert doubled[2] != 0
        assert _to_affine(*doubled) == affine_add(X, X)

    @_kernel_settings
    @given(i=_point_index, z=_z)
    def test_opposite_inputs_give_identity(self, i, z):
        X = _kernel_points()[i]
        assert group_module._jac_madd(*_jacobian(X, z), X[0], _P - X[1])[2] == 0

    @_kernel_settings
    @given(i=_point_index, x1=st.integers(0, _P - 1), y1=st.integers(0, _P - 1))
    @example(i=0, x1=0, y1=1)
    def test_identity_plus_point(self, i, x1, y1):
        # Z1 = 0 is the identity whatever X1 and Y1 hold
        X = _kernel_points()[i]
        assert group_module._jac_madd(x1, y1, 0, *X) == (X[0], X[1], 1)

    @_kernel_settings
    @given(i=_point_index, offset=st.integers(1, 7), z=_z)
    @example(i=0, offset=1, z=1)
    def test_distinct_inputs_match_affine(self, i, offset, z):
        X, Y = _kernel_points()[i], _kernel_points()[(i + offset) % 8]
        assert _to_affine(*group_module._jac_madd(*_jacobian(X, z), *Y)) == affine_add(X, Y)


class TestJacobianAdd:
    @_kernel_settings
    @given(i=_point_index, offset=st.integers(1, 7), z1=_z, z2=_z)
    @example(i=0, offset=1, z1=1, z2=1)
    def test_distinct_inputs_match_affine(self, i, offset, z1, z2):
        X, Y = _kernel_points()[i], _kernel_points()[(i + offset) % 8]
        total = group_module._jac_add(*_jacobian(X, z1), *_jacobian(Y, z2))
        assert _to_affine(*total) == affine_add(X, Y)

    @_kernel_settings
    @given(i=_point_index, z1=_z, z2=_z)
    @example(i=0, z1=1, z2=1)
    @example(i=0, z1=1, z2=_P - 1)
    def test_equal_inputs_double(self, i, z1, z2):
        X = _kernel_points()[i]
        doubled = group_module._jac_add(*_jacobian(X, z1), *_jacobian(X, z2))
        assert doubled[2] != 0
        assert _to_affine(*doubled) == affine_add(X, X)

    @_kernel_settings
    @given(i=_point_index, z1=_z, z2=_z)
    def test_opposite_inputs_give_identity(self, i, z1, z2):
        X = _kernel_points()[i]
        minus_X = (X[0], _P - X[1])
        assert group_module._jac_add(*_jacobian(X, z1), *_jacobian(minus_X, z2))[2] == 0

    @_kernel_settings
    @given(i=_point_index, z=_z, x1=st.integers(0, _P - 1), y1=st.integers(0, _P - 1))
    @example(i=0, z=1, x1=0, y1=1)
    def test_identity_on_either_side(self, i, z, x1, y1):
        # Z = 0 is the identity whatever X and Y hold
        X = _jacobian(_kernel_points()[i], z)
        assert group_module._jac_add(x1, y1, 0, *X) == X
        assert group_module._jac_add(*X, x1, y1, 0) == X
        assert group_module._jac_add(x1, y1, 0, 0, 1, 0)[2] == 0


class TestJacobianDouble:
    @_kernel_settings
    @given(i=_point_index, z=_z)
    @example(i=0, z=1)
    @example(i=0, z=_P - 1)
    def test_matches_affine(self, i, z):
        X = _kernel_points()[i]
        assert _to_affine(*group_module._jac_double(*_jacobian(X, z))) == affine_add(X, X)

    @_kernel_settings
    @given(x1=st.integers(0, _P - 1), y1=st.integers(0, _P - 1))
    @example(x1=0, y1=1)
    def test_identity_stays_the_identity(self, x1, y1):
        assert group_module._jac_double(x1, y1, 0)[2] == 0

    def test_129_doublings_match_the_ladder(self):
        # the length of a first use's doubling chain
        rng = random.Random(25)
        for X in _kernel_points()[:2]:
            acc = _jacobian(X, rng.randrange(1, _P))
            for _ in range(129):
                acc = group_module._jac_double(*acc)
            assert _to_affine(*acc) == ladder_mul(2**129, X)


class TestBatchAffine:
    # 13: the row bases of G's table; 19: those of a promoted point's
    @pytest.mark.parametrize("length", [1, 2, 13, 17, 19, 65])
    def test_matches_one_inversion_per_point(self, length):
        rng = random.Random(length)
        chain = [_jacobian(X, rng.randrange(1, _P))
                 for X in _random_points(length, seed=25 + length)]
        assert group_module._batch_affine(chain) == \
            [group_module._jac_to_affine(*point) for point in chain]


class TestOddMultiplesTable:
    def test_entries_are_odd_multiples(self):
        # entry m is the ladder's m*X = (x, y) as (u^2*x, u^3*y): the
        # Jacobian (u^2*x, u^3*y, u) of the same point
        def scaled(point, u):
            x, y = point
            return u * u * x % _P, u * u * u * y % _P

        for X in [_GEN] + _random_points(2, seed=31):
            table, table_lambda, u = group_module._odd_multiples(X)
            assert 0 < u < _P
            assert list(table) == [scaled(ladder_mul(m, X), u) for m in range(1, 16, 2)]
            assert list(table_lambda) == [scaled(ladder_mul(m * _LAMBDA, X), u)
                                          for m in range(1, 16, 2)]

    def test_cache_is_bounded_and_hit(self, secp, table_builds):
        cache = group_module._promotion
        assert cache.cache_info().maxsize == 16
        cache.cache_clear()
        X = 7 * secp.generator()  # 7*G takes the generator's shipped table
        for k in (3, 5, 7):
            k * X
        # X: odd multiples on the first use, its own table on the second,
        # a hit on the third
        assert table_builds == {"_odd_multiples": [X.value], "_fixed_window_rows": [X.value]}
        assert cache.cache_info().currsize == 1
        for Y in _random_points(20, seed=32):
            5 * GroupElement(secp, Y)
        assert cache.cache_info().currsize == 16


class TestGlvAgainstLadder:
    def _bases(self, secp, prod):
        # -G shares its x with G, so a table cached under x alone fails
        return ([_GEN, (_GEN[0], _P - _GEN[1]), prod.params.Ppub.value]
                + _random_points(3, seed=41))

    def test_random_pairs_cold_and_warm(self, secp, prod):
        rng = random.Random(42)
        for X in self._bases(secp, prod):
            for _ in range(4):
                k = rng.randrange(_N)
                expected = ladder_mul(k, X)
                group_module._promotion.cache_clear()
                assert _normalized(secp._mul_value(k, X)) == expected  # cold: odd multiples
                assert _normalized(secp._mul_value(k, X)) == expected  # warm: promoted table

    @pytest.mark.parametrize("k", EDGE_SCALARS)
    def test_edge_scalars(self, secp, prod, k):
        for X in self._bases(secp, prod):
            assert (k * GroupElement(secp, X)).value == ladder_mul(k, X)

    def test_identity_point(self, secp):
        for k in EDGE_SCALARS:
            assert (k * secp.identity()).is_identity()

    def test_threads_share_points(self, secp, prod):
        bases = self._bases(secp, prod)
        rng = random.Random(44)
        work = [[(rng.randrange(_N), X) for X in bases for _ in range(3)] for _ in range(2)]
        expected = [[ladder_mul(k, X) for k, X in jobs] for jobs in work]
        results = [None, None]
        start = threading.Barrier(2)

        def run(slot):
            start.wait(timeout=10)
            results[slot] = [_normalized(secp._mul_value(k, X)) for k, X in work[slot]]

        group_module._promotion.cache_clear()
        _run_concurrently(run, [(0,), (1,)])
        assert results == expected


# scalars whose signed base-128 recoding carries into a 37th digit
_CARRY_SCALARS = [_N - 1, 65 << 245, sum(65 << (7 * i) for i in range(36))]
_GEN_TABLE_SCALARS = (EDGE_SCALARS + [2**255, 2**256 % _N, 2**257 % _N]
                      + [_N - 1, 9 << 252, int("8" * 63 + "9", 16)] + _CARRY_SCALARS[1:])


def _signed_digits(k, w):
    """Signed base-2^w digits of k in [-2^(w-1)+1, 2^(w-1)], least
    significant first."""
    digits = []
    while k:
        d = k % (1 << w)
        k //= 1 << w
        if d > 1 << (w - 1):
            d -= 1 << w
            k += 1
        digits.append(d)
    return digits


def _digits_ok(k, w, digits):
    return (sum(d << (w * i) for i, d in enumerate(digits)) == k
            and all(-(1 << (w - 1)) < d <= 1 << (w - 1) for d in digits))


def _glv_of_generator(k):
    return _normalized(group_module._mul_glv(k % _N, _GEN)) if k % _N else None


class TestGeneratorTable:
    """k*G, past the first two of a process, takes the shipped signed
    fixed-window table of width 10 over both GLV halves; every other
    point, -G included, takes the GLV path through tables of its own."""

    def test_script_reproduces_the_shipped_file(self):
        script = Path(__file__).resolve().parents[1] / "scripts" / "gen_g_table.py"
        built = runpy.run_path(str(script))["build_table"]()
        with open(group_module._G_TABLE_PATH, "rb") as f:
            shipped = f.read()
        assert built == shipped
        assert (group_module._G_WIDTH, group_module._G_ROWS) == (10, 13)
        assert len(shipped) == 13 * 512 * 64 == 425_984
        assert hashlib.sha256(shipped).hexdigest() == group_module._G_TABLE_SHA256

    def test_file_sits_next_to_the_group_module(self):
        path = Path(group_module.__file__).with_name("secp256k1_g_w10.bin")
        assert path.is_file()
        assert Path(group_module._G_TABLE_PATH) == path
        for gone in ("secp256k1_g_w7.bin", "secp256k1_g_w8.bin"):
            assert not path.with_name(gone).exists()

    def test_every_table_file_is_package_data(self):
        tomllib = pytest.importorskip("tomllib")
        root = Path(__file__).resolve().parents[1]
        with open(root / "pyproject.toml", "rb") as f:
            package_data = tomllib.load(f)["tool"]["setuptools"]["package-data"]["hsc"]
        shipped = sorted(path.name for path in (root / "src" / "hsc").glob("*.bin"))
        # package data names every shipped table and no file that is gone
        assert shipped == sorted(package_data) == ["secp256k1_g_w10.bin"]

    def test_every_entry_unpacks_to_a_curve_point(self):
        table = group_module._load_g_table()
        assert len(table) == 13 * 512
        for entry in table:
            x, y = _unpack(entry)
            assert x < _P and y < _P
            assert (y * y - x * x * x - 7) % _P == 0

    def test_random_scalars_match_glv_and_ladder(self, secp):
        rng = random.Random(61)
        for _ in range(200):
            k = rng.randrange(_N)
            value = (k * secp.generator()).value
            assert value == _glv_of_generator(k)
            assert value == ladder_mul(k, _GEN)

    def test_13_rows_cover_every_half_below_2_128(self):
        table = group_module._load_g_table()
        assert len(table) == 13 * 512
        for half in (2**128 - 1, -(2**128 - 1), 2**127, -(2**127) - 1, 0):
            r = group_module._fixed_window_madd((0, 1, 0), table, half, 10)
            assert group_module._jac_to_affine(*r) == ladder_mul(half, _GEN)
        # the 13th digit of a half below 2^128 is at most 256, so no carry
        # asks for a 14th row
        assert max(len(_signed_digits(h, 10)) for h in range(2**128 - 40, 2**128)) == 13
        assert len(_signed_digits(-(2**128 - 1), 10)) == 13
        # a half of -(2^129 - 1) would: _glv_split's bound is what keeps
        # the 13 rows enough
        assert len(_signed_digits(-(2**129 - 1), 10)) == 14
        with pytest.raises(IndexError):
            group_module._fixed_window_madd((0, 1, 0), table, -(2**129 - 1), 10)

    @pytest.mark.parametrize("k", _GEN_TABLE_SCALARS)
    def test_edge_scalars(self, secp, k):
        value = (k * secp.generator()).value
        assert value == _glv_of_generator(k)
        assert value == ladder_mul(k, _GEN)

    def test_generator_and_its_negation(self, secp):
        cache = group_module._promotion
        rng = random.Random(62)
        neg_gen = (_GEN[0], _P - _GEN[1])
        for _ in range(20):
            k = rng.randrange(1, _N)
            cache.cache_clear()
            kG = _normalized(secp._mul_value(k, _GEN))
            assert cache.cache_info().currsize == 0  # no GLV entry for G
            k_neg_gen = _normalized(secp._mul_value(k, neg_gen))
            assert cache.cache_info().currsize == 1  # -G takes the GLV path
            assert k_neg_gen == ladder_mul(k, neg_gen) == (kG[0], _P - kG[1])

    def test_only_the_generator_loads_the_table(self, secp, prod, g_uses):
        load = group_module._load_g_table
        load.cache_clear()
        g_uses(group_module._G_FIRST_USES)
        (X,) = _random_points(1, seed=63)
        secp._mul_value(5, X)
        secp._mul_value(5, prod.params.Ppub.value)
        assert load.cache_info().currsize == 0
        secp._mul_value(5, _GEN)
        secp._mul_value(7, _GEN)
        assert (load.cache_info().misses, load.cache_info().hits) == (1, 1)
        assert len(load()) == 13 * 512

    def test_corrupted_table_raises(self, secp, tmp_path, monkeypatch, g_uses):
        with open(group_module._G_TABLE_PATH, "rb") as f:
            data = bytearray(f.read())
        data[1000] ^= 1
        corrupt = tmp_path / "secp256k1_g_w10.bin"
        corrupt.write_bytes(bytes(data))
        monkeypatch.setattr(group_module, "_G_TABLE_PATH", str(corrupt))
        group_module._load_g_table.cache_clear()
        g_uses(group_module._G_FIRST_USES)
        # a failed load is not cached: every k*G checks the file again
        for _ in range(2):
            with pytest.raises(RuntimeError, match="SHA-256"):
                5 * secp.generator()
        assert group_module._load_g_table.cache_info().currsize == 0

    def test_missing_table_raises(self, secp, tmp_path, monkeypatch, g_uses):
        monkeypatch.setattr(group_module, "_G_TABLE_PATH", str(tmp_path / "absent.bin"))
        group_module._load_g_table.cache_clear()
        g_uses(group_module._G_FIRST_USES)
        for _ in range(2):
            with pytest.raises(RuntimeError, match="cannot read"):
                5 * secp.generator()
        assert group_module._load_g_table.cache_info().currsize == 0

    def test_threads_load_a_cold_table(self, secp, g_uses):
        group_module._load_g_table.cache_clear()
        g_uses(group_module._G_FIRST_USES)
        rng = random.Random(64)
        work = [[rng.randrange(_N) for _ in range(5)] for _ in range(2)]
        expected = [[ladder_mul(k, _GEN) for k in jobs] for jobs in work]
        results = [None, None]
        start = threading.Barrier(2)

        def run(slot):
            start.wait(timeout=10)
            results[slot] = [_normalized(secp._mul_value(k, _GEN)) for k in work[slot]]

        _run_concurrently(run, [(0,), (1,)])
        assert results == expected
        assert group_module._load_g_table.cache_info().currsize == 1


class TestGeneratorFirstUses:
    """The first two k*G of a process take the first-use path of any other
    point, odd multiples of G and the wNAF chain, and never touch the
    table; the third loads it.  G never enters the cache of recent
    points."""

    def test_first_uses_match_the_table_and_ladder(self, secp, g_uses, table_builds):
        rng = random.Random(65)
        G = secp.generator()
        scalars = _GEN_TABLE_SCALARS + [rng.randrange(_N) for _ in range(200)]
        for k in scalars:
            g_uses(0)
            first = secp.mul(k, G).value
            g_uses(group_module._G_FIRST_USES)
            assert first == secp.mul(k, G).value == ladder_mul(k, _GEN)
        # one first use per nonzero k: k = 0 gives the identity unread
        assert table_builds["_odd_multiples"] == [_GEN] * sum(1 for k in scalars if k % _N)
        assert table_builds["_fixed_window_rows"] == []

    def test_the_third_loads_the_table_once(self, secp, g_uses, table_builds):
        load = group_module._load_g_table
        load.cache_clear()
        group_module._promotion.cache_clear()
        g_uses(0)
        for k in (5, 7):
            assert _normalized(secp._mul_value(k, _GEN)) == ladder_mul(k, _GEN)
        assert (load.cache_info().misses, load.cache_info().hits) == (0, 0)
        assert group_module._promotion.cache_info().currsize == 0
        for k in (9, 11, 13):
            assert _normalized(secp._mul_value(k, _GEN)) == ladder_mul(k, _GEN)
        assert (load.cache_info().misses, load.cache_info().hits) == (1, 2)
        assert table_builds == {"_odd_multiples": [_GEN] * 2, "_fixed_window_rows": []}

    def test_threads_race_across_the_boundary(self, secp, g_uses, table_builds):
        # more threads than the two first uses, and than a small host's
        # cores
        group_module._load_g_table.cache_clear()
        g_uses(0)
        rng = random.Random(66)
        work = [[rng.randrange(1, _N) for _ in range(3)] for _ in range(4)]
        expected = [[ladder_mul(k, _GEN) for k in jobs] for jobs in work]
        results = [None] * len(work)
        start = threading.Barrier(len(work))

        def run(slot):
            start.wait(timeout=10)
            results[slot] = [_normalized(secp._mul_value(k, _GEN)) for k in work[slot]]

        _run_concurrently(run, [(slot,) for slot in range(len(work))])
        assert results == expected
        # the count hands out each of the two first uses once, however
        # the threads interleave
        assert table_builds["_odd_multiples"] == [_GEN] * 2
        assert group_module._load_g_table.cache_info().currsize == 1

    @pytest.mark.parametrize("broken", ["corrupt", "missing"])
    def test_a_broken_table_shows_only_from_the_third(self, secp, tmp_path, monkeypatch,
                                                      g_uses, broken):
        path = tmp_path / "secp256k1_g_w10.bin"
        if broken == "corrupt":
            with open(group_module._G_TABLE_PATH, "rb") as f:
                data = bytearray(f.read())
            data[1000] ^= 1
            path.write_bytes(bytes(data))
        monkeypatch.setattr(group_module, "_G_TABLE_PATH", str(path))
        group_module._load_g_table.cache_clear()
        g_uses(0)
        for k in (5, 7):
            assert (k * secp.generator()).value == ladder_mul(k, _GEN)
        with pytest.raises(group_module.GeneratorTableError):
            9 * secp.generator()
        assert group_module._load_g_table.cache_info().currsize == 0


# scalars with GLV halves of 127 and 128 bits, of both signs and indices
_LONG_HALF_SCALARS = [
    0x7F26144B98289FCD59A54A7BB1FEE08F571242425051C1CCD17F9ACAE01F5057,
    0x9A2EF80F58EE8571F4998D7C4093F6DEA268AA872607679D6050914A9D33A01C,
    0xB0A844E52587BE6B5C9BCF35873BE078F3B7A50DF373CA533488F87605E999F3,
    0x7224A7C9B42460B8A0DD8910C521F7B01E7055F4469A28E44B0C49A58825DFBE,
]
_PROMOTED_SCALARS = [1, 2, 8, 9, 16, _N - 1] + _LONG_HALF_SCALARS


@functools.cache
def _promoted_table():
    """A random point X and its width-7 fixed-window rows, built once."""
    (X,) = _random_points(1, seed=73)
    return X, group_module._fixed_window_rows(X, group_module._GLV_ROWS,
                                              group_module._GLV_WIDTH)


class TestPromotedTable:
    """A point other than G gets a 19-row fixed-window table of width 7 of
    its own on its second multiplication while it is still cached; both
    GLV halves read it."""

    def _bases(self, prod):
        X, Y = _random_points(2, seed=71)
        lambda_X = (_BETA * X[0] % _P, X[1])
        return [(_GEN[0], _P - _GEN[1]), prod.params.Ppub.value, lambda_X, X, Y]

    def test_rows_are_fixed_window_multiples(self):
        (X,) = _random_points(1, seed=72)
        table = group_module._fixed_window_rows(X, 19, 7)
        assert len(table) == 19 * 64
        for i in (0, 1, 18):
            # j*B for the row base B, by the independent affine law
            base = ladder_mul(128**i, X)
            multiple = None
            for j in range(1, 65):
                multiple = affine_add(multiple, base)
                assert _unpack(table[64 * i + j - 1]) == multiple

    def test_long_halves_need_the_last_row(self):
        seen = set()
        for k in _LONG_HALF_SCALARS:
            for index, half in enumerate(group_module._glv_split(k)):
                # 18 digits of width 7 cover 126 bits
                digits = _signed_digits(half, 7)
                assert _digits_ok(half, 7, digits)
                assert len(digits) == 19
                seen.add((index, half < 0))
        assert seen == {(0, True), (1, True), (0, False), (1, False)}

    def test_19_rows_cover_every_half_below_2_129(self):
        assert (group_module._GLV_WIDTH, group_module._GLV_ROWS) == (7, 19)
        X, table = _promoted_table()
        for half in (2**129 - 1, -(2**129 - 1), 2**128 + 12345, -(2**128) - 1, 0):
            r = group_module._fixed_window_madd((0, 1, 0), table, half, 7)
            assert group_module._jac_to_affine(*r) == ladder_mul(half, X)
        # the 19th digit of a half below 2^129 is at most 8, so no carry
        # asks for a 20th row
        assert len(_signed_digits(-(2**129 - 1), 7)) == 19
        assert max(len(_signed_digits(h, 7)) for h in range(2**129 - 40, 2**129)) == 19

    def test_a_zero_k2_half_adds_only_k1(self, secp):
        # k2 = 0 leaves the identity for _LAMBDA to map: (0, 1, 0) again
        X, table = _promoted_table()
        g_table = group_module._load_g_table()
        for k in (1, 2, 2**64 + 3, _N - 1, _N - 2**64):
            assert group_module._glv_split(k)[1] == 0
            assert _normalized(group_module._mul_fixed(k, table, 7)) == ladder_mul(k, X)
            assert _normalized(group_module._mul_fixed(k, g_table, 10)) == ladder_mul(k, _GEN)

    def test_promoted_table_holds_19_rows_of_64_points(self, secp):
        (X,) = _random_points(1, seed=80)
        group_module._promotion.cache_clear()
        for k in (3, 5):
            secp._mul_value(k, X)
        # one table, with no stored copy for _LAMBDA*X
        (table,) = group_module._promotion(X)
        assert len(table) == 19 * 64
        assert table == group_module._fixed_window_rows(X, 19, 7)

    def test_cold_and_warm_against_ladder(self, secp, prod):
        rng = random.Random(74)
        scalars = _PROMOTED_SCALARS + [rng.randrange(1, _N) for _ in range(4)]
        for X in self._bases(prod):
            for k in scalars:
                expected = ladder_mul(k, X)
                group_module._promotion.cache_clear()
                # odd multiples, then the promotion, then the promoted table
                for _ in range(3):
                    assert _normalized(secp._mul_value(k, X)) == expected

    def test_promoted_once_on_the_second_use(self, secp, table_builds):
        X, Y = _random_points(2, seed=75)
        builds = table_builds
        group_module._promotion.cache_clear()
        secp._mul_value(3, X)
        secp._mul_value(5, Y)
        assert builds == {"_odd_multiples": [X, Y], "_fixed_window_rows": []}
        secp._mul_value(7, X)
        assert builds["_fixed_window_rows"] == [X]
        for k in range(8, 40):
            secp._mul_value(k, X)
        # Y, multiplied once, is never promoted
        assert builds == {"_odd_multiples": [X, Y], "_fixed_window_rows": [X]}

    def test_cache_never_holds_more_than_16_points(self, secp, table_builds):
        points = _random_points(20, seed=76)
        builds = table_builds
        cache = group_module._promotion
        cache.cache_clear()
        for X in points:
            for k in (3, 5):
                secp._mul_value(k, X)
            assert cache.cache_info().currsize <= 16
        assert cache.cache_info().currsize == 16
        assert builds["_fixed_window_rows"] == points
        # the least recently used four left the cache: their next use is a
        # first use again, while a cached point builds nothing
        secp._mul_value(7, points[0])
        secp._mul_value(7, points[-1])
        assert builds["_odd_multiples"] == points + [points[0]]
        assert builds["_fixed_window_rows"] == points

    def test_least_recently_used_point_leaves_first(self, secp, table_builds):
        points = _random_points(17, seed=79)
        cache = group_module._promotion
        cache.cache_clear()
        for X in points[:16]:
            secp._mul_value(3, X)
        secp._mul_value(5, points[0])  # promoted, and now the most recent
        for built in table_builds.values():
            built.clear()
        secp._mul_value(3, points[16])  # evicts points[1], not points[0]
        secp._mul_value(7, points[0])
        secp._mul_value(7, points[1])
        assert table_builds == {"_odd_multiples": [points[16], points[1]],
                                "_fixed_window_rows": []}

    def test_threads_promote_fresh_points(self, secp, table_builds):
        points = _random_points(3, seed=77)
        rng = random.Random(78)
        work = [[(rng.randrange(1, _N), X) for X in points for _ in range(3)]
                for _ in range(4)]
        expected = [[ladder_mul(k, X) for k, X in jobs] for jobs in work]
        results = [None] * len(work)
        start = threading.Barrier(len(work))

        def run(slot):
            start.wait(timeout=10)
            results[slot] = [_normalized(secp._mul_value(k, X)) for k, X in work[slot]]

        group_module._promotion.cache_clear()
        _run_concurrently(run, [(slot,) for slot in range(len(work))])
        assert results == expected
        # every point ended promoted: one more use of each builds nothing
        for built in table_builds.values():
            built.clear()
        for X in points:
            assert _normalized(secp._mul_value(11, X)) == ladder_mul(11, X)
        assert table_builds == {"_odd_multiples": [], "_fixed_window_rows": []}

    def test_threads_race_evictions_and_promotions(self, secp, table_builds):
        # 20 points, more than the 16 entries of the cache of recent points
        # and of recent decodes: each thread decodes and multiplies every
        # point twice in a row, starting 5 points after the thread before
        points = _random_points(20, seed=81)
        encoded = [secp.encode_element(GroupElement(secp, X)) for X in points]
        rng = random.Random(82)
        scalars = [[rng.randrange(1, _N) for _ in range(2)] for _ in points]
        products = [[ladder_mul(k, X) for k in pair] for X, pair in zip(points, scalars)]
        # (point, use) jobs; every thread multiplies a point by the same two scalars
        work = [[((i + 5 * slot) % 20, use) for i in range(20) for use in range(2)]
                for slot in range(4)]
        expected = [[products[i][use] for i, use in jobs] for jobs in work]
        results = [None] * len(work)
        start = threading.Barrier(len(work))

        def run(slot):
            start.wait(timeout=10)
            results[slot] = [(scalars[i][use] * secp.decode_element(encoded[i])).value
                             for i, use in work[slot]]

        group_module._decompress.cache_clear()
        group_module._promotion.cache_clear()
        _run_concurrently(run, [(slot,) for slot in range(len(work))])
        assert results == expected
        assert group_module._promotion.cache_info().currsize == 16
        assert group_module._decompress.cache_info().currsize == 16
        assert table_builds["_fixed_window_rows"]


def _rows_one_at_a_time(point, rows, w):
    """The fixed-window rows as the library built them before it batched
    them by column: each row doubles its affine base B, adds B by mixed
    addition up to 2^(w-1)*B, doubles again for the next row's base and
    makes the row affine with one inversion."""
    half = 1 << (w - 1)
    table = []
    for _ in range(rows):
        x, y = point
        acc = group_module._jac_double(x, y, 1)
        chain = [(x, y, 1), acc]
        for _ in range(3, half + 1):
            acc = group_module._jac_madd(*acc, x, y)
            chain.append(acc)
        chain.append(group_module._jac_double(*acc))
        *row, point = group_module._batch_affine(chain)
        table += row
    return tuple(table)


class TestColumnBuilder:
    """_fixed_window_rows builds the table a column at a time; the
    row-by-row builder above is its reference."""

    @pytest.mark.parametrize("w", [5, 6, 7, 8])
    def test_matches_the_row_by_row_builder(self, w):
        for rows, X in zip((1, 2, 4), _random_points(3, seed=90 + w)):
            packed = group_module._fixed_window_rows(X, rows, w)
            assert tuple(map(_unpack, packed)) == _rows_one_at_a_time(X, rows, w)

    def test_generator_file_from_either_builder(self):
        with open(group_module._G_TABLE_PATH, "rb") as f:
            shipped = f.read()
        table = _rows_one_at_a_time(_GEN, group_module._G_ROWS, group_module._G_WIDTH)
        data = b"".join(x.to_bytes(32, "big") + y.to_bytes(32, "big") for x, y in table)
        assert hashlib.sha256(data).hexdigest() == group_module._G_TABLE_SHA256 == \
            hashlib.sha256(shipped).hexdigest()

    def test_batch_inverse(self):
        rng = random.Random(91)
        values = [rng.randrange(1, _P) for _ in range(9)] + [-3, _P + 5]
        assert group_module._batch_inverse(values) == [egcd_inverse(v, _P) for v in values]


class TestSignedDigitLoop:
    """_fixed_window_madd at both widths in use against the ladder, over
    GLV halves of either sign: the shipped width-10 table of G below
    2^128, _glv_split's bound, and the width-7 rows of a promoted point
    below 2^129."""

    @settings(max_examples=100, deadline=None)
    @given(half=st.integers(-(2**128) + 1, 2**128 - 1))
    @example(half=2**128 - 1)
    @example(half=-(2**128 - 1))
    @example(half=0)
    @example(half=2**120 - 1)  # carries into the 13th row
    @example(half=-513 << 110)  # carries into the 13th row, negative
    def test_generator_table(self, half):
        table = group_module._load_g_table()
        r = group_module._fixed_window_madd((0, 1, 0), table, half, group_module._G_WIDTH)
        assert group_module._jac_to_affine(*r) == ladder_mul(half, _GEN)

    @settings(max_examples=100, deadline=None)
    @given(half=st.integers(-(2**129) + 1, 2**129 - 1))
    @example(half=2**129 - 1)
    @example(half=-(2**129 - 1))
    @example(half=2**126 - 1)  # carries into the 19th row
    @example(half=-65 << 120)  # carries into the 19th row, negative
    def test_promoted_rows(self, half):
        X, table = _promoted_table()
        r = group_module._fixed_window_madd((0, 1, 0), table, half, group_module._GLV_WIDTH)
        assert group_module._jac_to_affine(*r) == ladder_mul(half, X)


class TestCountersAcrossThreads:
    def test_each_thread_counts_its_own(self):
        toy = ToyGroup(101)
        X = toy.element(3)
        plans = {"a": (300, 0), "b": (500, 200)}  # (mults, adds) per scope
        seen = {name: [] for name in plans}
        start = threading.Barrier(len(plans))

        def run(name):
            mults, adds = plans[name]
            start.wait(timeout=10)
            for _ in range(20):
                with toy.counting() as c:
                    for _ in range(mults):
                        5 * X
                    for _ in range(adds):
                        X + X
                seen[name].append((c.scalar_mults, c.group_adds))

        _run_concurrently(run, [(name,) for name in plans])
        for name, plan in plans.items():
            assert seen[name] == [plan] * 20

    def test_other_threads_uncounted_work_stays_out(self):
        toy = ToyGroup(13)
        X = toy.element(2)
        stop = threading.Event()

        def noise():
            while not stop.is_set():
                2 * X

        worker = threading.Thread(target=noise)
        with toy.counting() as c:
            worker.start()
            try:
                for _ in range(2000):
                    X + X
            finally:
                stop.set()
                worker.join(timeout=10)
        assert not worker.is_alive()
        assert (c.scalar_mults, c.group_adds) == (0, 2000)
