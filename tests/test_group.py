"""Group layer: toy group vs bare modular arithmetic, the production
curve vs an independent affine implementation and vs the 4-bit ladder
it used before GLV, encodings, counters."""

import random
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

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
        with pytest.raises(ValueError):
            make_group("toy-abc")


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
            assert abs(k1) < 2**129 and abs(k2) < 2**129

    def test_negative_halves_occur(self):
        assert group_module._glv_split(_N - 1) == (-1, 0)
        rng = random.Random(5)
        halves = [group_module._glv_split(rng.randrange(_N)) for _ in range(200)]
        assert any(k1 < 0 for k1, _ in halves)
        assert any(k2 < 0 for _, k2 in halves)

    def test_wnaf_digits(self):
        rng = random.Random(6)
        for k in [1, 2, 15, 16, 17, 31, 2**128] + [rng.getrandbits(129) for _ in range(200)]:
            digits = group_module._wnaf(k)
            assert sum(d << i for i, d in enumerate(digits)) == k
            nonzero = [i for i, d in enumerate(digits) if d]
            assert all(d % 2 == 1 and -15 <= d <= 15 for d in digits if d)
            # at most one non-zero digit in any five consecutive positions
            assert all(b - a >= 5 for a, b in zip(nonzero, nonzero[1:]))
            assert digits[-1] > 0


class TestMixedAdd:
    def test_coinciding_inputs_double(self):
        madd = group_module._jac_madd
        for X in _random_points(4, seed=21):
            doubled = madd(*_jacobian(X, 0xC0FFEE), *X)
            assert _to_affine(*doubled) == affine_add(X, X)

    def test_opposite_inputs_give_identity(self):
        madd = group_module._jac_madd
        for X in _random_points(4, seed=22):
            assert madd(*_jacobian(X, 12345), X[0], _P - X[1])[2] == 0

    def test_identity_plus_point(self):
        (X,) = _random_points(1, seed=23)
        assert group_module._jac_madd(0, 1, 0, *X) == (X[0], X[1], 1)

    def test_distinct_inputs_match_affine(self):
        X, Y = _random_points(2, seed=24)
        assert _to_affine(*group_module._jac_madd(*_jacobian(X, 99), *Y)) == affine_add(X, Y)


class TestOddMultiplesTable:
    def test_entries_are_odd_multiples(self):
        group_module._odd_multiples.cache_clear()
        for X in [_GEN] + _random_points(2, seed=31):
            table, table_lambda = group_module._odd_multiples(X)
            assert list(table) == [ladder_mul(m, X) for m in range(1, 16, 2)]
            assert list(table_lambda) == [ladder_mul(m * _LAMBDA, X) for m in range(1, 16, 2)]

    def test_cache_is_bounded_and_hit(self, secp):
        cache = group_module._odd_multiples
        assert cache.cache_info().maxsize is not None
        cache.cache_clear()
        X = 7 * secp.generator()
        for k in (3, 5, 7):
            k * X
        info = cache.cache_info()
        assert info.misses == 2  # the generator (for 7*G) and X
        assert info.hits == 2


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
                group_module._odd_multiples.cache_clear()
                assert secp._mul_value(k, X) == expected  # cold: builds the table
                assert secp._mul_value(k, X) == expected  # warm: cached table

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
            results[slot] = [secp._mul_value(k, X) for k, X in work[slot]]

        group_module._odd_multiples.cache_clear()
        _run_concurrently(run, [(0,), (1,)])
        assert results == expected


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
