"""OpenSSL, through the `cryptography` package, as an oracle for the
secp256k1 layer that shares no code or constants with hsc.

Decoding: `decode_element` must accept exactly the 33-byte encodings
that `EllipticCurvePublicKey.from_encoded_point` accepts and give the
same (x, y), with one documented exception: hsc reads 33 zero bytes as
the identity, which has no SEC 1 compressed form.  Every encoding is
decoded twice, once with the cache of recent decodes cleared and once
more, which for an accepted encoding is a cache hit.

Multiplication: k*G must be the public key OpenSSL derives from the
private key k, and k*X for X = j*G must be OpenSSL's (k*j mod N)*G, on
X's first use, on the call that promotes X and on a warm call.
"""

import random

from test_group import EDGE_SCALARS, _LONG_HALF_SCALARS

import pytest

from hsc import group as group_module
from hsc.group import DecodeError, Secp256k1Group

ec = pytest.importorskip(
    "cryptography.hazmat.primitives.asymmetric.ec",
    reason="the OpenSSL oracle needs the cryptography package (the test extra)",
)
serialization = pytest.importorskip("cryptography.hazmat.primitives.serialization")

_P = group_module._P
_N = group_module._N
_GX = group_module._GX
_IDENTITY = b"\x00" * 33
_REJECTED = "rejected"

# x coordinates at and around the field's bounds
_EDGE_X = [0, 1, _P - 1, _P, _P + 1, 2**256 - 1]


def _openssl_decode(data: bytes):
    try:
        key = ec.EllipticCurvePublicKey.from_encoded_point(ec.SECP256K1(), data)
    except ValueError:
        return _REJECTED
    numbers = key.public_numbers()
    return numbers.x, numbers.y


def _hsc_decode(secp, data: bytes):
    try:
        return secp.decode_element(data).value
    except DecodeError:
        return _REJECTED


def _openssl_encoding(k: int) -> bytes:
    """The compressed encoding of k*G for 0 < k < N, made by OpenSSL."""
    return ec.derive_private_key(k, ec.SECP256K1()).public_key().public_bytes(
        serialization.Encoding.X962, serialization.PublicFormat.CompressedPoint)


def _openssl_points(count: int, rng):
    """Compressed encodings of random public keys, made by OpenSSL."""
    return [_openssl_encoding(rng.randrange(1, _N)) for _ in range(count)]


def _edge_encodings():
    out = [bytes([prefix]) + x.to_bytes(32, "big")
           for prefix in (0x02, 0x03) for x in _EDGE_X]
    out += [bytes([prefix]) + x.to_bytes(32, "big")
            for prefix in (0x00, 0x01, 0x04) for x in [_GX] + _EDGE_X]
    # prefix 00 with x = 0 is the identity, compared on its own below
    return [data for data in out if data != _IDENTITY]


def _random_x_encodings(count: int, rng):
    """Random x under a random prefix: about half name a curve point."""
    return [bytes([rng.choice((0x02, 0x03))]) + rng.randbytes(32) for _ in range(count)]


@pytest.fixture(scope="module")
def encodings():
    rng = random.Random(1301)
    return (_openssl_points(48, rng) + _edge_encodings()
            + _random_x_encodings(400, rng))


class TestDecodeAgainstOpenSSL:
    def test_same_accepts_and_points_cold_and_cached(self, encodings):
        secp = Secp256k1Group()
        accepted = rejected = 0
        for data in encodings:
            expected = _openssl_decode(data)
            group_module._decompress.cache_clear()
            assert _hsc_decode(secp, data) == expected, data.hex()  # cold
            assert _hsc_decode(secp, data) == expected, data.hex()  # cached
            if expected == _REJECTED:
                rejected += 1
            else:
                accepted += 1
        # the inputs exercise both outcomes, not one
        assert accepted >= 48 + 150 and rejected >= 150

    def test_identity_is_the_one_documented_difference(self):
        secp = Secp256k1Group()
        assert _openssl_decode(_IDENTITY) == _REJECTED
        assert secp.decode_element(_IDENTITY).is_identity()
        assert secp.decode_element(_IDENTITY).is_identity()


def _openssl_mul_g(k: int):
    """(x, y) of k*G for 0 < k < N, from OpenSSL."""
    numbers = ec.derive_private_key(k, ec.SECP256K1()).public_key().public_numbers()
    return numbers.x, numbers.y


@pytest.fixture(scope="module")
def scalars():
    """The edge scalars, scalars with GLV halves of 127 and 128 bits of
    both signs, and random ones; 0 has no OpenSSL key and is checked on
    its own."""
    rng = random.Random(1302)
    return ([k for k in EDGE_SCALARS if k] + _LONG_HALF_SCALARS
            + [rng.randrange(1, _N) for _ in range(16)])


class TestMultiplyAgainstOpenSSL:
    def test_generator(self, scalars):
        secp = Secp256k1Group()
        for k in scalars:
            assert (k * secp.generator()).value == _openssl_mul_g(k), hex(k)
        assert (0 * secp.generator()).is_identity()

    def test_points_on_first_use_promotion_and_warm_call(self, scalars):
        secp = Secp256k1Group()
        rng = random.Random(1303)
        for k in scalars:
            j = rng.randrange(1, _N)
            X = secp.decode_element(_openssl_encoding(j))
            expected = _openssl_mul_g(k * j % _N)
            group_module._promotion.cache_clear()
            # the odd-multiples path, then the promotion, then the table
            for call in ("first use", "promotion", "warm"):
                assert (k * X).value == expected, (call, hex(k))
            assert (0 * X).is_identity()
