"""Oracle layer: determinism, domain separation, hash-to-scalar range,
the XOF prefix property, and the scripted stand-in."""

import hashlib

import pytest

from hsc.group import ToyGroup
from hsc.hashing import HashConfig, HashOracles, MessageTooLongError

from conftest import UnscriptedQueryError


@pytest.fixture
def prod_oracles(prod):
    return prod.params.oracles


@pytest.fixture
def toy_oracles():
    toy = ToyGroup(13)
    return toy, HashOracles(toy, HashConfig(), max_message_bytes=4)


class TestDeterminism:
    def test_h1_h2_h3_repeat(self, prod, prod_oracles):
        T = prod.bob.T
        assert prod_oracles.h1(b"server", T) == prod_oracles.h1(b"server", T)
        assert prod_oracles.h2(b"msg", T) == prod_oracles.h2(b"msg", T)
        assert prod_oracles.h3(T, 16) == prod_oracles.h3(T, 16)

    def test_different_identity_different_scalar(self, prod, prod_oracles):
        T = prod.bob.T
        assert prod_oracles.h1(b"a", T) != prod_oracles.h1(b"b", T)


class TestDomainSeparation:
    def test_preimages_carry_distinct_tags(self, prod, prod_oracles):
        cfg = prod.params.hash
        T = prod.bob.T
        payload = b"payload"
        p1 = prod_oracles.h1_preimage(payload, T)
        p2 = prod_oracles.h2_preimage(payload, T)
        assert p1.startswith(cfg.domain_tags[0])
        assert p2.startswith(cfg.domain_tags[1])
        assert prod_oracles.h3_preimage(T).startswith(cfg.domain_tags[2])
        # identical payloads, different tags, different outputs
        assert p1 != p2
        assert prod_oracles.h1(payload, T) != prod_oracles.h2(payload, T)

    def test_config_rejects_duplicate_tags(self):
        with pytest.raises(ValueError):
            HashConfig(domain_tags=(b"x", b"x", b"y"))

    def test_config_rejects_unknown_xof(self):
        for algorithm in ("md5", "shake128"):
            with pytest.raises(ValueError):
                HashConfig(algorithm=algorithm)


class TestBitSensitivity:
    def test_h2_changes_under_single_bit_flips(self, prod, prod_oracles, rng):
        R1 = prod.bob.T
        m = bytes(rng.getrandbits(8) for _ in range(32))
        h = prod_oracles.h2(m, R1)
        for _ in range(1000):
            i = rng.randrange(len(m) * 8)
            flipped = bytearray(m)
            flipped[i // 8] ^= 1 << (i % 8)
            assert prod_oracles.h2(bytes(flipped), R1) != h


class TestMaskOracle:
    def test_zero_length_mask(self, prod, prod_oracles):
        assert prod_oracles.h3(prod.bob.T, 0) == b""

    def test_prefix_property(self, prod, prod_oracles):
        R2 = prod.bob.PK_c1
        short, long = prod_oracles.h3(R2, 5), prod_oracles.h3(R2, 64)
        assert long.startswith(short)

    def test_mask_length_cap(self, prod, prod_oracles):
        cap = prod.params.max_message_bytes
        with pytest.raises(MessageTooLongError):
            prod_oracles.h3(prod.bob.T, cap + 1)


class TestHashToScalar:
    def test_outputs_nonzero_toy(self, toy_oracles):
        # q=13, so a naive reduction hits zero for ~1/13 of inputs; the
        # retry loop must keep every output in [1, 12]
        toy, oracles = toy_oracles
        T = toy.element(2)
        values = [int(oracles.h1(b"id-%d" % i, T)) for i in range(2000)]
        assert all(1 <= v <= 12 for v in values)
        assert set(values) == set(range(1, 13))

    def test_retry_path_is_deterministic(self, toy_oracles):
        toy, oracles = toy_oracles
        T = toy.element(2)
        # find an identity whose first wide reduction is exactly zero,
        # i.e. the output required at least one counter-byte retry
        wide = 2 * toy.descriptor.scalar_len
        for i in range(10_000):
            identity = b"retry-%d" % i
            pre = oracles.h1_preimage(identity, T)
            if int.from_bytes(hashlib.shake_256(pre).digest(wide), "big") % 13 == 0:
                break
        else:
            raise AssertionError("no zero-reduction input found")
        first = oracles.h1(identity, T)
        assert not first.is_zero()
        assert oracles.h1(identity, T) == first

    def test_oversize_message_rejected(self, toy_oracles):
        toy, oracles = toy_oracles
        with pytest.raises(MessageTooLongError):
            oracles.h2(b"\x00" * 5, toy.element(1))


class TestHashCounting:
    def test_oracle_calls_tally_in_scope(self, toy_oracles):
        toy, oracles = toy_oracles
        T = toy.element(2)
        with toy.counting() as c:
            oracles.h1(b"x", T)
            oracles.h2(b"y", T)
            oracles.h3(T, 2)
        assert c.hash_calls == 3


class TestScriptedOracle:
    def test_returns_scripted_values(self, toy13):
        el = toy13.group.element
        assert int(toy13.oracle.h1(b"server", el(2))) == 5
        assert int(toy13.oracle.h2(toy13.m, el(7))) == 9
        assert toy13.oracle.h3(el(9), 1) == bytes([0b0110])

    def test_unscripted_query_raises(self, toy13):
        el = toy13.group.element
        with pytest.raises(UnscriptedQueryError):
            toy13.oracle.h1(b"nobody", el(2))
        with pytest.raises(UnscriptedQueryError):
            toy13.oracle.h2(b"\xff", el(7))
        with pytest.raises(UnscriptedQueryError):
            toy13.oracle.h3(el(3), 1)

    def test_mask_length_must_match_script(self, toy13):
        with pytest.raises(UnscriptedQueryError):
            toy13.oracle.h3(toy13.group.element(9), 2)

    def test_scripted_calls_tally_too(self, toy13):
        with toy13.group.counting() as c:
            toy13.oracle.h1(b"server", toy13.group.element(2))
        assert c.hash_calls == 1
