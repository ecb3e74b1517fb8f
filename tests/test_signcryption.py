"""Both signcryption directions: worked vectors, roundtrips, the
derivation chains, tampering, and edge cases."""

import copy
import random

import pytest
from hypothesis import given, settings, strategies as st

from hsc import codec, keys, signcryption
from hsc.group import DecodeError, ToyGroup
from hsc.signcryption import (
    Ciphertext,
    Direction,
    MessageSizeError,
    RejectedCiphertext,
    _xor,
    cphs_signcrypt,
    cphs_unsigncrypt,
    pchs_signcrypt,
    pchs_unsigncrypt,
)

from conftest import FixedRng, RecordingRng, ScriptedOracle


class TestWorkedVectors:
    def test_pchs(self, toy13):
        sigma = pchs_signcrypt(toy13.params, toy13.pki, b"server",
                               toy13.clc.public, toy13.m, FixedRng(toy13.k))
        assert (sigma.c, int(sigma.u), sigma.V.value) == toy13.pchs_sigma
        assert sigma.direction == Direction.PCHS
        out = pchs_unsigncrypt(toy13.params, toy13.clc, toy13.pki.PK_p, sigma)
        assert out == toy13.m

    def test_cphs(self, toy13):
        sigma = cphs_signcrypt(toy13.params, toy13.clc, toy13.pki.PK_p,
                               toy13.m, FixedRng(toy13.k))
        assert (sigma.c, int(sigma.u), sigma.V.value) == toy13.cphs_sigma
        assert sigma.direction == Direction.CPHS
        out = cphs_unsigncrypt(toy13.params, toy13.pki, b"server",
                               toy13.clc.public, sigma)
        assert out == toy13.m

    def test_byte_identical_under_scripted_randomness(self, toy13):
        def pchs_once():
            sigma = pchs_signcrypt(toy13.params, toy13.pki, b"server",
                                   toy13.clc.public, toy13.m, FixedRng(toy13.k))
            return codec.encode_ciphertext(sigma)

        def cphs_once():
            sigma = cphs_signcrypt(toy13.params, toy13.clc, toy13.pki.PK_p,
                                   toy13.m, FixedRng(toy13.k))
            return codec.encode_ciphertext(sigma)

        assert pchs_once() == pchs_once()
        assert cphs_once() == cphs_once()


class TestHashEqualsNonceEdge:
    def test_u_zero_roundtrips(self, toy13):
        # script h == k: u = 0 and R2 = R1, still a valid ciphertext
        el = toy13.group.element
        params = copy.copy(toy13.params)
        params.oracles = ScriptedOracle(
            toy13.group,
            h1={(b"server", el(2)): 5},
            h2={(toy13.m, el(7)): 7},
            h3={el(7): bytes([0b0110])},
        )
        sigma = pchs_signcrypt(params, toy13.pki, b"server",
                               toy13.clc.public, toy13.m, FixedRng(7))
        assert sigma.u.is_zero()
        assert pchs_unsigncrypt(params, toy13.clc, toy13.pki.PK_p,
                                sigma) == toy13.m
        sigma = cphs_signcrypt(params, toy13.clc, toy13.pki.PK_p,
                               toy13.m, FixedRng(7))
        assert sigma.u.is_zero()
        assert cphs_unsigncrypt(params, toy13.pki, b"server",
                                toy13.clc.public, sigma) == toy13.m


class TestFreshNonce:
    def test_repeat_signcryptions_differ(self, prod, rng):
        m = b"same message"
        a = pchs_signcrypt(prod.params, prod.alice, prod.identity,
                           prod.bob.public, m, rng)
        b = pchs_signcrypt(prod.params, prod.alice, prod.identity,
                           prod.bob.public, m, rng)
        assert (a.u, a.V) != (b.u, b.V)


class TestRoundtrips:
    def test_pchs_production(self, prod, rng):
        for _ in range(25):
            m = bytes(rng.getrandbits(8) for _ in range(rng.randrange(1, 64)))
            sigma = pchs_signcrypt(prod.params, prod.alice, prod.identity,
                                   prod.bob.public, m, rng)
            assert pchs_unsigncrypt(prod.params, prod.bob, prod.alice.PK_p,
                                    sigma) == m

    def test_cphs_production(self, prod, rng):
        for _ in range(25):
            m = bytes(rng.getrandbits(8) for _ in range(rng.randrange(1, 64)))
            sigma = cphs_signcrypt(prod.params, prod.bob, prod.alice.PK_p, m, rng)
            assert cphs_unsigncrypt(prod.params, prod.alice, prod.identity,
                                    prod.bob.public, sigma) == m

    def test_toy_q101_without_any_rng(self):
        # every draw falls back to Group.random_scalar's OS CSPRNG
        params, master = keys.setup("toy-101", n=32)
        pki = keys.pki_keygen(params)
        clc = keys.clc_keygen(params, master, b"peer")
        m = b"tiny"
        sigma = pchs_signcrypt(params, pki, b"peer", clc.public, m)
        assert pchs_unsigncrypt(params, clc, pki.PK_p, sigma) == m
        sigma = cphs_signcrypt(params, clc, pki.PK_p, m)
        assert cphs_unsigncrypt(params, pki, b"peer", clc.public, sigma) == m

    @settings(max_examples=60, deadline=None)
    @given(k=st.integers(1, 100), m=st.binary(min_size=1, max_size=4))
    def test_toy_q101_real_hashes(self, k, m):
        toy = ToyGroup(101)
        rng = random.Random(99)
        params, master = keys.setup(toy, n=32, rng=rng)
        pki = keys.pki_keygen(params, rng)
        clc = keys.clc_keygen(params, master, b"peer", rng)
        sigma = pchs_signcrypt(params, pki, b"peer", clc.public, m, FixedRng(k))
        assert pchs_unsigncrypt(params, clc, pki.PK_p, sigma) == m
        sigma = cphs_signcrypt(params, clc, pki.PK_p, m, FixedRng(k))
        assert cphs_unsigncrypt(params, pki, b"peer", clc.public, sigma) == m


class TestDerivationChains:
    """Recover the nonce from a recording rng and check the unsigncrypt
    algebra step by step."""

    def test_pchs_chain(self, prod, rng):
        params = prod.params
        for _ in range(10):
            rec = RecordingRng(rng)
            m = bytes(rng.getrandbits(8) for _ in range(16))
            sigma = pchs_signcrypt(params, prod.alice, prod.identity,
                                   prod.bob.public, m, rec)
            k = params.group.scalar(rec.draws[-1])
            R1 = k * params.P
            h = params.oracles.h2(m, R1)
            # receiver's first step recovers k*P
            lhs = prod.bob.x_c.invert() * (sigma.V - prod.bob.d * params.P)
            assert lhs == R1
            # and u repairs R1 into h*P
            assert R1 + sigma.u * prod.alice.PK_p == h * params.P

    def test_cphs_chain(self, prod, rng):
        params = prod.params
        gamma = params.oracles.h1(prod.identity, prod.bob.T)
        Q = prod.bob.PK_c1 + prod.bob.T + gamma * params.Ppub
        for _ in range(10):
            rec = RecordingRng(rng)
            m = bytes(rng.getrandbits(8) for _ in range(16))
            sigma = cphs_signcrypt(params, prod.bob, prod.alice.PK_p, m, rec)
            k = params.group.scalar(rec.draws[-1])
            R1 = k * params.P
            h = params.oracles.h2(m, R1)
            assert prod.alice.x_p * sigma.V == R1
            assert R1 + sigma.u * Q == h * params.P


class TestTampering:
    def _flip(self, sigma, params, bit_index):
        data = bytearray(codec.encode_ciphertext(sigma))
        data[bit_index // 8] ^= 1 << (bit_index % 8)
        return codec.decode_ciphertext(bytes(data), params)

    def test_pchs_bit_flips_rejected(self, prod, rng):
        params = prod.params
        m = b"do not touch this message"
        sigma = pchs_signcrypt(params, prod.alice, prod.identity,
                               prod.bob.public, m, rng)
        total_bits = len(codec.encode_ciphertext(sigma)) * 8
        for _ in range(60):
            bit = rng.randrange(8, total_bits)  # skip the direction byte here
            try:
                mangled = self._flip(sigma, params, bit)
            except (codec.CodecError, DecodeError):
                continue
            with pytest.raises(RejectedCiphertext):
                pchs_unsigncrypt(params, prod.bob, prod.alice.PK_p, mangled)

    def test_tampering_in_place(self, prod, rng):
        # the fields stay assignable, as the end-to-end benchmark's
        # tampering relies on; equality follows the fields
        params = prod.params
        sigma = pchs_signcrypt(params, prod.alice, prod.identity,
                               prod.bob.public, b"in place", rng)
        twin = Ciphertext(sigma.c, sigma.u, sigma.V, sigma.direction)
        assert twin == sigma and repr(twin) == repr(sigma)
        assert repr(sigma).startswith("Ciphertext(c=b'")
        twin.c = bytes([twin.c[0] ^ 1]) + twin.c[1:]
        assert twin != sigma
        with pytest.raises(RejectedCiphertext):
            pchs_unsigncrypt(params, prod.bob, prod.alice.PK_p, twin)
        twin.c, twin.u = sigma.c, sigma.u + 1
        assert twin != sigma
        with pytest.raises(RejectedCiphertext):
            pchs_unsigncrypt(params, prod.bob, prod.alice.PK_p, twin)
        twin.u = sigma.u
        assert twin == sigma
        assert pchs_unsigncrypt(params, prod.bob, prod.alice.PK_p, twin) == b"in place"

    def test_cphs_u_and_V_tampering_rejected(self, prod, rng):
        params = prod.params
        sigma = cphs_signcrypt(params, prod.bob, prod.alice.PK_p, b"payload", rng)
        one = params.group.scalar(1)
        with pytest.raises(RejectedCiphertext):
            bad = Ciphertext(sigma.c, sigma.u + one, sigma.V, sigma.direction)
            cphs_unsigncrypt(params, prod.alice, prod.identity, prod.bob.public, bad)
        with pytest.raises(RejectedCiphertext):
            bad = Ciphertext(sigma.c, sigma.u, sigma.V + params.P, sigma.direction)
            cphs_unsigncrypt(params, prod.alice, prod.identity, prod.bob.public, bad)


def definitional_accepts(params, pki, clc, sigma):
    """The scheme's acceptance test as written, R1 == h*P - u*X with
    h = H2(m, R1), computed here from the receiver's secrets: X is the
    sender's public combination (PK_p for PCHS, PK_c1 + T + γ*Ppub for
    CPHS) and m is c unmasked under R2 = R1 + u*X."""
    if sigma.direction == Direction.PCHS:
        R1 = clc.x_c.invert() * (sigma.V - clc.d * params.P)
        X = pki.PK_p
    else:
        R1 = pki.x_p * sigma.V
        gamma = params.oracles.h1(clc.identity, clc.T)
        X = clc.PK_c1 + clc.T + gamma * params.Ppub
    mask = params.oracles.h3(R1 + sigma.u * X, len(sigma.c))
    m = bytes(a ^ b for a, b in zip(sigma.c, mask))
    return R1 == params.oracles.h2(m, R1) * params.P - sigma.u * X


def unsigncrypt_accepts(params, pki, clc, sigma):
    try:
        if sigma.direction == Direction.PCHS:
            pchs_unsigncrypt(params, clc, pki.PK_p, sigma)
        else:
            cphs_unsigncrypt(params, pki, clc.identity, clc.public, sigma)
    except RejectedCiphertext:
        return False
    return True


class TestDefinitionalCheck:
    """Unsigncrypt checks R2 == h*P; it must accept exactly the
    ciphertexts that pass the definitional R1 == h*P - u*X."""

    def test_toy13_worked_vectors_every_u_and_V(self, toy13):
        # the worked-vector oracle, extended to answer every query a
        # tampered ciphertext can raise on the 1-byte, q=13 toy setup
        group, el = toy13.group, toy13.group.element
        h2 = {(bytes([b]), el(j)): (b + 3 * j) % 13 for b in range(256) for j in range(13)}
        h2[(toy13.m, el(7))] = 9
        h3 = {el(j): bytes([37 * j % 256]) for j in range(13)}
        h3[el(9)] = bytes([0b0110])
        params = copy.copy(toy13.params)
        params.oracles = ScriptedOracle(group, h1={(b"server", el(2)): 5}, h2=h2, h3=h3)
        honest = [
            pchs_signcrypt(params, toy13.pki, b"server", toy13.clc.public,
                           toy13.m, FixedRng(toy13.k)),
            cphs_signcrypt(params, toy13.clc, toy13.pki.PK_p, toy13.m,
                           FixedRng(toy13.k)),
        ]
        for sigma in honest:
            assert definitional_accepts(params, toy13.pki, toy13.clc, sigma)
            assert unsigncrypt_accepts(params, toy13.pki, toy13.clc, sigma)
            rejected = 0
            for u in range(13):
                for V in range(13):
                    bad = Ciphertext(sigma.c, group.scalar(u), el(V), sigma.direction)
                    verdict = definitional_accepts(params, toy13.pki, toy13.clc, bad)
                    assert unsigncrypt_accepts(params, toy13.pki, toy13.clc, bad) == verdict
                    rejected += not verdict
            assert rejected > 0

    def test_secp256k1_honest_and_tampered(self, prod, rng):
        params, one = prod.params, prod.params.group.scalar(1)
        for m in (b"payload", bytes(range(200))):
            for sigma in (
                pchs_signcrypt(params, prod.alice, prod.identity, prod.bob.public, m, rng),
                cphs_signcrypt(params, prod.bob, prod.alice.PK_p, m, rng),
            ):
                assert definitional_accepts(params, prod.alice, prod.bob, sigma)
                assert unsigncrypt_accepts(params, prod.alice, prod.bob, sigma)
                for bad in (
                    Ciphertext(sigma.c, sigma.u + one, sigma.V, sigma.direction),
                    Ciphertext(sigma.c, sigma.u, sigma.V + params.P, sigma.direction),
                ):
                    assert not definitional_accepts(params, prod.alice, prod.bob, bad)
                    assert not unsigncrypt_accepts(params, prod.alice, prod.bob, bad)


class TestWrongKey:
    def test_pchs_wrong_receiver_rejected_1000_trials(self, prod, rng):
        params = prod.params
        sigmas = [pchs_signcrypt(params, prod.alice, prod.identity,
                                 prod.bob.public, b"for bob only %d" % i, rng)
                  for i in range(40)]
        others = [keys.clc_keygen(params, prod.master, b"other-%d" % i, rng)
                  for i in range(25)]
        for other in others:
            for sigma in sigmas:
                with pytest.raises(RejectedCiphertext):
                    pchs_unsigncrypt(params, other, prod.alice.PK_p, sigma)

    def test_cphs_wrong_receiver_rejected(self, prod, rng):
        params = prod.params
        sigma = cphs_signcrypt(params, prod.bob, prod.alice.PK_p, b"for alice", rng)
        for _ in range(10):
            other = keys.pki_keygen(params, rng)
            with pytest.raises(RejectedCiphertext):
                cphs_unsigncrypt(params, other, prod.identity,
                                 prod.bob.public, sigma)


class TestDirectionEnforcement:
    def test_cross_direction_is_bot(self, prod, rng):
        params = prod.params
        p_sigma = pchs_signcrypt(params, prod.alice, prod.identity,
                                 prod.bob.public, b"x", rng)
        c_sigma = cphs_signcrypt(params, prod.bob, prod.alice.PK_p, b"x", rng)
        with pytest.raises(RejectedCiphertext):
            cphs_unsigncrypt(params, prod.alice, prod.identity,
                             prod.bob.public, p_sigma)
        with pytest.raises(RejectedCiphertext):
            pchs_unsigncrypt(params, prod.bob, prod.alice.PK_p, c_sigma)


class TestDirectionTable:
    """Each DIRECTIONS entry calls the four functions by their names in
    the signcryption module at call time, so a wrapper assigned to one of
    those names sees every call made through the table."""

    @pytest.mark.parametrize("mode", ["cphs", "pchs"])
    def test_wrappers_see_every_call(self, prod, rng, monkeypatch, mode):
        calls = []
        for name in ("pchs_signcrypt", "pchs_unsigncrypt",
                     "cphs_signcrypt", "cphs_unsigncrypt"):
            def wrapper(*args, fn=getattr(signcryption, name), name=name):
                calls.append(name)
                return fn(*args)
            monkeypatch.setattr(signcryption, name, wrapper)
        spec = signcryption.DIRECTIONS[mode]
        sides = {type(prod.alice): (prod.alice, prod.alice.PK_p),
                 type(prod.bob): (prod.bob, (prod.identity, prod.bob.public))}
        sender, sender_export = sides[spec.sender]
        receiver, receiver_export = sides[spec.receiver]
        sigma = spec.signcrypt(prod.params, sender, receiver_export, b"m", rng)
        assert spec.unsigncrypt(prod.params, receiver, sender_export, sigma) == b"m"
        assert calls == [f"{mode}_signcrypt", f"{mode}_unsigncrypt"]


class TestMessageBounds:
    def test_empty_message_rejected(self, prod, rng):
        with pytest.raises(MessageSizeError):
            pchs_signcrypt(prod.params, prod.alice, prod.identity,
                           prod.bob.public, b"", rng)
        with pytest.raises(MessageSizeError):
            cphs_signcrypt(prod.params, prod.bob, prod.alice.PK_p, b"", rng)

    def test_oversize_message_rejected(self, prod, rng):
        too_big = b"\x00" * (prod.params.max_message_bytes + 1)
        with pytest.raises(MessageSizeError):
            pchs_signcrypt(prod.params, prod.alice, prod.identity,
                           prod.bob.public, too_big, rng)

    def test_oversize_ciphertext_is_bot(self, prod, rng):
        sigma = pchs_signcrypt(prod.params, prod.alice, prod.identity,
                               prod.bob.public, b"ok", rng)
        bloated = Ciphertext(b"\x00" * (prod.params.max_message_bytes + 1),
                             sigma.u, sigma.V, sigma.direction)
        with pytest.raises(RejectedCiphertext):
            pchs_unsigncrypt(prod.params, prod.bob, prod.alice.PK_p, bloated)


class TestXorMask:
    @given(data=st.binary(max_size=1100), seed=st.integers(0, 2**32))
    def test_matches_bytewise_xor(self, data, seed):
        mask = random.Random(seed).randbytes(len(data))
        assert _xor(data, mask) == bytes(a ^ b for a, b in zip(data, mask))

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            _xor(b"\x00\x01", b"\x00")
