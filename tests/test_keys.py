"""Key lifecycle: setup, PKI keygen, partial-key issue/verify/finalize,
and the invariants that keep the schemes' algebra alive."""

import random

import pytest

from hsc import codec, keys
from hsc.group import ToyGroup
from hsc.keys import DegenerateKeyError, PartialKeyError
from hsc.signcryption import pchs_signcrypt

from conftest import FixedRng, ScriptedOracle


class TestSetup:
    def test_toy_scripted_master(self, toy13):
        assert int(toy13.master.s) == 3
        assert toy13.params.Ppub.value == 3  # 3*1 mod 13

    def test_ppub_never_identity(self, prod):
        assert not prod.params.Ppub.is_identity()

    def test_independent_setups_differ(self):
        a = keys.setup("secp256k1", rng=random.Random(1))
        b = keys.setup("secp256k1", rng=random.Random(2))
        assert a[1].s != b[1].s
        assert a[0].Ppub != b[0].Ppub

    def test_rejects_nonpositive_cap(self):
        with pytest.raises(ValueError):
            keys.setup("toy-13", n=0)

    def test_rejects_n_and_l_wider_than_the_params_file(self):
        # the params file stores n in 4 bytes and l in 2
        params, _ = keys.setup("toy-13", n=2**32 - 1, l=2**16 - 1)
        codec.encode_params(params)
        with pytest.raises(ValueError):
            keys.setup("toy-13", n=2**32)
        with pytest.raises(ValueError):
            keys.setup("toy-13", l=2**16)
        with pytest.raises(ValueError):
            keys.setup("toy-13", l=-1)

    def test_default_security_bits(self, prod):
        assert prod.params.l == prod.params.group.descriptor.q.bit_length()


class TestPkiKeygen:
    def test_toy_scripted_values(self, toy13):
        assert int(toy13.pki.x_p) == 5
        assert toy13.pki.PK_p.value == 8  # inverse of 5 mod 13
        assert (5 * toy13.pki.PK_p).value == 1  # x_p * PK_p == P

    def test_defining_equation_production(self, prod, rng):
        for _ in range(10):
            key = keys.pki_keygen(prod.params, rng)
            assert key.x_p * key.PK_p == prod.params.P

    def test_defining_equation_toy_exhaustive(self):
        toy = ToyGroup(101)
        params, _ = keys.setup(toy, n=8, rng=random.Random(3))
        for x_p in range(1, 101):
            key = keys.pki_keygen(params, FixedRng(x_p))
            assert key.x_p * key.PK_p == params.P


class TestPartialExtract:
    def test_toy_scripted_values(self, toy13):
        assert toy13.partial.T.value == 2
        assert int(toy13.partial.d) == 4  # 2 + 3*5 mod 13

    def test_validity_equation_scripted(self, toy13):
        # d*P = 4, T + gamma*Ppub = 2 + 5*3 = 17 = 4 mod 13
        assert (toy13.partial.d * toy13.params.P).value == 4
        assert keys.verify_partial_key(toy13.params, b"server", toy13.partial)

    def test_zero_d_resampled(self):
        # s=3; t=1 with gamma=4 gives d = 1 + 12 = 0, forcing a resample
        toy = ToyGroup(13)
        params, master = keys.setup(toy, n=8, rng=FixedRng(3))
        el = toy.element
        params.oracles = ScriptedOracle(toy, h1={(b"u", el(1)): 4, (b"u", el(2)): 5})
        partial = keys.clc_extract_partial(params, master, b"u", FixedRng(1, 2))
        assert partial.T.value == 2
        assert int(partial.d) == 4
        assert not partial.d.is_zero()

    def test_validity_holds_production(self, prod, rng):
        for i in range(5):
            identity = b"user-%d" % i
            partial = keys.clc_extract_partial(prod.params, prod.master, identity, rng)
            assert keys.verify_partial_key(prod.params, identity, partial)


class TestVerifyPartialKey:
    def test_tampered_d_rejected(self, prod, rng):
        partial = keys.clc_extract_partial(prod.params, prod.master, b"u", rng)
        bad = keys.ClcPartialKey(d=partial.d + prod.params.group.scalar(1), T=partial.T)
        assert not keys.verify_partial_key(prod.params, b"u", bad)

    def test_tampered_T_rejected(self, prod, rng):
        partial = keys.clc_extract_partial(prod.params, prod.master, b"u", rng)
        bad = keys.ClcPartialKey(d=partial.d, T=partial.T + prod.params.P)
        assert not keys.verify_partial_key(prod.params, b"u", bad)

    def test_wrong_identity_rejected(self, prod, rng):
        partial = keys.clc_extract_partial(prod.params, prod.master, b"u", rng)
        assert not keys.verify_partial_key(prod.params, b"someone-else", partial)


class TestClcFinalize:
    def test_toy_worked_values(self, toy13):
        assert toy13.clc.PK_c1.value == 6
        assert int(toy13.clc.x_c + toy13.clc.d) == 10  # nonzero, accepted

    def test_degenerate_secret_rejected(self, toy13):
        x_c = toy13.group.scalar(13 - 4)  # q - d
        with pytest.raises(DegenerateKeyError):
            keys.clc_finalize(toy13.params, b"server", toy13.partial, x_c)

    def test_tampered_partial_rejected(self, toy13):
        bad = keys.ClcPartialKey(d=toy13.partial.d + toy13.group.scalar(1),
                                 T=toy13.partial.T)
        with pytest.raises(PartialKeyError):
            keys.clc_finalize(toy13.params, b"server", bad, toy13.group.scalar(6))

    def test_zero_secret_rejected(self, toy13):
        with pytest.raises(ValueError):
            keys.clc_finalize(toy13.params, b"server", toy13.partial,
                              toy13.group.scalar(0))

    def test_public_key_equation(self, prod):
        assert prod.bob.PK_c1 == prod.bob.x_c * prod.params.P
        assert prod.bob.public == (prod.bob.T, prod.bob.PK_c1)


class TestClcKeygen:
    def test_invariants_hold(self, prod, rng):
        key = keys.clc_keygen(prod.params, prod.master, b"fresh", rng)
        assert key.PK_c1 == key.x_c * prod.params.P
        assert not (key.x_c + key.d).is_zero()
        assert keys.verify_partial_key(prod.params, b"fresh",
                                       keys.ClcPartialKey(d=key.d, T=key.T))

    def test_degenerate_draw_retried(self):
        # script the first x_c draw to be exactly q - d
        toy = ToyGroup(13)
        params, master = keys.setup(toy, n=8, rng=FixedRng(3))
        el = toy.element
        oracle = ScriptedOracle(toy, h1={(b"u", el(2)): 5})
        params.__dict__["oracles"] = oracle  # prime the cached property
        key = keys.clc_keygen(params, master, b"u", FixedRng(2, 13 - 4, 6))
        assert int(key.x_c) == 6


class TestNoSecretLeakage:
    def test_master_and_private_scalars_absent_from_public_bytes(self, prod, rng):
        params, master = prod.params, prod.master
        group = params.group
        secrets_bytes = [
            group.encode_scalar(master.s),
            group.encode_scalar(prod.alice.x_p),
            group.encode_scalar(prod.bob.x_c),
            group.encode_scalar(prod.bob.d),
        ]
        sigma = pchs_signcrypt(params, prod.alice, prod.identity,
                               prod.bob.public, b"probe message", rng)
        public_blobs = [
            codec.encode_params(params),
            codec.encode_pki_public(params, prod.alice.PK_p),
            codec.encode_clc_public(params, prod.identity, prod.bob.public),
            codec.encode_ciphertext(sigma),
        ]
        for blob in public_blobs:
            for secret in secrets_bytes:
                assert secret not in blob
