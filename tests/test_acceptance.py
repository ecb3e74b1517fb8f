"""Acceptance suite: the project's exit criteria, one test per criterion.

Each test prints one PASS line (visible with -v plus -s, and in failure
output); a failed assert is the FAIL case.  Criteria with stated wall-time
budgets assert them.  Run just this file with:

    pytest tests/test_acceptance.py -v -s
"""

import random
import threading
import time

import pytest

from hsc import codec, keys, netdemo
from hsc.bench import bench_run
from hsc.group import (
    DecodeError,
    NonCanonicalScalarError,
    OffGroupError,
    ToyGroup,
)
from hsc.keys import ClcPartialKey, DegenerateKeyError
from hsc.signcryption import (
    RejectedCiphertext,
    cphs_signcrypt,
    cphs_unsigncrypt,
    pchs_signcrypt,
    pchs_unsigncrypt,
)

from conftest import FixedRng, RecordingRng


def _report(criterion: str, detail: str = "") -> None:
    print(f"\nACCEPTANCE {criterion}: PASS  {detail}")


# -- criterion 1: worked toy vectors -------------------------------------------


def _toy_oracle_expectations():
    """Recompute the q=13 vectors with bare modular arithmetic, fully
    independent of the library (its only inputs are the scripted values)."""
    q = 13
    s, t, gamma, x_c, x_p, k, h = 3, 2, 5, 6, 5, 7, 9
    m, mask = 0b1010, 0b0110
    Ppub = s % q
    T = t % q
    d = (t + s * gamma) % q
    PK_c1 = x_c % q
    PK_p = pow(x_p, -1, q)
    c = m ^ mask
    # first direction
    u1 = (h - k) * x_p % q
    V1 = (k * PK_c1 + T + gamma * Ppub) % q
    # second direction
    u2 = (h - k) * pow(x_c + d, q - 2, q) % q
    V2 = k * PK_p % q
    return dict(d=d, PK_p=PK_p, Ppub=Ppub,
                pchs=(bytes([c]), u1, V1), cphs=(bytes([c]), u2, V2))


def test_c1_worked_toy_vectors(toy13):
    start = time.perf_counter()
    expect = _toy_oracle_expectations()
    assert int(toy13.master.s) == 3 and toy13.params.Ppub.value == expect["Ppub"]
    assert int(toy13.partial.d) == expect["d"] == 4
    assert toy13.pki.PK_p.value == expect["PK_p"] == 8

    sigma = pchs_signcrypt(toy13.params, toy13.pki, b"server", toy13.clc.public,
                           toy13.m, FixedRng(7))
    assert (sigma.c, int(sigma.u), sigma.V.value) == expect["pchs"] \
        == (bytes([0b1100]), 10, 7)
    assert pchs_unsigncrypt(toy13.params, toy13.clc, toy13.pki.PK_p,
                            sigma) == toy13.m

    sigma = cphs_signcrypt(toy13.params, toy13.clc, toy13.pki.PK_p, toy13.m,
                           FixedRng(7))
    assert (sigma.c, int(sigma.u), sigma.V.value) == expect["cphs"] \
        == (bytes([0b1100]), 8, 4)
    assert cphs_unsigncrypt(toy13.params, toy13.pki, b"server", toy13.clc.public,
                            sigma) == toy13.m

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report("C1 worked-toy-vectors", f"{elapsed:.3f}s")


# -- criterion 2: roundtrip property --------------------------------------------


def test_c2_roundtrip_property(prod):
    start = time.perf_counter()
    params, rng = prod.params, random.Random(0xA11CE)

    for _ in range(1000):
        m = bytes(rng.getrandbits(8) for _ in range(rng.randrange(1, 48)))
        sigma = pchs_signcrypt(params, prod.alice, prod.identity,
                               prod.bob.public, m, rng)
        assert pchs_unsigncrypt(params, prod.bob, prod.alice.PK_p, sigma) == m

    for _ in range(1000):
        m = bytes(rng.getrandbits(8) for _ in range(rng.randrange(1, 48)))
        sigma = cphs_signcrypt(params, prod.bob, prod.alice.PK_p, m, rng)
        assert cphs_unsigncrypt(params, prod.alice, prod.identity,
                                prod.bob.public, sigma) == m

    # exhaustive nonces on the q=101 toy group, real hashes
    toy_rng = random.Random(0xB0B)
    tparams, tmaster = keys.setup(ToyGroup(101), n=32, rng=toy_rng)
    tpki = keys.pki_keygen(tparams, toy_rng)
    tclc = keys.clc_keygen(tparams, tmaster, b"peer", toy_rng)
    for k in range(1, 101):
        m = bytes([k & 0xFF, (k * 7) & 0xFF])
        sigma = pchs_signcrypt(tparams, tpki, b"peer", tclc.public, m, FixedRng(k))
        assert pchs_unsigncrypt(tparams, tclc, tpki.PK_p, sigma) == m
        sigma = cphs_signcrypt(tparams, tclc, tpki.PK_p, m, FixedRng(k))
        assert cphs_unsigncrypt(tparams, tpki, b"peer", tclc.public, sigma) == m

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report("C2 roundtrip-property", f"2000 production + 200 exhaustive toy, {elapsed:.1f}s")


# -- criterion 3: correctness chains --------------------------------------------


def test_c3_correctness_chains(prod):
    params, rng = prod.params, random.Random(0xC3)
    oracles = params.oracles
    gamma = oracles.h1(prod.identity, prod.bob.T)
    Q = prod.bob.PK_c1 + prod.bob.T + gamma * params.Ppub
    trials = 100

    for _ in range(trials):
        rec = RecordingRng(rng)
        m = bytes(rng.getrandbits(8) for _ in range(12))
        sigma = pchs_signcrypt(params, prod.alice, prod.identity,
                               prod.bob.public, m, rec)
        k = params.group.scalar(rec.draws[-1])
        kP = k * params.P
        h = oracles.h2(m, kP)
        assert prod.bob.x_c.invert() * (sigma.V - prod.bob.d * params.P) == kP
        assert kP + sigma.u * prod.alice.PK_p == h * params.P

    for _ in range(trials):
        rec = RecordingRng(rng)
        m = bytes(rng.getrandbits(8) for _ in range(12))
        sigma = cphs_signcrypt(params, prod.bob, prod.alice.PK_p, m, rec)
        k = params.group.scalar(rec.draws[-1])
        kP = k * params.P
        h = oracles.h2(m, kP)
        assert prod.alice.x_p * sigma.V == kP
        assert kP + sigma.u * Q == h * params.P

    _report("C3 correctness-chains", f"{trials} randomized trials per direction")


# -- criterion 4: tamper rejection ----------------------------------------------


def test_c4_tamper_rejection(prod):
    params, rng = prod.params, random.Random(0xF11)
    m = bytes(rng.getrandbits(8) for _ in range(24))
    flips = 1000
    outcomes = {"decode-reject": 0, "verify-reject": 0}

    def hammer(wire, unsigncrypt):
        accepted = 0
        for _ in range(flips):
            bit = rng.randrange(8, len(wire) * 8)  # uniform over (c, u, V)
            data = bytearray(wire)
            data[bit // 8] ^= 1 << (bit % 8)
            try:
                sigma = codec.decode_ciphertext(bytes(data), params)
            except (codec.CodecError, DecodeError):
                outcomes["decode-reject"] += 1
                continue
            try:
                unsigncrypt(sigma)
                accepted += 1
            except RejectedCiphertext:
                outcomes["verify-reject"] += 1
        return accepted

    sigma_p = pchs_signcrypt(params, prod.alice, prod.identity,
                             prod.bob.public, m, rng)
    accepted = hammer(
        codec.encode_ciphertext(sigma_p),
        lambda s: pchs_unsigncrypt(params, prod.bob, prod.alice.PK_p, s))
    assert accepted == 0

    sigma_c = cphs_signcrypt(params, prod.bob, prod.alice.PK_p, m, rng)
    accepted = hammer(
        codec.encode_ciphertext(sigma_c),
        lambda s: cphs_unsigncrypt(params, prod.alice, prod.identity,
                                   prod.bob.public, s))
    assert accepted == 0

    _report("C4 tamper-rejection",
            f"{2 * flips} flips, 0 accepted ({outcomes['decode-reject']} failed "
            f"decode, {outcomes['verify-reject']} failed verification)")


# -- criterion 5: operation counts ----------------------------------------------


def test_c5_op_count_conformance(prod):
    params, rng = prod.params, random.Random(0x05)
    group = params.group
    m = b"count me"

    with group.counting() as c:
        p2, m2 = keys.setup(group, n=params.n, rng=rng)
        keys.pki_keygen(p2, rng)
        partial = keys.clc_extract_partial(p2, m2, b"u", rng)
        keys.clc_finalize(p2, b"u", partial, group.random_scalar(rng))
    assert (c.scalar_mults, c.hash_calls) == (4, 1)

    with group.counting() as c:
        sigma_p = pchs_signcrypt(params, prod.alice, prod.identity,
                                 prod.bob.public, m, rng)
    assert (c.scalar_mults, c.hash_calls) == (4, 2)

    # this step is sometimes tallied at 3 multiplications, but the written
    # procedure needs 4 (d*P, (1/x_c)(V-dP), u*PK_p, h*P) and no
    # 3-multiplication evaluation order exists for it.  Pinned here so the
    # count cannot drift silently; see the README's cost table note.
    with group.counting() as c:
        pchs_unsigncrypt(params, prod.bob, prod.alice.PK_p, sigma_p)
    assert (c.scalar_mults, c.hash_calls) == (4, 2)
    assert c.scalar_mults != 3

    with group.counting() as c:
        sigma_c = cphs_signcrypt(params, prod.bob, prod.alice.PK_p, m, rng)
    assert (c.scalar_mults, c.hash_calls) == (3, 2)

    with group.counting() as c:
        cphs_unsigncrypt(params, prod.alice, prod.identity, prod.bob.public, sigma_c)
    assert (c.scalar_mults, c.hash_calls) == (4, 2)

    # the bench harness must measure the same numbers
    report = bench_run(params, iterations=4, rng=random.Random(0x55))
    expected = {
        "key_generation": (4, 1),
        "pchs_signcrypt": (4, 2),
        "pchs_unsigncrypt": (4, 2),
        "cphs_signcrypt": (3, 2),
        "cphs_unsigncrypt": (4, 2),
    }
    for name, (mults, hashes) in expected.items():
        counter = report.op_counts[name]
        assert (counter.scalar_mults, counter.hash_calls) == (mults, hashes), name

    _report("C5 op-count-conformance",
            "keygen 4S+1H, sign 4S/3S+2H, unsign 4S+2H both ways "
            "(pchs unsign pinned at 4S, not 3S)")


# -- criterion 6: ciphertext size ------------------------------------------------


def test_c6_ciphertext_size(prod):
    rng = random.Random(0x06)
    toy_params, toy_master = keys.setup(ToyGroup(101), n=8192, rng=rng)
    toy_pki = keys.pki_keygen(toy_params, rng)
    toy_clc = keys.clc_keygen(toy_params, toy_master, b"peer", rng)
    cases = [
        (prod.params, prod.alice, prod.bob, prod.identity),
        (toy_params, toy_pki, toy_clc, b"peer"),
    ]
    for params, pki, clc, identity in cases:
        d = params.group.descriptor
        for size in (1, 16, 100):
            m = bytes(rng.getrandbits(8) for _ in range(size))
            sigma = pchs_signcrypt(params, pki, identity, clc.public, m, rng)
            wire = codec.encode_ciphertext(sigma)
            assert len(wire) - 1 == d.scalar_len + d.element_len + size
            sigma = cphs_signcrypt(params, clc, pki.PK_p, m, rng)
            wire = codec.encode_ciphertext(sigma)
            assert len(wire) - 1 == d.scalar_len + d.element_len + size
    _report("C6 ciphertext-size",
            "|sigma|-1 == scalar_len+element_len+|m| for |m| in {1,16,100}, both groups")


# -- criterion 7: end-to-end demo -------------------------------------------------


def test_c7_end_to_end_demo(prod):
    start = time.perf_counter()
    params = prod.params

    for mode, server_key, client_key in (
        ("pchs", prod.bob, prod.alice),
        ("cphs", prod.alice, prod.bob),
    ):
        server = netdemo.DemoServer(params, server_key, mode=mode, port=0,
                                    timeout=8.0)
        box = {}
        thread = threading.Thread(target=lambda: box.update(s=server.serve_one()))
        thread.start()
        client = netdemo.run_client(params, client_key, b"hello slice",
                                    mode=mode, port=server.port, timeout=8.0)
        thread.join(timeout=10.0)
        server.close()
        session = box["s"]
        assert session.outcome == netdemo.OK and client.outcome == netdemo.OK
        assert session.plaintext == b"hello slice"
        assert [f.type_tag for f in session.frames] == [0x02, 0x03, 0x04, 0x05, 0x05]
        assert session.frames[3].payload == b"Verification Success!"
        assert session.frames[4].payload == b"The client has received the result."
        assert [(f.type_tag, f.payload) for f in session.frames] == \
            [(f.type_tag, f.payload) for f in client.frames]

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report("C7 end-to-end-demo", f"both directions, {elapsed:.2f}s")


# -- criterion 8: benchmark sanity -------------------------------------------------


def test_c8_bench_sanity(prod):
    report = bench_run(prod.params, iterations=10_000, rng=random.Random(0x08),
                       rows=("scalar_mult", "hash_to_scalar"))
    mult = report.timing("scalar_mult")
    hash_op = report.timing("hash_to_scalar")
    assert mult.iterations >= 10_000 and hash_op.iterations >= 10_000
    ratio = mult.mean_s / hash_op.mean_s
    assert ratio > 50, f"scalar-mult/hash ratio {ratio:.1f} <= 50"
    _report("C8 bench-sanity",
            f"scalar-mult {mult.mean_s * 1e3:.3f}ms / hash "
            f"{hash_op.mean_s * 1e6:.2f}us = ratio {ratio:.0f}")


# -- criterion 9: negative key tests ------------------------------------------------


def test_c9_negative_key_tests(prod):
    rng = random.Random(0x09)
    for q in (13, 101):
        toy = ToyGroup(q)
        params, master = keys.setup(toy, n=32, rng=rng)
        identity = b"exhaustive"
        # every ephemeral nonce t: honest partials verify, tampered ones don't
        for t in range(1, q):
            T = t * params.P
            gamma = params.oracles.h1(identity, T)
            d = toy.scalar(t) + master.s * gamma
            partial = ClcPartialKey(d=d, T=T)
            if d.is_zero():
                continue  # extract resamples this case; nothing to verify
            assert keys.verify_partial_key(params, identity, partial)
            # d-tampering is caught exactly: gamma is fixed by T, so the
            # equation pins d; every offset must be rejected
            for delta in range(1, q):
                bad = ClcPartialKey(d=d + toy.scalar(delta), T=T)
                assert not keys.verify_partial_key(params, identity, bad)
            # T-tampering re-randomizes gamma, and a q-element group can
            # satisfy the equation by 1/q chance, so the sound exhaustive
            # property is agreement with the modular-arithmetic oracle
            bad_T = T + params.P
            gamma2 = params.oracles.h1(identity, bad_T)
            oracle_says = int(d) % q == (bad_T.value + int(gamma2)
                                         * params.Ppub.value) % q
            assert keys.verify_partial_key(
                params, identity, ClcPartialKey(d=d, T=bad_T)) == oracle_says
            # the forced degenerate secret value is refused
            with pytest.raises(DegenerateKeyError):
                keys.clc_finalize(params, identity, partial, toy.scalar(q - int(d)))
        # decoders: every out-of-range single byte is rejected, exhaustively
        for value in range(q, 256):
            with pytest.raises(NonCanonicalScalarError):
                toy.decode_scalar(bytes([value]))
            with pytest.raises(OffGroupError):
                toy.decode_element(bytes([value]))
        for value in range(q):
            assert int(toy.decode_scalar(bytes([value]))) == value
            assert toy.decode_element(bytes([value])).value == value

    # production group: T-tampering always rejected (collision odds 2^-256)
    pp = keys.clc_extract_partial(prod.params, prod.master, b"neg", rng)
    assert keys.verify_partial_key(prod.params, b"neg", pp)
    assert not keys.verify_partial_key(
        prod.params, b"neg", ClcPartialKey(d=pp.d, T=pp.T + prod.params.P))
    assert not keys.verify_partial_key(
        prod.params, b"neg",
        ClcPartialKey(d=pp.d + prod.params.group.scalar(1), T=pp.T))

    # spot checks on the production decoders
    secp = prod.params.group
    for v in (secp.descriptor.q, secp.descriptor.q + 1, 2**256 - 1):
        with pytest.raises(NonCanonicalScalarError):
            secp.decode_scalar(v.to_bytes(32, "big"))
    with pytest.raises(OffGroupError):
        secp.decode_element(b"\x02" + (2**256 - 0x189).to_bytes(32, "big"))

    _report("C9 negative-key-tests",
            "exhaustive partial-key tampering, degenerate x_c, and decoder "
            "range checks over toy q in {13, 101}")
