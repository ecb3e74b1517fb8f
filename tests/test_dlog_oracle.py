"""A discrete-log shadow of the whole scheme on secp256k1, with OpenSSL,
through the `cryptography` package, as the oracle.

Every group element the algorithms make has a discrete log to the base
P that the test knows.  The seeded keys give s, x_p, x_c and d, and a
clone of the seeded random.Random, taken just before a signcrypt, gives
its nonce k.  Then

- Ppub = s*P, PK_p = (1/x_p)*P, T = (d - s*γ)*P and PK_c1 = x_c*P;
- R1 = k*P and R2 = h*P, for h = H2(m, R1), in both directions;
- PCHS's V = (k*x_c + d)*P and CPHS's V = (k/x_p)*P.

Each point's encoding is compared with that of OpenSSL's public key for
its log (`ec.derive_private_key`), which shares no arithmetic with hsc.
R1 and R2 are read where H2 and H3 receive them, on both sides.  A
tampered c, u or V must be rejected, and the R1 and R2 that the receiver
computes from it must still be the points the equations name.

Three rounds with the same keys take every multiplication path: k*P,
h*P and d*P read the generator's shipped table; Ppub and the peers'
keys are multiplied fresh in the first round, promoted in the second and
read from their own tables in the third; and the point the receiver
derives from V is fresh in every round.  A roundtrip in a process that
has yet to make its first two k*P, as a one-shot CLI command is, takes
G's first-use path for the sender's k*P and h*P.
"""

import random
from types import SimpleNamespace

import pytest

from hsc import group as group_module, keys
from hsc.hashing import HashOracles
from hsc.signcryption import DIRECTIONS, RejectedCiphertext

pytest.importorskip(
    "cryptography.hazmat.primitives.asymmetric.ec",
    reason="the discrete-log oracle needs the cryptography package (the test extra)",
)

from test_openssl_oracle import _openssl_encoding  # noqa: E402

_N = group_module._N
_ID = b"slice-device-7"


def _at(log: int) -> bytes:
    """OpenSSL's encoding of (log mod N)*P."""
    return _openssl_encoding(log % _N)


def _inv(a: int) -> int:
    return pow(a, -1, _N)


def _nonce(rng) -> int:
    """The nonce k that the next signcrypt draws from rng: the first draw
    of a clone of it."""
    clone = random.Random()
    clone.setstate(rng.getstate())
    return clone.randrange(1, _N)


class _RecordingOracles(HashOracles):
    """The scheme's oracles, keeping the encoding of every R1 that H2 and
    every R2 that H3 is asked about."""

    def __init__(self, group) -> None:
        super().__init__(group)
        self.r1: list[bytes] = []
        self.r2: list[bytes] = []

    def h2(self, message, R1):
        self.r1.append(R1.encode())
        return super().h2(message, R1)

    def h3(self, R2, out_len):
        self.r2.append(R2.encode())
        return super().h3(R2, out_len)


@pytest.fixture
def scheme():
    rng = random.Random(0xD106)
    params, master = keys.setup("secp256k1", rng=rng)
    alice = keys.pki_keygen(params, rng)
    bob = keys.clc_keygen(params, master, _ID, rng)
    params.oracles = _RecordingOracles(params.group)
    return SimpleNamespace(
        rng=rng, params=params, plain=HashOracles(params.group), s=master.s.value,
        x_p=alice.x_p.value, x_c=bob.x_c.value, d=bob.d.value,
        # each side's key pair and the public export its peer reads
        pki=(alice, alice.PK_p), clc=(bob, (_ID, bob.public)))


def _shadow(mode: str, sc, k: int, h: int):
    """For nonce k and h = H2(m, k*P): V's log, u, and what one P more
    in V (v_step) and one more in u (u_step) add to the logs of the
    receiver's R1 and R2.  u_step is the log of the point u multiplies:
    PK_p in PCHS, PK_c1 + T + γ*Ppub in CPHS."""
    if mode == "pchs":
        return k * sc.x_c + sc.d, (h - k) * sc.x_p, _inv(sc.x_c), _inv(sc.x_p)
    return k * _inv(sc.x_p), (h - k) * _inv(sc.x_c + sc.d), sc.x_p, sc.x_c + sc.d


def _signcrypt(mode: str, sc, m: bytes):
    """(sigma, k, h) for one signcrypt of m, with k from the clone and h
    from H2 of OpenSSL's k*P."""
    spec = DIRECTIONS[mode]
    sender, _ = sc.pki if mode == "pchs" else sc.clc
    _, receiver_export = sc.clc if mode == "pchs" else sc.pki
    k = _nonce(sc.rng)
    sigma = spec.signcrypt(sc.params, sender, receiver_export, m, sc.rng)
    h = sc.plain.h2(m, sc.params.group.decode_element(_at(k))).value
    return sigma, k, h


def _unsigncrypt(mode: str, sc, sigma) -> bytes:
    spec = DIRECTIONS[mode]
    receiver, _ = sc.clc if mode == "pchs" else sc.pki
    _, sender_export = sc.pki if mode == "pchs" else sc.clc
    return spec.unsigncrypt(sc.params, receiver, sender_export, sigma)


def test_keys_are_the_points_their_logs_name(scheme):
    sc = scheme
    alice, bob = sc.pki[0], sc.clc[0]
    gamma = sc.plain.h1(_ID, bob.T).value
    assert sc.params.P.encode() == _at(1)
    assert sc.params.Ppub.encode() == _at(sc.s)
    assert alice.PK_p.encode() == _at(_inv(sc.x_p))
    assert bob.T.encode() == _at(sc.d - sc.s * gamma)
    assert bob.PK_c1.encode() == _at(sc.x_c)


@pytest.mark.parametrize("mode", ["pchs", "cphs"])
def test_roundtrips_on_every_multiplication_path(scheme, mode, table_builds):
    sc = scheme
    group = sc.params.group
    oracles = sc.params.oracles
    group_module._promotion.cache_clear()
    fresh = []
    for size in (1, 32, 1024):  # first use, promotion, promoted table
        m = sc.rng.randbytes(size)
        sigma, k, h = _signcrypt(mode, sc, m)
        v_log, u, _, _ = _shadow(mode, sc, k, h)
        assert sigma.V.encode() == _at(v_log)
        assert sigma.u == u
        mask = sc.plain.h3(group.decode_element(_at(h)), size)
        assert sigma.c == bytes(a ^ b for a, b in zip(m, mask))
        assert _unsigncrypt(mode, sc, sigma) == m
        # the sender and the receiver hashed the same R1 and R2
        assert oracles.r1 == [_at(k)] * 2 and oracles.r2 == [_at(h)] * 2
        oracles.r1.clear()
        oracles.r2.clear()
        # the point the receiver derives from V: V - d*P in PCHS, V in CPHS
        fresh.append(_at(k * sc.x_c if mode == "pchs" else v_log))

    def point(log):
        return group.decode_element(_at(log)).value

    # the points multiplied once per round: Ppub and the peers' keys in
    # PCHS, and in CPHS PK_p, Ppub and the sender's Q = PK_c1 + T + γ*Ppub
    if mode == "pchs":
        repeated = {point(sc.s), point(sc.x_c), point(_inv(sc.x_p))}
    else:
        repeated = {point(_inv(sc.x_p)), point(sc.s), point(sc.x_c + sc.d)}
    derived = {group.decode_element(data).value for data in fresh}
    assert len(derived) == 3
    assert repeated | derived == set(table_builds["_odd_multiples"])
    assert repeated == set(table_builds["_fixed_window_rows"])
    assert (group_module._GX, group_module._GY) not in repeated | derived


@pytest.mark.parametrize("mode", ["pchs", "cphs"])
def test_roundtrip_on_the_generators_first_uses(scheme, mode, g_uses, table_builds):
    sc = scheme
    oracles = sc.params.oracles
    G = (group_module._GX, group_module._GY)
    g_uses(0)
    m = sc.rng.randbytes(32)
    sigma, k, h = _signcrypt(mode, sc, m)
    # the sender's R1 = k*P and R2 = h*P took G's first-use path
    assert table_builds["_odd_multiples"].count(G) == 2
    v_log, u, _, _ = _shadow(mode, sc, k, h)
    assert sigma.V.encode() == _at(v_log)
    assert sigma.u == u
    assert _unsigncrypt(mode, sc, sigma) == m
    assert oracles.r1 == [_at(k)] * 2 and oracles.r2 == [_at(h)] * 2
    # and the receiver's multiplications of P read the table
    assert table_builds["_odd_multiples"].count(G) == 2


@pytest.mark.parametrize("mode", ["pchs", "cphs"])
@pytest.mark.parametrize("field", ["c", "u", "V"])
def test_tampered_ciphertext_is_rejected_on_the_named_points(scheme, mode, field):
    sc = scheme
    oracles = sc.params.oracles
    m = sc.rng.randbytes(48)
    sigma, k, h = _signcrypt(mode, sc, m)
    v_log, _, v_step, u_step = _shadow(mode, sc, k, h)
    r1, r2 = k, h
    if field == "c":
        sigma.c = bytes([sigma.c[0] ^ 1]) + sigma.c[1:]
    elif field == "u":
        sigma.u = sigma.u + 1
        r2 += u_step
    else:
        sigma.V = sc.params.group.decode_element(_at(v_log + 1))
        r1 += v_step
        r2 += v_step
    oracles.r1.clear()
    oracles.r2.clear()
    with pytest.raises(RejectedCiphertext):
        _unsigncrypt(mode, sc, sigma)
    assert oracles.r1 == [_at(r1)] and oracles.r2 == [_at(r2)]
