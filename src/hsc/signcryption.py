"""The two signcryption directions.

PCHS: a PKI sender signcrypts to a certificateless receiver.
CPHS: a certificateless sender signcrypts to a PKI receiver.

Both produce the triple sigma = (c, u, V): the XOR-masked message, a
scalar, and a group element.  Unsigncryption either returns the plaintext
or raises :class:`RejectedCiphertext` -- the reject path never exposes
partial plaintext.  H1-H3 always come from ``params.oracles``.

Shared skeleton (k fresh per message, P the system generator), written
once in :func:`_seal` and :func:`_open`:

    R1 = k*P;  h = H2(m, R1);  R2 = h*P;  c = m XOR H3(R2, |m|)

PCHS then binds the sender via u = (h-k)*x_p and the receiver via
V = k*PK_c1 + T + γ*Ppub (γ = H1(receiver_id, T)); CPHS binds the sender
via u = (h-k)/(x_c+d) and the receiver via V = k*PK_p.  The receiver
recovers R1 from V, rebuilds R2 = R1 + u*X (X = PK_p for PCHS,
X = PK_c1 + T + γ*Ppub for CPHS) and accepts iff R2 == H2(m, R1)*P.
That is term for term the definitional R1 == h*P - u*X, one group
subtraction cheaper; the tests check that the two agree.

:data:`DIRECTIONS` describes each direction once -- which key-pair class
signcrypts, which unsigncrypts, and how a decoded public export of the
peer feeds each call -- for the CLI, the TCP demo and the bench.

Operation counts per call, as measured by a surrounding counting scope:
keygen-attributed γ recomputation excluded, signcrypt costs 4S+2H (PCHS)
or 3S+2H (CPHS), unsigncrypt costs 4S+2H in both directions.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable

from .group import GroupElement, Scalar
from .keys import ClcKeyPair, ClcPublicKey, PkiKeyPair, SystemParams


class Direction(enum.IntEnum):
    """Which heterogeneous direction a ciphertext was produced for.
    The values double as the wire tag byte."""

    PCHS = 0x01
    CPHS = 0x02


class RejectedCiphertext(Exception):
    """Unsigncryption rejected the ciphertext (the ⊥ outcome)."""


class MessageSizeError(ValueError):
    """Message is empty or exceeds the params' cap n."""


@dataclass
class Ciphertext:
    """sigma = (c, u, V) plus the direction it belongs to.

    Serialized size is |m| + scalar_len + element_len (+ 1 tag byte on
    the wire); see codec.
    """

    c: bytes
    u: Scalar
    V: GroupElement
    direction: Direction


def _xor(data: bytes, mask: bytes) -> bytes:
    if len(data) != len(mask):
        raise ValueError(f"mask is {len(mask)} bytes, data {len(data)}")
    masked = int.from_bytes(data, "big") ^ int.from_bytes(mask, "big")
    return masked.to_bytes(len(data), "big")


def _seal(params: SystemParams, m: bytes, rng) -> tuple[Scalar, Scalar, bytes]:
    """Check the message, then R1 = k*P, h = H2(m, R1), c = m XOR
    H3(h*P); returns (k, h, c)."""
    if len(m) == 0:
        raise MessageSizeError("refusing to signcrypt an empty message")
    if len(m) > params.max_message_bytes:
        raise MessageSizeError(
            f"message is {len(m)} bytes, cap is {params.max_message_bytes}"
        )
    k = params.group.random_scalar(rng)
    h = params.oracles.h2(m, k * params.P)
    c = _xor(m, params.oracles.h3(h * params.P, len(m)))
    return k, h, c


def _check_ciphertext(params: SystemParams, sigma: Ciphertext,
                      direction: Direction) -> None:
    if sigma.direction != direction:
        raise RejectedCiphertext(f"ciphertext direction is not {direction.name}")
    if not 0 < len(sigma.c) <= params.max_message_bytes:
        raise RejectedCiphertext("ciphertext length out of range for these params")


def _open(params: SystemParams, sigma: Ciphertext, R1: GroupElement,
          X: GroupElement) -> bytes:
    """R2 = R1 + u*X, unmask, and return m iff R2 == H2(m, R1)*P."""
    R2 = R1 + sigma.u * X
    m = _xor(sigma.c, params.oracles.h3(R2, len(sigma.c)))
    if R2 != params.oracles.h2(m, R1) * params.P:
        raise RejectedCiphertext("verification equation failed")
    return m


def _gamma(params: SystemParams, identity: bytes, pub: ClcPublicKey) -> Scalar:
    # γ belongs to the certificateless key's distribution in the cost
    # accounting, so it is not counted here
    with params.group.counter_paused():
        return params.oracles.h1(identity, pub.T)


def pchs_signcrypt(
    params: SystemParams,
    sender: PkiKeyPair,
    receiver_id: bytes,
    receiver_pub: ClcPublicKey,
    m: bytes,
    rng=None,
) -> Ciphertext:
    """PKI sender -> certificateless receiver.

    The caller supplies the receiver's identity binding (id, T, PK_c1);
    γ = H1(id, T) is recomputed here on every call.  Costs 4 scalar
    multiplications and 2 counted hash calls.
    """
    k, h, c = _seal(params, m, rng)
    gamma = _gamma(params, receiver_id, receiver_pub)
    u = (h - k) * sender.x_p
    V = k * receiver_pub.PK_c1 + receiver_pub.T + gamma * params.Ppub
    return Ciphertext(c=c, u=u, V=V, direction=Direction.PCHS)


def pchs_unsigncrypt(
    params: SystemParams,
    receiver: ClcKeyPair,
    sender_pub: GroupElement,
    sigma: Ciphertext,
) -> bytes:
    """Certificateless receiver side of PCHS; returns m or raises
    RejectedCiphertext.  Costs 4 scalar multiplications, 2 hash calls."""
    _check_ciphertext(params, sigma, Direction.PCHS)
    R1 = receiver.x_c.invert() * (sigma.V - receiver.d * params.P)
    return _open(params, sigma, R1, sender_pub)


def cphs_signcrypt(
    params: SystemParams,
    sender: ClcKeyPair,
    receiver_pub: GroupElement,
    m: bytes,
    rng=None,
) -> Ciphertext:
    """Certificateless sender -> PKI receiver (public key PK_p).

    Costs 3 scalar multiplications and 2 hash calls.  The divisor
    x_c + d is nonzero for every key clc_finalize hands out.
    """
    k, h, c = _seal(params, m, rng)
    u = (h - k) * (sender.x_c + sender.d).invert()
    V = k * receiver_pub
    return Ciphertext(c=c, u=u, V=V, direction=Direction.CPHS)


def cphs_unsigncrypt(
    params: SystemParams,
    receiver: PkiKeyPair,
    sender_id: bytes,
    sender_pub: ClcPublicKey,
    sigma: Ciphertext,
) -> bytes:
    """PKI receiver side of CPHS; returns m or raises RejectedCiphertext.
    Costs 4 scalar multiplications, 2 hash calls (γ excluded as above)."""
    _check_ciphertext(params, sigma, Direction.CPHS)
    gamma = _gamma(params, sender_id, sender_pub)
    R1 = receiver.x_p * sigma.V
    Q = sender_pub.PK_c1 + sender_pub.T + gamma * params.Ppub
    return _open(params, sigma, R1, Q)


@dataclass(frozen=True)
class DirectionSpec:
    """One signcryption direction.  `peer` is the other side's decoded
    public export (codec.decode_public): PK_p for a PKI peer,
    (identity, ClcPublicKey) for a certificateless one."""

    sender: type  # key-pair class of the signcrypting side
    receiver: type  # key-pair class of the unsigncrypting side
    signcrypt: Callable  # (params, key, peer, m, rng) -> Ciphertext
    unsigncrypt: Callable  # (params, key, peer, sigma) -> bytes


# the entries look the four functions up in this module at each call, so
# a wrapper put in place of one of those names sees every call
DIRECTIONS = {
    "pchs": DirectionSpec(
        PkiKeyPair, ClcKeyPair,
        lambda params, key, peer, m, rng: pchs_signcrypt(params, key, *peer, m, rng),
        lambda params, key, peer, sigma: pchs_unsigncrypt(params, key, peer, sigma)),
    "cphs": DirectionSpec(
        ClcKeyPair, PkiKeyPair,
        lambda params, key, peer, m, rng: cphs_signcrypt(params, key, peer, m, rng),
        lambda params, key, peer, sigma: cphs_unsigncrypt(params, key, *peer, sigma)),
}
