"""System setup and the two kinds of user key material.

A key generation center (KGC) runs :func:`setup` once, publishing
:class:`SystemParams` and guarding the :class:`MasterKey`.  PKI users
self-generate (:func:`pki_keygen`).  Certificateless users go through the
two-step dance: the KGC issues a partial private key bound to their
identity (:func:`clc_extract_partial`), and the user combines it with a
self-chosen secret value (:func:`clc_finalize`).

A partial key (d, T) is authentic for identity ID iff

    d*P == T + H1(ID, T)*Ppub

which anyone can check from public data; :func:`verify_partial_key` does,
and finalization refuses inauthentic partials.  Finalization also rejects
the degenerate x_c == -d case up front, because the reverse-direction
scheme divides by (x_c + d) and keys are long-lived.
"""

from __future__ import annotations

from typing import NamedTuple, Union

from .group import Group, GroupElement, Scalar, make_group
from .hashing import HashOracles

DEFAULT_MESSAGE_BITS = 8192


class PartialKeyError(ValueError):
    """Partial private key fails its authenticity equation."""


class DegenerateKeyError(ValueError):
    """Secret value collides with the partial key (x_c + d == 0)."""


class SystemParams:
    """Public parameters: the group, its generator P, the KGC public key
    Ppub and the message cap n (bits).  Immutable by convention once
    published.

    The security parameter l (the bit length of the group order) and the
    oracles' XOF and domain tags are fixed by the scheme, so they are
    not fields.  The params file still holds them, as fixed bytes that
    :mod:`hsc.codec` writes and checks on decode.

    `oracles` is the one place the algorithms get H1-H3 from; assigning
    an object with the same h1/h2/h3 methods replaces all three, and
    ``copy.copy(params)`` gives params whose oracles can be replaced
    without touching the original's.  ``==`` is identity; two params
    are the same when :func:`hsc.codec.encode_params` gives the same
    bytes for both."""

    def __init__(self, group: Group, P: GroupElement, Ppub: GroupElement, n: int) -> None:
        self.group = group
        self.P = P
        self.Ppub = Ppub
        self.n = n
        self.oracles = HashOracles(group)

    @property
    def max_message_bytes(self) -> int:
        return self.n // 8


class MasterKey(NamedTuple):
    """KGC master secret; never leaves the KGC role, never serialized
    into any public structure."""

    s: Scalar


class PkiKeyPair(NamedTuple):
    """PKI user key: private x_p, public PK_p = (1/x_p)*P."""

    x_p: Scalar
    PK_p: GroupElement


class ClcPartialKey(NamedTuple):
    """Identity-bound partial private key issued by the KGC: d = t + s*γ
    with commitment T = t*P.  The ephemeral t is destroyed after issue."""

    d: Scalar
    T: GroupElement


class ClcPublicKey(NamedTuple):
    """The certificateless public key pair (T, PK_c1)."""

    T: GroupElement
    PK_c1: GroupElement


class ClcKeyPair(NamedTuple):
    """Full certificateless key: identity, both private halves (x_c, d),
    and the public halves (T, PK_c1 = x_c*P)."""

    identity: bytes
    x_c: Scalar
    d: Scalar
    T: GroupElement
    PK_c1: GroupElement

    @property
    def public(self) -> ClcPublicKey:
        return ClcPublicKey(self.T, self.PK_c1)


def setup(
    group: Union[Group, str],
    n: int = DEFAULT_MESSAGE_BITS,
    rng=None,
) -> tuple[SystemParams, MasterKey]:
    """Create system parameters and the KGC master key.

    `group` is a Group instance or a registered name.  `n` caps message
    length in bits.
    """
    if isinstance(group, str):
        group = make_group(group)
    # the width of the params file's n field
    if not 0 < n < 2**32:
        raise ValueError(f"message cap n must be in 1..{2**32 - 1}, got {n}")
    # messages are whole bytes: below 8 bits the cap is 0 bytes
    if n < 8:
        raise ValueError(f"message cap n must be at least 8 bits, got {n}")
    s = group.random_scalar(rng)
    P = group.generator()
    Ppub = s * P
    return SystemParams(group=group, P=P, Ppub=Ppub, n=n), MasterKey(s=s)


def pki_keygen(params: SystemParams, rng=None) -> PkiKeyPair:
    """Self-generated PKI key: x_p random, PK_p = (1/x_p)*P."""
    x_p = params.group.random_scalar(rng)
    PK_p = x_p.invert() * params.P
    return PkiKeyPair(x_p=x_p, PK_p=PK_p)


def clc_extract_partial(
    params: SystemParams,
    master: MasterKey,
    identity: bytes,
    rng=None,
) -> ClcPartialKey:
    """KGC role: issue the partial private key (d, T) for `identity`.

    Resamples the ephemeral t in the (probability 1/q) event that
    d = t + s*γ reduces to zero, so d is always invertible.
    """
    while True:
        t = params.group.random_scalar(rng)
        T = t * params.P
        gamma = params.oracles.h1(identity, T)
        d = t + master.s * gamma
        if not d.is_zero():
            return ClcPartialKey(d=d, T=T)


def verify_partial_key(params: SystemParams, identity: bytes,
                       partial: ClcPartialKey) -> bool:
    """True iff d*P == T + H1(identity, T)*Ppub."""
    gamma = params.oracles.h1(identity, partial.T)
    return partial.d * params.P == partial.T + gamma * params.Ppub


def clc_finalize(
    params: SystemParams,
    identity: bytes,
    partial: ClcPartialKey,
    x_c: Scalar,
) -> ClcKeyPair:
    """User role: combine the KGC partial key with the secret value x_c.

    Raises PartialKeyError if the partial key is inauthentic and
    DegenerateKeyError if x_c + d == 0 (caller must resample x_c).
    """
    if x_c.is_zero():
        raise ValueError("secret value x_c must be nonzero")
    # the authenticity check is ours, not part of the scheme's published
    # key-generation cost, so it runs outside any counting scope
    with params.group.counter_paused():
        if not verify_partial_key(params, identity, partial):
            raise PartialKeyError(f"partial key fails authenticity for {identity!r}")
    if (x_c + partial.d).is_zero():
        raise DegenerateKeyError("x_c + d == 0; resample the secret value")
    return ClcKeyPair(
        identity=identity,
        x_c=x_c,
        d=partial.d,
        T=partial.T,
        PK_c1=x_c * params.P,
    )


def clc_finalize_random(params: SystemParams, identity: bytes,
                        partial: ClcPartialKey, rng=None) -> ClcKeyPair:
    """:func:`clc_finalize` with a random secret value x_c, resampled
    on the degenerate case."""
    while True:
        try:
            return clc_finalize(params, identity, partial, params.group.random_scalar(rng))
        except DegenerateKeyError:
            continue


def clc_keygen(
    params: SystemParams,
    master: MasterKey,
    identity: bytes,
    rng=None,
) -> ClcKeyPair:
    """Full certificateless keygen in one call (extract + finalize)."""
    partial = clc_extract_partial(params, master, identity, rng)
    return clc_finalize_random(params, identity, partial, rng)
