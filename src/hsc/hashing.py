"""The three random oracles used by both schemes.

H1 binds an identity to its key-issuance commitment, H2 binds a message to
the ephemeral commitment R1, and H3 derives the XOR keystream from R2.
All three are one extendable-output function, SHAKE256, under three
distinct domain-separation tags, so cross-oracle collisions are impossible
by construction.  Preimages are length-prefixed where fields are variable
width, so they parse unambiguously.

Hash-to-scalar squeezes twice the scalar width, reduces mod q (bias is
negligible at that width), and retries with an appended counter byte in
the rare case the reduction lands on zero -- outputs are always in
[1, q-1].

The oracles are part of the scheme's fixed description, not a setting:
the XOF's name and the three tags are also bytes of the params file,
which :mod:`hsc.codec` writes from `XOF_NAME` and `DOMAIN_TAGS` and
refuses on decode when they differ.  Message length is capped by the
algorithms, not here.

SHAKE256 comes from CPython's own Keccak module `_sha3`, as CPython's
`random` takes SHA-512 from its own `_sha512` (`_sha2` from 3.12).
`hashlib` would give the same bytes, but importing it always loads
OpenSSL's libcrypto through `_hashlib`: about 3.6 MB of peak RSS and 3-6
ms per process, which nothing else an hsc process imports needs.  Only an
interpreter built without `_sha3`, such as a FIPS build, falls back to
`hashlib.shake_256`.
"""

from __future__ import annotations

try:
    from _sha3 import shake_256
except ImportError:  # an interpreter built without it, such as a FIPS build
    from hashlib import shake_256

from .group import Group, GroupElement, Scalar


XOF_NAME = "shake256"
DOMAIN_TAGS = (b"HSC/H1", b"HSC/H2", b"HSC/H3")


def _length_prefixed(data: bytes) -> bytes:
    return len(data).to_bytes(4, "big") + data


class HashOracles:
    """H1/H2/H3 over a specific group.

    Stateless after construction; safe for concurrent use.  Each query
    tallies one hash call in the group's active counting scope.
    """

    def __init__(self, group: Group) -> None:
        self.group = group

    # preimage builders are exposed so tests can inspect tag separation

    def h1_preimage(self, identity: bytes, T: GroupElement) -> bytes:
        return (
            DOMAIN_TAGS[0]
            + _length_prefixed(identity)
            + self.group.encode_element(T)
        )

    def h2_preimage(self, message: bytes, R1: GroupElement) -> bytes:
        return (
            DOMAIN_TAGS[1]
            + _length_prefixed(message)
            + self.group.encode_element(R1)
        )

    def h3_preimage(self, R2: GroupElement) -> bytes:
        return DOMAIN_TAGS[2] + self.group.encode_element(R2)

    def _to_scalar(self, preimage: bytes) -> Scalar:
        # wide reduction, then counter-byte retries until nonzero
        q = self.group.descriptor.q
        wide = 2 * self.group.descriptor.scalar_len
        value = int.from_bytes(shake_256(preimage).digest(wide), "big") % q
        ctr = 0
        while value == 0:
            retry = preimage + bytes([ctr])
            value = int.from_bytes(shake_256(retry).digest(wide), "big") % q
            ctr += 1
        return Scalar(value, q)

    def h1(self, identity: bytes, T: GroupElement) -> Scalar:
        """Identity-binding oracle: (id, T) -> nonzero scalar."""
        self.group.count_hash_call()
        return self._to_scalar(self.h1_preimage(identity, T))

    def h2(self, message: bytes, R1: GroupElement) -> Scalar:
        """Message-binding oracle: (m, R1) -> nonzero scalar."""
        self.group.count_hash_call()
        return self._to_scalar(self.h2_preimage(message, R1))

    def h3(self, R2: GroupElement, out_len: int) -> bytes:
        """Keystream oracle: R2 -> out_len mask bytes (an XOF prefix)."""
        self.group.count_hash_call()
        return shake_256(self.h3_preimage(R2)).digest(out_len)
