"""Mutual heterogeneous signcryption between PKI and certificateless users.

Two directions behind one five-algorithm API:

- PCHS: a PKI sender signcrypts to a certificateless receiver.
- CPHS: a certificateless sender signcrypts to a PKI receiver.

Quick start::

    from hsc import keys, signcryption

    params, master = keys.setup("secp256k1")
    alice = keys.pki_keygen(params)                      # PKI side
    bob = keys.clc_keygen(params, master, b"bob")        # certificateless side

    sigma = signcryption.pchs_signcrypt(
        params, alice, b"bob", bob.public, b"hello", None)
    assert signcryption.pchs_unsigncrypt(
        params, bob, alice.PK_p, sigma) == b"hello"

Submodules: ``group`` (the prime-order groups), ``hashing`` (the three
oracles), ``keys``, ``signcryption`` (both directions, and the table
``DIRECTIONS`` that describes each once), ``codec`` (byte formats and
frames), ``netdemo`` (TCP client/server demo), ``bench``, ``cli``.
Importing ``hsc`` loads neither ``netdemo`` nor ``bench``.

Research-grade code: arithmetic is not constant-time and the demo's key
exchange is unauthenticated.
"""

from .group import (
    GroupDescriptor,
    GroupElement,
    OpCounter,
    Scalar,
    Secp256k1Group,
    ToyGroup,
    make_group,
)
from .hashing import HashOracles
from .keys import (
    ClcKeyPair,
    ClcPartialKey,
    ClcPublicKey,
    MasterKey,
    PkiKeyPair,
    SystemParams,
    clc_extract_partial,
    clc_finalize,
    clc_finalize_random,
    clc_keygen,
    pki_keygen,
    setup,
    verify_partial_key,
)
from .signcryption import (
    Ciphertext,
    Direction,
    RejectedCiphertext,
    cphs_signcrypt,
    cphs_unsigncrypt,
    pchs_signcrypt,
    pchs_unsigncrypt,
)

__version__ = "0.1.0"

__all__ = [
    "GroupDescriptor", "GroupElement", "OpCounter", "Scalar",
    "Secp256k1Group", "ToyGroup", "make_group",
    "HashOracles",
    "ClcKeyPair", "ClcPartialKey", "ClcPublicKey", "MasterKey",
    "PkiKeyPair", "SystemParams",
    "clc_extract_partial", "clc_finalize", "clc_finalize_random", "clc_keygen",
    "pki_keygen", "setup", "verify_partial_key",
    "Ciphertext", "Direction", "RejectedCiphertext",
    "cphs_signcrypt", "cphs_unsigncrypt",
    "pchs_signcrypt", "pchs_unsigncrypt",
    "__version__",
]
