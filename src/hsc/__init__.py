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
Importing ``hsc`` loads none of them: import the submodule you use.

Research-grade code: arithmetic is not constant-time and the demo's key
exchange is unauthenticated.
"""

__version__ = "0.1.0"
