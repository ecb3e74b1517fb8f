"""Known-answer vectors: the bytes of every file kind, both modes'
ciphertexts and the three hash oracles, pinned in ``vectors.json``.

Each vector names a group and gives explicit scalars, never a seed:
random.Random's stream is not promised to stay the same across Python
versions.  `conftest.FixedRng.randrange` returns them in the order the
library draws them: setup draws s, pki_keygen x_p, clc_extract_partial
t, then the secret value x_c; each signcrypt draws its nonce k.  The
oracles run on inputs taken from the vector: H1(identity, T),
H2(message, PK_p) and 1 KiB of H3(PK_c1).

The secp256k1 vectors include the edge scalars 1 and q-1 (s = 1,
x_p = q-1, x_c = 1 and PCHS's k = q-1) and a CPHS nonce whose two GLV
halves are both negative.  Every group element in the secp256k1 vectors
(P, Ppub, PK_p, T, PK_c1 and both V) was checked once, when the vectors
were made, against OpenSSL's public key for its known discrete log, as
tests/test_dlog_oracle.py does; so the vectors are not only regression
values."""

import json
from pathlib import Path

import pytest

from hsc import codec, keys
from hsc.keys import ClcKeyPair, PkiKeyPair
from hsc.signcryption import (
    cphs_signcrypt,
    cphs_unsigncrypt,
    pchs_signcrypt,
    pchs_unsigncrypt,
)

from conftest import FixedRng

VECTORS = json.loads((Path(__file__).parent / "vectors.json").read_text())


def build(vector: dict) -> dict:
    """The hex of every pinned value, made from the vector's inputs."""
    scalars = {name: int(value, 16) for name, value in vector["scalars"].items()}
    identity = bytes.fromhex(vector["identity"])
    message = bytes.fromhex(vector["message"])
    rng = FixedRng(scalars["s"], scalars["x_p"], scalars["t"], scalars["x_c"])
    params, master = keys.setup(vector["group"], rng=rng)
    group = params.group
    pki = keys.pki_keygen(params, rng)
    partial = keys.clc_extract_partial(params, master, identity, rng)
    clc = keys.clc_finalize(params, identity, partial, group.random_scalar(rng))
    pchs = pchs_signcrypt(params, pki, identity, clc.public, message,
                          FixedRng(scalars["k_pchs"]))
    cphs = cphs_signcrypt(params, clc, pki.PK_p, message, FixedRng(scalars["k_cphs"]))
    oracles = params.oracles
    return {name: value.hex() for name, value in {
        "params": codec.encode_params(params),
        "master": codec.encode_master(params, master),
        "pki_key": codec.encode_pki_keypair(params, pki),
        "clc_key": codec.encode_clc_keypair(params, clc),
        "partial_key": codec.encode_partial_key(params, identity, partial),
        "pki_public": codec.encode_public(params, pki),
        "clc_public": codec.encode_public(params, clc),
        "pchs_ciphertext": codec.encode_ciphertext(pchs),
        "cphs_ciphertext": codec.encode_ciphertext(cphs),
        "h1": group.encode_scalar(oracles.h1(identity, clc.T)),
        "h2": group.encode_scalar(oracles.h2(message, pki.PK_p)),
        "h3_1k": oracles.h3(clc.PK_c1, 1024),
    }.items()}


@pytest.mark.parametrize("name", sorted(VECTORS))
def test_the_inputs_give_the_pinned_bytes(name):
    assert build(VECTORS[name]) == VECTORS[name]["expect"]


@pytest.mark.parametrize("name", sorted(VECTORS))
def test_the_pinned_ciphertexts_open_to_the_message(name):
    """Each pinned ciphertext, decoded and unsigncrypted with the pinned
    params and key files, gives back the vector's message."""
    vector = VECTORS[name]
    pinned = {key: bytes.fromhex(value) for key, value in vector["expect"].items()}
    params = codec.decode_params(pinned["params"])
    pki = codec.decode_keypair(pinned["pki_key"], params, PkiKeyPair)
    clc = codec.decode_keypair(pinned["clc_key"], params, ClcKeyPair)
    pchs = codec.decode_ciphertext(pinned["pchs_ciphertext"], params)
    cphs = codec.decode_ciphertext(pinned["cphs_ciphertext"], params)
    message = bytes.fromhex(vector["message"])
    assert pchs_unsigncrypt(params, clc, pki.PK_p, pchs) == message
    assert cphs_unsigncrypt(params, pki, clc.identity, clc.public, cphs) == message
