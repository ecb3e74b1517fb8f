"""Byte formats: sizes, roundtrips, strict rejection, frames, and fuzz
(decoders must fail with structured errors, never crash)."""

import io
import random
import functools
import tracemalloc
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from hsc import codec, keys
from hsc.codec import (
    BadDirectionError,
    CodecError,
    EndOfStreamError,
    Frame,
    FrameType,
    HeaderError,
    ProtocolError,
    TruncatedError,
    MAX_FRAME_PAYLOAD,
)
from hsc.group import (
    DecodeError,
    NonCanonicalScalarError,
    OffGroupError,
    ToyGroup,
)
from hsc.keys import ClcKeyPair, PkiKeyPair
from hsc.signcryption import Ciphertext, Direction, pchs_signcrypt


TAGS = (b"HSC/H1", b"HSC/H2", b"HSC/H3")


def _oracle_trailer(*fields):
    """A params file's trailer: each field with its 4-byte length."""
    return b"".join(len(f).to_bytes(4, "big") + f for f in fields)


def _with_trailer(data, trailer):
    """The params file `data` with its oracle trailer replaced."""
    return data[:-len(_oracle_trailer(b"shake256", *TAGS))] + trailer


@pytest.fixture(scope="module")
def toy_params():
    params, master = keys.setup("toy-13", n=32, rng=random.Random(5))
    return params, master


def _sigma(params, group, rng, size=8):
    return Ciphertext(
        c=bytes(rng.getrandbits(8) for _ in range(size)),
        u=group.random_scalar(rng),
        V=group.random_scalar(rng) * params.P,
        direction=Direction.PCHS if rng.getrandbits(1) else Direction.CPHS,
    )


class TestCiphertextWire:
    def test_toy_size_formula(self, toy_params, rng):
        params, _ = toy_params
        sigma = _sigma(params, params.group, rng, size=1)
        assert len(codec.encode_ciphertext(sigma)) == 4  # 1+1+1+1

    def test_production_size_formula(self, prod, rng):
        sigma = _sigma(prod.params, prod.params.group, rng, size=100)
        assert len(codec.encode_ciphertext(sigma)) == 166  # 1+32+33+100

    def test_roundtrip_1000_random(self, prod, rng):
        group = prod.params.group
        pool = [group.random_scalar(rng) * prod.params.P for _ in range(50)]
        for _ in range(1000):
            sigma = Ciphertext(
                c=bytes(rng.getrandbits(8) for _ in range(rng.randrange(1, 40))),
                u=group.random_scalar(rng),
                V=pool[rng.randrange(len(pool))],
                direction=Direction.PCHS if rng.getrandbits(1) else Direction.CPHS,
            )
            back = codec.decode_ciphertext(codec.encode_ciphertext(sigma), prod.params)
            assert (back.c, back.u, back.V, back.direction) == \
                (sigma.c, sigma.u, sigma.V, sigma.direction)

    def test_short_payload_distinct_error(self, prod):
        slen = prod.params.group.descriptor.scalar_len
        elen = prod.params.group.descriptor.element_len
        with pytest.raises(TruncatedError):
            codec.decode_ciphertext(b"\x01" + b"\x00" * (slen + elen), prod.params)

    def test_bad_direction_distinct_error(self, prod, rng):
        data = bytearray(codec.encode_ciphertext(
            _sigma(prod.params, prod.params.group, rng)))
        for bad in (0x00, 0x03, 0x7F):
            data[0] = bad
            with pytest.raises(BadDirectionError):
                codec.decode_ciphertext(bytes(data), prod.params)

    def test_non_canonical_scalar_distinct_error(self, prod, rng):
        sigma = _sigma(prod.params, prod.params.group, rng)
        q = prod.params.group.descriptor.q
        data = (bytes([sigma.direction]) + q.to_bytes(32, "big")
                + prod.params.group.encode_element(sigma.V) + sigma.c)
        with pytest.raises(NonCanonicalScalarError):
            codec.decode_ciphertext(data, prod.params)

    def test_off_group_element_distinct_error(self, prod, rng):
        sigma = _sigma(prod.params, prod.params.group, rng)
        data = bytearray(codec.encode_ciphertext(sigma))
        data[33] = 0x05  # element prefix byte
        with pytest.raises(OffGroupError):
            codec.decode_ciphertext(bytes(data), prod.params)


class TestParamsFile:
    def test_roundtrip_production(self, prod):
        back = codec.decode_params(codec.encode_params(prod.params))
        assert back.group.descriptor == prod.params.group.descriptor
        assert back.P == back.group.generator()
        assert back.Ppub.value == prod.params.Ppub.value
        assert back.n == prod.params.n
        assert codec.encode_params(back) == codec.encode_params(prod.params)

    def test_roundtrip_toy(self, toy_params):
        params, _ = toy_params
        back = codec.decode_params(codec.encode_params(params))
        assert back.group.descriptor.q == 13
        assert back.Ppub.value == params.Ppub.value

    def test_bad_magic(self, prod):
        data = b"XXXX" + codec.encode_params(prod.params)[4:]
        with pytest.raises(HeaderError):
            codec.decode_params(data)

    def test_bad_version(self, prod):
        data = bytearray(codec.encode_params(prod.params))
        data[4] = 99
        with pytest.raises(HeaderError):
            codec.decode_params(bytes(data))

    def test_wrong_kind(self, prod):
        data = codec.encode_master(prod.params, prod.master)
        with pytest.raises(HeaderError):
            codec.decode_params(data)

    def test_non_canonical_group_name(self, toy_params):
        # the header's group name is a length byte and the name; a name
        # that parses to the same group is still rejected, not rewritten
        params, _ = toy_params
        data = codec.encode_params(params)
        header = bytes([len(b"toy-13")]) + b"toy-13"
        assert header in data
        renamed = data.replace(header, bytes([len(b"toy-013")]) + b"toy-013", 1)
        with pytest.raises(HeaderError):
            codec.decode_params(renamed)

    def test_xof_other_than_shake256(self, toy_params):
        params, _ = toy_params
        data = codec.encode_params(params)
        assert data.endswith(_oracle_trailer(b"shake256", *TAGS))
        for xof in (b"shake128", b"md5"):
            with pytest.raises(CodecError, match=xof.decode()):
                codec.decode_params(_with_trailer(data, _oracle_trailer(xof, *TAGS)))

    def test_domain_tags_other_than_the_schemes(self, toy_params):
        # duplicate tags, and distinct tags that are not the scheme's
        params, _ = toy_params
        data = codec.encode_params(params)
        for tags in ((TAGS[0], TAGS[0], TAGS[2]), (b"XYZ/H1", b"XYZ/H2", b"XYZ/H3")):
            with pytest.raises(CodecError):
                codec.decode_params(_with_trailer(data, _oracle_trailer(b"shake256", *tags)))

    def test_security_parameter_other_than_the_order_bits(self, toy_params):
        # header (13 bytes for toy-13), n (4), then l (2): 4, the bits of 13
        params, _ = toy_params
        data = codec.encode_params(params)
        assert data[17:19] == (4).to_bytes(2, "big")
        for l in (0, 3, 5, 256, 2**16 - 1):
            with pytest.raises(CodecError, match="security parameter"):
                codec.decode_params(data[:17] + l.to_bytes(2, "big") + data[19:])

    def test_message_cap_below_one_byte(self, toy_params):
        # header (13 bytes for toy-13), then n (4): 7 bits caps messages
        # at 0 bytes, so no ciphertext could be made or accepted
        params, _ = toy_params
        data = codec.encode_params(params)
        assert data[13:17] == (32).to_bytes(4, "big")
        for n in (0, 1, 7):
            with pytest.raises(CodecError, match="at least 8 bits"):
                codec.decode_params(data[:13] + n.to_bytes(4, "big") + data[17:])
        assert codec.decode_params(data[:13] + (8).to_bytes(4, "big") + data[17:]).n == 8

    def test_generator_is_the_identity(self, toy_params):
        # header (13 bytes for toy-13), n (4), l (2), q (1), then P (1)
        params, _ = toy_params
        data = codec.encode_params(params)
        assert data[20:21] == params.group.encode_element(params.P)
        identity = params.group.encode_element(params.group.identity())
        with pytest.raises(CodecError, match="generator must not be the identity"):
            codec.decode_params(data[:20] + identity + data[21:])

    def test_trailing_garbage(self, prod):
        with pytest.raises(CodecError):
            codec.decode_params(codec.encode_params(prod.params) + b"\x00")

    def test_truncation(self, prod):
        data = codec.encode_params(prod.params)
        with pytest.raises(TruncatedError):
            codec.decode_params(data[:len(data) // 2])


class TestKeyFiles:
    def test_master_roundtrip_and_group_binding(self, prod, toy_params):
        data = codec.encode_master(prod.params, prod.master)
        assert codec.decode_master(data, prod.params).s == prod.master.s
        toy, _ = toy_params
        with pytest.raises(HeaderError):
            codec.decode_master(data, toy)  # wrong group in header

    def test_pki_keypair_roundtrip(self, prod):
        data = codec.encode_pki_keypair(prod.params, prod.alice)
        back = codec.decode_keypair(data, prod.params, PkiKeyPair)
        assert (back.x_p, back.PK_p) == (prod.alice.x_p, prod.alice.PK_p)

    def test_clc_keypair_roundtrip(self, prod):
        data = codec.encode_clc_keypair(prod.params, prod.bob)
        back = codec.decode_keypair(data, prod.params, ClcKeyPair)
        assert back == prod.bob

    def test_partial_key_roundtrip(self, prod, rng):
        partial = keys.clc_extract_partial(prod.params, prod.master, b"u", rng)
        data = codec.encode_partial_key(prod.params, b"u", partial)
        identity, back = codec.decode_partial_key(data, prod.params)
        assert identity == b"u"
        assert (back.d, back.T) == (partial.d, partial.T)

    def test_file_kind_detection(self, prod):
        assert codec.file_kind(codec.encode_params(prod.params)) == codec.FileKind.PARAMS
        assert codec.file_kind(
            codec.encode_pki_keypair(prod.params, prod.alice)) == codec.FileKind.PKI_KEY
        with pytest.raises(HeaderError):
            codec.file_kind(b"NOPE" + b"\x00" * 8)
        # the magic (4 bytes) and the version (1), then the kind byte
        data = codec.encode_params(prod.params)
        with pytest.raises(HeaderError, match="unknown file kind 0x7f"):
            codec.file_kind(data[:5] + b"\x7f" + data[6:])


class TestZeroSecretScalars:
    """Key generation never makes a stored secret zero, nor a CLC key
    with x_c + d == 0; decoding refuses both."""

    @pytest.fixture(scope="class")
    def toy101(self):
        rng = random.Random(11)
        params, master = keys.setup("toy-101", n=32, rng=rng)
        return SimpleNamespace(
            params=params, scalar=params.group.scalar,
            pki=keys.pki_keygen(params, rng),
            partial=keys.clc_extract_partial(params, master, b"bob", rng),
            clc=keys.clc_keygen(params, master, b"bob", rng))

    def test_zero_x_p(self, toy101):
        key = toy101.pki._replace(x_p=toy101.scalar(0))
        data = codec.encode_pki_keypair(toy101.params, key)
        with pytest.raises(CodecError):
            codec.decode_keypair(data, toy101.params, PkiKeyPair)

    @pytest.mark.parametrize("field", ["x_c", "d"])
    def test_zero_clc_scalar(self, toy101, field):
        key = toy101.clc._replace(**{field: toy101.scalar(0)})
        data = codec.encode_clc_keypair(toy101.params, key)
        with pytest.raises(CodecError):
            codec.decode_keypair(data, toy101.params, ClcKeyPair)

    def test_x_c_equal_to_minus_d(self, toy101):
        key = toy101.clc._replace(x_c=-toy101.clc.d)
        assert int(key.x_c) == 101 - int(key.d)
        data = codec.encode_clc_keypair(toy101.params, key)
        with pytest.raises(CodecError):
            codec.decode_keypair(data, toy101.params, ClcKeyPair)

    def test_zero_partial_d(self, toy101):
        partial = toy101.partial._replace(d=toy101.scalar(0))
        data = codec.encode_partial_key(toy101.params, b"bob", partial)
        with pytest.raises(CodecError):
            codec.decode_partial_key(data, toy101.params)


class TestPublicExports:
    def test_pki_public_roundtrip(self, prod):
        data = codec.encode_pki_public(prod.params, prod.alice.PK_p)
        assert codec.decode_public(data, prod.params, PkiKeyPair) == prod.alice.PK_p

    def test_clc_public_roundtrip(self, prod):
        data = codec.encode_clc_public(prod.params, prod.identity, prod.bob.public)
        identity, pub = codec.decode_public(data, prod.params, ClcKeyPair)
        assert identity == prod.identity
        assert pub == prod.bob.public

    def test_clc_export_carries_no_scalars(self, prod):
        group = prod.params.group
        data = codec.encode_clc_public(prod.params, prod.identity, prod.bob.public)
        assert group.encode_scalar(prod.bob.x_c) not in data
        assert group.encode_scalar(prod.bob.d) not in data

    def test_off_group_public_rejected(self, prod):
        data = bytearray(codec.encode_pki_public(prod.params, prod.alice.PK_p))
        data[-33] = 0x07  # corrupt the element prefix
        with pytest.raises(OffGroupError):
            codec.decode_public(bytes(data), prod.params, PkiKeyPair)


class TestFrames:
    def roundtrip(self, *frames):
        buf = io.BytesIO()
        for f in frames:
            codec.write_frame(buf, f)
        buf.seek(0)
        return [codec.read_frame(buf) for _ in frames]

    def test_empty_payload(self):
        [back] = self.roundtrip(Frame(FrameType.STATUS, b""))
        assert (back.type_tag, back.payload) == (FrameType.STATUS, b"")

    def test_cap_boundary(self):
        [back] = self.roundtrip(Frame(FrameType.CIPHERTEXT, b"\xaa" * MAX_FRAME_PAYLOAD))
        assert len(back.payload) == MAX_FRAME_PAYLOAD
        with pytest.raises(ProtocolError):
            codec.write_frame(io.BytesIO(),
                              Frame(FrameType.CIPHERTEXT, b"\xaa" * (MAX_FRAME_PAYLOAD + 1)))

    def test_oversize_length_on_read(self):
        buf = io.BytesIO(bytes([FrameType.STATUS])
                         + (MAX_FRAME_PAYLOAD + 1).to_bytes(4, "big"))
        with pytest.raises(ProtocolError):
            codec.read_frame(buf)

    def test_back_to_back_frames_in_order(self, rng):
        frames = [Frame(FrameType.STATUS, bytes(rng.getrandbits(8) for _ in range(n)))
                  for n in (0, 1, 100, 1000)]
        back = self.roundtrip(*frames)
        assert [f.payload for f in back] == [f.payload for f in frames]

    def test_unknown_tag(self):
        with pytest.raises(ProtocolError):
            codec.write_frame(io.BytesIO(), Frame(0x77, b""))
        buf = io.BytesIO(b"\x77" + (0).to_bytes(4, "big"))
        with pytest.raises(ProtocolError):
            codec.read_frame(buf)

    def test_truncated_stream(self):
        buf = io.BytesIO(bytes([FrameType.STATUS]) + (10).to_bytes(4, "big") + b"abc")
        with pytest.raises(EndOfStreamError):
            codec.read_frame(buf)
        with pytest.raises(EndOfStreamError):
            codec.read_frame(io.BytesIO(b"\x05\x00"))
        with pytest.raises(EndOfStreamError):
            codec.read_frame(io.BytesIO(b""))

    def test_a_header_does_not_reserve_the_length_it_claims(self):
        # a peer that sends a header claiming the cap, 10 bytes and a close
        # must cost the reader about what it sent, not a 1 MiB buffer
        header = bytes([FrameType.CIPHERTEXT]) + MAX_FRAME_PAYLOAD.to_bytes(4, "big")
        stream = io.BufferedReader(io.BytesIO(header + b"\xaa" * 10))
        tracemalloc.start()
        try:
            with pytest.raises(EndOfStreamError, match=(
                    f"stream ended with {MAX_FRAME_PAYLOAD - 10} bytes outstanding")):
                codec.read_frame(stream)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < MAX_FRAME_PAYLOAD // 8
        # a whole frame at the cap still reads from the same kind of stream
        payload = bytes(range(256)) * (MAX_FRAME_PAYLOAD // 256)
        back = codec.read_frame(io.BufferedReader(io.BytesIO(header + payload)))
        assert (back.type_tag, back.payload) == (FrameType.CIPHERTEXT, payload)


class TestFuzz:
    """Arbitrary bytes must produce structured errors, never crashes."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.binary(max_size=200))
    def test_ciphertext_decoder_total(self, prod, data):
        try:
            codec.decode_ciphertext(data, prod.params)
        except (CodecError, DecodeError):
            pass

    @settings(max_examples=300, deadline=None)
    @given(data=st.binary(max_size=200))
    def test_params_decoder_total(self, data):
        try:
            codec.decode_params(data)
        except (CodecError, DecodeError):
            pass

    @settings(max_examples=200, deadline=None)
    @given(data=st.binary(max_size=64))
    def test_key_decoders_total(self, prod, data):
        for decoder in (codec.decode_master,
                        functools.partial(codec.decode_keypair, key_class=PkiKeyPair),
                        functools.partial(codec.decode_keypair, key_class=ClcKeyPair),
                        functools.partial(codec.decode_public, key_class=ClcKeyPair),
                        functools.partial(codec.decode_public, key_class=PkiKeyPair),
                        codec.decode_partial_key):
            try:
                decoder(data, prod.params)
            except (CodecError, DecodeError):
                pass

    @settings(max_examples=300, deadline=None)
    @given(data=st.binary(max_size=40))
    def test_frame_reader_total(self, data):
        try:
            codec.read_frame(io.BytesIO(data))
        except CodecError:
            pass


def _valid_encodings(params, master, rng):
    """(name, bytes, decode, re-encode) for a valid file of every kind
    and a ciphertext; re-encode turns decode's result back into bytes."""
    pki = keys.pki_keygen(params, rng)
    clc = keys.clc_keygen(params, master, b"fuzz-user", rng)
    partial = keys.clc_extract_partial(params, master, b"fuzz-user", rng)
    sigma = pchs_signcrypt(params, pki, clc.identity, clc.public, b"fuzz", rng)
    return [
        ("params", codec.encode_params(params), codec.decode_params,
         codec.encode_params),
        ("master", codec.encode_master(params, master),
         lambda d: codec.decode_master(d, params),
         lambda x: codec.encode_master(params, x)),
        ("pki key", codec.encode_pki_keypair(params, pki),
         lambda d: codec.decode_keypair(d, params, PkiKeyPair),
         lambda x: codec.encode_pki_keypair(params, x)),
        ("clc key", codec.encode_clc_keypair(params, clc),
         lambda d: codec.decode_keypair(d, params, ClcKeyPair),
         lambda x: codec.encode_clc_keypair(params, x)),
        ("partial key", codec.encode_partial_key(params, b"fuzz-user", partial),
         lambda d: codec.decode_partial_key(d, params),
         lambda x: codec.encode_partial_key(params, *x)),
        ("pki public", codec.encode_pki_public(params, pki.PK_p),
         lambda d: codec.decode_public(d, params, PkiKeyPair),
         lambda x: codec.encode_pki_public(params, x)),
        ("clc public", codec.encode_clc_public(params, clc.identity, clc.public),
         lambda d: codec.decode_public(d, params, ClcKeyPair),
         lambda x: codec.encode_clc_public(params, *x)),
        ("ciphertext", codec.encode_ciphertext(sigma),
         lambda d: codec.decode_ciphertext(d, params), codec.encode_ciphertext),
    ]


def _mutate(data: bytes, rng: random.Random) -> bytes:
    """One to three byte flips, truncations or extensions."""
    out = bytearray(data)
    for _ in range(rng.randint(1, 3)):
        op = rng.randrange(3)
        if op == 0 and out:
            out[rng.randrange(len(out))] ^= rng.randint(1, 255)
        elif op == 1:
            del out[rng.randrange(len(out) + 1):]
        else:
            out += bytes(rng.getrandbits(8) for _ in range(rng.randint(1, 8)))
    return bytes(out)


class TestMutationFuzz:
    """Valid encodings, mutated: decoders raise only CodecError or
    DecodeError, and whatever still decodes re-encodes to the same bytes
    (decoders validate rather than normalise)."""

    MUTATIONS = 300

    @pytest.mark.parametrize("group", ["secp256k1", "toy-13"])
    def test_mutated_encodings(self, group):
        rng = random.Random(f"mutation-fuzz-{group}")
        params, master = keys.setup(group, n=256, rng=rng)
        for name, data, decode, encode in _valid_encodings(params, master, rng):
            assert encode(decode(data)) == data, name
            for _ in range(self.MUTATIONS):
                mutated = _mutate(data, rng)
                try:
                    value = decode(mutated)
                except (CodecError, DecodeError):
                    continue
                assert encode(value) == mutated, (name, mutated.hex())


class TestSignedCiphertextOnWire:
    def test_real_ciphertext_survives_the_wire(self, prod, rng):
        sigma = pchs_signcrypt(prod.params, prod.alice, prod.identity,
                               prod.bob.public, b"wire trip", rng)
        back = codec.decode_ciphertext(codec.encode_ciphertext(sigma), prod.params)
        from hsc.signcryption import pchs_unsigncrypt
        assert pchs_unsigncrypt(prod.params, prod.bob, prod.alice.PK_p,
                                back) == b"wire trip"
