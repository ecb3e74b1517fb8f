"""Canonical byte formats: ciphertexts, key files, and wire frames.

Everything is fixed-width big-endian.  Files open with the magic "HSC1",
a format version, a kind byte, and the group name, so a decoder can fail
fast on the wrong file or the wrong group.  Variable-length fields carry
a 4-byte length prefix.

A ciphertext serializes as

    direction(1) || u(scalar_len) || V(element_len) || c(|m|)

so the payload beyond the direction tag is exactly scalar_len +
element_len + |m| bytes.  Decoders validate rather than normalise:
a scalar >= q or an off-group element is an error, not a warning.

The params file carries two parts the scheme fixes: the security
parameter l (2 bytes, always the bit length of q) and a trailer naming
the hash oracles (SHAKE256 and the three domain tags of hsc.hashing).
Both are written as fixed bytes, and a file whose l or trailer differs
is refused on decode.

Frames for the demo protocol are type_tag(1) || length(4) || payload,
with a 1 MiB payload cap.  All decoders raise CodecError subclasses
(never IndexError and friends) on arbitrary input.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from .group import GroupElement, make_group
from .hashing import DOMAIN_TAGS, XOF_NAME, _length_prefixed
from .keys import (
    ClcKeyPair,
    ClcPartialKey,
    ClcPublicKey,
    MasterKey,
    PkiKeyPair,
    SystemParams,
)
from .signcryption import Ciphertext, Direction

MAGIC = b"HSC1"
FORMAT_VERSION = 1
MAX_FRAME_PAYLOAD = 1 << 20


class CodecError(ValueError):
    """Base class for every encode/decode failure in this module."""


class TruncatedError(CodecError):
    """Input ended before the structure was complete."""


class HeaderError(CodecError):
    """Magic, version, kind, or group name does not match."""


class BadDirectionError(CodecError):
    """Ciphertext direction byte is neither PCHS nor CPHS."""


class ProtocolError(CodecError):
    """Frame violates the protocol limits (size cap, unknown tag)."""


class EndOfStreamError(CodecError):
    """Byte stream closed mid-frame."""


class FileKind(enum.IntEnum):
    PARAMS = 0x01
    MASTER = 0x02
    PKI_KEY = 0x03
    CLC_KEY = 0x04
    PKI_PUB = 0x05
    CLC_PUB = 0x06
    CLC_PARTIAL = 0x07


class FrameType(enum.IntEnum):
    CLIENT_KEY = 0x02
    SERVER_KEY = 0x03
    CIPHERTEXT = 0x04
    STATUS = 0x05


class Frame(NamedTuple):
    type_tag: int
    payload: bytes


class _Reader:
    """Cursor over immutable bytes; every read is bounds-checked."""

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise TruncatedError(
                f"needed {n} bytes at offset {self.pos}, have {len(self.data) - self.pos}"
            )
        chunk = self.data[self.pos:self.pos + n]
        self.pos += n
        return chunk

    def take_int(self, width: int) -> int:
        return int.from_bytes(self.take(width), "big")

    def take_prefixed(self) -> bytes:
        return self.take(self.take_int(4))

    def rest(self) -> bytes:
        chunk = self.data[self.pos:]
        self.pos = len(self.data)
        return chunk

    def finish(self) -> None:
        if self.pos != len(self.data):
            raise CodecError(f"{len(self.data) - self.pos} trailing bytes")


def _header(kind: FileKind, group_name: str) -> bytes:
    name = group_name.encode("ascii")
    return MAGIC + bytes([FORMAT_VERSION, kind, len(name)]) + name


def _read_kind(r: _Reader) -> int:
    """Check the magic and the version; return the raw kind byte."""
    if r.take(4) != MAGIC:
        raise HeaderError("bad magic; not an HSC file")
    version = r.take_int(1)
    if version != FORMAT_VERSION:
        raise HeaderError(f"unsupported format version {version}")
    return r.take_int(1)


def _read_header(r: _Reader, kind: FileKind) -> str:
    actual = _read_kind(r)
    if actual != kind:
        raise HeaderError(f"expected {kind.name} file, found kind 0x{actual:02x}")
    try:
        return r.take(r.take_int(1)).decode("ascii")
    except UnicodeDecodeError as exc:
        raise HeaderError("group name is not ascii") from exc


def file_kind(data: bytes) -> FileKind:
    """Identify an HSC file from its header without decoding the body."""
    kind = _read_kind(_Reader(data))
    try:
        return FileKind(kind)
    except ValueError:
        raise HeaderError(f"unknown file kind 0x{kind:02x}") from None


def _check_group(name: str, params: SystemParams) -> None:
    if name != params.group.descriptor.name:
        raise HeaderError(
            f"file was made for group {name!r}, params use "
            f"{params.group.descriptor.name!r}"
        )


# -- ciphertexts ------------------------------------------------------------


def encode_ciphertext(sigma: Ciphertext) -> bytes:
    group = sigma.V.group
    return (
        bytes([sigma.direction])
        + group.encode_scalar(sigma.u)
        + group.encode_element(sigma.V)
        + sigma.c
    )


def decode_ciphertext(data: bytes, params: SystemParams) -> Ciphertext:
    group = params.group
    slen, elen = group.descriptor.scalar_len, group.descriptor.element_len
    if len(data) < 1 + slen + elen + 1:
        raise TruncatedError(
            f"ciphertext payload must be at least {1 + slen + elen + 1} bytes"
        )
    r = _Reader(data)
    tag = r.take_int(1)
    try:
        direction = Direction(tag)
    except ValueError:
        raise BadDirectionError(f"bad direction byte 0x{tag:02x}") from None
    u = group.decode_scalar(r.take(slen))
    V = group.decode_element(r.take(elen))
    return Ciphertext(c=r.rest(), u=u, V=V, direction=direction)


# -- system parameters --------------------------------------------------------


# the params file's trailer: the XOF's name, then its three domain tags
_ORACLE_FIELDS = (XOF_NAME.encode("ascii"), *DOMAIN_TAGS)


def encode_params(params: SystemParams) -> bytes:
    g = params.group
    return (
        _header(FileKind.PARAMS, g.descriptor.name)
        + params.n.to_bytes(4, "big")
        + g.descriptor.q.bit_length().to_bytes(2, "big")
        + g.descriptor.q.to_bytes(g.descriptor.scalar_len, "big")
        + g.encode_element(params.P)
        + g.encode_element(params.Ppub)
        + b"".join(map(_length_prefixed, _ORACLE_FIELDS))
    )


def decode_params(data: bytes) -> SystemParams:
    r = _Reader(data)
    name = _read_header(r, FileKind.PARAMS)
    try:
        group = make_group(name)
    except ValueError as exc:
        raise HeaderError(str(exc)) from exc
    n = r.take_int(4)
    l = r.take_int(2)
    q = r.take_int(group.descriptor.scalar_len)
    if q != group.descriptor.q:
        raise HeaderError(f"order in file does not match group {name!r}")
    if l != q.bit_length():
        raise CodecError(f"security parameter l is {l}, not the {q.bit_length()} bits of q")
    P = group.decode_element(r.take(group.descriptor.element_len))
    Ppub = group.decode_element(r.take(group.descriptor.element_len))
    oracles = tuple(r.take_prefixed() for _ in _ORACLE_FIELDS)
    if oracles != _ORACLE_FIELDS:
        raise CodecError(f"params name the oracles {oracles}, not {_ORACLE_FIELDS}")
    r.finish()
    if P.is_identity():
        raise CodecError("generator must not be the identity")
    if n < 8:
        raise CodecError(f"message cap n must be at least 8 bits, got {n}")
    return SystemParams(group=group, P=P, Ppub=Ppub, n=n)


# -- key files ------------------------------------------------------------------
#
# A key file is its header followed by the fields of its kind's layout, in
# order: a scalar is scalar_len bytes, an element element_len bytes, and
# bytes a 4-byte length prefix plus the data.  Every scalar is a secret
# that key generation never makes zero, so decoding refuses zero; public
# exports hold no scalar.  Field names are the attribute names of the
# decoded objects.

SCALAR, ELEMENT, BYTES = "scalar", "element", "bytes"

LAYOUTS = {
    FileKind.MASTER: (("s", SCALAR),),
    FileKind.PKI_KEY: (("x_p", SCALAR), ("PK_p", ELEMENT)),
    FileKind.CLC_KEY: (("identity", BYTES), ("x_c", SCALAR), ("d", SCALAR),
                       ("T", ELEMENT), ("PK_c1", ELEMENT)),
    FileKind.CLC_PARTIAL: (("identity", BYTES), ("d", SCALAR), ("T", ELEMENT)),
    FileKind.PKI_PUB: (("PK_p", ELEMENT),),
    FileKind.CLC_PUB: (("identity", BYTES), ("T", ELEMENT), ("PK_c1", ELEMENT)),
}

# each key-pair class's key file and public export
_KEYPAIR_KINDS = {PkiKeyPair: (FileKind.PKI_KEY, FileKind.PKI_PUB),
                  ClcKeyPair: (FileKind.CLC_KEY, FileKind.CLC_PUB)}


def _encode_fields(params: SystemParams, kind: FileKind, fields: dict) -> bytes:
    """The header of `kind`, then the values its layout names in `fields`."""
    g = params.group
    out = _header(kind, g.descriptor.name)
    for name, field_type in LAYOUTS[kind]:
        value = fields[name]
        if field_type == SCALAR:
            out += g.encode_scalar(value)
        elif field_type == ELEMENT:
            out += g.encode_element(value)
        else:
            out += _length_prefixed(value)
    return out


def _decode_fields(data: bytes, params: SystemParams, kind: FileKind) -> dict:
    """The fields of a `kind` file made for the params' group, by name."""
    g = params.group
    r = _Reader(data)
    _check_group(_read_header(r, kind), params)
    fields = {}
    for name, field_type in LAYOUTS[kind]:
        if field_type == SCALAR:
            fields[name] = g.decode_scalar(r.take(g.descriptor.scalar_len))
            if fields[name].is_zero():
                raise CodecError(f"secret scalar {name} must be nonzero")
        elif field_type == ELEMENT:
            fields[name] = g.decode_element(r.take(g.descriptor.element_len))
        else:
            fields[name] = r.take_prefixed()
    r.finish()
    return fields


def encode_master(params: SystemParams, master: MasterKey) -> bytes:
    return _encode_fields(params, FileKind.MASTER, master._asdict())


def decode_master(data: bytes, params: SystemParams) -> MasterKey:
    return MasterKey(**_decode_fields(data, params, FileKind.MASTER))


def encode_pki_keypair(params: SystemParams, key: PkiKeyPair) -> bytes:
    return _encode_fields(params, FileKind.PKI_KEY, key._asdict())


def encode_clc_keypair(params: SystemParams, key: ClcKeyPair) -> bytes:
    return _encode_fields(params, FileKind.CLC_KEY, key._asdict())


def decode_keypair(data: bytes, params: SystemParams, key_class: type):
    """Decode the key file of a PkiKeyPair or ClcKeyPair `key_class`."""
    key = key_class(**_decode_fields(data, params, _KEYPAIR_KINDS[key_class][0]))
    # the rule keys.clc_finalize enforces when it makes the key
    if key_class is ClcKeyPair and (key.x_c + key.d).is_zero():
        raise CodecError("x_c + d must be nonzero")
    return key


def encode_partial_key(params: SystemParams, identity: bytes, partial: ClcPartialKey) -> bytes:
    fields = dict(partial._asdict(), identity=identity)
    return _encode_fields(params, FileKind.CLC_PARTIAL, fields)


def decode_partial_key(data: bytes, params: SystemParams) -> tuple[bytes, ClcPartialKey]:
    fields = _decode_fields(data, params, FileKind.CLC_PARTIAL)
    return fields.pop("identity"), ClcPartialKey(**fields)


def encode_pki_public(params: SystemParams, PK_p: GroupElement) -> bytes:
    return _encode_fields(params, FileKind.PKI_PUB, {"PK_p": PK_p})


def encode_clc_public(params: SystemParams, identity: bytes, pub: ClcPublicKey) -> bytes:
    fields = dict(pub._asdict(), identity=identity)
    return _encode_fields(params, FileKind.CLC_PUB, fields)


def encode_public(params: SystemParams, key) -> bytes:
    """The public export of a PkiKeyPair or ClcKeyPair."""
    return _encode_fields(params, _KEYPAIR_KINDS[type(key)][1], key._asdict())


def decode_public(data: bytes, params: SystemParams, key_class: type):
    """Decode the public export of a `key_class` key pair: PK_p for a
    PkiKeyPair, (identity, ClcPublicKey) for a ClcKeyPair."""
    fields = _decode_fields(data, params, _KEYPAIR_KINDS[key_class][1])
    if key_class is PkiKeyPair:
        return fields["PK_p"]
    return fields.pop("identity"), ClcPublicKey(**fields)


# -- frames -------------------------------------------------------------------


def write_frame(sink, frame: Frame) -> None:
    """Write one frame to a binary file-like sink."""
    if frame.type_tag not in FrameType._value2member_map_:
        raise ProtocolError(f"unknown frame type 0x{frame.type_tag:02x}")
    if len(frame.payload) > MAX_FRAME_PAYLOAD:
        raise ProtocolError(f"payload of {len(frame.payload)} bytes exceeds cap")
    sink.write(bytes([frame.type_tag]) + len(frame.payload).to_bytes(4, "big") + frame.payload)
    sink.flush()


def _read_exact(source, n: int) -> bytes:
    # at most 64 KiB per read(): BufferedReader.read(n) reserves n bytes up
    # front, so a header that claims the cap would otherwise make a peer
    # that sends a few bytes cost a 1 MiB buffer; an empty read is the end
    data = bytearray()
    while len(data) < n and (chunk := source.read(min(n - len(data), 1 << 16))):
        data += chunk
    if len(data) < n:
        raise EndOfStreamError(f"stream ended with {n - len(data)} bytes outstanding")
    return bytes(data)


def read_frame(source) -> Frame:
    """Read one frame from `source`, a buffered binary stream (a
    BufferedReader, a BufferedRWPair, a BytesIO), blocking until the frame
    is complete or the stream ends."""
    header = _read_exact(source, 5)
    tag = header[0]
    if tag not in FrameType._value2member_map_:
        raise ProtocolError(f"unknown frame type 0x{tag:02x}")
    length = int.from_bytes(header[1:5], "big")
    if length > MAX_FRAME_PAYLOAD:
        raise ProtocolError(f"frame length {length} exceeds cap")
    return Frame(type_tag=tag, payload=_read_exact(source, length))
