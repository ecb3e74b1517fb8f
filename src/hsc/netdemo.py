"""Client/server demonstration over a TCP byte stream.

One session is five frames on one connection, in fixed order:

    client -> server   0x02  client public key
    server -> client   0x03  server public key
    client -> server   0x04  ciphertext
    server -> client   0x05  status ("Verification Success!" / "Verification Failed!")
    client -> server   0x05  status ("The client has received the result.")

In the default (pchs) mode the client is the PKI party and the server the
certificateless party; "cphs" mode mirrors the roles and the ciphertext
direction, with the identical frame grammar.

Keys are exchanged in-band and unauthenticated (trust-on-first-use): an
active attacker can substitute them.  The demo reproduces that honestly;
do not mistake it for a key-distribution protocol.

Both peers keep a transcript of every frame sent or received, in order,
so the two transcripts of an honest session are equal frame-by-frame and
contain no private key material.  Any out-of-order or undecodable frame
aborts the session with a distinct outcome code.  The client, like the
server, also turns I/O errors and timeouts into an outcome code.
Each mode is an entry of :data:`hsc.signcryption.DIRECTIONS`.
"""

from __future__ import annotations

import enum
import logging
import socket
from dataclasses import dataclass, field
from typing import Any, Optional

from . import codec
from .codec import Frame, FrameType
from .group import DecodeError
from .keys import SystemParams

# the four functions stay bound here although the table calls them from
# signcryption: perfbench's span recorder patches netdemo.<fn> too, and
# reads the original from this module's __dict__ first
from .signcryption import (  # noqa: F401
    DIRECTIONS,
    DirectionSpec,
    RejectedCiphertext,
    cphs_signcrypt,
    cphs_unsigncrypt,
    pchs_signcrypt,
    pchs_unsigncrypt,
)

logger = logging.getLogger(__name__)

DEFAULT_PORT = 7050
DEFAULT_TIMEOUT = 10.0

STATUS_SUCCESS = b"Verification Success!"
STATUS_FAILED = b"Verification Failed!"
STATUS_CLIENT_DONE = b"The client has received the result."

# outcome codes
OK = "success"
OUT_OF_ORDER = "out-of-order"
FRAME_DECODE = "frame-decode"
END_OF_STREAM = "end-of-stream"
MALFORMED_PEER_KEY = "malformed-peer-key"
VERIFY_FAILED = "verify-failed"
NEGATIVE_STATUS = "negative-status"
BAD_STATUS = "unexpected-status"


class Role(enum.Enum):
    CLIENT = "client"
    SERVER = "server"


class SessionState(enum.Enum):
    START = "start"
    KEYS_EXCHANGED = "keys-exchanged"
    CIPHERTEXT_SENT = "ciphertext-sent"
    CIPHERTEXT_RECEIVED = "ciphertext-received"
    ACKED = "acked"
    DONE = "done"
    ABORTED = "aborted"


@dataclass
class DemoSession:
    """One peer's view of a session: protocol state, the peer's public
    material, and the ordered frame transcript."""

    role: Role
    state: SessionState = SessionState.START
    frames: list[Frame] = field(default_factory=list)
    outcome: str = OK
    plaintext: Optional[bytes] = None
    peer_key: Any = None  # the peer's decoded public export

    def record(self, frame: Frame) -> Frame:
        self.frames.append(frame)
        return frame

    def abort(self, code: str, detail: str = "") -> "DemoSession":
        self.state = SessionState.ABORTED
        self.outcome = code
        logger.warning("%s session aborted [%s] %s", self.role.value, code, detail)
        return self

    def format_transcript(self) -> str:
        return "\n".join(
            f"{i:04d} 0x{f.type_tag:02x} {f.payload.hex()}"
            for i, f in enumerate(self.frames)
        )


class _Peer:
    """Framed send/receive over a connected socket, transcribing both."""

    def __init__(self, sock: socket.socket, session: DemoSession) -> None:
        self.rfile = sock.makefile("rb")
        self.wfile = sock.makefile("wb")
        self.session = session

    def send(self, type_tag: FrameType, payload: bytes) -> None:
        frame = Frame(type_tag=type_tag, payload=payload)
        codec.write_frame(self.wfile, frame)
        self.session.record(frame)

    def expect(self, type_tag: FrameType) -> Frame:
        frame = codec.read_frame(self.rfile)
        if frame.type_tag != type_tag:
            raise _Abort(OUT_OF_ORDER,
                         f"expected 0x{type_tag:02x}, got 0x{frame.type_tag:02x}")
        return self.session.record(frame)

    def close(self) -> None:
        for f in (self.rfile, self.wfile):
            try:
                f.close()
            except OSError:
                pass


class _Abort(Exception):
    def __init__(self, code: str, detail: str = "") -> None:
        super().__init__(detail)
        self.code = code
        self.detail = detail


def _decode_peer_key(frame: Frame, params: SystemParams, key_class: type):
    try:
        return codec.decode_public(frame.payload, params, key_class)
    except (codec.CodecError, DecodeError) as exc:
        raise _Abort(MALFORMED_PEER_KEY, str(exc)) from exc


def _serve_session(peer: _Peer, session: DemoSession, params: SystemParams,
                   key, spec: DirectionSpec) -> None:
    # 0x02: the client's public key
    frame = peer.expect(FrameType.CLIENT_KEY)
    session.peer_key = _decode_peer_key(frame, params, spec.sender)

    # 0x03: our own public key
    peer.send(FrameType.SERVER_KEY, codec.encode_public(params, key))
    session.state = SessionState.KEYS_EXCHANGED

    # 0x04: the ciphertext; undecodable or unverifiable both end in a
    # failure status so the client learns the message did not get through
    frame = peer.expect(FrameType.CIPHERTEXT)
    session.state = SessionState.CIPHERTEXT_RECEIVED
    try:
        sigma = codec.decode_ciphertext(frame.payload, params)
        plaintext = spec.unsigncrypt(params, key, session.peer_key, sigma)
    except (RejectedCiphertext, codec.CodecError, ValueError) as exc:
        peer.send(FrameType.STATUS, STATUS_FAILED)
        raise _Abort(VERIFY_FAILED, str(exc)) from exc

    session.plaintext = plaintext
    peer.send(FrameType.STATUS, STATUS_SUCCESS)
    session.state = SessionState.ACKED

    # 0x05: the client's closing reply
    frame = peer.expect(FrameType.STATUS)
    if frame.payload != STATUS_CLIENT_DONE:
        raise _Abort(BAD_STATUS, f"client replied {frame.payload!r}")
    session.state = SessionState.DONE


def _client_session(peer: _Peer, session: DemoSession, params: SystemParams,
                    key, spec: DirectionSpec, message: bytes, rng) -> None:
    # 0x02: our public key
    peer.send(FrameType.CLIENT_KEY, codec.encode_public(params, key))

    # 0x03: the server's public key; reject malformed material before
    # any signcryption happens
    frame = peer.expect(FrameType.SERVER_KEY)
    session.peer_key = _decode_peer_key(frame, params, spec.receiver)
    session.state = SessionState.KEYS_EXCHANGED

    # 0x04: signcrypt and send
    sigma = spec.signcrypt(params, key, session.peer_key, message, rng)
    peer.send(FrameType.CIPHERTEXT, codec.encode_ciphertext(sigma))
    session.state = SessionState.CIPHERTEXT_SENT

    # 0x05: the server's verdict
    frame = peer.expect(FrameType.STATUS)
    if frame.payload != STATUS_SUCCESS:
        raise _Abort(NEGATIVE_STATUS, f"server replied {frame.payload!r}")
    session.state = SessionState.ACKED

    peer.send(FrameType.STATUS, STATUS_CLIENT_DONE)
    session.state = SessionState.DONE


def _run_session(conn: socket.socket, role: Role, body, *args) -> DemoSession:
    """Run `body(peer, session, *args)` over `conn`; each failure ends the
    session with its outcome code instead of an exception."""
    session = DemoSession(role=role)
    peer = _Peer(conn, session)
    try:
        body(peer, session, *args)
    except _Abort as exc:
        session.abort(exc.code, exc.detail)
    except codec.EndOfStreamError as exc:
        session.abort(END_OF_STREAM, str(exc))
    except codec.CodecError as exc:
        session.abort(FRAME_DECODE, str(exc))
    except OSError as exc:
        session.abort(END_OF_STREAM, str(exc))
    finally:
        peer.close()
    return session


def _direction(mode: str, role: Role, key) -> DirectionSpec:
    """The direction of `mode`, once `key` is checked to be the key-pair
    class of `role`: the client signcrypts, the server unsigncrypts."""
    spec = DIRECTIONS.get(mode)
    if spec is None:
        raise ValueError(f"unknown mode {mode!r}")
    expected = spec.sender if role is Role.CLIENT else spec.receiver
    if not isinstance(key, expected):
        raise TypeError(f"{mode} {role.value} needs a {expected.__name__}")
    return spec


class DemoServer:
    """Binds a listening socket up front (so tests can read the chosen
    port) and serves sessions one connection at a time."""

    def __init__(self, params: SystemParams, key, *, mode: str = "pchs",
                 host: str = "127.0.0.1", port: int = DEFAULT_PORT,
                 timeout: float = DEFAULT_TIMEOUT) -> None:
        self.spec = _direction(mode, Role.SERVER, key)
        self.params = params
        self.key = key
        self.mode = mode
        self.timeout = timeout
        self._sock = socket.create_server((host, port))
        self._sock.settimeout(timeout)

    @property
    def port(self) -> int:
        return self._sock.getsockname()[1]

    def serve_one(self) -> DemoSession:
        """Accept one connection and run one session to completion or
        abort; returns the server-side transcript."""
        conn, addr = self._sock.accept()
        conn.settimeout(self.timeout)
        logger.info("serving %s session for %s", self.mode, addr)
        with conn:
            return _run_session(conn, Role.SERVER, _serve_session,
                                self.params, self.key, self.spec)

    def close(self) -> None:
        self._sock.close()

    def __enter__(self) -> "DemoServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def run_client(params: SystemParams, key, message: bytes, *,
               mode: str = "pchs", host: str = "127.0.0.1",
               port: int = DEFAULT_PORT, timeout: float = DEFAULT_TIMEOUT,
               rng=None) -> DemoSession:
    """Connect, run one session sending `message`, return the transcript."""
    spec = _direction(mode, Role.CLIENT, key)
    with socket.create_connection((host, port), timeout=timeout) as conn:
        return _run_session(conn, Role.CLIENT, _client_session,
                            params, key, spec, message, rng)
