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

Each role's side of the protocol is a generator that does no I/O
(`_serve_session`, `_client_session`).  It yields the Frame it sends
next, or the FrameType it expects next and gets that frame back as the
value of the `yield`, and it sets the session's state.  Its return value
is its result: nothing when the session succeeded, else the pair
(outcome code, detail).  `_run_session` is the one driver and holds all
of a session's I/O: it opens the connection as one buffered binary
stream, writes and reads the frames on it with `codec.write_frame` and
`codec.read_frame`, records each one, ends a frame of the wrong type as
out-of-order, reads the body's result from `StopIteration.value`, and
turns every I/O or framing failure into an outcome code.

A ciphertext frame longer than the params allow is read in full, up to
codec's 1 MiB frame cap, then answered with the failure status and ended
as verify-failed; a frame whose length field exceeds the cap ends the
session as frame-decode once its 5-byte header is read.
"""

from __future__ import annotations

import enum
import logging
import socket
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
    check_message_size,
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


class DemoSession:
    """One peer's view of a session: protocol state, the peer's public
    material, and the ordered frame transcript.  A plain class, not a
    dataclass, so that no demo process imports ``dataclasses`` and the
    ``inspect`` it pulls in."""

    __slots__ = ("role", "state", "frames", "outcome", "plaintext", "peer_key")

    def __init__(self, role: Role) -> None:
        self.role = role
        self.state = SessionState.START
        self.frames: list[Frame] = []
        self.outcome = OK
        self.plaintext: Optional[bytes] = None
        self.peer_key: Any = None  # the peer's decoded public export

    def record(self, frame: Frame) -> Frame:
        self.frames.append(frame)
        return frame

    def abort(self, code: str, detail: str = "") -> None:
        self.state = SessionState.ABORTED
        self.outcome = code
        logger.warning("%s session aborted [%s] %s", self.role.value, code, detail)

    def format_transcript(self) -> str:
        return "\n".join(
            f"{i:04d} 0x{f.type_tag:02x} {f.payload.hex()}"
            for i, f in enumerate(self.frames)
        )


def _serve_session(session: DemoSession, params: SystemParams, key,
                   spec: DirectionSpec):
    # 0x02: the client's public key
    frame = yield FrameType.CLIENT_KEY
    try:
        session.peer_key = codec.decode_public(frame.payload, params, spec.sender)
    except (codec.CodecError, DecodeError) as exc:
        return MALFORMED_PEER_KEY, str(exc)

    # 0x03: our own public key
    yield Frame(FrameType.SERVER_KEY, codec.encode_public(params, key))
    session.state = SessionState.KEYS_EXCHANGED

    # 0x04: the ciphertext; undecodable or unverifiable both end in a
    # failure status so the client learns the message did not get through
    frame = yield FrameType.CIPHERTEXT
    session.state = SessionState.CIPHERTEXT_RECEIVED
    try:
        sigma = codec.decode_ciphertext(frame.payload, params)
        plaintext = spec.unsigncrypt(params, key, session.peer_key, sigma)
    except (RejectedCiphertext, ValueError) as exc:
        yield Frame(FrameType.STATUS, STATUS_FAILED)
        return VERIFY_FAILED, str(exc)

    session.plaintext = plaintext
    yield Frame(FrameType.STATUS, STATUS_SUCCESS)
    session.state = SessionState.ACKED

    # 0x05: the client's closing reply
    frame = yield FrameType.STATUS
    if frame.payload != STATUS_CLIENT_DONE:
        return BAD_STATUS, f"client replied {frame.payload!r}"
    session.state = SessionState.DONE


def _client_session(session: DemoSession, params: SystemParams, key,
                    spec: DirectionSpec, message: bytes, rng):
    # 0x02: our public key
    yield Frame(FrameType.CLIENT_KEY, codec.encode_public(params, key))

    # 0x03: the server's public key; reject malformed material before
    # any signcryption happens
    frame = yield FrameType.SERVER_KEY
    try:
        session.peer_key = codec.decode_public(frame.payload, params, spec.receiver)
    except (codec.CodecError, DecodeError) as exc:
        return MALFORMED_PEER_KEY, str(exc)
    session.state = SessionState.KEYS_EXCHANGED

    # 0x04: signcrypt and send
    sigma = spec.signcrypt(params, key, session.peer_key, message, rng)
    yield Frame(FrameType.CIPHERTEXT, codec.encode_ciphertext(sigma))
    session.state = SessionState.CIPHERTEXT_SENT

    # 0x05: the server's verdict
    frame = yield FrameType.STATUS
    if frame.payload != STATUS_SUCCESS:
        return NEGATIVE_STATUS, f"server replied {frame.payload!r}"
    session.state = SessionState.ACKED

    yield Frame(FrameType.STATUS, STATUS_CLIENT_DONE)
    session.state = SessionState.DONE


def _run_session(conn: socket.socket, role: Role, body, *args) -> DemoSession:
    """Drive the generator `body(session, *args)` over `conn`; this is
    all the I/O a session does.  `conn` is opened once, as one buffered
    binary stream for both directions, and closed before this returns.
    A yielded Frame is written, a yielded FrameType is read, and a frame
    read with another type ends the session as out-of-order.  Each frame
    written or read is recorded and sent back into the body.  The body's
    return value, read from `StopIteration.value`, is its outcome; an I/O
    or framing failure ends the session with its outcome code instead of
    an exception."""
    session = DemoSession(role=role)
    steps = body(session, *args)
    stream = conn.makefile("rwb")
    frame = None
    try:
        while True:
            step = steps.send(frame)
            if isinstance(step, Frame):
                codec.write_frame(stream, step)
                frame = step
            else:
                frame = codec.read_frame(stream)
                if frame.type_tag != step:
                    session.abort(OUT_OF_ORDER,
                                  f"expected 0x{step:02x}, got 0x{frame.type_tag:02x}")
                    break
            session.record(frame)
    except StopIteration as stop:
        if stop.value:
            session.abort(*stop.value)
    except (codec.EndOfStreamError, OSError) as exc:
        session.abort(END_OF_STREAM, str(exc))
    except codec.CodecError as exc:
        session.abort(FRAME_DECODE, str(exc))
    finally:
        try:
            stream.close()
        except OSError:
            pass
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
    check_message_size(params, message)
    with socket.create_connection((host, port), timeout=timeout) as conn:
        return _run_session(conn, Role.CLIENT, _client_session,
                            params, key, spec, message, rng)
