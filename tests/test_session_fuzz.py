"""Hostile peers in memory: the real session driver, netdemo._run_session,
fed peer byte streams drawn from the five-frame grammar.

The connection is an in-memory double whose one buffered stream reads a
scripted peer and keeps what the session writes, so a session needs no
socket, thread or timeout.  Each script starts from the honest peer's
frames; each frame may stay, go missing, change its type tag, carry
another payload (a public key of the wrong kind or of another user, a
ciphertext for the other direction or for another receiver, another
status) or become a frame at or above the payload cap.  One bit of the
whole script may flip, the script may stop in the middle of a frame, and
the honest frames may be replayed after it."""

import collections
import io
import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from hsc import codec, keys, netdemo
from hsc.codec import MAX_FRAME_PAYLOAD, Frame, FrameType
from hsc.netdemo import (
    Role,
    SessionState,
    STATUS_CLIENT_DONE,
    STATUS_FAILED,
    STATUS_SUCCESS,
)

MESSAGE = b"fuzzed session"
FRAME_ORDER = [FrameType.CLIENT_KEY, FrameType.SERVER_KEY, FrameType.CIPHERTEXT,
               FrameType.STATUS, FrameType.STATUS]
OUTCOMES = {netdemo.OK, netdemo.OUT_OF_ORDER, netdemo.FRAME_DECODE,
            netdemo.END_OF_STREAM, netdemo.MALFORMED_PEER_KEY,
            netdemo.VERIFY_FAILED, netdemo.NEGATIVE_STATUS, netdemo.BAD_STATUS}
# what each role can end in; a client never verifies and a server never
# reads the verdict
REACHABLE = {
    Role.SERVER: OUTCOMES - {netdemo.NEGATIVE_STATUS},
    Role.CLIENT: OUTCOMES - {netdemo.VERIFY_FAILED, netdemo.BAD_STATUS},
}
TAGS = [*FrameType, 0x00, 0x7F]
EXAMPLES = 150  # per mode and role


def _raw(tag: int, payload: bytes) -> bytes:
    """A frame's wire bytes, for any tag codec.write_frame would refuse too."""
    return bytes([tag]) + len(payload).to_bytes(4, "big") + payload


class MemoryConnection:
    """Stands in for a connected socket: makefile("rwb") reads `script`
    and writes to memory."""

    def __init__(self, script: bytes) -> None:
        self.script = script
        self.stream = None

    def makefile(self, mode: str):
        assert mode == "rwb"
        self.stream = io.BufferedRWPair(io.BytesIO(self.script), io.BytesIO())
        return self.stream


@pytest.fixture(scope="module")
def peers(prod):
    """Per (mode, role): the honest peer's frames, each as the list of
    wire bytes that may stand in its place (the honest bytes first), and
    the arguments of our side's session body."""
    params = prod.params
    other_pki = keys.pki_keygen(params, random.Random("other-pki"))
    other_clc = keys.clc_keygen(params, prod.master, b"other", random.Random("other-clc"))
    # each key-pair class: its key from `prod`, then another user's
    by_class = {type(prod.alice): (prod.alice, other_pki),
                type(prod.bob): (prod.bob, other_clc)}

    def public(key) -> bytes:
        return codec.encode_public(params, key)

    def ciphertext(mode: str, receiver) -> bytes:
        spec = netdemo.DIRECTIONS[mode]
        peer = codec.decode_public(public(receiver), params, spec.receiver)
        return codec.encode_ciphertext(spec.signcrypt(
            params, by_class[spec.sender][0], peer, MESSAGE, random.Random(mode)))

    def slot(honest: Frame, *payloads: bytes) -> list[bytes]:
        return [_raw(*honest), b"",
                *(_raw(tag, honest.payload) for tag in TAGS if tag != honest.type_tag),
                *(_raw(honest.type_tag, p) for p in payloads),
                _raw(honest.type_tag, bytes(MAX_FRAME_PAYLOAD)),
                bytes([honest.type_tag]) + (MAX_FRAME_PAYLOAD + 1).to_bytes(4, "big")]

    table = {}
    for mode, spec in netdemo.DIRECTIONS.items():
        (sender, other_sender), (receiver, other_receiver) = \
            by_class[spec.sender], by_class[spec.receiver]
        other_mode = next(m for m in netdemo.DIRECTIONS if m != mode)
        table[mode, Role.SERVER] = [
            slot(Frame(FrameType.CLIENT_KEY, public(sender)),
                 public(receiver), public(other_sender)),
            slot(Frame(FrameType.CIPHERTEXT, ciphertext(mode, receiver)),
                 ciphertext(other_mode, sender), ciphertext(mode, other_receiver), b""),
            slot(Frame(FrameType.STATUS, STATUS_CLIENT_DONE),
                 STATUS_SUCCESS, STATUS_FAILED, b""),
        ], (receiver, spec)
        table[mode, Role.CLIENT] = [
            slot(Frame(FrameType.SERVER_KEY, public(receiver)),
                 public(sender), public(other_receiver)),
            slot(Frame(FrameType.STATUS, STATUS_SUCCESS),
                 STATUS_FAILED, STATUS_CLIENT_DONE, b""),
        ], (sender, spec, MESSAGE, random.Random(mode))
    return table


@st.composite
def scripts(draw, slots: list[list[bytes]]) -> bytes:
    """One peer byte stream from the grammar in the module docstring:
    each frame stays honest on even odds, so that later frames are
    reached too."""
    script = bytearray(b"".join(
        draw(st.sampled_from(choices[1:] if draw(st.booleans()) else choices[:1]))
        for choices in slots))
    if script and draw(st.booleans()):
        bit = draw(st.integers(0, 8 * len(script) - 1))
        script[bit // 8] ^= 1 << (bit % 8)
    if script and draw(st.booleans()):
        del script[draw(st.integers(0, len(script) - 1)):]
    if draw(st.booleans()):
        script += b"".join(choices[0] for choices in slots)
    return bytes(script)


@pytest.mark.parametrize("role", [Role.SERVER, Role.CLIENT], ids=lambda r: r.value)
@pytest.mark.parametrize("mode", sorted(netdemo.DIRECTIONS))
def test_every_drawn_peer_ends_the_session_in_a_defined_outcome(prod, peers, mode, role):
    params = prod.params
    slots, args = peers[mode, role]
    body = netdemo._serve_session if role is Role.SERVER else netdemo._client_session
    secrets = [params.group.encode_scalar(x) for x in
               (prod.master.s, prod.alice.x_p, prod.bob.x_c, prod.bob.d)]
    failed = Frame(FrameType.STATUS, STATUS_FAILED)
    outcomes = collections.Counter()

    @settings(max_examples=EXAMPLES, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(script=scripts(slots))
    def run(script):
        conn = MemoryConnection(script)
        with params.group.counting() as ops:
            session = netdemo._run_session(conn, role, body, params, *args)
        outcomes[session.outcome] += 1
        assert session.outcome in REACHABLE[role]
        assert [f.type_tag for f in session.frames] == FRAME_ORDER[:len(session.frames)]
        assert (session.state is SessionState.DONE) == (session.outcome == netdemo.OK)
        if role is Role.SERVER:
            # the server's status is the fourth frame
            assert (session.frames[3:4] == [failed]) == \
                (session.outcome == netdemo.VERIFY_FAILED)
        assert not any(secret in f.payload for f in session.frames for secret in secrets)
        assert ops.scalar_mults <= 4 and ops.hash_calls <= 2
        assert conn.stream.closed

    run()
    # the grammar reaches every outcome the role can end in
    assert set(outcomes) == REACHABLE[role]
