"""Loopback sessions: the happy path in both directions, plus the abort
paths (tampering, out-of-order frames, malformed keys), the frames of an
honest session pinned byte for byte, and one-bit mutants of an honest
client's byte stream."""

import collections
import io
import random
import socket
import threading
from functools import partial

import pytest

from hsc import cli, codec, keys, netdemo
from hsc.codec import MAX_FRAME_PAYLOAD, Frame, FrameType
from hsc.netdemo import (
    DemoServer,
    DemoSession,
    Role,
    SessionState,
    STATUS_CLIENT_DONE,
    STATUS_FAILED,
    STATUS_SUCCESS,
)
from hsc.signcryption import MessageSizeError, pchs_signcrypt

from conftest import FixedRng


def _run_session(params, server_key, client_key, message, mode, client_hook=None):
    """Serve one session in a thread while the client runs inline."""
    server = DemoServer(params, server_key, mode=mode, port=0, timeout=5.0)
    box = {}

    def serve():
        box["server"] = server.serve_one()

    thread = threading.Thread(target=serve)
    thread.start()
    try:
        if client_hook is not None:
            box["client"] = client_hook(server.port)
        else:
            box["client"] = netdemo.run_client(params, client_key, message,
                                               mode=mode, port=server.port,
                                               timeout=5.0)
    finally:
        thread.join(timeout=10.0)
        server.close()
    return box["server"], box["client"]


class TestDemoSession:
    def test_a_new_session_starts_empty(self):
        session = DemoSession(Role.SERVER)
        assert session.role is Role.SERVER
        assert session.state is SessionState.START
        assert session.outcome == netdemo.OK
        assert session.plaintext is None and session.peer_key is None
        assert session.frames == [] and session.format_transcript() == ""

    def test_each_session_has_its_own_frames(self):
        a, b = DemoSession(Role.CLIENT), DemoSession(Role.SERVER)
        assert a.frames is not b.frames
        frame = a.record(Frame(type_tag=FrameType.STATUS, payload=b"x"))
        assert a.frames == [frame] and b.frames == []


class TestHonestSessions:
    @pytest.mark.parametrize("mode", ["pchs", "cphs"])
    def test_five_frames_and_exact_statuses(self, prod, mode):
        server_key = prod.bob if mode == "pchs" else prod.alice
        client_key = prod.alice if mode == "pchs" else prod.bob
        message = b"hello slice"
        server, client = _run_session(prod.params, server_key, client_key,
                                      message, mode)
        assert server.outcome == netdemo.OK
        assert client.outcome == netdemo.OK
        assert server.state == client.state == SessionState.DONE
        assert server.plaintext == message
        tags = [f.type_tag for f in server.frames]
        assert tags == [0x02, 0x03, 0x04, 0x05, 0x05]
        assert server.frames[3].payload == STATUS_SUCCESS == b"Verification Success!"
        assert server.frames[4].payload == STATUS_CLIENT_DONE \
            == b"The client has received the result."
        # the two transcripts agree frame by frame
        assert [(f.type_tag, f.payload) for f in server.frames] == \
            [(f.type_tag, f.payload) for f in client.frames]

    def test_no_private_material_on_the_wire(self, prod):
        server, client = _run_session(prod.params, prod.bob, prod.alice,
                                      b"secret-scan", "pchs")
        group = prod.params.group
        wire = b"".join(f.payload for f in client.frames)
        for scalar in (prod.master.s, prod.alice.x_p, prod.bob.x_c, prod.bob.d):
            assert group.encode_scalar(scalar) not in wire

    def test_transcript_log_format(self, prod):
        server, _ = _run_session(prod.params, prod.bob, prod.alice, b"log", "pchs")
        lines = server.format_transcript().splitlines()
        assert len(lines) == 5
        assert lines[0].startswith("0000 0x02 ")
        assert bytes.fromhex(lines[2].split()[2])  # payload hex parses


class TestAbortPaths:
    def test_tampered_ciphertext_gets_failure_status(self, prod, rng):
        params = prod.params

        def evil_client(port):
            with socket.create_connection(("127.0.0.1", port), timeout=5.0) as conn:
                rfile, wfile = conn.makefile("rb"), conn.makefile("wb")
                codec.write_frame(wfile, Frame(
                    FrameType.CLIENT_KEY,
                    codec.encode_pki_public(params, prod.alice.PK_p)))
                codec.read_frame(rfile)  # server key
                sigma = pchs_signcrypt(params, prod.alice, prod.identity,
                                       prod.bob.public, b"genuine", rng)
                tampered = bytearray(codec.encode_ciphertext(sigma))
                tampered[-1] ^= 0x01
                codec.write_frame(wfile, Frame(FrameType.CIPHERTEXT, bytes(tampered)))
                status = codec.read_frame(rfile)
                return status

        server, status = _run_session(params, prod.bob, None, None, "pchs",
                                      client_hook=evil_client)
        assert status.payload == STATUS_FAILED == b"Verification Failed!"
        assert server.outcome == netdemo.VERIFY_FAILED
        assert server.plaintext is None

    def test_out_of_order_frame_aborts_without_unsigncrypt(self, prod):
        params = prod.params

        def pushy_client(port):
            with socket.create_connection(("127.0.0.1", port), timeout=5.0) as conn:
                wfile = conn.makefile("wb")
                # ciphertext first, key never sent
                codec.write_frame(wfile, Frame(FrameType.CIPHERTEXT, b"\x01" * 70))
                return None

        server, _ = _run_session(params, prod.bob, None, None, "pchs",
                                 client_hook=pushy_client)
        assert server.outcome == netdemo.OUT_OF_ORDER
        assert server.state == SessionState.ABORTED
        assert server.plaintext is None

    def test_peer_closing_mid_frame_ends_in_end_of_stream(self, prod, caplog):
        def vanishing_client(port):
            with socket.create_connection(("127.0.0.1", port), timeout=5.0) as conn:
                # a header that declares 70 payload bytes, then 10 of them
                conn.sendall(bytes([FrameType.CLIENT_KEY]) + (70).to_bytes(4, "big")
                             + b"\x01" * 10)

        server, _ = _run_session(prod.params, prod.bob, None, None, "pchs",
                                 client_hook=vanishing_client)
        assert server.outcome == netdemo.END_OF_STREAM
        assert server.state == SessionState.ABORTED
        assert server.frames == []
        # through EndOfStreamError, not a timeout
        assert "stream ended with 60 bytes outstanding" in caplog.text

    @pytest.mark.parametrize("header", [
        bytes([0x7F]) + (1).to_bytes(4, "big"),
        bytes([FrameType.CLIENT_KEY]) + (MAX_FRAME_PAYLOAD + 1).to_bytes(4, "big"),
    ], ids=["unknown-tag", "oversize-length"])
    def test_undecodable_frame_header_ends_in_frame_decode(self, prod, header):
        def garbling_client(port):
            with socket.create_connection(("127.0.0.1", port), timeout=5.0) as conn:
                conn.sendall(header)
                # the server reads no further than the header
                assert conn.recv(1) == b""

        server, _ = _run_session(prod.params, prod.bob, None, None, "pchs",
                                 client_hook=garbling_client)
        assert server.outcome == netdemo.FRAME_DECODE
        assert server.state == SessionState.ABORTED
        assert server.frames == []

    def test_wrong_closing_status_ends_in_bad_status(self, prod, rng):
        params = prod.params

        def rude_client(port):
            with socket.create_connection(("127.0.0.1", port), timeout=5.0) as conn:
                rfile, wfile = conn.makefile("rb"), conn.makefile("wb")
                codec.write_frame(wfile, Frame(
                    FrameType.CLIENT_KEY,
                    codec.encode_pki_public(params, prod.alice.PK_p)))
                codec.read_frame(rfile)  # server key
                sigma = pchs_signcrypt(params, prod.alice, prod.identity,
                                       prod.bob.public, b"genuine", rng)
                codec.write_frame(wfile, Frame(FrameType.CIPHERTEXT,
                                               codec.encode_ciphertext(sigma)))
                status = codec.read_frame(rfile)
                codec.write_frame(wfile, Frame(FrameType.STATUS, b"Not done."))
                return status

        server, status = _run_session(params, prod.bob, None, None, "pchs",
                                      client_hook=rude_client)
        assert status.payload == STATUS_SUCCESS
        assert server.outcome == netdemo.BAD_STATUS
        assert server.state == SessionState.ABORTED
        assert server.plaintext == b"genuine"
        assert [f.type_tag for f in server.frames] == [
            FrameType.CLIENT_KEY, FrameType.SERVER_KEY, FrameType.CIPHERTEXT,
            FrameType.STATUS, FrameType.STATUS]
        assert server.frames[-1].payload == b"Not done."

    def test_client_aborts_on_off_group_server_key(self, prod):
        params = prod.params

        # a fake server that responds with a corrupted public key export
        listener = socket.create_server(("127.0.0.1", 0))
        listener.settimeout(5.0)
        port = listener.getsockname()[1]

        def fake_server():
            conn, _ = listener.accept()
            with conn:
                conn.settimeout(5.0)
                rfile, wfile = conn.makefile("rb"), conn.makefile("wb")
                codec.read_frame(rfile)
                export = bytearray(codec.encode_clc_public(
                    params, prod.identity, prod.bob.public))
                export[-33] = 0x09  # break the PK_c1 prefix byte
                codec.write_frame(wfile, Frame(FrameType.SERVER_KEY, bytes(export)))
                try:
                    codec.read_frame(rfile)
                except codec.CodecError:
                    pass

        thread = threading.Thread(target=fake_server)
        thread.start()
        try:
            client = netdemo.run_client(params, prod.alice, b"never sent",
                                        mode="pchs", port=port, timeout=5.0)
        finally:
            thread.join(timeout=10.0)
            listener.close()
        assert client.outcome == netdemo.MALFORMED_PEER_KEY
        # the abort happened before signcryption: no ciphertext frame
        assert all(f.type_tag != FrameType.CIPHERTEXT for f in client.frames)

    def test_client_reports_negative_status(self, prod, rng):
        params = prod.params

        def lying_server_session(port_box, listener):
            conn, _ = listener.accept()
            with conn:
                conn.settimeout(5.0)
                rfile, wfile = conn.makefile("rb"), conn.makefile("wb")
                codec.read_frame(rfile)
                codec.write_frame(wfile, Frame(
                    FrameType.SERVER_KEY,
                    codec.encode_clc_public(params, prod.identity, prod.bob.public)))
                codec.read_frame(rfile)  # ciphertext, ignored
                codec.write_frame(wfile, Frame(FrameType.STATUS, STATUS_FAILED))

        listener = socket.create_server(("127.0.0.1", 0))
        listener.settimeout(5.0)
        thread = threading.Thread(target=lying_server_session,
                                  args=(None, listener))
        thread.start()
        try:
            client = netdemo.run_client(params, prod.alice, b"msg", mode="pchs",
                                        port=listener.getsockname()[1], timeout=5.0)
        finally:
            thread.join(timeout=10.0)
            listener.close()
        assert client.outcome == netdemo.NEGATIVE_STATUS
        assert client.state == SessionState.ABORTED


class TestClientFailureHandling:
    """The client turns I/O failures into an outcome code, as the server
    does, instead of raising."""

    @staticmethod
    def _stalling_server():
        """Accepts one connection and sends nothing until released."""
        listener = socket.create_server(("127.0.0.1", 0))
        listener.settimeout(5.0)
        release = threading.Event()

        def stall():
            conn, _ = listener.accept()
            with conn:
                release.wait(10.0)

        thread = threading.Thread(target=stall)
        thread.start()
        return listener, release, thread

    def test_stalled_server_ends_in_end_of_stream(self, prod):
        listener, release, thread = self._stalling_server()
        try:
            client = netdemo.run_client(prod.params, prod.alice, b"msg", mode="pchs",
                                        port=listener.getsockname()[1], timeout=0.5)
        finally:
            release.set()
            thread.join(timeout=10.0)
            listener.close()
        assert not thread.is_alive()
        assert client.outcome == netdemo.END_OF_STREAM
        assert client.state == SessionState.ABORTED
        assert [f.type_tag for f in client.frames] == [FrameType.CLIENT_KEY]

    def test_cli_client_exits_4_on_stalled_server(self, prod, tmp_path, monkeypatch,
                                                  capsys):
        (tmp_path / "p.hsc").write_bytes(codec.encode_params(prod.params))
        (tmp_path / "k.hsc").write_bytes(codec.encode_pki_keypair(prod.params, prod.alice))
        (tmp_path / "m.txt").write_bytes(b"msg")
        monkeypatch.setattr(netdemo, "run_client",
                            partial(netdemo.run_client, timeout=0.5))
        listener, release, thread = self._stalling_server()
        try:
            code = cli.main(["client", "--params", str(tmp_path / "p.hsc"),
                             "--key", str(tmp_path / "k.hsc"),
                             "--in", str(tmp_path / "m.txt"),
                             "--port", str(listener.getsockname()[1])])
        finally:
            release.set()
            thread.join(timeout=10.0)
            listener.close()
        assert not thread.is_alive()
        assert code == cli.EXIT_IO
        assert "outcome: end-of-stream" in capsys.readouterr().out


class TestKeyTypeGuards:
    def test_server_requires_matching_key_type(self, prod):
        with pytest.raises(TypeError):
            DemoServer(prod.params, prod.alice, mode="pchs", port=0)
        with pytest.raises(TypeError):
            netdemo.run_client(prod.params, prod.bob, b"m", mode="pchs", port=1)

    def test_unknown_mode_rejected(self, prod):
        with pytest.raises(ValueError):
            DemoServer(prod.params, prod.bob, mode="ibc", port=0)

    @pytest.mark.parametrize("mode", sorted(netdemo.DIRECTIONS))
    def test_guards_follow_the_direction_table(self, prod, mode):
        spec = netdemo.DIRECTIONS[mode]
        keys_by_class = {type(prod.alice): prod.alice, type(prod.bob): prod.bob}
        with pytest.raises(TypeError, match=f"{mode} server needs a {spec.receiver.__name__}"):
            DemoServer(prod.params, keys_by_class[spec.sender], mode=mode, port=0)
        with pytest.raises(TypeError, match=f"{mode} client needs a {spec.sender.__name__}"):
            netdemo.run_client(prod.params, keys_by_class[spec.receiver], b"m",
                               mode=mode, port=1)


class TestMessageSizeGuard:
    """The client refuses a message its params cannot carry before it
    connects, with the error signcryption would raise."""

    @pytest.fixture(scope="class")
    def toy(self):
        # n = 64 bits: an 8-byte cap
        rng = random.Random(64)
        params, master = keys.setup("toy-101", n=64, rng=rng)
        pki, clc = keys.pki_keygen(params, rng), keys.clc_keygen(params, master, b"s", rng)
        return params, {type(pki): pki, type(clc): clc}

    @pytest.mark.parametrize("mode", sorted(netdemo.DIRECTIONS))
    @pytest.mark.parametrize("message,error", [
        pytest.param(b"", "refusing to signcrypt an empty message", id="empty"),
        pytest.param(b"x" * 100, "message is 100 bytes, cap is 8", id="over-cap"),
    ])
    def test_refused_before_any_connection(self, toy, mode, message, error):
        params, keys_by_class = toy
        spec = netdemo.DIRECTIONS[mode]
        with DemoServer(params, keys_by_class[spec.receiver], mode=mode, port=0,
                        timeout=0.2) as server:
            with pytest.raises(MessageSizeError, match=f"^{error}$"):
                netdemo.run_client(params, keys_by_class[spec.sender], message,
                                   mode=mode, port=server.port, timeout=0.5)
            with pytest.raises(socket.timeout):
                server.serve_one()


def _wire(*frames) -> bytes:
    """The bytes of `frames` on the wire."""
    stream = io.BytesIO()
    for frame in frames:
        codec.write_frame(stream, frame)
    return stream.getvalue()


# Known-answer frames of one honest secp256k1 session per mode.  The key
# set and the client's nonce come from explicit scalars, drawn in order
# from a scripted randrange, never from a seed: random.Random's stream is
# not promised to stay the same across Python versions.  setup draws s,
# pki_keygen x_p, and clc_keygen t, then x_c.
_VECTOR_KEY_SCALARS = (
    0x19AD6A0EA4D7EE381515C26B28AFB242D1053199599EA071A24E13EB318DBE2F,  # s
    0xC54D48373DEE2530D2CEBFB01F4DB2A0869FD5E8E2D8C0E7A74262EF2D688EC9,  # x_p
    0x6A2F3CFDCFC7448EF7D97837AFF44B4B9AFED7339AF203AFD9B2279C39B176CD,  # t
    0x0E96F8D464EFA5AFBB8D857B0DDD573186B90D4FDFF65B578670028B5220768E,  # x_c
)
_VECTOR_IDENTITY = b"slice-device"
_VECTOR_MESSAGE = b"frame vectors"
_VECTOR_NONCES = {
    "pchs": 0xDBF49088539AA6A4F7FE947E45776CCBEE1765F58755048A0D44F9FC2C23EDF7,
    "cphs": 0x60CE1C00F51D4C07D4AD8848546CD16CA7BB022A0FCCDA7915E2E2D97837EBFA,
}
# each frame as it goes on the wire: type_tag || length || payload
_VECTOR_FRAMES = {
    "pchs": [
        ("020000003148534331010509736563703235366b310381369af11d32a2aa5d040ba32766"
         "7c526247817d54df5bdcc99dc465419f44a8"),
        ("030000006248534331010609736563703235366b310000000c736c6963652d6465766963"
         "65033815ff0122122c735a2bf48c0aba423adc501a620a708666648faa693e6d5ebc034b"
         "b924c36bd0406df171e4bacbe4a5753cd321a53c63a39be1985b875667d8d5"),
        ("040000004f015bcc50764110b67ceae6667be8d4cdce6ffc864379c15775478039dcd1b0"
         "3e65037bbe9932e02644501756551446d43d9e32b1ac0a927048d1fd2d19200857d4bcff"
         "c05e23584cae68be746fba42"),
        "0500000015566572696669636174696f6e205375636365737321",
        ("050000002354686520636c69656e74206861732072656365697665642074686520726573"
         "756c742e"),
    ],
    "cphs": [
        ("020000006248534331010609736563703235366b310000000c736c6963652d6465766963"
         "65033815ff0122122c735a2bf48c0aba423adc501a620a708666648faa693e6d5ebc034b"
         "b924c36bd0406df171e4bacbe4a5753cd321a53c63a39be1985b875667d8d5"),
        ("030000003148534331010509736563703235366b310381369af11d32a2aa5d040ba32766"
         "7c526247817d54df5bdcc99dc465419f44a8"),
        ("040000004f021d5c8758b253893788890dea4848c77ed0cd8bc04362e005ecbc3a57b579"
         "34dd022134ce72fd38a69e1fa465ab2ff1164128b023ccc72dea894fc0106f0ebb8e0fcd"
         "10a6ae5367a71818c5b74b71"),
        "0500000015566572696669636174696f6e205375636365737321",
        ("050000002354686520636c69656e74206861732072656365697665642074686520726573"
         "756c742e"),
    ],
}


@pytest.fixture(scope="module")
def vector_keys():
    """The vectors' params and their PKI and CLC key pairs, by class."""
    rng = FixedRng(*_VECTOR_KEY_SCALARS)
    params, master = keys.setup("secp256k1", rng=rng)
    pki = keys.pki_keygen(params, rng)
    clc = keys.clc_keygen(params, master, _VECTOR_IDENTITY, rng)
    return params, {type(pki): pki, type(clc): clc}


class TestFrameVectors:
    @pytest.mark.parametrize("mode", sorted(_VECTOR_FRAMES))
    def test_an_honest_session_sends_the_pinned_bytes(self, vector_keys, mode):
        params, by_class = vector_keys
        spec = netdemo.DIRECTIONS[mode]

        def scripted_client(port):
            return netdemo.run_client(params, by_class[spec.sender], _VECTOR_MESSAGE,
                                      mode=mode, port=port, timeout=5.0,
                                      rng=FixedRng(_VECTOR_NONCES[mode]))

        server, client = _run_session(params, by_class[spec.receiver], None, None, mode,
                                      client_hook=scripted_client)
        assert server.outcome == client.outcome == netdemo.OK
        assert server.plaintext == _VECTOR_MESSAGE
        assert client.frames == server.frames
        assert [_wire(f).hex() for f in server.frames] == _VECTOR_FRAMES[mode]


def _serve_stream(server, data: bytes):
    """Serve one session, in this thread, to a client that sends `data`
    and shuts its write side: the listen backlog holds the connection
    until serve_one accepts it, and the shut write side ends every read
    that `data` leaves short."""
    with socket.create_connection(("127.0.0.1", server.port), timeout=5.0) as conn:
        conn.sendall(data)
        conn.shutdown(socket.SHUT_WR)
        return server.serve_one()


class TestHostileClient:
    """Client byte streams that the server must survive, each served in
    this thread by DemoServer.serve_one."""

    MUTANTS = 200  # per mode
    OUTCOMES = {netdemo.OK, netdemo.OUT_OF_ORDER, netdemo.FRAME_DECODE,
                netdemo.END_OF_STREAM, netdemo.MALFORMED_PEER_KEY,
                netdemo.VERIFY_FAILED, netdemo.NEGATIVE_STATUS, netdemo.BAD_STATUS}

    @pytest.mark.parametrize("mode", sorted(netdemo.DIRECTIONS))
    def test_every_one_bit_mutant_ends_in_a_defined_outcome(self, prod, mode):
        """Seeded one-bit mutants of an honest client's whole stream: its
        key, ciphertext and closing status frames."""
        params = prod.params
        spec = netdemo.DIRECTIONS[mode]
        by_class = {type(prod.alice): prod.alice, type(prod.bob): prod.bob}
        exports = {type(prod.alice): prod.alice.PK_p,
                   type(prod.bob): (prod.identity, prod.bob.public)}
        sender = by_class[spec.sender]
        sigma = spec.signcrypt(params, sender, exports[spec.receiver], b"hostile",
                               random.Random(f"sigma-{mode}"))
        honest = _wire(
            Frame(FrameType.CLIENT_KEY, codec.encode_public(params, sender)),
            Frame(FrameType.CIPHERTEXT, codec.encode_ciphertext(sigma)),
            Frame(FrameType.STATUS, STATUS_CLIENT_DONE))
        secrets = [params.group.encode_scalar(x) for x in
                   (prod.master.s, prod.alice.x_p, prod.bob.x_c, prod.bob.d)]
        failed = Frame(FrameType.STATUS, STATUS_FAILED)

        draw = random.Random(f"mutants-{mode}")
        outcomes = collections.Counter()
        with DemoServer(params, by_class[spec.receiver], mode=mode, port=0,
                        timeout=5.0) as server:
            for _ in range(self.MUTANTS):
                mutant = bytearray(honest)
                bit = draw.randrange(8 * len(honest))
                mutant[bit // 8] ^= 1 << (bit % 8)
                session = _serve_stream(server, mutant)
                outcomes[session.outcome] += 1
                assert session.outcome in self.OUTCOMES
                assert (failed in session.frames) == (session.outcome == netdemo.VERIFY_FAILED)
                assert not any(secret in f.payload
                               for f in session.frames for secret in secrets)
        # the mutants reach the key decode, unsigncryption and the
        # closing-status check, not only the frame codec
        assert {netdemo.MALFORMED_PEER_KEY, netdemo.VERIFY_FAILED,
                netdemo.BAD_STATUS} <= set(outcomes)

    def test_an_overlong_ciphertext_is_read_in_full_then_refused(self, prod, rng):
        params = prod.params
        sigma = pchs_signcrypt(params, prod.alice, prod.identity, prod.bob.public,
                               b"overlong", rng)
        # one byte more than the params let a ciphertext carry
        payload = codec.encode_ciphertext(sigma) + bytes(params.max_message_bytes - 7)
        with DemoServer(params, prod.bob, mode="pchs", port=0, timeout=5.0) as server:
            session = _serve_stream(server, _wire(
                Frame(FrameType.CLIENT_KEY, codec.encode_public(params, prod.alice)),
                Frame(FrameType.CIPHERTEXT, payload)))
        assert session.outcome == netdemo.VERIFY_FAILED
        assert session.frames[2:] == [Frame(FrameType.CIPHERTEXT, payload),
                                      Frame(FrameType.STATUS, STATUS_FAILED)]
