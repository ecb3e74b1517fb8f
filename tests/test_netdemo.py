"""Loopback sessions: the happy path in both directions, plus the abort
paths (tampering, out-of-order frames, malformed keys)."""

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
