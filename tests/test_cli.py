"""CLI end-to-end through subprocesses: lifecycle, exit codes, file
hygiene, and seeded reproducibility; and the commands of
scripts/cli_transcript.py replayed in process against its recorded
output."""

import argparse
import hashlib
import importlib.util
import itertools
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

CLI = [sys.executable, "-m", "hsc"]
SRC = Path(__file__).resolve().parent.parent / "src"


def child_env(env=None):
    """`env` (default: this process's environment) with the absolute `src`
    first on PYTHONPATH: the children run in temp directories, where a
    relative entry such as `PYTHONPATH=src` resolves to nothing."""
    env = dict(os.environ if env is None else env)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    return env


def run(args, cwd, env=None, expect=0):
    result = subprocess.run(CLI + args, cwd=cwd, capture_output=True,
                            text=True, env=child_env(env), timeout=120)
    assert result.returncode == expect, \
        f"hsc {' '.join(args)} -> {result.returncode}\n{result.stdout}{result.stderr}"
    return result


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A fully provisioned key directory on the production group."""
    ws = tmp_path_factory.mktemp("cli")
    (ws / "msg.txt").write_bytes(b"the quick brown fox")
    run(["setup", "--params", "params.hsc", "--out", "master.hsc"], ws)
    run(["pki-keygen", "--params", "params.hsc", "--out", "alice.hsc"], ws)
    run(["clc-extract", "--params", "params.hsc", "--key", "master.hsc",
         "--id", "bob", "--out", "bob_partial.hsc"], ws)
    run(["clc-finalize", "--params", "params.hsc", "--key", "bob_partial.hsc",
         "--out", "bob.hsc"], ws)
    run(["export-pub", "--params", "params.hsc", "--key", "alice.hsc",
         "--out", "alice.pub.hsc"], ws)
    run(["export-pub", "--params", "params.hsc", "--key", "bob.hsc",
         "--out", "bob.pub.hsc"], ws)
    return ws


class TestLifecycle:
    @pytest.mark.parametrize("mode,sender,receiver,sender_pub,receiver_pub", [
        ("pchs", "alice.hsc", "bob.hsc", "alice.pub.hsc", "bob.pub.hsc"),
        ("cphs", "bob.hsc", "alice.hsc", "bob.pub.hsc", "alice.pub.hsc"),
    ])
    def test_signcrypt_unsigncrypt_roundtrip(self, workspace, mode, sender,
                                             receiver, sender_pub, receiver_pub):
        sigma = f"sigma_{mode}.hsc"
        out = f"out_{mode}.txt"
        run(["signcrypt", "--mode", mode, "--params", "params.hsc",
             "--key", sender, "--peer", receiver_pub,
             "--in", "msg.txt", "--out", sigma], workspace)
        result = run(["unsigncrypt", "--mode", mode, "--params", "params.hsc",
                      "--key", receiver, "--peer", sender_pub,
                      "--in", sigma, "--out", out], workspace)
        assert "ACCEPT" in result.stdout
        assert (workspace / out).read_bytes() == (workspace / "msg.txt").read_bytes()

    def test_tampered_ciphertext_exits_3_with_reject(self, workspace):
        sigma = (workspace / "sigma_pchs.hsc").read_bytes()
        tampered = bytearray(sigma)
        tampered[-1] ^= 0x01
        (workspace / "tampered.hsc").write_bytes(bytes(tampered))
        result = run(["unsigncrypt", "--mode", "pchs", "--params", "params.hsc",
                      "--key", "bob.hsc", "--peer", "alice.pub.hsc",
                      "--in", "tampered.hsc", "--out", "bad.txt"],
                     workspace, expect=3)
        assert result.stderr.strip() == "REJECT"
        assert not (workspace / "bad.txt").exists()

    def test_truncated_ciphertext_exits_4(self, workspace):
        sigma = (workspace / "sigma_pchs.hsc").read_bytes()
        (workspace / "short.hsc").write_bytes(sigma[:10])
        result = run(["unsigncrypt", "--mode", "pchs", "--params", "params.hsc",
                      "--key", "bob.hsc", "--peer", "alice.pub.hsc",
                      "--in", "short.hsc", "--out", "bad2.txt"],
                     workspace, expect=4)
        assert result.stderr.startswith("ERROR decode")

    def test_wrong_key_file_kind_exits_4(self, workspace):
        result = run(["export-pub", "--params", "params.hsc",
                      "--key", "params.hsc", "--out", "nope.hsc"],
                     workspace, expect=4)
        assert "ERROR decode" in result.stderr


class TestIdOverride:
    """--id replaces a certificateless peer's identity and is ignored for
    a PKI peer."""

    def signcrypt(self, ws, mode, key, peer, out, *extra):
        run(["signcrypt", "--mode", mode, "--params", "params.hsc", "--key", key,
             "--peer", peer, *extra, "--in", "msg.txt", "--out", out], ws)

    def unsigncrypt(self, ws, mode, key, peer, sigma, out, *extra, expect=0):
        result = run(["unsigncrypt", "--mode", mode, "--params", "params.hsc",
                      "--key", key, "--peer", peer, *extra, "--in", sigma,
                      "--out", out], ws, expect=expect)
        if expect == 3:
            assert result.stderr.strip() == "REJECT"
            assert not (ws / out).exists()
        else:
            assert "ACCEPT" in result.stdout
            assert (ws / out).read_bytes() == (ws / "msg.txt").read_bytes()

    def test_pchs_signcrypt_binds_the_overridden_identity(self, workspace):
        self.signcrypt(workspace, "pchs", "alice.hsc", "bob.pub.hsc",
                       "id_pchs.hsc", "--id", "carol")
        for extra in ((), ("--id", "carol")):
            self.unsigncrypt(workspace, "pchs", "bob.hsc", "alice.pub.hsc",
                             "id_pchs.hsc", "id_pchs.txt", *extra, expect=3)

    def test_cphs_signcrypt_ignores_id(self, workspace):
        self.signcrypt(workspace, "cphs", "bob.hsc", "alice.pub.hsc",
                       "id_cphs.hsc", "--id", "carol")
        self.unsigncrypt(workspace, "cphs", "alice.hsc", "bob.pub.hsc",
                         "id_cphs.hsc", "id_cphs.txt")

    def test_cphs_unsigncrypt_checks_the_overridden_identity(self, workspace):
        self.signcrypt(workspace, "cphs", "bob.hsc", "alice.pub.hsc", "id_cphs2.hsc")
        self.unsigncrypt(workspace, "cphs", "alice.hsc", "bob.pub.hsc",
                         "id_cphs2.hsc", "id_carol.txt", "--id", "carol", expect=3)
        self.unsigncrypt(workspace, "cphs", "alice.hsc", "bob.pub.hsc",
                         "id_cphs2.hsc", "id_bob.txt", "--id", "bob")


class TestOneShotBuildsNoPromotedTable:
    """No point is multiplied twice in one signcrypt or unsigncrypt
    command, so a one-shot `hsc` process never builds a promoted
    fixed-window table.  The commands run in this process, with the cache
    of recent points cleared before each as in a fresh one."""

    @pytest.mark.parametrize("mode,sender,receiver,sender_pub,receiver_pub", [
        ("pchs", "alice.hsc", "bob.hsc", "alice.pub.hsc", "bob.pub.hsc"),
        ("cphs", "bob.hsc", "alice.hsc", "bob.pub.hsc", "alice.pub.hsc"),
    ])
    def test_signcrypt_and_unsigncrypt(self, workspace, table_builds, mode, sender,
                                       receiver, sender_pub, receiver_pub):
        from hsc import cli, group
        builds = table_builds["_fixed_window_rows"]
        ws = str(workspace)
        signcrypt = ["signcrypt", "--mode", mode, "--params", f"{ws}/params.hsc",
                     "--key", f"{ws}/{sender}", "--peer", f"{ws}/{receiver_pub}",
                     "--in", f"{ws}/msg.txt", "--out", f"{ws}/oneshot_{mode}.hsc",
                     "--force"]
        unsigncrypt = ["unsigncrypt", "--mode", mode, "--params", f"{ws}/params.hsc",
                       "--key", f"{ws}/{receiver}", "--peer", f"{ws}/{sender_pub}",
                       "--in", f"{ws}/oneshot_{mode}.hsc",
                       "--out", f"{ws}/oneshot_{mode}.txt", "--force"]
        for argv in (signcrypt, unsigncrypt):
            group._promotion.cache_clear()
            assert cli.main(argv) == 0
        assert builds == []
        # the hook does see a promotion: the same command again in one
        # process multiplies the sender's key a second time
        assert cli.main(unsigncrypt) == 0
        assert builds


class TestOneShotLoadsNoDemo:
    """signcrypt and unsigncrypt load neither the TCP demo nor the bench
    harness, nor socket and logging, which only those need; nor
    dataclasses (with the inspect it pulls in) or secrets, import time
    that a one-shot process does not need."""

    def test_signcrypt_and_unsigncrypt(self, workspace):
        code = textwrap.dedent("""
            import sys
            from hsc import cli
            for mode, sender, receiver, sender_pub, receiver_pub in (
                    ("pchs", "alice.hsc", "bob.hsc", "alice.pub.hsc", "bob.pub.hsc"),
                    ("cphs", "bob.hsc", "alice.hsc", "bob.pub.hsc", "alice.pub.hsc")):
                common = ["--mode", mode, "--params", "params.hsc", "--force"]
                assert cli.main(["signcrypt", *common, "--key", sender,
                                 "--peer", receiver_pub, "--in", "msg.txt",
                                 "--out", f"nodemo_{mode}.hsc"]) == 0
                assert cli.main(["unsigncrypt", *common, "--key", receiver,
                                 "--peer", sender_pub, "--in", f"nodemo_{mode}.hsc",
                                 "--out", f"nodemo_{mode}.txt"]) == 0
            print(sorted({"socket", "logging", "hsc.netdemo", "hsc.bench",
                          "dataclasses", "inspect", "secrets"} & set(sys.modules)))
        """)
        # only src on the child's path: an entry for another interpreter's
        # site-packages may load what hsc does not
        result = subprocess.run([sys.executable, "-c", code], cwd=workspace,
                                capture_output=True, text=True,
                                env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=120)
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1] == "[]"
        for mode in ("pchs", "cphs"):
            assert (workspace / f"nodemo_{mode}.txt").read_bytes() == \
                (workspace / "msg.txt").read_bytes()


class TestFileHygiene:
    def test_refuses_overwrite_without_force(self, workspace):
        result = run(["pki-keygen", "--params", "params.hsc",
                      "--out", "alice.hsc"], workspace, expect=4)
        assert "exists" in result.stderr

    def test_force_overwrites(self, workspace):
        run(["export-pub", "--params", "params.hsc", "--key", "alice.hsc",
             "--out", "alice.pub.hsc", "--force"], workspace)

    def test_missing_input_exits_4(self, workspace):
        run(["pki-keygen", "--params", "absent.hsc", "--out", "x.hsc"],
            workspace, expect=4)

    def test_usage_error_exits_2(self, workspace):
        result = run(["signcrypt", "--params", "params.hsc"], workspace, expect=2)
        assert result.stderr.startswith("ERROR usage: hsc signcrypt: ")
        assert len(result.stderr.splitlines()) == 1

    @pytest.mark.parametrize("command", ["serve", "client"])
    @pytest.mark.parametrize("port", ["70000", "-1", "65536", "http"])
    def test_out_of_range_port_exits_2(self, workspace, command, port):
        message = ["--in", "msg.txt"] if command == "client" else []
        result = run([command, "--params", "params.hsc", "--key", "bob.hsc",
                      *message, "--port", port], workspace, expect=2)
        assert result.stderr == (f"ERROR usage: hsc {command}: argument --port: "
                                 f"port must be 0-65535, got '{port}'\n")

    def test_port_bounds_and_default_parse(self):
        from hsc import cli
        base = ["client", "--params", "p.hsc", "--key", "k.hsc", "--in", "m.txt"]
        parser = cli.build_parser()
        assert parser.parse_args(base).port is None
        for port in (0, 7050, 65535):
            assert parser.parse_args(base + ["--port", str(port)]).port == port

    def test_setup_n_too_wide_for_the_params_file_exits_2(self, tmp_path):
        # n is a 4-byte field of the params file
        result = run(["setup", "--msg-bits", "5000000000", "--params", "p.hsc",
                      "--out", "m.hsc"], tmp_path, expect=2)
        assert result.stderr.startswith("ERROR usage")
        assert len(result.stderr.splitlines()) == 1
        assert list(tmp_path.iterdir()) == []

    def test_setup_n_below_one_byte_exits_2(self, tmp_path):
        result = run(["setup", "--group", "toy-13", "--msg-bits", "7", "--params", "p.hsc",
                      "--out", "m.hsc"], tmp_path, expect=2)
        assert result.stderr == "ERROR usage: message cap n must be at least 8 bits, got 7\n"
        assert list(tmp_path.iterdir()) == []
        run(["setup", "--group", "toy-13", "--msg-bits", "8", "--params", "p.hsc",
             "--out", "m.hsc"], tmp_path)
        assert sorted(path.name for path in tmp_path.iterdir()) == ["m.hsc", "p.hsc"]

    def test_setup_writes_no_params_when_the_master_key_exists(self, tmp_path):
        (tmp_path / "m.hsc").write_bytes(b"keep")
        result = run(["setup", "--group", "toy-101", "--params", "p.hsc",
                      "--out", "m.hsc"], tmp_path, expect=4)
        assert result.stderr == "ERROR io: m.hsc exists; pass --force to overwrite\n"
        # a params file written anyway would name a discarded master key
        assert sorted(path.name for path in tmp_path.iterdir()) == ["m.hsc"]
        assert (tmp_path / "m.hsc").read_bytes() == b"keep"

    def test_bench_refuses_an_existing_json_before_it_runs(self, tmp_path):
        run(["setup", "--group", "toy-101", "--params", "p.hsc",
             "--out", "m.hsc"], tmp_path)
        (tmp_path / "r.json").write_bytes(b"keep")
        result = run(["bench", "--params", "p.hsc", "--iters", "20",
                      "--json", "r.json"], tmp_path, expect=4)
        assert result.stderr == "ERROR io: r.json exists; pass --force to overwrite\n"
        assert result.stdout == ""
        assert (tmp_path / "r.json").read_bytes() == b"keep"

    @pytest.mark.parametrize("force", [[], ["--force"]])
    def test_setup_writes_nothing_when_an_output_directory_is_missing(self, tmp_path,
                                                                     force):
        # a params file written alone would name a master key never saved,
        # and a rerun would refuse it as existing
        result = run(["setup", "--group", "toy-101", "--params", "p.hsc",
                      "--out", "nodir/m.hsc", *force], tmp_path, expect=4)
        assert result.stderr == \
            "ERROR io: [Errno 2] No such file or directory: 'nodir/m.hsc'\n"
        assert result.stdout == ""
        assert list(tmp_path.iterdir()) == []

    def test_bench_refuses_a_json_in_a_missing_directory_before_it_runs(self, tmp_path):
        run(["setup", "--group", "toy-101", "--params", "p.hsc",
             "--out", "m.hsc"], tmp_path)
        result = run(["bench", "--params", "p.hsc", "--iters", "20",
                      "--json", "nodir/r.json", "--force"], tmp_path, expect=4)
        assert result.stderr == \
            "ERROR io: [Errno 2] No such file or directory: 'nodir/r.json'\n"
        assert result.stdout == ""

    @pytest.mark.parametrize("force", [[], ["--force"]])
    @pytest.mark.parametrize("command,outputs", [
        (["setup", "--group", "toy-101"], ["--params", "a.hsc", "--out", "./a.hsc"]),
    ])
    def test_two_outputs_naming_one_file_exit_2(self, tmp_path, command, outputs, force):
        # force or not, one of the two outputs would be lost
        before = sorted(path.name for path in tmp_path.iterdir())
        result = run(command + outputs + force, tmp_path, expect=2)
        first, second = outputs[1], outputs[3]
        assert result.stderr == \
            f"ERROR usage: outputs {first} and {second} name the same file\n"
        assert result.stdout == ""
        assert sorted(path.name for path in tmp_path.iterdir()) == before

    def test_finalize_identity_mismatch_exits_3(self, workspace):
        result = run(["clc-finalize", "--params", "params.hsc",
                      "--key", "bob_partial.hsc", "--id", "mallory",
                      "--out", "mallory.hsc"], workspace, expect=3)
        assert "ERROR crypto" in result.stderr


class TestPrivateAtomicOutputs:
    """Secret outputs are made mode 0600 and public ones 0666 less the
    umask; no output is written through a symlink, and --force replaces
    the path through a temporary file.  Run in this process, under a
    umask set for the test."""

    @pytest.fixture(autouse=True)
    def umask(self):
        """Umask 022 for the test, which may change it; restored after."""
        old = os.umask(0o022)
        try:
            yield
        finally:
            os.umask(old)

    @staticmethod
    def hsc(*args):
        from hsc import cli
        return cli.main(list(args))

    @staticmethod
    def mode(path):
        return os.lstat(path).st_mode & 0o777

    @pytest.fixture
    def keydir(self, tmp_path, monkeypatch):
        """A toy-101 setup and its PKI key in tmp_path, the working
        directory of the test."""
        monkeypatch.chdir(tmp_path)
        assert self.hsc("setup", "--group", "toy-101", "--params", "p.hsc",
                        "--out", "m.hsc") == 0
        assert self.hsc("pki-keygen", "--params", "p.hsc", "--out", "a.hsc") == 0
        return tmp_path

    @pytest.mark.parametrize("mask", [0o022, 0o027], ids=["umask022", "umask027"])
    def test_secret_outputs_are_0600_and_public_ones_follow_the_umask(
            self, tmp_path, monkeypatch, mask):
        monkeypatch.chdir(tmp_path)
        os.umask(mask)
        (tmp_path / "msg.txt").write_bytes(b"modes")
        for args in (
                ["setup", "--group", "toy-101", "--params", "p.hsc", "--out", "m.hsc"],
                ["pki-keygen", "--params", "p.hsc", "--out", "a.hsc"],
                ["clc-extract", "--params", "p.hsc", "--key", "m.hsc", "--id", "bob",
                 "--out", "part.hsc"],
                ["clc-finalize", "--params", "p.hsc", "--key", "part.hsc",
                 "--out", "b.hsc"],
                ["export-pub", "--params", "p.hsc", "--key", "a.hsc", "--out", "a.pub"],
                ["export-pub", "--params", "p.hsc", "--key", "b.hsc", "--out", "b.pub"],
                ["signcrypt", "--mode", "pchs", "--params", "p.hsc", "--key", "a.hsc",
                 "--peer", "b.pub", "--in", "msg.txt", "--out", "ct"],
                ["unsigncrypt", "--mode", "pchs", "--params", "p.hsc", "--key", "b.hsc",
                 "--peer", "a.pub", "--in", "ct", "--out", "pt"],
                # through the temporary file of --force
                ["pki-keygen", "--params", "p.hsc", "--out", "a.hsc", "--force"],
                ["export-pub", "--params", "p.hsc", "--key", "a.hsc", "--out", "a.pub",
                 "--force"]):
            assert self.hsc(*args) == 0, args
        public = 0o666 & ~mask
        assert {name: self.mode(name) for name in sorted(os.listdir())} == {
            "a.hsc": 0o600, "a.pub": public, "b.hsc": 0o600, "b.pub": public,
            "ct": public, "m.hsc": 0o600, "msg.txt": 0o666 & ~mask, "p.hsc": public,
            "part.hsc": 0o600, "pt": 0o600}

    @pytest.mark.parametrize("command", [
        ["pki-keygen", "--params", "p.hsc"],
        ["setup", "--group", "toy-101", "--params", "p2.hsc"],
    ], ids=["pki-keygen", "setup"])
    def test_a_dangling_symlink_is_refused(self, keydir, capsys, command):
        os.symlink("victim.bin", "link.hsc")
        before = sorted(os.listdir())
        assert self.hsc(*command, "--out", "link.hsc") == 4
        assert capsys.readouterr().err == \
            "ERROR io: link.hsc exists; pass --force to overwrite\n"
        assert sorted(os.listdir()) == before
        assert os.readlink("link.hsc") == "victim.bin"

    def test_a_file_made_after_the_check_is_not_overwritten(self, keydir, monkeypatch,
                                                            capsys):
        from hsc import cli
        # the refusal check passes, as when the file appears just after it
        monkeypatch.setattr(cli, "_refuse_existing", lambda force, *paths: None)
        (keydir / "late.hsc").write_bytes(b"keep")
        assert self.hsc("pki-keygen", "--params", "p.hsc", "--out", "late.hsc") == 4
        assert capsys.readouterr().err.startswith("ERROR io: [Errno 17] File exists")
        assert (keydir / "late.hsc").read_bytes() == b"keep"

    def test_force_replaces_a_symlink_and_leaves_its_target(self, keydir):
        (keydir / "victim.bin").write_bytes(b"keep")
        os.symlink("victim.bin", "link.hsc")
        assert self.hsc("pki-keygen", "--params", "p.hsc", "--out", "link.hsc",
                        "--force") == 0
        assert (keydir / "victim.bin").read_bytes() == b"keep"
        assert not os.path.islink("link.hsc") and self.mode("link.hsc") == 0o600
        from hsc import codec
        assert codec.file_kind((keydir / "link.hsc").read_bytes()) == codec.FileKind.PKI_KEY
        assert sorted(os.listdir()) == ["a.hsc", "link.hsc", "m.hsc", "p.hsc", "victim.bin"]

    def test_setup_removes_its_params_when_the_master_key_fails(self, tmp_path,
                                                               monkeypatch, capsys):
        # --force lets the refusal check pass; replacing a directory fails
        monkeypatch.chdir(tmp_path)
        os.mkdir("m.hsc")
        assert self.hsc("setup", "--group", "toy-101", "--params", "p.hsc",
                        "--out", "m.hsc", "--force") == 4
        assert capsys.readouterr().err.startswith("ERROR io: ")
        assert os.listdir() == ["m.hsc"] and os.listdir("m.hsc") == []


class TestBrokenInstall:
    """A missing or corrupt generator table is a broken install: a
    command that reads it prints one `ERROR io:` line, exits 4 and writes
    nothing.  The commands run in this process, with the table's path
    patched, its cache cleared before and after, and the process past its
    first uses of G, so that their first k*P reads the table."""

    @pytest.fixture(params=["corrupt", "missing"])
    def table_error(self, request, monkeypatch, tmp_path, g_uses):
        """Point the loader at a copy of the table with one byte flipped,
        or at an absent file, and return the error it must report."""
        from hsc import group
        g_uses(group._G_FIRST_USES)
        path = tmp_path / "secp256k1_g_w10.bin"
        if request.param == "corrupt":
            with open(group._G_TABLE_PATH, "rb") as f:
                data = bytearray(f.read())
            data[1000] ^= 1
            path.write_bytes(bytes(data))
            error = f"{path} does not match its SHA-256 digest"
        else:
            error = ("cannot read the secp256k1 generator table: "
                     f"[Errno 2] No such file or directory: '{path}'")
        monkeypatch.setattr(group, "_G_TABLE_PATH", str(path))
        group._load_g_table.cache_clear()
        yield error
        group._load_g_table.cache_clear()

    @staticmethod
    def commands(ws, out):
        """Two commands whose first k*P loads the table: setup, with its
        two outputs, and a PCHS signcrypt."""
        return {
            "setup": ["setup", "--params", f"{out}/params.hsc", "--out", f"{out}/master.hsc"],
            "signcrypt": ["signcrypt", "--mode", "pchs", "--params", f"{ws}/params.hsc",
                          "--key", f"{ws}/alice.hsc", "--peer", f"{ws}/bob.pub.hsc",
                          "--in", f"{ws}/msg.txt", "--out", f"{out}/sigma.hsc"],
        }

    @pytest.mark.parametrize("command", ["setup", "signcrypt"])
    def test_exits_4_and_writes_nothing(self, workspace, table_error, tmp_path, capsys,
                                        command):
        from hsc import cli
        out = tmp_path / "out"
        out.mkdir()
        assert cli.main(self.commands(workspace, out)[command]) == 4
        assert capsys.readouterr() == ("", f"ERROR io: {table_error}\n")
        assert list(out.iterdir()) == []

    def test_other_runtime_errors_still_raise(self, workspace, tmp_path, monkeypatch):
        # only the table's failure is an I/O error; any other RuntimeError
        # is a bug and keeps its traceback
        from hsc import cli

        def fail(args):
            raise RuntimeError("not the table")

        monkeypatch.setattr(cli, "_cmd_signcrypt", fail)
        with pytest.raises(RuntimeError, match="not the table"):
            cli.main(self.commands(workspace, tmp_path)["signcrypt"])


class TestOneShotReadsNoTable:
    """A one-shot command makes at most two k*P, and those take G's
    first-use path, so its process never reads, checks or parses the
    generator table: `_load_g_table` is never called, and with a corrupt
    table the command still succeeds and writes the bytes a healthy
    install writes under the same HSC_SEED.  Each command runs in a
    fresh interpreter."""

    # argv[1] is the table's path ("" for the shipped one), the rest the
    # command; prints the exit code and the calls of the table's loader
    CHILD = textwrap.dedent("""
        import sys
        from hsc import cli, group
        if sys.argv[1]:
            group._G_TABLE_PATH = sys.argv[1]
        code = cli.main(sys.argv[2:])
        info = group._load_g_table.cache_info()
        print(code, info.hits + info.misses)
    """)

    @staticmethod
    def commands(ws, out):
        """setup, then signcrypt and unsigncrypt in both modes, each
        unsigncrypt opening the ciphertext written just before."""
        argv = {"setup": ["setup", "--params", f"{out}/params.hsc",
                          "--out", f"{out}/master.hsc"]}
        for mode, sender, receiver, sender_pub, receiver_pub in (
                ("pchs", "alice.hsc", "bob.hsc", "alice.pub.hsc", "bob.pub.hsc"),
                ("cphs", "bob.hsc", "alice.hsc", "bob.pub.hsc", "alice.pub.hsc")):
            common = ["--mode", mode, "--params", f"{ws}/params.hsc"]
            argv[f"signcrypt-{mode}"] = [
                "signcrypt", *common, "--key", f"{ws}/{sender}",
                "--peer", f"{ws}/{receiver_pub}", "--in", f"{ws}/msg.txt",
                "--out", f"{out}/{mode}.hsc"]
            argv[f"unsigncrypt-{mode}"] = [
                "unsigncrypt", *common, "--key", f"{ws}/{receiver}",
                "--peer", f"{ws}/{sender_pub}", "--in", f"{out}/{mode}.hsc",
                "--out", f"{out}/{mode}.txt"]
        return argv

    def test_commands_never_load_it_and_ignore_a_corrupt_copy(self, workspace, tmp_path):
        from hsc import group
        with open(group._G_TABLE_PATH, "rb") as f:
            data = bytearray(f.read())
        data[1000] ^= 1
        corrupt = tmp_path / "secp256k1_g_w10.bin"
        corrupt.write_bytes(bytes(data))
        env = child_env(dict(os.environ, HSC_SEED="26"))
        written = {}
        for table in ("", str(corrupt)):
            out = tmp_path / ("corrupt" if table else "healthy")
            out.mkdir()
            for name, argv in self.commands(workspace, out).items():
                result = subprocess.run([sys.executable, "-c", self.CHILD, table, *argv],
                                        capture_output=True, text=True, env=env,
                                        timeout=120)
                assert result.returncode == 0, result.stderr
                assert result.stdout.splitlines()[-1] == "0 0", name
            written[table] = {path.name: path.read_bytes() for path in out.iterdir()}
        healthy, broken = written[""], written[str(corrupt)]
        assert sorted(healthy) == ["cphs.hsc", "cphs.txt", "master.hsc", "params.hsc",
                                   "pchs.hsc", "pchs.txt"]
        assert broken == healthy
        for mode in ("pchs", "cphs"):
            assert healthy[f"{mode}.txt"] == (workspace / "msg.txt").read_bytes()


class TestSeededDeterminism:
    def test_hsc_seed_reproduces_files(self, tmp_path):
        env = dict(os.environ, HSC_SEED="42")
        for sub in ("a", "b"):
            d = tmp_path / sub
            d.mkdir()
            run(["setup", "--group", "toy-101", "--params", "p.hsc",
                 "--out", "m.hsc"], d, env=env)
            run(["pki-keygen", "--params", "p.hsc", "--out", "k.hsc"], d, env=env)
        assert (tmp_path / "a/p.hsc").read_bytes() == (tmp_path / "b/p.hsc").read_bytes()
        assert (tmp_path / "a/m.hsc").read_bytes() == (tmp_path / "b/m.hsc").read_bytes()
        assert (tmp_path / "a/k.hsc").read_bytes() == (tmp_path / "b/k.hsc").read_bytes()


class TestToyGroupLifecycle:
    def test_end_to_end_on_toy_group(self, tmp_path):
        ws = tmp_path
        (ws / "m.txt").write_bytes(b"tiny")
        run(["setup", "--group", "toy-101", "--msg-bits", "64",
             "--params", "p.hsc", "--out", "master.hsc"], ws)
        run(["pki-keygen", "--params", "p.hsc", "--out", "a.hsc"], ws)
        run(["clc-extract", "--params", "p.hsc", "--key", "master.hsc",
             "--id", "srv", "--out", "part.hsc"], ws)
        run(["clc-finalize", "--params", "p.hsc", "--key", "part.hsc",
             "--out", "b.hsc"], ws)
        run(["export-pub", "--params", "p.hsc", "--key", "a.hsc",
             "--out", "a.pub.hsc"], ws)
        run(["export-pub", "--params", "p.hsc", "--key", "b.hsc",
             "--out", "b.pub.hsc"], ws)
        run(["signcrypt", "--mode", "cphs", "--params", "p.hsc", "--key", "b.hsc",
             "--peer", "a.pub.hsc", "--in", "m.txt", "--out", "s.hsc"], ws)
        run(["unsigncrypt", "--mode", "cphs", "--params", "p.hsc", "--key", "a.hsc",
             "--peer", "b.pub.hsc", "--in", "s.hsc", "--out", "o.txt"], ws)
        assert (ws / "o.txt").read_bytes() == b"tiny"

    def test_setup_on_an_order_below_13_exits_2(self, tmp_path):
        result = run(["setup", "--group", "toy-3", "--params", "p.hsc",
                      "--out", "m.hsc"], tmp_path, expect=2)
        assert result.stderr.startswith("ERROR usage: ")
        assert len(result.stderr.splitlines()) == 1
        assert list(tmp_path.iterdir()) == []


class TestDegenerateClcKeyFile:
    """A toy-101 CLC key file ends in x_c, d, T and PK_c1, one byte each.
    Key generation never makes x_c zero or x_c + d == 0, so the commands
    refuse such a file as a decode failure before any arithmetic."""

    @pytest.fixture(scope="class")
    def toy_ws(self, tmp_path_factory):
        ws = tmp_path_factory.mktemp("degenerate")
        env = dict(os.environ, HSC_SEED="3")
        (ws / "m.txt").write_bytes(b"tiny")
        for args in (
                ["setup", "--group", "toy-101", "--params", "p.hsc", "--out", "master.hsc"],
                ["pki-keygen", "--params", "p.hsc", "--out", "a.hsc"],
                ["clc-extract", "--params", "p.hsc", "--key", "master.hsc",
                 "--id", "bob", "--out", "part.hsc"],
                ["clc-finalize", "--params", "p.hsc", "--key", "part.hsc", "--out", "b.hsc"],
                ["export-pub", "--params", "p.hsc", "--key", "a.hsc", "--out", "a.pub"],
                ["export-pub", "--params", "p.hsc", "--key", "b.hsc", "--out", "b.pub"],
                ["signcrypt", "--mode", "pchs", "--params", "p.hsc", "--key", "a.hsc",
                 "--peer", "b.pub", "--in", "m.txt", "--out", "pchs.ct"]):
            run(args, ws, env=env)
        key = bytearray((ws / "b.hsc").read_bytes())
        key[-4] = 0
        (ws / "zero_xc.hsc").write_bytes(bytes(key))
        key[-4] = 101 - key[-3]
        (ws / "minus_d.hsc").write_bytes(bytes(key))
        return ws

    @pytest.mark.parametrize("key,args,out", [
        ("minus_d.hsc", ["signcrypt", "--mode", "cphs", "--peer", "a.pub",
                         "--in", "m.txt"], "cphs.ct"),
        ("zero_xc.hsc", ["unsigncrypt", "--mode", "pchs", "--peer", "a.pub",
                         "--in", "pchs.ct"], "pchs.out"),
        ("zero_xc.hsc", ["export-pub"], "zero.pub"),
    ])
    def test_exits_4_with_one_decode_line(self, toy_ws, key, args, out):
        result = run([*args, "--params", "p.hsc", "--key", key, "--out", out],
                     toy_ws, expect=4)
        assert result.stderr.startswith("ERROR decode: ")
        assert len(result.stderr.splitlines()) == 1
        assert not (toy_ws / out).exists()


class TestBenchCommand:
    def test_bench_emits_table_and_json(self, tmp_path):
        run(["setup", "--group", "toy-101", "--params", "p.hsc",
             "--out", "m.hsc"], tmp_path)
        result = run(["bench", "--params", "p.hsc", "--iters", "50",
                      "--json", "report.json"], tmp_path)
        assert "scalar_mult" in result.stdout
        rows = json.loads((tmp_path / "report.json").read_text())["rows"]
        assert list(rows[0])[:4] == ["record", "group", "name", "iterations"]
        assert "opcount" in {row["record"] for row in rows}

    def test_bench_has_no_csv_output(self, tmp_path):
        result = run(["bench", "--iters", "20", "--out", "x"], tmp_path, expect=2)
        assert result.stderr == "ERROR usage: hsc: unrecognized arguments: --out x\n"
        assert list(tmp_path.iterdir()) == []


class TestServeClientCommands:
    def test_demo_over_subprocesses(self, workspace):
        import socket
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = str(probe.getsockname()[1])
        server = subprocess.Popen(
            CLI + ["serve", "--params", "params.hsc", "--key", "bob.hsc",
                   "--port", port],
            cwd=workspace, env=child_env(), stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True)
        try:
            import time
            deadline = time.monotonic() + 10
            client = None
            while time.monotonic() < deadline:
                client = subprocess.run(
                    CLI + ["client", "--params", "params.hsc", "--key", "alice.hsc",
                           "--in", "msg.txt", "--port", port],
                    cwd=workspace, env=child_env(), capture_output=True, text=True,
                    timeout=30)
                if "Connection refused" not in client.stderr:
                    break
                if server.poll() is not None:
                    _, err = server.communicate()
                    pytest.fail(f"hsc serve exited {server.returncode} before "
                                f"accepting a connection\n{err}")
                time.sleep(0.2)
            out, err = server.communicate(timeout=30)
        finally:
            if server.poll() is None:
                server.kill()
        assert client is not None and client.returncode == 0, client.stderr
        assert "outcome: success" in client.stdout
        assert server.returncode == 0, err
        assert "received message: b'the quick brown fox'" in out


# the output of scripts/cli_transcript.py, recorded under 3.11 and the
# same under 3.10 and 3.12; 3.13 words two help texts differently
TRANSCRIPT = Path(__file__).with_name("cli_transcript.txt")
TRANSCRIPT_SHA256 = "63db787cdd5fbbe34d8b28631fb105834a3af5fa8a9ecf4efe0598a9de4592a7"
TRANSCRIPT_VERSIONS = ((3, 10), (3, 11), (3, 12))


def _transcript_script():
    path = SRC.parent / "scripts" / "cli_transcript.py"
    spec = importlib.util.spec_from_file_location("cli_transcript", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


class TestTranscriptScript:
    def test_digests_every_subcommand_of_the_parser(self):
        # scripts/cli_transcript.py digests the help text of each name in
        # its SUBCOMMANDS; a subcommand missing there would drop out of
        # the digests unseen
        from hsc import cli
        script = _transcript_script()
        subparsers, = [action for action in cli.build_parser()._actions
                       if isinstance(action, argparse._SubParsersAction)]
        assert sorted(script.SUBCOMMANDS) == sorted(subparsers.choices)

    @pytest.mark.skipif(sys.version_info[:2] not in TRANSCRIPT_VERSIONS,
                        reason="no transcript recorded for this Python minor version")
    def test_in_process_replay_gives_the_recorded_transcript(self, tmp_path, monkeypatch,
                                                             capsys):
        # the script's commands through cli.main in this process, each
        # digested as the script digests its child process
        from hsc import cli
        script = _transcript_script()
        recorded = TRANSCRIPT.read_text().splitlines()
        assert recorded[-1].endswith(f" commands, sha256 {TRANSCRIPT_SHA256}")
        monkeypatch.setenv("COLUMNS", "80")  # argparse's help width, as in a pipe
        total = hashlib.sha256()
        lines = []
        for index, (argv, seed, cwd) in enumerate(script.commands(tmp_path)):
            monkeypatch.chdir(cwd)
            monkeypatch.setenv("HSC_SEED", seed)
            before = script.files(cwd)
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            out, err = capsys.readouterr()
            digest = script.digest(argv, code, out.encode(), err.encode(),
                                   before, script.files(cwd))
            total.update(bytes.fromhex(digest))
            lines.append(script.line(index, argv, code, digest))
        lines.append(f"{len(lines)} commands, sha256 {total.hexdigest()}")
        differing = [(got, want) for got, want in itertools.zip_longest(lines, recorded)
                     if got != want]
        assert not differing, \
            f"first differing command: {differing[0][0]!r}, recorded as {differing[0][1]!r}"
