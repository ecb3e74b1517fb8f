"""Run a fixed, seeded set of `hsc` CLI commands and digest what they did.

    python3 scripts/cli_transcript.py [--src SRC] [--workdir DIR]

Each command runs as `python -m hsc ...` with SRC (default: this
checkout's `src/`) first on PYTHONPATH and HSC_SEED=7, so its keys,
nonces and outputs are fixed.  The set covers every one-shot subcommand
(setup, pki-keygen, clc-extract, clc-finalize, export-pub, signcrypt,
unsigncrypt), both modes, `--id`, `--force`, and inputs of the wrong
kind, tampered, truncated, empty, oversized and for the wrong direction,
on secp256k1 and on toy-101, plus the help texts of every subcommand.
On the toy group it also runs CLC key files with a degenerate secret
(x_c = 0, and x_c + d = 0).
The second PKI key pair, which must differ from the first, is made under
HSC_SEED=8.

All commands of one group run in one directory (DIR/<group>, DIR a fresh
temporary directory unless given) and name their files by relative
paths, so the digests do not depend on where DIR is.  After each command
the script hashes its argv, exit code, stdout, stderr and each file it
created or changed, and prints one line per command:

    <index> <sha256[:16]> exit=<code> <argv>

The last line is one SHA-256 over all of them.  Run it against two
checkouts and diff the outputs to find the commands whose behaviour
changed.  A traceback on stderr names SRC, so a command that crashes
digests differently under another SRC.

`tests/cli_transcript.txt` holds this output for the checkout;
`tests/test_cli.py` replays the same commands through `hsc.cli.main` in
one process, digests them with `digest`, and compares the lines.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = "7"
GROUPS = ("secp256k1", "toy-101")
SUBCOMMANDS = ("setup", "pki-keygen", "clc-extract", "clc-finalize", "export-pub",
               "signcrypt", "unsigncrypt", "serve", "client", "bench")
MESSAGE = b"the quick brown fox jumps over the lazy dog"


def _flip(data: bytes, index: int) -> bytes:
    out = bytearray(data)
    out[index] ^= 0x01
    return bytes(out)


def _commands(group: str, d: Path):
    """Yield (argv, seed) for each command in order.  The generator runs
    lazily, so the files it writes between yields can derive from the
    outputs of the commands before them."""
    P = ("--params", "params.hsc")
    yield ["setup", "--group", group, *P, "--out", "master.hsc"], SEED
    yield ["setup", "--group", group, *P, "--out", "master.hsc"], SEED  # exists
    yield ["pki-keygen", *P, "--out", "alice.hsc"], SEED
    yield ["pki-keygen", *P, "--out", "carol.hsc"], "8"
    yield ["pki-keygen", *P, "--out", "alice.hsc"], SEED  # exists
    yield ["pki-keygen", *P, "--out", "alice.hsc", "--force"], SEED
    yield ["clc-extract", *P, "--key", "master.hsc", "--id", "bob",
           "--out", "bob_partial.hsc"], SEED
    yield ["clc-extract", *P, "--key", "alice.hsc", "--id", "bob",
           "--out", "bad_partial.hsc"], SEED  # not a master key
    yield ["clc-finalize", *P, "--key", "bob_partial.hsc", "--out", "bob.hsc"], SEED
    yield ["clc-finalize", *P, "--key", "bob_partial.hsc", "--id", "bob",
           "--out", "bob_checked.hsc"], SEED
    yield ["clc-finalize", *P, "--key", "bob_partial.hsc", "--id", "mallory",
           "--out", "mallory.hsc"], SEED
    yield ["clc-extract", *P, "--key", "master.hsc", "--id", "dave",
           "--out", "dave_partial.hsc"], SEED
    yield ["clc-finalize", *P, "--key", "dave_partial.hsc", "--out", "dave.hsc"], SEED
    for name in ("alice", "carol", "bob", "dave"):
        yield ["export-pub", *P, "--key", f"{name}.hsc", "--out", f"{name}.pub"], SEED
    yield ["export-pub", *P, "--key", "bob_partial.hsc", "--out", "partial.pub"], SEED
    yield ["export-pub", *P, "--key", "params.hsc", "--out", "params.pub"], SEED
    yield ["export-pub", *P, "--key", "absent.hsc", "--out", "absent.pub"], SEED

    (d / "msg.txt").write_bytes(MESSAGE)
    (d / "kib.txt").write_bytes(bytes(range(256)) * 4)
    (d / "empty.txt").write_bytes(b"")
    (d / "over.txt").write_bytes(b"x" * 1025)  # one byte over the default cap
    sides = {"pchs": ("alice", "bob", "carol", "dave"),
             "cphs": ("bob", "alice", "dave", "carol")}
    for mode, (sender, receiver, other_sender, other_receiver) in sides.items():
        S = ("signcrypt", "--mode", mode, *P)
        U = ("unsigncrypt", "--mode", mode, *P)
        own = ("--key", f"{sender}.hsc", "--peer", f"{receiver}.pub")
        back = ("--key", f"{receiver}.hsc", "--peer", f"{sender}.pub")
        ct = f"{mode}.ct"
        yield [*S, *own, "--in", "msg.txt", "--out", ct], SEED
        yield [*U, *back, "--in", ct, "--out", f"{mode}.out"], SEED
        yield [*S, *own, "--in", "kib.txt", "--out", ct], SEED  # exists
        yield [*S, *own, "--in", "kib.txt", "--out", ct, "--force"], SEED
        yield [*U, *back, "--in", ct, "--out", f"{mode}.out", "--force"], SEED
        yield [*S, *own, "--in", "empty.txt", "--out", f"{mode}_empty.ct"], SEED
        yield [*S, *own, "--in", "over.txt", "--out", f"{mode}_over.ct"], SEED
        yield [*S, *own, "--in", "absent.txt", "--out", f"{mode}_absent.ct"], SEED
        # --id names the certificateless peer: the receiver in pchs, the
        # sender in cphs; it is ignored for a PKI peer
        yield [*S, *own, "--id", "carol", "--in", "msg.txt",
               "--out", f"{mode}_id.ct"], SEED
        yield [*U, *back, "--in", f"{mode}_id.ct", "--out", f"{mode}_id.out"], SEED
        yield [*U, *back, "--id", "carol", "--in", f"{mode}_id.ct",
               "--out", f"{mode}_id_carol.out"], SEED
        yield [*U, *back, "--id", "bob", "--in", ct, "--out", f"{mode}_id_bob.out"], SEED
        # wrong kind: the key pair and the export of the other side
        yield [*S, "--key", f"{receiver}.hsc", "--peer", f"{receiver}.pub",
               "--in", "msg.txt", "--out", f"{mode}_wrongkey.ct"], SEED
        yield [*S, "--key", f"{sender}.hsc", "--peer", f"{sender}.pub",
               "--in", "msg.txt", "--out", f"{mode}_wrongpeer.ct"], SEED
        yield [*U, "--key", f"{sender}.hsc", "--peer", f"{sender}.pub",
               "--in", ct, "--out", f"{mode}_wrongkind.out"], SEED
        yield [*S, "--key", "params.hsc", "--peer", f"{receiver}.pub",
               "--in", "msg.txt", "--out", f"{mode}_params.ct"], SEED
        yield [*U, *back, "--in", f"{receiver}.hsc", "--out", f"{mode}_notct.out"], SEED
        # another receiver, and another sender's export
        yield [*U, "--key", f"{other_receiver}.hsc", "--peer", f"{sender}.pub",
               "--in", ct, "--out", f"{mode}_otherrecv.out"], SEED
        yield [*U, "--key", f"{receiver}.hsc", "--peer", f"{other_sender}.pub",
               "--in", ct, "--out", f"{mode}_othersend.out"], SEED
        # tampered: a bit of c (the last byte), of u (after the tag byte),
        # and the direction tag
        data = (d / ct).read_bytes()
        for name, index in (("c", -1), ("u", 1), ("tag", 0)):
            (d / f"{mode}_tamper_{name}.ct").write_bytes(_flip(data, index))
            yield [*U, *back, "--in", f"{mode}_tamper_{name}.ct",
                   "--out", f"{mode}_tamper_{name}.out"], SEED
        # truncated: inside c, and to the tag and two more bytes
        for name, size in (("c", len(data) - 5), ("head", 3)):
            (d / f"{mode}_trunc_{name}.ct").write_bytes(data[:size])
            yield [*U, *back, "--in", f"{mode}_trunc_{name}.ct",
                   "--out", f"{mode}_trunc_{name}.out"], SEED
    # wrong direction: each mode's ciphertext offered to the other mode,
    # with that mode's correct key kinds
    yield ["unsigncrypt", "--mode", "cphs", *P, "--key", "alice.hsc", "--peer", "bob.pub",
           "--in", "pchs.ct", "--out", "cross_pchs.out"], SEED
    yield ["unsigncrypt", "--mode", "pchs", *P, "--key", "bob.hsc", "--peer", "alice.pub",
           "--in", "cphs.ct", "--out", "cross_cphs.out"], SEED
    yield ["signcrypt", *P, "--key", "alice.hsc"], SEED  # usage: missing options
    yield ["signcrypt", "--mode", "ibc", *P, "--key", "alice.hsc", "--peer", "bob.pub",
           "--in", "msg.txt", "--out", "ibc.ct"], SEED
    # the params file bounds: n is 4 bytes, and a group name must be canonical
    yield ["setup", "--group", group, "--msg-bits", "5000000000",
           "--params", "wide.hsc", "--out", "wide_master.hsc"], SEED
    if group.startswith("toy-"):
        name = group.encode()
        data = (d / "params.hsc").read_bytes()
        renamed = b"toy-0" + name[len(b"toy-"):]
        (d / "renamed.hsc").write_bytes(data.replace(
            bytes([len(name)]) + name, bytes([len(renamed)]) + renamed, 1))
        yield ["pki-keygen", "--params", "renamed.hsc", "--out", "renamed_key.hsc"], SEED
        # degenerate CLC keys: a toy key file ends in x_c, d, T and PK_c1,
        # one byte each; set x_c to 0, then to q - d
        key = bytearray((d / "bob.hsc").read_bytes())
        q = int(group[len("toy-"):])
        for name, x_c in (("zero_xc", 0), ("minus_d", q - key[-3])):
            key[-4] = x_c
            (d / f"{name}.hsc").write_bytes(bytes(key))
            yield ["export-pub", *P, "--key", f"{name}.hsc", "--out", f"{name}.pub"], SEED
            yield ["signcrypt", "--mode", "cphs", *P, "--key", f"{name}.hsc",
                   "--peer", "alice.pub", "--in", "msg.txt", "--out", f"{name}.ct"], SEED
            yield ["unsigncrypt", "--mode", "pchs", *P, "--key", f"{name}.hsc",
                   "--peer", "alice.pub", "--in", "pchs.ct", "--out", f"{name}.out"], SEED
    yield ["setup", "--group", "toy-12", "--params", "t12.hsc", "--out", "t12m.hsc"], SEED


def commands(workdir: Path):
    """Yield (argv, seed, cwd) for every command in order: the help texts
    in workdir/help, then each group's commands in workdir/<group>."""
    help_dir = workdir / "help"
    help_dir.mkdir()
    yield ["--help"], SEED, help_dir
    for sub in SUBCOMMANDS:
        yield [sub, "--help"], SEED, help_dir
    for group in GROUPS:
        d = workdir / group
        d.mkdir()
        for argv, seed in _commands(group, d):
            yield argv, seed, d


def files(d: Path) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in sorted(d.iterdir())}


def digest(argv, returncode: int, stdout: bytes, stderr: bytes,
           before: dict[str, bytes], after: dict[str, bytes]) -> str:
    """The SHA-256 of one command: its argv, exit code, stdout, stderr and
    the files it created or changed (`after` against `before`), so that a
    difference shows at the command that made it and not at every later
    one."""
    written = [part for name, data in after.items()
               if before.get(name) != data for part in (name.encode(), data)]
    h = hashlib.sha256()
    for part in (" ".join(argv).encode(), str(returncode).encode(),
                 stdout, stderr, *written):
        h.update(len(part).to_bytes(8, "big") + part)
    return h.hexdigest()


def line(index: int, argv, returncode: int, command_digest: str) -> str:
    return f"{index:3d} {command_digest[:16]} exit={returncode} {' '.join(argv)}"


def run(src: Path, workdir: Path) -> None:
    env = dict(os.environ, PYTHONPATH=str(src.resolve()))
    total = hashlib.sha256()
    for index, (argv, seed, cwd) in enumerate(commands(workdir)):
        before = files(cwd)
        proc = subprocess.run([sys.executable, "-m", "hsc", *argv], cwd=cwd,
                              env=dict(env, HSC_SEED=seed), capture_output=True,
                              timeout=120)
        command_digest = digest(argv, proc.returncode, proc.stdout, proc.stderr,
                                before, files(cwd))
        total.update(bytes.fromhex(command_digest))
        print(line(index, argv, proc.returncode, command_digest))
    print(f"{index + 1} commands, sha256 {total.hexdigest()}")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="the src/ directory holding the hsc package to run")
    parser.add_argument("--workdir", type=Path,
                        help="an empty or absent directory to keep the files in")
    args = parser.parse_args(argv)
    if args.workdir is None:
        with tempfile.TemporaryDirectory() as tmp:
            run(args.src, Path(tmp))
        return 0
    args.workdir.mkdir(parents=True, exist_ok=True)
    if any(args.workdir.iterdir()):
        parser.error(f"{args.workdir} is not empty")
    run(args.src, args.workdir)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
