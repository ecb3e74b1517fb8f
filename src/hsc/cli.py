"""Command line for the signcryption toolkit.

    hsc setup         create system params and the KGC master key
    hsc pki-keygen    generate a PKI key pair
    hsc clc-extract   KGC role: issue a partial private key for an identity
    hsc clc-finalize  user role: finish a certificateless key pair
    hsc export-pub    write the public part of a key pair
    hsc signcrypt     signcrypt a file (--mode pchs|cphs)
    hsc unsigncrypt   unsigncrypt a file; exits 3 and prints REJECT on ⊥
    hsc serve         run one demo server session
    hsc client        run one demo client session
    hsc bench         timing and operation-count report

Exit codes: 0 success, 2 usage, 3 cryptographic rejection, 4 I/O or
decode failure, a broken install's missing or corrupt generator table
included.  Only `bench` reads that table: every other command makes at
most two k*P, which a process takes without it, so a broken table does
not stop them and their output is unchanged.  Failures print one
machine-readable line to stderr.

Commands refuse to overwrite existing output files unless --force is
given.  If the environment variable HSC_SEED is set (test builds only),
all randomness derives from that seed and every run is reproducible --
never set it in real use.
"""

from __future__ import annotations

import argparse
import errno
import os
import random
import sys
from pathlib import Path

from . import codec, keys
from .group import DecodeError, GeneratorTableError
from .keys import ClcKeyPair, DegenerateKeyError, PartialKeyError, PkiKeyPair
from .signcryption import DIRECTIONS, RejectedCiphertext

# netdemo and bench are imported inside the commands that use them: each
# command is a process of its own, and signcrypt, unsigncrypt and the key
# commands need neither them nor socket and logging

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CRYPTO = 3
EXIT_IO = 4


def _rng():
    """The HSC_SEED generator, or None for Group.random_scalar's CSPRNG."""
    seed = os.environ.get("HSC_SEED")
    return None if seed is None else random.Random(int(seed))


def _read(path: str) -> bytes:
    return Path(path).read_bytes()


def _refuse_existing(force: bool, *paths) -> None:
    """Raise for output paths (None for an unused one) that name one file
    or lie in a directory that does not exist, force or not, and for the
    first that exists, unless force is set; a command with several
    outputs checks them all before it writes any."""
    given = [path for path in paths if path is not None]
    if len({Path(path).resolve() for path in given}) < len(given):
        raise ValueError(f"outputs {' and '.join(given)} name the same file")
    for path in given:
        if not Path(path).parent.is_dir():
            # the error writing the file would raise
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
        if not force and Path(path).exists():
            raise FileExistsError(f"{path} exists; pass --force to overwrite")


def _write(path: str, data: bytes, force: bool) -> None:
    _refuse_existing(force, path)
    Path(path).write_bytes(data)


def _load_params(path: str) -> keys.SystemParams:
    return codec.decode_params(_read(path))


def _identity(value: str) -> bytes:
    return value.encode("utf-8")


def _load_peer(args, params: keys.SystemParams, key_class: type):
    """The peer's public export; --id replaces a certificateless peer's
    identity and is ignored for a PKI peer."""
    peer = codec.decode_public(_read(args.peer), params, key_class)
    if args.id is not None and key_class is ClcKeyPair:
        peer = (_identity(args.id), peer[1])
    return peer


# -- subcommands ---------------------------------------------------------------


def _cmd_setup(args) -> int:
    params, master = keys.setup(args.group, n=args.msg_bits, rng=_rng())
    _refuse_existing(args.force, args.params, args.out)
    _write(args.params, codec.encode_params(params), args.force)
    _write(args.out, codec.encode_master(params, master), args.force)
    print(f"params -> {args.params}")
    print(f"master key -> {args.out}")
    return EXIT_OK


def _cmd_pki_keygen(args) -> int:
    params = _load_params(args.params)
    key = keys.pki_keygen(params, _rng())
    _write(args.out, codec.encode_pki_keypair(params, key), args.force)
    print(f"pki key pair -> {args.out}")
    return EXIT_OK


def _cmd_clc_extract(args) -> int:
    params = _load_params(args.params)
    master = codec.decode_master(_read(args.key), params)
    identity = _identity(args.id)
    partial = keys.clc_extract_partial(params, master, identity, _rng())
    _write(args.out, codec.encode_partial_key(params, identity, partial), args.force)
    print(f"partial key for {args.id!r} -> {args.out}")
    return EXIT_OK


def _cmd_clc_finalize(args) -> int:
    params = _load_params(args.params)
    identity, partial = codec.decode_partial_key(_read(args.key), params)
    if args.id is not None and _identity(args.id) != identity:
        raise PartialKeyError(
            f"partial key was issued for {identity!r}, not {args.id!r}"
        )
    key = keys.clc_finalize_random(params, identity, partial, _rng())
    _write(args.out, codec.encode_clc_keypair(params, key), args.force)
    print(f"clc key pair for {identity!r} -> {args.out}")
    return EXIT_OK


def _cmd_export_pub(args) -> int:
    params = _load_params(args.params)
    data = _read(args.key)
    kind = codec.file_kind(data)
    key_class = {codec.FileKind.PKI_KEY: PkiKeyPair,
                 codec.FileKind.CLC_KEY: ClcKeyPair}.get(kind)
    if key_class is None:
        raise codec.HeaderError(f"cannot export a public key from a {kind.name} file")
    key = codec.decode_keypair(data, params, key_class)
    _write(args.out, codec.encode_public(params, key), args.force)
    print(f"public export -> {args.out}")
    return EXIT_OK


def _cmd_signcrypt(args) -> int:
    params = _load_params(args.params)
    message = _read(args.infile)
    spec = DIRECTIONS[args.mode]
    sender = codec.decode_keypair(_read(args.key), params, spec.sender)
    peer = _load_peer(args, params, spec.receiver)
    sigma = spec.signcrypt(params, sender, peer, message, _rng())
    _write(args.out, codec.encode_ciphertext(sigma), args.force)
    print(f"{args.mode} ciphertext ({len(message)} byte message) -> {args.out}")
    return EXIT_OK


def _cmd_unsigncrypt(args) -> int:
    params = _load_params(args.params)
    sigma = codec.decode_ciphertext(_read(args.infile), params)
    spec = DIRECTIONS[args.mode]
    receiver = codec.decode_keypair(_read(args.key), params, spec.receiver)
    peer = _load_peer(args, params, spec.sender)
    message = spec.unsigncrypt(params, receiver, peer, sigma)
    _write(args.out, message, args.force)
    print(f"ACCEPT {len(message)} bytes -> {args.out}")
    return EXIT_OK


def _session_exit(session) -> int:
    from . import netdemo

    print(session.format_transcript())
    print(f"outcome: {session.outcome}")
    if session.outcome == netdemo.OK:
        return EXIT_OK
    if session.outcome in (netdemo.VERIFY_FAILED, netdemo.NEGATIVE_STATUS):
        return EXIT_CRYPTO
    return EXIT_IO


def _cmd_serve(args) -> int:
    from . import netdemo

    params = _load_params(args.params)
    key = codec.decode_keypair(_read(args.key), params, DIRECTIONS[args.mode].receiver)
    port = netdemo.DEFAULT_PORT if args.port is None else args.port
    with netdemo.DemoServer(params, key, mode=args.mode,
                            host=args.host, port=port) as server:
        session = server.serve_one()
    if session.plaintext is not None:
        print(f"received message: {session.plaintext!r}")
    return _session_exit(session)


def _cmd_client(args) -> int:
    from . import netdemo

    params = _load_params(args.params)
    key = codec.decode_keypair(_read(args.key), params, DIRECTIONS[args.mode].sender)
    message = _read(args.infile)
    port = netdemo.DEFAULT_PORT if args.port is None else args.port
    session = netdemo.run_client(params, key, message, mode=args.mode,
                                 host=args.host, port=port, rng=_rng())
    return _session_exit(session)


def _cmd_bench(args) -> int:
    from . import bench

    # one generator for the setup and the run: under HSC_SEED a second
    # _rng() would replay the setup's stream, and the bench's first pool
    # point would be s*P, which is Ppub
    rng = _rng()
    if args.params is not None:
        params = _load_params(args.params)
    else:
        params, _ = keys.setup("secp256k1", rng=rng)
    # refuse an existing report before the run, not after it
    _refuse_existing(args.force, args.json)
    report = bench.bench_run(params, iterations=args.iters, rng=rng, repeat=args.repeat)
    print(report.table())
    if args.json is not None:
        _write(args.json, report.to_json().encode(), args.force)
        print(f"json report -> {args.json}")
    return EXIT_OK


# -- parser ---------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse whose usage errors are one `ERROR usage:` line, like the
    commands' own errors, with the same exit code 2."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"ERROR usage: {self.prog}: {message}\n")


def _port(value: str) -> int:
    """A TCP port, 0 (any free port) to 65535."""
    if not (value.isdecimal() and int(value) <= 65535):
        raise argparse.ArgumentTypeError(f"port must be 0-65535, got {value!r}")
    return int(value)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hsc",
        description="heterogeneous PKI<->certificateless signcryption toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        return p

    p = add("setup", _cmd_setup, "create system params and master key")
    p.add_argument("--group", default="secp256k1",
                   help="group name: secp256k1 or toy-<prime> (default secp256k1)")
    p.add_argument("--msg-bits", type=int, default=keys.DEFAULT_MESSAGE_BITS,
                   help="maximum message length in bits")
    p.add_argument("--params", required=True, help="output path for the params file")
    p.add_argument("--out", required=True, help="output path for the master key")
    p.add_argument("--force", action="store_true", help="overwrite existing files")

    p = add("pki-keygen", _cmd_pki_keygen, "generate a PKI key pair")
    p.add_argument("--params", required=True)
    p.add_argument("--out", required=True, help="output path for the key pair")
    p.add_argument("--force", action="store_true")

    p = add("clc-extract", _cmd_clc_extract, "KGC: issue a partial private key")
    p.add_argument("--params", required=True)
    p.add_argument("--key", required=True, help="master key file")
    p.add_argument("--id", required=True, help="user identity string")
    p.add_argument("--out", required=True, help="output path for the partial key")
    p.add_argument("--force", action="store_true")

    p = add("clc-finalize", _cmd_clc_finalize, "user: finish a CLC key pair")
    p.add_argument("--params", required=True)
    p.add_argument("--key", required=True, help="partial key file")
    p.add_argument("--id", help="expected identity (checked against the file)")
    p.add_argument("--out", required=True, help="output path for the key pair")
    p.add_argument("--force", action="store_true")

    p = add("export-pub", _cmd_export_pub, "export the public half of a key pair")
    p.add_argument("--params", required=True)
    p.add_argument("--key", required=True, help="pki or clc key pair file")
    p.add_argument("--out", required=True)
    p.add_argument("--force", action="store_true")

    for name, func, help_text in (
        ("signcrypt", _cmd_signcrypt, "signcrypt a message file"),
        ("unsigncrypt", _cmd_unsigncrypt, "unsigncrypt a ciphertext file"),
    ):
        p = add(name, func, help_text)
        p.add_argument("--mode", choices=tuple(DIRECTIONS), required=True)
        p.add_argument("--params", required=True)
        p.add_argument("--key", required=True, help="own key pair file")
        p.add_argument("--peer", required=True, help="peer public export file")
        p.add_argument("--id", help="override the peer identity from the export")
        p.add_argument("--in", dest="infile", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--force", action="store_true")

    for name, func, help_text in (
        ("serve", _cmd_serve, "serve one demo session"),
        ("client", _cmd_client, "run the demo client"),
    ):
        p = add(name, func, help_text)
        p.add_argument("--mode", choices=tuple(DIRECTIONS), default="pchs")
        p.add_argument("--params", required=True)
        p.add_argument("--key", required=True, help="own key pair file")
        p.add_argument("--host", default="127.0.0.1")
        # None stands for netdemo.DEFAULT_PORT, read only when the demo runs
        p.add_argument("--port", type=_port)
        if name == "client":
            p.add_argument("--in", dest="infile", required=True,
                           help="message file to send")

    p = add("bench", _cmd_bench, "run the benchmark harness")
    p.add_argument("--params", help="params file (default: fresh secp256k1)")
    p.add_argument("--iters", type=int, default=10000,
                   help="iterations for primitive ops (default 10000)")
    p.add_argument("--repeat", type=int, default=1,
                   help="interleaved passes over the rows; each row reports the median "
                        "and interquartile range of its pass means (default 1)")
    p.add_argument("--json", help="write the rows and run metadata as JSON here")
    p.add_argument("--force", action="store_true")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except RejectedCiphertext:
        print("REJECT", file=sys.stderr)
        return EXIT_CRYPTO
    except (PartialKeyError, DegenerateKeyError) as exc:
        print(f"ERROR crypto: {exc}", file=sys.stderr)
        return EXIT_CRYPTO
    except (codec.CodecError, DecodeError) as exc:
        print(f"ERROR decode: {exc}", file=sys.stderr)
        return EXIT_IO
    # a broken install: the shipped generator table is missing or corrupt
    except (OSError, GeneratorTableError) as exc:
        print(f"ERROR io: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"ERROR usage: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
