"""One benchmark workload, run in a process of its own.

Started by ``run.py`` as

    python3 perfbench/workload.py --workload NAME --seed N --seconds S
        --trace 0|1 --t0 T [--setup-only]

where ``T`` is the parent's ``time.monotonic()`` just before it started
this process, so that ``setup_s`` runs from process start (interpreter,
imports, ``setup()``, key issuance, key files, server bind and warm-up)
to the first timed operation.  The load is a closed loop: one client,
one operation in flight.  The last line of standard output is one JSON
object with the measurements.

Times are reported at reference speed.  On a shared host the speed of this
process drifts by up to half within minutes and changes within a
fraction of a second, and every workload slows alike.  So a
fixed reference task outside hsc is timed between operations (between
windows of a second for the CLI), and each operation's time is
multiplied by the reference's nominal time over its measured time.  A
change to hsc moves the operations and not the reference, so it shows in
full; the wall-clock figures and the host speed are reported beside the
scaled ones.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import queue
import random
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

from hsc import codec, keys, netdemo, signcryption  # noqa: E402
from hsc.group import make_group  # noqa: E402
from hsc.signcryption import RejectedCiphertext  # noqa: E402

import spans  # noqa: E402

WARMUP_OPS = 2
TAMPER_EVERY = 16
MAX_MESSAGE = 1024
DEMO_MESSAGE = 64
CLI_MESSAGE = 1024
CHILD_TIMEOUT_S = 60
REFERENCE_RUNS = 2
FIELD_P = 2**256 - 2**32 - 977


def reference_loop():
    """Fixed Python big-integer work outside hsc: 3000 squarings mod the
    secp256k1 field prime, the kind of work that dominates the library."""
    x = 0x1234567890ABCDEF
    for _ in range(3000):
        x = x * x % FIELD_P


def issue_clc(params, master, identity, rng):
    """KGC issue plus user finalization, resampling x_c on the degenerate
    case as ``keys.clc_keygen`` does."""
    partial = keys.clc_extract_partial(params, master, identity, rng)
    while True:
        try:
            return keys.clc_finalize(params, identity, partial,
                                     params.group.random_scalar(rng))
        except keys.DegenerateKeyError:
            continue


def roundtrip(params, pki, clc, pchs, message, rng, tamper=None):
    """Signcrypt ``message`` in one direction and unsigncrypt it.  True if
    the outcome is the expected one: the message back, or a rejection when
    ``tamper`` altered the ciphertext."""
    if pchs:
        sigma = signcryption.pchs_signcrypt(params, pki, clc.identity, clc.public, message, rng)
    else:
        sigma = signcryption.cphs_signcrypt(params, clc, pki.PK_p, message, rng)
    if tamper is not None:
        tamper(sigma)
    try:
        if pchs:
            out = signcryption.pchs_unsigncrypt(params, clc, pki.PK_p, sigma)
        else:
            out = signcryption.cphs_unsigncrypt(params, pki, clc.identity, clc.public, sigma)
    except RejectedCiphertext:
        return tamper is not None
    return tamper is None and out == message


class Workload:
    """Set-up in ``__init__``; ``op(i)`` runs operation ``i`` and returns
    whether its outcome was the expected one.  Each workload keeps a PKI
    pair ``pki`` and a certificateless pair ``clc`` under ``params`` so the
    harness can check the paper's operation counts in both directions."""

    rec = None  # the Recorder while a traced phase runs
    tampered = 0
    # time of reference() on an unloaded host; the busy time between two
    # reference timings, where 0 times the reference around every
    # operation; and the busy time over which one throughput figure is
    # taken.  See run_phase() and summarize().
    reference_nominal_s = 1.5e-3
    window_s = 0.0
    rate_window_s = 0.25

    def __init__(self, rng, workdir: Path) -> None:
        self.rng = rng
        self.workdir = workdir
        self.params, self.master = keys.setup("secp256k1", rng=rng)
        self.pki = keys.pki_keygen(self.params, rng)
        self.clc = issue_clc(self.params, self.master, b"bob", rng)

    def reference(self) -> None:
        reference_loop()

    def after_traced_op(self, i) -> None:
        """Untimed extra measurements after a traced operation."""

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def close(self) -> None:
        pass


class PairRoundtrip(Workload):
    """One long-lived PKI user and one long-lived CLC user; roundtrips
    alternate PCHS and CPHS, one ciphertext in 16 is tampered."""

    bad = None

    def op(self, i):
        rng = self.rng
        if i >= 0 and i % TAMPER_EVERY == 0:
            self.bad = i + rng.randrange(TAMPER_EVERY)
        message = rng.randbytes(rng.randint(1, MAX_MESSAGE))
        tamper = None
        if i == self.bad:
            self.tampered += 1
            tamper = self._flip_c if rng.random() < 0.5 else self._bump_u
        return roundtrip(self.params, self.pki, self.clc, i % 2 == 0, message, rng, tamper)

    def _flip_c(self, sigma):
        bit = self.rng.randrange(8 * len(sigma.c))
        c = bytearray(sigma.c)
        c[bit // 8] ^= 1 << (bit % 8)
        sigma.c = bytes(c)

    @staticmethod
    def _bump_u(sigma):
        sigma.u = sigma.u + 1


class IssueAndSend(Workload):
    """A fresh CLC identity and a fresh PKI pair per operation, then one
    roundtrip between them in alternating direction."""

    def op(self, i):
        rng = self.rng
        clc = issue_clc(self.params, self.master, b"user-%d" % i, rng)
        pki = keys.pki_keygen(self.params, rng)
        message = rng.randbytes(rng.randint(1, MAX_MESSAGE))
        return roundtrip(self.params, pki, clc, i % 2 == 0, message, rng)


class DemoLoopback(Workload):
    """Five-frame netdemo sessions over 127.0.0.1, alternating modes.  One
    server thread serves both DemoServers; the client runs on the main
    thread.

    Both threads are pinned to one CPU.  A session hands control between
    them about ten times; on two CPUs each handoff may wake an idle
    virtual CPU, and on a loaded host that wake-up stalls for a variable
    few milliseconds, which shows in the tail and not in the work.  The
    GIL runs one thread at a time anyway, so the pin costs no
    parallelism."""

    def __init__(self, rng, workdir):
        # before the server thread starts, so that it inherits the pin
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        super().__init__(rng, workdir)
        params = self.params
        # pchs: PKI client -> CLC server; cphs: CLC client -> PKI server
        self.client_keys = {"pchs": self.pki, "cphs": self.clc}
        self.servers = {
            "pchs": netdemo.DemoServer(params, issue_clc(params, self.master, b"server", rng),
                                       mode="pchs", port=0),
            "cphs": netdemo.DemoServer(params, keys.pki_keygen(params, rng),
                                       mode="cphs", port=0),
        }
        self.requests: queue.Queue = queue.Queue()
        self.results: queue.Queue = queue.Queue()
        self.thread = threading.Thread(target=self._serve, name="demo-server")
        self.thread.start()

    def _serve(self):
        while (item := self.requests.get()) is not None:
            op, mode = item
            if self.rec:
                self.rec.set_op(op)
            try:
                self.results.put(self.servers[mode].serve_one())
            except Exception as exc:  # reported as a failed operation
                self.results.put(exc)

    def op(self, i):
        mode = "pchs" if i % 2 == 0 else "cphs"
        message = self.rng.randbytes(DEMO_MESSAGE)
        self.requests.put((i, mode))
        try:
            client = netdemo.run_client(self.params, self.client_keys[mode], message,
                                        mode=mode, port=self.servers[mode].port, rng=self.rng)
        finally:
            server = self.results.get(timeout=CHILD_TIMEOUT_S)
        if isinstance(server, Exception):
            raise server
        return (client.outcome == netdemo.OK and server.outcome == netdemo.OK
                and client.frames == server.frames and server.plaintext == message)

    def close(self):
        self.requests.put(None)
        self.thread.join(timeout=CHILD_TIMEOUT_S)
        for server in self.servers.values():
            server.close()


class CliOneshot(Workload):
    """Alternating ``hsc signcrypt`` / ``hsc unsigncrypt`` child processes,
    both modes, on key files written during set-up.  Its reference task is
    a child interpreter that runs the reference loop ten times over, so
    that, like a CLI command, it is part process start and part Python."""

    reference_nominal_s = 70e-3
    window_s = 1.0
    rate_window_s = 1.0

    def __init__(self, rng, workdir):
        super().__init__(rng, workdir)
        params, pki, clc = self.params, self.pki, self.clc
        files = {
            "params": codec.encode_params(params),
            "pki.key": codec.encode_pki_keypair(params, pki),
            "pki.pub": codec.encode_pki_public(params, pki.PK_p),
            "clc.key": codec.encode_clc_keypair(params, clc),
            "clc.pub": codec.encode_clc_public(params, clc.identity, clc.public),
        }
        for name, data in files.items():
            (workdir / name).write_bytes(data)
        # an absolute PYTHONPATH, since the children run in the work directory
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
        self.sent = {}

    def _run(self, argv, span_name):
        env = dict(self.env, HSC_SEED=str(self.rng.getrandbits(32)))
        with self.rec.span(span_name) if self.rec else contextlib.nullcontext():
            proc = subprocess.run([sys.executable, *argv], cwd=self.workdir, env=env,
                                  stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                  timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            print(f"{argv}: exit {proc.returncode}: {proc.stderr.decode(errors='replace')}",
                  file=sys.stderr)
        return proc.returncode == 0

    def op(self, i):
        mode = "pchs" if i % 4 < 2 else "cphs"
        key, peer = ("pki.key", "clc.pub") if mode == "pchs" else ("clc.key", "pki.pub")
        if i % 2 == 0:
            command, src, dst = "signcrypt", f"{mode}.msg", f"{mode}.ct"
            self.sent[mode] = self.rng.randbytes(CLI_MESSAGE)
            (self.workdir / src).write_bytes(self.sent[mode])
        else:
            command, src, dst = "unsigncrypt", f"{mode}.ct", f"{mode}.out"
            # receiver's own key and the sender's public export
            key, peer = ("clc.key", "pki.pub") if mode == "pchs" else ("pki.key", "clc.pub")
        (self.workdir / dst).unlink(missing_ok=True)
        ok = self._run(["-m", "hsc", command, "--mode", mode, "--params", "params",
                        "--key", key, "--peer", peer, "--in", src, "--out", dst], "cli.command")
        if command == "unsigncrypt":
            ok = ok and (self.workdir / dst).read_bytes() == self.sent.pop(mode, None)
        return ok

    def reference(self):
        code = f"x = 0x1234567890ABCDEF\nfor _ in range(30000):\n    x = x * x % {FIELD_P}\n"
        # a pipe, so that the wait ends on end of file and not on the
        # polling interval subprocess uses when a timeout is given
        subprocess.run([sys.executable, "-c", code], cwd=self.workdir, env=self.env,
                       stderr=subprocess.PIPE, check=True, timeout=CHILD_TIMEOUT_S)

    def after_traced_op(self, i):
        if i % 2 == 0:
            self._run(["-c", "pass"], "cli.python_pass")
        else:
            self._run(["-c", "import hsc.cli"], "cli.python_import")

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


WORKLOADS = {
    "pair-roundtrip": PairRoundtrip,
    "issue-and-send": IssueAndSend,
    "demo-loopback": DemoLoopback,
    "cli-oneshot": CliOneshot,
}


def reference_time(wl):
    """Shortest of REFERENCE_RUNS timings of the workload's reference task."""
    best = float("inf")
    for _ in range(REFERENCE_RUNS):
        t0 = time.perf_counter()
        wl.reference()
        best = min(best, time.perf_counter() - t0)
    return best


def run_phase(wl, seconds, first_op, rec=None):
    """Closed loop for ``seconds``, in windows of at least one operation
    and about ``wl.window_s`` of busy time.  The reference task is timed
    between windows.  Returns the operations as (latency in s, scale)
    pairs and the number that failed.  ``scale`` is the reference's
    nominal time over its mean time around the operation's window: it
    converts the latency to reference speed."""
    ops, failed = [], 0
    i = first_op
    deadline = time.perf_counter() + seconds
    ref_before = reference_time(wl)
    while time.perf_counter() < deadline:
        latencies, busy = [], 0.0
        while not latencies or (busy < wl.window_s
                                and time.perf_counter() < deadline):
            t0 = time.perf_counter()
            if rec:
                rec.set_op(i)
            try:
                ok = wl.op(i)
            except Exception:
                traceback.print_exc()
                ok = False
            latencies.append(time.perf_counter() - t0)
            busy += latencies[-1]
            failed += not ok
            if rec:
                wl.after_traced_op(i)
                rec.set_op(None)
            i += 1
        ref_after = reference_time(wl)
        scale = 2 * wl.reference_nominal_s / (ref_before + ref_after)
        ops += [(t, scale) for t in latencies]
        ref_before = ref_after
    return ops, failed


def summarize(ops, rate_window_s):
    """End-to-end figures of a phase at reference speed, with the raw
    wall-clock figures and the host speed (median scale) beside them.
    Throughput is the median over consecutive runs of operations with
    about ``rate_window_s`` of busy time, so that a stall of a few seconds
    moves it less than it moves the mean."""
    chunks, chunk, busy = [], [], 0.0
    for t, scale in ops:
        chunk.append((t, scale))
        busy += t
        if busy >= rate_window_s:
            chunks.append(chunk)
            chunk, busy = [], 0.0
    chunks = chunks or [chunk]
    ordered = sorted(t * scale for t, scale in ops)
    n = len(ordered)
    # the highest percentile with at least 10 samples beyond it
    beyond = 10 if n > 10 else 0
    return {
        "ops": n,
        "ops_per_s": statistics.median(len(c) / sum(t * scale for t, scale in c)
                                       for c in chunks),
        "latency_p50_ms": statistics.median(ordered) * 1e3,
        "latency_tail_ms": ordered[n - 1 - beyond] * 1e3,
        "latency_tail_pct": 100.0 * (n - beyond) / n,
        "latency_tail_beyond": beyond,
        "raw_ops_per_s": statistics.median(len(c) / sum(t for t, _ in c) for c in chunks),
        "raw_latency_p50_ms": statistics.median(t for t, _ in ops) * 1e3,
        "host_speed": statistics.median(scale for _, scale in ops),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workdir = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    rng = random.Random(args.seed)
    wl = None
    problems = []
    try:
        # set-up runs under a Recorder so that the paper's operation counts
        # are checked on every run, traced or not
        generator = make_group("secp256k1").generator().value
        with spans.Recorder([generator]) as rec:
            rec.set_op(-1)
            wl = WORKLOADS[args.workload](rng, workdir)
            rec.fixed_points.add(wl.params.Ppub.value)
            for pchs in (True, False):
                if not roundtrip(wl.params, wl.pki, wl.clc, pchs, b"op count check", rng):
                    problems.append("op-count roundtrip did not return its message")
        problems += rec.op_count_mismatches()
        for i in range(-WARMUP_OPS, 0):
            if not wl.op(i):
                problems.append(f"warm-up operation {i} failed")
        setup_s = time.monotonic() - args.t0
        result = {"setup_s": setup_s * wl.reference_nominal_s / reference_time(wl),
                  "raw_setup_s": setup_s}
        if args.setup_only:
            result["problems"] = problems
            print(json.dumps(result))
            return 0 if not problems else 1

        if args.trace:
            # first half untraced, second half traced: the difference in
            # throughput is the tracing overhead
            half = args.seconds / 2
            plain, plain_failed = run_phase(wl, half, 0)
            tampered_before = wl.tampered
            with spans.Recorder([generator, wl.params.Ppub.value]) as rec:
                wl.rec = rec
                traced, traced_failed = run_phase(
                    wl, half, len(plain), rec)
                wl.rec = None
            layers = rec.layer_metrics(len(traced))
            problems += rec.op_count_mismatches()
            rejects = rec.rejections()
            if rejects != wl.tampered - tampered_before:
                problems.append(f"{rejects} rejections for "
                                f"{wl.tampered - tampered_before} tampered ciphertexts")
            result["untraced_ops_per_s"] = summarize(plain, wl.rate_window_s)["ops_per_s"]
            result["traced_ops_per_s"] = summarize(traced, wl.rate_window_s)["ops_per_s"]
            layers["trace.overhead_frac"] = (
                1 - result["traced_ops_per_s"] / result["untraced_ops_per_s"])
            result["layers"] = layers
            ops, failed = plain + traced, plain_failed + traced_failed
            out = ROOT / ".perfbench-out"
            out.mkdir(exist_ok=True)
            with open(out / f"spans-{args.workload}-seed{args.seed}.jsonl", "w") as f:
                for s in rec.spans:
                    info = s[6] if isinstance(s[6], (str, int)) else None
                    f.write(json.dumps([*s[:6], info]) + "\n")
        else:
            ops, failed = run_phase(wl, args.seconds, 0)

        result.update(summarize(ops, wl.rate_window_s), failed=failed,
                      peak_rss_mb=wl.peak_rss_mb(), problems=problems)
        print(json.dumps(result))
        return 0 if not problems and not failed else 1
    finally:
        if wl is not None:
            wl.close()
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()  # only if no other run is using it


if __name__ == "__main__":
    sys.exit(main())
