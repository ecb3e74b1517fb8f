"""Microbenchmark harness: wall times and measured operation counts.

Times the primitive operations (scalar multiplication of pool points, of
the fixed base P and of one point over and over, group addition,
hash-to-scalar, a 1 KiB H3 keystream, element decoding of pool points
and of one point over and over) and the four full algorithms plus aggregate key generation,
each over fresh random inputs pre-generated outside the timed region; the
algorithms take one run for each hundred of a primitive's (at least one).  A
caller may time a subset of the primitives alone.  Before each pass each
algorithm runs untimed on two inputs of its own, which promotes every
key it multiplies on each call, so its row times the steady state of a
long-lived user.  On secp256k1 a pool
point takes the first-use GLV + wNAF path, P the shipped fixed-window
table of the generator (making the pool, before any row, takes the
process past its first two k*P), and the repeated point (Ppub) the
fixed-window table it is promoted to on its second use, by an untimed
warm-up before each pass; decoding a pool point takes a square root, and decoding
Ppub's encoding again hits the cache of recent decodes.  The
multiplication and addition rows read the result's canonical value, so
on secp256k1 they include the inversion that makes it affine.  On
secp256k1 three more rows time the point kernels themselves, a Jacobian
doubling, a mixed Jacobian-affine addition and a Jacobian-Jacobian
addition, two the tables: reading,
checking and parsing the generator's table file, and building one
promoted point's table, and three the start of a process: a fresh
interpreter imports hsc.cli, as every CLI process does, or hsc.netdemo,
as every demo process does, and reports that import's time by its own
clock, or imports hsc.group and reports the time of its first two k*P,
as a one-shot signcrypt makes them.  Operation counts come from scoped
counters around one invocation of each algorithm -- measured, never
hardcoded.

With `repeat` R > 1 every row is timed in R passes, interleaved (each
pass times every row once, so a slow stretch of the host falls on all
rows alike), and each row reports the median of its R pass means and
their interquartile range next to the mean and median over all samples.
Before each pass a fixed big-integer task outside hsc is timed, as the
end-to-end benchmark does between operations; the JSON `meta` records
those times, so runs made in separate processes, such as a parent and a
change, can be checked for a host that changed speed between them.

Absolute times are hardware-dependent and not comparable across machines;
consumers should assert orderings and ratios only.  The JSON report
holds rows with a fixed column set, so runs can be diffed, under a
`meta` object with the Python version, the core count and
`source_sha256`, the digest of the code measured (see source_sha256).
"""

from __future__ import annotations

import functools
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

from .group import (GroupElement, OpCounter, Secp256k1Group, _GLV_ROWS, _GLV_WIDTH, _P,
                    _decompress, _fixed_window_rows, _jac_add, _jac_double, _jac_madd,
                    _load_g_table, _promotion, _system_rng, sha256)
from .keys import (
    ClcKeyPair,
    PkiKeyPair,
    SystemParams,
    clc_keygen,
    pki_keygen,
    setup,
)
from .signcryption import DIRECTIONS

_BENCH_IDENTITY = b"bench-clc-user"


class OpTiming(NamedTuple):
    """One row's samples over all passes (mean_s, median_s) and the
    median and interquartile range of its per-pass means."""

    name: str
    iterations: int  # per pass
    mean_s: float
    median_s: float
    passes: int = 1
    pass_median_s: float = 0.0
    pass_iqr_s: float = 0.0


class BenchReport:
    """Timings plus the per-algorithm operation-count table.  This and
    OpTiming are not dataclasses, so that a bench process does not
    import ``dataclasses`` and the ``inspect`` it pulls in."""

    __slots__ = ("group_name", "timings", "op_counts", "reference_s")

    def __init__(self, group_name: str) -> None:
        self.group_name = group_name
        self.timings: list[OpTiming] = []
        self.op_counts: dict[str, OpCounter] = {}
        # seconds the host-speed reference took before each pass
        self.reference_s: list[float] = []

    def timing(self, name: str) -> OpTiming:
        for t in self.timings:
            if t.name == name:
                return t
        raise KeyError(name)

    def rows(self) -> list[dict]:
        out = []
        for t in self.timings:
            out.append({
                "record": "timing", "group": self.group_name, "name": t.name,
                "iterations": t.iterations,
                "mean_s": f"{t.mean_s:.9f}", "median_s": f"{t.median_s:.9f}",
                "scalar_mults": "", "group_adds": "", "hash_calls": "",
                "passes": t.passes, "pass_median_s": f"{t.pass_median_s:.9f}",
                "pass_iqr_s": f"{t.pass_iqr_s:.9f}",
            })
        for name, counter in self.op_counts.items():
            out.append({
                "record": "opcount", "group": self.group_name, "name": name,
                "iterations": 1, "mean_s": "", "median_s": "",
                "scalar_mults": counter.scalar_mults,
                "group_adds": counter.group_adds,
                "hash_calls": counter.hash_calls,
                "passes": "", "pass_median_s": "", "pass_iqr_s": "",
            })
        return out

    def to_json(self) -> str:
        """The rows, as JSON objects, under the run's `meta`."""
        meta = {
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
            "source_sha256": source_sha256(),
            "reference_s": [round(t, 9) for t in self.reference_s],
        }
        return json.dumps({"meta": meta, "rows": self.rows()}, indent=1) + "\n"

    def table(self) -> str:
        lines = [f"group: {self.group_name}", ""]
        lines.append(f"{'operation':<22} {'iters':>7} {'mean ms':>12} {'median ms':>12}"
                     f" {'passes':>6} {'pass med ms':>12} {'pass IQR ms':>12}")
        for t in self.timings:
            lines.append(
                f"{t.name:<22} {t.iterations:>7} "
                f"{t.mean_s * 1e3:>12.4f} {t.median_s * 1e3:>12.4f} {t.passes:>6} "
                f"{t.pass_median_s * 1e3:>12.4f} {t.pass_iqr_s * 1e3:>12.4f}"
            )
        lines.append("")
        lines.append(f"{'algorithm':<22} {'S':>4} {'A':>4} {'H':>4}")
        for name, c in self.op_counts.items():
            lines.append(
                f"{name:<22} {c.scalar_mults:>4} {c.group_adds:>4} {c.hash_calls:>4}"
            )
        return "\n".join(lines)


def source_sha256() -> str:
    """SHA-256 over the name, length and bytes of each .py file of this
    package, in name order: the same wherever the files lie, in a
    checkout, a copy or an unpacked archive.  The generator's table is
    covered too, since group.py pins its digest.  For another commit's
    code, run `git archive <rev> src/hsc | tar -x -C DIR` and call this
    from the `hsc.bench` imported from DIR/src."""
    digest = sha256()
    for path in sorted(Path(__file__).resolve().parent.glob("*.py")):
        data = path.read_bytes()
        digest.update(b"%s\0%d\0%s" % (path.name.encode(), len(data), data))
    return digest.hexdigest()


def _time_loop(fn, inputs) -> list[float]:
    samples = []
    clock = time.perf_counter
    for args in inputs:
        t0 = clock()
        fn(*args)
        samples.append(clock() - t0)
    return samples


# a child interpreter times its own import of a module of the hsc package
# beside this module (argv[1] is the directory that holds the package,
# argv[2] the module) and prints the seconds
_IMPORT = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
           "t0 = time.perf_counter(); __import__(sys.argv[2]); print(time.perf_counter() - t0)")
# a child interpreter imports hsc.group from the same package, then times
# its own first two k*P, the two that a one-shot PCHS or CPHS signcrypt
# makes, read as the affine points that get encoded, and prints the
# seconds
_FIRST_KP = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
             "from hsc.group import Secp256k1Group; g = Secp256k1Group(); "
             "P = g.generator(); ks = [g.random_scalar(), g.random_scalar()]; "
             "t0 = time.perf_counter(); [g.mul(k, P).value for k in ks]; "
             "print(time.perf_counter() - t0)")


def _child_s(code: str, *args: str) -> float:
    """The seconds that `code` prints when a fresh interpreter runs it
    with the directory that holds this hsc package as argv[1]."""
    out = subprocess.run(
        [sys.executable, "-c", code, str(Path(__file__).resolve().parents[1]), *args],
        capture_output=True, text=True, check=True).stdout
    return float(out)


def _import_s(module: str) -> float:
    """Seconds a fresh interpreter takes to import `module` of this hsc,
    by the child's own clock: hsc.cli starts every CLI process, and
    hsc.netdemo every demo process."""
    return _child_s(_IMPORT, module)


# rows whose function returns its own sample instead of being timed
_SELF_TIMED = {"cli_import", "demo_import", "first_kp_process"}


def _reference_task() -> None:
    """Fixed big-integer work outside hsc, the kind that dominates it:
    3000 squarings mod the secp256k1 field prime, the end-to-end
    benchmark's host-speed reference."""
    x = 0x1234567890ABCDEF
    for _ in range(3000):
        x = x * x % _P


def _time_rows(rows, repeat: int, warm) -> tuple[list[OpTiming], list[float]]:
    """Time each (name, fn, inputs) row in `repeat` interleaved passes
    (a _SELF_TIMED row's fn returns its own sample instead);
    warm[name](), where given, runs untimed before each pass of that row.
    Also returns the time of the host-speed reference before each pass."""
    passes = {name: [] for name, _, _ in rows}
    reference = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        _reference_task()
        reference.append(time.perf_counter() - t0)
        for name, fn, inputs in rows:
            if name in warm:
                warm[name]()
            passes[name].append([fn(*args) for args in inputs] if name in _SELF_TIMED
                                else _time_loop(fn, inputs))
    out = []
    for name, samples in passes.items():
        means = [statistics.fmean(s) for s in samples]
        if repeat > 1:
            q1, _, q3 = statistics.quantiles(means, n=4, method="inclusive")
        else:
            q1 = q3 = means[0]
        every = [t for s in samples for t in s]
        out.append(OpTiming(
            name=name, iterations=len(samples[0]),
            mean_s=statistics.fmean(every), median_s=statistics.median(every),
            passes=repeat, pass_median_s=statistics.median(means), pass_iqr_s=q3 - q1,
        ))
    return out, reference


def bench_run(params: SystemParams, iterations: int = 10000, *, rng=None,
              rows=None, repeat: int = 1) -> BenchReport:
    """Measure primitives over `iterations` runs and full algorithms over
    iterations/100 runs (at least 1), each row in `repeat` interleaved
    passes.

    `rows`, when given, names the primitive rows to time (`scalar_mult`,
    `scalar_mult_fixed`, `scalar_mult_repeat`, `group_add`,
    `hash_to_scalar`, `h3_1k`, `decode_element`, `decode_element_repeat`,
    and on secp256k1 `jac_double`, `jac_madd`, `jac_add`, `load_g_table`,
    `promotion_build`, `cli_import`, `demo_import` and
    `first_kp_process`); the other rows, the algorithm rows and the op
    counts are then skipped.  The two table rows and the three process
    rows take milliseconds per call, so like the algorithms they run
    iterations/100 times.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    algo_iterations = max(1, iterations // 100)
    if repeat < 1:
        raise ValueError("repeat must be >= 1")
    rng = rng or _system_rng
    group = params.group
    report = BenchReport(group_name=group.descriptor.name)

    # shared pool of random elements; generating one costs a scalar mult,
    # so the pool is modest and rotated rather than per-iteration fresh.
    # It holds 64 points whatever the iteration count, more than the 16
    # entries of the caches of recent points and decodes, so a pass that
    # cycles through it never hits them, and pick(i + 1) is never pick(i).
    # Its points hold their canonical values, as decoded points do, so
    # group_add times the same addition in every pass
    pool = [GroupElement(group, (group.random_scalar(rng) * params.P).value)
            for _ in range(64)]

    def pick(i):
        return pool[i % len(pool)]

    scalars = [group.random_scalar(rng) for _ in range(iterations)]
    msg_len = min(32, params.max_message_bytes)
    msgs = [rng.getrandbits(8 * msg_len).to_bytes(msg_len, "big")
            for _ in range(iterations)]

    # a product or a sum is made affine when its value is first read
    def mul_value(k, X):
        return group.mul(k, X).value

    def add_value(X, Y):
        return group.add(X, Y).value

    primitives = [
        # each pass starts with the cache of recent points empty and cycles
        # through more points than it holds, so this row times the
        # first-use path with a table build in every call
        ("scalar_mult", mul_value,
         [(scalars[i], pick(i)) for i in range(iterations)]),
        # on secp256k1, k*P reads the shipped fixed-window table
        ("scalar_mult_fixed", mul_value, [(k, params.P) for k in scalars]),
        # one point over and over: on secp256k1 the untimed warm-up before
        # each pass promotes it again (scalar_mult, just before, evicts it
        # from the cache), so every timed call reads its fixed-window table
        ("scalar_mult_repeat", mul_value, [(k, params.Ppub) for k in scalars]),
        ("group_add", add_value,
         [(pick(i), pick(i + 1)) for i in range(iterations)]),
        ("hash_to_scalar", params.oracles.h2,
         [(msgs[i], pick(i)) for i in range(iterations)]),
        # the keystream of a 1 KiB message, or of the longest one the
        # params allow
        ("h3_1k", params.oracles.h3,
         [(pick(i), min(1024, params.max_message_bytes)) for i in range(iterations)]),
        # on secp256k1, point decompression: one modular square root; each
        # pass starts with the cache of recent decodes empty and cycles
        # through more points than it holds, so every call takes the root
        ("decode_element", group.decode_element,
         [(pick(i).encode(),) for i in range(iterations)]),
        # one encoding over and over: on secp256k1 a cached decode
        ("decode_element_repeat", group.decode_element,
         [(params.Ppub.encode(),)] * iterations),
    ]
    if isinstance(group, Secp256k1Group):
        # the point kernels, on the pool points in Jacobian coordinates
        # with a random Z: the two every multiplication path ends in, and
        # the addition of two sums or products; jac_madd adds the next
        # pool point, affine, and jac_add the next one, Jacobian
        jac = []
        for X in pool:
            x, y = X.value
            z = rng.randrange(1, _P)
            jac.append((x * z * z % _P, y * z * z * z % _P, z))
        primitives += [
            ("jac_double", _jac_double, [jac[i % len(jac)] for i in range(iterations)]),
            ("jac_madd", _jac_madd,
             [jac[i % len(jac)] + pick(i + 1).value for i in range(iterations)]),
            ("jac_add", _jac_add,
             [jac[i % len(jac)] + jac[(i + 1) % len(jac)] for i in range(iterations)]),
            # a cold load of the generator's table past its cache: every
            # call reads the file, checks its SHA-256 and parses it, as
            # the third k*P of a process does
            ("load_g_table", _load_g_table.__wrapped__, [() for _ in range(algo_iterations)]),
            # the table a point gets on its second multiplication
            ("promotion_build", _fixed_window_rows,
             [(pick(i).value, _GLV_ROWS, _GLV_WIDTH) for i in range(algo_iterations)]),
            ("cli_import", _import_s, [("hsc.cli",)] * algo_iterations),
            ("demo_import", _import_s, [("hsc.netdemo",)] * algo_iterations),
            ("first_kp_process", _child_s, [(_FIRST_KP,)] * algo_iterations),
        ]

    def warm_ppub():
        # a first use of Ppub, then its promotion; two cache hits when
        # it is still promoted
        group.mul(scalars[0], params.Ppub)
        group.mul(scalars[0], params.Ppub)

    # a pass of the two pool rows starts with both caches empty: a pool
    # point a pass before used is still cached when the pass has fewer
    # calls than the caches' 16 entries, and would be promoted or decoded
    # from the cache in the next
    warm = {"scalar_mult": _promotion.cache_clear, "decode_element": _decompress.cache_clear,
            "scalar_mult_repeat": warm_ppub}
    if rows is not None:
        unknown = set(rows) - {name for name, _, _ in primitives}
        if unknown:
            raise ValueError(f"unknown bench rows: {', '.join(sorted(unknown))}")
        report.timings, report.reference_s = _time_rows(
            [row for row in primitives if row[0] in rows], repeat, warm)
        return report

    # key material for the algorithm benchmarks; the bench provisions its
    # own hierarchy (the caller's master key is secret), same group and
    # message cap, so costs are identical
    def keygen_once():
        p2, m2 = setup(group, n=params.n, rng=rng)
        return p2, pki_keygen(p2, rng), clc_keygen(p2, m2, _BENCH_IDENTITY, rng)

    bparams, pki, clc = keygen_once()
    # each side's key pair and the public export its peer decodes
    sides = {PkiKeyPair: (pki, pki.PK_p),
             ClcKeyPair: (clc, (clc.identity, clc.public))}

    # each algorithm row's first two inputs are not timed: they run before
    # each pass, so that every key the algorithm multiplies is promoted (a
    # point's table is built on its second multiplication) and the row
    # times the steady state of a long-lived user.  They are inputs of
    # their own, since an unsigncrypt input run twice would promote the
    # fresh point it derives from V
    algo_msgs = [rng.getrandbits(8 * msg_len).to_bytes(msg_len, "big")
                 for _ in range(2 + algo_iterations)]

    timed = primitives + [("keygen", keygen_once, [() for _ in range(algo_iterations)])]
    # (op-count name, function, the arguments of its first timed call)
    counted = [("key_generation", keygen_once, ())]
    for mode, spec in DIRECTIONS.items():
        sender, sender_export = sides[spec.sender]
        receiver, receiver_export = sides[spec.receiver]
        sign = functools.partial(spec.signcrypt, bparams, sender, receiver_export, rng=rng)
        unsign = functools.partial(spec.unsigncrypt, bparams, receiver, sender_export)
        sigmas = [(sign(m),) for m in algo_msgs]
        for name, fn, inputs in ((f"{mode}_signcrypt", sign, [(m,) for m in algo_msgs]),
                                 (f"{mode}_unsigncrypt", unsign, sigmas)):
            warm[name] = lambda fn=fn, inputs=inputs[:2]: [fn(*args) for args in inputs]
            timed.append((name, fn, inputs[2:]))
            counted.append((name, fn, inputs[2]))
    report.timings, report.reference_s = _time_rows(timed, repeat, warm)

    # measured per-algorithm operation counts, one scoped invocation each
    for name, fn, args in counted:
        with group.counting() as c:
            fn(*args)
        report.op_counts[name] = c
    return report
