"""Microbenchmark harness: wall times and measured operation counts.

Times the primitive operations (scalar multiplication of pool points and
of the fixed base P, group addition, hash-to-scalar) and the four full
algorithms plus aggregate key generation, each over fresh random inputs
pre-generated outside the timed region.  Operation counts come from
scoped counters around one invocation of each algorithm -- measured,
never hardcoded.

Absolute times are hardware-dependent and not comparable across machines;
consumers should assert orderings and ratios only.  The machine-readable
rows have a fixed column set so CI can diff runs; the JSON form carries
the same rows plus the Python version, core count and git commit.
"""

from __future__ import annotations

import csv
import io
import json
import os
import platform
import secrets
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

from .group import OpCounter
from .keys import (
    SystemParams,
    clc_extract_partial,
    clc_finalize_random,
    pki_keygen,
    setup,
)
from .signcryption import (
    cphs_signcrypt,
    cphs_unsigncrypt,
    pchs_signcrypt,
    pchs_unsigncrypt,
)

_system_rng = secrets.SystemRandom()

CSV_COLUMNS = [
    "record", "group", "name", "iterations",
    "mean_s", "median_s",
    "scalar_mults", "group_adds", "hash_calls",
]

_BENCH_IDENTITY = b"bench-clc-user"


@dataclass
class OpTiming:
    name: str
    iterations: int
    mean_s: float
    median_s: float


@dataclass
class BenchReport:
    """Timings plus the per-algorithm operation-count table."""

    group_name: str
    timings: list[OpTiming] = field(default_factory=list)
    op_counts: dict[str, OpCounter] = field(default_factory=dict)

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
            })
        for name, counter in self.op_counts.items():
            out.append({
                "record": "opcount", "group": self.group_name, "name": name,
                "iterations": 1, "mean_s": "", "median_s": "",
                "scalar_mults": counter.scalar_mults,
                "group_adds": counter.group_adds,
                "hash_calls": counter.hash_calls,
            })
        return out

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        writer.writerows(self.rows())
        return buf.getvalue()

    def to_json(self) -> str:
        """The CSV rows, as JSON objects, under the run's `meta`."""
        meta = {
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
            "commit": git_commit(Path(__file__).resolve().parent),
        }
        return json.dumps({"meta": meta, "rows": self.rows()}, indent=1) + "\n"

    def table(self) -> str:
        lines = [f"group: {self.group_name}", ""]
        lines.append(f"{'operation':<20} {'iters':>7} {'mean ms':>12} {'median ms':>12}")
        for t in self.timings:
            lines.append(
                f"{t.name:<20} {t.iterations:>7} "
                f"{t.mean_s * 1e3:>12.4f} {t.median_s * 1e3:>12.4f}"
            )
        lines.append("")
        lines.append(f"{'algorithm':<20} {'S':>4} {'A':>4} {'H':>4}")
        for name, c in self.op_counts.items():
            lines.append(
                f"{name:<20} {c.scalar_mults:>4} {c.group_adds:>4} {c.hash_calls:>4}"
            )
        return "\n".join(lines)


def git_commit(start: Path) -> str | None:
    """The commit checked out in the nearest `.git` directory at or above
    `start`, read from its files without running git; None outside a
    checkout."""
    for directory in (start, *start.parents):
        git_dir = directory / ".git"
        if git_dir.is_dir():
            break
    else:
        return None
    try:
        head = (git_dir / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head  # detached HEAD
        ref = head[len("ref: "):]
        loose = git_dir / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git_dir / "packed-refs").read_text().splitlines():
            commit, _, name = line.partition(" ")
            if name == ref:
                return commit
    except OSError:
        pass
    return None


def _time_loop(fn, inputs) -> list[float]:
    samples = []
    clock = time.perf_counter
    for args in inputs:
        t0 = clock()
        fn(*args)
        samples.append(clock() - t0)
    return samples


def _summary(name: str, samples: list[float]) -> OpTiming:
    return OpTiming(
        name=name,
        iterations=len(samples),
        mean_s=statistics.fmean(samples),
        median_s=statistics.median(samples),
    )


def bench_run(params: SystemParams, iterations: int = 10000, *,
              algo_iterations: int | None = None, rng=None) -> BenchReport:
    """Measure primitives over `iterations` runs and full algorithms over
    `algo_iterations` runs (default iterations/100, at least 1)."""
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    if algo_iterations is None:
        algo_iterations = max(1, iterations // 100)
    if algo_iterations < 1:
        raise ValueError("algo_iterations must be >= 1")
    rng = rng or _system_rng
    group = params.group
    report = BenchReport(group_name=group.descriptor.name)

    # shared pool of random elements; generating one costs a scalar mult,
    # so the pool is modest and rotated rather than per-iteration fresh
    pool = [group.random_scalar(rng) * params.P for _ in range(min(64, iterations))]

    def pick(i):
        return pool[i % len(pool)]

    scalars = [group.random_scalar(rng) for _ in range(iterations)]
    # the pool holds more points than the odd-multiples cache, so this row
    # times the uncached path; the fixed base P takes the cached one
    report.timings.append(_summary("scalar_mult", _time_loop(
        group.mul, [(scalars[i], pick(i)) for i in range(iterations)])))
    report.timings.append(_summary("scalar_mult_fixed", _time_loop(
        group.mul, [(k, params.P) for k in scalars])))

    report.timings.append(_summary("group_add", _time_loop(
        group.add, [(pick(i), pick(i + 1)) for i in range(iterations)])))

    oracles = params.oracles
    msg_len = min(32, params.max_message_bytes)
    msgs = [rng.getrandbits(8 * msg_len).to_bytes(msg_len, "big")
            for _ in range(iterations)]
    report.timings.append(_summary("hash_to_scalar", _time_loop(
        oracles.h2, [(msgs[i], pick(i)) for i in range(iterations)])))

    # key material for the algorithm benchmarks; the bench provisions its
    # own hierarchy (the caller's master key is secret), same group and
    # configuration, so costs are identical
    bparams, master = setup(group, n=params.n, l=params.l, rng=rng,
                            hash_config=params.hash)
    sender_pki = pki_keygen(bparams, rng)
    partial = clc_extract_partial(bparams, master, _BENCH_IDENTITY, rng)
    clc_key = clc_finalize_random(bparams, _BENCH_IDENTITY, partial, rng)

    def keygen_once():
        p2, m2 = setup(group, n=params.n, l=params.l, rng=rng, hash_config=params.hash)
        pki_keygen(p2, rng)
        pt = clc_extract_partial(p2, m2, _BENCH_IDENTITY, rng)
        clc_finalize_random(p2, _BENCH_IDENTITY, pt, rng)

    algo_msgs = [rng.getrandbits(8 * msg_len).to_bytes(msg_len, "big")
                 for _ in range(algo_iterations)]

    def sign_pchs(m):
        return pchs_signcrypt(bparams, sender_pki, _BENCH_IDENTITY, clc_key.public, m, rng)

    def sign_cphs(m):
        return cphs_signcrypt(bparams, clc_key, sender_pki.PK_p, m, rng)

    pchs_sigmas = [(sign_pchs(m),) for m in algo_msgs]
    cphs_sigmas = [(sign_cphs(m),) for m in algo_msgs]

    report.timings.append(_summary("keygen", _time_loop(
        lambda: keygen_once(), [() for _ in range(algo_iterations)])))
    report.timings.append(_summary("pchs_signcrypt", _time_loop(
        sign_pchs, [(m,) for m in algo_msgs])))
    report.timings.append(_summary("pchs_unsigncrypt", _time_loop(
        lambda s: pchs_unsigncrypt(bparams, clc_key, sender_pki.PK_p, s), pchs_sigmas)))
    report.timings.append(_summary("cphs_signcrypt", _time_loop(
        sign_cphs, [(m,) for m in algo_msgs])))
    report.timings.append(_summary("cphs_unsigncrypt", _time_loop(
        lambda s: cphs_unsigncrypt(bparams, sender_pki, _BENCH_IDENTITY,
                                   clc_key.public, s), cphs_sigmas)))

    # measured per-algorithm operation counts, one scoped invocation each
    with group.counting() as c:
        keygen_once()
    report.op_counts["key_generation"] = c

    with group.counting() as c:
        sigma = sign_pchs(algo_msgs[0])
    report.op_counts["pchs_signcrypt"] = c
    with group.counting() as c:
        pchs_unsigncrypt(bparams, clc_key, sender_pki.PK_p, sigma)
    report.op_counts["pchs_unsigncrypt"] = c

    with group.counting() as c:
        sigma = sign_cphs(algo_msgs[0])
    report.op_counts["cphs_signcrypt"] = c
    with group.counting() as c:
        cphs_unsigncrypt(bparams, sender_pki, _BENCH_IDENTITY, clc_key.public, sigma)
    report.op_counts["cphs_unsigncrypt"] = c

    return report
