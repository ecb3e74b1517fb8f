"""Spans and operation counts recorded around calls into the hsc layers.

Nothing under ``src/`` is edited.  :meth:`Recorder.install` replaces the
public functions and methods of ``hsc.group``, ``hsc.hashing``,
``hsc.keys``, ``hsc.signcryption``, ``hsc.codec`` and ``hsc.netdemo`` with
wrappers, and :meth:`Recorder.uninstall` puts the originals back.  Each
wrapped call appends one span ``(id, parent id, name, start, end, op, info)``
to an in-memory list.  The parent is the innermost open span on the same
thread and ``op`` is the operation the thread is working on, so the server
thread of the demo and the client on the main thread keep separate stacks
and counts.  ``Group.counting()`` is not used: its counter stack is shared
by every thread holding the same group.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import statistics
import threading
import time
from collections import defaultdict

from hsc import codec, group, hashing, keys, netdemo, signcryption

# (scalar multiplications, hash calls) per call, from the paper's cost
# table: keygen 4S+1H split over its four steps, PCHS 4S+2H both ways,
# CPHS 3S+2H to signcrypt and 4S+2H to unsigncrypt.  Calls made under
# Group.counter_paused() are the library's own checks and not counted.
EXPECTED_OPS = {
    "keys.setup": (1, 0),
    "keys.pki_keygen": (1, 0),
    "keys.clc_extract_partial": (1, 1),
    "keys.clc_finalize": (1, 0),
    "signcryption.pchs_signcrypt": (4, 2),
    "signcryption.pchs_unsigncrypt": (4, 2),
    "signcryption.cphs_signcrypt": (3, 2),
    "signcryption.cphs_unsigncrypt": (4, 2),
}

SIGNCRYPTION_FUNCS = ("pchs_signcrypt", "pchs_unsigncrypt",
                      "cphs_signcrypt", "cphs_unsigncrypt")
KEYS_FUNCS = ("setup", "pki_keygen", "clc_extract_partial", "clc_finalize",
              "verify_partial_key")
PAUSED = "group.counter_paused"


class _ThreadState(threading.local):
    def __init__(self) -> None:
        self.stack: list[int] = []
        self.op = None


class Recorder:
    """Collects spans from the wrapped layers while installed.

    ``fixed_points`` holds the values of the fixed bases (P and Ppub); a
    multiplication of one of them is ``group.mul.fixed``, any other point
    is ``group.mul.general``.
    """

    def __init__(self, fixed_points=()) -> None:
        self.spans: list[tuple] = []
        self.fixed_points = set(fixed_points)
        self._state = _ThreadState()
        self._ids = itertools.count()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def set_op(self, op) -> None:
        """Attribute this thread's next spans to operation ``op``
        (a number; negative for set-up and warm-up work)."""
        self._state.op = op

    def _wrap(self, orig, name, describe=None):
        spans, state, ids, clock = self.spans, self._state, self._ids, time.perf_counter

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            span_name, info = describe(args, kwargs) if describe else (name, None)
            stack = state.stack
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            t0 = clock()
            try:
                return orig(*args, **kwargs)
            except Exception as exc:
                info = type(exc).__name__
                raise
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, parent, span_name, t0, t1, state.op, info))

        return wrapper

    @contextlib.contextmanager
    def span(self, name, info=None):
        """Record a span around a block of the benchmark's own code."""
        state = self._state
        sid = next(self._ids)
        parent = state.stack[-1] if state.stack else None
        state.stack.append(sid)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            state.stack.pop()
            self.spans.append((sid, parent, name, t0, t1, state.op, info))

    # -- installing the wrappers ---------------------------------------------

    def _patch(self, owner, attr, replacement) -> None:
        # class attributes are read from __dict__ so that restoring them
        # puts back the exact object, not a bound or inherited one
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def install(self) -> "Recorder":
        G = group.Group
        fixed = self.fixed_points

        def describe_mul(args, kwargs):
            xv = args[2].value
            if xv in fixed:
                return "group.mul.fixed", None
            return "group.mul.general", xv

        self._patch(G, "mul", self._wrap(G.mul, None, describe_mul))
        self._patch(G, "add", self._wrap(G.add, "group.add"))
        self._patch(G, "sub", self._wrap(G.sub, "group.add"))
        self._patch(G, "decode_element", self._wrap(G.decode_element, "group.decode_element"))
        paused, span = G.counter_paused, self.span

        @contextlib.contextmanager
        def counter_paused(group_self):
            with span(PAUSED), paused(group_self):
                yield

        self._patch(G, "counter_paused", counter_paused)

        H = hashing.HashOracles
        self._patch(H, "h1", self._wrap(H.h1, "hashing.h1"))
        self._patch(H, "h2", self._wrap(H.h2, "hashing.h2"))
        self._patch(H, "h3", self._wrap(
            H.h3, None, lambda a, kw: ("hashing.h3", a[2] if len(a) > 2 else kw["out_len"])))

        for fn in KEYS_FUNCS:
            self._patch(keys, fn, self._wrap(getattr(keys, fn), f"keys.{fn}"))
        for fn in SIGNCRYPTION_FUNCS:
            wrapped = self._wrap(getattr(signcryption, fn), f"signcryption.{fn}")
            self._patch(signcryption, fn, wrapped)
            # netdemo imported these by name
            self._patch(netdemo, fn, wrapped)

        for fn in sorted(vars(codec)):
            if fn.startswith(("encode_", "decode_")) and callable(getattr(codec, fn)):
                kind = "encode" if fn.startswith("encode_") else "decode"
                self._patch(codec, fn, self._wrap(getattr(codec, fn), f"codec.{kind}"))
        self._patch(codec, "read_frame", self._wrap(codec.read_frame, "codec.read_frame"))
        self._patch(codec, "write_frame", self._wrap(
            codec.write_frame, None,
            lambda a, kw: ("codec.write_frame", 5 + len(a[1].payload))))

        self._patch(netdemo, "run_client", self._wrap(netdemo.run_client, "netdemo.session.client"))
        D = netdemo.DemoServer
        self._patch(D, "serve_one", self._wrap(D.serve_one, "netdemo.session.server"))
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Recorder":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    # -- analysis --------------------------------------------------------------

    def op_count_mismatches(self) -> list[str]:
        """Compare the multiplications and hash calls under each span named
        in EXPECTED_OPS that returned normally with the paper's table."""
        owner, paused = {}, {}
        tallies = defaultdict(lambda: [0, 0])
        for sid, parent, name, _t0, _t1, _op, _info in sorted(self.spans):
            if name in EXPECTED_OPS:
                owner[sid], paused[sid] = sid, False
                continue
            owner[sid] = owner.get(parent)
            paused[sid] = paused.get(parent, False) or name == PAUSED
            if owner[sid] is None or paused[sid]:
                continue
            if name.startswith("group.mul."):
                tallies[owner[sid]][0] += 1
            elif name.startswith("hashing.h"):
                tallies[owner[sid]][1] += 1
        problems = []
        for sid, _parent, name, _t0, _t1, op, info in self.spans:
            if name in EXPECTED_OPS and info is None:
                got = tuple(tallies[sid])
                if got != EXPECTED_OPS[name]:
                    problems.append(f"op {op}: {name} did {got[0]}S+{got[1]}H, "
                                    f"expected {EXPECTED_OPS[name][0]}S+{EXPECTED_OPS[name][1]}H")
        return problems

    def layer_metrics(self, n_ops: int) -> dict[str, float]:
        """Per-operation counts and times of the spans recorded during the
        ``n_ops`` timed operations (those with an op number >= 0)."""
        child_s = defaultdict(float)
        for _sid, parent, _name, t0, t1, _op, _info in self.spans:
            if parent is not None:
                child_s[parent] += t1 - t0
        calls = defaultdict(int)
        self_s = defaultdict(float)
        total_s = defaultdict(float)
        info_sum = defaultdict(int)
        cli_ms = defaultdict(list)
        seen_points, repeats = set(), 0
        for sid, _parent, name, t0, t1, op, info in sorted(self.spans):
            if op is None or op < 0:
                continue
            calls[name] += 1
            self_s[name] += (t1 - t0) - child_s[sid]
            total_s[name] += t1 - t0
            if name == "group.mul.general":
                repeats += info in seen_points
                seen_points.add(info)
            elif isinstance(info, int):
                info_sum[name] += info
            elif name.startswith("cli."):
                cli_ms[name].append((t1 - t0) * 1e3)

        def per_op(value):
            return value / n_ops

        def ms(seconds):
            return per_op(seconds * 1e3)

        unsign = sum(calls[f"signcryption.{d}_unsigncrypt"] for d in ("pchs", "cphs"))
        general = calls["group.mul.general"]
        out = {}
        for layer in ("group.mul.fixed", "group.mul.general", "group.add", "group.decode_element"):
            out[f"{layer}.calls"] = per_op(calls[layer])
            out[f"{layer}.self_ms"] = ms(self_s[layer])
        out["group.mul.general.repeat_point_frac"] = repeats / general if general else 0.0
        for h in ("h1", "h2", "h3"):
            out[f"hashing.{h}.calls"] = per_op(calls[f"hashing.{h}"])
        out["hashing.h3.bytes"] = per_op(info_sum["hashing.h3"])
        out["hashing.self_ms"] = ms(sum(self_s[f"hashing.{h}"] for h in ("h1", "h2", "h3")))
        for fn in ("pki_keygen", "clc_extract_partial", "clc_finalize"):
            out[f"keys.{fn}.self_ms"] = ms(self_s[f"keys.{fn}"])
        for kind in ("signcrypt", "unsigncrypt"):
            out[f"signcryption.{kind}.self_ms"] = ms(
                sum(self_s[f"signcryption.{d}_{kind}"] for d in ("pchs", "cphs")))
        out["signcryption.reject_frac"] = self.rejections() / unsign if unsign else 0.0
        out["codec.encode.self_ms"] = ms(self_s["codec.encode"])
        out["codec.decode.self_ms"] = ms(self_s["codec.decode"])
        out["codec.frame.bytes"] = per_op(info_sum["codec.write_frame"])
        out["netdemo.session.client_ms"] = ms(total_s["netdemo.session.client"])
        out["netdemo.session.server_ms"] = ms(total_s["netdemo.session.server"])
        out["netdemo.read_frame.wait_ms"] = ms(total_s["codec.read_frame"])
        # a CLI command is split by medians of whole processes: bare
        # interpreter, interpreter plus `import hsc.cli`, and the command
        med = {name: statistics.median(d) for name, d in cli_ms.items()}
        bare, imported = med.get("cli.python_pass", 0.0), med.get("cli.python_import", 0.0)
        out["cli.interpreter_ms"] = bare
        out["cli.import_ms"] = imported - bare
        out["cli.command_ms"] = med.get("cli.command", 0.0) - imported
        return out

    def rejections(self) -> int:
        """Unsigncrypt calls of the timed operations that rejected."""
        return sum(1 for _s, _p, name, _t0, _t1, op, info in self.spans
                   if op is not None and op >= 0 and name.endswith("_unsigncrypt")
                   and info == "RejectedCiphertext")
