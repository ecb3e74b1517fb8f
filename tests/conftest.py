"""Shared fixtures: scripted entropy, a scripted hash oracle, the q=13
worked example, and a session-wide production setup (seeded, so failures
reproduce)."""

from __future__ import annotations

import random
from types import SimpleNamespace

import pytest

from hsc import group, keys
from hsc.group import Group, GroupElement, Scalar, Secp256k1Group, ToyGroup


class FixedRng:
    """randrange() pops pre-scripted values; raises when exhausted."""

    def __init__(self, *values: int) -> None:
        self.values = list(values)

    def randrange(self, start: int, stop: int) -> int:
        if not self.values:
            raise AssertionError("scripted rng exhausted")
        value = self.values.pop(0)
        assert start <= value < stop, f"scripted value {value} outside [{start},{stop})"
        return value


class RecordingRng:
    """Wraps a real rng and keeps every draw, so tests can recover the
    nonces an algorithm consumed."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.draws: list[int] = []

    def randrange(self, *args) -> int:
        value = self.inner.randrange(*args)
        self.draws.append(value)
        return value


class UnscriptedQueryError(LookupError):
    """A scripted oracle was asked something its tables do not cover."""


class ScriptedOracle:
    """Hash oracle whose answers are pre-programmed lookup tables.

    Construct with the queries a test expects, e.g.::

        ScriptedOracle(group,
                       h1={(b"server", T): 5},
                       h2={(m, R1): 9},
                       h3={R2: bytes([0b0110])})

    and hand it to the algorithms by assigning it to ``params.oracles``
    (or to that of a ``copy.copy(params)`` copy).  Any query
    outside the tables raises UnscriptedQueryError, so a test cannot
    accidentally depend on real hashing.
    """

    def __init__(self, group: Group, h1: dict | None = None,
                 h2: dict | None = None, h3: dict | None = None) -> None:
        self.group = group
        enc = group.encode_element
        self.h1_map = {(i, enc(T)): v for (i, T), v in (h1 or {}).items()}
        self.h2_map = {(m, enc(R1)): v for (m, R1), v in (h2 or {}).items()}
        self.h3_map = {enc(R2): mask for R2, mask in (h3 or {}).items()}

    def h1(self, identity: bytes, T: GroupElement) -> Scalar:
        self.group.count_hash_call()
        key = (identity, self.group.encode_element(T))
        if key not in self.h1_map:
            raise UnscriptedQueryError(f"h1 not scripted for {key!r}")
        return self.group.scalar(self.h1_map[key])

    def h2(self, message: bytes, R1: GroupElement) -> Scalar:
        self.group.count_hash_call()
        key = (message, self.group.encode_element(R1))
        if key not in self.h2_map:
            raise UnscriptedQueryError(f"h2 not scripted for {key!r}")
        return self.group.scalar(self.h2_map[key])

    def h3(self, R2: GroupElement, out_len: int) -> bytes:
        self.group.count_hash_call()
        key = self.group.encode_element(R2)
        if key not in self.h3_map:
            raise UnscriptedQueryError(f"h3 not scripted for {key!r}")
        mask = self.h3_map[key]
        if len(mask) != out_len:
            raise UnscriptedQueryError(
                f"h3 scripted mask is {len(mask)} bytes, query wants {out_len}"
            )
        return mask


@pytest.fixture
def toy13():
    """The q=13 worked example: scripted keys, scripted oracle (set as
    ``params.oracles``), and the frozen expected values (independently
    recomputed in the acceptance suite)."""
    toy = ToyGroup(13)
    params, master = keys.setup(toy, n=8, rng=FixedRng(3))
    el = toy.element
    oracle = ScriptedOracle(
        toy,
        h1={(b"server", el(2)): 5},
        h2={(bytes([0b1010]), el(7)): 9},
        h3={el(9): bytes([0b0110])},
    )
    params.oracles = oracle
    partial = keys.clc_extract_partial(params, master, b"server", FixedRng(2))
    clc = keys.clc_finalize(params, b"server", partial, toy.scalar(6))
    pki = keys.pki_keygen(params, FixedRng(5))
    return SimpleNamespace(
        group=toy, params=params, master=master, oracle=oracle,
        partial=partial, clc=clc, pki=pki,
        identity=b"server", m=bytes([0b1010]), k=7,
        pchs_sigma=(bytes([0b1100]), 10, 7),
        cphs_sigma=(bytes([0b1100]), 8, 4),
    )


@pytest.fixture(scope="session")
def secp():
    return Secp256k1Group()


@pytest.fixture(scope="session")
def prod():
    """Production-group setup with one PKI and one CLC user."""
    rng = random.Random(0xC0FFEE)
    params, master = keys.setup("secp256k1", rng=rng)
    alice = keys.pki_keygen(params, rng)
    bob = keys.clc_keygen(params, master, b"server", rng)
    return SimpleNamespace(params=params, master=master, alice=alice, bob=bob,
                           identity=b"server")


@pytest.fixture
def table_builds(monkeypatch):
    """The point of every secp256k1 table build during the test, per
    builder: `_odd_multiples` (a first use) and `_fixed_window_rows` (a
    promotion)."""
    builds = {"_odd_multiples": [], "_fixed_window_rows": []}
    for name, points in builds.items():
        def hook(point, *rest, build=getattr(group, name), points=points):
            points.append(point)
            return build(point, *rest)
        monkeypatch.setattr(group, name, hook)
    return builds


@pytest.fixture
def rng():
    return random.Random(0x5EED)
