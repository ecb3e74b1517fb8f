"""Prime-order cyclic groups used by the signcryption schemes.

Two interchangeable instantiations sit behind one interface:

- :class:`Secp256k1Group` -- the production group.  secp256k1 has a prime
  order (cofactor 1), so the whole curve is the group.  Arithmetic is pure
  Python in Jacobian coordinates.  Every multiplication splits k with the
  GLV endomorphism lambda into two ~128-bit halves, k1 + k2*lambda, and
  takes one of three paths:

  * the generator P, from the third k*P of a process on, reads a width-10
    signed fixed-window table of 13 rows (6,656 points, 425,984 bytes)
    that ships beside this module and is loaded on that third k*P, after
    a full SHA-256 check of the file by CPython's own SHA-256 module (no
    hsc process imports `hashlib`; see :mod:`hsc.hashing`): about 26
    mixed additions and no doublings.  The first two k*P take the
    first-use path below, as any other point's first multiplication
    does, without entering the cache of recent points: no one-shot CLI
    command makes more than two, so none reads, checks or parses the
    file;
  * any other point, on its first multiplication, recodes both halves as
    width-5 wNAF and runs one shared doubling chain of about 129 steps
    over a table of odd multiples of the point, built on an isomorphic
    curve and brought to one shared Z with no inversion;
  * a point multiplied a second time while it is still among the 16 most
    recently multiplied gets a width-7 signed fixed-window table of 19
    rows of its own, built a column at a time with one inversion per
    column (about 5 ms and 125 KB per point), and from then on costs
    about 37 mixed additions, again with no doublings.

  A fixed-window table holds multiples of the point alone, each affine
  (x, y) packed into one int, x << 256 | y: k2's digits are summed
  first, lambda maps the sum by one multiplication of its X coordinate
  by beta, and k1's digits are added on top.

  A product or a sum stays in Jacobian coordinates.  Its element turns
  it affine, with one field inversion, only when it is first encoded,
  hashed or multiplied (the tables, the promotion slot and the test for P
  read the affine point), and keeps the affine point from then on.
  Equality asks whether X - Y is the identity, which the addition tells
  from cross-multiplied coordinates with no inversion; an addition is
  mixed when one side is affine and a full Jacobian addition otherwise.

  The generator's table, the slots of the 16 points multiplied most
  recently and the points of the 16 most recent decodes are functools
  caches of the process, which every instance and thread shares.

  This is research-grade code; it is NOT constant-time and must not be
  used where side channels matter.

- :class:`ToyGroup` -- the additive group of integers modulo a prime
  q >= 13 with generator 1.  Cryptographically worthless, but every operation
  equals plain modular arithmetic, which makes hand-checkable test vectors
  and brute-force oracles possible.

Scalars live in Z_q for the group order q.  Group elements and scalars are
immutable and safe to share between threads: an element that keeps its
affine point does so by one assignment of an immutable tuple, and threads
that race to compute it compute equal ones.  Operation counting
(:meth:`Group.counting`) is kept per thread (per context): enter a scope,
run one algorithm, read the tallies; other threads using the same group
meanwhile neither add to them nor see them.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import itertools
import os
import random
import struct
from typing import Iterator, NamedTuple, Optional

# CPython's own SHA-256, for the reason hashing.py's docstring gives:
# _sha2 from 3.12, _sha256 before, and hashlib only on a build without
# either
try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256


class DecodeError(ValueError):
    """Base class for scalar/element decoding failures."""


class WrongLengthError(DecodeError):
    """Encoded input has the wrong number of bytes."""


class NonCanonicalScalarError(DecodeError):
    """Scalar encoding is out of range (value >= q)."""


class OffGroupError(DecodeError):
    """Element encoding does not name a group element."""


class GeneratorTableError(RuntimeError):
    """The shipped secp256k1 generator table is missing, unreadable or
    fails its SHA-256 check: a broken install, not a bad input."""


class GroupDescriptor(NamedTuple):
    """Public shape of a group: order and canonical encoding widths."""

    name: str
    q: int
    scalar_len: int
    element_len: int


class OpCounter:
    """Tallies of the operations that dominate runtime cost.

    scalar_mults counts scalar-by-element multiplications, group_adds
    counts element additions/subtractions, hash_calls counts oracle
    invocations.  Counters only move while their scope is active.
    """

    __slots__ = ("scalar_mults", "group_adds", "hash_calls")

    def __init__(self, scalar_mults: int = 0, group_adds: int = 0, hash_calls: int = 0) -> None:
        self.scalar_mults = scalar_mults
        self.group_adds = group_adds
        self.hash_calls = hash_calls


class Scalar:
    """Element of Z_q, reduced on construction."""

    __slots__ = ("value", "q")

    def __init__(self, value: int, q: int) -> None:
        self.value = value % q
        self.q = q

    def _coerce(self, other: object) -> Optional["Scalar"]:
        if isinstance(other, Scalar):
            if other.q != self.q:
                raise ValueError("scalars from different groups")
            return other
        if isinstance(other, int):
            return Scalar(other, self.q)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else Scalar(self.value + o.value, self.q)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else Scalar(self.value - o.value, self.q)

    def __rsub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else Scalar(o.value - self.value, self.q)

    def __mul__(self, other):
        if isinstance(other, GroupElement):
            return other.group.mul(self, other)
        o = self._coerce(other)
        return NotImplemented if o is None else Scalar(self.value * o.value, self.q)

    __rmul__ = __mul__

    def __neg__(self) -> "Scalar":
        return Scalar(-self.value, self.q)

    def invert(self) -> "Scalar":
        """Multiplicative inverse mod q; zero has none."""
        if self.value == 0:
            raise ZeroDivisionError("cannot invert the zero scalar")
        return Scalar(pow(self.value, -1, self.q), self.q)

    def is_zero(self) -> bool:
        return self.value == 0

    def __int__(self) -> int:
        return self.value

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Scalar):
            return self.q == other.q and self.value == other.value
        if isinstance(other, int):
            return self.value == other % self.q
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.q, self.value))

    def __repr__(self) -> str:
        return f"Scalar({self.value})"


class GroupElement:
    """Element of a prime-order group, bound to its group instance.

    It holds the value its group computed, which on secp256k1 may be a
    Jacobian triple; `value` is the canonical one."""

    __slots__ = ("group", "_raw")

    def __init__(self, group: "Group", value) -> None:
        self.group = group
        self._raw = value

    @property
    def value(self):
        """The canonical value: on secp256k1 the affine (x, y), or None
        for the identity.  Worked out on the first read and kept."""
        value = self._raw = self.group._normalize_value(self._raw)
        return value

    def __add__(self, other):
        if not isinstance(other, GroupElement):
            return NotImplemented
        return self.group.add(self, other)

    def __sub__(self, other):
        if not isinstance(other, GroupElement):
            return NotImplemented
        return self.group.sub(self, other)

    def __neg__(self) -> "GroupElement":
        return self.group.neg(self)

    def __rmul__(self, k):
        if isinstance(k, (Scalar, int)):
            return self.group.mul(k, self)
        return NotImplemented

    __mul__ = __rmul__

    def is_identity(self) -> bool:
        return self.group.is_identity_value(self._raw)

    def encode(self) -> bytes:
        return self.group.encode_element(self)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GroupElement):
            return NotImplemented
        # descriptor equality, not instance identity: elements decoded
        # through two loads of the same params must compare equal.  X is
        # Y iff X - Y is the identity, uncounted, which on secp256k1 the
        # addition finds at its first test, with no inversion
        group = self.group
        return (group.descriptor == other.group.descriptor
                and group.is_identity_value(
                    group._add_value(self._raw, group._neg_value(other._raw))))

    def __hash__(self) -> int:
        return hash((self.group.descriptor.name, self.encode()))

    def __repr__(self) -> str:
        return f"GroupElement({self.group.descriptor.name}, {self.value!r})"


# the draw for Group.random_scalar when its caller passes no rng: the
# os.urandom-backed class that the secrets module re-exports
_system_rng = random.SystemRandom()


class Group:
    """Abstract prime-order cyclic group with canonical byte encodings.

    Subclasses fill in the value-level arithmetic (`_add_value` and
    friends); this base class owns scalar handling, encode/decode
    validation, and scoped operation counting.
    """

    descriptor: GroupDescriptor

    def __init__(self) -> None:
        # the innermost scope of the current thread (context); None while
        # no scope is open or counting is paused
        self._scope: contextvars.ContextVar[Optional[OpCounter]] = \
            contextvars.ContextVar(f"hsc-op-counter-{id(self):x}", default=None)

    # -- counting scopes --------------------------------------------------

    @contextlib.contextmanager
    def counting(self) -> Iterator[OpCounter]:
        """Count operations until the scope exits.

        Scopes nest (the innermost one receives the tallies) and are
        confined to the thread (context) that opened them.
        """
        counter = OpCounter()
        token = self._scope.set(counter)
        try:
            yield counter
        finally:
            self._scope.reset(token)

    @contextlib.contextmanager
    def counter_paused(self) -> Iterator[None]:
        """Suspend counting for a sub-computation.

        Used where an algorithm's published cost accounting attributes an
        interior step (e.g. re-deriving a key-binding hash) to a different
        phase.
        """
        token = self._scope.set(None)
        try:
            yield
        finally:
            self._scope.reset(token)

    def _tally(self, field: str) -> None:
        counter = self._scope.get()
        if counter is not None:
            setattr(counter, field, getattr(counter, field) + 1)

    def count_hash_call(self) -> None:
        """Hook for the hash oracles, which share the group's scope."""
        self._tally("hash_calls")

    # -- scalars -----------------------------------------------------------

    def scalar(self, value: int) -> Scalar:
        return Scalar(value, self.descriptor.q)

    def random_scalar(self, rng=None) -> Scalar:
        """Uniform scalar in [1, q-1]; never zero.

        `rng` is anything with randrange(), e.g. a seeded random.Random
        for reproducible tests; without it the draw comes from the OS
        CSPRNG (random.SystemRandom, which reads os.urandom).
        """
        return self.scalar((rng or _system_rng).randrange(1, self.descriptor.q))

    def encode_scalar(self, s: Scalar) -> bytes:
        return s.value.to_bytes(self.descriptor.scalar_len, "big")

    def decode_scalar(self, data: bytes) -> Scalar:
        if len(data) != self.descriptor.scalar_len:
            raise WrongLengthError(
                f"scalar needs {self.descriptor.scalar_len} bytes, got {len(data)}"
            )
        value = int.from_bytes(data, "big")
        if value >= self.descriptor.q:
            raise NonCanonicalScalarError("scalar encoding >= group order")
        return Scalar(value, self.descriptor.q)

    # -- element arithmetic (counted) ---------------------------------------

    def mul(self, k, X: GroupElement) -> GroupElement:
        """Scalar multiplication k*X.  Counts one scalar_mult."""
        if isinstance(k, Scalar):
            k = k.value
        self._tally("scalar_mults")
        return GroupElement(self, self._mul_value(k % self.descriptor.q, X.value))

    def add(self, X: GroupElement, Y: GroupElement) -> GroupElement:
        """Group law X+Y.  Counts one group_add."""
        self._tally("group_adds")
        return GroupElement(self, self._add_value(X._raw, Y._raw))

    def sub(self, X: GroupElement, Y: GroupElement) -> GroupElement:
        """X + (-Y), counted as a single group_add."""
        self._tally("group_adds")
        return GroupElement(self, self._add_value(X._raw, self._neg_value(Y._raw)))

    def neg(self, X: GroupElement) -> GroupElement:
        return GroupElement(self, self._neg_value(X._raw))

    def generator(self) -> GroupElement:
        return GroupElement(self, self._generator_value())

    def identity(self) -> GroupElement:
        return GroupElement(self, self._identity_value())

    def is_identity_value(self, value) -> bool:
        return value == self._identity_value()

    # -- encodings -----------------------------------------------------------

    def encode_element(self, X: GroupElement) -> bytes:
        data = self._encode_value(X.value)
        assert len(data) == self.descriptor.element_len
        return data

    def decode_element(self, data: bytes) -> GroupElement:
        if len(data) != self.descriptor.element_len:
            raise WrongLengthError(
                f"element needs {self.descriptor.element_len} bytes, got {len(data)}"
            )
        return GroupElement(self, self._decode_value(data))

    # -- subclass surface ------------------------------------------------------
    # A subclass defines _generator_value() and _identity_value(),
    # _add_value(xv, yv) and _neg_value(xv), which take the values elements
    # hold, _mul_value(k, xv) and _encode_value(xv), which take canonical
    # ones, and _decode_value(data); it may override _normalize_value and
    # is_identity_value

    def _normalize_value(self, xv):
        return xv


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for the word-sized toy moduli."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class ToyGroup(Group):
    """Additive integers mod a small prime q, generator 1.

    Every element IS its discrete log, so results can be checked against
    bare modular arithmetic.  Strictly for tests and worked examples.
    """

    def __init__(self, q: int) -> None:
        super().__init__()
        if not _is_prime(q):
            raise ValueError(f"toy group order must be prime, got {q}")
        # below 13 some (master key, identity) pairs have no t with
        # t + s*H1(id, t*P) != 0, so CLC extraction would never return
        if q < 13:
            raise ValueError(f"toy group order must be at least 13, got {q}")
        nbytes = (q.bit_length() + 7) // 8
        self.descriptor = GroupDescriptor(
            name=f"toy-{q}", q=q, scalar_len=nbytes, element_len=nbytes
        )

    def element(self, value: int) -> GroupElement:
        """Element from its residue; convenience for tests."""
        if not 0 <= value < self.descriptor.q:
            raise ValueError("residue out of range")
        return GroupElement(self, value)

    def _generator_value(self) -> int:
        return 1

    def _identity_value(self) -> int:
        return 0

    def _add_value(self, xv: int, yv: int) -> int:
        return (xv + yv) % self.descriptor.q

    def _neg_value(self, xv: int) -> int:
        return -xv % self.descriptor.q

    def _mul_value(self, k: int, xv: int) -> int:
        return k * xv % self.descriptor.q

    def _encode_value(self, xv: int) -> bytes:
        return xv.to_bytes(self.descriptor.element_len, "big")

    def _decode_value(self, data: bytes) -> int:
        value = int.from_bytes(data, "big")
        if value >= self.descriptor.q:
            raise OffGroupError("toy element encoding >= q")
        return value


# -- secp256k1: y^2 = x^3 + 7 over F_p, prime order N --------------------------

_P = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEFFFFFC2F
_N = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141
_GX = 0x79BE667EF9DCBBAC55A06295CE870B07029BFCDB2DCE28D959F2815B16F81798
_GY = 0x483ADA7726A3C4655DA4FBFC0E1108A8FD17B448A68554199C47D08FFB10D4B8
_B = 7

# affine points are (x, y) tuples; None is the point at infinity
_INFINITY_ENCODING = b"\x00" * 33
# a fixed-window table entry packs the affine (x, y) as x << 256 | y, which
# is also its 64-byte big-endian record in the generator's table file
_MASK256 = (1 << 256) - 1


def _jac_double(X1, Y1, Z1):
    # dbl-2009-l for a = 0 in its S/M form (Guide to ECC, Alg. 3.21):
    # S = 4*X1*Y1^2 replaces 2*((X1+Y1^2)^2 - X1^2 - Y1^4).  A reduction
    # mod p costs more than a 256-bit product, so only the six values
    # that are multiplied again or returned are reduced; YY^2 (512 bits)
    # feeds only Y3's sum and stays unreduced.  The identity (Z1 = 0)
    # doubles to Z3 = 0.
    p = _P
    YY = Y1 * Y1 % p
    S = 4 * X1 * YY % p
    M = 3 * X1 * X1 % p
    X3 = (M * M - 2 * S) % p
    Y3 = (M * (S - X3) - 8 * YY * YY) % p
    Z3 = 2 * Y1 * Z1 % p
    return X3, Y3, Z3


def _jac_madd(X1, Y1, Z1, x2, y2):
    # madd-2007-bl, Jacobian plus affine (Z2 = 1), without its factors of
    # 2 and 4 (Guide to ECC, Alg. 3.22): r = S2 - Y1, HH = H^2,
    # HHH = H*HH, Z3 = Z1*H, a representative of the same affine point.
    # Z1*Z1Z1 is reduced before y2 multiplies it, so no product exceeds
    # 512 bits; HHH is reduced because Y1*HHH would otherwise reach 768
    # bits.  H and r are reduced before the tests: the inputs coincide
    # (double) when both are 0 and are opposite (identity) when only H is.
    if Z1 == 0:
        return x2, y2, 1
    p = _P
    Z1Z1 = Z1 * Z1 % p
    H = (x2 * Z1Z1 - X1) % p
    r = (y2 * (Z1 * Z1Z1 % p) - Y1) % p
    if H == 0:
        if r == 0:
            return _jac_double(X1, Y1, Z1)
        return 0, 1, 0
    HH = H * H % p
    HHH = H * HH % p
    V = X1 * HH % p
    X3 = (r * r - HHH - 2 * V) % p
    Y3 = (r * (V - X3) - Y1 * HHH) % p
    Z3 = Z1 * H % p
    return X3, Y3, Z3


def _jac_add(X1, Y1, Z1, X2, Y2, Z2):
    # add-2007-bl, Jacobian plus Jacobian, without its factors of 2 as in
    # _jac_madd: HH = H^2, r = S2 - S1 and Z3 = Z1*Z2*H in place of
    # (2H)^2, 2*(S2 - S1) and ((Z1+Z2)^2 - Z1Z1 - Z2Z2)*H, a representative
    # of the same affine point.  Either side may be the identity (Z = 0);
    # H and r are reduced before the tests, as in _jac_madd.
    if Z1 == 0:
        return X2, Y2, Z2
    if Z2 == 0:
        return X1, Y1, Z1
    p = _P
    Z1Z1 = Z1 * Z1 % p
    Z2Z2 = Z2 * Z2 % p
    U1 = X1 * Z2Z2 % p
    S1 = Y1 * (Z2 * Z2Z2 % p) % p
    H = (X2 * Z1Z1 - U1) % p
    r = (Y2 * (Z1 * Z1Z1 % p) - S1) % p
    if H == 0:
        if r == 0:
            return _jac_double(X1, Y1, Z1)
        return 0, 1, 0
    HH = H * H % p
    HHH = H * HH % p
    V = U1 * HH % p
    X3 = (r * r - HHH - 2 * V) % p
    Y3 = (r * (V - X3) - S1 * HHH) % p
    Z3 = Z1 * Z2 % p * H % p
    return X3, Y3, Z3


def _jac_to_affine(X, Y, Z):
    if Z == 0:
        return None
    zi = pow(Z, -1, _P)
    zi2 = zi * zi % _P
    return X * zi2 % _P, Y * zi2 % _P * zi % _P


# GLV endomorphism (Gallant-Lambert-Vanstone, CRYPTO 2001): for the cube
# root of unity _LAMBDA mod N, _LAMBDA*(x, y) = (_BETA*x, y), with _BETA a
# cube root of unity mod P.  (A1, B1) and (A2, B2) are short vectors of the
# lattice {(a, b) : a + b*_LAMBDA = 0 mod N}, the constants libsecp256k1
# uses.  The other cube root of unity would give a wrong split, so these
# integer identities are checked here; the point identity for G costs a
# scalar multiplication in every process and is checked in the tests.
# The basis has determinant N, so _glv_split's halves are at most
# (|A1| + |A2|)/2 < 2^127.35 and (|B1| + |B2|)/2 < 2^127.12 in absolute
# value; the fixed-window tables have rows for halves below 2^128.
_LAMBDA = 0x5363AD4CC05C30E0A5261C028812645A122E22EA20816678DF02967C1B23BD72
_BETA = 0x7AE96A2B657C07106E64479EAC3434E99CF0497512F58995C1396C28719501EE
_A1 = 0x3086D221A7D46BCDE86C90E49284EB15
_B1 = -0xE4437ED6010E88286F547FA90ABFE4C3
_A2 = 0x114CA50F7A8E2F3F657C1108D9D44CFD8
_B2 = _A1
if (_BETA == 1 or pow(_BETA, 3, _P) != 1 or _LAMBDA == 1 or pow(_LAMBDA, 3, _N) != 1
        or (_A1 + _B1 * _LAMBDA) % _N or (_A2 + _B2 * _LAMBDA) % _N
        or _A1 * _B2 - _A2 * _B1 != _N
        or max(abs(_A1) + abs(_A2), abs(_B1) + abs(_B2)) >= 2**129):
    raise RuntimeError("inconsistent secp256k1 GLV constants")

_WNAF_WIDTH = 5
_TABLE_SIZE = 1 << (_WNAF_WIDTH - 2)  # odd multiples 1, 3, ..., 15
# Ppub and the keys of a few peers, about 5 ms and 125 KB each once
# promoted; also the number of recent decodes _decompress keeps
_TABLE_CACHE_SIZE = 16
# A promoted point's table has width 7, digits in [-63, 64].  A GLV half
# h with |h| < 2^129 leaves a value in [-8, 8] after 18 digits (126 bits),
# one more digit with no carry: 19 rows.  Halves below 2^128, _glv_split's
# bound, need the 19th row too.
_GLV_WIDTH = 7
_GLV_ROWS = 19


def _glv_split(k: int) -> tuple[int, int]:
    """k1, k2 with k = k1 + k2*_LAMBDA (mod N), both below 2^128 in
    absolute value (Guide to ECC, Algorithm 3.74); either may be
    negative."""
    c1 = (_B2 * k + _N // 2) // _N
    c2 = (-_B1 * k + _N // 2) // _N
    return k - c1 * _A1 - c2 * _A2, -c1 * _B1 - c2 * _B2


def _wnaf(k: int) -> list[tuple[int, int]]:
    """The nonzero digits of the width-5 non-adjacent form of k >= 0, as
    (position, digit) pairs, least significant first: each digit is odd
    in [-15, 15].  A run of zero digits is skipped in one shift, its
    length read off the lowest set bit; a digit leaves k - digit
    divisible by 2^5, so the next 4 digits are 0."""
    pairs = []
    pos = 0
    while k:
        zeros = (k & -k).bit_length() - 1
        k >>= zeros
        pos += zeros
        d = k & ((1 << _WNAF_WIDTH) - 1)
        if d >= 1 << (_WNAF_WIDTH - 1):
            d -= 1 << _WNAF_WIDTH
        pairs.append((pos, d))
        k = (k - d) >> _WNAF_WIDTH
        pos += _WNAF_WIDTH
    return pairs


def _batch_inverse(values):
    """The inverses mod p of the values, none 0 mod p, from one field
    inversion (Montgomery's trick)."""
    p = _P
    prefix = [1]
    for v in values:
        prefix.append(prefix[-1] * v % p)
    inv = pow(prefix[-1], -1, p)
    out = [0] * len(values)
    for i in reversed(range(len(values))):
        out[i] = inv * prefix[i] % p
        inv = inv * values[i] % p
    return out


def _batch_affine(chain):
    """The affine points of the Jacobian points in chain, from one field
    inversion; no Z may be 0."""
    p = _P
    out = []
    for (X, Y, _), zi in zip(chain, _batch_inverse([Z for _, _, Z in chain])):
        zi2 = zi * zi % p
        out.append((X * zi2 % p, Y * zi2 % p * zi % p))
    return out


def _odd_multiples(point):
    """1X, 3X, ..., 15X for the affine point X and the same multiples of
    _LAMBDA*X, (_BETA*x, y), on one shared Z and with no field inversion:
    (table, table_lambda, u), where the entry (x', y') is the Jacobian
    point (x', y', u) of secp256k1.

    The chain adds 2X = (dx, dy, dz) by mixed addition on the isomorphic
    curve y^2 = x^3 + 7*dz^6, where 2X is (dx, dy) and X is
    (x*dz^2, y*dz^3).  Each step multiplies Z by madd's H, so scaling an
    entry by the H of every later step brings it to the last step's Z,
    Z' (libsecp256k1's ecmult_odd_multiples_table and
    ge_table_set_globalz).  The entries are then affine points of
    y^2 = x^3 + 7*u^6 for u = Z'*dz.  Neither madd nor doubling reads the
    curve constant, so a chain over the entries gives a Jacobian
    (X, Y, Z) there, which is (X, Y, Z*u) on secp256k1."""
    p = _P
    x, y = point
    dx, dy, dz = _jac_double(x, y, 1)
    dz2 = dz * dz % p
    acc = (x * dz2 % p, y * dz2 % p * dz % p, 1)
    chain = [acc]
    ratios = []
    for _ in range(_TABLE_SIZE - 1):
        X1, _, Z1 = acc
        # madd's H, Z3/Z1; never 0, since no odd multiple of X is +-2X
        ratios.append((dx * (Z1 * Z1 % p) - X1) % p)
        acc = _jac_madd(*acc, dx, dy)
        chain.append(acc)
    X, Y, Z = chain.pop()
    table = [(X, Y)]
    r = 1  # Z'/Z of the entry scaled next
    for (X, Y, _), h in zip(reversed(chain), reversed(ratios)):
        r = r * h % p
        r2 = r * r % p
        table.append((X * r2 % p, Y * r2 % p * r % p))
    table.reverse()
    return tuple(table), tuple((_BETA * x % p, y) for x, y in table), Z * dz % p


def _fixed_window_rows(point, rows: int, w: int):
    """Signed fixed window of width w for the affine point X (Guide to
    ECC, 3.3): row i < rows holds the affine points j*2^(w*i)*X for
    j = 1..2^(w-1), flattened, each packed as x << 256 | y.  One Jacobian
    doubling chain gives the row bases B_i = 2^(w*i)*X and, as its first
    step from each, the doubles 2*B_i; both are made affine with one
    inversion, and they are the table's first two columns, column j
    holding j*B_i for every row.  The other columns are built in affine
    arithmetic: while m columns are done, columns m+1 up to 2m-1 add
    column m to columns 1 to m-1.  Each such batch of columns shares one
    inversion (Montgomery's trick), so a width-7 table costs 7
    inversions."""
    p = _P
    half = 1 << (w - 1)
    x, y = point
    # no Z is 0: X has prime order, so no multiple 2^j*X is the identity
    bases = [(x, y, 1)]
    doubles = []
    while True:
        acc = _jac_double(*bases[-1])
        doubles.append(acc)
        if len(bases) == rows:
            break
        for _ in range(w - 1):
            acc = _jac_double(*acc)
        bases.append(acc)
    affine = _batch_affine(bases + doubles)
    columns = [affine[:rows], affine[rows:]]
    while len(columns) < half:
        # (m+j)*B_i = j*B_i + m*B_i; j*B_i and m*B_i share no x, since
        # 0 < j < m and j + m <= 2^(w-1) < N, with N prime
        top = columns[-1]
        batch = columns[:min(len(columns) - 1, half - len(columns))]
        invs = iter(_batch_inverse([x1 - x for col in batch
                                    for (x1, _), (x, _) in zip(col, top)]))
        for col in batch:
            column = []
            for (x1, y1), (x, y) in zip(col, top):
                s = (y1 - y) * next(invs) % p
                x3 = (s * s - x1 - x) % p
                column.append((x3, (s * (x - x3) - y) % p))
            columns.append(column)
    # column-major to the row-major layout _fixed_window_madd reads
    return tuple(x << 256 | y for x, y in itertools.chain.from_iterable(zip(*columns)))


def _fixed_window_madd(r, table, k: int, w: int):
    """The Jacobian point r + k*X from the width-w fixed-window rows of
    X: k, of either sign, recodes into signed base-2^w digits in
    [-2^(w-1)+1, 2^(w-1)], and each nonzero digit costs one mixed
    addition, with no doubling."""
    half = 1 << (w - 1)
    mask = (1 << w) - 1
    rx, ry, rz = r
    row = 0  # index of the current window's 1*2^(w*i)*X
    while k:
        d = k & mask
        k >>= w
        if d > half:
            d -= mask + 1
            k += 1
        if d > 0:
            v = table[row + d - 1]
            rx, ry, rz = _jac_madd(rx, ry, rz, v >> 256, v & _MASK256)
        elif d:
            v = table[row - d - 1]
            rx, ry, rz = _jac_madd(rx, ry, rz, v >> 256, _P - (v & _MASK256))
        row += half
    return rx, ry, rz


def _mul_wnaf(k: int, tables):
    """The Jacobian k*X for 0 < k < N from _odd_multiples(X): GLV split,
    both halves as width-5 wNAF, one shared doubling chain over the
    tables' entries, and the chain's Z times the tables' u."""
    table, table_lambda, u = tables
    k1, k2 = _glv_split(k)
    # adds[i]: the table entries to add after doubling at bit i; the k2
    # half adds multiples of _LAMBDA*X, and a negative digit or a negative
    # half adds the negated point
    adds = [[] for _ in range(max(abs(k1), abs(k2)).bit_length() + 1)]
    for half, tbl in zip((k1, k2), (table, table_lambda)):
        for i, d in _wnaf(abs(half)):
            x, y = tbl[abs(d) >> 1]
            adds[i].append((x, _P - y) if (d < 0) != (half < 0) else (x, y))
    rx, ry, rz = 0, 1, 0
    for points in reversed(adds):
        if rz:
            rx, ry, rz = _jac_double(rx, ry, rz)
        for x, y in points:
            rx, ry, rz = _jac_madd(rx, ry, rz, x, y)
    return rx, ry, rz * u % _P


def _mul_fixed(k: int, table, w: int):
    """The Jacobian k*X for 0 < k < N from the width-w fixed-window rows
    of X, with no doubling.  k splits into k1 + k2*_LAMBDA (GLV), and
    both halves read the one table: k2's digits sum to k2*X, _LAMBDA maps
    the Jacobian accumulator (X', Y', Z') to (_BETA*X', Y', Z'), and k1's
    digits are added on top."""
    k1, k2 = _glv_split(k)
    rx, ry, rz = _fixed_window_madd((0, 1, 0), table, k2, w)
    return _fixed_window_madd((_BETA * rx % _P, ry, rz), table, k1, w)


@functools.lru_cache(maxsize=_TABLE_CACHE_SIZE)
def _promotion(point):
    """The promotion slot of one of the 16 points _mul_glv multiplied
    most recently, shared by the threads of one process: empty before
    the point's first multiplication, [None] after it, and [table] once
    its second built the fixed-window table."""
    return []


def _mul_glv(k: int, point):
    """The Jacobian k*X for 0 < k < N and the affine point X.  The first
    multiplication of X builds its odd multiples and runs the wNAF chain;
    the second, while X is still cached, builds its fixed-window table,
    which it and every later one read.  Threads that race may each build
    a table; list append and item assignment are atomic, and either table
    is X's."""
    slot = _promotion(point)
    if not slot:
        slot.append(None)
        return _mul_wnaf(k, _odd_multiples(point))
    table = slot[0]
    if table is None:
        table = slot[0] = _fixed_window_rows(point, _GLV_ROWS, _GLV_WIDTH)
    return _mul_fixed(k, table, _GLV_WIDTH)


# The generator G has the same kind of table, of width 10, shipped with the
# package (libsecp256k1 ships one for ecmult_gen).  Digits lie in
# [-511, 512].  A GLV half below 2^128 leaves a value in [-256, 256] after
# 12 digits (120 bits), one more digit with no carry: 13 rows.  A half of
# -(2^129 - 1) would need a 14th, which is why the GLV bound above is
# checked at import.  scripts/gen_g_table.py writes
# _fixed_window_rows(G, _G_ROWS, _G_WIDTH), as 6,656 64-byte big-endian
# x || y records, to the file beside this module.
_G_WIDTH = 10
_G_ROWS = 13
_G_TABLE_PATH = os.path.join(os.path.dirname(__file__), "secp256k1_g_w10.bin")
_G_TABLE_SHA256 = "0dd69d80f2ddaf19e80a22b4d7e8083a2a31a9b9ef1af79742e25a51131b3bba"
# The first two k*G of a process take the first-use path of any other
# point, odd multiples of G and the wNAF chain, and only the third loads
# the table: no CLI command makes more than two, and the load (3-6 ms)
# pays for itself only after 5-9 table reads, each about 0.65 ms cheaper
# than a first use.  next() on a count is atomic under the GIL; threads
# that race past the boundary may both take the first-use path, and both
# paths give the same point.
_G_FIRST_USES = 2
_g_uses = itertools.count()


@functools.cache
def _load_g_table():
    """Read, check and parse the generator table on the third k*G of the
    process (see _G_FIRST_USES); a broken install raises
    GeneratorTableError, is not cached and does not fall back to the
    general path.  Threads that race here each parse their own copy.
    The check is a full SHA-256 of the file by CPython's own module,
    1.5-2 ms slower than OpenSSL's on a 2-core x86-64 host, which spares
    the process `hashlib`'s import: 3-6 ms and 3.6 MB of peak RSS."""
    try:
        with open(_G_TABLE_PATH, "rb") as f:
            data = f.read()
    except OSError as exc:
        raise GeneratorTableError(
            f"cannot read the secp256k1 generator table: {exc}") from exc
    if sha256(data).hexdigest() != _G_TABLE_SHA256:
        raise GeneratorTableError(f"{_G_TABLE_PATH} does not match its SHA-256 digest")
    # a 64-byte record is the packed entry x << 256 | y in big-endian;
    # "big" is passed because Python 3.10's from_bytes has no default
    return tuple(map(int.from_bytes, (r for r, in struct.iter_unpack("64s", data)),
                     itertools.repeat("big")))


@functools.lru_cache(maxsize=_TABLE_CACHE_SIZE)
def _decompress(data: bytes):
    """The affine point (or None) that the 33-byte encoding names.  The
    16 most recent accepted encodings are cached, so a peer key decoded
    again costs no square root; an encoding that raises is never cached
    and pays every check on every call."""
    if data[0] == 0x00:
        if data != _INFINITY_ENCODING:
            raise OffGroupError("non-canonical identity encoding")
        return None
    if data[0] not in (0x02, 0x03):
        raise OffGroupError(f"bad point prefix 0x{data[0]:02x}")
    x = int.from_bytes(data[1:], "big")
    if x >= _P:
        raise OffGroupError("x coordinate >= field prime")
    y_sq = (pow(x, 3, _P) + _B) % _P
    y = pow(y_sq, (_P + 1) // 4, _P)
    if y * y % _P != y_sq:
        raise OffGroupError("x coordinate is not on the curve")
    if (y & 1) != (data[0] & 1):
        y = _P - y
    return (x, y)


class Secp256k1Group(Group):
    """secp256k1 as a plain prime-order group (no ECDSA baggage).

    Canonical element encoding is 33 bytes: SEC1 compressed for proper
    points, 33 zero bytes for the identity.  Decoding rejects anything
    non-canonical instead of normalising it.

    A product or a sum is kept in Jacobian coordinates until its element
    is encoded, hashed or multiplied, which makes it affine once (see the
    module docstring); equality needs no inversion.

    Three caches last for the process and are shared by all instances
    and threads.  The generator's table is read from
    `secp256k1_g_w10.bin` on the third k*P of the process; the first two
    take the first-use path of any other point.  The 16 most recently
    multiplied points keep their promotion slots, so Ppub and repeated
    peer keys get a table of their own on their second multiplication,
    and a point used once, as in a one-shot CLI command, never pays the
    build.  The 16 most recently accepted encodings keep their decoded
    points, so a peer key decoded again skips the square root.  Threads
    that race for a table may each build one, and every copy is equal.
    Rejected encodings are never cached and are checked in full each
    time.  A missing table file, or one that does not match its SHA-256
    digest, raises GeneratorTableError, a RuntimeError that the CLI
    reports with exit code 4, on the third k*P and again on every later
    one, since a failed load is not cached.  So only a process that gets
    past its second k*P, such as `hsc bench`, a demo server or a library
    user, reports a broken table; a one-shot command never reads it and
    succeeds with correct output.  The module docstring gives the
    multiplication paths and their costs.
    """

    def __init__(self) -> None:
        super().__init__()
        self.descriptor = GroupDescriptor(
            name="secp256k1", q=_N, scalar_len=32, element_len=33
        )

    def _generator_value(self):
        return (_GX, _GY)

    def _identity_value(self):
        return None

    # an element holds None, an affine (x, y) or a Jacobian (X, Y, Z)

    def _normalize_value(self, xv):
        if xv is not None and len(xv) == 3:
            return _jac_to_affine(*xv)
        return xv

    def is_identity_value(self, xv) -> bool:
        return xv is None or len(xv) == 3 and xv[2] == 0

    def _add_value(self, xv, yv):
        if xv is None:
            return yv
        if yv is None:
            return xv
        if len(xv) == 2:
            xv, yv = yv, xv  # madd takes its affine side second
        if len(yv) == 3:
            return _jac_add(*xv, *yv)
        return _jac_madd(*xv, *yv) if len(xv) == 3 else _jac_madd(*xv, 1, *yv)

    def _neg_value(self, xv):
        if xv is None:
            return None
        return (xv[0], _P - xv[1], *xv[2:])

    def _mul_value(self, k: int, xv):
        if xv is None or k == 0:
            return None
        if xv == (_GX, _GY):
            if next(_g_uses) < _G_FIRST_USES:
                return _mul_wnaf(k, _odd_multiples(xv))
            return _mul_fixed(k, _load_g_table(), _G_WIDTH)
        return _mul_glv(k, xv)

    def _encode_value(self, xv) -> bytes:
        if xv is None:
            return _INFINITY_ENCODING
        x, y = xv
        prefix = b"\x03" if y & 1 else b"\x02"
        return prefix + x.to_bytes(32, "big")

    def _decode_value(self, data: bytes):
        return _decompress(bytes(data))


def make_group(name: str) -> Group:
    """Instantiate a group from its descriptor name ("secp256k1", "toy-13")."""
    if name == "secp256k1":
        return Secp256k1Group()
    if name.startswith("toy-"):
        try:
            q = int(name[4:])
        except ValueError:
            raise ValueError(f"malformed toy group name {name!r}") from None
        # int() also takes "013", "1_3", "+13" and spaces; only the name
        # the group reports for itself is accepted
        if name != f"toy-{q}":
            raise ValueError(f"malformed toy group name {name!r}")
        return ToyGroup(q)
    raise ValueError(f"unknown group {name!r}")
