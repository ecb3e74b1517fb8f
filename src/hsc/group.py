"""Prime-order cyclic groups used by the signcryption schemes.

Two interchangeable instantiations sit behind one interface:

- :class:`Secp256k1Group` -- the production group.  secp256k1 has a prime
  order (cofactor 1), so the whole curve is the group.  Arithmetic is pure
  Python in Jacobian coordinates.  Scalar multiplication splits k with the
  GLV endomorphism into two ~128-bit halves, recodes each as width-5 wNAF
  and runs one shared doubling chain, adding affine odd multiples of the
  point with mixed Jacobian-affine additions; the odd-multiples table of
  each point is built with one inversion and kept in a small LRU cache.
  This is research-grade code; it is NOT constant-time and must not be
  used where side channels matter.

- :class:`ToyGroup` -- the additive group of integers modulo a small prime
  q with generator 1.  Cryptographically worthless, but every operation
  equals plain modular arithmetic, which makes hand-checkable test vectors
  and brute-force oracles possible.

Scalars live in Z_q for the group order q.  Group elements and scalars are
immutable and safe to share between threads.  Operation counting
(:meth:`Group.counting`) is kept per thread (per context): enter a scope,
run one algorithm, read the tallies; other threads using the same group
meanwhile neither add to them nor see them.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
from dataclasses import dataclass
from typing import Iterator, Optional


class DecodeError(ValueError):
    """Base class for scalar/element decoding failures."""


class WrongLengthError(DecodeError):
    """Encoded input has the wrong number of bytes."""


class NonCanonicalScalarError(DecodeError):
    """Scalar encoding is out of range (value >= q)."""


class OffGroupError(DecodeError):
    """Element encoding does not name a group element."""


@dataclass(frozen=True)
class GroupDescriptor:
    """Public shape of a group: order and canonical encoding widths."""

    name: str
    q: int
    scalar_len: int
    element_len: int


@dataclass
class OpCounter:
    """Tallies of the operations that dominate runtime cost.

    scalar_mults counts scalar-by-element multiplications, group_adds
    counts element additions/subtractions, hash_calls counts oracle
    invocations.  Counters only move while their scope is active.
    """

    scalar_mults: int = 0
    group_adds: int = 0
    hash_calls: int = 0


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
    """Element of a prime-order group, bound to its group instance."""

    __slots__ = ("group", "value")

    def __init__(self, group: "Group", value) -> None:
        self.group = group
        self.value = value

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
        return self.group.is_identity_value(self.value)

    def encode(self) -> bytes:
        return self.group.encode_element(self)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GroupElement):
            return NotImplemented
        # descriptor equality, not instance identity: elements decoded
        # through two loads of the same params must compare equal
        return (self.group.descriptor == other.group.descriptor
                and self.value == other.value)

    def __hash__(self) -> int:
        return hash((self.group.descriptor.name, self.encode()))

    def __repr__(self) -> str:
        return f"GroupElement({self.group.descriptor.name}, {self.value!r})"


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

    def random_scalar(self, rng) -> Scalar:
        """Uniform scalar in [1, q-1]; never zero.

        `rng` is anything with randrange(), e.g. secrets.SystemRandom()
        or a seeded random.Random for reproducible tests.
        """
        return Scalar(rng.randrange(1, self.descriptor.q), self.descriptor.q)

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
        return GroupElement(self, self._add_value(X.value, Y.value))

    def sub(self, X: GroupElement, Y: GroupElement) -> GroupElement:
        """X + (-Y), counted as a single group_add."""
        self._tally("group_adds")
        return GroupElement(self, self._add_value(X.value, self._neg_value(Y.value)))

    def neg(self, X: GroupElement) -> GroupElement:
        return GroupElement(self, self._neg_value(X.value))

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

    def _generator_value(self):
        raise NotImplementedError

    def _identity_value(self):
        raise NotImplementedError

    def _add_value(self, xv, yv):
        raise NotImplementedError

    def _neg_value(self, xv):
        raise NotImplementedError

    def _mul_value(self, k: int, xv):
        raise NotImplementedError

    def _encode_value(self, xv) -> bytes:
        raise NotImplementedError

    def _decode_value(self, data: bytes):
        raise NotImplementedError


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


def _jac_double(X1, Y1, Z1):
    # dbl-2009-l, a = 0
    p = _P
    A = X1 * X1 % p
    B = Y1 * Y1 % p
    C = B * B % p
    D = 2 * ((X1 + B) * (X1 + B) - A - C) % p
    E = 3 * A % p
    F = E * E % p
    X3 = (F - 2 * D) % p
    Y3 = (E * (D - X3) - 8 * C) % p
    Z3 = 2 * Y1 * Z1 % p
    return X3, Y3, Z3


def _jac_madd(X1, Y1, Z1, x2, y2):
    # madd-2007-bl: Jacobian plus affine (Z2 = 1), with Z3 = 2*Z1*H in
    # place of (Z1+H)^2-Z1Z1-HH; doubles when the inputs coincide and
    # gives the identity when they are opposite
    if Z1 == 0:
        return x2, y2, 1
    p = _P
    Z1Z1 = Z1 * Z1 % p
    H = (x2 * Z1Z1 - X1) % p
    r = 2 * (y2 * Z1 * Z1Z1 - Y1) % p
    if H == 0:
        if r == 0:
            return _jac_double(X1, Y1, Z1)
        return 0, 1, 0
    I = 4 * H * H % p
    J = H * I % p
    V = X1 * I % p
    X3 = (r * r - J - 2 * V) % p
    Y3 = (r * (V - X3) - 2 * Y1 * J) % p
    Z3 = 2 * Z1 * H % p
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
_LAMBDA = 0x5363AD4CC05C30E0A5261C028812645A122E22EA20816678DF02967C1B23BD72
_BETA = 0x7AE96A2B657C07106E64479EAC3434E99CF0497512F58995C1396C28719501EE
_A1 = 0x3086D221A7D46BCDE86C90E49284EB15
_B1 = -0xE4437ED6010E88286F547FA90ABFE4C3
_A2 = 0x114CA50F7A8E2F3F657C1108D9D44CFD8
_B2 = _A1
if (_BETA == 1 or pow(_BETA, 3, _P) != 1 or _LAMBDA == 1 or pow(_LAMBDA, 3, _N) != 1
        or (_A1 + _B1 * _LAMBDA) % _N or (_A2 + _B2 * _LAMBDA) % _N):
    raise RuntimeError("inconsistent secp256k1 GLV constants")

_WNAF_WIDTH = 5
_TABLE_SIZE = 1 << (_WNAF_WIDTH - 2)  # odd multiples 1, 3, ..., 15
# P, Ppub and the keys of a few peers, a few KB each
_TABLE_CACHE_SIZE = 16


def _glv_split(k: int) -> tuple[int, int]:
    """k1, k2 with k = k1 + k2*_LAMBDA (mod N), both below 2^129 in
    absolute value (Guide to ECC, Algorithm 3.74); either may be
    negative."""
    c1 = (_B2 * k + _N // 2) // _N
    c2 = (-_B1 * k + _N // 2) // _N
    return k - c1 * _A1 - c2 * _A2, -c1 * _B1 - c2 * _B2


def _wnaf(k: int) -> list[int]:
    """Width-5 non-adjacent form of k >= 0, least significant digit
    first: each digit is 0 or odd in [-15, 15]."""
    digits = []
    while k:
        if k & 1:
            d = k & ((1 << _WNAF_WIDTH) - 1)
            if d >= 1 << (_WNAF_WIDTH - 1):
                d -= 1 << _WNAF_WIDTH
            k -= d
        else:
            d = 0
        digits.append(d)
        k >>= 1
    return digits


@functools.lru_cache(maxsize=_TABLE_CACHE_SIZE)
def _odd_multiples(point):
    """Affine 1X, 3X, ..., 15X for the affine point X, and the same
    multiples of _LAMBDA*X, from one field inversion."""
    p = _P
    x, y = point
    # 2X = (dx, dy, dz) is the affine point (dx, dy) on the isomorphic
    # curve y^2 = x^3 + 7*dz^6, where X is (x*dz^2, y*dz^3).  Neither madd
    # nor the a = 0 doubling reads the curve constant, so the chain runs
    # there; a sum (X', Y', Z') there is (X', Y', Z'*dz) on secp256k1.
    dx, dy, dz = _jac_double(x, y, 1)
    dz2 = dz * dz % p
    acc = (x * dz2 % p, y * dz2 % p * dz % p, 1)
    chain = [acc]
    for _ in range(_TABLE_SIZE - 1):
        acc = _jac_madd(*acc, dx, dy)
        chain.append(acc)
    zs = [Z * dz % p for _, _, Z in chain]
    # Montgomery's trick: every 1/Z from one inversion of their product
    prefix = [1]
    for z in zs:
        prefix.append(prefix[-1] * z % p)
    inv = pow(prefix[-1], -1, p)
    table = [None] * _TABLE_SIZE
    for i in reversed(range(_TABLE_SIZE)):
        zi = inv * prefix[i] % p
        inv = inv * zs[i] % p
        X, Y, _ = chain[i]
        zi2 = zi * zi % p
        table[i] = (X * zi2 % p, Y * zi2 % p * zi % p)
    return tuple(table), tuple((_BETA * tx % p, ty) for tx, ty in table)


class Secp256k1Group(Group):
    """secp256k1 as a plain prime-order group (no ECDSA baggage).

    Canonical element encoding is 33 bytes: SEC1 compressed for proper
    points, 33 zero bytes for the identity.  Decoding rejects anything
    non-canonical instead of normalising it.

    k*X splits k into k1 + k2*lambda with halves below 2^129 (GLV),
    recodes both as width-5 wNAF and runs one doubling chain of about
    129 steps for both, adding affine odd multiples of X and of
    lambda*X with mixed Jacobian-affine additions (madd-2007-bl).  The
    table of odd multiples costs one inversion and is cached for the 16
    most recently used points, shared by all instances, so the fixed
    bases P and Ppub and repeated peer keys build it once.
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

    def _add_value(self, xv, yv):
        if xv is None:
            return yv
        if yv is None:
            return xv
        return _jac_to_affine(*_jac_madd(xv[0], xv[1], 1, yv[0], yv[1]))

    def _neg_value(self, xv):
        if xv is None:
            return None
        return (xv[0], _P - xv[1])

    def _mul_value(self, k: int, xv):
        if xv is None or k == 0:
            return None
        k1, k2 = _glv_split(k)
        table, table_lambda = _odd_multiples(xv)
        # adds[i]: the affine points to add after doubling at bit i; the
        # k2 half adds multiples of _LAMBDA*X, and a negative digit or a
        # negative half adds the negated point
        adds = [[] for _ in range(max(abs(k1), abs(k2)).bit_length() + 1)]
        for half, tbl in ((k1, table), (k2, table_lambda)):
            for i, d in enumerate(_wnaf(abs(half))):
                if d:
                    x, y = tbl[abs(d) >> 1]
                    adds[i].append((x, _P - y) if (d < 0) != (half < 0) else (x, y))
        rx, ry, rz = 0, 1, 0
        for points in reversed(adds):
            if rz:
                rx, ry, rz = _jac_double(rx, ry, rz)
            for x, y in points:
                rx, ry, rz = _jac_madd(rx, ry, rz, x, y)
        return _jac_to_affine(rx, ry, rz)

    def _encode_value(self, xv) -> bytes:
        if xv is None:
            return _INFINITY_ENCODING
        x, y = xv
        prefix = b"\x03" if y & 1 else b"\x02"
        return prefix + x.to_bytes(32, "big")

    def _decode_value(self, data: bytes):
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


def make_group(name: str) -> Group:
    """Instantiate a group from its descriptor name ("secp256k1", "toy-13")."""
    if name == "secp256k1":
        return Secp256k1Group()
    if name.startswith("toy-"):
        try:
            q = int(name[4:])
        except ValueError:
            raise ValueError(f"malformed toy group name {name!r}") from None
        return ToyGroup(q)
    raise ValueError(f"unknown group {name!r}")
