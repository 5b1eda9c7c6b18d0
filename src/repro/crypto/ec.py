"""The secp256r1 (NIST P-256) elliptic-curve group.

Implements point addition/doubling in Jacobian coordinates, scalar
multiplication, on-curve validation, and SEC1 uncompressed point encoding.
This is the group behind the paper's key exchange (ECDH with secp256r1) and
signatures (ECDSA with secp256r1), per §5.6.

Scalar multiplication takes one of three paths:

- ``k * G`` (no point given: key generation, signing) walks a table of
  ``j * 16^i * G`` for every 4-bit window ``i`` and digit ``j``: at most 64
  mixed Jacobian+affine additions and no doublings.  The table (64 x 15
  affine points) is built on the first multiply by G, with one batch
  inversion, and kept for the life of the process.
- ``k * Q`` for a given point (ECDH shared secrets) runs a width-5 wNAF
  over the affine odd multiples ``Q, 3Q, ..., 15Q``.
- ``u1 * G + u2 * Q`` (:meth:`_P256.mul_add`, ECDSA verification) is one
  Strauss-Shamir pass sharing its doublings between a width-7 wNAF of
  ``u1`` over odd multiples of G (built once, lazily) and a width-5 wNAF of
  ``u2`` over odd multiples of Q.

None of this is constant-time: table lookups, branch patterns and big-int
operation lengths all depend on the scalar.  That is fine for a simulator
whose adversary is a fault injector; it is not a production implementation.

Performance note: in pure-Python big-int arithmetic ``k * G`` takes well
under a millisecond and ``k * Q`` or a verify a couple of milliseconds on
a 2-vCPU host.  Virtual-time costs come from the cost model, not from
these timings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import CryptoError

# secp256r1 domain parameters (SEC 2, version 2).
P = 0xFFFFFFFF00000001000000000000000000000000FFFFFFFFFFFFFFFFFFFFFFFF
A = P - 3
B = 0x5AC635D8AA3A93E7B3EBBD55769886BC651D06B0CC53B0F63BCE3C3E27D2604B
N = 0xFFFFFFFF00000000FFFFFFFFFFFFFFFFBCE6FAADA7179E84F3B9CAC2FC632551
GX = 0x6B17D1F2E12C4247F8BCE6E563A440F277037D812DEB33A0F4A13945D898C296
GY = 0x4FE342E2FE1A7F9B8EE7EB4A7C0F9E162BCE33576B315ECECBB6406837BF51F5

#: wNAF widths: variable points (and Q in mul_add), and G in mul_add.
_W_POINT = 5
_W_BASE = 7


@dataclass(frozen=True)
class ECPoint:
    """An affine point on P-256, or the point at infinity (x = y = None)."""

    x: Optional[int]
    y: Optional[int]

    @property
    def is_infinity(self) -> bool:
        return self.x is None

    def encode(self) -> bytes:
        """SEC1 uncompressed encoding: 0x04 || X || Y (65 bytes)."""
        if self.is_infinity:
            raise CryptoError("cannot encode the point at infinity")
        return b"\x04" + self.x.to_bytes(32, "big") + self.y.to_bytes(32, "big")

    @staticmethod
    def decode(data: bytes) -> "ECPoint":
        """Parse SEC1 uncompressed encoding and validate on-curve."""
        if len(data) != 65 or data[0] != 0x04:
            raise CryptoError("expected 65-byte uncompressed point")
        x = int.from_bytes(data[1:33], "big")
        y = int.from_bytes(data[33:], "big")
        point = ECPoint(x, y)
        if not P256.is_on_curve(point):
            raise CryptoError("point is not on secp256r1")
        return point


INFINITY = ECPoint(None, None)


# -- Jacobian arithmetic -------------------------------------------------------
# (X, Y, Z) represents affine (X/Z^2, Y/Z^3); infinity is Z == 0.  Table
# entries are affine (x, y) tuples.


def _double(x1: int, y1: int, z1: int) -> tuple[int, int, int]:
    if not y1 or not z1:
        return (0, 0, 0)
    ysq = (y1 * y1) % P
    s = (4 * x1 * ysq) % P
    zsq = (z1 * z1) % P
    # a = -3 special case: M = 3(X - Z^2)(X + Z^2)
    m = (3 * (x1 - zsq) * (x1 + zsq)) % P
    nx = (m * m - 2 * s) % P
    ny = (m * (s - nx) - 8 * ysq * ysq) % P
    nz = (2 * y1 * z1) % P
    return (nx, ny, nz)


def _add(x1: int, y1: int, z1: int, x2: int, y2: int, z2: int) -> tuple[int, int, int]:
    if not z1:
        return (x2, y2, z2)
    if not z2:
        return (x1, y1, z1)
    z1sq = (z1 * z1) % P
    z2sq = (z2 * z2) % P
    u1 = (x1 * z2sq) % P
    u2 = (x2 * z1sq) % P
    s1 = (y1 * z2sq * z2) % P
    s2 = (y2 * z1sq * z1) % P
    if u1 == u2:
        if s1 != s2:
            return (0, 0, 0)  # P + (-P) = infinity
        return _double(x1, y1, z1)
    h = (u2 - u1) % P
    r = (s2 - s1) % P
    hsq = (h * h) % P
    hcu = (hsq * h) % P
    u1hsq = (u1 * hsq) % P
    nx = (r * r - hcu - 2 * u1hsq) % P
    ny = (r * (u1hsq - nx) - s1 * hcu) % P
    nz = (h * z1 * z2) % P
    return (nx, ny, nz)


def _add_affine(x1: int, y1: int, z1: int, x2: int, y2: int) -> tuple[int, int, int]:
    """Jacobian (x1, y1, z1) plus affine (x2, y2): the mixed addition."""
    if not z1:
        return (x2, y2, 1)
    z1sq = (z1 * z1) % P
    u2 = (x2 * z1sq) % P
    s2 = (y2 * z1sq * z1) % P
    if u2 == x1:
        if s2 != y1:
            return (0, 0, 0)  # P + (-P) = infinity
        return _double(x1, y1, z1)
    h = (u2 - x1) % P
    r = (s2 - y1) % P
    hsq = (h * h) % P
    hcu = (hsq * h) % P
    u1hsq = (x1 * hsq) % P
    nx = (r * r - hcu - 2 * u1hsq) % P
    ny = (r * (u1hsq - nx) - y1 * hcu) % P
    nz = (h * z1) % P
    return (nx, ny, nz)


def _to_affine(x: int, y: int, z: int) -> ECPoint:
    if not z:
        return INFINITY
    zinv = pow(z, -1, P)
    zinv2 = (zinv * zinv) % P
    return ECPoint((x * zinv2) % P, (y * zinv2 * zinv) % P)


def _batch_to_affine(points: list[tuple[int, int, int]]) -> list[tuple[int, int]]:
    """Affine (x, y) of finite Jacobian points, with one modular inversion
    (Montgomery's trick)."""
    prefix = []
    acc = 1
    for _, _, z in points:
        prefix.append(acc)
        acc = (acc * z) % P
    inv = pow(acc, -1, P)
    out = [None] * len(points)
    for i in range(len(points) - 1, -1, -1):
        x, y, z = points[i]
        zinv = (inv * prefix[i]) % P
        inv = (inv * z) % P
        zinv2 = (zinv * zinv) % P
        out[i] = ((x * zinv2) % P, (y * zinv2 * zinv) % P)
    return out


def _signed_multiples(x: int, y: int, w: int) -> list:
    """Lookup by wNAF digit: ``table[d]`` is affine ``d * (x, y)`` for every
    odd ``d`` with ``|d| < 2^(w-1)``; negative ``d`` index from the end."""
    twice = _double(x, y, 1)
    jac = [(x, y, 1)]
    for _ in range((1 << (w - 2)) - 1):
        jac.append(_add(*jac[-1], *twice))
    table = [None] * (1 << w)
    for d, (ax, ay) in zip(range(1, 1 << w, 2), _batch_to_affine(jac)):
        table[d] = (ax, ay)
        table[-d] = (ax, P - ay)
    return table


def _wnaf(k: int, w: int) -> list[int]:
    """Width-``w`` non-adjacent form of ``k >= 0``, least significant digit
    first; every nonzero digit is odd with absolute value below 2^(w-1)."""
    half, full = 1 << (w - 1), 1 << w
    digits = []
    while k:
        if k & 1:
            d = k & (full - 1)
            if d >= half:
                d -= full
            k -= d
        else:
            d = 0
        digits.append(d)
        k >>= 1
    return digits


def _comb_table() -> list[list[tuple[int, int]]]:
    """``table[i][j - 1]`` is affine ``j * 16^i * G`` for ``j`` in 1..15."""
    jac = []
    base = (GX, GY, 1)
    for _ in range(64):
        row = [base, _double(*base)]
        for _ in range(13):
            row.append(_add(*row[-1], *base))
        jac += row
        base = _double(*row[7])  # 16 * base
    flat = _batch_to_affine(jac)
    return [flat[i : i + 15] for i in range(0, len(flat), 15)]


class _P256:
    """Group operations.  Exposed as the module-level singleton ``P256``."""

    p = P
    n = N
    generator = ECPoint(GX, GY)

    # Built on first use (see the module docstring), never at import.
    _comb: Optional[list[list[tuple[int, int]]]] = None
    _g_signed: Optional[list] = None

    @staticmethod
    def is_on_curve(point: ECPoint) -> bool:
        if point.is_infinity:
            return True
        x, y = point.x, point.y
        if not (0 <= x < P and 0 <= y < P):
            return False
        return (y * y - (x * x * x + A * x + B)) % P == 0

    # -- public operations -----------------------------------------------------

    @classmethod
    def add(cls, a: ECPoint, b: ECPoint) -> ECPoint:
        ja = (a.x, a.y, 1) if not a.is_infinity else (0, 0, 0)
        jb = (b.x, b.y, 1) if not b.is_infinity else (0, 0, 0)
        return _to_affine(*_add(*ja, *jb))

    @classmethod
    def scalar_mult(cls, k: int, point: Optional[ECPoint] = None) -> ECPoint:
        """Compute k * point (default: the generator).

        The default takes the fixed-base table, a given point a width-5 wNAF.
        """
        if point is None:
            k %= N
            if not k:
                return INFINITY
            return cls._mult_base(k)
        if not cls.is_on_curve(point):
            raise CryptoError("scalar_mult on a point off the curve")
        k %= N
        if point.is_infinity or not k:
            return INFINITY
        table = _signed_multiples(point.x, point.y, _W_POINT)
        x, y, z = 0, 0, 0
        for d in reversed(_wnaf(k, _W_POINT)):
            x, y, z = _double(x, y, z)
            if d:
                x, y, z = _add_affine(x, y, z, *table[d])
        return _to_affine(x, y, z)

    @classmethod
    def _mult_base(cls, k: int) -> ECPoint:
        """k * G for 0 < k < N, from the fixed-base table."""
        comb = cls._comb
        if comb is None:
            comb = _P256._comb = _comb_table()
        x, y, z = 0, 0, 0
        for row in comb:
            j = k & 15
            if j:
                x, y, z = _add_affine(x, y, z, *row[j - 1])
            k >>= 4
            if not k:
                break
        return _to_affine(x, y, z)

    @classmethod
    def mul_add(cls, u1: int, u2: int, point: ECPoint) -> ECPoint:
        """Compute u1 * G + u2 * point in one pass (Strauss-Shamir).

        ``point`` must be a finite point on the curve; the result may be the
        point at infinity, which callers such as ECDSA verification reject.
        """
        if point.is_infinity or not cls.is_on_curve(point):
            raise CryptoError("mul_add on an invalid point")
        g_table = cls._g_signed
        if g_table is None:
            g_table = _P256._g_signed = _signed_multiples(GX, GY, _W_BASE)
        q_table = _signed_multiples(point.x, point.y, _W_POINT)
        d1 = _wnaf(u1 % N, _W_BASE)
        d2 = _wnaf(u2 % N, _W_POINT)
        length = max(len(d1), len(d2))
        d1 += [0] * (length - len(d1))
        d2 += [0] * (length - len(d2))
        x, y, z = 0, 0, 0
        for i in range(length - 1, -1, -1):
            x, y, z = _double(x, y, z)
            d = d1[i]
            if d:
                x, y, z = _add_affine(x, y, z, *g_table[d])
            d = d2[i]
            if d:
                x, y, z = _add_affine(x, y, z, *q_table[d])
        return _to_affine(x, y, z)

    @classmethod
    def negate(cls, point: ECPoint) -> ECPoint:
        if point.is_infinity:
            return point
        return ECPoint(point.x, (-point.y) % P)


P256 = _P256()
