"""secp256r1 group tests: known vectors, group laws, and the table-driven
scalar multiplications cross-checked against a reference double-and-add."""

import hashlib
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.crypto.ec import INFINITY, P256, A, ECPoint, N, P
from repro.crypto.ecdsa import ecdsa_verify
from repro.errors import AuthenticationError, CryptoError

# Known scalar multiples of the P-256 generator (public test vectors).
K2_X = 0x7CF27B188D034F7E8A52380304B51AC3C08969E277F21B35A60B48FC47669978
K2_Y = 0x07775510DB8ED040293D9AC69F7430DBBA7DADE63CE982299E04B79D227873D1
K3_X = 0x5ECBE4D1A6330A44C8F7EF951D4BF165E6C6B721EFADA985FB41661BC6E7FD6C
K112233445566778899_X = 0x339150844EC15234807FE862A86BE77977DBFB3AE3D96F4C22795513AEAAB82F


class TestKnownVectors:
    def test_generator_on_curve(self):
        assert P256.is_on_curve(P256.generator)

    def test_2g(self):
        p = P256.scalar_mult(2)
        assert p.x == K2_X and p.y == K2_Y

    def test_3g(self):
        assert P256.scalar_mult(3).x == K3_X

    def test_large_scalar(self):
        assert P256.scalar_mult(112233445566778899).x == K112233445566778899_X

    def test_order_times_g_is_infinity(self):
        assert P256.scalar_mult(N).is_infinity

    def test_n_minus_1_is_negation_of_g(self):
        p = P256.scalar_mult(N - 1)
        assert p == P256.negate(P256.generator)


class TestGroupLaws:
    def test_addition_commutes(self):
        a, b = P256.scalar_mult(5), P256.scalar_mult(7)
        assert P256.add(a, b) == P256.add(b, a)

    def test_addition_associates(self):
        a, b, c = (P256.scalar_mult(k) for k in (3, 11, 29))
        assert P256.add(P256.add(a, b), c) == P256.add(a, P256.add(b, c))

    def test_identity_element(self):
        g = P256.generator
        assert P256.add(g, INFINITY) == g
        assert P256.add(INFINITY, g) == g

    def test_inverse_element(self):
        g = P256.generator
        assert P256.add(g, P256.negate(g)).is_infinity

    def test_doubling_matches_addition(self):
        g = P256.generator
        assert P256.add(g, g) == P256.scalar_mult(2)

    @given(st.integers(min_value=1, max_value=N - 1))
    @settings(max_examples=10, deadline=None)
    def test_scalar_distributes(self, k):
        # (k+1)G == kG + G
        assert P256.add(P256.scalar_mult(k), P256.generator) == P256.scalar_mult(k + 1)

    def test_scalar_mult_mod_n(self):
        k = random.Random(1).randrange(1, N)
        assert P256.scalar_mult(k) == P256.scalar_mult(k + N)


class TestEncoding:
    def test_roundtrip(self):
        p = P256.scalar_mult(12345)
        assert ECPoint.decode(p.encode()) == p

    def test_encoding_is_65_bytes_uncompressed(self):
        data = P256.generator.encode()
        assert len(data) == 65 and data[0] == 0x04

    def test_off_curve_point_rejected(self):
        data = bytearray(P256.generator.encode())
        data[-1] ^= 1
        with pytest.raises(CryptoError):
            ECPoint.decode(bytes(data))

    def test_bad_prefix_rejected(self):
        data = b"\x02" + P256.generator.encode()[1:]
        with pytest.raises(CryptoError):
            ECPoint.decode(data)

    def test_infinity_cannot_encode(self):
        with pytest.raises(CryptoError):
            INFINITY.encode()

    def test_scalar_mult_rejects_off_curve(self):
        with pytest.raises(CryptoError):
            P256.scalar_mult(2, ECPoint(1, 1))


# -- reference oracle ----------------------------------------------------------


def _affine_add(a: ECPoint, b: ECPoint) -> ECPoint:
    """Textbook affine addition, one modular inversion per call."""
    if a.is_infinity:
        return b
    if b.is_infinity:
        return a
    if a.x == b.x:
        if (a.y + b.y) % P == 0:
            return INFINITY
        lam = (3 * a.x * a.x + A) * pow(2 * a.y, -1, P) % P
    else:
        lam = (b.y - a.y) * pow(b.x - a.x, -1, P) % P
    x = (lam * lam - a.x - b.x) % P
    return ECPoint(x, (lam * (a.x - x) - a.y) % P)


def _reference_mult(k: int, point: ECPoint = P256.generator) -> ECPoint:
    """Right-to-left double-and-add over textbook affine formulas: slow, but
    it shares no code with the table-driven paths it checks."""
    k %= N
    result = INFINITY
    while k:
        if k & 1:
            result = _affine_add(result, point)
        point = _affine_add(point, point)
        k >>= 1
    return result


EDGE_SCALARS = [1, 2, 3, 15, 16, 17, N - 1, N, N + 1, 2 * N - 1, (1 << 256) - 1]
#: Long runs of 1 bits make every wNAF digit carry into the next window.
RUN_SCALARS = [
    (1 << 255) - 1,
    (1 << 128) - 1,
    ((1 << 64) - 1) << 100,
    int("1" * 40 + "0" * 3 + "1" * 90 + "01" * 20 + "1" * 40, 2),
    int("f" * 16 + "0" * 16 + "f" * 16 + "0" * 16, 16),
]
SCALARS = st.one_of(
    st.integers(min_value=0, max_value=(1 << 256) - 1),
    st.sampled_from(EDGE_SCALARS + RUN_SCALARS),
)
Q = _reference_mult(0x1F2E3D4C5B6A798897A6B5C4D3E2F1)


class TestFastPathsMatchReference:
    @pytest.mark.parametrize("k", EDGE_SCALARS + RUN_SCALARS)
    def test_base_point_edge_scalars(self, k):
        assert P256.scalar_mult(k) == _reference_mult(k)

    @pytest.mark.parametrize("k", EDGE_SCALARS + RUN_SCALARS)
    def test_other_point_edge_scalars(self, k):
        assert P256.scalar_mult(k, Q) == _reference_mult(k, Q)

    @given(SCALARS)
    @settings(max_examples=25, deadline=None)
    def test_base_point(self, k):
        assert P256.scalar_mult(k) == _reference_mult(k)

    @given(SCALARS, st.integers(min_value=1, max_value=N - 1))
    @settings(max_examples=15, deadline=None)
    def test_random_point(self, k, d):
        point = _reference_mult(d)
        assert P256.scalar_mult(k, point) == _reference_mult(k, point)

    def test_infinity_input_gives_infinity(self):
        assert P256.scalar_mult(5, INFINITY).is_infinity


class TestMulAdd:
    @given(SCALARS, SCALARS, st.integers(min_value=1, max_value=N - 1))
    @settings(max_examples=15, deadline=None)
    def test_matches_sum_of_products(self, u1, u2, d):
        point = _reference_mult(d)
        expected = _affine_add(_reference_mult(u1), _reference_mult(u2, point))
        assert P256.mul_add(u1, u2, point) == expected

    @pytest.mark.parametrize("u1, u2", [(0, 0), (0, 7), (7, 0), (N, N + 1), (1, N - 1)])
    def test_zero_and_edge_scalars(self, u1, u2):
        expected = _affine_add(_reference_mult(u1), _reference_mult(u2, Q))
        assert P256.mul_add(u1, u2, Q) == expected

    @pytest.mark.parametrize("u1, u2", [(1, 1), (5, 7), (1, N - 1), (3, N - 3)])
    def test_point_is_the_generator(self, u1, u2):
        # Both halves add the same table points: exercises the doubling and
        # cancelling branches of the mixed addition.
        assert P256.mul_add(u1, u2, P256.generator) == _reference_mult(u1 + u2)

    def test_sum_at_infinity(self):
        d = 0xC0FFEE
        u2 = random.Random(4).randrange(1, N)
        u1 = (-u2 * d) % N
        assert P256.mul_add(u1, u2, _reference_mult(d)).is_infinity

    def test_rejects_off_curve_point(self):
        with pytest.raises(CryptoError):
            P256.mul_add(1, 2, ECPoint(1, 1))

    def test_rejects_infinity(self):
        with pytest.raises(CryptoError):
            P256.mul_add(1, 2, INFINITY)


class TestVerifyRejectsInfinity:
    def test_signature_whose_check_point_is_infinity(self):
        # z + r*d == 0 (mod N) puts u1*G + u2*Q at infinity for any s.
        message = b"lands on infinity"
        z = int.from_bytes(hashlib.sha256(message).digest(), "big") % N
        r, s = 0x1234567, 0x7654321
        d = (-z * pow(r, -1, N)) % N
        public = _reference_mult(d)
        u1, u2 = (z * pow(s, -1, N)) % N, (r * pow(s, -1, N)) % N
        assert P256.mul_add(u1, u2, public).is_infinity
        with pytest.raises(AuthenticationError):
            ecdsa_verify(public, message, r.to_bytes(32, "big") + s.to_bytes(32, "big"))

    def test_rejects_invalid_public_key(self):
        signature = (1).to_bytes(32, "big") * 2
        for public in (INFINITY, ECPoint(1, 1)):
            with pytest.raises(CryptoError):
                ecdsa_verify(public, b"m", signature)


def test_tables_are_not_built_at_import():
    code = (
        "import repro.crypto; from repro.crypto.ec import P256; "
        "assert P256._comb is None and P256._g_signed is None"
    )
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", code], check=True, env=env)
