"""Exact arithmetic in real quadratic rings.

Elements live in the ring attached to a positive non-square radicand ``d``:

* ``d % 4 != 1`` -- plain integer coordinates, value ``p + q*sqrt(d)``.
* ``d % 4 == 1`` -- half coordinates, value ``(p + q*sqrt(d)) / 2`` with the
  parity constraint ``p == q (mod 2)``.  This doubled-coordinate convention
  makes the ring closed under multiplication while keeping every stored
  field a plain integer.

On top of the element type the module provides integer square roots,
perfect-square tests, continued fractions of quadratic irrationals, and
fundamental units of the order attached to a discriminant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


def isqrt(x: int) -> int:
    """Floor of the square root of a non-negative integer, exactly."""
    if x < 0:
        raise ValueError("negative radicand")
    return math.isqrt(x)


def _residue_table(m: int) -> bytes:
    """``table[r] == 1`` iff ``r`` is a square modulo ``m``."""
    table = bytearray(m)
    for i in range(m):
        table[i * i % m] = 1
    return bytes(table)


# a square is a quadratic residue modulo 64, 63, 65 and 11; together the
# four tables pass about 1 non-square in 120 on to the square root
_SQUARES_64, _SQUARES_63, _SQUARES_65, _SQUARES_11 = map(_residue_table, (64, 63, 65, 11))


def is_perfect_square(x: int) -> tuple[bool, int | None]:
    """Whether ``x`` is a perfect square; returns ``(flag, root-or-None)``.

    Most non-squares are rejected by their residues, without a square root.
    """
    if x < 0:
        raise ValueError("negative radicand")
    if not _SQUARES_64[x & 63]:
        return False, None
    r = x % 45045  # 63 * 65 * 11
    if not (_SQUARES_63[r % 63] and _SQUARES_65[r % 65] and _SQUARES_11[r % 11]):
        return False, None
    root = math.isqrt(x)
    if root * root == x:
        return True, root
    return False, None


def _is_square(x: int) -> bool:
    return x >= 0 and math.isqrt(x) ** 2 == x


def _validate_radicand(d: int) -> None:
    if d <= 0 or _is_square(d):
        raise ValueError("degenerate discriminant")


@dataclass(frozen=True)
class QuadInt:
    """An element of the real quadratic ring with radicand ``d``.

    ``p`` is the rational part, ``q`` the coefficient of ``sqrt(d)``; for
    ``d % 4 == 1`` the stored pair is doubled (see module docstring).
    """

    p: int
    q: int
    d: int

    def __post_init__(self):
        _validate_radicand(self.d)
        if self.d % 4 == 1 and (self.p - self.q) % 2 != 0:
            raise ValueError("parity violation")

    @property
    def half(self) -> bool:
        return self.d % 4 == 1

    def _check_ring(self, other: "QuadInt") -> None:
        if self.d != other.d:
            raise ValueError("ring mismatch")

    def __add__(self, other: "QuadInt") -> "QuadInt":
        self._check_ring(other)
        return QuadInt(self.p + other.p, self.q + other.q, self.d)

    def __sub__(self, other: "QuadInt") -> "QuadInt":
        self._check_ring(other)
        return QuadInt(self.p - other.p, self.q - other.q, self.d)

    def __neg__(self) -> "QuadInt":
        return QuadInt(-self.p, -self.q, self.d)

    def __mul__(self, other: "QuadInt | int") -> "QuadInt":
        if isinstance(other, int):
            return QuadInt(self.p * other, self.q * other, self.d)
        self._check_ring(other)
        if other is self:
            # a square takes three multiplications, two of them squarings
            pp = self.p * self.p + self.d * (self.q * self.q)
            qq = 2 * (self.p * self.q)
        else:
            pp = self.p * other.p + self.d * self.q * other.q
            qq = self.p * other.q + self.q * other.p
        if self.half:
            # parity of the inputs guarantees both halves are exact
            return QuadInt(pp // 2, qq // 2, self.d)
        return QuadInt(pp, qq, self.d)

    def __rmul__(self, other: int) -> "QuadInt":
        return self * other

    def __pow__(self, n: int) -> "QuadInt":
        return quad_pow(self, n)

    def conj(self) -> "QuadInt":
        return QuadInt(self.p, -self.q, self.d)

    def norm(self) -> int:
        n = self.p * self.p - self.d * self.q * self.q
        return n // 4 if self.half else n

    @classmethod
    def one(cls, d: int) -> "QuadInt":
        return cls(2, 0, d) if d % 4 == 1 else cls(1, 0, d)

    def __str__(self) -> str:
        base = f"{self.p}{self.q:+}*sqrt({self.d})"
        return f"({base})/2" if self.half else base


def quad_mul(x: QuadInt, y: QuadInt) -> QuadInt:
    return x * y


def quad_conj(x: QuadInt) -> QuadInt:
    return x.conj()


def quad_norm(x: QuadInt) -> int:
    return x.norm()


def quad_pow(x: QuadInt, n: int) -> QuadInt:
    """``x**n`` by left-to-right binary powering, ``n >= 0``.

    Each step squares the running product and, on a set bit, multiplies it
    by ``x`` itself, so for a small base such as ``1 + sqrt(2)`` the
    multiplications cost next to nothing beside the squarings.
    """
    if n < 0:
        raise ValueError("negative exponent")
    out = QuadInt.one(x.d)
    for bit in bin(n)[2:]:
        out = out * out
        if bit == "1":
            out = out * x
    return out


@dataclass(frozen=True)
class ContinuedFraction:
    """Eventually periodic continued fraction ``[a0; period repeating]``."""

    a0: int
    period: tuple[int, ...]

    def digits(self, count: int):
        """First ``count`` partial quotients."""
        out = [self.a0]
        i = 0
        while len(out) < count:
            out.append(self.period[i % len(self.period)])
            i += 1
        return out[:count]

    def convergents(self, count: int):
        """First ``count`` convergents as ``(p_k, q_k)`` pairs."""
        h, hp = 1, 0
        k, kp = 0, 1
        out = []
        for a in self.digits(count):
            h, hp = a * h + hp, h
            k, kp = a * k + kp, k
            out.append((h, k))
        return out


def _expand(D: int, P0: int, Q0: int):
    """Partial quotients of ``(P0 + sqrt(D))/Q0`` until a state repeats.

    Returns ``(digits, states)`` where ``states[i]`` is the ``(P, Q)`` pair
    the ``i``-th digit was produced from; the last state in ``states`` is the
    first repeated one, so the cycle is ``digits[states.index(last):]``.
    """
    s = math.isqrt(D)
    seen: dict[tuple[int, int], int] = {}
    digits: list[int] = []
    states: list[tuple[int, int]] = []
    P, Q = P0, Q0
    while (P, Q) not in seen:
        seen[(P, Q)] = len(digits)
        states.append((P, Q))
        a = (P + s) // Q
        digits.append(a)
        P = a * Q - P
        Q = (D - P * P) // Q
    states.append((P, Q))
    return digits, states


def sqrt_continued_fraction(d: int) -> ContinuedFraction:
    """Canonical expansion of ``sqrt(d)`` for non-square ``d > 0``."""
    if d <= 0 or _is_square(d):
        raise ValueError("square radicand")
    digits, states = _expand(d, 0, 1)
    j = states.index(states[-1])
    return ContinuedFraction(digits[0], tuple(digits[j:]))


def _validate_discriminant(delta: int) -> None:
    if delta <= 0 or _is_square(delta):
        raise ValueError("degenerate discriminant")
    if delta % 4 in (2, 3):
        raise ValueError("not a discriminant")


def _unit_delta_pair(delta: int) -> tuple[int, int]:
    """Smallest unit > 1 of the order of ``delta`` as ``(X, Y)``.

    The value is ``(X + Y*sqrt(delta)) / 2``.  Computed from one period of
    the continued fraction of ``sqrt(delta/4)`` (``delta`` even) or
    ``(1 + sqrt(delta))/2`` (``delta`` odd): the cycle matrix fixes the
    expanded irrational, so its bottom row yields a unit of the lattice
    multiplier ring, which is exactly this order.
    """
    digits, states = _expand(delta, delta & 1, 2)
    j = states.index(states[-1])
    Pj, Qj = states[j]
    k, kp = 0, 1
    for a in digits[j:]:
        k, kp = a * k + kp, k
    num_x = 2 * (k * Pj + kp * Qj)
    num_y = 2 * k
    if num_x % Qj or num_y % Qj:
        raise AssertionError("unit does not lie in the order")
    return num_x // Qj, num_y // Qj


def _pair_to_quadint(X: int, Y: int, delta: int) -> QuadInt:
    """Element ``(X + Y*sqrt(delta))/2`` in the canonical ring for ``delta``."""
    if delta % 4 == 1:
        return QuadInt(X, Y, delta)
    d = delta // 4
    # X is even for any order element written over sqrt(delta)
    if d % 4 == 1:
        return QuadInt(X, 2 * Y, d)
    return QuadInt(X // 2, Y, d)


def fundamental_unit(delta: int) -> QuadInt:
    """Smallest unit greater than 1 of the order of discriminant ``delta``."""
    _validate_discriminant(delta)
    X, Y = _unit_delta_pair(delta)
    return _pair_to_quadint(X, Y, delta)


def tau(delta: int) -> QuadInt:
    """The fundamental unit normalized to norm +1 (squared if norm is -1)."""
    eps = fundamental_unit(delta)
    t = eps if eps.norm() == 1 else eps * eps
    assert t.norm() == 1
    return t


def tau_rho_coords(delta: int) -> tuple[int, int]:
    """Coordinates ``(u, v)`` of ``tau(delta)`` over the basis ``(1, rho)``.

    ``rho`` is ``sqrt(delta/4)`` for even discriminants and
    ``(1 + sqrt(delta))/2`` for odd ones; both coordinates are integers.
    """
    t = tau(delta)
    if delta % 4 == 1:
        return (t.p - t.q) // 2, t.q
    if t.half:
        # ring radicand delta/4 is itself 1 mod 4: stored pair is doubled
        return t.p // 2, t.q // 2
    return t.p, t.q


def quadint_delta_pair(x: QuadInt, delta: int) -> tuple[int, int]:
    """Rewrite ``x`` as ``(X + Y*sqrt(delta))/2`` coordinates."""
    if delta % 4 == 1:
        if x.d != delta:
            raise ValueError("ring mismatch")
        return x.p, x.q
    if x.d != delta // 4:
        raise ValueError("ring mismatch")
    if x.half:
        return x.p, x.q // 2
    return 2 * x.p, x.q


def real_bounds(X: int, Y: int, delta: int, bits: int = 64) -> tuple[Fraction, Fraction]:
    """Rational enclosure of ``(X + Y*sqrt(delta))/2`` with ``Y >= 0``."""
    if Y < 0:
        raise ValueError("negative sqrt coefficient")
    scale = 1 << bits
    lo = math.isqrt(delta * scale * scale)
    t_lo = Fraction(X * scale + Y * lo, 2 * scale)
    t_hi = Fraction(X * scale + Y * (lo + 1), 2 * scale)
    return t_lo, t_hi
