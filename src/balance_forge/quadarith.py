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
from collections import namedtuple


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
SQUARE_RESIDUE_MODULUS = 64 * 45045  # 45045 = 63 * 65 * 11


def square_residue(v: int) -> bool:
    """Whether ``v`` is a square modulo ``SQUARE_RESIDUE_MODULUS`` (by CRT)."""
    if not _SQUARES_64[v & 63]:
        return False
    r = v % 45045
    return bool(_SQUARES_63[r % 63] and _SQUARES_65[r % 65] and _SQUARES_11[r % 11])


def is_perfect_square(x: int) -> tuple[bool, int | None]:
    """Whether ``x`` is a perfect square; returns ``(flag, root-or-None)``.

    Most non-squares are rejected by their residues, without a square root.
    """
    if x < 0:
        raise ValueError("negative radicand")
    if not square_residue(x):
        return False, None
    root = math.isqrt(x)
    if root * root == x:
        return True, root
    return False, None


def _same(self, other) -> bool:
    return type(other) is type(self) and tuple.__eq__(self, other)


def record(name: str, fields: str, defaults=None) -> type:
    """A named-tuple base for an immutable value type, hashed as its tuple.

    A record equals only a record of its own class, never a plain tuple.  A
    subclass declares ``__slots__ = ()`` and checks its arguments in
    ``__new__``, which ``_make`` and ``_replace`` also go through.
    """
    cls = namedtuple(name, fields, defaults=defaults)
    cls.__eq__, cls.__hash__ = _same, tuple.__hash__
    cls.__ne__ = lambda self, other: not _same(self, other)
    cls._make = classmethod(lambda cls, values: cls(*values))
    return cls


def _is_square(x: int) -> bool:
    return x >= 0 and math.isqrt(x) ** 2 == x


def _validate_radicand(d: int) -> None:
    if d <= 0 or _is_square(d):
        raise ValueError("degenerate discriminant")


class QuadInt(record("QuadInt", "p q d")):
    """An element of the real quadratic ring with radicand ``d``.

    ``p`` is the rational part, ``q`` the coefficient of ``sqrt(d)``; for
    ``d % 4 == 1`` the stored pair is doubled (see module docstring).
    """

    __slots__ = ()

    def __new__(cls, p: int, q: int, d: int):
        _validate_radicand(d)
        if d % 4 == 1 and (p - q) % 2 != 0:
            raise ValueError("parity violation")
        return tuple.__new__(cls, (p, q, d))

    @property
    def half(self) -> bool:
        return self.d % 4 == 1

    def _check_ring(self, other: "QuadInt") -> None:
        if self.d != other.d:
            raise ValueError("ring mismatch")

    # the ring and its parity rule are closed under these, so no result is checked
    def __add__(self, other: "QuadInt") -> "QuadInt":
        self._check_ring(other)
        return tuple.__new__(QuadInt, (self.p + other.p, self.q + other.q, self.d))

    def __sub__(self, other: "QuadInt") -> "QuadInt":
        self._check_ring(other)
        return tuple.__new__(QuadInt, (self.p - other.p, self.q - other.q, self.d))

    def __neg__(self) -> "QuadInt":
        return tuple.__new__(QuadInt, (-self.p, -self.q, self.d))

    def __mul__(self, other: "QuadInt | int") -> "QuadInt":
        if isinstance(other, int):
            return tuple.__new__(QuadInt, (self.p * other, self.q * other, self.d))
        self._check_ring(other)
        pp = self.p * other.p + self.d * self.q * other.q
        qq = self.p * other.q + self.q * other.p
        if self.half:
            # parity of the inputs guarantees both halves are exact
            pp, qq = pp // 2, qq // 2
        return tuple.__new__(QuadInt, (pp, qq, self.d))

    def __rmul__(self, other: int) -> "QuadInt":
        return self * other

    def __pow__(self, n: int) -> "QuadInt":
        return quad_pow(self, n)

    def conj(self) -> "QuadInt":
        return tuple.__new__(QuadInt, (self.p, -self.q, self.d))

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


def lucas_chain(s1: int, s2: int, n: int, one=1) -> tuple:
    """``(U(n), U(n+1))`` of the recurrence ``(s1, s2)`` in O(log n) steps (``n >= 0``).

    A Lucas chain of two squarings per bit of ``n``, for ``s1 != 0``: with
    ``Q = -s2``, the sequence ``U`` (``U(0) = 0, U(1) = 1``) of the
    recurrence doubles as ``U(2i+1) = U(i+1)^2 - Q U(i)^2`` and
    ``U(2i) = 2 U(i)U(i+1) - s1 U(i)^2``, where Cassini's identity
    ``U(i+1)^2 - U(i)U(i+2) = Q^i`` gives the cross term exactly:
    ``s1 U(i)U(i+1) = U(i+1)^2 + Q U(i)^2 - Q^i``.

    ``U`` is of the type of ``one``: ``int``, or any exact number type whose
    ``//`` is exact on exact quotients, such as ``decimal.Decimal`` in a
    context that traps rounding.
    """
    u, u1, qi = one - one, one, 1  # U(i), U(i+1), Q^i at i = 0
    for bit in bin(n)[2:]:
        a, b = u * u, u1 * u1
        u, u1, qi = 2 * (b - s2 * a - qi) // s1 - s1 * a, b + s2 * a, qi * qi
        if bit == "1":
            u, u1, qi = u1, s1 * u1 + s2 * u, -s2 * qi
    return u, u1


def quad_pow(x: QuadInt, n: int) -> QuadInt:
    """``x**n`` by left-to-right binary powering on the raw pair, ``n >= 0``.

    As ``p^2 - d*q^2`` is ``scale`` (4 on half coordinates, else 1) times
    the norm, a unit's power reads ``p^2`` from ``q^2`` and ``2pq`` from
    ``(p + q)^2``: two squarings per bit.  Any other base squares ``p`` and
    ``q`` and multiplies them.  A set bit multiplies by ``x`` itself, next
    to nothing beside the squarings for a small base such as ``1 + sqrt(2)``.
    """
    if n < 0:
        raise ValueError("negative exponent")
    P, Q, d = x
    h = 1 if x.half else 0  # each product is halved on half coordinates
    scale, norm = 4 ** h, P * P - d * Q * Q
    unit = norm in (scale, -scale)
    p, q, pnorm = 1 << h, 0, scale  # x**0 and its p^2 - d*q^2
    for bit in bin(n)[2:]:
        qq = q * q
        if unit:  # p^2 = d*q^2 + pnorm
            pp, pq2 = d * qq + pnorm, (s := p + q) * s - (d + 1) * qq - pnorm
        else:
            pp, pq2 = p * p, 2 * (p * q)
        p, q, pnorm = pp + d * qq >> h, pq2 >> h, scale
        if bit == "1":
            p, q, pnorm = p * P + d * q * Q >> h, p * Q + q * P >> h, norm
    return tuple.__new__(QuadInt, (p, q, d))


class ContinuedFraction(record("ContinuedFraction", "a0 period")):
    """Eventually periodic continued fraction ``[a0; period repeating]``."""

    __slots__ = ()

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
    """``(P, Q, a)`` for each partial quotient ``a`` of ``(P0 + sqrt(D))/Q0``.

    ``a`` is the floor of ``(P + sqrt(D))/Q``.  Both callers' complete
    quotients are reduced from index 1 on, so the expansion is purely
    periodic from there: it ends where the state of index 1 recurs.
    """
    s = math.isqrt(D)
    P, Q, start = P0, Q0, None
    while True:
        a = (P + s) // Q
        yield P, Q, a
        P = a * Q - P
        Q = (D - P * P) // Q
        if (P, Q) == start:
            return
        start = start or (P, Q)


def sqrt_continued_fraction(d: int) -> ContinuedFraction:
    """Canonical expansion of ``sqrt(d)`` for non-square ``d > 0``."""
    if d <= 0 or _is_square(d):
        raise ValueError("square radicand")
    a0, *period = (a for _, _, a in _expand(d, 0, 1))
    return ContinuedFraction(a0, tuple(period))


def _validate_discriminant(delta: int) -> None:
    _validate_radicand(delta)
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
    states = _expand(delta, delta & 1, 2)
    next(states)  # index 0 precedes the period
    Pj, Qj, _ = next(states)
    k, kp = 1, 0  # the period's denominators after its first digit
    for _, _, a in states:
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


def _tau_pair(delta: int) -> tuple[int, int]:
    """The norm-one fundamental unit as ``(X, Y)`` with ``X^2 - delta*Y^2 = 4``.

    The value is ``(X + Y*sqrt(delta)) / 2``; a fundamental unit of norm -1
    is squared, which in this form maps ``(X, Y)`` to
    ``((X^2 + delta*Y^2)/2, X*Y) = (X^2 + 2, X*Y)``.
    """
    _validate_discriminant(delta)
    X, Y = _unit_delta_pair(delta)
    if (xx := X * X) - delta * (Y * Y) == -4:
        X, Y = xx + 2, X * Y
    return X, Y


def tau(delta: int) -> QuadInt:
    """The fundamental unit normalized to norm +1 (squared if norm is -1)."""
    return _pair_to_quadint(*_tau_pair(delta), delta)


def tau_rho_coords(delta: int) -> tuple[int, int]:
    """Coordinates ``(u, v)`` of ``tau(delta)`` over the basis ``(1, rho)``.

    ``rho`` is ``sqrt(delta/4)`` for even discriminants and
    ``(1 + sqrt(delta))/2`` for odd ones; both coordinates are integers.
    """
    X, Y = _tau_pair(delta)
    return (X - Y * (delta & 1)) // 2, Y


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
