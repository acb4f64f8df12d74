import math

import pytest
from hypothesis import given, settings, strategies as st

from balance_forge.quadarith import (
    ContinuedFraction,
    QuadInt,
    fundamental_unit,
    is_perfect_square,
    isqrt,
    quad_conj,
    quad_mul,
    quad_norm,
    quad_pow,
    quadint_delta_pair,
    sqrt_continued_fraction,
    tau,
    tau_rho_coords,
)

VALID_RADICANDS = [2, 3, 5, 6, 7, 8, 10, 12, 13, 17]


def _element(d, p, q):
    if d % 4 == 1 and (p - q) % 2:
        q += 1
    return QuadInt(p, q, d)


@pytest.mark.parametrize(
    "value,expected",
    [(0, 0), (1, 1), (2, 1), (3, 1), (4, 2), (15, 3), (16, 4), (10**40, 10**20),
     (10**40 - 1, 10**20 - 1)],
)
def test_isqrt_known(value, expected):
    assert isqrt(value) == expected


def test_isqrt_negative():
    with pytest.raises(ValueError, match="negative radicand"):
        isqrt(-1)


@given(st.integers(min_value=0, max_value=10**6))
def test_isqrt_floor_property(x):
    r = isqrt(x)
    assert r * r <= x < (r + 1) * (r + 1)


@given(st.integers(min_value=0, max_value=10**30))
def test_isqrt_floor_property_big(x):
    r = isqrt(x)
    assert r * r <= x < (r + 1) * (r + 1)


@pytest.mark.parametrize(
    "value,flag,root",
    [
        (8 * 6 * 6 + 1, True, 17),   # witness of the member 6
        (0, True, 0),
        (8 * 2 * 2 - 7, True, 5),
        (33, False, None),
        (2, False, None),
    ],
)
def test_is_perfect_square(value, flag, root):
    assert is_perfect_square(value) == (flag, root)


def test_is_perfect_square_negative():
    with pytest.raises(ValueError, match="negative radicand"):
        is_perfect_square(-4)


def _square_oracle(x):
    r = math.isqrt(x)
    return (True, r) if r * r == x else (False, None)


def test_is_perfect_square_small_range():
    assert all(is_perfect_square(x) == _square_oracle(x) for x in range(200_001))


@given(st.integers(0, 2 * 10**5))
def test_is_perfect_square_matches_isqrt(x):
    assert is_perfect_square(x) == _square_oracle(x)


@given(st.integers(1, 10**60), st.sampled_from([-1, 0, 1]))
def test_is_perfect_square_near_big_squares(k, shift):
    x = k * k + shift
    assert is_perfect_square(x) == _square_oracle(x)


@pytest.mark.parametrize("d", [2, 5, 13, 331])
def test_quad_pow_matches_repeated_product(d):
    # d = 5 and 13 use half coordinates
    for p, q in ((1, 1), (3, -1), (-2, 4), (7, 5)):
        x = _element(d, p, q)
        product = QuadInt.one(d)
        for n in range(41):
            assert quad_pow(x, n) == product, (x, n)
            product = product * x


def test_quad_examples():
    alpha = QuadInt(1, 1, 2)
    assert quad_pow(alpha, 2) == QuadInt(3, 2, 2)
    assert quad_norm(alpha) == -1
    assert quad_pow(QuadInt(3, 1, 8), 2) == QuadInt(17, 6, 8)


def test_ring_mismatch():
    with pytest.raises(ValueError, match="ring mismatch"):
        quad_mul(QuadInt(1, 1, 2), QuadInt(1, 1, 3))


def test_invalid_radicand():
    for d in (0, -2, 4, 9):
        with pytest.raises(ValueError, match="degenerate discriminant"):
            QuadInt(1, 1, d)


def test_half_ring_parity_enforced():
    with pytest.raises(ValueError, match="parity violation"):
        QuadInt(1, 0, 5)


def test_half_ring_arithmetic():
    # (1 + sqrt(5))/2 squared is (3 + sqrt(5))/2, norm of both is -1, +1
    golden = QuadInt(1, 1, 5)
    assert golden * golden == QuadInt(3, 1, 5)
    assert golden.norm() == -1
    assert (golden * golden).norm() == 1
    assert QuadInt.one(5) == QuadInt(2, 0, 5)
    assert quad_pow(golden, 0) == QuadInt(2, 0, 5)


@given(
    st.sampled_from(VALID_RADICANDS),
    st.integers(-50, 50), st.integers(-50, 50),
    st.integers(-50, 50), st.integers(-50, 50),
)
def test_norm_multiplicative(d, p1, q1, p2, q2):
    x = _element(d, p1, q1)
    y = _element(d, p2, q2)
    assert quad_norm(quad_mul(x, y)) == quad_norm(x) * quad_norm(y)


@given(
    st.sampled_from(VALID_RADICANDS),
    st.integers(-20, 20), st.integers(-20, 20),
    st.integers(0, 64), st.integers(0, 64),
)
@settings(max_examples=60)
def test_pow_addition_law(d, p, q, m, n):
    x = _element(d, p, q)
    assert quad_pow(x, m + n) == quad_mul(quad_pow(x, m), quad_pow(x, n))


@given(st.sampled_from(VALID_RADICANDS), st.integers(-50, 50), st.integers(-50, 50))
def test_conj_is_ring_map(d, p, q):
    x = _element(d, p, q)
    assert quad_conj(quad_conj(x)) == x
    assert quad_mul(x, quad_conj(x)) == QuadInt.one(d) * quad_norm(x)


def test_quad_pow_negative_exponent():
    with pytest.raises(ValueError):
        quad_pow(QuadInt(1, 1, 2), -1)


def test_sqrt_continued_fraction_known():
    assert sqrt_continued_fraction(2) == ContinuedFraction(1, (2,))
    assert sqrt_continued_fraction(8) == ContinuedFraction(2, (1, 4))
    assert sqrt_continued_fraction(13) == ContinuedFraction(3, (1, 1, 1, 1, 6))


def test_sqrt_continued_fraction_square():
    with pytest.raises(ValueError, match="square radicand"):
        sqrt_continued_fraction(9)


@pytest.mark.parametrize("d", [2, 3, 5, 7, 8, 13, 19, 31, 46, 61, 94])
def test_convergent_determinants(d):
    cf = sqrt_continued_fraction(d)
    assert len(cf.period) >= 1
    pairs = cf.convergents(12)
    for (pk, qk), (pk1, qk1) in zip(pairs[1:], pairs):
        assert pk * qk1 - pk1 * qk in (1, -1)


def test_convergents_solve_pell():
    cf = sqrt_continued_fraction(2)
    p, q = cf.convergents(10)[-1]
    assert p * p - 2 * q * q in (1, -1)


def test_tau_anchor_values():
    assert tau(32) == QuadInt(3, 1, 8)
    assert tau(8) == QuadInt(3, 2, 2)
    assert tau_rho_coords(32) == (3, 1)
    assert tau_rho_coords(8) == (3, 2)


def test_fundamental_unit_small():
    # brute-force minimal u + v*sqrt(2) > 1 with |u^2 - 2v^2| = 1
    best = None
    for v in range(1, 100):
        for s in (-1, 1):
            t = 2 * v * v + s
            ok, u = is_perfect_square(t)
            if ok and u > 0:
                best = (u, v)
                break
        if best:
            break
    assert fundamental_unit(8) == QuadInt(best[0], best[1], 2) == QuadInt(1, 1, 2)


def test_fundamental_unit_half_coordinates():
    assert fundamental_unit(5) == QuadInt(1, 1, 5)
    assert tau(5) == QuadInt(3, 1, 5)
    assert fundamental_unit(61) == QuadInt(39, 5, 61)


@pytest.mark.parametrize("delta", [-4, 0, 16, 36, 100])
def test_unit_degenerate_discriminant(delta):
    with pytest.raises(ValueError, match="degenerate discriminant"):
        fundamental_unit(delta)


@pytest.mark.parametrize("delta", [6, 7, 10, 11])
def test_unit_not_a_discriminant(delta):
    with pytest.raises(ValueError, match="not a discriminant"):
        fundamental_unit(delta)


def _minimal_unit_pair(delta, cap=10**6):
    """First (X, Y) with X^2 - delta*Y^2 = +-4, scanning Y upward."""
    for v in range(1, cap + 1):
        for s in (-4, 4):
            t = delta * v * v + s
            if t >= 0:
                ok, root = is_perfect_square(t)
                if ok:
                    return root, v
    raise AssertionError("no unit found below the scan cap")


def test_tau_matches_bruteforce_below_200():
    for delta in range(5, 201):
        if delta % 4 in (2, 3) or is_perfect_square(delta)[0]:
            continue
        eps = fundamental_unit(delta)
        assert quadint_delta_pair(eps, delta) == _minimal_unit_pair(delta), delta
        t = tau(delta)
        assert t.norm() == 1
        if eps.norm() == 1:
            assert t == eps
        else:
            assert t == eps * eps
