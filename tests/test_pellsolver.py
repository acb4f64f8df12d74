import math
import random
from fractions import Fraction

import pytest

from balance_forge.pellsolver import (
    OrbitMatrix,
    QuadraticForm,
    _square_radicand_hits,
    brute_force_solutions,
    orbit_matrix,
    rep_bound,
    representatives,
    solutions,
)
from balance_forge.quadarith import is_perfect_square, tau
from balance_forge.sequences import SequenceKind, term

F32 = QuadraticForm(8, 0, -1)
F8 = QuadraticForm(2, 0, -1)

ANCHOR_CASES = [(F32, -9), (F32, 7), (F8, -7), (F8, 9)]


@pytest.mark.parametrize("a,b,c", [(1, 0, -1), (1, 0, -4), (0, 1, 1), (1, 0, 1), (1, 1, 1)])
def test_form_validation(a, b, c):
    with pytest.raises(ValueError, match="degenerate discriminant"):
        QuadraticForm(a, b, c)


def test_orbit_matrix_anchors():
    assert orbit_matrix(F32).rows() == ((3, 8), (1, 3))
    assert orbit_matrix(F8).rows() == ((3, 4), (2, 3))
    assert orbit_matrix(F8).det() == 1


def test_orbit_matrix_odd_discriminant():
    m = orbit_matrix(QuadraticForm(1, 1, -1))
    assert m.det() == 1
    # the action preserves the form's values
    for row in [(1, 0), (0, 1), (3, -2), (7, 5)]:
        x, y = m.apply(row)
        f = QuadraticForm(1, 1, -1)
        assert f.evaluate(x, y) == f.evaluate(*row)


def test_matrix_determinant_validation():
    with pytest.raises(ValueError):
        OrbitMatrix(1, 0, 0, 2)


def test_matrix_power_identity():
    m32, m8 = orbit_matrix(F32), orbit_matrix(F8)
    B = lambda n: term(SequenceKind.B, n)
    C = lambda n: term(SequenceKind.C, n)
    for n in range(1, 51):
        assert m32.power(n).rows() == ((C(n), 8 * B(n)), (B(n), C(n)))
        assert m8.power(n).rows() == ((C(n), 4 * B(n)), (2 * B(n), C(n)))
    assert m32.power(-1) == m32.inverse()
    assert m32.power(0).rows() == ((1, 0), (0, 1))


def test_rep_bound_anchors():
    # exact bounds are 3*sqrt(2), sqrt(7), sqrt(14), 3; the returned value
    # only errs upward and its floor must admit the anchor representatives
    u = rep_bound(F32, -9)
    assert 3 <= u and abs(float(u) - 4.2426) < 1e-3
    assert int(rep_bound(F32, 7)) >= 1
    assert int(rep_bound(F8, -7)) >= 3
    assert int(rep_bound(F8, 9)) >= 3


def test_rep_bound_degenerate_rhs():
    with pytest.raises(ValueError, match="degenerate right-hand side"):
        rep_bound(F32, 0)


def test_representative_anchor_sets():
    assert representatives(F32, -9) == [(0, 3)]
    assert representatives(F32, 7) == [(-1, 1), (1, 1)]
    assert representatives(F8, -7) == [(-1, 3), (1, 3)]
    assert representatives(F8, 9) == [(-3, 3), (3, 3)]


def test_representatives_empty_is_not_an_error():
    # 8x^2 - y^2 = 1 is insoluble: squares are 0, 1, 4 mod 8
    assert representatives(F32, 1) == []
    assert solutions(F32, 1, count=5) == []


def test_orbit_closure():
    for form, m in ANCHOR_CASES:
        matrix = orbit_matrix(form)
        for rep in representatives(form, m):
            for n in range(-8, 9):
                x, y = matrix.power(n).apply(rep)
                assert form.evaluate(x, y) == m


POSITIVE_STREAMS = [
    (F32, -9, 3, [(3, 9), (18, 51), (105, 297)]),
    (F32, 7, 4, [(1, 1), (2, 5), (4, 11), (11, 31)]),
    (F8, -7, 4, [(1, 3), (3, 5), (9, 13), (19, 27)]),
    (F8, 9, 2, [(3, 3), (15, 21)]),
]


@pytest.mark.parametrize("form,m,count,expected", POSITIVE_STREAMS,
                         ids=["m-9", "m7", "m-7", "m9"])
def test_positive_streams(form, m, count, expected):
    got = [s.pair() for s in solutions(form, m, count=count, positive=True)]
    assert got == expected
    # cross-check against the exhaustive oracle
    bound = max(x for x, _ in expected)
    brute = sorted(
        p for p in brute_force_solutions(form, m, bound) if p[0] > 0 and p[1] > 0
    )
    assert got == brute[:count]


def test_stream_order_dedup_and_tags():
    sols = solutions(F32, -9, xbound=200)
    pairs = [s.pair() for s in sols]
    assert pairs == sorted(pairs, key=lambda p: (abs(p[0]), p[0], p[1]))
    assert len(set(pairs)) == len(pairs)
    for s in sols:
        assert s.sign in (1, -1)
        assert 0 <= s.rep < len(representatives(F32, -9))
        regenerated = orbit_matrix(F32).power(s.exponent).apply(
            tuple(v * s.sign for v in representatives(F32, -9)[s.rep])
        )
        assert regenerated == s.pair()


def test_solutions_limit_validation():
    with pytest.raises(ValueError, match="limit required"):
        solutions(F32, -9)
    with pytest.raises(ValueError, match="limit positive"):
        solutions(F32, -9, count=0)
    with pytest.raises(ValueError, match="degenerate right-hand side"):
        solutions(F32, 0, count=1)


def test_brute_force_examples():
    assert brute_force_solutions(F32, -9, 10) == {
        (0, 3), (0, -3), (3, 9), (3, -9), (-3, 9), (-3, -9)
    }
    assert brute_force_solutions(F32, 7, 5) == {
        (1, 1), (1, -1), (-1, 1), (-1, -1),
        (2, 5), (2, -5), (-2, 5), (-2, -5),
        (4, 11), (4, -11), (-4, 11), (-4, -11),
    }


def test_brute_force_bound_validation():
    with pytest.raises(ValueError):
        brute_force_solutions(F32, -9, 0)


@pytest.mark.parametrize("form,m", ANCHOR_CASES, ids=["m-9", "m7", "m-7", "m9"])
def test_solver_equals_brute_force_anchors(form, m):
    got = sorted(s.pair() for s in solutions(form, m, xbound=1000))
    assert got == sorted(brute_force_solutions(form, m, 1000))


def test_solver_equals_brute_force_random_forms():
    rng = random.Random(0xBA1A)
    checked = 0
    while checked < 20:
        form = _random_form(rng)
        if form is None:
            continue
        m = rng.randint(-50, 50)
        if m == 0:
            continue
        got = sorted(s.pair() for s in solutions(form, m, xbound=500))
        assert got == sorted(brute_force_solutions(form, m, 500)), (form, m)
        checked += 1


def _random_form(rng):
    try:
        return QuadraticForm(
            rng.randint(-10, 10), rng.randint(-10, 10), rng.randint(-10, 10)
        )
    except ValueError:
        return None


def _discriminants(limit):
    return [
        d for d in range(5, limit)
        if d % 4 in (0, 1) and math.isqrt(d) ** 2 != d
    ]


def _forms_of(delta):
    """Six forms of discriminant ``delta``: ``(1, b, n)``, ``(n, b, 1)`` and
    ``(-1, b, -n)`` for two values of ``b``, with ``n = (b^2 - delta)/4``."""
    out = []
    for b in (delta % 2, delta % 2 + 2):
        n = (b * b - delta) // 4
        out += [QuadraticForm(1, b, n), QuadraticForm(n, b, 1), QuadraticForm(-1, b, -n)]
    return out


def test_orbit_matrix_is_an_automorph_below_2000():
    rng = random.Random(0x0A17)
    for delta in _discriminants(2000):
        for form in _forms_of(delta):
            matrix = orbit_matrix(form)
            assert matrix.det() == 1, form
            for _ in range(3):
                row = (rng.randint(-99, 99), rng.randint(-99, 99))
                assert form.evaluate(*matrix.apply(row)) == form.evaluate(*row), form


def test_rep_bound_is_the_exact_bound_rounded_up_below_2000():
    # U^2 = |a*m| * (X -+ 2) / delta with X = t + 1/t, the trace of tau
    rng = random.Random(0xB0B0)
    ulp = Fraction(1, 1 << 64)
    for delta in _discriminants(2000):
        t = tau(delta)
        trace = t.p if t.half else 2 * t.p
        for form in _forms_of(delta)[:2]:
            m = rng.choice([-1, 1]) * rng.randint(1, 10**6)
            am = form.a * m
            u2 = Fraction(abs(am) * (trace - 2 if am > 0 else trace + 2), delta)
            bound = rep_bound(form, m)
            assert bound * bound >= u2, (form, m)
            assert bound - ulp < 0 or (bound - ulp) ** 2 <= u2, (form, m)


@pytest.mark.parametrize("delta,y0,k", [
    (539380302480054224472317, 5215, 284),
    (520310123191416198435324, 5239, 98),
    (895858577158747748733656, 4260, 241),
])
def test_square_hits_exact_past_int64(delta, y0, k):
    # the radicand is about 10^31: a float square root of it is off by more
    # than the gap a filter on its fractional part can tolerate
    root = math.isqrt(delta * y0 * y0) + k
    shift = root * root - delta * y0 * y0
    expected = [
        y for y in range(6001)
        if delta * y * y + shift >= 0 and is_perfect_square(delta * y * y + shift)[0]
    ]
    assert y0 in expected
    assert list(_square_radicand_hits(delta, shift, 6000)) == expected


def test_solvability_and_fundamental_solutions_match_diop_dn():
    sympy_diophantine = pytest.importorskip("sympy.solvers.diophantine.diophantine")
    rng = random.Random(0xD10D)
    checked = 0
    while checked < 60:
        D = rng.randrange(2, 350)
        N = rng.choice([-1, 1]) * rng.randint(1, 30)
        if checked % 2:
            # few random right-hand sides are solvable: plant (x, 1) in half
            x = math.isqrt(D) + rng.randint(0, 1)
            N = x * x - D
        if math.isqrt(D) ** 2 == D or not 0 < abs(N) <= 30:
            continue
        form = QuadraticForm(1, 0, -D)
        fundamental = sympy_diophantine.diop_DN(D, N)
        assert bool(solutions(form, N, count=1, positive=True)) == bool(fundamental), (D, N)
        if fundamental:
            xbound = max(1, max(abs(x) for x, _ in fundamental))
            stream = {s.pair() for s in solutions(form, N, xbound=xbound)}
            for x, y in fundamental:
                assert (x, y) in stream and (x, -y) in stream, (D, N, x, y)
        checked += 1
