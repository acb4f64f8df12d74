import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from balance_forge import pellsolver
from balance_forge.pellsolver import (
    OrbitMatrix,
    QuadraticForm,
    Solution,
    _exact_square_hits,
    _factor,
    _search_ceiling,
    _sqrt_mod_prime_power,
    _square_radicand_hits,
    brute_force_solutions,
    orbit_matrix,
    rep_bound,
    representatives,
    solutions,
)
from balance_forge.quadarith import QuadInt, is_perfect_square, quadint_delta_pair, tau
from balance_forge.sequences import SequenceKind, term

F32 = QuadraticForm(8, 0, -1)
F8 = QuadraticForm(2, 0, -1)

ANCHOR_CASES = [(F32, -9), (F32, 7), (F8, -7), (F8, 9)]


def _ceiling(form, m):
    """The solver's search ceiling, with the unit's trace read from ``tau``."""
    return _search_ceiling(form, m, quadint_delta_pair(tau(form.delta), form.delta)[0])


@pytest.mark.parametrize("a,b,c", [(1, 0, -1), (1, 0, -4), (0, 1, 1), (1, 0, 1), (1, 1, 1)])
def test_form_validation(a, b, c):
    with pytest.raises(ValueError, match="degenerate discriminant"):
        QuadraticForm(a, b, c)


def test_orbit_matrix_anchors():
    assert orbit_matrix(F32).rows() == ((3, 8), (1, 3))
    assert orbit_matrix(F8).rows() == ((3, 4), (2, 3))
    assert orbit_matrix(F8).det() == 1
    # records of two classes with equal fields differ, as do a record and its tuple
    assert orbit_matrix(F32) == OrbitMatrix(3, 8, 1, 3) != (3, 8, 1, 3)
    assert hash(orbit_matrix(F32)) == hash(OrbitMatrix(3, 8, 1, 3))
    assert QuadraticForm(-1, 1, 3) != QuadInt(-1, 1, 3)
    assert tuple(QuadraticForm(-1, 1, 3)) == tuple(QuadInt(-1, 1, 3))
    with pytest.raises(AttributeError):
        F32.a = 2


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


def test_matrix_power_matches_repeated_products():
    # seeded unimodular matrices of every trace from -3 to 3: hyperbolic,
    # parabolic (trace +-2) and of finite order (trace -1, 0, 1)
    rng = random.Random(14)
    for trace in range(-3, 4):
        for _ in range(4):
            a = rng.randrange(-20, 21)
            bc = a * (trace - a) - 1  # det = a*(trace - a) - b*c = 1
            if bc:
                divisors = [e for e in range(1, abs(bc) + 1) if bc % e == 0]
                b = rng.choice(divisors) * rng.choice((1, -1))
                c = bc // b
            else:
                b, c = rng.randrange(-20, 21), 0
            matrix = OrbitMatrix(a, b, c, trace - a)
            for base, sign in ((matrix, 1), (matrix.inverse(), -1)):
                product = OrbitMatrix(1, 0, 0, 1)
                for n in range(41):
                    assert matrix.power(sign * n) == product, (matrix, sign * n)
                    product = product * base


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


def _full_walk_merge(form, m):
    """``representatives`` with the former merge: each kept row absorbs 32
    matrix steps either way, wherever the walk goes."""
    delta, a, b = form.delta, form.a, form.b
    found = set()
    for y0 in _square_radicand_hits(delta, 4 * a * m, _ceiling(form, m)):
        root = math.isqrt(delta * y0 * y0 + 4 * a * m)
        for s in {root, -root}:
            if (s - b * y0) % (2 * a) == 0:
                found.add(((s - b * y0) // (2 * a), y0))
    matrix = orbit_matrix(form)
    kept, absorbed = [], set()
    for rep in sorted(found):
        if rep in absorbed:
            continue
        kept.append(rep)
        for mat in (matrix, matrix.inverse()):
            row = rep
            for _ in range(32):
                row = mat.apply(row)
                absorbed.add(row)
    return kept


def test_window_merge_equals_full_walk_merge():
    rng = random.Random(0x0B17)
    kinds = set()
    checked = 0
    while checked < 600:
        form = _random_form(rng)
        if form is None:
            continue
        if rng.random() < 0.5:  # plant a row, so about half are solvable
            m = form.evaluate(rng.randint(-40, 40), rng.randint(0, 40))
        else:
            m = rng.choice((-1, 1)) * rng.randint(1, 2000)
        if m == 0 or _ceiling(form, m) > 10**7:
            continue
        assert representatives(form, m) == _full_walk_merge(form, m), (form, m)
        kinds.add((form.a < 0, form.b % 2, form.a * m > 0))
        checked += 1
    assert len(kinds) == 8


def test_y_along_an_orbit_never_rises_then_falls():
    # y_k = (w*t^k - w'*t^-k)/sqrt(delta) and x_k = A*t^k + B*t^-k: |x| and
    # |y| fall and then rise, so the key (|x|, x, y) has one least row: the
    # row representatives groups found rows by and solutions sweeps from
    rng = random.Random(0x1E44A)
    for _ in range(300):
        form = _random_form(rng)
        row = (rng.randint(-50, 50), rng.randint(-50, 50))
        if form is None or row == (0, 0):
            continue
        matrix = orbit_matrix(form)
        row = matrix.power(-20).apply(row)
        rows = []
        for _ in range(41):
            rows.append(row)
            row = matrix.apply(row)
        for coord in (0, 1):
            vs = [abs(r[coord]) for r in rows]
            rises = [k for k in range(1, 41) if vs[k] > vs[k - 1]]
            falls = [k for k in range(1, 41) if vs[k] < vs[k - 1]]
            assert not rises or not falls or max(falls) < min(rises), (form, vs)
        keys = [(abs(x), x, y) for x, y in rows]
        minima = [k for k in range(41)
                  if (k == 0 or keys[k] < keys[k - 1]) and (k == 40 or keys[k] < keys[k + 1])]
        assert len(minima) == 1, (form, keys)


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


def test_positive_set_of_a_same_sign_form_is_found_below_the_cap():
    # a, b and c of one sign: |F(x, y)| >= |a|*x^2 on x, y > 0, so the
    # positive set is finite and lies in |x| <= isqrt(|m| // |a|)
    rng = random.Random(0x5A5E)
    checked = solvable = 0
    while checked < 400:
        sign = rng.choice((-1, 1))
        try:
            form = QuadraticForm(*(sign * rng.randint(1, 9) for _ in range(3)))
        except ValueError:
            continue
        if rng.random() < 0.5:
            m = form.evaluate(rng.randint(1, 12), rng.randint(1, 12))
        else:
            m = rng.choice((-1, 1)) * rng.randint(1, 500)
        bound = max(1, math.isqrt(abs(m) // abs(form.a)))
        expected = sorted(p for p in brute_force_solutions(form, m, bound)
                          if p[0] > 0 and p[1] > 0)
        got = solutions(form, m, count=len(expected) + 1, xbound=10**12, positive=True)
        assert [s.pair() for s in got] == expected, (form, m)
        checked += 1
        solvable += bool(expected)
    assert solvable > 100


def test_stream_order_dedup_and_tags():
    sols = solutions(F32, -9, xbound=200)
    pairs = [s.pair() for s in sols]
    assert pairs == sorted(pairs, key=lambda p: (abs(p[0]), p[0], p[1]))
    assert len(set(pairs)) == len(pairs)
    assert repr(sols[0]) == "Solution(x=0, y=-3, rep=0, exponent=0, sign=-1)"
    assert sols[0] != (0, -3, 0, 0, -1) and sols[0] == Solution(0, -3, 0, 0, -1)
    for s in sols:
        assert s.sign in (1, -1)
        assert 0 <= s.rep < len(representatives(F32, -9))
        regenerated = orbit_matrix(F32).power(s.exponent).apply(
            tuple(v * s.sign for v in representatives(F32, -9)[s.rep])
        )
        assert regenerated == s.pair()


def test_stream_is_the_first_keys_of_brute_force():
    rng = random.Random(0x57EA)
    kinds = set()
    checked = 0
    while checked < 300:
        form = _random_form(rng)
        if form is None:
            continue
        if rng.random() < 0.7:  # plant a row, so most are solvable
            m = form.evaluate(rng.randint(-30, 30), rng.randint(0, 30))
        else:
            m = rng.choice((-1, 1)) * rng.randint(1, 500)
        if m == 0 or _ceiling(form, m) > 10**6:
            continue
        assert _ceiling(form, m) == int(rep_bound(form, m)) + 1, (form, m)
        count = rng.randint(1, 10)
        got = solutions(form, m, count=count)
        bound = max((abs(s.x) for s in got), default=200)
        if bound > 20000:
            continue
        brute = sorted(brute_force_solutions(form, m, bound),
                       key=lambda p: (abs(p[0]), p[0], p[1]))
        assert [s.pair() for s in got] == brute[:count], (form, m)
        reps = representatives(form, m)
        matrix = orbit_matrix(form)
        for s in got:
            start = (s.sign * reps[s.rep][0], s.sign * reps[s.rep][1])
            assert matrix.power(s.exponent).apply(start) == s.pair(), (form, m, s)
        kinds.add((form.a < 0, form.b % 2, form.a * m > 0))
        checked += 1
    assert len(kinds) == 8


def test_pair_of_two_orbits_keeps_the_first_orbit():
    # (693, 287) is M^2 * (21, 7) and M^3 * -(-7, 7): the pair carries the
    # orbit of the lower rep index, and of sign +1 before -1
    form = QuadraticForm(2, -4, -2)
    assert representatives(form, 196) == [(-9, 1), (-7, 7), (11, 1), (21, 7)]
    eighth = solutions(form, 196, count=8, positive=True)[-1]
    assert eighth == Solution(693, 287, 1, 3, -1)


@pytest.mark.parametrize("abc,m,limits,walks", [
    ((2, -4, -2), 196, dict(count=8, positive=True), 12),  # 8 starts, 6 orbits
    ((1, -6, -2), 1, dict(count=6), 4),  # 4 starts, 2 orbits
    ((4, -2, -10), 16, dict(xbound=5000), 16),  # 10 starts, 8 orbits
    ((8, 0, -1), -9, dict(count=5), 4),  # 2 starts, 2 orbits
])
def test_each_orbit_is_swept_once(monkeypatch, abc, m, limits, walks):
    # the sweep's heap starts with two rows per orbit, however many signed
    # representatives reach it: the least row, walked forward, and the row
    # before it, walked backward; the stream repeats no pair
    heaps = []
    heapify = pellsolver.heapq.heapify
    monkeypatch.setattr(pellsolver.heapq, "heapify", lambda h: heaps.append(list(h)) or heapify(h))
    form = QuadraticForm(*abc)
    got = solutions(form, m, **limits)
    [starts] = heaps
    assert len(starts) == walks
    rows = {(x, y) for _, x, y, *_ in starts}
    assert len(rows) == walks
    matrix = orbit_matrix(form)
    assert sum(pellsolver._dip(row, matrix, matrix.inverse())[0] == row for row in rows) == walks // 2
    assert len({s.pair() for s in got}) == len(got)


@pytest.mark.parametrize("abc,m,limits", [
    ((8, 0, -1), -9, dict(count=3)),
    ((2, -4, -2), 196, dict(count=8)),
    ((1, 1, -1), 11, dict(xbound=500)),
])
def test_orbit_matrix_is_the_one_reader_of_the_unit(monkeypatch, abc, m, limits):
    # representatives reads its search ceiling from the matrix's trace, so it
    # reads the unit once; solutions builds one more matrix for the sweep
    calls = []
    unit = pellsolver.tau_rho_coords
    monkeypatch.setattr(pellsolver, "tau_rho_coords", lambda d: calls.append(d) or unit(d))
    form = QuadraticForm(*abc)
    representatives(form, m)
    assert len(calls) == 1
    solutions(form, m, **limits)
    assert len(calls) == 3
    with pytest.raises(ValueError, match="degenerate right-hand side"):
        representatives(form, 0)


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
            # the rho-coordinate entries are the automorph written over (X, Y)
            X, Y = quadint_delta_pair(tau(delta), delta)
            a, b, c = form
            assert matrix == OrbitMatrix((X - b * Y) // 2, a * Y, -c * Y, (X + b * Y) // 2), form
            assert matrix.m11 + matrix.m22 == X, form
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
    (28, 262, 3036998852),  # shift 2^63 - 1591244641196
    (8, 0, 1 << 32),  # shift 2^64
    (100000000000000003, 4999, -2917273),  # shift -2^63 - 2190223542170
    (300000000000000002, 5987, -1406338),  # shift -2^63 + 2003863335495
    (520310123191416198435326, 5239, -1500),  # shift about -1.1 * 10^19
])
def test_square_hits_exact_past_int64(delta, y0, k):
    # the radicand is about 10^31, or the shift lies near or past +-2^63: a
    # float square root is off by more than a filter on it can tolerate, and
    # residues computed in int64 wrap or overflow
    root = math.isqrt(delta * y0 * y0) + k
    shift = root * root - delta * y0 * y0
    expected = [
        y for y in range(6001)
        if delta * y * y + shift >= 0 and is_perfect_square(delta * y * y + shift)[0]
    ]
    assert y0 in expected
    assert list(_square_radicand_hits(delta, shift, 6000)) == expected


def test_representatives_with_shift_just_below_2_63():
    # x^2 - 7y^2 = m with 4*a*m = 2^63 - 1591244641196: residues of the
    # radicand computed in int64 wrap, and 10 of the 12 orbits go missing
    form, m = QuadraticForm(1, 0, -7), 2305842611402533653
    assert 4 * m == 2**63 - 1591244641196
    assert len(representatives(form, m)) == 12
    assert [s.pair() for s in solutions(form, m, count=6, positive=True)] == [
        (1518500119, 262),
        (1630981881, 224963262),
        (1649728230, 243709611),
        (2024666214, 506166357),
        (2699556786, 843611643),
        (2768293399, 874855558),
    ]


# hits of the former residue sieve, which walked the whole window
NEAR_2_62_HITS = {
    26: [336, 45461472, 70319928, 123698316, 171799068, 198701412, 218060052,
         250122516, 266770140, 404557104, 428965824, 464866584, 530179440,
         535278408, 606348960, 757934772, 855935556, 913204236, 1018757460,
         1065049860, 1396483368, 1446426240, 1717985640, 1918905240],
    17: [45, 352707115, 1356305685, 1650147795],
}


@pytest.mark.parametrize("d,m", [(26, 4611686731389051300), (17, 4611688389249605575)])
def test_lattice_search_matches_sieve_for_right_hand_side_near_2_62(d, m):
    # x^2 - d*y^2 = m: the window holds about 2*10^9 values of y
    form = QuadraticForm(1, 0, -d)
    delta, shift, ceiling = form.delta, 4 * m, _ceiling(form, m)
    assert ceiling > 2 * 10**9
    assert list(_square_radicand_hits(delta, shift, ceiling)) == NEAR_2_62_HITS[d]


def test_search_falls_back_to_sieve_when_delta_and_shift_share_a_large_prime():
    # p^2 divides delta*y0^2 + shift, so p divides the shift: square roots
    # of delta are listed modulo a power of a large prime dividing it
    p, delta, y0 = 1000003, 1000003 * 7, 4321
    root = p * (math.isqrt(7 * y0 * y0 // p) + 5)
    shift = root * root - delta * y0 * y0
    assert shift % p == 0
    expected = list(_exact_square_hits(delta, shift, range(6001)))
    assert y0 in expected
    assert list(_square_radicand_hits(delta, shift, 6000)) == expected


def test_factor_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(0xFAC7)
    cases = [1, 2, 1 << 65, 3**40, 1021**2 * 1031]
    for _ in range(8):  # two primes of 20 to 28 bits: Pollard's rho must split them
        p, q = (sympy.nextprime(rng.randrange(1 << 20, 1 << 28)) for _ in range(2))
        cases.append(p * q * rng.choice([1, 4, 1021, p]))
    cases += [rng.randrange(1, 1 << 66) for _ in range(40)]
    for n in cases:
        assert _factor(n) == sympy.factorint(n), n


def _factor_by_every_small_divisor(n):
    # trial division by every p below 2^10, then the same Miller-Rabin and
    # Pollard-Brent as _factor
    out = {}
    for p in range(2, 1 << 10):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        n = stack.pop()
        if pellsolver._is_prime(n):
            out[n] = out.get(n, 0) + 1
            continue
        d = pellsolver._rho_factor(n)
        stack += [d, n // d]
    return out


def test_factor_divides_only_by_the_small_primes_of_n():
    rng = random.Random(0x6CD)
    cases = [1, 1021, 1031, 1021 * 1031, 2**62 + 57]
    cases += [rng.randrange(1, 1 << 40) for _ in range(300)]
    cases += [2**k * 3**j * 1021**i for k in (0, 1, 9, 40, 1013, 1020)
              for j in (0, 1, 7, 60) for i in (0, 1, 2, 5)]
    for n in cases:
        assert _factor(n) == _factor_by_every_small_divisor(n), n


def test_factor_gives_up_on_two_primes_past_the_rho_budget():
    p, q = 35184372088891, 52776558133303  # the primes after 2^45 and 3 * 2^44
    assert pellsolver._is_prime(p) and pellsolver._is_prime(q)
    assert _factor(p * q) is None


PSI_13 = 3317044064679887385961981  # the least strong pseudoprime to the primes to 41


def test_is_prime_rejects_the_strong_pseudoprime_to_every_witness():
    assert PSI_13 == 1287836182261 * 2575672364521
    assert not pellsolver._is_prime(PSI_13)
    assert not pellsolver._is_prime(PSI_13 * 1000003)


def test_strong_lucas_passes_the_primes_and_its_pseudoprimes():
    # the odd composites below 10^5 that pass: OEIS A217255
    pseudoprimes = [5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309,
                    58519, 75077, 97439]
    sieve = bytearray([1]) * 100000
    for p in range(2, 317):
        sieve[p * p::p] = bytes(len(sieve[p * p::p]))
    passed = [n for n in range(3, 100000, 2) if pellsolver._strong_lucas(n)]
    assert passed == sorted([n for n in range(3, 100000, 2) if sieve[n]] + pseudoprimes)
    # no D has (D/n) = -1 for a square n; the search would run to a factor of n
    assert not pellsolver._strong_lucas((2**64 + 13) ** 2)


def test_is_prime_agrees_with_a_sieve_below_2000():
    # the witnesses themselves are prime by lookup, not by Miller-Rabin
    sieve = bytearray([0, 0]) + bytearray([1]) * 1998
    for p in range(2, 45):
        sieve[p * p::p] = bytes(len(sieve[p * p::p]))
    assert [n for n in range(2000) if pellsolver._is_prime(n)] == [
        n for n in range(2000) if sieve[n]]


def test_is_prime_matches_sympy_above_psi_13():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(0xB95)
    for _ in range(40):
        bits = rng.randrange(82, 400)
        p = sympy.nextprime(rng.getrandbits(bits))
        q = sympy.nextprime(rng.getrandbits(bits // 2 + 1))
        n = rng.getrandbits(bits) | 1 | 1 << 82
        for m in (p, p * q, p * p, n):
            assert pellsolver._is_prime(m) == sympy.isprime(m), m


def test_factor_refuses_zero_before_any_division(monkeypatch):
    # gcd(0, 1023!) is 1023! and 0 is divisible by every p, so the trial
    # division never ended on 0
    monkeypatch.setattr(pellsolver, "_small_factorial", lambda: pytest.fail("divided"))
    for n in (0, -12):
        with pytest.raises(ValueError):
            _factor(n)



def test_small_scan_skips_only_rows_that_cannot_be_square():
    # below 4096 the scan skips y0 whose class mod 64 makes the radicand a
    # non-square mod 64; the hits equal a scan of the whole window
    rng = random.Random(0x5CA7)
    for case in range(240):
        ceiling = [0, 1, 63, 64, 65, 4095][case] if case < 6 else rng.randrange(4096)
        delta = rng.randrange(5, 10**6) * 2 + case % 2  # odd and even
        while math.isqrt(delta) ** 2 == delta:
            delta += 2
        y0 = rng.randint(0, ceiling)
        root = math.isqrt(delta * y0 * y0) + rng.randint(-3, 3) * (case % 3 != 2)
        shift = root * root - delta * y0 * y0 if case % 4 else rng.randint(-10**6, 10**6)
        if case % 3 == 1 and shift > 0:
            shift = -shift
        expected = list(_exact_square_hits(delta, shift, range(ceiling + 1)))
        assert list(_square_radicand_hits(delta, shift, ceiling)) == expected, (delta, shift, ceiling)


def test_sqrt_mod_prime_power_lists_every_root():
    for p, e in [(2, 1), (2, 7), (3, 4), (5, 3), (7, 2), (1021, 1)]:
        q = p**e
        for d in [*range(60), 5 * q, 8 * q + 4, q * q * 3]:
            roots = [z for z in range(q) if (z * z - d) % q == 0]
            assert sorted(_sqrt_mod_prime_power(d, p, e)) == roots, (d, p, e)
    # large primes, 1 and 3 mod 4: Tonelli-Shanks modulo p, then Newton's step
    for p in (1031, 998244353, 1000000007, 2**61 - 1):
        for e in (1, 2, 3):
            q = p**e
            for d in [*range(1, 40), -7, q + 2]:
                roots = _sqrt_mod_prime_power(d, p, e)
                assert len(roots) == (2 if pow(d, (p - 1) // 2, p) == 1 else 0), (d, p, e)
                assert all(0 <= z < q and (z * z - d) % q == 0 for z in roots), (d, p, e)
        assert _sqrt_mod_prime_power(3 * p, p, 2) == []  # an odd v_p has no root
    # a large prime dividing d: v_p(d) = 1, 2, 3 against e = 1, 2, 3
    for p, exponents in ((1031, (1, 2, 3)), (1000003, (1, 2))):
        for e in exponents:
            q = p**e
            for v in (1, 2, 3):
                for u in (1, 7):  # a square and a non-square modulo p
                    d = p**v * u
                    roots = sorted(_sqrt_mod_prime_power(d, p, e))
                    if q <= 1031**2:  # p divides d, so every root is a multiple of p
                        brute = [z for z in range(0, q, p) if (z * z - d) % q == 0]
                        assert roots == brute, (d, p, e)
                        continue
                    if v >= e:  # the multiples of p^ceil(e/2)
                        count = p ** (e // 2)
                    elif v % 2:
                        count = 0
                    else:
                        count = 2 * p ** (v // 2) if pow(u, (p - 1) // 2, p) == 1 else 0
                    assert len(roots) == len(set(roots)) == count, (d, p, e)
                    assert all(0 <= z < q and (z * z - d) % q == 0 for z in roots[::997]), (d, p, e)


def test_sqrt_mod_prime_power_matches_brute_force_for_small_odd_primes():
    # odd primes below 2^10 take Tonelli-Shanks and Newton's step; every d
    # mod p^e is tried, so at e <= 4 every valuation of p in d is hit
    sieve = bytearray([0, 0]) + bytearray([1]) * 1022
    for p in range(2, 32):
        sieve[p * p::p] = bytes(len(sieve[p * p::p]))
    cases = [(p, 1) for p in range(3, 1 << 10) if sieve[p]]
    cases += [(p, e) for p in (3, 5, 7, 11, 13) for e in (2, 3, 4)]
    for p, e in cases:
        q = p**e
        roots = [[] for _ in range(q)]
        for z in range(q):
            roots[z * z % q].append(z)
        for d in range(q):
            assert sorted(_sqrt_mod_prime_power(d, p, e)) == roots[d], (d, p, e)


def test_square_radicand_hits_lifts_each_prime_power_once(monkeypatch):
    # on the factor path the shift -2^2 * 3^2 * 5^2 * 7 * 11 has eight
    # scales g and several partial roots in each; the square roots of delta
    # modulo each (p, e) are lifted once per call
    lifts = []
    lift = pellsolver._sqrt_mod_prime_power
    monkeypatch.setattr(pellsolver, "_sqrt_mod_prime_power",
                        lambda d, p, e: lifts.append((p, e)) or lift(d, p, e))
    delta, shift, ceiling = 37, -4 * 9 * 25 * 7 * 11, 5000
    hits = list(_square_radicand_hits(delta, shift, ceiling))
    assert hits == list(_exact_square_hits(delta, shift, range(ceiling + 1)))
    assert len(hits) == 13
    assert sorted(lifts) == [(2, 2), (3, 2), (5, 2), (7, 1), (11, 1)]


# forms with a seeded right-hand side: b = 0 and b != 0, m of both signs,
# the first four with two rows of one |x| at the bottom of some orbit
DIP_CASES = [(2, 0, -1, 9), (1, 0, -3, -2), (1, -6, -2, 1), (3, 3, -20, -540),
             (8, 0, -1, -9), (2, -4, -2, 196), (4, -2, -10, 16), (-1, 3, 2, 4)]


@settings(max_examples=150, deadline=None)
@given(case=st.sampled_from(DIP_CASES), pick=st.integers(0, 5), j=st.integers(-12, 12),
       sign=st.sampled_from([1, -1]))
def test_dip_is_the_least_key_of_the_orbit(case, pick, j, sign):
    *abc, m = case
    form = QuadraticForm(*abc)
    matrix = orbit_matrix(form)
    reps = representatives(form, m)
    rep = reps[pick % len(reps)]
    row = matrix.power(j).apply((sign * rep[0], sign * rep[1]))
    least, k = pellsolver._dip(row, matrix, matrix.inverse())
    assert matrix.power(k).apply(row) == least

    def key(r):
        return (abs(r[0]), r[0], r[1])

    near = [matrix.power(i).apply(row) for i in range(k - 40, k + 41)]
    assert min(near, key=key) == least


def test_sieve_equals_exact_scan():
    # windows from 4096 to 2*10^5, odd and even delta up to 10^24, shifts of
    # both signs: generic, within 10^13 of +-2^63, and past it; each shift is
    # planted so that at least one y0 in the window, at times the ceiling
    # itself, is a hit
    rng = random.Random(0x5E7E)
    for case in range(36):
        ceiling = int(4096 * (2 * 10**5 / 4096) ** rng.random())
        y0 = rng.randint(ceiling // 2, ceiling) if case % 5 else ceiling
        sign = (-1) ** case
        kind = case // 2 % 3
        if kind == 0:  # generic
            delta = rng.randint(2, 10**24)
            target = sign * rng.randint(1, 10**18)
        elif kind == 1:  # near +-2^63: the square root must stay below 5*10^12
            if sign > 0:
                delta = rng.randint(2, 10**14)
            else:
                delta = (2**63 + rng.randint(0, 10**24)) // (y0 * y0) + 2
            target = sign * 2**63 + rng.randint(-10**12, 10**12)
        else:  # past +-2^63
            delta = rng.randint(2, 10**24)
            target = sign * rng.randint(2**63, 2**80)
        delta += (delta + case // 6) % 2  # alternate the parity of delta
        # the shift nearest below target that makes delta*y0^2 + shift square
        root = math.isqrt(max(0, delta * y0 * y0 + target))
        shift = root * root - delta * y0 * y0
        if kind == 1:
            assert abs(shift - sign * 2**63) < 10**13
        expected = list(_exact_square_hits(delta, shift, range(ceiling + 1)))
        assert y0 in expected
        hits = list(_square_radicand_hits(delta, shift, ceiling))
        assert hits == expected, (delta, shift, ceiling)


def _diop_dn_cases():
    rng = random.Random(0xD10D)
    cases = []
    while len(cases) < 60:
        D = rng.randrange(2, 350)
        N = rng.choice([-1, 1]) * rng.randint(1, 30)
        if len(cases) % 2:
            # few random right-hand sides are solvable: plant (x, 1) in half
            x = math.isqrt(D) + rng.randint(0, 1)
            N = x * x - D
        if math.isqrt(D) ** 2 != D and 0 < abs(N) <= 30:
            cases.append((D, N))
    # D < 2000 and |N| up to 10^6, every other one planted solvable
    while len(cases) < 100:
        D = rng.randrange(2, 2000)
        N = rng.choice([-1, 1]) * rng.randint(1, 10**6)
        if len(cases) % 2:
            y = rng.randint(1, 30)
            x = math.isqrt(D * y * y) + rng.randint(0, 20)
            N = x * x - D * y * y
        if math.isqrt(D) ** 2 != D and 0 < abs(N) <= 10**6:
            cases.append((D, N))
    # 4*N just below 2^63, and 4*N = 2^64
    return cases + [(7, 2305842611402533653), (2, 4611686018427387904)]


def test_search_ceiling_is_the_floor_of_rep_bound_plus_one():
    # the solver's integer ceiling and the public Fraction bound agree
    for D, N in _diop_dn_cases():
        form = QuadraticForm(1, 0, -D)
        assert _ceiling(form, N) == int(rep_bound(form, N)) + 1, (D, N)


def test_solvability_and_fundamental_solutions_match_diop_dn():
    sympy_diophantine = pytest.importorskip("sympy.solvers.diophantine.diophantine")
    for D, N in _diop_dn_cases():
        form = QuadraticForm(1, 0, -D)
        fundamental = sympy_diophantine.diop_DN(D, N)
        if _ceiling(form, N) > 10**12:  # refused: the search window is too wide
            with pytest.raises(ValueError, match="ceiling exceeds 10\\^12"):
                solutions(form, N, count=1)
            continue
        assert bool(solutions(form, N, count=1, positive=True)) == bool(fundamental), (D, N)
        if fundamental:
            xbound = max(1, max(abs(x) for x, _ in fundamental))
            stream = {s.pair() for s in solutions(form, N, xbound=xbound)}
            for x, y in fundamental:
                assert (x, y) in stream and (x, -y) in stream, (D, N, x, y)
