import math
import random
import sys
import threading
import tracemalloc
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from balance_forge import sequences
from balance_forge.quadarith import is_perfect_square, square_residue
from balance_forge.sequences import (
    CORE_KINDS,
    DEEP_ROOT_BITS,
    BalancerKind,
    KIND_BY_NAME,
    MEMBERSHIP_KINDS,
    SequenceKind,
    WITNESS_KIND,
    balancer,
    closed_form_terms,
    definitional_check,
    is_member,
    term,
    term_binet,
    terms,
)

K = SequenceKind

# frozen openings of all thirteen families
PREFIXES = {
    K.B: [0, 1, 6, 35, 204, 1189, 6930, 40391, 235416],
    K.b: [0, 0, 2, 14, 84, 492, 2870, 16730, 97512],
    K.C: [1, 3, 17, 99, 577, 3363, 19601, 114243, 665857],
    K.c: [-1, 1, 7, 41, 239, 1393, 8119, 47321, 275807],
    K.P: [0, 1, 2, 5, 12, 29, 70, 169, 408, 985],
    K.Bstar: [0, 3, 18, 105, 612, 3567],
    K.Cstar: [3, 9, 51, 297, 1731, 10089],
    K.Bstarstar: [1, 1, 2, 4, 11, 23, 64, 134, 373, 781],
    K.Cstarstar: [-1, 1, 5, 11, 31, 65, 181, 379, 1055, 2209],
    K.bstar: [0, 1, 4, 9, 26, 55, 154, 323, 900, 1885],
    K.cstar: [3, 5, 13, 27, 75, 157, 437, 915, 2547, 5333],
    K.bstarstar: [1, 1, 7, 43, 253, 1477, 8611],
    K.cstarstar: [3, 3, 21, 123, 717, 4179, 24357],
}


@pytest.mark.parametrize("kind", list(PREFIXES), ids=lambda k: k.value)
def test_frozen_prefixes(kind):
    assert [term(kind, n) for n in range(len(PREFIXES[kind]))] == PREFIXES[kind]


def test_stated_base_values():
    assert [term(K.B, n) for n in (0, 1, 2)] == [0, 1, 6]
    assert [term(K.b, n) for n in (0, 1, 2)] == [0, 0, 2]
    assert (term(K.C, 0), term(K.C, 1)) == (1, 3)
    assert term(K.c, 1) == 1
    assert (term(K.P, 0), term(K.P, 1)) == (0, 1)
    assert (term(K.Bstar, 0), term(K.Cstar, 0)) == (0, 3)
    assert (term(K.Bstarstar, 0), term(K.Cstarstar, 0)) == (1, -1)
    assert (term(K.bstar, 0), term(K.cstar, 0)) == (0, 3)
    assert (term(K.bstarstar, 0), term(K.cstarstar, 0)) == (1, 3)


def test_term_examples():
    assert term(K.B, 2) == 6
    assert term(K.Bstarstar, 4) == 11
    assert term(K.bstar, 3) == 9
    assert term(K.cstarstar, 2) == 21


def test_undefined_index():
    with pytest.raises(ValueError, match="undefined index"):
        term(K.B, -1)
    with pytest.raises(ValueError, match="undefined index"):
        term_binet(K.B, 0)


@pytest.mark.parametrize("kind", [K.B, K.b, K.C, K.c, K.P], ids=lambda k: k.value)
def test_binet_matches_recurrence(kind):
    for n in range(1, 201):
        assert term_binet(kind, n) == term(kind, n)


def _plain_recurrence(s1, s2, add, v0, v1, count):
    out = [v0, v1]
    while len(out) < count:
        out.append(s1 * out[-1] + s2 * out[-2] + add)
    return out


PLAIN_DEPTH = 500
_core = {
    K.B: _plain_recurrence(6, -1, 0, 0, 1, PLAIN_DEPTH + 3),
    K.b: _plain_recurrence(6, -1, 2, 0, 0, PLAIN_DEPTH + 3),
    K.C: _plain_recurrence(6, -1, 0, 1, 3, PLAIN_DEPTH + 3),
    K.c: _plain_recurrence(6, -1, 0, -1, 1, PLAIN_DEPTH + 3),
    K.P: _plain_recurrence(2, 1, 0, 0, 1, PLAIN_DEPTH + 3),
}
B, b, C, c = (_core[k].__getitem__ for k in (K.B, K.b, K.C, K.c))


def _interleaved(odd, even):
    return lambda n: odd((n + 1) // 2) if n % 2 else even(n // 2)


# the general terms of the module docstring, over plain recurrence lists
PLAIN = {
    **{kind: values.__getitem__ for kind, values in _core.items()},
    K.Bstar: lambda n: 3 * B(n),
    K.Cstar: lambda n: 3 * C(n),
    K.bstarstar: lambda n: 3 * b(n) + 1,
    K.cstarstar: lambda n: 3 * c(n) if n else 3,
    K.Bstarstar: _interleaved(lambda m: B(m - 1) + C(m - 1), lambda m: C(m) - B(m)),
    K.Cstarstar: _interleaved(lambda m: 8 * B(m - 1) + C(m - 1), lambda m: 8 * B(m) - C(m)),
    K.bstar: _interleaved(lambda m: 4 * b(m) - b(m - 1) + 1, lambda m: 2 * b(m + 1) - b(m)),
    K.cstar: _interleaved(lambda m: c(m + 1) - 2 * c(m), lambda m: c(m + 2) - 4 * c(m + 1)),
}


@pytest.mark.parametrize("kind", list(SequenceKind), ids=lambda k: k.value)
def test_term_matches_plain_recurrence(kind):
    expected = [PLAIN[kind](n) for n in range(PLAIN_DEPTH + 1)]
    assert [term(kind, n) for n in range(PLAIN_DEPTH + 1)] == expected


@pytest.mark.parametrize("kind", list(SequenceKind), ids=lambda k: k.value)
@pytest.mark.parametrize("start", [0, 1, 2, 3, 37, 250])
def test_terms_steps_from_any_start(kind, start):
    assert list(islice(terms(kind, start), 60)) == [
        PLAIN[kind](n) for n in range(start, start + 60)]


def test_terms_negative_start():
    with pytest.raises(ValueError, match="undefined index"):
        terms(K.cstar, -1)
    with pytest.raises(ValueError, match="unknown kind 'B'"):
        terms("B")  # a name, not a kind
    with pytest.raises(ValueError, match="undefined index"):
        term(K.B, -1)
    with pytest.raises(ValueError, match="unknown kind 'B'"):
        term("B", 3)


# n modulo 4 takes every value: both parities of n and of the chain index
# h = n // 2, so P's (-s2)^h = -1 at odd h too
@pytest.mark.parametrize("n", [10**4, 10**4 + 1, 10**4 + 2, 10**4 + 3, 20002])
@pytest.mark.parametrize("kind", [K.B, K.b, K.C, K.c, K.P], ids=lambda k: k.value)
def test_term_matches_binet_deep(kind, n):
    assert term(kind, n) == term_binet(kind, n)


# term reads forms over one half-index chain, terms steps a window: two routes
@pytest.mark.parametrize("n", [20000, 20001, 20002, 20003])
@pytest.mark.parametrize("kind", list(sequences._DERIVED), ids=lambda k: k.value)
def test_derived_term_matches_terms_deep(kind, n):
    assert term(kind, n) == next(terms(kind, n))


def test_term_refuses_an_inexact_value(monkeypatch):
    # a general term whose value is not an integer raises; it is never floored
    half = sequences._Form((0, 0, 0, 1, 2))
    monkeypatch.setitem(sequences._DERIVED, K.Bstar, lambda v, n: 3 * v.B(n) + half)
    for n in (1, 2, 3001, 3002):
        with pytest.raises(AssertionError, match="is not an integer"):
            term(K.Bstar, n)


def test_term_retains_nothing():
    term(K.B, 10)
    term(K.cstar, 10)
    # cs(60000) reads c(30002) and c(30001) as forms over one chain at index 15001
    for kind in (K.B, K.cstar):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            term(kind, 60000)
            after, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert after - before < 4096, kind
        # B(60000) is about 20 KiB; the engine holds a few values of that size
        assert peak - before < 10 * 2**20, kind


def _answer(kind, n):
    value = term(kind, n)
    return value, is_member(kind, value) if kind in MEMBERSHIP_KINDS else None


def test_term_is_thread_safe():
    rng = random.Random(7)
    queries = [(rng.choice(list(SequenceKind)), rng.randint(0, 3000)) for _ in range(400)]
    # derived kinds deep enough that membership proves its root by a norm certificate
    queries += [(kind, rng.randint(12000, 14000)) for kind in (K.Bstarstar, K.bstar) * 4]
    rng.shuffle(queries)
    expected = [_answer(kind, n) for kind, n in queries]
    results = [None] * 4

    def worker(slot):
        results[slot] = [_answer(kind, n) for kind, n in queries[slot::4]]

    threads = [threading.Thread(target=worker, args=(slot,)) for slot in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for slot in range(4):
        assert results[slot] == expected[slot::4]


@pytest.mark.parametrize("kind", [K.B, K.b, K.C, K.c, K.P], ids=lambda k: k.value)
def test_closed_form_terms_match_term_binet(kind):
    # pins the addition-only stepping by 1 + sqrt(2) against exact powers
    stepped = list(islice(closed_form_terms(kind), 501))
    assert stepped[1:] == [term_binet(kind, n) for n in range(1, 501)]
    assert stepped[0] == term(kind, 0)


def test_binet_examples():
    assert term_binet(K.C, 2) == 17
    assert term_binet(K.b, 2) == 2
    assert term_binet(K.B, 1) == 1


def test_binet_no_closed_form():
    with pytest.raises(ValueError, match="no closed form"):
        term_binet(K.Bstar, 1)
    with pytest.raises(ValueError, match="no closed form"):
        next(closed_form_terms(K.Bstar))


def test_cli_name_vocabulary():
    assert sorted(KIND_BY_NAME) == sorted(
        ["B", "b", "C", "c", "P", "Bs", "Bss", "Cs", "Css", "bs", "bss", "cs", "css"]
    )


@pytest.mark.parametrize("kind", MEMBERSHIP_KINDS, ids=lambda k: k.value)
def test_members_carry_witnesses(kind):
    witness = WITNESS_KIND[kind]
    for n in range(1, 201):
        ok, root = is_member(kind, term(kind, n))
        assert ok and root == term(witness, n)
        # the balancer numerator is even for every member
        assert (-2 * term(kind, n) - 1 + root) % 2 == 0


def test_is_member_examples():
    assert is_member(K.Bstar, 3) == (True, 9)
    assert is_member(K.Bstarstar, 2) == (True, 5)
    assert is_member(K.B, 2) == (False, None)


def test_is_member_no_criterion():
    for kind in (K.C, K.c, K.Cstar, K.Cstarstar, K.cstar, K.cstarstar, K.P):
        with pytest.raises(ValueError, match="no membership criterion"):
            is_member(kind, 1)


SCAN_WINDOW = 200_000


@pytest.mark.parametrize("kind", MEMBERSHIP_KINDS, ids=lambda k: k.value)
def test_membership_completeness_window(kind):
    """An exhaustive scan finds exactly the generated terms, nothing else."""
    found = {x for x in range(SCAN_WINDOW + 1) if is_member(kind, x)[0]}
    generated = set()
    n = 0
    while True:
        v = term(kind, n)
        if v > SCAN_WINDOW:
            break
        generated.add(v)
        n += 1
    assert found == generated


def test_balancer_examples():
    assert balancer(BalancerKind.R, 6) == 2
    # n=3 balances with r=1 up to defect +1: (4) - (1+2) = +1
    assert balancer(BalancerKind.Rstar, 3) == 1
    assert balancer(BalancerKind.R, 1) == 0


def test_balancer_not_member():
    with pytest.raises(ValueError, match="not a member"):
        balancer(BalancerKind.R, 2)
    with pytest.raises(ValueError, match="not a member"):
        balancer(BalancerKind.rstarstar, 3)
    with pytest.raises(ValueError, match="not a member"):
        balancer(BalancerKind.Rstarstar, 0)


def test_balancer_rejects_negative_input():
    with pytest.raises(ValueError, match="negative value"):
        balancer(BalancerKind.R, -1)


def test_balancer_cobalancer_interlock():
    for n in range(1, 101):
        assert balancer(BalancerKind.R, term(K.B, n)) == term(K.b, n)
        assert balancer(BalancerKind.r, term(K.b, n + 1)) == term(K.B, n)


def test_definitional_check_examples():
    assert definitional_check("balancing", 6, 2) == 0
    # recomputed with direct summation: (3) - (1) and (5+6) - (1+2+3)
    assert definitional_check("almost_balancing", 2, 1) == 2
    assert definitional_check("almost_balancing", 4, 2) == 5


def test_definitional_check_unknown_family():
    with pytest.raises(ValueError, match="unknown family"):
        definitional_check("nope", 1, 1)


def _loop_defect(cobalancing: bool, n: int, r: int) -> int:
    upper = sum(range(n + 1, n + r + 1))
    lower = sum(range(1, n + (1 if cobalancing else 0)))
    return upper - lower


def test_definitional_check_against_loop_sums():
    for n in range(1, 81):
        for r in range(0, 81):
            assert definitional_check("balancing", n, r) == _loop_defect(False, n, r)
            assert definitional_check("cobalancing", n, r) == _loop_defect(True, n, r)


@given(st.integers(1, 500), st.integers(0, 500))
@settings(max_examples=200)
def test_definitional_check_matches_loops(n, r):
    assert definitional_check("almost_balancing", n, r) == _loop_defect(False, n, r)
    assert definitional_check("almost_cobalancing", n, r) == _loop_defect(True, n, r)


def test_almost_defects_are_plus_minus_one():
    for n in range(1, 101):
        x = term(K.Bstar, n)
        assert definitional_check(
            "almost_balancing", x, balancer(BalancerKind.Rstar, x)) == 1
        x = term(K.Bstarstar, n)
        assert definitional_check(
            "almost_balancing", x, balancer(BalancerKind.Rstarstar, x)) == -1
        x = term(K.bstar, n)
        assert definitional_check(
            "almost_cobalancing", x, balancer(BalancerKind.rstar, x)) == 1
        x = term(K.bstarstar, n)
        assert definitional_check(
            "almost_cobalancing", x, balancer(BalancerKind.rstarstar, x)) == -1


def test_exact_balance_defect_is_zero():
    for n in range(1, 101):
        x = term(K.B, n)
        assert definitional_check("balancing", x, balancer(BalancerKind.R, x)) == 0
        x = term(K.b, n)
        assert definitional_check("cobalancing", x, balancer(BalancerKind.r, x)) == 0


@given(st.integers(0, 10**6))
@settings(max_examples=150)
def test_membership_agrees_with_square_test(x):
    ok, root = is_member(K.B, x)
    flag, r = is_perfect_square(8 * x * x + 1)
    assert (ok, root) == (flag, r)


# the square criteria of the paper, one radicand per membership kind
RADICANDS = {
    K.B: lambda x: 8 * x * x + 1,
    K.b: lambda x: 8 * x * x + 8 * x + 1,
    K.Bstar: lambda x: 8 * x * x + 9,
    K.Bstarstar: lambda x: 8 * x * x - 7,
    K.bstar: lambda x: 8 * x * x + 8 * x + 9,
    K.bstarstar: lambda x: 8 * x * x + 8 * x - 7,
}

# membership kind -> (balancer kind, family, defect of the equal-sums equation)
BALANCERS = {
    K.B: (BalancerKind.R, "balancing", 0),
    K.b: (BalancerKind.r, "cobalancing", 0),
    K.Bstar: (BalancerKind.Rstar, "almost_balancing", 1),
    K.Bstarstar: (BalancerKind.Rstarstar, "almost_balancing", -1),
    K.bstar: (BalancerKind.rstar, "almost_cobalancing", 1),
    K.bstarstar: (BalancerKind.rstarstar, "almost_cobalancing", -1),
}


def _plain_member(kind, x):
    """The square criterion by math.isqrt of the radicand, no shortcut."""
    rad = RADICANDS[kind](x)
    if rad < 0:
        return False, None
    root = math.isqrt(rad)
    return (True, root) if root * root == rad else (False, None)


def _crossing(kind):
    """The first index whose witness has more than ``DEEP_ROOT_BITS`` bits."""
    return next(n for n, w in enumerate(terms(WITNESS_KIND[kind]))
                if w.bit_length() > DEEP_ROOT_BITS)


def _deep_indices(kind, rng):
    top = 40000 if kind in (K.Bstarstar, K.bstar) else 20000
    first = _crossing(kind)
    return list(range(first - 2, first + 3)) + sorted(
        rng.sample(range(first + 3, top), 3)) + [top]


@pytest.mark.parametrize("kind", MEMBERSHIP_KINDS, ids=lambda k: k.value)
def test_deep_membership_matches_plain_criterion(kind):
    rng = random.Random(f"deep:{kind.value}")
    bkind, family, defect = BALANCERS[kind]
    for n in _deep_indices(kind, rng):
        x = term(kind, n)
        assert is_member(kind, x) == _plain_member(kind, x) == (True, term(WITNESS_KIND[kind], n))
        assert definitional_check(family, x, balancer(bkind, x)) == defect
        for y in (x - 1, x + 1):
            assert is_member(kind, y) == _plain_member(kind, y)
    # random values of 4k to 60k bits, half of them chosen to pass the
    # residue filter so that their root is proposed from the witness terms
    for passing in (False, True) * 3:
        while True:
            x = rng.getrandbits(rng.randint(4000, 60000))
            if not passing or square_residue(RADICANDS[kind](x)):
                break
        assert is_member(kind, x) == _plain_member(kind, x)


@pytest.fixture
def square_roots(monkeypatch):
    """The radicands membership hands to ``is_perfect_square``."""
    calls = []

    def counted(x):
        calls.append(x)
        return is_perfect_square(x)

    monkeypatch.setattr(sequences, "is_perfect_square", counted)
    return calls


@pytest.fixture
def chains(monkeypatch):
    """The recurrences ``(s1, s2)`` that ``sequences`` runs a Lucas chain for."""
    calls, real = [], sequences.lucas_chain
    monkeypatch.setattr(sequences, "lucas_chain",  # term passes a typed one
                        lambda s1, s2, n, *one: calls.append((s1, s2)) or real(s1, s2, n, *one))
    return calls


@pytest.mark.parametrize("kind", MEMBERSHIP_KINDS, ids=lambda k: k.value)
def test_deep_members_skip_the_square_root(kind, square_roots, chains):
    first = _crossing(kind)
    for n in (first, first + 1, first + 2, 2 * first):
        x, root = term(kind, n), term(WITNESS_KIND[kind], n)
        chains.clear()
        assert is_member(kind, x) == (True, root)
        assert chains == [(6, -1)], n  # one chain, even for Bss's witness Css
    assert square_roots == []
    # one index below, the root is at most DEEP_ROOT_BITS long: isqrt decides
    assert is_member(kind, term(kind, first - 1))[0]
    assert len(square_roots) == 1


def _members_and_neighbours(kind):
    first = _crossing(kind)
    return [x + d for x in (term(kind, first), term(kind, first + 40)) for d in (-1, 0, 1)]


@pytest.fixture
def open_residues(monkeypatch):
    """Residue stages that pass every value, so that the certificate alone decides."""
    monkeypatch.setattr(sequences, "square_residue", lambda v: True)
    monkeypatch.setattr(sequences, "_PRIME_SQUARES", {p: (1 << p) - 1 for p in sequences._PRIME_SQUARES})


@pytest.mark.parametrize("kind", MEMBERSHIP_KINDS, ids=lambda k: k.value)
def test_too_high_start_cannot_decide(kind, monkeypatch, square_roots):
    values, real = _members_and_neighbours(kind), sequences.lucas_chain
    monkeypatch.setattr(sequences, "lucas_chain", lambda s1, s2, n: real(s1, s2, n + 10))
    for x in values:
        assert is_member(kind, x) == _plain_member(kind, x)
    # the certificate starts past the member's row, so every member reaches isqrt
    assert sum(RADICANDS[kind](x) in square_roots for x in values[1::3]) == 2


# membership kind -> a kind of the same s on another orbit, whose bases it is given
WRONG_ORBIT = {K.B: K.Bstar, K.Bstar: K.B, K.Bstarstar: K.B,
               K.b: K.bstarstar, K.bstarstar: K.b, K.bstar: K.b}


@pytest.mark.parametrize("kind", MEMBERSHIP_KINDS, ids=lambda k: k.value)
def test_wrong_witness_stream_cannot_decide(kind, monkeypatch, square_roots, open_residues):
    values, real, other = _members_and_neighbours(kind), sequences.lucas_chain, WRONG_ORBIT[kind]
    # the other kind's members lie on the wrong orbit: only the norm test refuses them
    strangers = [term(other, n) for n in (_crossing(other), _crossing(other) + 41)]
    row = sequences._MEMBERSHIP[kind]
    for fault in ("base", "recurrence"):
        square_roots.clear()
        with monkeypatch.context() as m:
            if fault == "base":
                m.setitem(sequences._MEMBERSHIP, kind, row[:3] + sequences._MEMBERSHIP[other][3:])
            else:  # Pell's recurrence in place of (6, -1)
                m.setattr(sequences, "lucas_chain", lambda s1, s2, n: real(2, 1, n))
            for x in values + strangers:
                assert is_member(kind, x) == _plain_member(kind, x), (fault, x)
        assert sum(RADICANDS[kind](x) in square_roots for x in values[1::3]) == 2, fault


def _conjugate_chain(real):
    """``(U(-j-1), U(-j))``: the chain of ``(1 - sqrt(2))**(2j + 2)``, also of norm 1."""
    def chain(s1, s2, n):
        u, u1 = real(s1, s2, n + 1)
        return -u, u1 - s1 * u
    return chain


@pytest.mark.parametrize("fault", ["norm", "scaled", "conjugate"])
@pytest.mark.parametrize("kind", MEMBERSHIP_KINDS, ids=lambda k: k.value)
def test_faulty_chain_cannot_decide(kind, fault, monkeypatch, square_roots, open_residues):
    first, (s, _), real = _crossing(kind), sequences._MEMBERSHIP[kind][0], sequences.lucas_chain
    members = [term(kind, n) for n in range(first, first + 8)]
    if fault == "norm":  # p^2 - 2q^2 is not 1
        chain = lambda s1, s2, n: (lambda u, u1: (u, u1 + 1))(*real(s1, s2, n))
    elif fault == "scaled":  # norm 9: its square times a base reaches 9X, the X of 9x + 4s
        chain = lambda s1, s2, n: tuple(3 * v for v in real(s1, s2, n))
        members = [9 * x + 4 * s for x in members]
    else:  # a row of the right norm and coordinate, with the root's sign flipped
        chain = _conjugate_chain(real)
    monkeypatch.setattr(sequences, "lucas_chain", chain)
    for x in members:
        for y in (x - 1, x, x + 1):
            assert is_member(kind, y) == _plain_member(kind, y), y
    assert all(RADICANDS[kind](x) in square_roots for x in members)


# membership kind -> (base, exponent) of the row of its member at index n >= 1
ORBIT = {
    K.B: lambda n: ((1, 0), 2 * n),
    K.b: lambda n: ((1, 0), 2 * n - 1),
    K.Bstar: lambda n: ((3, 0), 2 * n),
    K.bstarstar: lambda n: ((3, 0), 2 * n - 1),
    K.Bstarstar: lambda n: ((1, 2), n - 1) if n % 2 else ((-1, 2), n),
    K.bstar: lambda n: ((1, 2), n) if n % 2 else ((-1, 2), n + 1),
}


def _row(base, e):
    """``base * (1 + sqrt(2))**e`` as ``(rational part, sqrt(2) coordinate)``."""
    a, c = base
    for _ in range(e):
        a, c = a + 2 * c, a + c
    return a, c


@pytest.mark.parametrize("kind", MEMBERSHIP_KINDS, ids=lambda k: k.value)
def test_bases_reproduce_the_families(kind):
    (s, t), witness, _, bases = sequences._MEMBERSHIP[kind]
    used = set()
    for n in range(1, 51):
        (g, h), e = ORBIT[kind](n)
        assert _row((g, h), e) == (term(witness, n), 2 * term(kind, n) + s), n
        assert (g * g - 2 * h * h) * (-1) ** e == t - 2 * s * s, n
        used.add((g, h))
    assert used == set(bases)


@pytest.mark.parametrize("kind", MEMBERSHIP_KINDS, ids=lambda k: k.value)
def test_no_kind_accepts_anothers_members(kind, open_residues):
    values = [x + d for other in MEMBERSHIP_KINDS for n in (_crossing(other), _crossing(other) + 41)
              for x in [term(other, n)] for d in (-1, 0, 1)]
    for y in values:
        assert is_member(kind, y) == _plain_member(kind, y), y


@pytest.mark.parametrize("kind", MEMBERSHIP_KINDS, ids=lambda k: k.value)
def test_certificate_starts_a_few_steps_below_the_row(kind, monkeypatch):
    rng = random.Random(f"steps:{kind.value}")
    first, top = _crossing(kind), 40000 if kind in (K.Bstarstar, K.bstar) else 20000
    indices = list(range(first, first + 8)) + sorted(rng.sample(range(first + 8, top), 12)) + [top]
    members, real, chained = [term(kind, n) for n in indices], sequences.lucas_chain, []
    monkeypatch.setattr(sequences, "lucas_chain", lambda s1, s2, n: chained.append(n) or real(s1, s2, n))
    for n, x in zip(indices, members):
        chained.clear()
        assert is_member(kind, x)[0]
        [j] = chained
        # the chain squared twice reads (1 + sqrt(2))**8j, a few steps below the member's row
        assert 0 <= ORBIT[kind](n)[1] - 8 * j <= 11, n


def _recurrences(families):
    return sorted({sequences._RECURRENCES[k][1:3] for k in families})


# derived kind -> the core families its general term reads (index n >= 1)
FAMILIES_READ = {
    K.Bstar: [K.B], K.Cstar: [K.C], K.bstarstar: [K.b], K.cstarstar: [K.c],
    K.Bstarstar: [K.B, K.C], K.Cstarstar: [K.B, K.C], K.bstar: [K.b], K.cstar: [K.c],
}


@pytest.mark.parametrize("kind", list(FAMILIES_READ), ids=lambda k: k.value)
def test_derived_term_runs_one_chain_per_family(kind, chains):
    # one chain per recurrence read: Bss and Css read B and C from the same one
    for n in (1, 2, 7, 8, 3001, 3002):
        chains.clear()
        term(kind, n)
        assert chains == _recurrences(FAMILIES_READ[kind]) == [(6, -1)], n


# the bs and cs branches (odd, even), each in both orders of its two reads
# of one family: the higher index first, as the paper writes it, and the lower
EITHER_ORDER = {
    K.bstar: (
        (lambda v, m: 4 * v.b(m) - v.b(m - 1) + 1, lambda v, m: 1 - v.b(m - 1) + 4 * v.b(m)),
        (lambda v, m: 2 * v.b(m + 1) - v.b(m), lambda v, m: -v.b(m) + 2 * v.b(m + 1)),
    ),
    K.cstar: (
        (lambda v, m: v.c(m + 1) - 2 * v.c(m), lambda v, m: -2 * v.c(m) + v.c(m + 1)),
        (lambda v, m: v.c(m + 2) - 4 * v.c(m + 1), lambda v, m: -4 * v.c(m + 1) + v.c(m + 2)),
    ),
}


@pytest.mark.parametrize("branch", ["odd", "even"])
@pytest.mark.parametrize("kind", list(EITHER_ORDER), ids=lambda k: k.value)
def test_general_terms_read_a_family_in_either_order(kind, branch, monkeypatch):
    expected = [term(kind, n) for n in range(301)], list(islice(terms(kind, 40000), 2))
    table = sequences._DERIVED[kind]
    table_odd, table_even = lambda v, m: table(v, 2 * m - 1), lambda v, m: table(v, 2 * m)
    for general in EITHER_ORDER[kind][branch == "even"]:
        odd, even = (general, table_even) if branch == "odd" else (table_odd, general)
        monkeypatch.setitem(sequences._DERIVED, kind, sequences._parity(odd, even))
        got = [term(kind, n) for n in range(301)], list(islice(terms(kind, 40000), 2))
        assert got == expected



@pytest.mark.parametrize("kind", CORE_KINDS, ids=lambda k: k.value)
def test_core_term_runs_one_chain(kind, chains):
    for n in (0, 1, 3001):
        chains.clear()
        term(kind, n)
        assert chains == _recurrences([kind]), n


def test_prime_residue_tables_hold_the_squares():
    assert sequences._PRIME_MODULUS == math.prod(sequences._PRIME_SQUARES)
    for p, squares in sequences._PRIME_SQUARES.items():
        assert all(p % d for d in range(2, p)), p
        assert {r for r in range(p) if squares >> r & 1} == {i * i % p for i in range(p)}, p


@pytest.mark.parametrize("kind", MEMBERSHIP_KINDS, ids=lambda k: k.value)
def test_residue_stage_rejects_before_witness_and_root(kind, square_roots, chains):
    # deep non-members next to members that pass the first residue filter
    first, rad = _crossing(kind), RADICANDS[kind]
    values = [y for n in (first, first + 7, 2 * first) for x in [term(kind, n)]
              for y in range(x + 1, x + 200) if square_residue(rad(y))]
    assert len(values) >= 6 and all(not _plain_member(kind, y)[0] for y in values)
    chains.clear()
    for y in values:
        assert is_member(kind, y) == (False, None)
    assert chains == [] and square_roots == []


def _matrix_mul(x, y):
    (a, b), (c, d) = x
    (e, f), (g, h) = y
    return ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))


def _matrix_power(m, n):
    """``m**n`` for a 2x2 matrix by binary powering with plain products."""
    out = ((1, 0), (0, 1))
    for bit in bin(n)[2:]:
        out = _matrix_mul(out, out)
        if bit == "1":
            out = _matrix_mul(out, m)
    return out


# the two recurrences of the families, then Fibonacci and two with |Q| > 1
@pytest.mark.parametrize("s1,s2", [(6, -1), (2, 1), (1, 1), (3, -2), (-2, 3)])
def test_chain_matches_the_companion_matrix_power(s1, s2):
    # ((s1, s2), (1, 0))**n = ((U(n+1), s2 U(n)), (U(n), s2 U(n-1)))
    step, power = ((s1, s2), (1, 0)), ((1, 0), (0, 1))
    for n in range(3001):
        assert sequences.lucas_chain(s1, s2, n) == (power[1][0], power[0][0]), n
        power = _matrix_mul(power, step)
    if (s1, s2) in ((6, -1), (2, 1)):
        rng = random.Random(13)
        for n in [rng.randrange(3001, 200_001) for _ in range(50)]:
            power = _matrix_power(step, n)
            assert sequences.lucas_chain(s1, s2, n) == (power[1][0], power[0][0]), n
