import random
import sys
import threading
import tracemalloc
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from balance_forge.quadarith import is_perfect_square
from balance_forge.sequences import (
    BalancerKind,
    KIND_BY_NAME,
    MEMBERSHIP_KINDS,
    SequenceKind,
    WITNESS_KIND,
    balancer,
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


@pytest.mark.parametrize("n", [10**4, 20002])
@pytest.mark.parametrize("kind", [K.B, K.b, K.C, K.c, K.P], ids=lambda k: k.value)
def test_term_matches_binet_deep(kind, n):
    assert term(kind, n) == term_binet(kind, n)


def test_term_retains_nothing():
    term(K.B, 10)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        term(K.B, 60000)
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert after - before < 4096
    # B(60000) is about 20 KiB; the engine holds a few values of that size
    assert peak - before < 10 * 2**20


def test_term_is_thread_safe():
    rng = random.Random(7)
    queries = [(rng.choice(list(SequenceKind)), rng.randint(0, 3000)) for _ in range(400)]
    expected = [term(kind, n) for kind, n in queries]
    results = [None] * 4

    def worker(slot):
        results[slot] = [term(kind, n) for kind, n in queries[slot::4]]

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


def test_binet_examples():
    assert term_binet(K.C, 2) == 17
    assert term_binet(K.b, 2) == 2
    assert term_binet(K.B, 1) == 1


def test_binet_no_closed_form():
    with pytest.raises(ValueError, match="no closed form"):
        term_binet(K.Bstar, 1)


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
