import threading

import pytest

from trimmedpoly.field import (
    PrimeModulus,
    active_counter,
    is_prime,
    run_counted,
    tally,
)
from trimmedpoly.poly import SparsePoly, from_sparse, naive_eval_point


def test_is_prime_basics():
    assert is_prime(2) and is_prime(3) and is_prime(65537)
    assert is_prime(2**31 - 1)
    assert not is_prime(1) and not is_prime(0) and not is_prime(-7)
    assert not is_prime(65536) and not is_prime(2**31)
    # Carmichael number
    assert not is_prime(561)


def test_miller_rabin_rejects_composites_past_trial_division():
    # Every factor exceeds the largest witness, 37, so trial division
    # passes each of these and only a Miller-Rabin round rejects it. The
    # last is a strong pseudoprime to every witness up to 31: only 37
    # catches it.
    for n in (1763, 3215031751, 3825123056546413051):
        assert not is_prime(n), n
        with pytest.raises(ValueError, match="is not prime"):
            PrimeModulus(n)


def test_modulus_rejects_bad_values():
    with pytest.raises(ValueError):
        PrimeModulus(4)
    with pytest.raises(ValueError):
        PrimeModulus(1)
    with pytest.raises(ValueError):
        PrimeModulus(2**62 + 1)
    with pytest.raises(ValueError):
        PrimeModulus("7")


def test_tally_adds_to_active_counter():
    def work():
        tally(mul=5, add=1)
        tally(inv=2)
        tally()

    _, ctr = run_counted(work)
    assert (ctr.mul_count, ctr.add_count, ctr.inv_count) == (5, 1, 2)
    # without an active counter a tally does nothing
    assert active_counter.get() is None
    tally(mul=1, add=1, inv=1)
    assert (ctr.mul_count, ctr.add_count, ctr.inv_count) == (5, 1, 2)


def test_nested_run_counted_restores_outer_counter():
    # the inner call counts only its own operations, and the outer counter
    # is active again once it returns
    def outer():
        tally(mul=1)
        _, inner = run_counted(tally, mul=1)
        tally(add=1)
        return inner, active_counter.get()

    (inner, after), ctr = run_counted(outer)
    assert after is ctr
    assert (inner.mul_count, inner.add_count) == (1, 0)
    assert (ctr.mul_count, ctr.add_count) == (1, 1)
    assert active_counter.get() is None


def test_run_counted_is_local_to_each_thread():
    # two threads count at the same time; the barriers make both second
    # tallies run while both counts are open
    barrier = threading.Barrier(2, timeout=10)
    counts = []

    def task():
        tally(mul=1)
        barrier.wait()
        tally(mul=1)
        barrier.wait()

    def worker():
        _, ctr = run_counted(task)
        counts.append((ctr.mul_count, ctr.add_count, ctr.inv_count))

    threads = [threading.Thread(target=worker) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()
    assert counts == [(2, 0, 0), (2, 0, 0)]
    assert active_counter.get() is None


def test_pow_cost_formula():
    # the oracle tallies x^e as popcount(e) + bitlen(e) - 1 muls for
    # e >= 1 and none for e = 0, plus one mul folding it into the
    # coefficient
    mod = PrimeModulus(101)
    for e in range(0, 33):
        poly = from_sparse(SparsePoly(mod, 1, 32, 32, [((e,), 9)]))
        value, ctr = run_counted(naive_eval_point, poly, (7,))
        assert value == 9 * pow(7, e, 101) % 101, e
        expected = 0 if e == 0 else bin(e).count("1") + e.bit_length() - 1
        assert (ctr.mul_count, ctr.add_count,
                ctr.inv_count) == (expected + 1, 1, 0), e


def test_residue_coercion():
    mod = PrimeModulus(7)
    assert mod.residue(-1) == 6
    assert mod.residue(10) == 3
    with pytest.raises(TypeError):
        mod.residue(1.5)
    with pytest.raises(TypeError):
        mod.residue(True)
