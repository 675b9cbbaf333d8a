import random
import threading

import pytest

from trimmedpoly.field import (
    PrimeModulus,
    active_counter,
    is_prime,
    run_counted,
)

PRIMES = [5, 7, 65537, 2**31 - 1]


def test_is_prime_basics():
    assert is_prime(2) and is_prime(3) and is_prime(65537)
    assert is_prime(2**31 - 1)
    assert not is_prime(1) and not is_prime(0) and not is_prime(-7)
    assert not is_prime(65536) and not is_prime(2**31)
    # Carmichael number
    assert not is_prime(561)


def test_modulus_rejects_bad_values():
    with pytest.raises(ValueError):
        PrimeModulus(4)
    with pytest.raises(ValueError):
        PrimeModulus(1)
    with pytest.raises(ValueError):
        PrimeModulus(2**62 + 1)
    with pytest.raises(ValueError):
        PrimeModulus("7")


def test_add_mul_trivia():
    mod = PrimeModulus(5)
    assert mod.add(3, 4) == 2
    assert mod.mul(3, 4) == 2
    assert mod.add(0, 3) == 3
    assert mod.add(4, 1) == 0  # p-1 + 1 wraps
    assert mod.mul(3, 1) == 3
    assert PrimeModulus(7).mul(2, 3) == 6


def test_pow_trivia():
    mod = PrimeModulus(5)
    assert mod.pow(2, 3) == 3
    assert mod.pow(4, 0) == 1
    assert mod.pow(0, 0) == 1
    assert mod.pow(0, 9) == 0
    with pytest.raises(ValueError):
        mod.pow(2, -1)


def test_pow_matches_repeated_mul():
    mod = PrimeModulus(65537)
    rng = random.Random(0)
    for _ in range(50):
        a = rng.randrange(mod.p)
        acc = 1
        for e in range(17):
            assert mod.pow(a, e) == acc
            acc = acc * a % mod.p


@pytest.mark.parametrize("p", PRIMES)
def test_field_axioms(p):
    mod = PrimeModulus(p)
    rng = random.Random(p)
    for _ in range(10_000):
        a, b, c = (rng.randrange(p) for _ in range(3))
        assert mod.add(mod.add(a, b), c) == mod.add(a, mod.add(b, c))
        assert mod.add(a, b) == mod.add(b, a)
        assert mod.mul(mod.mul(a, b), c) == mod.mul(a, mod.mul(b, c))
        assert mod.mul(a, b) == mod.mul(b, a)
        assert mod.mul(a, mod.add(b, c)) == mod.add(mod.mul(a, b),
                                                    mod.mul(a, c))


def test_counter_tallies_scalar_ops():
    def scalar_ops(mod):
        mod.mul(2, 3)
        mod.add(1, 1)
        mod.pow(2, 5)  # 101b: popcount + bitlen - 1 = 4 muls

    mod = PrimeModulus(7)
    _, ctr = run_counted(scalar_ops, mod)
    assert ctr.mul_count == 1 + 4
    assert ctr.add_count == 1
    assert ctr.inv_count == 0
    # no counter is active afterwards
    assert active_counter.get() is None
    mod.mul(2, 3)
    assert ctr.mul_count == 5


def test_nested_run_counted_restores_outer_counter():
    # the inner call counts only its own operations, and the outer counter
    # is active again once it returns
    mod = PrimeModulus(7)

    def outer():
        mod.mul(2, 3)
        _, inner = run_counted(mod.mul, 2, 3)
        mod.add(2, 3)
        return inner, active_counter.get()

    (inner, after), ctr = run_counted(outer)
    assert after is ctr
    assert (inner.mul_count, inner.add_count) == (1, 0)
    assert (ctr.mul_count, ctr.add_count) == (1, 1)
    assert active_counter.get() is None


def test_run_counted_is_local_to_each_thread():
    # two threads count on one modulus at the same time; the barriers make
    # both second muls run while both counts are open
    mod = PrimeModulus(65537)
    barrier = threading.Barrier(2, timeout=10)
    counts = []

    def task():
        mod.mul(2, 3)
        barrier.wait()
        mod.mul(4, 5)
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
    # popcount(e) + bitlen(e) - 1 multiplications for e >= 1
    mod = PrimeModulus(101)
    for e in range(0, 33):
        _, ctr = run_counted(lambda m: m.pow(7, e), mod)
        expected = 0 if e == 0 else bin(e).count("1") + e.bit_length() - 1
        assert ctr.mul_count == expected, e


def test_residue_coercion():
    mod = PrimeModulus(7)
    assert mod.residue(-1) == 6
    assert mod.residue(10) == 3
    with pytest.raises(TypeError):
        mod.residue(1.5)
    with pytest.raises(TypeError):
        mod.residue(True)
