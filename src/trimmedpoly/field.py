"""Exact arithmetic in prime fields F_p, and the field-operation count.

Residues are canonical Python ints in [0, p). PrimeModulus is a checked
prime; the rest of the package stores raw residues in its containers and
does its residue math inline on ints.

Cost model. Inside ``run_counted``, every executed field operation is
tallied to the OpCounter of the current thread or context, and ``tally``
is the only way to record one. Each routine calls it in bulk with the
exact numbers of multiplications, additions (a subtraction or negation
counts as one) and inversions that it executed: in ``algo`` the
transform once per call and the full-grid baseline once per node and
level; in ``linalg`` a row's factors or substitution rows once per row,
the reference elimination once per step, and a Vandermonde build once;
in ``poly`` the oracle once per point. The oracle
counts a power x^e, e >= 1, as square-and-multiply would execute it:
popcount(e) + bitlen(e) - 1 multiplications; x^0 costs nothing. A step
that raises has tallied only the steps before it.
"""

from __future__ import annotations

from contextvars import ContextVar

MAX_MODULUS = (1 << 62) - 1

# Witness set proving n prime for all n < 3.3 * 10^24, far above 2^62.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test, exact for n < 2^64."""
    if n < 2:
        return False
    for q in _MR_WITNESSES:
        if n % q == 0:
            return n == q
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class OpCounter:
    """Running tally of executed field operations.

    Subtraction counts as an addition. Counts only grow during a run.
    """

    __slots__ = ("mul_count", "add_count", "inv_count")

    def __init__(self) -> None:
        self.mul_count = 0
        self.add_count = 0
        self.inv_count = 0

    def __repr__(self) -> str:
        return (f"OpCounter(mul={self.mul_count}, add={self.add_count}, "
                f"inv={self.inv_count})")


# The counter of the innermost run_counted in this context, or None.
active_counter: ContextVar[OpCounter | None] = ContextVar(
    "active_counter", default=None)


def run_counted(task, *args, **kwargs):
    """Run ``task(*args, **kwargs)`` with a fresh OpCounter active in the
    current context; returns (result, counter). A nested call counts its
    own operations, hidden from the outer counter."""
    counter = OpCounter()
    token = active_counter.set(counter)
    try:
        return task(*args, **kwargs), counter
    finally:
        active_counter.reset(token)


def tally(mul: int = 0, add: int = 0, inv: int = 0) -> None:
    """Add executed operations to the active counter, if there is one."""
    ctr = active_counter.get()
    if ctr is not None:
        ctr.mul_count += mul
        ctr.add_count += add
        ctr.inv_count += inv


class PrimeModulus:
    """A prime p with 2 <= p < 2^62."""

    __slots__ = ("p",)

    def __init__(self, p: int) -> None:
        if not isinstance(p, int) or isinstance(p, bool):
            raise ValueError(f"modulus must be an int, got {type(p).__name__}")
        if not 2 <= p <= MAX_MODULUS:
            raise ValueError(f"modulus must lie in [2, 2^62), got {p}")
        if not is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        self.p = p

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PrimeModulus):
            return self.p == other.p
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.p)

    def __repr__(self) -> str:
        return f"PrimeModulus({self.p})"

    def residue(self, value) -> int:
        """Canonicalize an int into [0, p)."""
        if isinstance(value, int) and not isinstance(value, bool):
            return value % self.p
        raise TypeError(f"cannot coerce {type(value).__name__} to a residue")
