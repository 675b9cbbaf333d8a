"""Dense bounded-degree polynomials and their sparse I/O form.

A TrimmedPoly over F_p in n variables keeps one residue per admissible
monomial (individual degree <= d, total degree <= D), flattened in the
canonical order from ``combinat``. Because that order is last-variable
major, the decomposition P = sum_i P_i * X_n^i used by the fast
transforms is a plain partition of the coefficient vector into
contiguous blocks. ``algo.EvalTable`` holds a table of values in the
same layout; both are ``_DenseTable``, written once here.

SparsePoly is a term list, kept as library API and as the form of the
per-term decode (``jsonio.sparse_poly_from_dict``), which names the first
bad term of a document that the bulk decode rejects. Otherwise the CLI
reads and writes polynomial documents straight to and from the dense
coefficients, and no algorithm reads it. ``from_sparse`` ranks each term
in the count rows, at O(n) a term on top of the N zeros, so a short term
list in a large layout costs little more than its zeros; ``to_sparse``
reads the selected slots' vectors from ``combinat.layout_vectors``.

``naive_eval_point``, the term-by-term oracle, reads the terms of
``to_sparse`` and shares its term sum with ``algo.naive_trimmed_eval``,
which converts once per table. It does its residue math on raw ints and
records its field operations with ``field.tally``.
"""

from __future__ import annotations

import random

from .combinat import (ValidationError, _check_params, _rank, check_index,
                       clamp_budget, count_rows, layout_size, layout_vectors,
                       quote)
from .field import PrimeModulus, tally


class _DenseTable:
    """One residue per admissible exponent vector of (n, d, D), in the
    canonical order of ``combinat``: the body shared by ``TrimmedPoly``
    and ``algo.EvalTable``. A subclass gives the residue tuple its public
    name, an alias of the ``_entries`` slot, and sets ``_unit`` (its repr
    unit) and ``_noun`` (its name in a length error).

    The public constructor checks the shape once, through
    ``layout_size``, and its entries once, in bulk: all ints in [0, p),
    or else each canonicalised by ``modulus.residue``. Internal
    producers, whose residues are valid by construction, use
    ``_trusted``.
    """

    __slots__ = ("modulus", "n", "d", "D", "_entries")

    def __init__(self, modulus: PrimeModulus, n: int, d: int, D: int,
                 entries) -> None:
        D = clamp_budget(n, d, D)
        expected = layout_size(n, d, D)
        vals = tuple(entries)
        if not (set(map(type, vals)) <= {int} and min(vals, default=0) >= 0
                and max(vals, default=0) < modulus.p):
            vals = tuple(map(modulus.residue, vals))
        if len(vals) != expected:
            raise ValidationError(
                f"{self._noun} has length {len(vals)}, expected {expected} "
                f"for (n={n}, d={d}, D={D})")
        self.modulus = modulus
        self.n = n
        self.d = d
        self.D = D
        self._entries = vals

    @classmethod
    def _trusted(cls, modulus: PrimeModulus, n: int, d: int, D: int,
                 entries):
        """Wrap entries that are valid by construction: canonical
        residues, ebc_cum(n, D, d) of them, with D normalized."""
        self = cls.__new__(cls)
        self.modulus = modulus
        self.n = n
        self.d = d
        self.D = D
        self._entries = tuple(entries)
        return self

    def __eq__(self, other: object) -> bool:
        if type(other) is type(self):
            return (self.modulus.p == other.modulus.p and self.n == other.n
                    and self.d == other.d and self.D == other.D
                    and self._entries == other._entries)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.modulus.p, self.n, self.d, self.D, self._entries))

    def __repr__(self) -> str:
        return (f"{type(self).__name__}(n={self.n}, d={self.d}, D={self.D}, "
                f"p={self.modulus.p}, {len(self._entries)} {self._unit})")


class TrimmedPoly(_DenseTable):
    """Dense coefficient vector of length ebc_cum(n, D, d) over F_p.

    Slot r holds the coefficient of the monomial whose exponent vector is
    unrank(r, n, d, D). The degree bounds are upper bounds, not exact
    degrees. A negative D denotes the empty (identically zero) polynomial
    and is normalized to -1. Instances are treated as immutable.
    """

    __slots__ = ()
    coeffs = _DenseTable._entries
    _unit = "coeffs"
    _noun = "coefficient vector"


class SparsePoly:
    """Term list (exponent vector, coefficient) with zero terms omitted.

    Duplicate exponent vectors and out-of-bound exponents are rejected at
    construction, naming the offending term.
    """

    __slots__ = ("modulus", "n", "d", "D", "terms")

    def __init__(self, modulus: PrimeModulus, n: int, d: int, D: int,
                 terms) -> None:
        _check_params(n, d)
        D = clamp_budget(n, d, D)
        seen = set()
        kept = []
        for exps, coeff in terms:
            try:
                key = check_index(exps, n, d, D)
            except ValueError as exc:
                raise ValidationError(
                    f"bad term {quote(tuple(exps))}: {exc}") from exc
            if key in seen:
                raise ValidationError(
                    f"duplicate term for exponents {quote(key)}")
            seen.add(key)
            c = modulus.residue(coeff)
            if c:
                kept.append((key, c))
        self.modulus = modulus
        self.n = n
        self.d = d
        self.D = D
        self.terms = tuple(kept)

    @classmethod
    def _trusted(cls, modulus: PrimeModulus, n: int, d: int, D: int,
                 terms) -> "SparsePoly":
        """Wrap terms that are valid by construction: distinct admissible
        exponent tuples, nonzero canonical residues, and D normalized."""
        self = cls.__new__(cls)
        self.modulus = modulus
        self.n = n
        self.d = d
        self.D = D
        self.terms = tuple(terms)
        return self

    def __eq__(self, other: object) -> bool:
        if isinstance(other, SparsePoly):
            return (self.modulus.p == other.modulus.p and self.n == other.n
                    and self.d == other.d and self.D == other.D
                    and sorted(self.terms) == sorted(other.terms))
        return NotImplemented

    def __repr__(self) -> str:
        return (f"SparsePoly(n={self.n}, d={self.d}, D={self.D}, "
                f"p={self.modulus.p}, {len(self.terms)} terms)")


def from_sparse(sparse: SparsePoly) -> TrimmedPoly:
    """Densify a term list into canonical-order coefficients."""
    n, d, b = sparse.n, sparse.d, sparse.D
    coeffs = [0] * layout_size(n, d, b)
    rows = count_rows(n, d, b)[:n][::-1]
    for exps, coeff in sparse.terms:  # validated when sparse was built
        coeffs[_rank(exps, rows, b)] = coeff
    return TrimmedPoly._trusted(sparse.modulus, n, d, b, coeffs)


def to_sparse(poly: TrimmedPoly) -> SparsePoly:
    """Inverse of ``from_sparse`` up to term order (rank order here)."""
    vectors = layout_vectors(poly.n, poly.d, poly.D, poly.coeffs)
    terms = list(zip(map(tuple, vectors), filter(None, poly.coeffs)))
    return SparsePoly._trusted(poly.modulus, poly.n, poly.d, poly.D, terms)


def naive_eval_point(poly: TrimmedPoly, point) -> int:
    """Term-by-term evaluation at one point; the slow correctness oracle.

    Computes sum_t c_t * prod_i x_i^(e_i) over the nonzero terms. Exact;
    tallies each power as square-and-multiply, one multiplication per
    variable and one addition per nonzero term: O(N * n) field
    multiplications per point.
    """
    xs = [poly.modulus.residue(x) for x in point]
    if len(xs) != poly.n:
        raise ValidationError(
            f"point has {len(xs)} coordinates, expected {poly.n}")
    return _term_sum(to_sparse(poly).terms, xs, poly.modulus.p)


def _term_sum(terms, xs, p: int) -> int:
    """sum_t c_t * prod_i x_i^(e_i) mod p over (e, c) terms at residues
    xs, tallied as ``naive_eval_point`` states."""
    acc = muls = 0
    for exps, coeff in terms:
        term = coeff
        for x, e in zip(xs, exps):
            term = term * pow(x, e, p) % p
            if e:
                muls += e.bit_count() + e.bit_length() - 1
        acc += term
    tally(mul=muls + len(xs) * len(terms), add=len(terms))
    return acc % p


def random_poly(n: int, d: int, D: int, modulus: PrimeModulus,
                seed: int) -> TrimmedPoly:
    """Uniform i.i.d. coefficients from a deterministic seeded generator."""
    rng = random.Random(seed)
    p = modulus.p
    coeffs = [rng.randrange(p) for _ in range(layout_size(n, d, D))]
    return TrimmedPoly._trusted(modulus, n, d, clamp_budget(n, d, D), coeffs)
