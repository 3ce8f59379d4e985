"""A symbolic, decidable model of the prime spectrum of the integers.

Points are the primes together with one generic point for the zero ideal.
A subset with finite or cofinite prime support is stored in one normal form,
the descriptor: the listed primes, a cofinite flag saying whether they are
the support or its exclusions, and a generic-point flag.  Constructible
subsets are exactly the finite sets of primes and their complements: the
descriptors that contain the generic point precisely when they are cofinite.

This normal form makes the closure operators exact rather than approximate:
principal ultrafilters on a subset recover its own points, every ultrafilter
without a smallest member sends the limit to the generic point, and so a
subset closes up under ultrafilter limits by adjoining the generic point
exactly when its prime support is infinite.  See docs/theory_notes.md for
the infinite phenomena this model deliberately leaves out.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, replace
from functools import reduce
from itertools import count
from typing import Iterable, Iterator, Sequence

from .core import DomainError, FipResult, _fip_search, _json_field, _json_key

FACTOR_CAP = 10**12

# witnesses proving Miller-Rabin deterministic below 3_317_044_064_679_887_385_961_981;
# the first six, 2 to 13, suffice below 3_474_749_660_383 (Jaeschke), so below FACTOR_CAP
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3_317_044_064_679_887_385_961_981
_MR_SHORT_BOUND = 3_474_749_660_383


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for integers below the proven bound."""
    if n >= _MR_BOUND:
        raise DomainError(f"primality test is deterministic only below {_MR_BOUND}")
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES[:6] if n < _MR_SHORT_BOUND else _MR_BASES:
        if a % n == 0:
            continue  # a witness divisible by n says nothing
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _trial_divisors() -> Iterator[int]:
    """2, 3 and then every 6j - 1 and 6j + 1: every prime and some composites."""
    yield 2
    yield 3
    for d in count(5, 6):
        yield d
        yield d + 2


def prime_factors(n: int) -> frozenset[int]:
    """Distinct prime divisors of |n|; n must be a nonzero int with |n| <= 10^12.

    Trial division stops as soon as the cofactor is 1 or prime: primality
    is tested before the first division and after each factor is divided
    out, so a prime near 10^12 costs one Miller-Rabin test.
    """
    n = abs(operator.index(n))  # a float is a TypeError, not a search without end
    if n == 0:
        raise DomainError("0 has no prime factorization")
    if n > FACTOR_CAP:
        raise DomainError(f"factorization inputs are capped at {FACTOR_CAP}")
    out = set()
    divisors = _trial_divisors()
    while n > 1 and not is_prime(n):
        # a composite has a divisor up to its square root, below 10^6 here;
        # the first one left is prime, as its own factors are divided out
        q = next(d for d in divisors if n % d == 0)
        out.add(q)
        while n % q == 0:
            n //= q
    if n > 1:
        out.add(n)
    return frozenset(out)


@dataclass(frozen=True)
class ZPoint:
    """A point of the spectrum: a prime, or None for the generic point."""

    prime: int | None = None

    def __post_init__(self) -> None:
        if self.prime is not None and not is_prime(self.prime):
            raise DomainError(f"{self.prime} is not a prime number")

    @classmethod
    def generic(cls) -> "ZPoint":
        return cls(None)

    @classmethod
    def at(cls, p: int) -> "ZPoint":
        return cls(p)

    @property
    def is_generic(self) -> bool:
        return self.prime is None

    def __str__(self) -> str:
        return "(0)" if self.prime is None else f"({self.prime})"


@dataclass(frozen=True)
class ZSubsetDescriptor:
    """A subset of the model with finite or cofinite prime support.

    This is the one normal form: when ``cofinite`` is set the listed primes
    are the exclusions, and ``generic`` tracks the generic point separately,
    so arbitrary (not just constructible) subsets of this shape are
    expressible.
    """

    primes: frozenset[int] = frozenset()
    cofinite: bool = False
    generic: bool = False

    def __post_init__(self) -> None:
        for p in self.primes:
            if not is_prime(p):
                raise DomainError(f"{p} is not a prime number")

    @classmethod
    def finite(cls, primes: Iterable[int], generic: bool = False) -> "ZSubsetDescriptor":
        return cls(frozenset(primes), False, generic)

    @classmethod
    def cofinite_except(
        cls, excluded: Iterable[int], generic: bool = False
    ) -> "ZSubsetDescriptor":
        return cls(frozenset(excluded), True, generic)

    @classmethod
    def max_points(cls) -> "ZSubsetDescriptor":
        """All primes, no generic point: the closed points of the spectrum."""
        return cls(frozenset(), True, False)

    @classmethod
    def whole(cls) -> "ZSubsetDescriptor":
        return cls(frozenset(), True, True)

    @classmethod
    def empty(cls) -> "ZSubsetDescriptor":
        return cls()

    @property
    def has_infinite_prime_support(self) -> bool:
        return self.cofinite

    def contains_prime(self, p: int) -> bool:
        if not is_prime(p):
            raise DomainError(f"{p} is not a prime number")
        return (p in self.primes) != self.cofinite

    def contains(self, point: ZPoint) -> bool:
        if point.is_generic:
            return self.generic
        return self.contains_prime(point.prime)

    def is_subset_of(self, other: "ZSubsetDescriptor") -> bool:
        if self.generic and not other.generic:
            return False
        if not self.cofinite:
            if not other.cofinite:
                return self.primes <= other.primes
            return not (self.primes & other.primes)
        if not other.cofinite:
            return False  # infinitely many primes cannot fit a finite set
        return other.primes <= self.primes

    def to_json(self) -> dict:
        return {
            "primes": sorted(self.primes),
            "mode": "cofinite" if self.cofinite else "finite",
            "generic": self.generic,
        }

    @classmethod
    def from_json(cls, doc: dict, at: str = "") -> "ZSubsetDescriptor":
        """Validated construction from a JSON document: ``mode`` a string,
        ``primes`` a list of integers, ``generic`` a boolean (the field's
        default if absent).  A missing ``mode`` or ``primes``, or a field of
        another JSON type, raises an InputError naming its path, prefixed by
        ``at``; an unknown mode is a DomainError naming its path, and a listed
        non-prime one naming the document, ``at`` without its final dot."""
        mode = _json_key(doc, "mode", str, at)
        if mode not in ("finite", "cofinite"):
            raise DomainError(f"unknown mode {mode!r} at {at}mode")
        generic = doc.get("generic", cls.generic)
        if "generic" in doc:
            _json_field(generic, bool, at + "generic")
        primes = _json_key(doc, "primes", list, at, int)
        try:
            return cls(frozenset(primes), mode == "cofinite", generic)
        except DomainError as e:
            raise DomainError(f"{e} at {at[:-1]}" if at else str(e)) from None


@dataclass(frozen=True)
class ZConstructible(ZSubsetDescriptor):
    """A constructible subset: listed or excluded primes, closed under the
    Boolean operations.

    cofinite=False: exactly the listed primes, generic point excluded.
    cofinite=True: every prime not listed, generic point included.
    ``generic`` defaults to ``cofinite``; a different value is refused.
    """

    generic: bool = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.generic is None:
            object.__setattr__(self, "generic", self.cofinite)
        elif self.generic != self.cofinite:
            raise DomainError(
                "a constructible set contains the generic point exactly when it is cofinite"
            )
        super().__post_init__()

    @classmethod
    def _of_primes(cls, primes: frozenset[int], cofinite: bool) -> "ZConstructible":
        """The set of these primes or of all others, trusted to be primes: none is tested."""
        c = cls.__new__(cls)
        c.__dict__.update(primes=primes, cofinite=cofinite, generic=cofinite)
        return c

    @property
    def contains_generic(self) -> bool:
        return self.cofinite

    @property
    def is_empty(self) -> bool:
        return not self.cofinite and not self.primes

    @property
    def is_whole(self) -> bool:
        return self.cofinite and not self.primes

    def complement(self) -> "ZConstructible":
        return ZConstructible._of_primes(self.primes, not self.cofinite)

    def union(self, other: "ZConstructible") -> "ZConstructible":
        if not self.cofinite and not other.cofinite:
            return ZConstructible._of_primes(self.primes | other.primes, False)
        if self.cofinite and other.cofinite:
            return ZConstructible._of_primes(self.primes & other.primes, True)
        cof, fin = (self, other) if self.cofinite else (other, self)
        return ZConstructible._of_primes(cof.primes - fin.primes, True)

    def intersect(self, other: "ZConstructible") -> "ZConstructible":
        return self.complement().union(other.complement()).complement()

    __or__, __and__, __invert__ = union, intersect, complement

    @classmethod
    def from_json(cls, doc: dict, at: str = "") -> "ZConstructible":
        """As for descriptors; a ``generic`` that differs from the mode is
        refused, naming the document as well, and a missing one follows the mode."""
        return super().from_json(doc, at)


def v_of(n: int) -> ZConstructible:
    """Vanishing locus of an integer: primes dividing it; everything for 0."""
    if operator.index(n) == 0:
        return ZConstructible.whole()
    return ZConstructible._of_primes(prime_factors(n), False)


def d_of(n: int) -> ZConstructible:
    """Principal open locus: the complement of the vanishing locus."""
    return v_of(n).complement()


def limit_points(y: ZSubsetDescriptor) -> ZSubsetDescriptor:
    """Points reachable as ultrafilter limits of the subset.

    Principal ultrafilters recover the subset itself; any ultrafilter with no
    smallest member exists exactly when the prime support is infinite, and
    every such limit is the generic point.
    """
    if y.cofinite and not y.generic:
        return replace(y, generic=True)
    return y


def patch_closure(y: ZSubsetDescriptor) -> ZSubsetDescriptor:
    """Closure under ultrafilter limits: add the generic point to any subset
    with infinitely many primes; finite subsets are already closed."""
    return limit_points(y)


def is_ultra_closed(y: ZSubsetDescriptor) -> bool:
    """Whether the subset already contains all its ultrafilter limits."""
    return limit_points(y) == y


def zariski_closure(y: ZSubsetDescriptor) -> ZSubsetDescriptor:
    """Finite prime sets are closed; anything else is dense."""
    if not y.cofinite and not y.generic:
        return y
    return ZSubsetDescriptor.whole()


ZFipResult = FipResult


def z_fip_check(sets: Sequence[ZConstructible]) -> FipResult[ZConstructible]:
    """Decide the finite intersection property for constructible sets.

    Each listed prime is one bit; a finite set is the mask of its primes and
    a cofinite set the complement ``~mask``, a negative integer whose
    infinitely many high bits stand for every other prime and the generic
    point.  Any mix of sets then meets by AND and is empty exactly when it is
    0, so the verdict is symbolic: a cofinite intersection is nonempty no
    matter how many primes were excluded.  On failure the witness is the
    first minimal-cardinality subfamily with empty intersection, in index
    order within each size.
    """
    if not sets:
        raise DomainError("z_fip_check needs a nonempty list of sets")
    bit = {p: 1 << i for i, p in enumerate(frozenset().union(*(c.primes for c in sets)))}
    masks = [sum(map(bit.__getitem__, c.primes)) for c in sets]
    witness = _fip_search([~m if c.cofinite else m for c, m in zip(sets, masks)])
    if witness is None:
        return FipResult(True, intersection=reduce(ZConstructible.intersect, sets))
    return FipResult(False, witness=witness)
