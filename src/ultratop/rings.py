"""Finite commutative rings as operation tables, their prime spectra, and
the spaces of intermediate rings attached to ring embeddings.

Rings are deliberately small: operation tables are capped at 64 elements
(the ring laws are checked exhaustively up to 32, which covers every ring a
user can feed in as raw tables) and subring enumeration is capped at a
32-element ambient ring.  Everything structural is therefore decidable by
direct enumeration, and the functions below prefer the literal definition
with an internal cross-check over a clever shortcut.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Iterable, Mapping

from .core import Carrier, DomainError, PrincipalUltrafilter, SetFamily, UltratopError
from .core import _join_closure
from .topology import FinSpace, from_subbasis

MAX_RING = 64
MAX_LAW_CHECK = 32  # cubic-law validation bound; built-in constructors are exact
MAX_OVERRING_AMBIENT = 32


@dataclass(frozen=True)
class FiniteRing:
    """A finite commutative unital ring given by addition and product tables.

    Tables map element indices to element indices; ``zero`` and ``one`` are
    indices as well.  Labels are only for display and serialization.
    """

    elements: tuple[str, ...]
    add: tuple[tuple[int, ...], ...]
    mul: tuple[tuple[int, ...], ...]
    zero: int
    one: int
    name: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        _check_ring(self)

    @property
    def size(self) -> int:
        return len(self.elements)

    def idx(self, label: str) -> int:
        try:
            return self.elements.index(label)
        except ValueError:
            raise DomainError(f"{label!r} is not an element of {self.name or 'the ring'}")

    def label(self, i: int) -> str:
        return self.elements[i]

    @cached_property
    def neg(self) -> tuple[int, ...]:
        """Additive inverse of each element."""
        out = []
        for i in range(self.size):
            out.append(self.add[i].index(self.zero))
        return tuple(out)

    def to_json(self) -> dict:
        return {
            "elements": list(self.elements),
            "add": [list(row) for row in self.add],
            "mul": [list(row) for row in self.mul],
            "zero": self.zero,
            "one": self.one,
        }

    @classmethod
    def from_json(cls, doc: dict, name: str = "") -> "FiniteRing":
        return cls(
            tuple(str(e) for e in doc["elements"]),
            tuple(tuple(int(v) for v in row) for row in doc["add"]),
            tuple(tuple(int(v) for v in row) for row in doc["mul"]),
            int(doc["zero"]),
            int(doc["one"]),
            name=name,
        )


def _check_ring(r: FiniteRing) -> None:
    n = len(r.elements)
    if n < 1:
        raise DomainError("a ring needs at least one element")
    if n > MAX_RING:
        raise DomainError(f"operation tables are capped at {MAX_RING} elements")
    if len(set(r.elements)) != n:
        raise DomainError("element labels must be pairwise distinct")
    for table, word in ((r.add, "addition"), (r.mul, "multiplication")):
        if len(table) != n or any(len(row) != n for row in table):
            raise DomainError(f"{word} table must be {n}x{n}")
        for row in table:
            for v in row:
                if not 0 <= v < n:
                    raise DomainError(f"{word} table entry {v} is out of range")
    if not 0 <= r.zero < n or not 0 <= r.one < n:
        raise DomainError("zero and one must be element indices")
    if r.zero == r.one and n > 1:
        raise DomainError("one must differ from zero in a nontrivial ring")
    add, mul = r.add, r.mul
    for i in range(n):
        for j in range(i, n):
            if add[i][j] != add[j][i]:
                raise DomainError(f"addition is not commutative at ({i}, {j})")
            if mul[i][j] != mul[j][i]:
                raise DomainError(f"multiplication is not commutative at ({i}, {j})")
    for i in range(n):
        if add[r.zero][i] != i:
            raise DomainError(f"zero is not an additive identity at {i}")
        if mul[r.one][i] != i:
            raise DomainError(f"one is not a multiplicative identity at {i}")
        if r.zero not in add[i]:
            raise DomainError(f"element {i} has no additive inverse")
    if n > MAX_LAW_CHECK:
        # built-in constructors produce exact tables; raw input this large is
        # not accepted elsewhere, so the cubic laws are trusted here
        return
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if add[add[i][j]][k] != add[i][add[j][k]]:
                    raise DomainError(f"addition is not associative at ({i}, {j}, {k})")
                if mul[mul[i][j]][k] != mul[i][mul[j][k]]:
                    raise DomainError(
                        f"multiplication is not associative at ({i}, {j}, {k})"
                    )
                if mul[i][add[j][k]] != add[mul[i][j]][mul[i][k]]:
                    raise DomainError(f"distributivity fails at ({i}, {j}, {k})")


def zmod(n: int) -> FiniteRing:
    """The ring of integers modulo n, with decimal labels."""
    if not 2 <= n <= MAX_RING:
        raise DomainError(f"zmod size must be between 2 and {MAX_RING}")
    labels = tuple(str(i) for i in range(n))
    add = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
    mul = tuple(tuple((i * j) % n for j in range(n)) for i in range(n))
    return FiniteRing(labels, add, mul, 0, 1, name=f"Z/{n}")


def product(r: FiniteRing, s: FiniteRing) -> FiniteRing:
    """Componentwise product ring; element (a, b) gets the label "(a,b)"."""
    n, m = r.size, s.size
    if n * m > MAX_RING:
        raise DomainError(f"product size {n * m} exceeds the cap of {MAX_RING}")
    labels = tuple(
        f"({r.elements[i]},{s.elements[j]})" for i in range(n) for j in range(m)
    )

    def table(tr, ts):
        rows = []
        for i in range(n):
            for j in range(m):
                rows.append(
                    tuple(
                        tr[i][k] * m + ts[j][l] for k in range(n) for l in range(m)
                    )
                )
        return tuple(rows)

    return FiniteRing(
        labels,
        table(r.add, s.add),
        table(r.mul, s.mul),
        r.zero * m + s.zero,
        r.one * m + s.one,
        name=f"{r.name or 'R'}x{s.name or 'S'}",
    )


# irreducible moduli for the small prime-power fields, coefficients low to high
_IRREDUCIBLE: dict[tuple[int, int], tuple[int, ...]] = {
    (2, 2): (1, 1, 1),        # x^2 + x + 1
    (2, 3): (1, 1, 0, 1),     # x^3 + x + 1
    (2, 4): (1, 1, 0, 0, 1),  # x^4 + x + 1
    (3, 2): (1, 0, 1),        # x^2 + 1
}


def gf(q: int) -> FiniteRing:
    """The field with q elements, q a prime power up to 16.

    Elements are residue polynomials over the prime field; the label of an
    element is the integer whose base-p digits are its coefficients, so the
    prime subfield is always labeled "0", "1", ...
    """
    if q < 2:
        raise DomainError("a field needs at least two elements")
    p = next((d for d in range(2, q + 1) if q % d == 0), q)
    k = 0
    m = q
    while m % p == 0:
        m //= p
        k += 1
    if m != 1 or q > 16:
        raise DomainError(f"gf supports prime powers up to 16, not {q}")
    if k == 1:
        base = zmod(p)
        return FiniteRing(base.elements, base.add, base.mul, 0, 1, name=f"GF({p})")
    modulus = _IRREDUCIBLE[(p, k)]

    def digits(x: int) -> list[int]:
        return [(x // p**i) % p for i in range(k)]

    def encode(ds: Iterable[int]) -> int:
        return sum(d * p**i for i, d in enumerate(ds))

    def poly_mul(x: int, y: int) -> int:
        a, b = digits(x), digits(y)
        prod = [0] * (2 * k - 1)
        for i, da in enumerate(a):
            for j, db in enumerate(b):
                prod[i + j] = (prod[i + j] + da * db) % p
        for deg in range(2 * k - 2, k - 1, -1):
            c = prod[deg]
            if c:
                prod[deg] = 0
                for j in range(k):
                    prod[deg - k + j] = (prod[deg - k + j] - c * modulus[j]) % p
        return encode(prod[:k])

    labels = tuple(str(x) for x in range(q))
    add = tuple(
        tuple(encode((da + db) % p for da, db in zip(digits(x), digits(y)))
              for y in range(q))
        for x in range(q)
    )
    mul = tuple(tuple(poly_mul(x, y) for y in range(q)) for x in range(q))
    return FiniteRing(labels, add, mul, 0, 1, name=f"GF({q})")


@dataclass(frozen=True)
class RingHom:
    """A unital ring homomorphism, stored as an index map on elements."""

    source: FiniteRing
    target: FiniteRing
    mapping: tuple[int, ...]

    def __post_init__(self) -> None:
        src, tgt = self.source, self.target
        if len(self.mapping) != src.size:
            raise DomainError("homomorphism must map every source element")
        for v in self.mapping:
            if not 0 <= v < tgt.size:
                raise DomainError(f"image index {v} is out of range")
        f = self.mapping
        if f[src.one] != tgt.one:
            raise DomainError("homomorphism must send one to one")
        for i in range(src.size):
            for j in range(src.size):
                if f[src.add[i][j]] != tgt.add[f[i]][f[j]]:
                    raise DomainError(
                        f"map does not preserve addition at "
                        f"({src.elements[i]!r}, {src.elements[j]!r})"
                    )
                if f[src.mul[i][j]] != tgt.mul[f[i]][f[j]]:
                    raise DomainError(
                        f"map does not preserve multiplication at "
                        f"({src.elements[i]!r}, {src.elements[j]!r})"
                    )

    @classmethod
    def of(
        cls, source: FiniteRing, target: FiniteRing, label_map: Mapping[str, str]
    ) -> "RingHom":
        mapping = tuple(
            target.idx(label_map[label]) if label in label_map
            else _missing_image(label)
            for label in source.elements
        )
        return cls(source, target, mapping)

    def apply(self, label: str) -> str:
        return self.target.elements[self.mapping[self.source.idx(label)]]

    @property
    def is_injective(self) -> bool:
        return len(set(self.mapping)) == len(self.mapping)


def _missing_image(label: str) -> int:
    raise DomainError(f"map is not total: no image for {label!r}")


@dataclass(frozen=True)
class RingEmbedding(RingHom):
    """An injective unital ring homomorphism."""

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.is_injective:
            raise DomainError("embedding must be injective")


@dataclass(frozen=True)
class Ideal:
    """An ideal of a finite commutative ring, stored by element indices."""

    ring: FiniteRing
    members: frozenset[int]

    def __post_init__(self) -> None:
        r = self.ring
        if r.zero not in self.members:
            raise DomainError("an ideal must contain zero")
        for a in self.members:
            if not 0 <= a < r.size:
                raise DomainError(f"ideal member {a} is out of range")
            for b in self.members:
                if r.add[a][b] not in self.members:
                    raise DomainError(
                        f"ideal is not closed under addition at "
                        f"({r.elements[a]!r}, {r.elements[b]!r})"
                    )
            for x in range(r.size):
                if r.mul[x][a] not in self.members:
                    raise DomainError(
                        f"ideal does not absorb multiplication at "
                        f"({r.elements[x]!r}, {r.elements[a]!r})"
                    )

    @property
    def labels(self) -> frozenset[str]:
        return frozenset(self.ring.elements[i] for i in self.members)


def principal_ideal(ring: FiniteRing, element: str | int) -> Ideal:
    """The ideal generated by one element (all its ring multiples)."""
    x = ring.idx(element) if isinstance(element, str) else element
    return Ideal(ring, frozenset(ring.mul[r][x] for r in range(ring.size)))


@lru_cache(maxsize=None)
def _ideal_sets(ring: FiniteRing) -> tuple[frozenset[int], ...]:
    """Every ideal, generated as the join closure of the principal ideals."""
    principal = {
        frozenset(ring.mul[r][x] for r in range(ring.size))
        for x in range(ring.size)
    }
    found = _join_closure(
        principal, lambda a, b: frozenset(ring.add[i][j] for i in a for j in b)
    )
    return tuple(sorted(found, key=lambda s: (len(s), sorted(s))))


def all_ideals(ring: FiniteRing) -> tuple[Ideal, ...]:
    """All ideals, sorted by size then content."""
    return tuple(Ideal(ring, s) for s in _ideal_sets(ring))


@lru_cache(maxsize=None)
def _prime_sets(ring: FiniteRing) -> tuple[frozenset[int], ...]:
    n = ring.size
    whole = frozenset(range(n))
    primes = []
    for members in _ideal_sets(ring):
        if members == whole:
            continue
        if all(
            ring.mul[a][b] not in members or a in members or b in members
            for a in range(n)
            for b in range(n)
        ):
            primes.append(members)
    # finite commutative rings are zero dimensional: primes must be maximal
    for p in primes:
        for other in _ideal_sets(ring):
            if p < other < whole:
                raise UltratopError("internal: a prime ideal is not maximal")
    return tuple(primes)


def prime_ideals(ring: FiniteRing) -> tuple[Ideal, ...]:
    """All prime ideals; in a finite commutative ring these are the maximal
    ideals, and that is re-checked on every call."""
    return tuple(Ideal(ring, s) for s in _prime_sets(ring))


@lru_cache(maxsize=None)
def _spectrum(ring: FiniteRing) -> tuple[tuple[str, frozenset[int]], ...]:
    """(label, member set) per prime, labeled by a principal generator when
    one exists and by the member list otherwise."""
    pairs = []
    for members in _prime_sets(ring):
        label = None
        for x in range(ring.size):
            if frozenset(ring.mul[r][x] for r in range(ring.size)) == members:
                label = f"({ring.elements[x]})"
                break
        if label is None:
            label = "{" + ",".join(ring.elements[i] for i in sorted(members)) + "}"
        pairs.append((label, members))
    return tuple(sorted(pairs))


def spec_space(ring: FiniteRing) -> FinSpace:
    """The prime spectrum, closed sets being the vanishing loci of ideals."""
    spectrum = _spectrum(ring)
    if not spectrum:
        raise DomainError("the zero ring has an empty spectrum")
    closed = []
    for ideal_members in _ideal_sets(ring):
        closed.append(
            frozenset(label for label, mem in spectrum if ideal_members <= mem)
        )
    return FinSpace.from_closed(
        Carrier.of(label for label, _ in spectrum), closed
    )


def vanishing_set(ring: FiniteRing, element: str) -> frozenset[str]:
    """Labels of the primes containing the element."""
    x = ring.idx(element)
    return frozenset(label for label, mem in _spectrum(ring) if x in mem)


def principal_open_family(ring: FiniteRing) -> SetFamily:
    """The family of principal opens D_f; checked to be a basis."""
    spectrum = _spectrum(ring)
    if not spectrum:
        raise DomainError("the zero ring has an empty spectrum")
    carrier = Carrier.of(label for label, _ in spectrum)
    members = tuple(
        (
            f"D_{ring.elements[x]}",
            frozenset(label for label, mem in spectrum if x not in mem),
        )
        for x in range(ring.size)
    )
    family = SetFamily(carrier, members)
    # every open is the union of the minimal opens of its points, so it is
    # enough that each minimal open is a union of principal opens
    space = spec_space(ring)
    for i in range(len(carrier)):
        u = space.minimal_open_mask(i)
        union = 0
        for m in family.masks:
            if not m & ~u:
                union |= m
        if union != u:
            raise UltratopError("internal: principal opens failed to form a basis")
    return family


def ultrafilter_prime(
    ring: FiniteRing, ultra: PrincipalUltrafilter
) -> Ideal:
    """The prime ideal of elements whose vanishing locus is large on the base.

    The base must be a set of points of the spectrum; the result is checked
    to be an ideal by construction of the Ideal type, and for a principal
    ultrafilter it is exactly the prime at the generating point.
    """
    spectrum = _spectrum(ring)
    labels = frozenset(label for label, _ in spectrum)
    if not ultra.base <= labels:
        raise DomainError("ultrafilter base must consist of spectrum points")
    members = frozenset(
        x
        for x in range(ring.size)
        if ultra.contains(
            frozenset(label for label, mem in spectrum if x in mem) & ultra.base
        )
    )
    return Ideal(ring, members)


@dataclass(frozen=True)
class Subring:
    """A unital subring of an ambient finite ring, stored by element indices."""

    ambient: FiniteRing
    members: frozenset[int]

    def __post_init__(self) -> None:
        r = self.ambient
        for need, word in ((r.zero, "zero"), (r.one, "one")):
            if need not in self.members:
                raise DomainError(f"a subring must contain {word}")
        for a in self.members:
            if not 0 <= a < r.size:
                raise DomainError(f"subring member {a} is out of range")
            if r.neg[a] not in self.members:
                raise DomainError(
                    f"subring is not closed under negation at {r.elements[a]!r}"
                )
            for b in self.members:
                for table, word in ((r.add, "addition"), (r.mul, "multiplication")):
                    if table[a][b] not in self.members:
                        raise DomainError(
                            f"subring is not closed under {word} at "
                            f"({r.elements[a]!r}, {r.elements[b]!r})"
                        )

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def labels(self) -> frozenset[str]:
        return frozenset(self.ambient.elements[i] for i in self.members)

    def label(self) -> str:
        """Canonical display label: the member list in ambient element order."""
        return "{" + ",".join(self.ambient.elements[i] for i in sorted(self.members)) + "}"


def subring_closure(ambient: FiniteRing, seed: Iterable[int]) -> frozenset[int]:
    """Smallest unital subring containing the seed elements."""
    members = set(seed) | {ambient.zero, ambient.one}
    todo = list(members)
    while todo:
        a = todo.pop()
        # each pair is combined when its later element is taken off the list
        found = {ambient.neg[a]}
        for b in list(members):
            found.add(ambient.add[a][b])
            found.add(ambient.mul[a][b])
        for v in found - members:
            members.add(v)
            todo.append(v)
    return frozenset(members)


def intermediate_rings(emb: RingEmbedding) -> tuple[Subring, ...]:
    """All subrings of the target that contain the embedded image.

    Every such subring is a join of the single-element extensions of the
    image, so the join closure of those extensions is exhaustive.
    """
    ambient = emb.target
    if ambient.size > MAX_OVERRING_AMBIENT:
        raise DomainError(
            f"intermediate-ring enumeration is capped at {MAX_OVERRING_AMBIENT}"
            " ambient elements"
        )
    image = frozenset(emb.mapping)
    # b ranging over the image gives the subring generated by the image
    extensions = {subring_closure(ambient, image | {b}) for b in range(ambient.size)}
    found = _join_closure(extensions, lambda a, b: subring_closure(ambient, a | b))
    ordered = sorted(found, key=lambda s: (len(s), sorted(s)))
    return tuple(Subring(ambient, s) for s in ordered)


def overring_family(emb: RingEmbedding) -> SetFamily:
    """For each target element x, the set of intermediate rings containing x."""
    rings = intermediate_rings(emb)
    carrier = Carrier.of(r.label() for r in rings)
    members = tuple(
        (
            f"U_{emb.target.elements[x]}",
            frozenset(r.label() for r in rings if x in r.members),
        )
        for x in range(emb.target.size)
    )
    return SetFamily(carrier, members)


def overring_space(emb: RingEmbedding) -> FinSpace:
    """The space of intermediate rings, generated by the element loci."""
    return from_subbasis(overring_family(emb))


def a_ultra(emb: RingEmbedding, ultra: PrincipalUltrafilter) -> Subring:
    """The intermediate ring of elements contained in ultrafilter-many rings.

    The base must be a set of intermediate-ring labels; the result is itself
    an intermediate ring, and for a principal ultrafilter it is exactly the
    ring at the generating point.
    """
    rings = intermediate_rings(emb)
    by_label = {r.label(): r for r in rings}
    if not ultra.base <= by_label.keys():
        raise DomainError("ultrafilter base must consist of intermediate rings")
    members = frozenset(
        x
        for x in range(emb.target.size)
        if ultra.contains(
            frozenset(lab for lab, r in by_label.items() if x in r.members)
            & ultra.base
        )
    )
    result = Subring(emb.target, members)
    if not frozenset(emb.mapping) <= members:
        raise UltratopError("internal: ultrafilter ring lost the embedded image")
    return result


@dataclass(frozen=True)
class IntegralityCertificate:
    """A monic polynomial over a subring with a designated ambient root.

    ``coeffs`` are ambient element indices, constant term first; the leading
    coefficient is one.
    """

    subring: Subring
    element: str
    coeffs: tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def as_labels(self) -> tuple[str, ...]:
        return tuple(self.subring.ambient.elements[c] for c in self.coeffs)

    def verify(self) -> bool:
        """Monic, coefficients in the subring, and evaluates to zero."""
        r = self.subring.ambient
        if len(self.coeffs) < 2 or self.coeffs[-1] != r.one:
            return False
        if not all(c in self.subring.members for c in self.coeffs):
            return False
        b = r.idx(self.element)
        acc = r.zero
        for c in reversed(self.coeffs):
            acc = r.add[r.mul[acc][b]][c]
        return acc == r.zero


def integrality_certificate(subring: Subring, element: str) -> IntegralityCertificate:
    """A monic relation over the subring satisfied by the ambient element.

    Membership gives the linear certificate x - b.  Otherwise the powers of
    the element eventually repeat, b^j = b^i with i < j, and x^j - x^i is
    monic with coefficients 0, 1 and -1, all of which lie in any subring.
    """
    r = subring.ambient
    b = r.idx(element)
    if b in subring.members:
        coeffs = (r.neg[b], r.one)
    else:
        seen: dict[int, int] = {}
        power = b
        exponent = 1
        while power not in seen:
            seen[power] = exponent
            power = r.mul[power][b]
            exponent += 1
        i, j = seen[power], exponent
        cs = [r.zero] * (j + 1)
        cs[i] = r.neg[r.one]
        cs[j] = r.one
        coeffs = tuple(cs)
    cert = IntegralityCertificate(subring, element, coeffs)
    if not cert.verify():
        raise UltratopError("internal: integrality certificate failed to verify")
    return cert


def is_integral(subring: Subring, element: str) -> bool:
    """Whether the ambient element satisfies a monic relation over the
    subring; always true in a finite ring, by power periodicity."""
    return integrality_certificate(subring, element).verify()


@dataclass(frozen=True)
class IntegralClosureReport:
    """One verified certificate per ambient element, plus the verdict."""

    subring: Subring
    certificates: tuple[IntegralityCertificate, ...]
    holds: bool


def is_integrally_closed_in(subring: Subring) -> IntegralClosureReport:
    """Certify that the integral-closure relation collapses over the subring.

    In a finite ambient ring power periodicity makes every element integral
    over every unital subring, so taking integral closures adds nothing that
    enumeration does not already see: the check holds for every intermediate
    ring, and the report carries one verified monic certificate per ambient
    element as evidence.
    """
    certs = tuple(
        integrality_certificate(subring, label)
        for label in subring.ambient.elements
    )
    return IntegralClosureReport(subring, certs, all(c.verify() for c in certs))


def spec_functor(hom: RingHom) -> dict[str, str]:
    """Contract primes along a homomorphism: a prime of the target pulls back
    to a prime of the source, giving a map Spec(target) -> Spec(source)."""
    source_spectrum = _spectrum(hom.source)
    out: dict[str, str] = {}
    for qlabel, qmembers in _spectrum(hom.target):
        pre = frozenset(
            a for a in range(hom.source.size) if hom.mapping[a] in qmembers
        )
        for plabel, pmembers in source_spectrum:
            if pmembers == pre:
                out[qlabel] = plabel
                break
        else:
            raise UltratopError("internal: contraction of a prime is not prime")
    return out
