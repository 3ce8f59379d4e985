"""Finite commutative rings as operation tables, their prime spectra, and
the spaces of intermediate rings attached to ring embeddings.

Rings are deliberately small: operation tables are capped at 64 elements,
every ring law is checked on load, and subring enumeration is capped at a
32-element ambient ring.  Tables are kept as bytes: shape, range, commutativity
and identities are compared as whole tables, and laws, ideals and subrings a
row per C call (``bytes.translate``); only a check that fails runs the loop
naming its first offender, an ideal's or subring's least member out of range
first.  Element indices given directly pass one range check.
Primes and ideals are read off the primitive idempotents under a checked
certificate, and cached on each ring; subrings are spanned from generators
(docs/theory_notes.md, sections 4 and 5).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, reduce, wraps
from itertools import chain, combinations, repeat
from typing import Collection, Iterable, Mapping, Sequence

from .core import Carrier, DomainError, PrincipalUltrafilter, SetFamily, UltratopError
from .core import _join_closure, _json_field, _json_key
from .topology import FinSpace, from_subbasis

MAX_RING = 64
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
        return self.elements[_index(self, i)]

    @cached_property
    def neg(self) -> tuple[int, ...]:
        """Additive inverse of each element."""
        return tuple(row.index(self.zero) for row in self.add)

    @cached_property
    def _byte_rows(self) -> tuple[tuple[bytes, ...], ...]:
        """The rows of + and * as bytes, then padded to 256 bytes as ``bytes.translate`` tables."""
        A, M = tuple(map(bytes, self.add)), tuple(map(bytes, self.mul))
        pad = repeat(bytes(256 - self.size))
        return A, M, tuple(map(bytes.__add__, A, pad)), tuple(map(bytes.__add__, M, pad))

    @cached_property
    def _additive_generators(self) -> tuple[int, ...]:
        """Greedy picks whose sums, nested to the right from zero, reach every
        element; once + is a group each pick at least doubles the reach."""
        gens: list[int] = []
        reached = {self.zero}
        for e in range(self.size):
            if e not in reached:
                gens.append(e)
                reached = _orbit(reached, self.add, gens)
        return tuple(gens)

    @cached_property
    def _nilpotents(self) -> frozenset[int]:
        """The x with x^(2^k) = 0 for 2^k >= n: a nilpotent's powers are distinct until 0."""
        powers = range(self.size)
        for _ in range((self.size - 1).bit_length()):
            powers = [self.mul[x][x] for x in powers]
        return frozenset(x for x, p in enumerate(powers) if p == self.zero)

    @cached_property
    def _primitive_idempotents(self) -> tuple[int, ...]:
        """The nonzero e = e^2 above no other nonzero idempotent f (e*f = f)."""
        idem = [e for e in range(self.size) if self.mul[e][e] == e != self.zero]
        return tuple(e for e in idem if all(self.mul[e][f] in (self.zero, e) for f in idem))

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
        """Construction from a JSON document; nothing is coerced.  A missing
        key or a badly typed field raises an InputError naming the field,
        prefixed by the ring's name when it has one (``source.elements``,
        ``target.add[3]``)."""
        at = f"{name}." if name else ""

        def table(key: str) -> tuple[tuple[int, ...], ...]:
            rows = _json_key(doc, key, list, at)  # the rows' types, then their entries', in bulk
            if set(map(type, rows)) - {list} or set(map(type, chain.from_iterable(rows))) - {int}:
                for i, row in enumerate(rows):
                    _json_field(row, list, f"{at}{key}[{i}]", int)
            return tuple(map(tuple, rows))

        return cls(
            tuple(_json_key(doc, "elements", list, at, str)),
            table("add"),
            table("mul"),
            _json_key(doc, "zero", int, at),
            _json_key(doc, "one", int, at),
            name=name,
        )


def _orbit(start: Iterable[int], table: Sequence[Sequence[int]], gens: Collection[int]) -> set[int]:
    """The start and all it reaches by steps x -> table[g][x], g in gens: one worklist
    in which each round steps only from the elements the round before found."""
    reached = todo = set(start)
    while todo:
        todo = {table[g][x] for g in gens for x in todo} - reached
        reached |= todo
    return reached


def _check_ring(r: FiniteRing) -> None:
    n = len(r.elements)
    if n < 1:
        raise DomainError("a ring needs at least one element")
    if n > MAX_RING:
        raise DomainError(f"operation tables are capped at {MAX_RING} elements")
    if len(set(r.elements)) != n:
        raise DomainError("element labels must be pairwise distinct")
    ids = bytes(range(n))  # the entries in range, and the row of an identity
    try:  # each structural check on whole byte tables, in C calls
        A, M, *_ = r._byte_rows
        fine = A[r.zero] == M[r.one] == ids and all(r.zero in a for a in A) and all(
            len(t) == n and {*map(len, t)} == {n} and not f.translate(None, ids)
            and f == b"".join(f[j::n] for j in range(n))  # its transpose
            for t, f in ((r.add, b"".join(A)), (r.mul, b"".join(M))))
    except (TypeError, ValueError, IndexError):  # an entry bytes() refuses, zero or one past n
        fine = False
    add, mul = r.add, r.mul
    if not fine:  # the loops naming the fault, in the order of the checks
        indices = set(range(n))
        for table, word in ((add, "addition"), (mul, "multiplication")):
            if len(table) != n or any(len(row) != n for row in table):
                raise DomainError(f"{word} table must be {n}x{n}")
            for row in table:
                if not indices.issuperset(row):
                    v = next(v for v in row if v not in indices)
                    raise DomainError(f"{word} table entry {v} is out of range")
    if not 0 <= r.zero < n or not 0 <= r.one < n:
        raise DomainError("zero and one must be element indices")
    if r.zero == r.one and n > 1:
        raise DomainError("one must differ from zero in a nontrivial ring")
    if not fine:
        # each row against its column: the first row to differ differs from it at j >= i only
        rows = zip(map(tuple, add), zip(*add), map(tuple, mul), zip(*mul))
        for i, (ra, ca, rm, cm) in enumerate(rows):
            if ra != ca or rm != cm:
                word, j = next((word, j) for j in range(i, n) for word, t in
                               (("addition", add), ("multiplication", mul)) if t[i][j] != t[j][i])
                raise DomainError(f"{word} is not commutative at ({i}, {j})")
        for i in range(n):
            if add[r.zero][i] != i:
                raise DomainError(f"zero is not an additive identity at {i}")
            if mul[r.one][i] != i:
                raise DomainError(f"one is not a multiplicative identity at {i}")
            if r.zero not in add[i]:
                raise DomainError(f"element {i} has no additive inverse")
    A, M, At, Mt = r._byte_rows  # an integral float passes every loop above; bytes() refuses it
    # Light's test gives associativity of + at the generators alone, the other laws are
    # then additive in the middle slot, and each law at (g, x) compares two byte rows
    # (docs/theory_notes.md, section 4); the loop naming the law runs once a pair fails
    for g in r._additive_generators:
        Ag, Mg = A[g], M[g]
        for x in range(n):
            if (A[add[x][g]] == Ag.translate(At[x]) and M[mul[x][g]] == Mg.translate(Mt[x])
                    and Ag.translate(Mt[x]) == M[x].translate(At[mul[x][g]])):
                continue
            for law, lhs, rhs in (
                ("addition is not associative", A[add[x][g]], Ag.translate(At[x])),
                ("multiplication is not associative", M[mul[x][g]], Mg.translate(Mt[x])),
                ("distributivity fails", Ag.translate(Mt[x]), M[x].translate(At[mul[x][g]])),
            ):
                if lhs != rhs:
                    z = next(z for z in range(n) if lhs[z] != rhs[z])
                    raise DomainError(f"{law} at ({x}, {g}, {z})")


def zmod(n: int) -> FiniteRing:
    """The ring of integers modulo n, with decimal labels."""
    if not 2 <= n <= MAX_RING:
        raise DomainError(f"zmod size must be between 2 and {MAX_RING}")
    cycle = tuple(range(n)) * n  # cycle[k] == k % n for k < n * n
    add = tuple(cycle[i:i + n] for i in range(n))
    mul = ((0,) * n, *(cycle[0:i * n:i] for i in range(1, n)))
    return FiniteRing(tuple(map(str, range(n))), add, mul, 0, 1, name=f"Z/{n}")


def product(r: FiniteRing, s: FiniteRing) -> FiniteRing:
    """Componentwise product ring; element (a, b) gets the label "(a,b)"."""
    n, m = r.size, s.size
    if n * m > MAX_RING:
        raise DomainError(f"product size {n * m} exceeds the cap of {MAX_RING}")
    labels = tuple(
        f"({r.elements[i]},{s.elements[j]})" for i in range(n) for j in range(m)
    )

    def table(tr, ts):
        return tuple(
            tuple(tr[i][k] * m + ts[j][l] for k in range(n) for l in range(m))
            for i in range(n) for j in range(m)
        )

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
        # zero and the additive generators suffice (docs/theory_notes.md, section 4)
        (A, M, *_), (*_, At, Mt), F = src._byte_rows, tgt._byte_rows, bytes(f)
        for g in (src.zero, *src._additive_generators):
            for word, op, op_t in (("addition", A, At), ("multiplication", M, Mt)):
                lhs, rhs = op[g].translate(F.ljust(256, b"\0")), F.translate(op_t[f[g]])
                if lhs != rhs:
                    x = next(x for x in range(src.size) if lhs[x] != rhs[x])
                    raise DomainError(
                        f"map does not preserve {word} at "
                        f"({src.elements[g]!r}, {src.elements[x]!r})"
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
        r, ms = self.ring, self.members
        if r.zero not in ms:
            raise DomainError("an ideal must contain zero")
        if bad := ms.difference(range(r.size)):
            raise DomainError(f"ideal member {min(bad)} is out of range")
        (_, M, At, _), S, e = r._byte_rows, bytes(ms), r.elements
        # per member a, the sums a + b (b in S) then the products x * a (rows are columns)
        # with the members deleted: nothing is left in an ideal, else the first left is named
        for a in ms:
            if (row := S.translate(At[a]) + M[a]).translate(None, S):
                k = next(k for k, v in enumerate(row) if v not in ms)
                raise DomainError(
                    f"ideal is not closed under addition at ({e[a]!r}, {e[S[k]]!r})" if k < len(S)
                    else f"ideal does not absorb multiplication at ({e[k - len(S)]!r}, {e[a]!r})")

    @property
    def labels(self) -> frozenset[str]:
        return frozenset(self.ring.elements[i] for i in self.members)


def principal_ideal(ring: FiniteRing, element: str | int) -> Ideal:
    """The ideal generated by one element (all its ring multiples)."""
    x = ring.idx(element) if isinstance(element, str) else _index(ring, element)
    return Ideal(ring, frozenset(ring.mul[r][x] for r in range(ring.size)))


def _index(ring: FiniteRing, x: int) -> int:
    """An element index given directly, once in range: a negative one does not wrap."""
    if not 0 <= x < ring.size:
        raise DomainError(f"element index {x!r} is out of range")
    return x


def _per_instance(build):
    """Cache ``build(obj)`` in the object's own ``__dict__``, as a ``cached_property`` does."""
    cache = cached_property(build)
    cache.__set_name__(None, build.__name__)
    return wraps(build)(lambda obj: cache.__get__(obj))


def _by_size(sets: Iterable[frozenset[int]]) -> tuple[frozenset[int], ...]:
    return tuple(sorted(sets, key=lambda s: (len(s), sorted(s))))


@_per_instance
def _ideal_sets(ring: FiniteRing) -> tuple[frozenset[int], ...]:
    """Every ideal: one ideal of each factor e*R, each the join of principal ideals, summed."""
    _prime_sets(ring)  # certifies that R is the product of the factors
    sums = [frozenset({ring.zero})]
    for e in ring._primitive_idempotents:
        principal = {frozenset(ring.mul[x]) for x in ring.mul[e]}
        factor = _join_closure(principal, lambda a, b: _span(ring, a, b, {}))
        sums = [_span(ring, a, b, {}) for a in sums for b in factor]
    return _by_size(sums)


@_per_instance
def all_ideals(ring: FiniteRing) -> tuple[Ideal, ...]:
    """All ideals by size then content: the sums of ideals of the local factors."""
    return tuple(Ideal(ring, s) for s in _ideal_sets(ring))


@_per_instance
def _prime_sets(ring: FiniteRing) -> tuple[frozenset[int], ...]:
    """m_e = {x : x*e nilpotent} per primitive idempotent e, certified: the e are orthogonal
    with sum one, each m_e is an ideal, and the units mod m_e are the x outside m_e."""
    n, add, mul, one = ring.size, ring.add, ring.mul, ring.one
    es = ring._primitive_idempotents
    if reduce(lambda s, e: add[s][e], es, ring.zero) != one or any(
            mul[e][f] != ring.zero for e, f in combinations(es, 2)):
        raise UltratopError("internal: the primitive idempotents are not orthogonal with sum one")
    primes = []
    for e in es:
        m = frozenset(x for x in range(n) if mul[e][x] in ring._nilpotents)
        try:
            Ideal(ring, m)
        except DomainError as err:
            raise UltratopError(f"internal: {{x : x*e nilpotent}}: {err}") from None
        units = {add[one][y] for y in m}  # 1 + m
        if {x for x in range(n) if not units.isdisjoint(mul[x])} != set(range(n)) - m:
            raise UltratopError("internal: the quotient by {x : x*e nilpotent} is not a field")
        primes.append(m)
    return _by_size(primes)


@_per_instance
def prime_ideals(ring: FiniteRing) -> tuple[Ideal, ...]:
    """All prime ideals: one maximal m_e = {x : x*e nilpotent} per primitive idempotent e,
    each certified once per ring to have a field as quotient."""
    return tuple(Ideal(ring, s) for s in _prime_sets(ring))


@_per_instance
def _spectrum(ring: FiniteRing) -> tuple[tuple[str, frozenset[int]], ...]:
    """(label, member set) per prime, labeled by its first principal generator
    in index order when one exists and by the member list otherwise."""
    pairs = []
    for members in _prime_sets(ring):  # x*R has n / |Ann(x)| elements, all in the prime
        x = next((x for x in sorted(members)
                  if ring.mul[x].count(ring.zero) * len(members) == ring.size), None)
        pairs.append((f"({ring.elements[x]})" if x is not None else
                      "{" + ",".join(ring.elements[i] for i in sorted(members)) + "}", members))
    return tuple(sorted(pairs))


def spec_space(ring: FiniteRing) -> FinSpace:
    """The prime spectrum, discrete: the primes are maximal and pairwise comaximal,
    so the vanishing loci of the ideals, its closed sets, are all sets of primes."""
    spectrum = _spectrum(ring)
    if not spectrum:
        raise DomainError("the zero ring has an empty spectrum")
    return FinSpace._of_closures(Carrier.of(label for label, _ in spectrum),
                                 (1 << i for i in range(len(spectrum))))


def vanishing_set(ring: FiniteRing, element: str) -> frozenset[str]:
    """Labels of the primes containing the element."""
    x = ring.idx(element)
    return frozenset(label for label, mem in _spectrum(ring) if x in mem)


def _loci(size: int, points: Sequence[tuple[str, Collection[int]]]) -> list[frozenset[str]]:
    """Per element index, the labels of the (label, members) points that hold it."""
    return [frozenset(label for label, members in points if x in members) for x in range(size)]


def _ultra_limit(size: int, points: Sequence[tuple[str, Collection[int]]],
                 ultra: PrincipalUltrafilter, what: str) -> frozenset[int]:
    """The x whose locus, met with the base, the ultrafilter contains: P_U on the
    primes, A_U on the intermediate rings.  The base must consist of point labels."""
    if not ultra.base <= {label for label, _ in points}:
        raise DomainError(f"ultrafilter base must consist of {what}")
    return frozenset(x for x, locus in enumerate(_loci(size, points))
                     if ultra.contains(locus & ultra.base))


def principal_open_family(ring: FiniteRing) -> SetFamily:
    """The family of principal opens D_f, the points outside V(f); checked to be a basis."""
    space, every = spec_space(ring), frozenset(label for label, _ in _spectrum(ring))
    family = SetFamily(space.carrier, tuple(
        (f"D_{label}", every - locus)
        for label, locus in zip(ring.elements, _loci(ring.size, _spectrum(ring)))))
    # every open is the union of the minimal opens of its points, and a principal
    # open inside a point's minimal open that holds the point is that open
    if not {space.minimal_open_mask(i) for i in range(len(space.carrier))} <= set(family.masks):
        raise UltratopError("internal: principal opens failed to form a basis")
    return family


def ultrafilter_prime(ring: FiniteRing, ultra: PrincipalUltrafilter) -> Ideal:
    """The prime P_U = {f : V(f) in U} of the elements whose vanishing locus is large
    on the base, a set of spectrum points; the Ideal type checks the result, and a
    principal ultrafilter gives the prime at its point (docs/theory_notes.md, section 4).
    """
    return Ideal(ring, _ultra_limit(ring.size, _spectrum(ring), ultra, "spectrum points"))


@dataclass(frozen=True)
class Subring:
    """A unital subring of an ambient finite ring, stored by element indices."""

    ambient: FiniteRing
    members: frozenset[int]

    def __post_init__(self) -> None:
        r, ms = self.ambient, self.members
        for need, word in ((r.zero, "zero"), (r.one, "one")):
            if need not in ms:
                raise DomainError(f"a subring must contain {word}")
        if bad := ms.difference(range(r.size)):
            raise DomainError(f"subring member {min(bad)} is out of range")
        (*_, At, Mt), S, e = r._byte_rows, bytes(ms), r.elements
        for a in ms:  # -a, then the sums and the products a + b, a * b (b in S)
            if r.neg[a] not in ms:
                raise DomainError(f"subring is not closed under negation at {e[a]!r}")
            if (S.translate(At[a]) + S.translate(Mt[a])).translate(None, S):
                word, b = next((word, b) for b in ms for word, t in (
                    ("addition", r.add), ("multiplication", r.mul)) if t[a][b] not in ms)
                raise DomainError(f"subring is not closed under {word} at ({e[a]!r}, {e[b]!r})")

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
    return _subring(ambient, [_index(ambient, x) for x in seed], {})


def _subring(ambient: FiniteRing, seed: Collection[int], basis: dict) -> frozenset[int]:
    """The span of the seed's products, one included, found by multiplying new
    products by seed elements alone (docs/theory_notes.md, section 5, Lemma 1)."""
    monoid = _orbit({ambient.one, *seed}, ambient.mul, seed)
    return _span(ambient, frozenset({ambient.zero}), monoid, basis)


def _span(
    ambient: FiniteRing, group: frozenset[int], more: Iterable[int], basis: dict
) -> frozenset[int]:
    """The additive group generated by a subgroup H and more elements: each g
    outside adds H+g, H+2g, ... until k*g is in H.  ``basis`` maps groups to
    additive generators; it is read for H and written for the result."""
    span, gens = group, list(basis.get(group, ()))
    for g in more:
        if g not in span:
            grown, kg = set(span), g
            while kg not in span:
                grown.update(map(ambient.add[kg].__getitem__, span))
                kg = ambient.add[kg][g]
            span = grown
            gens.append(g)
    span = frozenset(span)
    basis.setdefault(span, tuple(gens))
    return span


@_per_instance
def intermediate_rings(emb: RingEmbedding) -> tuple[Subring, ...]:
    """All subrings of the target containing the image, by size then content."""
    return _intermediate_rings(emb)


def _intermediate_rings(emb: RingEmbedding) -> tuple[Subring, ...]:
    """The join closure of the image A and its extensions A[b] = A v Z[b]
    (docs/theory_notes.md, section 5, Lemma 2)."""
    ambient = emb.target
    if ambient.size > MAX_OVERRING_AMBIENT:
        raise DomainError(f"intermediate-ring enumeration is capped at "
                          f"{MAX_OVERRING_AMBIENT} ambient elements")
    basis: dict[frozenset[int], tuple[int, ...]] = {}

    def join(a: frozenset[int], b: frozenset[int]) -> frozenset[int]:
        if a <= b or b <= a:
            return max(a, b, key=len)
        return _span(ambient, a, [ambient.mul[x][y] for x in basis[a] for y in basis[b]], basis)

    image = _subring(ambient, emb.mapping, basis)
    extensions = {join(image, _subring(ambient, {b}, basis))
                  for b in range(ambient.size) if b not in image}
    rings = _join_closure([image, *extensions], join)
    return tuple(Subring(ambient, s) for s in _by_size(rings))


def overring_family(emb: RingEmbedding) -> SetFamily:
    """For each target element x, the set U_x of intermediate rings containing x."""
    points = [(r.label(), r.members) for r in intermediate_rings(emb)]
    return SetFamily(Carrier.of(label for label, _ in points), tuple(
        (f"U_{label}", locus)
        for label, locus in zip(emb.target.elements, _loci(emb.target.size, points))))


def overring_space(emb: RingEmbedding) -> FinSpace:
    """The space of intermediate rings, generated by the element loci."""
    return from_subbasis(overring_family(emb))


def a_ultra(emb: RingEmbedding, ultra: PrincipalUltrafilter) -> Subring:
    """The intermediate ring A_U = {x : U_x in U} of the elements held by
    ultrafilter-many rings of the base, a set of intermediate-ring labels; a
    principal ultrafilter gives the ring at its point (docs/theory_notes.md, section 5).
    """
    points = [(r.label(), r.members) for r in intermediate_rings(emb)]
    members = _ultra_limit(emb.target.size, points, ultra, "intermediate rings")
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
    primes = {members: label for label, members in _spectrum(hom.source)}
    out: dict[str, str] = {}
    for qlabel, qmembers in _spectrum(hom.target):
        pre = frozenset(a for a in range(hom.source.size) if hom.mapping[a] in qmembers)
        if pre not in primes:
            raise UltratopError("internal: contraction of a prime is not prime")
        out[qlabel] = primes[pre]
    return out
