"""Finite topological spaces, specialization posets, and patch refinements.

A space is stored as its n point closures, as bitmasks over a carrier: a
finite space is the preorder of its point closures (y lies below x when y is
in the closure of x), its closed sets are exactly the unions of point
closures, and its smallest open around a point is the up-set of that point.
Up-sets, like the closures of a subbasis, are taken as one meet per point
(``core._meets_at_points``), so every construction and query costs
polynomial time in the number of points.  The closed sets are an output
format, listed only when asked for, only up to min(``core.MAX_CLOSED_SETS``,
``core.MAX_LISTED`` // points) of them, as the down-sets of bit-reversed point
closures (``core._down_sets``), sorted twice in C and spelled in one batch from
tables of label runs, at most 11 points wide and narrower for fewer sets.

A space built with the plain constructor is trusted to satisfy the axioms;
it takes a smallest closed set around each point, in one pass by size, as
its closure.  ``FinSpace.from_closed`` validates untrusted input for the JSON
loaders (a subset and a union-equality check; slower checks name a fault).
A ``Poset`` is stored the same way, as each point's down-set, so finite T0
spaces and finite posets map to each other with the masks unchanged; label
pairs are built only when read.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property, reduce
from operator import or_
from typing import Callable, Iterable, Mapping

from .core import (
    Carrier, DomainError, SetFamily, UltratopError, _T, _down_sets, _join_closure, _json_field,
    _json_key, _meets_at_points, _spell, _union_at,
)


class NotT0Error(DomainError):
    """Raised when an operation needs a T0 space; carries an offending pair."""

    def __init__(self, pair: tuple[str, str]):
        super().__init__(
            f"space is not T0: {pair[0]!r} and {pair[1]!r} are topologically"
            " indistinguishable"
        )
        self.pair = pair


@dataclass(frozen=True)
class FinSpace:
    """A finite topological space, stored as the closure of each point; the
    plain constructor keeps the closed-set masks it is given for ``validate``."""

    carrier: Carrier
    point_closures: tuple[int, ...]

    def __init__(self, carrier: Carrier, closed_masks: frozenset[int]) -> None:
        full = todo = carrier.full_mask
        if reduce(or_, closed_masks, 0) & ~full:
            raise DomainError("closed set reaches outside the carrier")
        closures = [full] * len(carrier)  # at each point a smallest mask holding it, by size
        for m in sorted(closed_masks, key=int.bit_count):
            new, todo = m & todo, todo & ~m
            while new:
                closures[(low := new & -new).bit_length() - 1] = m
                new ^= low
            if not todo:
                break
        self.__dict__.update(carrier=carrier, point_closures=tuple(closures),
                             closed_masks=closed_masks)

    @classmethod
    def _of_closures(cls, carrier: Carrier, closures: Iterable[int]) -> "FinSpace":
        """The space with the given closure at each point, trusted to be a preorder."""
        space = cls.__new__(cls)
        space.__dict__.update(carrier=carrier, point_closures=tuple(closures))
        return space

    @classmethod
    def from_closed(
        cls, carrier: Carrier | Iterable[str], closed: Iterable[Iterable[str]]
    ) -> "FinSpace":
        """Validated construction from label sets, each read once by ``Carrier.mask_of``."""
        if not isinstance(carrier, Carrier):
            carrier = Carrier.of(carrier)
        space = cls(carrier, frozenset(map(carrier.mask_of, closed)))
        space.validate()
        return space

    def validate(self) -> None:
        """Check the closed-set axioms, naming two closed sets whose union or
        intersection is missing.

        With k_i a smallest member of C holding point i, the closed sets C are a topology
        iff each k_j with j in k_i lies in k_i and C is the unions of the k_i
        (docs/theory_notes.md §3).  A space built from its closures has no C: it is valid
        iff each k_i holds i and meets that first condition, and nothing is listed.  Only
        if not are the meets of the members around each point taken, and the loops run
        that name the fault: C holds the empty set, the carrier, each meet and its union
        with each closed set.  Closures that are no preorder have as C all their unions.
        """
        closures, closed = self.point_closures, self.__dict__.get("closed_masks")
        if all(_union_at(closures, k) == k and k >> i & 1 for i, k in enumerate(closures)) and (
                closed is None or frozenset(_down_sets(closures, len(closed))) == closed):
            return
        full = self.carrier.full_mask
        closed = _join_closure({0, *closures}, or_) if closed is None else closed
        closures = _meets_at_points(full, closed)
        if 0 not in closed:
            raise DomainError("the empty set must be closed")
        if full not in closed:
            raise DomainError("the whole carrier must be closed")
        ordered = sorted(closed)
        for i, cl in enumerate(closures):
            if cl in closed:
                continue
            # the fold of the closed sets containing i ends at cl, which is
            # missing, so some meet on the way is missing
            acc = full
            for c in ordered:
                if (c >> i) & 1:
                    if acc & c not in closed:
                        raise self._not_closed("intersection", acc, c)
                    acc &= c
        for c in ordered:
            for cl in closures:
                if c | cl not in closed:
                    raise self._not_closed("union", c, cl)

    def _not_closed(self, word: str, a: int, b: int) -> DomainError:
        return DomainError(
            f"closed sets are not closed under {word}: "
            f"{list(self.carrier.tuple_of(a))} and "
            f"{list(self.carrier.tuple_of(b))}"
        )

    @cached_property
    def closed_masks(self) -> frozenset[int]:
        """The closed sets, as the down-sets of the point closures (the empty one included);
        a DomainError past the bound of ``core._down_sets``."""
        return frozenset(_down_sets(self.point_closures))

    @cached_property
    def open_masks(self) -> frozenset[int]:
        full = self.carrier.full_mask
        return frozenset((~m) & full for m in self.closed_masks)

    def _listing(self, run: Callable[[str], _T], empty: _T) -> list[_T]:
        """The closed sets sorted by size then labels, the empty one first, each as the sum of
        its points' ``run``s in carrier order: sets of one size by descending mask with point i
        as bit n-1-i (docs/theory_notes.md §3), spelled by ``_spell`` in one call."""
        n = len(self.carrier)
        masks = sorted(_down_sets([int(bin(cl)[:1:-1], 2) << n - cl.bit_length()
                                   for cl in set(self.point_closures)]), reverse=True)
        masks.sort(key=int.bit_count)
        return _spell([run(p) for p in reversed(self.carrier.points)], masks, empty, True)

    def closed_sets(self) -> tuple[frozenset[str], ...]:
        """Closed sets as label sets, sorted by size then labels."""
        return tuple(map(frozenset, self._listing(lambda p: (p,), ())))

    def is_closed(self, subset: Iterable[str]) -> bool:
        return self.closure_mask(m := self.carrier.mask_of(subset)) == m

    def is_open(self, subset: Iterable[str]) -> bool:
        return _union_at(self._minimal_opens, m := self.carrier.mask_of(subset)) == m

    def closure_mask(self, mask: int) -> int:
        return _union_at(self.point_closures, mask)

    def closure(self, subset: Iterable[str]) -> frozenset[str]:
        """Smallest closed superset: the union of the point closures."""
        return self.carrier.labels_of(self.closure_mask(self.carrier.mask_of(subset)))

    @cached_property
    def _minimal_opens(self) -> tuple[int, ...]:
        """Per point i, the meet of X - cl{x} over the x with i outside cl{x} (theory notes §3)."""
        full = self.carrier.full_mask
        return tuple(_meets_at_points(full, {full & ~cl for cl in self.point_closures}))

    def t0_violation(self) -> tuple[str, str] | None:
        """A pair of indistinguishable points, or None when the space is T0."""
        seen: dict[int, int] = {}
        for i, cl in enumerate(self.point_closures):
            if cl in seen:
                return (self.carrier.points[seen[cl]], self.carrier.points[i])
            seen[cl] = i
        return None

    def minimal_open_mask(self, i: int) -> int:
        """Smallest open containing point i: the points whose closure holds i."""
        if not 0 <= i < len(self.carrier):  # a negative index does not wrap
            raise DomainError(f"point index {i!r} is out of range")
        return self._minimal_opens[i]

    def to_json(self) -> dict:
        return {
            "carrier": list(self.carrier.points),
            "closed": self._listing(lambda p: [p], []),
        }

    @classmethod
    def from_json(cls, doc: dict) -> "FinSpace":
        """Validated construction from a JSON document; labels are strings and closed sets are
        lists (never a string read as one), checked one by one only once the read has failed."""
        carrier = _json_key(doc, "carrier", list, item=str)
        closed = _json_key(doc, "closed", list)
        space = None
        try:
            space = cls.from_closed(carrier, _json_field(closed, list, "closed", list))
        finally:
            if space is None:  # the read failed: a bad entry, if any, is named instead
                for i, c in enumerate(closed):
                    _json_field(c, list, f"closed[{i}]", str)
        return space


def from_subbasis(subbasis: SetFamily) -> FinSpace:
    """The coarsest topology in which every member of the family is open.

    x lies in the closure of y exactly when every member holding x holds y, so
    the closure of y is the meet of the complements of the members missing y
    (docs/theory_notes.md §3).
    """
    full = subbasis.carrier.full_mask
    closures = _meets_at_points(full, [full & ~m for m in subbasis.masks])
    return FinSpace._of_closures(subbasis.carrier, closures)


def ultra_topology(family: SetFamily) -> FinSpace:
    """The topology whose closed sets are the stable sets of the family.

    On a finite carrier a set is stable exactly when it is a union of atoms
    of the family, so this is the partition topology of the atoms: each
    point's closure is its atom.  The test suite cross-checks this against
    brute-force stability enumeration.
    """
    return FinSpace._of_closures(family.carrier, family._point_atoms)


@dataclass(frozen=True)
class Poset:
    """A finite partial order, stored as the principal down-set of each point
    (the form of ``FinSpace.point_closures``); its label pairs are built when read."""

    carrier: Carrier
    downs: tuple[int, ...]

    def __init__(self, carrier: Carrier, relation: Iterable[tuple[str, str]]) -> None:
        idx, downs = carrier._index, [0] * len(carrier)
        for x, y in relation:
            if x not in idx or y not in idx:  # re-read, the pairs before it lie in the carrier
                stray = [(x, y), *((a, b) for a, b in relation if a not in idx or b not in idx)]
                x, y = min(stray, key=lambda p: [(type(q) is not str, str(q)) for q in p])
                raise DomainError(f"relation pair ({x!r}, {y!r}) leaves the carrier")
            downs[idx[y]] |= 1 << idx[x]
        self.__dict__.update(carrier=carrier, downs=tuple(downs))
        self._check()

    def _check(self) -> None:
        """Name the first point where the order is not reflexive, antisymmetric or transitive."""
        points, downs = self.carrier.points, self.downs
        for i, d in enumerate(downs):
            if not (d >> i) & 1:
                raise DomainError(f"relation is not reflexive at {points[i]!r}")
            for j in range(len(points)):
                if j == i or not (d >> j) & 1:
                    continue
                if (downs[j] >> i) & 1:
                    raise DomainError(
                        f"relation is not antisymmetric on {points[j]!r}, {points[i]!r}"
                    )
                if downs[j] & ~d:
                    k = (downs[j] & ~d).bit_length() - 1
                    raise DomainError("relation is not transitive: "
                                      f"{points[k]!r} <= {points[j]!r} <= {points[i]!r}")

    @classmethod
    def _of_downs(cls, carrier: Carrier, downs: Iterable[int]) -> "Poset":
        """The order with the given principal down-sets, trusted to be a partial order."""
        poset = cls.__new__(cls)
        poset.__dict__.update(carrier=carrier, downs=tuple(downs))
        return poset

    @cached_property
    def relation(self) -> frozenset[tuple[str, str]]:
        """All (lower, upper) pairs, built from the down-sets when first read."""
        p, tuple_of = self.carrier.points, self.carrier.tuple_of
        return frozenset((x, p[i]) for i, d in enumerate(self.downs) for x in tuple_of(d))

    @classmethod
    def from_pairs(cls, labels: Iterable[str], pairs: Iterable[tuple[str, str]]) -> "Poset":
        """Reflexive-transitive closure of the given pairs; rejects cycles."""
        n = len(carrier := Carrier.of(labels))
        downs = [1 << i for i in range(n)]
        for x, y in pairs:
            downs[carrier.mask_of((y,)).bit_length() - 1] |= carrier.mask_of((x,))
        for k in range(n):  # Warshall, one row of bits at a time
            for i in range(n):
                if (downs[i] >> k) & 1:
                    downs[i] |= downs[k]
        if len(set(downs)) < n:  # two points below each other: a cycle, named by the check
            cls._of_downs(carrier, downs)._check()
        return cls._of_downs(carrier, downs)

    def leq(self, x: str, y: str) -> bool:
        idx = self.carrier._index
        return x in idx and y in idx and (self.downs[idx[y]] >> idx[x]) & 1 == 1

    def down(self, x: str) -> frozenset[str]:
        """Principal down-set: everything below or equal to x."""
        if x not in self.carrier:
            raise DomainError(f"{x!r} is not a point of the carrier")
        return self.carrier.labels_of(self.downs[self.carrier._index[x]])

    def covers(self) -> tuple[tuple[str, str], ...]:
        """(lower, upper) pairs with nothing strictly between, sorted: y covers
        its strict down-set minus the strict down-sets of the points in it."""
        points = self.carrier.points
        strict = [d & ~(1 << i) for i, d in enumerate(self.downs)]
        out = []
        for i, below in enumerate(strict):
            lower = below & ~_union_at(strict, below)
            out += ((points[j], points[i]) for j in range(len(points)) if (lower >> j) & 1)
        return tuple(sorted(out))


def specialization_order(space: FinSpace) -> Poset:
    """Order the points by y <= x iff y lies in the closure of {x}.

    Generic points sit on top; the space must be T0 for antisymmetry, and a
    violating pair is reported otherwise.
    """
    violation = space.t0_violation()
    if violation is not None:
        raise NotT0Error(violation)
    return Poset._of_downs(space.carrier, space.point_closures)


def poset_to_space(poset: Poset) -> FinSpace:
    """Alexandrov space of the poset: closed sets are the down-closed sets,
    the unions of principal down-sets."""
    return FinSpace._of_closures(poset.carrier, poset.downs)


def space_to_poset(space: FinSpace) -> Poset:
    """Alias for specialization_order; inverse of poset_to_space on T0 spaces."""
    return specialization_order(space)


@dataclass(frozen=True)
class SpectralReport:
    """Per-check breakdown of the finite spectrality test."""

    compact: bool
    t0: bool
    t0_witness: tuple[str, str] | None
    sober: bool
    sober_witness: tuple[str, ...] | None
    compact_open_basis: bool
    spectral: bool

    def to_json(self) -> dict:
        return {
            "compact": self.compact,
            "t0": self.t0,
            "t0_witness": list(self.t0_witness) if self.t0_witness else None,
            "sober": self.sober,
            "sober_witness": list(self.sober_witness) if self.sober_witness else None,
            "compact_open_basis": self.compact_open_basis,
            "spectral": self.spectral,
        }


def _soberness(space: FinSpace) -> tuple[bool, tuple[str, ...] | None]:
    """Every irreducible closed set must have exactly one generic point.

    The irreducible closed sets of a finite space are its point closures,
    and the generic points of cl{x} are the points with that same closure.
    The witness is the smallest such closure (as a mask) shared by two
    points.
    """
    shared = [cl for cl, k in Counter(space.point_closures).items() if k > 1]
    if not shared:
        return True, None
    return False, space.carrier.tuple_of(min(shared))


def _compact_open_basis(space: FinSpace) -> bool:
    """Check that the minimal opens form a basis closed under intersection.

    On a finite space every subset is compact, so the content of the check
    is that the meet of any two minimal opens (the same one twice included)
    is the union of the minimal opens of its points, hence open.
    """
    ups = space._minimal_opens
    return all(_union_at(ups, m) == m for m in {a & b for a in ups for b in ups})


def is_spectral(space: FinSpace) -> SpectralReport:
    """Run the finite spectrality checks and cross-check the verdict.

    A finite space is spectral exactly when it is T0 (compactness is free,
    soberness is equivalent to T0 in the finite case, and the minimal open
    neighborhoods always give an intersection-closed basis of compact opens).
    Both routes are computed; a disagreement would be an internal error.
    """
    t0_witness = space.t0_violation()
    sober, sober_witness = _soberness(space)
    basis_ok = _compact_open_basis(space)
    spectral = (t0_witness is None) and sober and basis_ok
    if spectral != (t0_witness is None):
        raise UltratopError("internal: spectrality disagrees with the T0 shortcut")
    return SpectralReport(
        compact=True,
        t0=t0_witness is None,
        t0_witness=t0_witness,
        sober=sober,
        sober_witness=sober_witness,
        compact_open_basis=basis_ok,
        spectral=spectral,
    )


def patch_topology(space: FinSpace) -> FinSpace:
    """Refine the space by making every compact open set clopen.

    Finite subsets are all compact, so every open and every closed set
    becomes clopen; the result is the partition topology of topological
    indistinguishability (points with equal closures), discrete exactly when
    the input is T0.
    """
    blocks: dict[int, int] = {}
    for i, cl in enumerate(space.point_closures):
        blocks[cl] = blocks.get(cl, 0) | (1 << i)
    return FinSpace._of_closures(space.carrier, (blocks[cl] for cl in space.point_closures))


def generic_closure(space: FinSpace, subset: Iterable[str]) -> frozenset[str]:
    """All generizations of the subset: points whose closure meets it."""
    y = space.carrier.mask_of(subset)
    return space.carrier.labels_of(_union_at(space._minimal_opens, y))


def _preimage_masks(
    mapping: Mapping[str, str], dom_carrier: Carrier, cod_carrier: Carrier
) -> list[int]:
    """Bit position in the codomain for each domain point; validates totality."""
    out = []
    for x in dom_carrier.points:
        if x not in mapping:
            raise DomainError(f"map is not total: no image for {x!r}")
        y = mapping[x]
        if y not in cod_carrier:
            raise DomainError(f"image {y!r} of {x!r} is not in the codomain")
        out.append(cod_carrier._index[y])
    return out


def is_continuous(
    mapping: Mapping[str, str], dom: FinSpace, cod: FinSpace
) -> bool:
    """Whether preimages of closed sets are closed; the map must be total.

    Between finite spaces that is monotonicity of the specialization
    preorders: the image of each point closure lies in the closure of the
    point's image.
    """
    images = _preimage_masks(mapping, dom.carrier, cod.carrier)
    image_bits = [1 << yi for yi in images]
    return all(
        not _union_at(image_bits, cl) & ~cod.point_closures[yi]
        for cl, yi in zip(dom.point_closures, images)
    )


@dataclass(frozen=True)
class TransportReport:
    """Preimage-hypothesis check plus the continuity it forces.

    ``continuous`` is computed between the two induced stable-set topologies
    whenever the hypothesis holds, and is None otherwise.
    """

    preimages_in_family: bool
    missing: tuple[str, ...]
    continuous: bool | None


def ultra_transport(
    mapping: Mapping[str, str], dom_family: SetFamily, cod_family: SetFamily
) -> TransportReport:
    """Check that codomain members pull back into the domain family, then
    verify continuity between the induced stable-set topologies."""
    fibres = [0] * len(cod_family.carrier)  # per codomain point, the domain points over it
    for i, yi in enumerate(_preimage_masks(mapping, dom_family.carrier, cod_family.carrier)):
        fibres[yi] |= 1 << i
    available = set(dom_family.masks)
    missing = tuple(name for (name, _), m in zip(cod_family.members, cod_family.masks)
                    if _union_at(fibres, m) not in available)
    continuous = None if missing else is_continuous(
        mapping, ultra_topology(dom_family), ultra_topology(cod_family))
    return TransportReport(not missing, missing, continuous)


def _dot_quote(label: str) -> str:
    return '"' + label.replace("\\", "\\\\").replace('"', '\\"') + '"'


def hasse_dot(poset: Poset, name: str = "poset") -> str:
    """Graphviz digraph of the cover relation, drawn upward."""
    lines = [f"digraph {_dot_quote(name)} {{", "  rankdir=BT;"]
    for p in poset.carrier.points:
        lines.append(f"  {_dot_quote(p)};")
    for lower, upper in poset.covers():
        lines.append(f"  {_dot_quote(lower)} -> {_dot_quote(upper)};")
    lines.append("}")
    return "\n".join(lines) + "\n"
