"""Set families over finite carriers and their ultrafilter machinery.

A carrier is a finite set of distinct string labels kept in lexicographic
order.  Subsets enter and leave the public API as frozensets of labels;
internally every subset is an integer bitmask relative to the carrier order,
which keeps the exhaustive sweeps in the test suites cheap.

On a finite base set every ultrafilter is principal, so an ultrafilter is
represented by its base set together with the generating point.  The limit
set of an ultrafilter collects the carrier points whose membership pattern
across a family agrees with the ultrafilter's verdict on every member; sets
that absorb all their own limit sets are the closed sets of a topology, and
the machinery below computes those objects exactly.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Callable, Generic, Iterable, Iterator, NamedTuple, Sequence, TypeVar

_T = TypeVar("_T")


class UltratopError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(UltratopError):
    """An argument lies outside the domain of the requested operation."""


class _MalformedDocument(DomainError):
    """A document of the wrong shape; the CLI reports it as malformed input."""


_JSON_KINDS = {
    list: "a list", str: "a string", bool: "a boolean", int: "an integer", dict: "an object"
}


def _json_field(value: _T, kind: type, path: str, item: type | None = None) -> _T:
    """Pass a JSON document's field through if it has the given kind, and
    if it is a list whose entries all have the kind ``item`` when one is given.

    Otherwise raise a TypeError naming the field or its first bad entry, so
    that a string is never read as a list and a boolean or a float never as
    an integer.  A list of exact items is checked in one pass.
    """
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise TypeError(f"{path} must be {_JSON_KINDS[kind]}, not {type(value).__name__}")
    if item is not None and not set(map(type, value)) <= {item}:
        for i, v in enumerate(value):
            _json_field(v, item, f"{path}[{i}]")
    return value


def _json_key(doc: dict, key: str, kind: type, at: str = "", item: type | None = None):
    """The field ``key`` of a JSON object, checked as ``_json_field`` does;
    a missing key raises a KeyError naming its path, ``at + key``."""
    if key not in doc:
        raise KeyError(at + key)
    return _json_field(doc[key], kind, at + key, item)


def _set_label(labels: Iterable[str]) -> str:
    return "{" + ",".join(sorted(labels)) + "}"


def _union_at(masks: Sequence[int], selector: int) -> int:
    """Union of masks[i] over the points i of the selector mask."""
    out = 0
    for i, m in enumerate(masks):
        if (selector >> i) & 1:
            out |= m
    return out


def _join_closure(gens: Iterable[_T], op: Callable[[_T, _T], _T]) -> set[_T]:
    """Close the generators under an associative, commutative, idempotent op.

    After each generator g the result holds every join of the generators
    seen so far: the old joins, their joins with g, and g itself.  That is
    one sweep of O(|result| * |gens|) joins, with no rescans.
    """
    out: set[_T] = set()
    for g in gens:
        out |= {op(o, g) for o in out}
        out.add(g)
    return out


@dataclass(frozen=True)
class Carrier:
    """A finite ambient set of distinct string labels, kept sorted."""

    points: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.points:
            raise DomainError("a carrier needs at least one point")
        if len(set(self.points)) != len(self.points):
            raise DomainError("carrier labels must be pairwise distinct")
        if list(self.points) != sorted(self.points):
            raise DomainError("carrier labels must be sorted; use Carrier.of")

    @classmethod
    def of(cls, labels: Iterable[str]) -> "Carrier":
        return cls(tuple(sorted(labels)))

    @cached_property
    def _index(self) -> dict[str, int]:
        return {p: i for i, p in enumerate(self.points)}

    @cached_property
    def full_mask(self) -> int:
        return (1 << len(self.points)) - 1

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self) -> Iterator[str]:
        return iter(self.points)

    def __contains__(self, label: object) -> bool:
        return label in self._index

    def mask_of(self, labels: Iterable[str]) -> int:
        """Encode a collection of labels as a bitmask, rejecting strays."""
        mask = 0
        for label in labels:
            i = self._index.get(label)
            if i is None:
                raise DomainError(f"{label!r} is not a point of the carrier")
            mask |= 1 << i
        return mask

    def labels_of(self, mask: int) -> frozenset[str]:
        return frozenset(self.tuple_of(mask))

    def tuple_of(self, mask: int) -> tuple[str, ...]:
        """The labels of a mask in carrier order, so sorted; one step per set
        bit.  Bits past the carrier are ignored."""
        points, out, mask = self.points, [], mask & self.full_mask
        while mask:
            low = mask & -mask
            out.append(points[low.bit_length() - 1])
            mask ^= low
        return tuple(out)


@dataclass(frozen=True)
class SetFamily:
    """A named, nonempty collection of subsets of a common carrier.

    Duplicate subsets are permitted; ``normalize`` drops them (first name
    wins) and sorts the members, so normalized families compare structurally.
    """

    carrier: Carrier
    members: tuple[tuple[str, frozenset[str]], ...]

    def __post_init__(self) -> None:
        if not self.members:
            raise DomainError("a set family must have at least one member")
        for _, subset in self.members:
            self.carrier.mask_of(subset)

    @classmethod
    def of(
        cls,
        carrier: Carrier | Iterable[str],
        subsets: Iterable[Iterable[str]],
        names: Sequence[str] | None = None,
    ) -> "SetFamily":
        """Build a family with auto-generated names F0, F1, ..."""
        if not isinstance(carrier, Carrier):
            carrier = Carrier.of(carrier)
        frozen = [frozenset(s) for s in subsets]
        if names is None:
            names = [f"F{i}" for i in range(len(frozen))]
        if len(names) != len(frozen):
            raise DomainError("one name per member is required")
        return cls(carrier, tuple(zip(names, frozen)))

    @cached_property
    def masks(self) -> tuple[int, ...]:
        return tuple(self.carrier.mask_of(s) for _, s in self.members)

    @cached_property
    def _point_atoms(self) -> tuple[int, ...]:
        """Per point, the mask of its atom: the points with its membership
        signature, which no member separates from it."""
        full = self.carrier.full_mask
        out = []
        for i in range(len(self.carrier)):
            keep = full
            for m in self.masks:
                keep &= m if (m >> i) & 1 else ~m
            out.append(keep)
        return tuple(out)

    def subsets(self) -> tuple[frozenset[str], ...]:
        return tuple(s for _, s in self.members)

    def normalize(self) -> "SetFamily":
        """Deduplicate subsets (first name wins) and sort by member content."""
        first_name: dict[frozenset[str], str] = {}
        for name, subset in self.members:
            first_name.setdefault(subset, name)
        ordered = sorted(first_name, key=lambda s: tuple(sorted(s)))
        return SetFamily(self.carrier, tuple((first_name[s], s) for s in ordered))

    def to_json(self) -> dict:
        return {
            "carrier": list(self.carrier.points),
            "members": [{"name": n, "set": sorted(s)} for n, s in self.members],
        }

    @classmethod
    def from_json(cls, doc: dict, at: str = "") -> "SetFamily":
        """Construction from a JSON document; labels and names are strings, never
        read from a string's characters.  A missing key or a field of another
        JSON type raises a DomainError naming its path, prefixed by ``at``."""
        try:
            labels = _json_key(doc, "carrier", list, at, str)
            members = []
            for i, m in enumerate(_json_key(doc, "members", list, at)):
                path = f"{at}members[{i}]"
                _json_field(m, dict, path)
                name = _json_key(m, "name", str, path + ".")
                members.append((name, frozenset(_json_key(m, "set", list, path + ".", str))))
        except (KeyError, TypeError) as exc:
            raise _MalformedDocument(f"malformed family document: {exc}") from exc
        return cls(Carrier.of(labels), tuple(members))


@dataclass(frozen=True)
class PrincipalUltrafilter:
    """The ultrafilter on ``base`` of all subsets containing ``point``."""

    base: frozenset[str]
    point: str

    def __post_init__(self) -> None:
        if not self.base:
            raise DomainError("an ultrafilter needs a nonempty base set")
        if self.point not in self.base:
            raise DomainError(
                f"generating point {self.point!r} does not belong to the base set"
            )

    @classmethod
    def at(cls, point: str, base: Iterable[str]) -> "PrincipalUltrafilter":
        return cls(frozenset(base), point)

    def contains(self, subset: Iterable[str]) -> bool:
        """Ultrafilter membership; defined only for subsets of the base."""
        s = frozenset(subset)
        if not s <= self.base:
            raise DomainError("membership is defined only for subsets of the base")
        return self.point in s


def limit_set(family: SetFamily, ultra: PrincipalUltrafilter) -> frozenset[str]:
    """Carrier points that agree with the ultrafilter on every family member.

    A point x survives iff, for each member F, x lies in F exactly when the
    trace of F on the base belongs to the ultrafilter.  For a principal
    ultrafilter the trace test is just membership of the generating point,
    so the result is the generating point's atom, whatever the base.
    """
    carrier = family.carrier
    carrier.mask_of(ultra.base)  # rejects a base that leaves the carrier
    return carrier.labels_of(family._point_atoms[carrier._index[ultra.point]])


def is_stable(family: SetFamily, subset: Iterable[str]) -> bool:
    """Whether the subset absorbs the limit set of every ultrafilter on it.

    The empty set carries no ultrafilters and is vacuously stable.
    """
    y_mask = family.carrier.mask_of(subset)
    return _union_at(family._point_atoms, y_mask) == y_mask


def stable_closure(family: SetFamily, subset: Iterable[str]) -> frozenset[str]:
    """Union of the limit sets of all ultrafilters carried by the subset.

    This is the smallest stable superset, the operator is monotone and
    idempotent, and the empty set closes to itself.
    """
    y_mask = family.carrier.mask_of(subset)
    return family.carrier.labels_of(_union_at(family._point_atoms, y_mask))


@dataclass(frozen=True)
class BoolAlgebra:
    """The Boolean set algebra generated by a family, given by its atoms."""

    generators: SetFamily
    atoms: tuple[frozenset[str], ...]

    def __post_init__(self) -> None:
        carrier = self.generators.carrier
        seen = 0
        for atom in self.atoms:
            mask = carrier.mask_of(atom)
            if not mask:
                raise DomainError("atoms must be nonempty")
            if mask & seen:
                raise DomainError("atoms must be pairwise disjoint")
            seen |= mask
        if seen != carrier.full_mask:
            raise DomainError("atoms must partition the carrier")
        for name, subset in self.generators.members:
            if not self.contains_set(subset):
                raise DomainError(f"generator {name!r} is not a union of atoms")

    def atom_of(self, point: str) -> frozenset[str]:
        for atom in self.atoms:
            if point in atom:
                return atom
        raise DomainError(f"{point!r} is not a point of the carrier")

    @property
    def element_count(self) -> int:
        return 1 << len(self.atoms)

    def elements(self) -> Iterator[frozenset[str]]:
        """All unions of atoms, in binary counting order over the atom list.

        The count is exponential in the number of atoms; callers are expected
        to stay at desk scale.
        """
        for bits in range(self.element_count):
            union: frozenset[str] = frozenset()
            for i, atom in enumerate(self.atoms):
                if (bits >> i) & 1:
                    union |= atom
            yield union

    def contains_set(self, subset: Iterable[str]) -> bool:
        """Whether the subset is a union of atoms."""
        s = frozenset(subset)
        self.generators.carrier.mask_of(s)
        return all(atom <= s or not (atom & s) for atom in self.atoms)


def atoms(family: SetFamily) -> BoolAlgebra:
    """Partition the carrier by membership signature across the family.

    Two points share an atom iff no member separates them; every member is a
    union of atoms, and the unions of atoms are exactly the elements of the
    Boolean algebra generated by the family.
    """
    carrier = family.carrier
    blocks = sorted(carrier.tuple_of(mask) for mask in set(family._point_atoms))
    return BoolAlgebra(family, tuple(frozenset(b) for b in blocks))


class FamilyTransforms(NamedTuple):
    intersections: SetFamily
    unions: SetFamily
    complements: SetFamily


def family_transforms(family: SetFamily) -> FamilyTransforms:
    """Close a family under finite intersections, finite unions, complements.

    The three results are independent closures of the input (the complement
    closure is the family together with all member complements).  Members of
    the returned families are named by their content and normalized.
    """
    carrier = family.carrier
    full = carrier.full_mask

    def build(masks: Iterable[int]) -> SetFamily:
        subsets = sorted(carrier.tuple_of(m) for m in set(masks))
        return SetFamily(
            carrier, tuple((_set_label(s), frozenset(s)) for s in subsets)
        )

    inter = _join_closure(family.masks, operator.and_)
    union = _join_closure(family.masks, operator.or_)
    comp = set(family.masks) | {(~m) & full for m in family.masks}
    return FamilyTransforms(build(inter), build(union), build(comp))


def restrict_ultrafilter(
    ultra: PrincipalUltrafilter, base: Iterable[str]
) -> PrincipalUltrafilter:
    """Trace the ultrafilter onto one of its member sets."""
    t = frozenset(base)
    if not t <= ultra.base:
        raise DomainError("restriction target must be a subset of the base")
    if ultra.point not in t:
        raise DomainError("restriction target is not a member of the ultrafilter")
    return PrincipalUltrafilter(t, ultra.point)


def extend_ultrafilter(
    ultra: PrincipalUltrafilter, base: Iterable[str]
) -> PrincipalUltrafilter:
    """Push the ultrafilter forward onto a superset of its base."""
    z = frozenset(base)
    if not ultra.base <= z:
        raise DomainError("extension target must contain the base")
    return PrincipalUltrafilter(z, ultra.point)


# Most intersections (ANDs of two masks) the FIP witness search may compute
# before it gives up with a DomainError.  With k sets the worst case, where
# only the whole list has an empty intersection, costs 2**(k + 1) - 2 of
# them, so every list of up to 21 sets is decided.
MAX_FIP_MEETS = 1 << 22


@dataclass(frozen=True)
class FipResult(Generic[_T]):
    """Outcome of a finite intersection property check.

    Exactly one of ``intersection`` (success) and ``witness`` (failure) is
    set; the witness holds indices into the input list.
    """

    has_fip: bool
    intersection: _T | None = None
    witness: tuple[int, ...] | None = None


def _fip_search(masks: Sequence[int]) -> tuple[int, ...] | None:
    """The first smallest tuple of indices, in index order within each size,
    whose masks AND to 0; ``None`` when the AND of all of them is nonzero.

    The witness search behind ``fip_check`` and ``z_fip_check``.  For each
    size it walks the combinations depth first in lexicographic order,
    carrying the AND of each prefix down, so every node costs one AND.
    """
    if reduce(operator.and_, masks):
        return None
    k = len(masks)
    meets = k

    def first_empty(start: int, need: int, prefix: int) -> tuple[int, ...] | None:
        nonlocal meets
        for i in range(start, k - need + 1):
            meets += 1
            if meets > MAX_FIP_MEETS:
                raise DomainError(
                    f"the FIP witness search is capped at {MAX_FIP_MEETS} intersections"
                )
            meet = prefix & masks[i]
            if need == 1:
                if not meet:
                    return (i,)
            else:
                found = first_empty(i + 1, need - 1, meet)
                if found is not None:
                    return (i, *found)
        return None

    for size in range(1, k + 1):
        found = first_empty(0, size, -1)
        if found is not None:
            return found
    raise UltratopError("unreachable: empty total intersection without a witness")


def fip_check(sets: Sequence[Iterable[str]]) -> FipResult[frozenset[str]]:
    """Decide the finite intersection property for a list of finite sets.

    On success the total intersection is returned; it is nonempty because the
    whole list is itself a finite subfamily.  On failure the witness is the
    first minimal-cardinality subfamily with empty intersection, scanning
    subfamilies in index order within each size.  Each element is one bit of
    a mask over the union of the sets.
    """
    frozen = [frozenset(s) for s in sets]
    if not frozen:
        raise DomainError("fip_check needs a nonempty list of sets")
    bit = {x: 1 << i for i, x in enumerate(frozenset().union(*frozen))}
    witness = _fip_search([sum(map(bit.__getitem__, s)) for s in frozen])
    if witness is None:
        return FipResult(True, intersection=frozenset.intersection(*frozen))
    return FipResult(False, witness=witness)
