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
from functools import cached_property
from itertools import accumulate, repeat
from typing import Callable, Generic, Iterable, Iterator, NamedTuple, Sequence, TypeVar

_T = TypeVar("_T")


class UltratopError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(UltratopError):
    """An argument lies outside the domain of the requested operation."""


class InputError(DomainError):
    """Malformed input: a document of the wrong shape, invalid JSON, a bad flag
    or conflicting inputs.  The CLI reports it with exit code 1."""


_JSON_KINDS = {
    list: "a list", str: "a string", bool: "a boolean", int: "an integer", dict: "an object"
}


def _json_field(value: _T, kind: type, path: str, item: type | None = None) -> _T:
    """Pass a JSON document's field through if it has the given kind, and
    if it is a list whose entries all have the kind ``item`` when one is given.

    Otherwise raise an InputError naming the field or its first bad entry, so
    that a string is never read as a list and a boolean or a float never as
    an integer.  A list of exact items is checked in one pass.
    """
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise InputError(
            f"malformed input: {path} must be {_JSON_KINDS[kind]}, not {type(value).__name__}"
        )
    if item is not None and not set(map(type, value)) <= {item}:
        for i, v in enumerate(value):
            _json_field(v, item, f"{path}[{i}]")
    return value


def _json_key(doc: dict, key: str, kind: type, at: str = "", item: type | None = None):
    """The field ``key`` of a JSON object, checked as ``_json_field`` does.
    A document that is not an object, or a missing key, raises an InputError
    naming its path: ``at`` without its final dot, or ``at + key``."""
    if not isinstance(doc, dict):
        _json_field(doc, dict, at[:-1] or "the document")
    if key not in doc:
        raise InputError(f"malformed input: missing key {at}{key}")
    return _json_field(doc[key], kind, at + key, item)


def _union_at(masks: Sequence[int], selector: int) -> int:
    """Union of masks[i] over the set bits i of the selector; bits past the list are ignored."""
    out, selector = 0, selector & ((1 << len(masks)) - 1)
    while selector:
        out |= masks[(low := selector & -selector).bit_length() - 1]
        selector ^= low
    return out


def _meets_at_points(full: int, masks: Iterable[int]) -> list[int]:
    """Per point i of the carrier mask ``full``, the meet of the masks holding i (``full`` if
    none): one step per set bit of each mask.  Masks have no bit past the carrier."""
    out = [full] * full.bit_length()
    for m in masks:
        bits = m
        while bits:
            out[(low := bits & -bits).bit_length() - 1] &= m
            bits ^= low
    return out


def _spell(runs: Sequence[_T], masks: Sequence[int], empty: _T, high_first=False) -> list[_T]:
    """Per mask, the sum of ``runs[i]`` over its set bits i, lowest bit first (highest first
    with ``high_first``): the mask's labels joined, if each run is a label as a 1-tuple or a
    separator-prefixed string.  Masks have no bit past the runs, of which there is at least one.
    The runs go in the fewest chunks of at most min(11, bit length of the mask count) bits, all
    of w bits but the last, each read from a table of its sums built per call (theory notes §3)."""
    n, widest = len(runs), max(1, min(11, len(masks).bit_length()))
    w = -(-n // -(-n // widest))  # ceil(n / chunks), with chunks = ceil(n / widest)
    for s in range(0, n, w):
        table = [empty]
        for r in runs[s:s + w]:
            table += [r + t for t in table] if high_first else [t + r for t in table]
        index = map(operator.rshift, masks, repeat(s)) if s else masks
        if s + w < n:  # the highest chunk needs no mask
            index = map(operator.and_, index, repeat((1 << w) - 1))
        part = map(table.__getitem__, index)
        if s:
            part = map(operator.add, part, out) if high_first else map(operator.add, out, part)
        out = list(part)
    return out


# Most sets a join closure may build: n points have up to 2**n closed sets and k
# disjoint members 2**k - 1 unions, so the sweep stops once it passes this many.
MAX_CLOSED_SETS = 1 << 16


def _join_closure(gens: Iterable[_T], op: Callable[[_T, _T], _T],
                  bound: int | None = None) -> set[_T] | None:
    """Close the generators under an associative, commutative, idempotent op.

    After each distinct generator g the result holds every join of the generators
    seen so far: the old joins, their joins with g, and g itself.  That is one sweep
    of O(|result| * |gens|) joins, with no rescans.  Past ``bound`` sets it returns
    None; with no bound, past ``MAX_CLOSED_SETS`` it raises a DomainError.
    """
    out: set[_T] = set()
    for g in set(gens):
        out |= {op(o, g) for o in out}
        out.add(g)
        if len(out) > (MAX_CLOSED_SETS if bound is None else bound):
            if bound is None:
                raise DomainError(f"listing closed sets is capped at {MAX_CLOSED_SETS} sets")
            return None
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
    def _bits(self) -> dict[str, int]:
        return {p: 1 << i for i, p in enumerate(self.points)}

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
        """The bitmask of the labels (any iterable, a one-shot one too), naming the least
        stray: a label that is not a point, unhashable ones included."""
        mask, bits = 0, self._bits
        for label in labels:
            try:
                mask |= bits[label]
            except (KeyError, TypeError):  # not a point, or unhashable: re-read, the labels
                rest = [label, *labels]  # before it are points (an iterator gives the rest);
                # strays first, strings before the others, those by str
                least = min(rest, key=lambda x: (x in self.points, type(x) is not str, str(x)))
                raise DomainError(f"{least!r} is not a point of the carrier") from None
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
        self.masks  # encodes every member once, rejecting stray labels

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

    @classmethod
    def _of_masks(cls, carrier: Carrier, members: Iterable[tuple[str, frozenset[str]]],
                  masks: Iterable[int]) -> "SetFamily":
        """The family of these members with these masks, trusted to agree: nothing is read back."""
        family = cls.__new__(cls)
        family.__dict__.update(carrier=carrier, members=tuple(members), masks=tuple(masks))
        return family

    @cached_property
    def masks(self) -> tuple[int, ...]:
        return tuple(self.carrier.mask_of(s) for _, s in self.members)

    @cached_property
    def _point_atoms(self) -> tuple[int, ...]:
        """Per point, the mask of its atom: the points with its membership signature, the
        block holding it once each member has split every block into its inside and outside."""
        blocks = [full := self.carrier.full_mask]
        for m in self.masks:
            blocks = [part for b in blocks for part in (b & m, b & ~m) if part]
        return tuple(_meets_at_points(full, blocks))

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
        JSON type raises an InputError naming its path, prefixed by ``at``."""
        labels = _json_key(doc, "carrier", list, at, str)
        members = []
        for i, m in enumerate(_json_key(doc, "members", list, at)):
            path = f"{at}members[{i}]."
            members.append((_json_key(m, "name", str, path),
                            frozenset(_json_key(m, "set", list, path, str))))
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
        carrier = self.generators.carrier
        masks = list(map(carrier.mask_of, self.atoms))
        for bits in range(self.element_count):
            yield carrier.labels_of(_union_at(masks, bits))

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
    the returned families are named by their content and normalized.  Each family's
    masks are spelled in one ``_spell`` call and kept as its members' masks.
    Past ``MAX_CLOSED_SETS`` meets or unions it raises a DomainError instead.
    """
    carrier = family.carrier
    full, units = carrier.full_mask, [(p,) for p in carrier.points]

    def build(masks: set[int]) -> SetFamily:
        spelled = dict(zip(masks, _spell(units, list(masks), ())))
        masks = sorted(masks, key=spelled.__getitem__)  # by label tuple
        tuples = list(map(spelled.__getitem__, masks))
        names = map("{%s}".__mod__, map(",".join, tuples))
        return SetFamily._of_masks(carrier, zip(names, map(frozenset, tuples)), masks)

    inter, union = (_join_closure(family.masks, op, MAX_CLOSED_SETS)
                    for op in (operator.and_, operator.or_))
    if inter is None or union is None:
        raise DomainError(f"derived families are capped at {MAX_CLOSED_SETS} sets")
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


# Most steps the FIP witness search may take before it gives up with a
# DomainError.  A step tries one candidate: at most two ANDs of masks and one
# call.  A list of k sets never takes more than 2**(k + 1) - 2 steps, so every
# list of up to 21 sets is decided; the costly ones are those the suffix
# prune cannot cut (docs/theory_notes.md §6).
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
    carrying the AND of each prefix down.  A node stops at the first
    candidate i whose prefix meets ``suffix[i]``, the AND of ``masks[i:]``, as
    no pick from there on can reach 0 (theory notes §6).  Each candidate
    tested, the one that stops its node too, is a step against the cap.  A
    node's last candidate stops it or completes a witness, so it never runs out.
    """
    suffix = list(accumulate(reversed(masks), operator.and_))[::-1]
    if suffix[0]:
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
            if prefix & suffix[i]:
                return None
            meet = prefix & masks[i]
            if need == 1:
                if not meet:
                    return (i,)
            else:
                found = first_empty(i + 1, need - 1, meet)
                if found is not None:
                    return (i, *found)

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
