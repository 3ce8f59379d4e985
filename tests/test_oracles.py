"""Differential tests against the lattice and pairwise-fixpoint algorithms.

The library stores a space as its point closures and answers queries from
them, closes generator sets in one join sweep, reads limit sets from one
atom table, and finds covers by a transitive reduction on bitmasks.  The
functions below are the earlier algorithms those replaced: they build or
scan the whole closed-set lattice, rescan all pairs until nothing changes,
or test every triple of labels.  They are slow but follow the definitions,
so they serve as reference oracles on seeded random inputs.  The same holds
for the finite intersection property (every subfamily is tried, the
earlier witness search that meets the sets of each combination afresh, and
the depth-first search before the suffix prune, with its count of steps), for
the Spec(Z) intersection (the complement of the union of the complements),
for factoring (plain trial division), for primality (Miller-Rabin with all
13 bases, which ``is_prime`` tries only from 3 474 749 660 383 up), and for
the ring laws and ring homomorphisms, which the library checks at additive
generators only: here every triple of elements, and every pair, is tried.
Closed-set listings, which the library sorts in C as bit-reversed masks
and writes from tables of label runs, 6 points each, are compared with label
tuples sorted twice, with ``json.dumps`` and with the earlier sort by one
integer key per mask.
Closed sets read from documents, which the library accepts by one union
equality, are read here as before, set by set and pair by pair, and every
result and message is compared.
Subrings, which the library spans from generators, are closed here under
every pair until nothing changes, also in characteristics 8, 9, 27 and 32,
where a span takes more than one coset per generator.  The table, subring
and ideal checks, which the library runs as one loop testing a row per step,
are compared message for message with the element-wise loops below, which
named the fault once a whole-set check had failed.  So are the ring laws, which
the library compares as byte rows built by ``bytes.translate``, with the
earlier loop over tuple rows picked by ``itemgetter``.  Point closures, which
the library takes as a smallest closed set around each point in one pass
sorted by size, are compared with the meets of the closed sets around each
point, and ``validate``'s messages with those of the earlier check that the
closed sets are the unions of the meets.  Prime ideals, which the
library reads off the primitive idempotents, are found here by the prime
test on every pair of elements, run on every ideal of the pairwise-sum
lattice, and a prime's label by scanning the whole ring for a generator.
Partial orders, which the library stores and checks as down-set masks and
turns into label pairs only when asked, are checked here as before, by
walking every label pair, message for message.
The Boolean closures of a family, which the library names from masks spelled
once and keeps with those masks, are built here as before: label tuples
sorted, named by their sorted labels, and read back by ``SetFamily``.
Atoms, which the library splits off block by block, one member at a time, are
found here as before: by the signature loop over every point and member, and by
the meet per point over the members and their complements.  Subbasis closures and
minimal opens, which the library takes as one meet per point over the set bits of
each mask, are found here by transposing the relation.  Additive generators and subrings,
which the library grows with one orbit worklist, are grown here by the two
worklists it replaced.  Principal opens, the loci of the intermediate rings and
the two ultrafilter limits, which the library reads off one table of loci, are
found here as before, by one scan of the points per element.
Command lines, which the CLI reads in one walk over the options each verb's row
lists, are read here by the argparse parser it used before, on 20 000 generated
argvs.
"""

import argparse
import ast
import contextlib
import io
import json
import math
import operator
import random
import re
import sys
from collections import Counter
from functools import cache, reduce
from itertools import combinations
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from ultratop import (
    Carrier,
    DomainError,
    FiniteRing,
    FinSpace,
    FipResult,
    Ideal,
    InputError,
    Poset,
    PrincipalUltrafilter,
    RingEmbedding,
    RingHom,
    SetFamily,
    Subring,
    SpectralReport,
    ZConstructible,
    ZPoint,
    a_ultra,
    all_ideals,
    family_transforms,
    fip_check,
    from_subbasis,
    gf,
    intermediate_rings,
    is_continuous,
    is_prime,
    is_spectral,
    is_stable,
    limit_set,
    overring_family,
    prime_ideals,
    patch_topology,
    poset_to_space,
    prime_factors,
    principal_open_family,
    product,
    spec_space,
    stable_closure,
    subring_closure,
    ultra_topology,
    ultrafilter_prime,
    z_fip_check,
    zmod,
)
from ultratop import cli, core, specz
from ultratop.core import _join_closure, _json_field, _json_key, _meets_at_points
from ultratop.rings import _span, _spectrum
from conftest import random_family
from test_acceptance import ring_pool
from test_cli import VALID, call_main
from test_rings import f2_into_f16, f4_into_f16
from test_topology import random_poset
from test_workload_outputs import workloads


# --------------------------------------------------------------------------
# oracles


def fixpoint_closure(masks, op):
    """Rescan all pairs until no new element appears."""
    out = set(masks)
    while True:
        new = {op(a, b) for a in out for b in out} - out
        if not new:
            return frozenset(out)
        out |= new


def pairwise_validate(carrier, closed):
    """The closed-set axioms, checked pair by pair over the whole lattice."""
    if 0 not in closed:
        raise DomainError("the empty set must be closed")
    if carrier.full_mask not in closed:
        raise DomainError("the whole carrier must be closed")
    for a in sorted(closed):
        for b in sorted(closed):
            for m, word in ((a | b, "union"), (a & b, "intersection")):
                if m not in closed:
                    raise DomainError(f"closed sets are not closed under {word}")


def lattice_closure(space, mask):
    """Meet of every closed set containing the mask."""
    out = space.carrier.full_mask
    for c in space.closed_masks:
        if not mask & ~c:
            out &= c
    return out


def lattice_soberness(space):
    """Every irreducible closed set must have exactly one generic point."""
    closures = [lattice_closure(space, 1 << i) for i in range(len(space.carrier))]
    closed = sorted(space.closed_masks)
    for c in closed:
        if c == 0:
            continue
        proper = [d for d in closed if d != c and not d & ~c]
        if any(d1 | d2 == c for d1 in proper for d2 in proper):
            continue
        generics = [i for i, cl in enumerate(closures) if (c >> i) & 1 and cl == c]
        if len(generics) != 1:
            return False, space.carrier.tuple_of(c)
    return True, None


def lattice_compact_open_basis(space):
    """Close the minimal neighborhoods under intersection; every open must be
    the union of the basis sets inside it."""
    opens = space.open_masks
    basis = set()
    for i in range(len(space.carrier)):
        u = space.carrier.full_mask
        for o in opens:
            if (o >> i) & 1:
                u &= o
        basis.add(u)
    basis = fixpoint_closure(basis, operator.and_)
    if not basis <= opens:
        return False
    for o in opens:
        union = 0
        for b in basis:
            if not b & ~o:
                union |= b
        if union != o:
            return False
    return True


def lattice_report(space):
    closures = {}
    t0_witness = None
    for i, p in enumerate(space.carrier.points):
        cl = lattice_closure(space, 1 << i)
        if cl in closures:
            t0_witness = (closures[cl], p)
            break
        closures[cl] = p
    sober, sober_witness = lattice_soberness(space)
    basis = lattice_compact_open_basis(space)
    return SpectralReport(
        compact=True,
        t0=t0_witness is None,
        t0_witness=t0_witness,
        sober=sober,
        sober_witness=sober_witness,
        compact_open_basis=basis,
        spectral=t0_witness is None and sober and basis,
    )


def lattice_space_from_subbasis(carrier, masks):
    """Finite meets of the subbasis, then all unions of those."""
    full = carrier.full_mask
    basis = fixpoint_closure(set(masks) | {full}, operator.and_)
    opens = fixpoint_closure(basis | {0}, operator.or_)
    return FinSpace(carrier, frozenset((~o) & full for o in opens))


def space_of_closures(carrier, closures):
    """The space whose closed sets are the unions of the given point closures,
    all of them enumerated at construction."""
    return FinSpace(carrier, fixpoint_closure({0, *closures}, operator.or_))


def bounded_unions(masks, bound=None):
    """The unions of the distinct masks, the empty one included, one mask at a
    time; None past ``bound`` of them, and with no bound a DomainError past
    ``core.MAX_CLOSED_SETS`` of them."""
    out = {0}
    for m in set(masks):
        out |= {o | m for o in out}
        if len(out) > (core.MAX_CLOSED_SETS if bound is None else bound):
            if bound is None:
                raise DomainError(f"listing closed sets is capped at {core.MAX_CLOSED_SETS} sets")
            return None
    return out


# byte b with its bits in reverse order
REVERSED_BYTES = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def listing_key(carrier):
    """The listing's earlier sort key of masks, by size, then sorted labels:
    of two sets of one size the one with the larger bit-reversed mask comes
    first, reversed byte by byte.  Bits past the carrier are ignored."""
    full, size = carrier.full_mask, (len(carrier) + 7) // 8
    return lambda m: ((m & full).bit_count() << 8 * size) - int.from_bytes(
        (m & full).to_bytes(size, "little").translate(REVERSED_BYTES), "big")


def signature_atoms(family):
    """Per point, its atom as the signature loop read it: every member, or its
    complement where the point is outside it, met in turn."""
    full = family.carrier.full_mask
    out = []
    for i in range(len(family.carrier)):
        keep = full
        for m in family.masks:
            keep &= m if (m >> i) & 1 else ~m
        out.append(keep)
    return tuple(out)


def meet_atoms(family):
    """Per point, its atom as the shared meet read it: the meet of the members and member
    complements holding the point."""
    full = family.carrier.full_mask
    return tuple(_meets_at_points(full, [*family.masks, *(full & ~m for m in family.masks)]))


def transpose(masks):
    """The converse relation: bit j of the i-th result is bit i of masks[j]."""
    return tuple(
        sum(1 << j for j, m in enumerate(masks) if (m >> i) & 1)
        for i in range(len(masks))
    )


def random_preorder(rng, n):
    """The down-sets of the reflexive-transitive closure of random pairs; a cycle
    gives its points one closure, so the space is often not T0."""
    downs = [1 << i for i in range(n)]
    for _ in range(rng.randint(0, 2 * n)):
        downs[rng.randrange(n)] |= 1 << rng.randrange(n)
    for k in range(n):  # Warshall
        for i in range(n):
            if (downs[i] >> k) & 1:
                downs[i] |= downs[k]
    return downs


def meets_at_points(carrier, masks):
    """For each point, the meet of the masks that hold it (the carrier if none)."""
    out = [carrier.full_mask] * len(carrier)
    for m in masks:
        for i in range(len(out)):
            if (m >> i) & 1:
                out[i] &= m
    return out


def looped_space(carrier, masks):
    """Closed-set masks read as the library read them before it checked union
    equality: the closed sets met one by one around each point, then the fold
    of the closed sets around each point whose meet is missing, then every
    union of a closed set with a point closure."""
    full = carrier.full_mask
    if any(m & ~full for m in masks):
        raise DomainError("closed set reaches outside the carrier")
    closures = meets_at_points(carrier, masks)

    def not_closed(word, a, b):
        return DomainError(f"closed sets are not closed under {word}: "
                           f"{sorted(carrier.labels_of(a))} and {sorted(carrier.labels_of(b))}")

    if 0 not in masks:
        raise DomainError("the empty set must be closed")
    if full not in masks:
        raise DomainError("the whole carrier must be closed")
    ordered = sorted(masks)
    for i, cl in enumerate(closures):
        if cl in masks:
            continue
        acc = full
        for c in ordered:
            if (c >> i) & 1:
                if acc & c not in masks:
                    raise not_closed("intersection", acc, c)
                acc &= c
    for c in ordered:
        for cl in closures:
            if c | cl not in masks:
                raise not_closed("union", c, cl)
    return closures


def looped_from_closed(carrier, closed):
    """``FinSpace.from_closed`` as it was: each set encoded label by label,
    then ``looped_space``; returns the space and its closed-set masks."""
    if not isinstance(carrier, Carrier):
        carrier = Carrier.of(carrier)
    masks = frozenset(carrier.mask_of(s) for s in closed)
    return FinSpace._of_closures(carrier, looped_space(carrier, masks)), masks


def looped_from_json(doc):
    """``FinSpace.from_json`` as it was: every entry type-checked one by one."""
    carrier = _json_key(doc, "carrier", list, item=str)
    closed = _json_key(doc, "closed", list)
    for i, c in enumerate(closed):
        _json_field(c, list, f"closed[{i}]", str)
    return looped_from_closed(carrier, [frozenset(c) for c in closed])


def meet_checked_space(carrier, masks):
    """Closed-set masks read as the library read them before it took a smallest
    member around each point: the meets around each point, accepted when the masks
    are exactly their unions, and otherwise the fault named by ``looped_space``."""
    if any(m & ~carrier.full_mask for m in masks):
        raise DomainError("closed set reaches outside the carrier")
    closures = meets_at_points(carrier, masks)
    if fixpoint_closure({0, *closures}, operator.or_) == masks:
        return closures
    return looped_space(carrier, masks)  # names the fault


def label_triple_covers(points, relation):
    """(lower, upper) pairs of the relation with no third point between."""
    out = []
    for x, y in relation:
        if x == y:
            continue
        if any(
            z != x and z != y and (x, z) in relation and (z, y) in relation
            for z in points
        ):
            continue
        out.append((x, y))
    return tuple(sorted(out))


def pair_walked_order(carrier, relation):
    """``Poset(carrier, relation)`` as it was, when a poset stored its label
    pairs: the pairs are walked for strays, the least of which is named (pairs
    sorted as lists of labels, strings before other labels, the others by
    ``str``), then into down-set masks, which the loop below checks; returns
    the relation."""
    idx = carrier._index
    stray = sorted(
        ([(not isinstance(q, str), str(q)) for q in pair], pair)
        for pair in relation if pair[0] not in idx or pair[1] not in idx
    )
    if stray:
        x, y = stray[0][1]
        raise DomainError(f"relation pair ({x!r}, {y!r}) leaves the carrier")
    downs = [0] * len(carrier)
    for x, y in relation:
        downs[idx[y]] |= 1 << idx[x]
    points = carrier.points
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
                raise DomainError(
                    "relation is not transitive: "
                    f"{points[k]!r} <= {points[j]!r} <= {points[i]!r}"
                )
    return frozenset(relation)


def pair_walked_from_pairs(labels, pairs):
    """``Poset.from_pairs`` as it was: Warshall on masks, every label pair of
    the closure listed, then ``pair_walked_order``."""
    carrier = Carrier.of(labels)
    n = len(carrier)
    downs = [1 << i for i in range(n)]
    for x, y in pairs:
        downs[carrier.mask_of((y,)).bit_length() - 1] |= carrier.mask_of((x,))
    for k in range(n):
        for i in range(n):
            if (downs[i] >> k) & 1:
                downs[i] |= downs[k]
    p = carrier.points
    rel = {(p[j], p[i]) for i, d in enumerate(downs) for j in range(n) if (d >> j) & 1}
    return pair_walked_order(carrier, frozenset(rel))


def lattice_patch(space):
    masks = space.open_masks | space.closed_masks
    return lattice_space_from_subbasis(space.carrier, masks)


def lattice_is_continuous(mapping, dom, cod):
    """Preimages of closed sets are closed."""
    images = [cod.carrier._index[mapping[x]] for x in dom.carrier.points]
    for c in cod.closed_masks:
        pre = sum(1 << i for i, yi in enumerate(images) if (c >> yi) & 1)
        if pre not in dom.closed_masks:
            return False
    return True


def signature_class(family, point, base_mask):
    """Points agreeing with the ultrafilter at ``point`` on ``base_mask``
    about every member of the family."""
    keep = family.carrier.full_mask
    for m in family.masks:
        if ((m & base_mask) >> point) & 1:
            keep &= m
        else:
            keep &= ~m
    return keep & family.carrier.full_mask


def pairwise_ideal_sets(ring):
    """Principal ideals, then pairwise sums until nothing new appears."""
    principal = {
        frozenset(ring.mul[r][x] for r in range(ring.size)) for x in range(ring.size)
    }
    found = fixpoint_closure(
        principal, lambda a, b: frozenset(ring.add[i][j] for i in a for j in b)
    )
    return tuple(sorted(found, key=lambda s: (len(s), sorted(s))))


def pairwise_prime_sets(ring):
    """The proper ideals that pass the prime test on all n^2 pairs, each
    checked to be maximal against the whole ideal lattice."""
    n, whole, ideals = ring.size, frozenset(range(ring.size)), pairwise_ideal_sets(ring)
    primes = [
        m for m in ideals
        if m != whole and all(ring.mul[a][b] not in m or a in m or b in m
                              for a in range(n) for b in range(n))
    ]
    assert not any(p < other < whole for p in primes for other in ideals), "a prime is not maximal"
    return tuple(primes)


def scanned_spectrum(ring):
    """(label, members) per prime, labeled by the first element of the whole
    ring whose principal ideal is the prime, else by the member list."""
    pairs = []
    for members in pairwise_prime_sets(ring):
        x = next((x for x in range(ring.size)
                  if frozenset(ring.mul[r][x] for r in range(ring.size)) == members), None)
        label = ("{" + ",".join(ring.elements[i] for i in sorted(members)) + "}" if x is None
                 else f"({ring.elements[x]})")
        pairs.append((label, members))
    return tuple(sorted(pairs))


def fixpoint_subring_closure(ambient, seed):
    members = set(seed) | {ambient.zero, ambient.one}
    while True:
        new = {ambient.neg[a] for a in members}
        for a in members:
            for b in members:
                new.add(ambient.add[a][b])
                new.add(ambient.mul[a][b])
        if new <= members:
            return frozenset(members)
        members |= new


def worklist_additive_generators(ring):
    """Greedy additive generators, the reach of each grown by its own worklist of sums."""
    gens, reached = [], {ring.zero}
    for e in range(ring.size):
        if e not in reached:
            gens.append(e)
            todo = list(reached)
            while todo:
                todo = {ring.add[g][s] for g in gens for s in todo} - reached
                reached |= todo
    return tuple(gens)


def worklist_subring_closure(ambient, seed):
    """The seed's products, one included, found by their own worklist, then spanned."""
    seed = set(seed)
    monoid = todo = seed | {ambient.one}
    while todo:
        todo = {ambient.mul[m][g] for m in todo for g in seed} - monoid
        monoid |= todo
    return _span(ambient, frozenset({ambient.zero}), monoid, {})


def pairwise_intermediate_rings(emb):
    """One-element extensions of the image, then pairwise joins."""
    ambient = emb.target
    image = frozenset(emb.mapping)
    seeds = {fixpoint_subring_closure(ambient, image | {b}) for b in range(ambient.size)}
    seeds.add(fixpoint_subring_closure(ambient, image))
    found = fixpoint_closure(
        seeds, lambda a, b: fixpoint_subring_closure(ambient, a | b)
    )
    return tuple(sorted(found, key=lambda s: (len(s), sorted(s))))


def scanned_principal_opens(ring):
    """D_x per element x, one scan of the spectrum per element."""
    space, spectrum = spec_space(ring), _spectrum(ring)
    return SetFamily(space.carrier, tuple(
        (f"D_{ring.elements[x]}", frozenset(label for label, mem in spectrum if x not in mem))
        for x in range(ring.size)))


def scanned_ultrafilter_prime(ring, ultra):
    """The x whose vanishing locus, one scan of the spectrum, is large on the base."""
    spectrum = _spectrum(ring)
    if not ultra.base <= {label for label, _ in spectrum}:
        raise DomainError("ultrafilter base must consist of spectrum points")
    return Ideal(ring, frozenset(
        x for x in range(ring.size)
        if ultra.contains(frozenset(label for label, mem in spectrum if x in mem) & ultra.base)))


def scanned_overring_family(emb):
    """U_x per target element x, one scan of the intermediate rings per element."""
    rings = intermediate_rings(emb)
    labels = [r.label() for r in rings]
    members = tuple(
        (
            f"U_{emb.target.elements[x]}",
            frozenset(lab for lab, r in zip(labels, rings) if x in r.members),
        )
        for x in range(emb.target.size)
    )
    return SetFamily(Carrier.of(labels), members)


def scanned_a_ultra(emb, ultra):
    """The x held by ultrafilter-many rings, one scan of the rings per element."""
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
    return Subring(emb.target, members)


RING_LAWS = {
    "addition is not associative":
        lambda add, mul, i, j, k: add[add[i][j]][k] == add[i][add[j][k]],
    "multiplication is not associative":
        lambda add, mul, i, j, k: mul[mul[i][j]][k] == mul[i][mul[j][k]],
    "distributivity fails":
        lambda add, mul, i, j, k: mul[i][add[j][k]] == add[mul[i][j]][mul[i][k]],
}


def triple_scan_law_failure(add, mul):
    """The first triple (i, j, k) that breaks associativity or
    distributivity, with the law it breaks, or None."""
    n = len(add)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for law, holds in RING_LAWS.items():
                    if not holds(add, mul, i, j, k):
                        return law, (i, j, k)
    return None


def tuple_row_law_failure(add, mul, gens):
    """The ring laws at the additive generators as the library checked them before
    it compared byte rows: per generator g and element x, rows as tuples picked by
    ``itemgetter``, associativity of + and of *, then distributivity; the first
    failing law is named at the first z where its two rows differ."""
    n = len(add)
    for g in gens:
        plus_g, times_g = operator.itemgetter(*add[g]), operator.itemgetter(*mul[g])
        for x in range(n):
            ax, mx = add[x], mul[x]
            for law, lhs, rhs in (
                ("addition is not associative", add[ax[g]], plus_g(ax)),
                ("multiplication is not associative", mul[mx[g]], times_g(mx)),
                ("distributivity fails", plus_g(mx), operator.itemgetter(*mx)(add[mx[g]])),
            ):
                if lhs != rhs:
                    z = next(z for z in range(n) if lhs[z] != rhs[z])
                    raise DomainError(f"{law} at ({x}, {g}, {z})")


HOM_LAWS = {
    "addition": lambda src, tgt, f, i, j: f[src.add[i][j]] == tgt.add[f[i]][f[j]],
    "multiplication": lambda src, tgt, f, i, j: f[src.mul[i][j]] == tgt.mul[f[i]][f[j]],
}


def pair_scan_hom_failure(src, tgt, f):
    """The first pair (i, j) whose sum or product the map f does not
    preserve, with the operation, or None."""
    for i in range(src.size):
        for j in range(src.size):
            for word, holds in HOM_LAWS.items():
                if not holds(src, tgt, f, i, j):
                    return word, (i, j)
    return None


def elementwise_table_check(add, mul):
    """The range and commutativity checks of a ring's tables, entry by entry: the
    naming loops the library ran once a check of the whole table had failed."""
    n = len(add)
    for table, word in ((add, "addition"), (mul, "multiplication")):
        for row in table:
            for v in row:
                if not 0 <= v < n:
                    raise DomainError(f"{word} table entry {v} is out of range")
    for i in range(n):
        for j in range(i, n):
            if add[i][j] != add[j][i]:
                raise DomainError(f"addition is not commutative at ({i}, {j})")
            if mul[i][j] != mul[j][i]:
                raise DomainError(f"multiplication is not commutative at ({i}, {j})")


def elementwise_subring_check(r, members):
    """Subring membership, one member and one pair at a time, once the least
    member out of range, if any, is named: the naming loop the library ran once
    a check of all the negatives, sums and products had failed."""
    for need, word in ((r.zero, "zero"), (r.one, "one")):
        if need not in members:
            raise DomainError(f"a subring must contain {word}")
    for a in sorted(members):
        if not 0 <= a < r.size:
            raise DomainError(f"subring member {a} is out of range")
    for a in members:
        if r.neg[a] not in members:
            raise DomainError(f"subring is not closed under negation at {r.elements[a]!r}")
        for b in members:
            for table, word in ((r.add, "addition"), (r.mul, "multiplication")):
                if table[a][b] not in members:
                    raise DomainError(
                        f"subring is not closed under {word} at "
                        f"({r.elements[a]!r}, {r.elements[b]!r})"
                    )


def elementwise_ideal_check(r, members):
    """Ideal membership, one member and one pair at a time, once the least
    member out of range, if any, is named: the naming loop the library ran once
    a check of all the sums and products had failed."""
    if r.zero not in members:
        raise DomainError("an ideal must contain zero")
    for a in sorted(members):
        if not 0 <= a < r.size:
            raise DomainError(f"ideal member {a} is out of range")
    for a in members:
        for b in members:
            if r.add[a][b] not in members:
                raise DomainError(
                    f"ideal is not closed under addition at "
                    f"({r.elements[a]!r}, {r.elements[b]!r})"
                )
        for x in range(r.size):
            if r.mul[x][a] not in members:
                raise DomainError(
                    f"ideal does not absorb multiplication at "
                    f"({r.elements[x]!r}, {r.elements[a]!r})"
                )


def raised(call, *args):
    """The type and message of what the call raises, or None."""
    try:
        call(*args)
    except Exception as e:  # noqa: BLE001 - any exception is compared
        return type(e), str(e)
    return None


# --------------------------------------------------------------------------
# inputs


def random_closed_collection(rng, max_points=7):
    """Closed-set candidates on up to 7 points, most of them not a topology:
    random masks, or a topology with one set added or dropped."""
    if rng.random() < 0.4:
        family = random_family(rng, max_points, 4)
        carrier = family.carrier
        closed = set(lattice_space_from_subbasis(carrier, family.masks).closed_masks)
        move = rng.random()
        if move < 0.4:
            closed.add(rng.randrange(carrier.full_mask + 1))
        elif move < 0.8:
            closed.discard(rng.choice(sorted(closed)))
    else:
        n = rng.randint(1, max_points)
        carrier = Carrier.of(f"x{i}" for i in range(n))
        full = carrier.full_mask
        closed = {rng.randrange(full + 1) for _ in range(rng.randint(0, 2 * n))}
        if rng.random() < 0.8:
            closed.add(0)
        if rng.random() < 0.8:
            closed.add(full)
    return carrier, frozenset(closed)


ZERO_RING = FiniteRing(("0",), ((0,),), ((0,),), 0, 0)


def permuted(ring, rng):
    """The same ring, labels included, with its elements in a random order."""
    n = ring.size
    new = rng.sample(range(n), n)  # new[i] is the new index of element i
    old = sorted(range(n), key=new.__getitem__)

    def table(t):
        return tuple(tuple(new[t[old[a]][old[b]]] for b in range(n)) for a in range(n))

    return FiniteRing(tuple(ring.elements[i] for i in old), table(ring.add), table(ring.mul),
                      new[ring.zero], new[ring.one], name=ring.name)


def corrupted_tables(rng, ring, count, add_share):
    """The ring's tables with ``count`` symmetric entries overwritten, off the
    rows of zero (in +) and of one (in *), and with a zero left in every row
    of +: commutativity, the identities and the inverses still hold, so only
    associativity and distributivity can fail."""
    while True:
        add, mul = [list(row) for row in ring.add], [list(row) for row in ring.mul]
        for _ in range(count):
            table, unit = (add, ring.zero) if rng.random() < add_share else (mul, ring.one)
            i, j = rng.choices([x for x in range(ring.size) if x != unit], k=2)
            table[i][j] = table[j][i] = rng.randrange(ring.size)
        if all(ring.zero in row for row in add):
            return tuple(map(tuple, add)), tuple(map(tuple, mul))


def random_algebra(rng, p, k):
    """Tables on the (Z/p)^k codes sum d_i p^i, with the first basis vector as
    one and random products of the others, extended bilinearly: commutative,
    unital and distributive, but associative only by chance."""
    n = p**k
    digits = [[x // p**i % p for i in range(k)] for x in range(n)]

    def code(ds):
        return sum(d % p * p**i for i, d in enumerate(ds))

    basis_mul = {}
    for i in range(k):
        for j in range(i, k):
            basis_mul[i, j] = basis_mul[j, i] = (
                digits[p**j] if i == 0 else digits[rng.randrange(n)]
            )
    add = tuple(tuple(code(map(sum, zip(a, b))) for b in digits) for a in digits)
    mul = tuple(
        tuple(
            code(sum(a[i] * b[j] * c[t] for (i, j), c in basis_mul.items()) for t in range(k))
            for b in digits
        )
        for a in digits
    )
    return add, mul


def linear_map(rng, src, tgt, p):
    """A random additive map between two tables of random_algebra over Z/p
    that sends one (code 1) to one: only multiplication can fail."""
    k = round(math.log(src.size, p))
    images = [1] + [rng.randrange(tgt.size) for _ in range(1, k)]
    f = []
    for x in range(src.size):
        y = tgt.zero
        for i in range(k):
            for _ in range(x // p**i % p):
                y = tgt.add[y][images[i]]
        f.append(y)
    return tuple(f)


def random_space(rng, max_points=7):
    return from_subbasis(random_family(rng, max_points, 4))


MESSAGE = re.compile(r"closed sets are not closed under (union|intersection): (.*) and (.*)")


# --------------------------------------------------------------------------
# tests


def test_validate_agrees_with_the_pairwise_axioms():
    rng = random.Random(2024)
    verdicts = {True: 0, False: 0}
    for _ in range(1500):
        carrier, closed = random_closed_collection(rng)
        try:
            pairwise_validate(carrier, closed)
            expected = None
        except DomainError as exc:
            expected = type(exc)
        space = FinSpace(carrier, closed)
        try:
            space.validate()
            got = None
        except DomainError as exc:
            got = type(exc)
            named = MESSAGE.fullmatch(str(exc))
            if named:
                # the two named sets are closed, and their join or meet is not
                word, a, b = named.groups()
                a, b = (carrier.mask_of(ast.literal_eval(s)) for s in (a, b))
                assert a in closed and b in closed
                assert (a | b if word == "union" else a & b) not in closed
        assert got == expected
        verdicts[got is None] += 1
    assert verdicts[True] >= 100
    assert verdicts[False] > verdicts[True]


def test_spaces_from_subbases_match_the_lattice_algorithms():
    rng = random.Random(2025)
    for _ in range(150):
        family = random_family(rng, 7, 4)
        space = from_subbasis(family)
        assert space == lattice_space_from_subbasis(family.carrier, family.masks)
        assert is_spectral(space) == lattice_report(space)
        assert patch_topology(space) == lattice_patch(space)
        assert space.point_closures == tuple(
            lattice_closure(space, 1 << i) for i in range(len(space.carrier))
        )
        assert space.point_closures == transpose(meets_at_points(family.carrier, family.masks))


def test_point_atoms_and_minimal_opens_match_the_loops():
    rng = random.Random(2046)
    seen = Counter()
    for _ in range(800):
        n = rng.randint(1, 12)
        carrier = Carrier.of(f"x{i:02d}" for i in range(n))
        full = carrier.full_mask
        pool = [0, full, *(rng.randrange(full + 1) for _ in range(rng.randint(1, 5)))]
        masks = [rng.choice(pool) for _ in range(rng.randint(1, 7))]
        family = SetFamily.of(carrier, map(carrier.labels_of, masks))
        assert family._point_atoms == signature_atoms(family) == meet_atoms(family)
        preorder = FinSpace._of_closures(carrier, random_preorder(rng, n))
        for space in (preorder, from_subbasis(family), ultra_topology(family)):
            assert space._minimal_opens == transpose(space.point_closures)
        seen.update(empty=0 in masks, full=full in masks, repeated=len(set(masks)) < len(masks),
                    not_t0=preorder.t0_violation() is not None, points=n)
    assert min(seen[k] for k in ("empty", "full", "repeated", "not_t0")) >= 200, seen


def test_join_closure_matches_the_bounded_unions(monkeypatch):
    rng = random.Random(2025)
    repeated = 0
    for _ in range(400):
        n = rng.randint(1, 9)
        full = (1 << n) - 1
        masks = [rng.randint(0, full) for _ in range(rng.randint(0, 9))]
        masks += rng.choices(masks, k=rng.randint(0, 3)) if masks else []
        repeated += len(set(masks)) < len(masks)
        unions = bounded_unions(masks)
        # the meets are the complements of the unions of the complements
        meets = {full & ~u for u in bounded_unions(full & ~m for m in masks)}
        for op, gens, expect in ((operator.or_, {0, *masks}, unions),
                                 (operator.and_, {full, *masks}, meets)):
            assert _join_closure(gens, op) == expect
            assert _join_closure(gens, op, len(expect)) == expect
            assert _join_closure(gens, op, len(expect) - 1) is None
        assert _join_closure(masks, operator.or_) == unions - {0} | {0} & set(masks)
    assert repeated >= 100, repeated
    monkeypatch.setattr(core, "MAX_CLOSED_SETS", 16)
    capped = 0
    for _ in range(100):
        masks = [1 << rng.randrange(8) | 1 << rng.randrange(8) for _ in range(rng.randint(0, 7))]
        got = raised(_join_closure, {0, *masks}, operator.or_)
        assert got == raised(bounded_unions, masks)
        capped += got is not None
    assert 20 <= capped <= 80, capped


def test_closed_sets_match_the_enumerated_unions():
    rng = random.Random(2034)
    for _ in range(150):
        family = random_family(rng, 8, 4)
        subbasis = from_subbasis(family)
        poset = random_poset(rng, 8)
        for space in (
            subbasis, ultra_topology(family), patch_topology(subbasis), poset_to_space(poset)
        ):
            oracle = space_of_closures(space.carrier, space.point_closures)
            assert space == oracle
            assert space.closed_masks == oracle.closed_masks
            assert space.closed_sets() == oracle.closed_sets()
            space.validate()
            for _ in range(8):
                labels = space.carrier.labels_of(rng.randrange(space.carrier.full_mask + 1))
                assert space.is_closed(labels) == (
                    space.carrier.mask_of(labels) in oracle.closed_masks
                )
                assert space.is_open(labels) == (
                    space.carrier.mask_of(labels) in oracle.open_masks
                )


def closed_tuples(space):
    """The closed sets as sorted label tuples, sorted by size then labels: the
    label tuples sorted, then sorted again, stably, by size."""
    out = sorted(map(space.carrier.tuple_of, space.closed_masks))
    out.sort(key=len)
    return out


def dumped(body):
    return json.dumps(body, indent=2, sort_keys=True) + "\n"


# Text order of the labels' JSON strings is not label order: "a" < "a!" and
# "z" < "é", but '"a!"' < '"a"' and '"\\u00e9"' < '"z"'.
PREFIX_LABELS = ["a", "a!", "a ", "é", "z"]
# The JSON separators '[', ',', ']', a newline and '"' catch a fix-up of the rendered text.
ODD_CHARS = ["a", "!", " ", "é", "z", '"', "\\", "\x00", "\x1f", "\x7f", "\u2028", "\ud800", "😀",
             "[", ",", "]", "\n"]


def odd_labels(rng, n):
    labels = set(rng.sample(PREFIX_LABELS, min(n, rng.randint(0, 5))))
    while len(labels) < n:
        labels.add("".join(rng.choices(ODD_CHARS, k=rng.randint(1, 4))))
    return sorted(labels)


def few_members(rng, labels):
    """A family of at most 3 members, so at most 8 atoms and 256 stable sets."""
    members = [[x for x in labels if rng.random() < p] for p in rng.choices((0.1, 0.5, 0.9), k=3)]
    return SetFamily.of(labels, members[: rng.randint(1, 3)])


def layered_poset(rng, labels):
    """Levels of at most 3 points, each level below the next: few down-sets."""
    order, levels = rng.sample(labels, len(labels)), []
    while order:
        levels.append(order[: rng.randint(1, 3)])
        order = order[len(levels[-1]):]
    pairs = [(x, y) for low, high in zip(levels, levels[1:]) for x in low for y in high]
    return Poset.from_pairs(labels, pairs)


def partition_family(labels, k):
    """k members splitting the labels into k nonempty blocks, so 2**k stable sets."""
    return SetFamily.of(labels, [labels[i::k] for i in range(k)])


def test_listings_match_the_sorted_label_tuples():
    rng = random.Random(2036)
    sizes = [1, 2, 3, 5, 6, 7, 9, 13, 21, 25, 31, 37, 63, 65, 67, 70] + [
        rng.randint(1, 70) for _ in range(27)]
    for n in sizes:
        labels = odd_labels(rng, n)
        family = few_members(rng, labels)
        subbasis = from_subbasis(few_members(rng, labels))
        cases = [
            (ultra_topology(family), "ultra-topology", family.to_json()),
            (patch_topology(subbasis), "patch", {"carrier": labels, "closed": closed_tuples(subbasis)}),
            (subbasis, None, None),
            (poset_to_space(layered_poset(rng, labels)), None, None),
        ]
        if n in (13, 21, 25, 37):  # 2**11 and 2**12 sets, chunks at the 11-point cap
            cases += [(ultra_topology(wide := partition_family(labels, k)), "ultra-topology",
                       wide.to_json()) for k in (11, 12)]
        for space, verb, doc in cases:
            expect = {"carrier": labels, "closed": list(map(list, closed_tuples(space)))}
            assert space.to_json() == expect
            assert space.closed_sets() == tuple(map(frozenset, expect["closed"]))
            if doc is not None:
                assert call_main([verb, "-"], doc) == (
                    0, dumped({"schema": "v1", "verb": verb, **expect}), ""
                )


def test_spectrum_listings_match_the_sorted_label_tuples():
    rng = random.Random(2037)
    for ring in [zmod(n) for n in (2, 6, 12, 30, 60)] + [product(zmod(6), zmod(10))] * 4:
        names = rng.sample(odd_labels(rng, ring.size), ring.size)
        ring = FiniteRing(tuple(names), ring.add, ring.mul, ring.zero, ring.one)
        code, out, err = call_main(["spec", "-"], ring.to_json())
        body = json.loads(out)
        assert body["closed"] == list(map(list, closed_tuples(spec_space(ring))))
        assert (code, out, err) == (0, dumped(body), "")


def space_document(rng, labels, masks):
    """A space document for the masks over the sorted labels: the carrier,
    the closed sets and the labels in each in random order, a label sometimes
    given twice."""
    carrier, closed = Carrier.of(labels), []
    for m in masks:
        entry = list(carrier.tuple_of(m))
        entry += rng.sample(entry, min(len(entry), rng.choice((0, 0, 0, 1))))
        closed.append(rng.sample(entry, len(entry)))
    return {"carrier": rng.sample(labels, len(labels)), "closed": rng.sample(closed, len(closed))}


def random_space_document(rng):
    """Closed sets on up to 10 points: the down-sets of a random partial order
    or the closed sets of a random subbasis (often not T0), as they are or
    with one set dropped or one mask added."""
    n = rng.randint(1, 10)
    labels = odd_labels(rng, n) if rng.random() < 0.3 else [f"x{i}" for i in range(n)]
    if rng.random() < 0.5:
        order = rng.sample(labels, n)
        pairs = [(x, y) for i, x in enumerate(order) for y in order[i + 1:] if rng.random() < 0.3]
        space = poset_to_space(Poset.from_pairs(labels, pairs))
    else:
        members = [[x for x in labels if rng.random() < 0.5] for _ in range(rng.randint(1, 4))]
        space = from_subbasis(SetFamily.of(labels, members))
    masks, move = set(space.closed_masks), rng.random()
    if move < 0.3:
        masks.discard(rng.choice(sorted(masks)))
    elif move < 0.6:
        masks.add(rng.randrange(space.carrier.full_mask + 1))
    return space_document(rng, labels, sorted(masks))


# wrong types, stray labels, a missing empty set or carrier, no closure under
# union or intersection, repeated carrier labels
CORRUPTED_SPACES = [
    {"carrier": ["a", "b"], "closed": [[], ["a"], ["a", "b"], ["c"]]},
    {"carrier": ["a", "b"], "closed": [[], ["a", "b"], ["z", "y", "a"]]},
    {"carrier": ["a"], "closed": [[], [["a"]]]},
    {"carrier": ["a"], "closed": [[], "a"]},
    {"carrier": ["a"], "closed": [[], ["a"], 1]},
    {"carrier": ["a"], "closed": [[], {"a": 1}]},
    {"carrier": ["a"], "closed": [[], ["a", 1]]},
    {"carrier": ["a"], "closed": [[], ["a"], None]},
    {"carrier": ["a", "a"], "closed": [[], ["a"]]},
    {"carrier": ["b", "a", "b"], "closed": [[], ["a", "b"]]},
    {"carrier": [], "closed": [[]]},
    {"carrier": ["a", 1], "closed": [[], ["a"]]},
    {"carrier": "ab", "closed": [[], ["a", "b"]]},
    {"carrier": ["a", "b"], "closed": "ab"},
    {"carrier": ["a", "b"], "closed": [["a"], ["a", "b"]]},
    {"carrier": ["a", "b"], "closed": [[], ["a"]]},
    {"carrier": ["a", "b"], "closed": []},
    {"carrier": ["a", "b", "c"], "closed": [[], ["a"], ["b"], ["a", "b", "c"]]},
    {"carrier": ["a", "b", "c"], "closed": [[], ["a", "b"], ["b", "c"], ["a", "b", "c"]]},
    {"carrier": ["a", "b", "c"], "closed": [[], ["a", "b"], ["a", "c"], ["a", "b", "c"]]},
    {"carrier": ["a"], "closed": [[], ["a"], ["a", "a"], []]},
    {"closed": [[]]},
    {"carrier": ["a"]},
    ["a"],
]


def outcome(read, *args):
    """(space, point closures, closed masks) as read, or the type and message
    of what reading raises."""
    try:
        space = read(*args)
    except Exception as e:  # noqa: BLE001 - any exception is compared
        return type(e), str(e)
    space, masks = space if isinstance(space, tuple) else (space, space.closed_masks)
    return space, space.point_closures, masks


def looped_cli(verb, doc):
    """What ``check-spectral`` or ``patch`` prints for a space document read
    by ``looped_from_json``."""
    try:
        space, _ = looped_from_json(doc)
    except InputError as e:
        return 1, "", f"error: {e}\n"
    except DomainError as e:
        return 2, "", f"domain error: {e}\n"
    if verb == "patch":
        patch = lattice_patch(space)
        body = {"carrier": list(patch.carrier.points), "closed": closed_tuples(patch)}
    else:
        body = {"carrier": list(space.carrier.points), "report": lattice_report(space).to_json()}
    return 0, dumped({"schema": "v1", "verb": verb, **body}), ""


def test_reading_matches_the_looped_checks():
    rng = random.Random(2042)
    docs = [space_document(rng, list("abc"), [m for m in range(8) if family >> m & 1])
            for family in range(256)]
    docs += [random_space_document(rng) for _ in range(400)] + CORRUPTED_SPACES
    verdicts = Counter()
    for doc in docs:
        expect = outcome(looped_from_json, doc)
        assert outcome(FinSpace.from_json, doc) == expect, doc
        verdicts[expect[0].__name__ if isinstance(expect[0], type) else "read"] += 1
        for verb in ("check-spectral", "patch"):
            assert call_main([verb, "-"], doc) == looped_cli(verb, doc), doc
        if not isinstance(doc, dict) or not isinstance(doc.get("closed"), list):
            continue
        carrier, closed = doc.get("carrier", ()), doc["closed"]
        assert outcome(FinSpace.from_closed, carrier, closed) == outcome(
            looped_from_closed, carrier, closed), doc
        if all(type(c) is list and set(map(type, c)) <= {str} for c in closed):
            sets = list(map(frozenset, closed))
            assert outcome(FinSpace.from_closed, carrier, sets) == outcome(
                looped_from_closed, carrier, sets), doc
    assert verdicts["read"] >= 150 and verdicts["DomainError"] >= 300, verdicts
    assert verdicts["InputError"] >= 10, verdicts


# {∅, {a,b}, {b,c}, {a,b,c}}: b lies in two members of least size, {a,b} and {b,c}, and
# with either taken the sets are the unions of the smallest members around the points,
# yet {b} = {a,b} ∩ {b,c} is missing
SIZE_TIE = (Carrier.of("abc"), frozenset({0b000, 0b011, 0b110, 0b111}))


def union_closed(rng, n):
    """∅, the carrier and all unions of a few random masks: closed under union,
    and under intersection only by chance."""
    carrier = Carrier.of(f"x{i}" for i in range(n))
    masks = {rng.randrange(1, carrier.full_mask + 1) for _ in range(rng.randint(1, 4))}
    return carrier, fixpoint_closure(masks | {0, carrier.full_mask}, operator.or_)


def test_size_tie_needs_the_subset_condition():
    carrier, masks = SIZE_TIE
    space = FinSpace(carrier, masks)
    assert fixpoint_closure({0, *space.point_closures}, operator.or_) == masks
    with pytest.raises(DomainError, match=re.escape(
            "not closed under intersection: ['a', 'b'] and ['b', 'c']")):
        space.validate()


def test_point_closures_and_validate_match_the_meets():
    rng = random.Random(2044)
    cases = [SIZE_TIE, *(random_closed_collection(rng, 8) for _ in range(1500)),
             *(union_closed(rng, rng.randint(2, 9)) for _ in range(600))]
    verdicts = Counter()
    for carrier, masks in cases:
        space = FinSpace(carrier, masks)
        want = raised(meet_checked_space, carrier, masks)
        assert raised(space.validate) == want, (carrier, masks)
        if want is None:
            assert space.point_closures == tuple(meets_at_points(carrier, masks))
        verdicts[want and want[1].split(":")[0]] += 1
    assert verdicts[None] >= 300, verdicts
    assert verdicts["closed sets are not closed under intersection"] >= 300, verdicts
    assert verdicts["closed sets are not closed under union"] >= 50, verdicts


# (run, empty) pairs a listing sums: label tuples, lists, and the CLI's separator-prefixed text
LISTING_RUNS = [(lambda p: (p,), ()), (lambda p: [p], []),
                (lambda p: ",\n      " + encode_basestring_ascii(p), "")]


def test_listing_matches_the_key_sorted_masks():
    rng = random.Random(2043)
    spaces = []
    for n in [*range(1, 25), 6, 7, 8, 9, 12, 13, 16, 17, 21, 25, 33, 37, 40, 64]:
        labels = odd_labels(rng, n) if n % 2 else [f"x{i:02d}" for i in range(n)]
        if n <= 24:  # past 24 points only partition topologies
            spaces += [poset_to_space(layered_poset(rng, labels)),
                       from_subbasis(few_members(rng, labels))]
        for k in (rng.randint(1, min(n, 10)), min(n, 10)):  # partition topologies, 2**k sets
            rng.shuffle(labels)
            spaces.append(ultra_topology(partition_family(labels, k)))
        if n <= 10:
            spaces.append(poset_to_space(random_poset(rng, n)))
    for n in (12, 21, 25, 37, 64):  # 2**11 and 2**12 sets, chunks at the 11-point cap
        labels = odd_labels(rng, n)
        spaces += [ultra_topology(partition_family(labels, k)) for k in (11, 12)]
    for space in spaces:
        ordered = sorted(space.closed_masks, key=listing_key(space.carrier))
        for run, empty in LISTING_RUNS:
            assert space._listing(run, empty) == [
                reduce(operator.add, map(run, space.carrier.tuple_of(m)), empty) for m in ordered
            ]


def test_covers_match_the_label_triple_scan():
    rng = random.Random(2035)
    for _ in range(200):
        poset = random_poset(rng, 9)
        assert poset.covers() == label_triple_covers(poset.carrier.points, poset.relation)


def corrupted_relation(rng, poset):
    """The poset's label pairs, as they are or with one fault: a pair leaving
    the carrier (sometimes two), a missing (x, x), a 2-cycle or a missing pair
    that transitivity needs."""
    rel, points = set(poset.relation), poset.carrier.points
    strict = sorted((x, y) for x, y in rel if x != y)
    chains = sorted((x, z) for x, y in strict for y2, z in strict if y == y2)
    kind = rng.choice(("stray", "reflexive", "cycle", "transitive", None))
    if kind == "stray":
        for _ in range(rng.randint(1, 2)):
            pair = [rng.choice(points), rng.choice(("q", "zz", "p9"))]
            rel.add(tuple(rng.sample(pair, 2)))
    elif kind == "reflexive":
        x = rng.choice(points)
        rel.discard((x, x))
    elif kind == "cycle" and strict:
        rel.add(rng.choice(strict)[::-1])
    elif kind == "transitive" and chains:
        rel.discard(rng.choice(chains))
    return frozenset(rel)


def test_poset_checks_match_the_pair_walk():
    rng = random.Random(2044)
    faults = ("leaves", "not reflexive", "not antisymmetric", "not transitive")
    verdicts = Counter()
    for _ in range(600):
        poset = random_poset(rng, 5)
        carrier, relation = poset.carrier, corrupted_relation(rng, poset)
        expect = raised(pair_walked_order, carrier, relation)
        assert raised(Poset, carrier, relation) == expect, relation
        if expect is None:
            assert Poset(carrier, relation).relation == relation
        verdicts[next((f for f in faults if expect and f in expect[1]), "ok")] += 1
    assert len(verdicts) == 5 and min(verdicts.values()) >= 40, verdicts
    for _ in range(200):  # pair lists with a cycle through two or more points
        labels = [f"p{i}" for i in range(rng.randint(2, 5))]
        cycle = rng.sample(labels, rng.randint(2, len(labels)))
        pairs = list(zip(cycle, cycle[1:] + cycle[:1]))
        pairs += [tuple(rng.sample(labels, 2)) for _ in range(rng.randint(0, 3))]
        rng.shuffle(pairs)
        expect = raised(pair_walked_from_pairs, labels, pairs)
        assert expect[0] is DomainError and "antisymmetric" in expect[1]
        assert raised(Poset.from_pairs, labels, pairs) == expect, pairs


def test_poset_queries_match_the_label_pairs():
    rng = random.Random(2045)
    for _ in range(300):
        poset = random_poset(rng, 5)
        points = poset.carrier.points
        relation = pair_walked_from_pairs(points, [p for p in poset.relation if rng.random() < 0.7])
        poset = Poset(poset.carrier, relation)
        assert poset == Poset.from_pairs(points, relation)
        for x in points:
            assert poset.down(x) == {w for w in points if (w, x) in relation}
            for y in points:
                assert poset.leq(x, y) == ((x, y) in relation)
            assert not poset.leq(x, "zz") and not poset.leq("zz", x)
        assert poset.covers() == label_triple_covers(points, relation)
        assert not poset.leq("zz", "zz")


def test_continuity_matches_preimages_of_closed_sets():
    rng = random.Random(2026)
    seen = {True: 0, False: 0}
    for _ in range(200):
        dom, cod = random_space(rng, 6), random_space(rng, 4)
        mapping = {x: rng.choice(cod.carrier.points) for x in dom.carrier.points}
        verdict = is_continuous(mapping, dom, cod)
        assert verdict == lattice_is_continuous(mapping, dom, cod)
        seen[verdict] += 1
    assert min(seen.values()) >= 20


def test_family_machinery_matches_the_signature_loops():
    rng = random.Random(2027)
    for _ in range(150):
        family = random_family(rng, 7, 5)
        carrier = family.carrier
        transforms = family_transforms(family)
        for got, op in ((transforms.intersections, operator.and_),
                        (transforms.unions, operator.or_)):
            assert set(got.masks) == fixpoint_closure(family.masks, op)
        n = len(carrier)
        for _ in range(5):
            y = rng.randrange(1 << n)
            classes = [signature_class(family, i, carrier.full_mask) for i in range(n)]
            union = 0
            for i in range(n):
                if (y >> i) & 1:
                    union |= classes[i]
            labels = carrier.labels_of(y)
            assert is_stable(family, labels) == (union == y)
            assert stable_closure(family, labels) == carrier.labels_of(union)
            if y:
                point = rng.choice(sorted(labels))
                ultra = PrincipalUltrafilter.at(point, labels)
                expect = signature_class(family, carrier._index[point], y)
                assert limit_set(family, ultra) == carrier.labels_of(expect)


def set_label(labels):
    return "{" + ",".join(sorted(labels)) + "}"


def labelled_family(carrier, masks):
    """The family of the masks as ``family_transforms`` built it before: each
    mask spelled, the label tuples sorted, each named by its sorted labels, and
    the public constructor reading every member back to its mask."""
    subsets = sorted(carrier.tuple_of(m) for m in set(masks))
    return SetFamily(carrier, tuple((set_label(s), frozenset(s)) for s in subsets))


def subfamily_closure(masks, op):
    """The op over every nonempty subfamily of the masks."""
    return {reduce(op, c) for r in range(1, len(masks) + 1) for c in combinations(masks, r)}


def test_family_transforms_match_the_labelled_families():
    rng = random.Random(2041)
    cases = []
    for n in [rng.randint(1, 20) for _ in range(120)] + [1, 20]:
        labels = odd_labels(rng, n) if rng.random() < 0.5 else [f"x{i}" for i in range(n)]
        cases.append((labels, [rng.getrandbits(n) for _ in range(rng.randint(1, 6))]))
    for n in (21, 24, 27, 30):  # each member has a point of its own: 2**k - 1 unions
        k = rng.randint(11, 12)
        cases.append((odd_labels(rng, n),
                      [1 << j | rng.getrandbits(n) >> k << k for j in range(k)]))
    for labels, masks in cases:
        family = SetFamily.of(labels, [[x for i, x in enumerate(labels) if m >> i & 1]
                                       for m in masks])
        carrier, full = family.carrier, family.carrier.full_mask
        closure = subfamily_closure if len(masks) > 6 else fixpoint_closure
        expect = (labelled_family(carrier, closure(family.masks, operator.and_)),
                  labelled_family(carrier, closure(family.masks, operator.or_)),
                  labelled_family(carrier, {*family.masks, *(~m & full for m in family.masks)}))
        if len(masks) > 6:
            assert len(expect[1].members) >= 1 << 10
        for got, want in zip(family_transforms(family), expect, strict=True):
            assert got == want
            assert got.masks == want.masks  # dataclass equality skips the cached masks
            public = SetFamily(got.carrier, got.members)
            assert got == public and got.masks == public.masks


def test_limit_set_rejects_a_base_outside_the_carrier():
    family = SetFamily.of(["a", "b"], [{"a"}])
    with pytest.raises(DomainError):
        limit_set(family, PrincipalUltrafilter.at("a", ["a", "z"]))


RINGS = [zmod(n) for n in range(2, 65)] + [
    product(zmod(2), zmod(2)),
    product(zmod(2), zmod(3)),
    product(zmod(4), zmod(9)),
    gf(4),
    gf(9),
    gf(16),
]


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.name)
def test_ideals_match_the_pairwise_sums(ring):
    assert tuple(i.members for i in all_ideals(ring)) == pairwise_ideal_sets(ring)


def assert_spectrum_matches_the_pair_scan(ring):
    spectrum = scanned_spectrum(ring)
    assert _spectrum(ring) == spectrum, ring.name
    assert tuple(i.members for i in prime_ideals(ring)) == tuple(
        sorted((m for _, m in spectrum), key=lambda s: (len(s), sorted(s))))
    assert tuple(i.members for i in all_ideals(ring)) == pairwise_ideal_sets(ring), ring.name


def test_spectra_of_the_benchmark_rings_match_the_pair_scan():
    rng = random.Random(2041)
    for model in workloads.SPEC_MODELS:
        assert_spectrum_matches_the_pair_scan(
            FiniteRing.from_json(workloads.make_ring(model, rng).doc(), name=str(model)))


# Z/2[x]/(x^2): a + b*x is stored as a + 2b
DUAL_NUMBERS = FiniteRing(
    ("0", "1", "x", "1+x"),
    tuple(tuple(i ^ j for j in range(4)) for i in range(4)),
    tuple(tuple((i & j & 1) | (((i & 1) * (j >> 1) ^ (i >> 1) * (j & 1)) << 1) for j in range(4))
          for i in range(4)),
    0, 1, name="Z/2[x]/(x^2)",
)


def test_spectra_of_products_of_local_rings_match_the_pair_scan():
    """Local rings that are not fields: nilpotents in every factor."""
    local = [zmod(4), zmod(8), zmod(9), DUAL_NUMBERS]
    rng = random.Random(2042)
    for _ in range(40):
        ring = rng.choice(local)
        while rng.random() < 0.8:
            more = [c for c in local if ring.size * c.size <= 64]
            if not more:
                break
            ring = product(ring, rng.choice(more))
        assert_spectrum_matches_the_pair_scan(permuted(ring, rng))


def overring_embedding(model, rng):
    """Z/2 into a relabelled benchmark target."""
    target = FiniteRing.from_json(workloads.make_ring(model, rng).doc())
    return RingEmbedding(zmod(2), target, (target.zero, target.one))


def cube_embedding(rng):
    """Z/3 diagonally into (Z/3)^3, its elements in a random order."""
    z3 = zmod(3)
    cube = permuted(product(product(z3, z3), z3), rng)
    return RingEmbedding.of(z3, cube, {x: f"(({x},{x}),{x})" for x in "012"})


def small_embeddings():
    r2 = zmod(2)
    square = product(r2, r2)
    return [
        f2_into_f16(),
        f4_into_f16(),
        RingEmbedding.of(r2, square, {"0": "(0,0)", "1": "(1,1)"}),
        RingEmbedding.of(r2, product(square, r2), {"0": "((0,0),0)", "1": "((1,1),1)"}),
    ]


def test_intermediate_rings_match_the_pairwise_joins():
    embeddings = small_embeddings()
    large = random.Random(2033)
    for emb in embeddings + [cube_embedding(large)] + [
        overring_embedding(m, large) for m in workloads.OVERRING_MODELS if workloads._size(m) == 32
    ]:
        got = tuple(r.members for r in intermediate_rings(emb))
        assert got == pairwise_intermediate_rings(emb)
    rng = random.Random(2028)
    for emb in embeddings:
        ambient = emb.target
        for _ in range(20):
            seed = rng.sample(range(ambient.size), 2)
            assert subring_closure(ambient, seed) == fixpoint_subring_closure(ambient, seed)


def anchored_bases(anchor, points, rng=None):
    """Every base of the points that holds the anchor, up to 8 points; past
    that (2^11 and 2^14 bases per anchor here) the least and the full base
    and 128 drawn by the rng."""
    others = [p for p in points if p != anchor]
    if len(others) < 8:
        return [{anchor, *c} for k in range(len(others) + 1) for c in combinations(others, k)]
    return [{anchor}, set(points)] + [
        {anchor, *rng.sample(others, rng.randint(1, len(others)))} for _ in range(128)]


def test_principal_opens_and_prime_limits_match_the_element_scans():
    for ring in ring_pool():
        family, scanned = principal_open_family(ring), scanned_principal_opens(ring)
        assert family == scanned and family.masks == scanned.masks, ring.name
        primes = dict(_spectrum(ring))
        for anchor in family.carrier.points:
            for base in anchored_bases(anchor, family.carrier.points):
                u = PrincipalUltrafilter.at(anchor, base)
                prime = ultrafilter_prime(ring, u)
                assert prime == scanned_ultrafilter_prime(ring, u), (ring.name, base)
                assert prime.members == primes[anchor]
            u = PrincipalUltrafilter.at(anchor, [anchor, "(stray)"])
            assert raised(ultrafilter_prime, ring, u) == raised(scanned_ultrafilter_prime, ring, u)


def test_overring_loci_and_limits_match_the_element_scans():
    rng = random.Random(2049)
    for emb in [*small_embeddings(), cube_embedding(rng),
                *(overring_embedding(m, rng) for m in workloads.OVERRING_MODELS)]:
        family, scanned = overring_family(emb), scanned_overring_family(emb)
        assert family == scanned and family.masks == scanned.masks, emb.target.name
        for anchor in family.carrier.points:
            for base in anchored_bases(anchor, family.carrier.points, rng):
                u = PrincipalUltrafilter.at(anchor, base)
                ring = a_ultra(emb, u)
                assert ring == scanned_a_ultra(emb, u), (emb.target.name, base)
                assert ring.label() == anchor
            u = PrincipalUltrafilter.at(anchor, [anchor, "(stray)"])
            assert raised(a_ultra, emb, u) == raised(scanned_a_ultra, emb, u)


# characteristics 32, 8, 27 and 9: spans where one coset per generator is not enough
ODD_CHARACTERISTIC = [zmod(32), product(zmod(4), zmod(8)), zmod(27), product(zmod(9), zmod(3))]
LARGE_RINGS = [zmod(64), product(gf(16), zmod(4)), product(gf(8), gf(8)),
               product(product(zmod(2), zmod(2)), product(gf(4), zmod(4)))]


ORBIT_RINGS = [*map(zmod, range(2, 65)), *map(gf, (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)),
               product(zmod(2), gf(4)), product(gf(4), gf(4)), product(zmod(6), zmod(10)),
               product(product(zmod(2), zmod(3)), gf(9)), *LARGE_RINGS, *ODD_CHARACTERISTIC]


@pytest.mark.parametrize("ring", ORBIT_RINGS, ids=lambda r: r.name)
def test_orbits_match_the_worklists(ring):
    rng = random.Random(2047)
    for r in (ring, permuted(ring, rng)):
        assert r._additive_generators == worklist_additive_generators(r)
        for k in (0, 1, 1, 2, 3):
            seed = rng.sample(range(r.size), min(k, r.size))
            assert subring_closure(r, seed) == worklist_subring_closure(r, seed)


@pytest.mark.parametrize("ring", ODD_CHARACTERISTIC, ids=lambda r: r.name)
def test_subring_closure_matches_the_fixpoint_outside_characteristic_2(ring):
    rng = random.Random(2032)
    for _ in range(50):
        ring = permuted(ring, rng)
        seed = rng.sample(range(ring.size), rng.randint(0, 3))
        assert subring_closure(ring, seed) == fixpoint_subring_closure(ring, seed)


def test_table_checks_name_what_the_entrywise_loops_name():
    rng = random.Random(2034)
    rings = SMALL_RINGS + [zmod(33), *LARGE_RINGS, *ODD_CHARACTERISTIC]
    named = Counter()
    for _ in range(800):
        ring = permuted(rng.choice(rings), rng)
        n = ring.size
        add, mul = [list(row) for row in ring.add], [list(row) for row in ring.mul]
        for _ in range(rng.choice((1, 1, 2, 3))):
            table, i, j = rng.choice((add, mul)), rng.randrange(n), rng.randrange(n)
            if rng.random() < 0.4:
                table[i][j] = rng.choice((-2, -1, n, n + 1, 2 * n))
            else:  # changed within range: not commutative unless i == j
                table[i][j] = (table[i][j] + rng.randrange(1, n)) % n
            if rng.random() < 0.3:  # symmetric: commutativity holds at (i, j)
                table[j][i] = table[i][j]
        add, mul = tuple(map(tuple, add)), tuple(map(tuple, mul))
        got = raised(FiniteRing, ring.elements, add, mul, ring.zero, ring.one)
        want = raised(elementwise_table_check, add, mul)
        if want is None:
            assert got is None or not re.search("out of range|not commutative", got[1])
        else:
            assert got == want
            named[re.sub(r"^\w+ | -?\d+(?= is)| at .*", "", want[1])] += 1
    assert sum(named.values()) > 600
    assert named["table entry is out of range"] > 150 and named["is not commutative"] > 150


def additive_span(ring, elements):
    """The additive group generated by the elements, by adding until nothing is new."""
    span = {ring.zero}
    while new := {ring.add[a][b] for a in span for b in elements} - span:
        span |= new
    return frozenset(span)


def test_member_checks_name_what_the_elementwise_loops_name():
    rng = random.Random(2035)
    rings = SMALL_RINGS + ODD_CHARACTERISTIC + LARGE_RINGS
    verdicts = Counter()
    for _ in range(1500):
        ring = permuted(rng.choice(rings), rng)
        n = ring.size
        closed = [i.members for i in all_ideals(ring)]
        closed.append(subring_closure(ring, rng.sample(range(n), rng.randint(0, 2))))
        # a group holding one: closed under + and -, but under * only by chance
        closed.append(additive_span(ring, [ring.one, rng.randrange(n)]))
        members = set(rng.choice(closed))
        for _ in range(rng.choice((0, 1, 1, 2))):
            move = rng.random()
            if move < 0.4:
                members.add(rng.randrange(n))
            elif move < 0.8 and members:
                members.discard(rng.choice(sorted(members)))
            else:
                members.add(rng.choice((-3, -1, n, n + 3)))
        if rng.random() < 0.1:
            members = {rng.choice((ring.zero, ring.one, rng.randrange(n), -1))}
        members = frozenset(members)
        for kind, loop in ((Subring, elementwise_subring_check), (Ideal, elementwise_ideal_check)):
            want = raised(loop, ring, members)
            assert raised(kind, ring, members) == want
            verdicts[kind, want is None] += 1
            if want:
                verdicts[re.sub(r" at .*| -?\d+(?= is)", "", want[1])] += 1
    assert min(verdicts[kind, ok] for kind in (Subring, Ideal) for ok in (True, False)) > 150
    assert verdicts[Subring, False] >= 300 and verdicts[Ideal, False] >= 300
    for fault in ("ideal member is out of range", "subring member is out of range",
                  "ideal is not closed under addition", "ideal does not absorb multiplication",
                  "subring is not closed under negation", "subring is not closed under addition",
                  "subring is not closed under multiplication"):
        assert verdicts[fault] >= 10, (fault, verdicts)


SMALL_RINGS = [zmod(n) for n in range(2, 17)] + [gf(q) for q in (4, 8, 9, 16)] + [
    product(a, b)
    for a in (zmod(2), zmod(3), zmod(4), gf(4))
    for b in (zmod(2), zmod(3), zmod(4), zmod(5), gf(4), product(zmod(2), zmod(2)))
    if a.size * b.size <= 16
]


def named_law_failure(add, mul, zero, one):
    """The law and triple that ``FiniteRing`` names for the tables, or None."""
    try:
        FiniteRing(tuple(map(str, range(len(add)))), add, mul, zero, one)
    except DomainError as e:
        law, *triple = re.fullmatch(r"(.*) at \((\d+), (\d+), (\d+)\)", str(e)).groups()
        return law, tuple(map(int, triple))
    return None


def test_ring_laws_match_the_triple_scan():
    rng = random.Random(2029)
    invalid = 0
    for _ in range(2000):
        ring = rng.choice(SMALL_RINGS)
        if rng.random() < 0.5:
            ring = permuted(ring, rng)
        add, mul = corrupted_tables(rng, ring, rng.choice((1, 1, 2)), add_share=0.3)
        named = named_law_failure(add, mul, ring.zero, ring.one)
        assert (named is None) == (triple_scan_law_failure(add, mul) is None)
        if named:
            law, triple = named
            assert not RING_LAWS[law](add, mul, *triple)
            invalid += 1
    assert invalid > 1000
    nonassociative = 0
    for _ in range(300):
        add, mul = random_algebra(rng, *rng.choice(((2, 2), (2, 3), (2, 4), (3, 2))))
        named = named_law_failure(add, mul, 0, 1)
        assert (named is None) == (triple_scan_law_failure(add, mul) is None)
        if named:
            law, triple = named
            assert law == "multiplication is not associative"
            assert not RING_LAWS[law](add, mul, *triple)
            nonassociative += 1
    assert 50 < nonassociative < 250


def test_broken_large_tables_name_a_failing_triple():
    # one product entry changed in tables of 33 to 64 elements
    rng = random.Random(2030)
    large = [zmod(n) for n in range(33, 65)] + [
        product(a, zmod(n)) for a in (zmod(2), zmod(3), gf(4), gf(8), gf(16))
        for n in range(2, 33) if 33 <= a.size * n <= 64
    ]
    for _ in range(300):
        ring = permuted(rng.choice(large), rng)
        mul = ring.mul
        while mul == ring.mul:  # a changed entry: never a ring above 2 elements
            add, mul = corrupted_tables(rng, ring, 1, add_share=0)
        law, triple = named_law_failure(add, mul, ring.zero, ring.one)
        assert not RING_LAWS[law](add, mul, *triple)


LAWS = ("addition is not associative", "multiplication is not associative",
        "distributivity fails")
LAW_RINGS = [zmod(n) for n in range(2, 65)] + [gf(q) for q in (4, 8, 9, 16)] + [
    product(a, b)
    for a in (zmod(2), zmod(3), gf(4), gf(8), gf(16))
    for b in (zmod(2), zmod(4), gf(4), gf(8), product(zmod(2), zmod(2)))
    if a.size * b.size <= 64
]


def test_law_check_names_what_the_tuple_row_loop_names():
    # per size from 2 to 64 and per law, one entry of + (for associativity of +),
    # of * (for associativity of *) or of either, changed with its mirror
    rng = random.Random(2045)
    named, sizes = Counter(), set()
    for n in range(2, 65):
        rings = [r for r in LAW_RINGS if r.size == n]
        for share in (1.0, 0.0, 0.5) * 4:
            ring = permuted(rng.choice(rings), rng)
            for _ in range(20):  # a change that keeps the identities and the inverses
                add, mul = corrupted_tables(rng, ring, 1, add_share=share)
                if (add, mul) != (ring.add, ring.mul):
                    break
            else:
                continue
            gens = FiniteRing._additive_generators.func(
                SimpleNamespace(size=n, zero=ring.zero, add=add))
            want = raised(tuple_row_law_failure, add, mul, gens)
            assert raised(FiniteRing, ring.elements, add, mul, ring.zero, ring.one) == want
            if want:
                named[want[1].split(" at ")[0]] += 1
                sizes.add(n)
    assert sizes == set(range(2, 65)) and min(named[law] for law in LAWS) >= 40, named


def named_hom_failure(src, tgt, f):
    """The operation and pair that ``RingHom`` names for the map, or None."""
    try:
        RingHom(src, tgt, f)
    except DomainError as e:
        word, pair = re.fullmatch(r"map does not preserve (\w+) at (.*)", str(e)).groups()
        return word, tuple(map(src.idx, ast.literal_eval(pair)))
    return None


def test_homomorphism_check_matches_the_pair_scan():
    rng = random.Random(2031)
    maps = [
        (zmod(m), zmod(d), tuple(i % d for i in range(m)))
        for m in range(2, 17) for d in range(2, m + 1) if m % d == 0
    ] + [(r, r, tuple(range(r.size))) for r in SMALL_RINGS] + [
        (e.source, e.target, e.mapping) for e in (f2_into_f16(), f4_into_f16())
    ] + [(ZERO_RING, ZERO_RING, (0,)), (ZERO_RING, zmod(2), (1,))]
    rejected = 0
    for _ in range(4000):
        src, tgt, f = rng.choice(maps)
        image = {x: tgt.elements[v] for x, v in zip(src.elements, f)}
        if rng.random() < 0.5:
            src = permuted(src, rng)
        if rng.random() < 0.5:
            tgt = permuted(tgt, rng)
        f = [tgt.idx(image[x]) for x in src.elements]
        others = [i for i in range(src.size) if i != src.one]
        for i in rng.sample(others, min(len(others), rng.choice((0, 1, 1, 2)))):
            f[i] = rng.randrange(tgt.size)
        f = tuple(f)
        named = named_hom_failure(src, tgt, f)
        assert (named is None) == (pair_scan_hom_failure(src, tgt, f) is None)
        if named:
            word, pair = named
            assert not HOM_LAWS[word](src, tgt, f, *pair)
            rejected += 1
    assert 1000 < rejected < 3800
    algebras = {2: [], 3: []}  # the associative draws, as rings
    while len(algebras[2]) < 12 or len(algebras[3]) < 4:
        p, k = rng.choice(((2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2)))
        add, mul = random_algebra(rng, p, k)
        if named_law_failure(add, mul, 0, 1) is None:
            algebras[p].append(FiniteRing(tuple(map(str, range(p**k))), add, mul, 0, 1))
    rejected = 0
    for _ in range(1000):
        p = rng.choice((2, 3))
        src, tgt = rng.choice(algebras[p]), rng.choice(algebras[p])
        f = linear_map(rng, src, tgt, p)
        named = named_hom_failure(src, tgt, f)
        assert (named is None) == (pair_scan_hom_failure(src, tgt, f) is None)
        if named:
            word, pair = named
            assert word == "multiplication"
            assert not HOM_LAWS[word](src, tgt, f, *pair)
            rejected += 1
    assert 200 < rejected < 950


def first_empty_subfamily(count, is_empty_meet):
    """The smallest set of indices whose meet is empty, the lexicographically
    first among those of that size, from every subset of range(count)."""
    subsets = (tuple(i for i in range(count) if (bits >> i) & 1) for bits in range(1, 1 << count))
    empties = [idx for idx in subsets if is_empty_meet(idx)]
    return min(empties, key=lambda idx: (len(idx), idx), default=None)


def check_fip_contract(result, count, is_empty_meet):
    witness = first_empty_subfamily(count, is_empty_meet)
    assert result.has_fip == (witness is None)
    assert result.witness == witness
    assert (result.intersection is None) == (witness is not None)


def test_fip_witness_is_the_first_smallest_empty_subfamily():
    rng = random.Random(2029)
    for _ in range(400):
        sets = [
            {x for x in range(5) if rng.random() < 0.6} for _ in range(rng.randint(1, 7))
        ]
        result = fip_check(sets)
        check_fip_contract(
            result, len(sets), lambda idx: not set.intersection(*(sets[i] for i in idx))
        )
        if result.has_fip:
            assert result.intersection == set.intersection(*sets)


Z_PRIMES = (2, 3, 5, 7)
# one prime outside Z_PRIMES stands for all of them: no set lists it
Z_POINTS = [ZPoint.at(p) for p in (*Z_PRIMES, 11)] + [ZPoint.generic()]


def test_z_fip_witness_is_the_first_smallest_empty_subfamily():
    rng = random.Random(2030)
    for _ in range(300):
        sets = [
            ZConstructible(
                frozenset(p for p in Z_PRIMES if rng.random() < 0.4), rng.random() < 0.5
            )
            for _ in range(rng.randint(1, 7))
        ]
        result = z_fip_check(sets)
        check_fip_contract(
            result,
            len(sets),
            lambda idx: not any(all(sets[i].contains(x) for i in idx) for x in Z_POINTS),
        )
        if result.has_fip:
            for x in Z_POINTS:
                assert result.intersection.contains(x) == all(c.contains(x) for c in sets)


constructibles = st.builds(
    ZConstructible, st.frozensets(st.sampled_from((2, 3, 5, 7, 11, 13)), max_size=4), st.booleans()
)


@given(constructibles, constructibles)
@settings(max_examples=300, deadline=None)
def test_intersect_is_the_complement_of_the_union_of_complements(a, b):
    assert a.intersect(b) == a.complement().union(b.complement()).complement()


def combinations_fip_search(sets, meet, is_empty):
    """The finite intersection property by meeting the sets of each index
    combination afresh, smallest combinations first."""
    total = reduce(meet, sets)
    if not is_empty(total):
        return FipResult(True, intersection=total)
    for size in range(1, len(sets) + 1):
        for combo in combinations(range(len(sets)), size):
            if is_empty(reduce(meet, (sets[i] for i in combo))):
                return FipResult(False, witness=combo)


def random_list(rng, draw):
    """Up to 10 sets from ``draw``, some of them repeats of earlier ones."""
    sets = []
    for _ in range(rng.randint(1, 10)):
        sets.append(rng.choice(sets) if sets and rng.random() < 0.15 else draw())
    return sets


def test_fip_check_matches_the_combination_search():
    rng = random.Random(2031)
    for _ in range(600):
        n = rng.randint(1, 8)
        shapes = (
            lambda: frozenset(x for x in range(n) if rng.random() < 0.7),
            lambda: frozenset(),
            lambda: frozenset(range(n)),
        )
        sets = random_list(rng, lambda: rng.choices(shapes, (12, 1, 1))[0]())
        assert fip_check(sets) == combinations_fip_search(sets, operator.and_, operator.not_)


# the largest primes below 10^6 and 10^12
LARGE_PRIMES = (999979, 999983, 999999999959, 999999999961, 999999999989)


def test_z_fip_check_matches_the_combination_search():
    rng = random.Random(2032)
    pool = Z_PRIMES + LARGE_PRIMES
    for _ in range(600):
        all_cofinite = rng.random() < 0.2
        shapes = (
            lambda: ZConstructible(
                frozenset(p for p in pool if rng.random() < 0.3),
                all_cofinite or rng.random() < 0.5,
            ),
            ZConstructible.empty,
            ZConstructible.whole,
        )
        weights = (1, 0, 0) if all_cofinite else (12, 1, 1)
        sets = random_list(rng, lambda: rng.choices(shapes, weights)[0]())
        expected = combinations_fip_search(
            sets, ZConstructible.intersect, operator.attrgetter("is_empty")
        )
        assert z_fip_check(sets) == expected


def unpruned_fip_search(masks):
    """The witness search without the suffix prune, and its steps as
    ``core._fip_search`` counts them, one per candidate tried, which bound the
    pruned search's: for each size, every combination depth first in
    lexicographic order, carrying the AND of each prefix down."""
    k = len(masks)
    if reduce(operator.and_, masks):
        return None, k
    meets = k

    def first_empty(start, need, prefix):
        nonlocal meets
        for i in range(start, k - need + 1):
            meets += 1
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
            return found, meets


def random_masks(rng):
    """Up to 12 masks, over no more bits than there are masks.  Most miss one
    bit of the full mask, some as negative (cofinite) masks, so witnesses of
    every size up to about 9 appear."""
    k = rng.randint(1, 12)
    width = rng.randint(1, k)
    masks = []
    for _ in range(k):
        miss = 1 << rng.randrange(width)
        masks.append(rng.choices(
            (~miss, ((1 << width) - 1) & ~miss, rng.getrandbits(width)), (3, 6, 1)
        )[0])
    return masks


def test_pruned_fip_search_matches_the_unpruned_one_within_its_count(monkeypatch):
    rng = random.Random(2035)
    hard = [0b111111] + [0b1111111 & ~(1 << i) for i in range(6)] * 2
    sizes = Counter()
    for masks in [hard, [(1 << 12) - 1 - (1 << i) for i in range(12)]] + [
        random_masks(rng) for _ in range(3000)
    ]:
        witness, meets = unpruned_fip_search(masks)
        monkeypatch.setattr(core, "MAX_FIP_MEETS", meets)
        assert core._fip_search(masks) == witness
        sizes[0 if witness is None else len(witness)] += 1
    assert sizes[0] > 300 and all(sizes[size] > 10 for size in range(1, 7)) and max(sizes) >= 8


def entry_support(entry):
    """The listed primes of a ``specz-fip`` entry and whether they are excluded
    (factoring is checked against trial division below)."""
    if "primes" in entry:
        return set(entry["primes"]), entry["mode"] == "cofinite"
    n = entry.get("v_of", entry.get("d_of"))
    return prime_factors(n) if n else set(), (n == 0) != ("d_of" in entry)


def test_z_fip_documents_match_the_unpruned_search_within_its_count(monkeypatch):
    rng = random.Random(2036)
    pool = Z_PRIMES + (11, 13) + LARGE_PRIMES
    numbers = pool + (0, 1, -1, 6, -10, 30, 77, 2 * 999983)
    entries = (
        lambda: {"v_of": rng.choice(numbers)},
        lambda: {"d_of": rng.choice(numbers)},
        lambda: {"primes": rng.sample(pool, rng.randint(0, 5)), "mode": "finite"},
        lambda: {"primes": rng.sample(pool, rng.randint(0, 3)), "mode": "cofinite"},
    )
    sizes = Counter()
    for _ in range(400):
        if rng.random() < 0.4:  # a finite set and D(p) at each of its primes, some twice
            primes = rng.sample(pool, rng.randint(1, 7))
            named = primes + rng.choices(primes, k=rng.randint(0, 11 - len(primes)))
            doc = {"sets": [{"primes": primes, "mode": "finite"}] + [{"d_of": p} for p in named]}
            rng.shuffle(doc["sets"])
        else:
            shapes = rng.choices(entries, (1, 4, 2, 2), k=rng.randint(1, 12))
            doc = {"sets": [shape() for shape in shapes]}
        sets = list(map(entry_support, doc["sets"]))
        bit = {p: 1 << i for i, p in enumerate(sorted(set().union(*(s for s, _ in sets))))}
        masks = [sum(map(bit.get, s)) for s, _ in sets]
        witness, meets = unpruned_fip_search([~m if cof else m for (_, cof), m in zip(sets, masks)])
        monkeypatch.setattr(core, "MAX_FIP_MEETS", meets)
        code, out, err = call_main(["specz-fip", "-"], doc)
        assert (code, err) == (0, "")
        assert json.loads(out)["witness"] == (None if witness is None else list(witness))
        sizes[0 if witness is None else len(witness)] += 1
    assert sizes[0] > 50 and all(sizes[size] > 10 for size in range(1, 9))


def trial_division_factors(n):
    n, d, out = abs(n), 2, set()
    while d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1
    return frozenset(out | ({n} if n > 1 else set()))


THIRTEEN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
BASE_PRODUCT = math.prod(THIRTEEN_BASES)


def miller_rabin(n, bases=THIRTEEN_BASES):
    """Miller-Rabin with the given bases; with all 13, as ``is_prime`` ran at
    every size before."""
    if n < 2 or math.gcd(n, BASE_PRODUCT) > 1:
        return n in THIRTEEN_BASES
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
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


def test_is_prime_matches_the_thirteen_bases():
    """Below 3 474 749 660 383, and so below FACTOR_CAP, ``is_prime`` tries
    the bases 2 to 13 only."""
    rng = random.Random(2043)
    for n in [*range(10**6), *(rng.randrange(specz.FACTOR_CAP) for _ in range(10_000))]:
        assert is_prime(n) == miller_rabin(n), n


@pytest.mark.parametrize("factors, bases", [((151, 751, 28351), 4), ((6763, 10627, 29947), 5),
                                            ((1303, 16927, 157543), 6)],
                         ids=["psp-2-to-7", "psp-2-to-11", "psp-2-to-13"])
def test_strong_pseudoprimes_to_the_first_bases_are_composite(factors, bases):
    """The least strong pseudoprimes to the bases 2-7, 2-11 and 2-13: each
    passes those bases, and is composite.  The last, 3 474 749 660 383, is the
    bound itself, so it takes all 13 bases."""
    n = math.prod(factors)
    assert n in (3_215_031_751, 2_152_302_898_747, specz._MR_SHORT_BOUND)
    assert miller_rabin(n, THIRTEEN_BASES[:bases])
    assert not is_prime(n) and not miller_rabin(n)


def test_prime_factors_match_trial_division():
    rng = random.Random(2033)
    for n in [rng.randint(-10**7, 10**7) or 1 for _ in range(500)] + list(range(-40, 0)):
        assert prime_factors(n) == trial_division_factors(n)


@pytest.mark.parametrize(
    "n, primes",
    [
        (999999999989, {999999999989}),
        (-999999999989, {999999999989}),
        (999983 * 999979, {999983, 999979}),
        (999983**2, {999983}),
        (2 * 499999999979, {2, 499999999979}),
        (1, set()),
        (-1, set()),
        (-360, {2, 3, 5}),
        (2**39, {2}),
    ],
)
def test_prime_factors_fixed_cases(n, primes):
    assert prime_factors(n) == primes == trial_division_factors(n)


# --------------------------------------------------------------------------
# argv: the argparse parser the CLI built before it read argv from ``_VERBS``


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise InputError(message)


@cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ultratop", description=cli.__doc__)
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="reserved for randomized commands; accepted for interface stability",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    verbs = {}
    for verb, (_, takes, _, _) in cli._VERBS.items():
        p = verbs[verb] = sub.add_parser(verb)
        if takes:
            p.add_argument("input", nargs="?" if takes == "optional" else None, default=None,
                           help="path to a JSON document, or - for stdin")
        p.add_argument("--format", choices=("json", "dot"), default="json")
    verbs["spec"].add_argument("--zmod", type=int, default=None, metavar="N")
    verbs["specz-closure"].add_argument("--primes", required=True,
                                        help="'all' for every prime, or a comma-separated list")
    verbs["specz-closure"].add_argument("--generic", action="store_true",
                                        help="include the generic point in the input subset")
    return parser


BIG = "9" * 5000  # past the digits ``int`` converts
# the texts given to each option: good ones, and faulty ones (empty, not an integer, too long,
# starting with "-"); None leaves the value out (the option comes last or before another token)
OPTION_TEXTS = {
    "seed": (["7", "0", "-3"], ["x", "", BIG, "-h", "--generic", None]),
    "format": (["json", "dot"], ["xml", "", "-", "-5", None]),
    "zmod": (["6", "12", "1", "-5"], ["x", "", BIG, "-", None]),
    "primes": (["2,3", "all", "7", "2,9", "", "-3"], ["x", "-5,7", BIG, "-", "--generic", None]),
    "generic": ([None], ["x", "", "1"]),
}
UNKNOWN = ["--bogus", "--bogus=1", "-x", "---", "--5", "-5,7", "-.5x", "--zmodx", "--seeds=1"]
HELP = ["-h", "--help", "--he", "--h"]


def option_tokens(rng, name, seen):
    """One use of an option: its full name or a prefix (``--`` and a first letter are unique in
    every parser), as ``--name value`` or ``--name=value``; a flag alone or with ``=``."""
    cut = rng.randint(1, len(name) - 1) if rng.random() < 0.5 else len(name)
    text, value = "--" + name[:cut], rng.choice(OPTION_TEXTS[name][rng.random() < 0.25])
    spelled = "prefix" if cut < len(name) else "full"
    if name == "generic" and value is None:
        seen.update([f"{spelled} flag"])
        return [text]
    if value is None:
        seen.update([f"{spelled} name, value left out"])
        return [text]
    seen.update([f"{spelled} name=value" if (eq := rng.random() < 0.4) else f"{spelled} name value"]
                + ["value starting with -"] * value.startswith("-"))
    return [f"{text}={value}"] if eq else [text, value]


def random_argv(rng, paths, seen):
    """An argv and its stdin document: a verb, an unknown one or none; ``--seed`` before or after
    the verb; the verb's options and others; the input as ``-``, a path or none, now and then a
    second one; unknown options; a repeated option; ``-h`` or ``--help`` anywhere; ``--``."""
    verb = rng.choice([*cli._VERBS, *cli._VERBS, "frobnicate", None])
    _, takes, _, options = cli._VERBS.get(verb, (None, "required", False, {}))
    names = rng.choices(["format", *options, *options], k=rng.choice([0, 0, 1, 1, 2]))
    names += [rng.choice(["zmod", "primes", "generic", "seed"])] * (rng.random() < 0.15)
    names += ["primes"] * ("primes" in options and rng.random() < 0.8)
    items = [option_tokens(rng, name, seen) for name in names]
    if takes and rng.random() < (0.9 if takes == "required" else 0.4):
        items.append([rng.choice(["-", paths.get(verb, "missing.json")])])
    for kind, pool, share in (("second positional", ["-", "x", paths["atoms"]], 0.08),
                              ("unknown option", UNKNOWN, 0.1)):
        if rng.random() < share:
            items.append([rng.choice(pool)])
            seen.update([kind])
    if items and rng.random() < 0.2:
        items.append(rng.choice(items))
        seen.update(["repeated"])
    rng.shuffle(items)
    argv = [verb] * (verb is not None) + [tok for item in items for tok in item]
    if rng.random() < 0.4:
        argv = option_tokens(rng, "seed", seen) + argv
        seen.update(["seed before"])
    for extra, share in [*((h, 0.03) for h in HELP), ("--", 0.02)]:
        if rng.random() < share:
            argv.insert(rng.randint(0, len(argv)), extra)
            seen.update([extra])
    seen.update([verb, "seed after"] if "seed" in names else [verb])
    return argv, (VALID.get(verb) if isinstance(VALID.get(verb), dict) else None)


def parsed(read, argv):
    """("ok", the values), ("help", None) or ("error", None) of one argv."""
    try:
        args = read(argv)
    except InputError:
        return "error", None
    except SystemExit as e:
        assert e.code == 0
        return "help", None
    return ("help", None) if args is None else ("ok", vars(args))


def test_argv_reader_matches_the_argparse_parser(tmp_path, monkeypatch):
    """On each argv the reader gives the parser's values, help or fault, and ``main`` the old
    exit code and stdout.  The exceptions: the help text, and a bare ``--``, after which the
    parser read the rest as values and the reader exits 1.  A fault is one line on stderr."""
    paths = {}
    for verb, doc in VALID.items():
        if isinstance(doc, dict):
            paths[verb] = str(tmp_path / f"{verb}.json")
            (tmp_path / f"{verb}.json").write_text(json.dumps(doc), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    rng, seen = random.Random(2028), Counter()
    corpus = [random_argv(rng, paths, seen) for _ in range(20000)]
    parser = build_parser()
    with contextlib.redirect_stdout(io.StringIO()):
        old = [parsed(parser.parse_args, argv) for argv, _ in corpus]
    new = [parsed(cli._read_args, argv) for argv, _ in corpus]
    runs_new = [call_main(argv, doc) for argv, doc in corpus]
    monkeypatch.setattr(cli, "_read_args", parser.parse_args)
    runs_old = []
    for argv, doc in corpus:
        try:
            runs_old.append(call_main(argv, doc))
        except SystemExit:  # argparse printed its help and exited
            runs_old.append((0, None, ""))
    for (argv, _), o, n, ro, rn in zip(corpus, old, new, runs_old, runs_new):
        dash = "--" in argv
        assert n == o or dash and n == ("error", None), argv
        assert rn[0] == ro[0] or dash and rn[0] == 1, argv
        if rn[0] == ro[0]:
            assert rn[1] == ro[1] or o[0] == "help" and rn[1].startswith("usage: ultratop"), argv
        if rn[0] == 1:
            assert rn[1] == "" and rn[2].startswith("error: ") and rn[2].count("\n") == 1, argv
        elif rn[0] == ro[0]:
            assert rn[2] == ro[2], argv
        seen.update([o[0], f"exit {ro[0]}"])
    # every verb, an unknown one and none, each form and fault, help, and exits 0, 1 and 2
    assert min(seen.values()) >= 100 and len(seen) == 36, seen


ODD_TOKENS = ["", " ", "a b", "=", "٥", "-", "-5", "-5\n", "-\n", "-.5", "-5.", "-5.5", "-٥", "-²",
              "-x", "-x y", "-=", "-5,7", "--", "--=x", "---", "--5", "--fo x", "--fo=a b",
              "--he=", "--generic=", "--zmod=-5", "-h=x", "-h="]
# argvs the reader reads otherwise, on purpose: argparse reports ``--=x`` even after help, as it
# sorts every token before it acts on any; it reads ``-hh`` as help, and ``-h=h`` up to 3.12;
# from 3.13 on it reads ``-hx`` and ``-h x`` as help, which 3.10-3.12 and the reader refuse
BEFORE_3_13 = sys.version_info < (3, 13)
KNOWN_DIFFERENCES = {
    ("-h", "--=x"): (("error", None), ("help", None)),
    ("atoms", "-", "-hh"): (("help", None), ("error", None)),
    ("-h=h",): (("help" if BEFORE_3_13 else "error", None), ("error", None)),
    ("atoms", "-", "-hx"): (("error" if BEFORE_3_13 else "help", None), ("error", None)),
    ("atoms", "-", "-h x"): (("error" if BEFORE_3_13 else "help", None), ("error", None)),
}


def test_odd_tokens_read_as_the_argparse_parser_reads_them():
    parser = build_parser()
    for tok in ODD_TOKENS:
        for argv in (["specz-closure", "--primes", tok], ["spec", "--zmod", tok], ["spec", tok],
                     ["atoms", "-", tok], [tok, "atoms", "-"], ["--seed", tok, "spec"],
                     ["spec", "--zmod", "6", tok, "-h"], ["spec", "--format", tok]):
            with contextlib.redirect_stdout(io.StringIO()):
                old = parsed(parser.parse_args, argv)
            new = parsed(cli._read_args, argv)
            assert new == old or "--" in argv and new == ("error", None), argv
    for argv, (old, new) in KNOWN_DIFFERENCES.items():
        with contextlib.redirect_stdout(io.StringIO()):
            assert (parsed(parser.parse_args, list(argv)), parsed(cli._read_args, list(argv))) == (
                old, new)
