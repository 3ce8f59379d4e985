"""Differential tests against the lattice and pairwise-fixpoint algorithms.

The library answers space queries from point closures, closes generator
sets in one join sweep, and reads limit sets from one atom table.  The
functions below are the earlier algorithms those replaced: they scan the
whole closed-set lattice or rescan all pairs until nothing changes.  They
are slow but follow the definitions, so they serve as reference oracles on
seeded random inputs.
"""

import ast
import operator
import random
import re

import pytest

from ultratop import (
    Carrier,
    DomainError,
    FinSpace,
    PrincipalUltrafilter,
    RingEmbedding,
    SetFamily,
    SpectralReport,
    all_ideals,
    family_transforms,
    from_subbasis,
    gf,
    intermediate_rings,
    is_continuous,
    is_spectral,
    is_stable,
    limit_set,
    patch_topology,
    product,
    stable_closure,
    subring_closure,
    zmod,
)
from conftest import random_family
from test_rings import f2_into_f16, f4_into_f16


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


def test_intermediate_rings_match_the_pairwise_joins():
    r2 = zmod(2)
    square = product(r2, r2)
    embeddings = [
        f2_into_f16(),
        f4_into_f16(),
        RingEmbedding.of(r2, square, {"0": "(0,0)", "1": "(1,1)"}),
        RingEmbedding.of(r2, product(square, r2), {"0": "((0,0),0)", "1": "((1,1),1)"}),
    ]
    for emb in embeddings:
        got = tuple(r.members for r in intermediate_rings(emb))
        assert got == pairwise_intermediate_rings(emb)
    rng = random.Random(2028)
    for emb in embeddings:
        ambient = emb.target
        for _ in range(20):
            seed = rng.sample(range(ambient.size), 2)
            assert subring_closure(ambient, seed) == fixpoint_subring_closure(ambient, seed)
