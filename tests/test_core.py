import itertools
import json
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from ultratop import (
    BoolAlgebra,
    Carrier,
    DomainError,
    PrincipalUltrafilter,
    SetFamily,
    atoms,
    extend_ultrafilter,
    family_transforms,
    fip_check,
    limit_set,
    restrict_ultrafilter,
    stable_closure,
    is_stable,
)
from ultratop import core
from conftest import brute_force_stable_masks, random_family


def family_strategy(max_points=6, max_members=4):
    def build(seed):
        return random_family(random.Random(seed), max_points, max_members)

    return st.integers(min_value=0, max_value=10**9).map(build)


class TestCarrier:
    def test_of_sorts_and_preserves(self):
        c = Carrier.of(["b", "a", "c"])
        assert c.points == ("a", "b", "c")

    def test_rejects_duplicates(self):
        with pytest.raises(DomainError):
            Carrier.of(["a", "a"])

    def test_rejects_empty(self):
        with pytest.raises(DomainError):
            Carrier.of([])

    def test_rejects_unsorted_labels(self):
        with pytest.raises(DomainError, match="^carrier labels must be sorted; use Carrier.of$"):
            Carrier(("b", "a"))

    def test_mask_round_trip(self):
        c = Carrier.of(["a", "b", "c", "d"])
        for r in range(5):
            for combo in itertools.combinations(c.points, r):
                mask = c.mask_of(combo)
                assert c.labels_of(mask) == frozenset(combo)

    def test_mask_rejects_stray_point(self):
        c = Carrier.of(["a", "b"])
        with pytest.raises(DomainError):
            c.mask_of(["z"])

    def test_mask_names_the_least_stray_point(self):
        c = Carrier.of(["a", "b"])
        cases = [(["z"], "'z'"), (["a", "z", "b", "x", "y"], "'x'"), (iter("bzay"), "'y'"),
                 ([3, "b", "z", None], "'z'"), ([3, None, 1.5, "a"], "1.5"), (["q", ["a"]], "'q'"),
                 (["a", ["b"]], "['b']"), ([{"a": 1}, "a"], "{'a': 1}"),  # unhashable ones too
                 (iter([["a"], "z"]), "'z'"), ([{"b"}, ["a"], "b"], "['a']")]
        for labels, named in cases:
            with pytest.raises(DomainError, match=f"^{re.escape(named)} is not a point"):
                c.mask_of(labels)
        with pytest.raises(TypeError):  # not an iterable at all: Python's own error
            c.mask_of(5)

    def test_union_at_reads_only_the_selector_bits_on_the_list(self):
        rng = random.Random(7)
        for _ in range(300):
            masks = [rng.getrandbits(8) for _ in range(rng.randint(0, 8))]
            selector = rng.getrandbits(12) * rng.choice([1, -1])
            expect = 0
            for i, m in enumerate(masks):
                if (selector >> i) & 1:
                    expect |= m
            assert core._union_at(masks, selector) == expect, (masks, selector)

    def test_full_mask(self):
        c = Carrier.of(["a", "b", "c"])
        assert c.full_mask == 0b111

    def test_container_protocol(self):
        c = Carrier.of(["a", "b"])
        assert len(c) == 2
        assert "a" in c
        assert "z" not in c
        assert list(c) == ["a", "b"]


class TestSetFamily:
    def test_of_autonames(self):
        f = SetFamily.of(["a", "b"], [{"a"}, {"b"}])
        assert [name for name, _ in f.members] == ["F0", "F1"]

    def test_of_explicit_names(self):
        f = SetFamily.of(["a"], [{"a"}], names=["top"])
        assert f.members[0][0] == "top"

    def test_rejects_empty_family(self):
        with pytest.raises(DomainError):
            SetFamily.of(["a"], [])

    def test_of_rejects_a_name_count_mismatch(self):
        with pytest.raises(DomainError, match="^one name per member is required$"):
            SetFamily.of(["a", "b"], [{"a"}], names=["p", "q"])

    def test_rejects_stray_member_point(self):
        with pytest.raises(DomainError):
            SetFamily.of(["a"], [{"b"}])

    def test_normalize_dedups_first_name_wins(self):
        f = SetFamily.of(["a", "b"], [{"a"}, {"a"}, {"b"}], names=["p", "q", "r"])
        g = f.normalize()
        assert [(n, set(s)) for n, s in g.members] == [("p", {"a"}), ("r", {"b"})]

    def test_json_round_trip(self):
        f = SetFamily.of(["a", "b", "c"], [{"a", "b"}, set()], names=["u", "v"])
        doc = f.to_json()
        g = SetFamily.from_json(json.loads(json.dumps(doc)))
        assert g == f

    def test_from_json_rejects_bad_shape(self):
        with pytest.raises(DomainError):
            SetFamily.from_json({"carrier": ["a"]})


class TestUltrafilter:
    def test_at_requires_membership(self):
        with pytest.raises(DomainError):
            PrincipalUltrafilter.at("z", {"a", "b"})

    def test_contains_is_pointwise(self):
        u = PrincipalUltrafilter.at("b", {"a", "b", "c"})
        assert u.contains({"a", "b"})
        assert not u.contains({"a", "c"})

    def test_contains_requires_subset_of_base(self):
        u = PrincipalUltrafilter.at("a", {"a", "b"})
        with pytest.raises(DomainError):
            u.contains({"a", "z"})


class TestLimitSet:
    def test_worked_example(self):
        f = SetFamily.of(["a", "b", "c"], [{"a", "b"}])
        u = PrincipalUltrafilter.at("a", {"a", "b", "c"})
        assert limit_set(f, u) == frozenset({"a", "b"})

    def test_limit_set_is_membership_class(self):
        # Oracle: the limit set collects exactly the carrier points whose
        # membership pattern across the family matches the anchor's.
        rng = random.Random(7)
        for _ in range(200):
            f = random_family(rng, 7, 5)
            pts = f.carrier.points
            y = rng.choice(pts)
            base = frozenset(p for p in pts if rng.random() < 0.7) | {y}
            u = PrincipalUltrafilter.at(y, base)
            sig = lambda x: tuple(x in s for _, s in f.members)
            expect = frozenset(x for x in pts if sig(x) == sig(y))
            assert limit_set(f, u) == expect

    def test_independent_of_base_set(self):
        rng = random.Random(11)
        for _ in range(100):
            f = random_family(rng, 6, 4)
            pts = f.carrier.points
            y = rng.choice(pts)
            small = PrincipalUltrafilter.at(y, {y})
            big = PrincipalUltrafilter.at(y, pts)
            assert limit_set(f, small) == limit_set(f, big)

    def test_anchor_always_a_limit_point(self):
        rng = random.Random(13)
        for _ in range(100):
            f = random_family(rng, 6, 4)
            y = rng.choice(f.carrier.points)
            u = PrincipalUltrafilter.at(y, {y})
            assert y in limit_set(f, u)


class TestStability:
    def test_empty_set_is_stable(self):
        f = SetFamily.of(["a", "b"], [{"a"}])
        assert is_stable(f, frozenset())

    def test_against_brute_force(self):
        rng = random.Random(17)
        for _ in range(60):
            f = random_family(rng, 6, 4)
            oracle = brute_force_stable_masks(f)
            n = len(f.carrier)
            for mask in range(1 << n):
                subset = f.carrier.labels_of(mask)
                assert is_stable(f, subset) == (mask in oracle)

    def test_closure_is_smallest_stable_superset(self):
        rng = random.Random(19)
        for _ in range(60):
            f = random_family(rng, 6, 4)
            oracle = brute_force_stable_masks(f)
            n = len(f.carrier)
            for mask in range(1 << n):
                subset = f.carrier.labels_of(mask)
                cl = stable_closure(f, subset)
                cl_mask = f.carrier.mask_of(cl)
                assert cl_mask in oracle
                assert mask & cl_mask == mask
                # nothing strictly smaller works
                best = min(
                    (s for s in oracle if s & mask == mask),
                    key=lambda s: bin(s).count("1"),
                )
                assert bin(cl_mask).count("1") == bin(best).count("1")

    @given(family_strategy())
    @settings(max_examples=60, deadline=None)
    def test_closure_laws(self, f):
        pts = f.carrier.points
        rng = random.Random(23)
        y = frozenset(p for p in pts if rng.random() < 0.5)
        z = frozenset(p for p in pts if rng.random() < 0.5)
        cy, cz = stable_closure(f, y), stable_closure(f, z)
        assert stable_closure(f, frozenset()) == frozenset()
        assert y <= cy
        assert stable_closure(f, cy) == cy
        assert stable_closure(f, y | z) == cy | cz


class TestAtoms:
    def test_worked_example(self):
        f = SetFamily.of([1, 2, 3, 4], [{1, 2}, {2, 3}])
        got = {frozenset(a) for a in atoms(f).atoms}
        assert got == {frozenset({1}), frozenset({2}), frozenset({3}), frozenset({4})}

    def test_atoms_partition_carrier(self):
        rng = random.Random(29)
        for _ in range(100):
            f = random_family(rng, 7, 5)
            blocks = atoms(f).atoms
            seen = set()
            for b in blocks:
                assert b
                assert not (seen & b)
                seen |= b
            assert seen == set(f.carrier.points)

    def test_atoms_refine_every_member(self):
        rng = random.Random(31)
        for _ in range(100):
            f = random_family(rng, 7, 5)
            for block in atoms(f).atoms:
                for _, s in f.members:
                    assert block <= s or not (block & s)

    def test_atom_equals_limit_set(self):
        rng = random.Random(37)
        for _ in range(100):
            f = random_family(rng, 6, 4)
            for block in atoms(f).atoms:
                y = next(iter(block))
                u = PrincipalUltrafilter.at(y, {y})
                assert limit_set(f, u) == block


class TestBoolAlgebra:
    def test_from_family(self):
        f = SetFamily.of(["a", "b", "c"], [{"a", "b"}])
        alg = atoms(f)
        assert {frozenset(a) for a in alg.atoms} == {
            frozenset({"a", "b"}),
            frozenset({"c"}),
        }
        assert alg.element_count == 4

    def test_elements_closed_under_ops(self):
        rng = random.Random(41)
        for _ in range(30):
            f = random_family(rng, 5, 3)
            alg = atoms(f)
            elems = list(alg.elements())
            full = frozenset(f.carrier.points)
            as_set = {frozenset(e) for e in elems}
            assert frozenset() in as_set and full in as_set
            for x in as_set:
                assert full - x in as_set
            for x in as_set:
                for y in as_set:
                    assert x & y in as_set

    def test_atom_of(self):
        f = SetFamily.of(["a", "b", "c"], [{"a"}])
        alg = atoms(f)
        assert alg.atom_of("b") == frozenset({"b", "c"})

    def test_contains_set(self):
        f = SetFamily.of(["a", "b", "c"], [{"a", "b"}])
        alg = atoms(f)
        assert alg.contains_set({"a", "b"})
        assert alg.contains_set({"c"})
        assert not alg.contains_set({"a"})

    @pytest.mark.parametrize(
        "blocks, message",
        [
            ([{"a", "b"}, set(), {"c"}], "atoms must be nonempty"),
            ([{"a", "b"}, {"b", "c"}], "atoms must be pairwise disjoint"),
            ([{"a", "b"}], "atoms must partition the carrier"),
            ([{"a"}, {"b", "c"}], "generator 'F0' is not a union of atoms"),
        ],
    )
    def test_rejects_atoms_that_are_not_the_family_partition(self, blocks, message):
        f = SetFamily.of(["a", "b", "c"], [{"a", "b"}])
        with pytest.raises(DomainError, match=f"^{message}$"):
            BoolAlgebra(f, tuple(map(frozenset, blocks)))


class TestTransforms:
    def test_worked_example_intersections(self):
        f = SetFamily.of(["a", "b", "c"], [{"a", "b"}, {"b", "c"}])
        t = family_transforms(f)
        got = {frozenset(s) for _, s in t.intersections.members}
        assert got == {frozenset({"a", "b"}), frozenset({"b", "c"}), frozenset({"b"})}

    def test_worked_example_complements(self):
        f = SetFamily.of(["a", "b", "c"], [{"a", "b"}, {"b", "c"}])
        t = family_transforms(f)
        got = {frozenset(s) for _, s in t.complements.members}
        assert got == {
            frozenset({"a", "b"}),
            frozenset({"b", "c"}),
            frozenset({"c"}),
            frozenset({"a"}),
        }

    def test_intersections_equal_subfamily_meets(self):
        rng = random.Random(43)
        for _ in range(40):
            f = random_family(rng, 5, 4)
            t = family_transforms(f)
            got = {frozenset(s) for _, s in t.intersections.members}
            subs = [set(s) for _, s in f.members]
            expect = set()
            for r in range(1, len(subs) + 1):
                for combo in itertools.combinations(subs, r):
                    acc = set(f.carrier.points)
                    for s in combo:
                        acc &= s
                    expect.add(frozenset(acc))
            assert got == expect

    def test_unions_equal_subfamily_joins(self):
        rng = random.Random(47)
        for _ in range(40):
            f = random_family(rng, 5, 4)
            t = family_transforms(f)
            got = {frozenset(s) for _, s in t.unions.members}
            subs = [set(s) for _, s in f.members]
            expect = set()
            for r in range(1, len(subs) + 1):
                for combo in itertools.combinations(subs, r):
                    acc = set()
                    for s in combo:
                        acc |= s
                    expect.add(frozenset(acc))
            assert got == expect

    @given(family_strategy())
    @settings(max_examples=60, deadline=None)
    def test_limit_sets_invariant(self, f):
        t = family_transforms(f)
        for y in f.carrier.points:
            u = PrincipalUltrafilter.at(y, {y})
            base = limit_set(f, u)
            assert limit_set(t.intersections, u) == base
            assert limit_set(t.unions, u) == base
            assert limit_set(t.complements, u) == base

    def test_derived_families_are_bounded(self, monkeypatch):
        # k disjoint singletons have 2**k - 1 unions: 7 fit under a cap of 8, 15 do not
        monkeypatch.setattr(core, "MAX_CLOSED_SETS", 8)

        def singletons(k):
            return SetFamily.of("abcd"[:k], [{p} for p in "abcd"[:k]])

        assert len(family_transforms(singletons(3)).unions.members) == 7
        with pytest.raises(DomainError, match="capped at 8 sets"):
            family_transforms(singletons(4))


class TestSpell:
    def test_chunks_are_fewest_and_at_most_11_points(self):
        class Runs(list):  # records the width of each chunk the speller reads
            def __getitem__(self, key):
                if isinstance(key, slice):
                    widths.append(len(range(*key.indices(len(self)))))
                return list.__getitem__(self, key)

        rng = random.Random(53)
        for n in (1, 7, 12, 21, 25, 37):
            for count in (1, 2, 5, 64, 1000, 1024, 5000):
                masks, widths = [rng.getrandbits(n) for _ in range(count)], []
                spelled = core._spell(Runs((f"p{i}",) for i in range(n)), masks, (), count % 2)
                widest = min(11, count.bit_length())
                assert sum(widths) == n and len(widths) == -(-n // widest), (n, count, widths)
                assert len(set(widths[:-1])) <= 1 and widths[-1] <= widths[0] <= widest
                expect = [tuple(f"p{i}" for i in range(n) if m >> i & 1) for m in masks]
                assert spelled == [e[::-1] if count % 2 else e for e in expect]


class TestRestrictExtend:
    def test_restrict_requires_point_inside(self):
        u = PrincipalUltrafilter.at("a", {"a", "b"})
        with pytest.raises(DomainError):
            restrict_ultrafilter(u, {"b"})

    def test_restrict_requires_a_subset_of_the_base(self):
        u = PrincipalUltrafilter.at("a", {"a", "b"})
        with pytest.raises(DomainError, match="^restriction target must be a subset of the base$"):
            restrict_ultrafilter(u, {"a", "z"})

    def test_extend_then_restrict_is_identity(self):
        u = PrincipalUltrafilter.at("a", {"a", "b"})
        w = extend_ultrafilter(u, {"a", "b", "c"})
        assert w.base == frozenset({"a", "b", "c"})
        assert restrict_ultrafilter(w, {"a", "b"}) == u

    def test_extend_requires_superset(self):
        u = PrincipalUltrafilter.at("a", {"a", "b"})
        with pytest.raises(DomainError):
            extend_ultrafilter(u, {"a", "c"})

    @given(family_strategy())
    @settings(max_examples=40, deadline=None)
    def test_limit_set_survives_base_changes(self, f):
        pts = f.carrier.points
        y = pts[0]
        u = PrincipalUltrafilter.at(y, {y})
        w = extend_ultrafilter(u, pts)
        assert limit_set(f, u) == limit_set(f, w)


class TestFip:
    def test_worked_example(self):
        res = fip_check([{1, 2}, {2, 3}, {1, 3}])
        assert not res.has_fip
        assert res.witness == (0, 1, 2)
        assert res.intersection is None

    def test_nonempty_total_intersection(self):
        res = fip_check([{1, 2}, {2, 3}, {2}])
        assert res.has_fip
        assert res.intersection == frozenset({2})
        assert res.witness is None

    def test_witness_is_minimal(self):
        rng = random.Random(53)
        for _ in range(80):
            n_pts = rng.randint(1, 6)
            k = rng.randint(1, 5)
            sets = [
                frozenset(p for p in range(n_pts) if rng.random() < 0.5)
                for _ in range(k)
            ]
            res = fip_check(sets)
            total = set(range(n_pts))
            for s in sets:
                total &= s
            assert res.has_fip == bool(total)
            if res.has_fip:
                assert res.intersection == frozenset(total)
            else:
                acc = set.union(*[set(s) for s in sets]) if sets else set()
                acc = set(acc)
                inter = None
                for i in res.witness:
                    inter = set(sets[i]) if inter is None else inter & set(sets[i])
                assert inter == set()
                # no strictly smaller subfamily has empty intersection
                size = len(res.witness)
                for combo in itertools.combinations(range(k), size - 1):
                    if not combo:
                        continue
                    acc2 = set(sets[combo[0]])
                    for i in combo[1:]:
                        acc2 &= set(sets[i])
                    assert acc2

    def test_rejects_empty_input(self):
        with pytest.raises(DomainError):
            fip_check([])

    def test_search_is_bounded(self, monkeypatch):
        # a set of 6 points, then two sets missing each of them (each holding a
        # 7th point): with every point missed twice, a prefix holding the first
        # set seldom meets a suffix, so the prune cuts little: 919 steps
        sets = [set(range(6))] + [set(range(7)) - {i} for i in range(6)] * 2
        monkeypatch.setattr(core, "MAX_FIP_MEETS", 919)
        assert fip_check(sets).witness == tuple(range(7))
        monkeypatch.setattr(core, "MAX_FIP_MEETS", 918)
        with pytest.raises(DomainError, match="capped at 918 intersections"):
            fip_check(sets)
        # a nonempty total intersection needs no search
        assert fip_check([{0}] * 40).has_fip
