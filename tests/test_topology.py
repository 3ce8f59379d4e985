import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ultratop import core
from ultratop import (
    Carrier,
    DomainError,
    FinSpace,
    NotT0Error,
    Poset,
    SetFamily,
    from_subbasis,
    generic_closure,
    hasse_dot,
    is_continuous,
    is_spectral,
    patch_topology,
    poset_to_space,
    space_to_poset,
    specialization_order,
    ultra_topology,
    ultra_transport,
)
from conftest import brute_force_stable_masks, random_family


SIERPINSKI = FinSpace.from_closed(["o", "s"], [set(), {"s"}, {"o", "s"}])
CHAOTIC = FinSpace.from_closed(["a", "b"], [set(), {"a", "b"}])
DISCRETE3 = FinSpace.from_closed(
    ["a", "b", "c"],
    [set(s) for r in range(4) for s in itertools.combinations("abc", r)],
)


def random_space(rng: random.Random, max_points: int = 6) -> FinSpace:
    return from_subbasis(random_family(rng, max_points, 4))


def random_poset(rng: random.Random, max_points: int = 6) -> Poset:
    n = rng.randint(1, max_points)
    labels = [f"p{i}" for i in range(n)]
    order = labels[:]
    rng.shuffle(order)
    pairs = [
        (order[i], order[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < 0.4
    ]
    return Poset.from_pairs(labels, pairs)


class TestFinSpace:
    def test_from_closed_requires_empty(self):
        with pytest.raises(DomainError):
            FinSpace.from_closed(["a"], [{"a"}])

    def test_from_closed_requires_full(self):
        with pytest.raises(DomainError):
            FinSpace.from_closed(["a"], [set()])

    def test_from_closed_requires_union_closure(self):
        with pytest.raises(DomainError):
            FinSpace.from_closed(
                ["a", "b", "c"], [set(), {"a"}, {"b"}, {"a", "b", "c"}]
            )

    def test_from_closed_requires_intersection_closure(self):
        with pytest.raises(DomainError):
            FinSpace.from_closed(
                ["a", "b", "c"],
                [set(), {"a", "b"}, {"b", "c"}, {"a", "b", "c"}],
            )

    def test_sierpinski_shape(self):
        assert SIERPINSKI.closed_sets() == (
            frozenset(),
            frozenset({"s"}),
            frozenset({"o", "s"}),
        )
        assert SIERPINSKI.is_open({"o"})
        assert not SIERPINSKI.is_open({"s"})

    def test_minimal_opens(self):
        assert [SIERPINSKI.minimal_open_mask(i) for i in range(2)] == [0b01, 0b11]

    @pytest.mark.parametrize("i", [-1, -3, 2, 10])
    def test_minimal_open_mask_checks_its_index(self, i):
        with pytest.raises(DomainError, match=f"^point index {i} is out of range$"):
            SIERPINSKI.minimal_open_mask(i)

    def test_closure_basics(self):
        assert SIERPINSKI.closure({"o"}) == frozenset({"o", "s"})
        assert SIERPINSKI.closure({"s"}) == frozenset({"s"})
        assert SIERPINSKI.closure(set()) == frozenset()

    def test_closure_laws_random(self):
        rng = random.Random(61)
        for _ in range(40):
            sp = random_space(rng, 6)
            pts = sp.carrier.points
            y = frozenset(p for p in pts if rng.random() < 0.5)
            z = frozenset(p for p in pts if rng.random() < 0.5)
            cy = sp.closure(y)
            assert y <= cy
            assert sp.closure(cy) == cy
            assert sp.closure(y | z) == cy | sp.closure(z)
            assert sp.is_closed(cy)

    def test_t0_violation(self):
        assert SIERPINSKI.t0_violation() is None
        assert CHAOTIC.t0_violation() == ("a", "b")

    def test_json_round_trip(self):
        doc = SIERPINSKI.to_json()
        again = FinSpace.from_json(json.loads(json.dumps(doc)))
        assert again == SIERPINSKI

    def test_from_closed_reads_one_shot_sets_once(self):
        closed = [[], ["b"], ["a", "b"], ["b", "c"], ["a", "b", "c"]]
        once = FinSpace.from_closed(iter("cba"), ((label for label in c) for c in closed))
        assert once == FinSpace.from_closed(["a", "b", "c"], closed)
        one_shot = [[], (label for label in ["b", "z", "y"]), ["a", "b", "c"]]
        with pytest.raises(DomainError, match="^'y' is not a point of the carrier$"):
            FinSpace.from_closed(["a", "b", "c"], (c for c in one_shot))

    def test_from_closed_names_an_unhashable_label(self):
        with pytest.raises(DomainError, match=r"^\{'a': 1\} is not a point of the carrier$"):
            FinSpace.from_closed("ab", [[], [{"a": 1}], ["a", "b"]])

    def test_plain_constructor_rejects_stray_bits(self):
        c = Carrier.of(["a"])
        with pytest.raises(DomainError):
            FinSpace(c, frozenset({0, 0b10}))

    def test_queries_do_not_list_closed_sets(self):
        # 64 singletons generate the discrete space: 2**64 closed sets
        labels = [f"x{i:02d}" for i in range(64)]
        space = from_subbasis(SetFamily.of(labels, [{x} for x in labels]))
        assert is_spectral(space).spectral
        patched = patch_topology(space)
        assert patched == space
        hasse_dot(specialization_order(space))
        assert generic_closure(space, labels[:3]) == frozenset(labels[:3])
        assert is_continuous({x: x for x in labels}, space, patched)
        assert space.is_closed(labels[:5]) and space.is_open(labels[5:])
        # 17 singletons give 2**17 closed sets, past the listing cap
        singles = ultra_topology(SetFamily.of(labels[:17], [{x} for x in labels[:17]]))
        for sp in (space, patched, singles):
            sp.validate()
            assert "closed_masks" not in sp.__dict__

    @pytest.mark.parametrize("closures, message", [
        ((0b10, 0b10), "the whole carrier must be closed"),  # cl{a} misses a
        ((0b011, 0b110, 0b100), "not closed under intersection"),  # b in cl{a}, cl{b} not
    ])
    def test_closures_that_are_no_preorder_fail_validation(self, closures, message):
        carrier = Carrier.of("abc"[:len(closures)])
        with pytest.raises(DomainError, match=message):
            FinSpace._of_closures(carrier, closures).validate()

    def test_listing_closed_sets_is_bounded(self, monkeypatch):
        monkeypatch.setattr(core, "MAX_CLOSED_SETS", 8)

        def chain(n):  # n + 1 closed sets
            labels = [f"x{i}" for i in range(n)]
            return poset_to_space(Poset.from_pairs(labels, zip(labels, labels[1:])))

        assert len(chain(7).closed_sets()) == 8
        with pytest.raises(DomainError, match="capped at 8 sets"):
            chain(8).closed_sets()

    def test_listing_key_orders_by_size_then_labels(self):
        from test_oracles import listing_key  # test_oracles imports this module

        rng = random.Random(31)
        for _ in range(300):
            n = rng.randint(1, 70)
            carrier = Carrier.of(f"x{i:02d}" for i in range(n))
            wide = 1 << (n + rng.randint(0, 12))  # bits past the carrier too
            masks = [rng.randrange(wide) & rng.randrange(wide) for _ in range(rng.randint(0, 40))]
            masks += [m | rng.randrange(wide) & ~carrier.full_mask for m in masks[:5]]
            expect = sorted(masks, key=lambda m: (len(carrier.tuple_of(m)), carrier.tuple_of(m)))
            assert sorted(masks, key=listing_key(carrier)) == expect


class TestSubbasis:
    def test_generated_topology_is_coarsest(self):
        f = SetFamily.of(["a", "b", "c"], [{"a", "b"}, {"b", "c"}])
        sp = from_subbasis(f)
        assert sp.is_open({"a", "b"})
        assert sp.is_open({"b", "c"})
        assert sp.is_open({"b"})
        assert not sp.is_open({"a", "c"})

    def test_every_open_is_union_of_finite_meets(self):
        rng = random.Random(67)
        for _ in range(40):
            f = random_family(rng, 5, 4)
            sp = from_subbasis(f)
            sp.validate()
            subs = [set(s) for _, s in f.members]
            full = set(f.carrier.points)
            meets = {frozenset(full)}
            for r in range(1, len(subs) + 1):
                for combo in itertools.combinations(subs, r):
                    acc = set(full)
                    for s in combo:
                        acc &= s
                    meets.add(frozenset(acc))
            opens = {frozenset()}
            frontier = set(meets)
            while frontier:
                opens |= frontier
                frontier = {
                    a | b for a in opens for b in meets if a | b not in opens
                }
            got = {sp.carrier.labels_of(m) for m in sp.open_masks}
            assert got == opens


class TestUltraTopology:
    def test_worked_example(self):
        f = SetFamily.of(["a", "b", "c"], [{"a", "b"}])
        sp = ultra_topology(f)
        assert sp.closed_sets() == (
            frozenset(),
            frozenset({"c"}),
            frozenset({"a", "b"}),
            frozenset({"a", "b", "c"}),
        )

    def test_closed_sets_are_exactly_stable_sets(self):
        rng = random.Random(71)
        for _ in range(60):
            f = random_family(rng, 6, 4)
            sp = ultra_topology(f)
            assert set(sp.closed_masks) == brute_force_stable_masks(f)

    def test_valid_topology(self):
        rng = random.Random(73)
        for _ in range(30):
            f = random_family(rng, 6, 4)
            ultra_topology(f).validate()

    def test_clopen_partition(self):
        rng = random.Random(79)
        for _ in range(30):
            f = random_family(rng, 6, 4)
            sp = ultra_topology(f)
            assert sp.open_masks == sp.closed_masks


class TestPoset:
    def test_from_pairs_takes_transitive_closure(self):
        p = Poset.from_pairs(["a", "b", "c"], [("a", "b"), ("b", "c")])
        assert p.leq("a", "c")

    def test_from_pairs_rejects_cycles(self):
        with pytest.raises(DomainError):
            Poset.from_pairs(["a", "b"], [("a", "b"), ("b", "a")])

    def test_down_sets(self):
        p = Poset.from_pairs(["a", "b", "c"], [("a", "b"), ("a", "c")])
        assert p.down("a") == frozenset({"a"})
        assert p.down("b") == frozenset({"a", "b"})

    def test_covers_drop_transitive_edges(self):
        p = Poset.from_pairs(["a", "b", "c"], [("a", "b"), ("b", "c")])
        assert p.covers() == (("a", "b"), ("b", "c"))

    def test_rejects_stray_labels(self):
        with pytest.raises(DomainError):
            Poset.from_pairs(["a"], [("a", "z")])

    def test_least_stray_pair_is_named_under_every_hash_seed(self):
        """A frozenset of pairs iterates in an order that string hashing, random
        per process, decides; the least stray pair is named, label by label."""
        script = (
            "from ultratop import Carrier, DomainError, Poset\n"
            "pairs = frozenset({('a', 'a'), ('b', 'b'), ('a', 'x'), ('y', 'b'), ('z', 'a')})\n"
            "try:\n"
            "    Poset(Carrier.of('ab'), pairs)\n"
            "except DomainError as e:\n"
            "    print(e)\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        for seed in range(6):
            env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": str(seed)}
            run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                                 env=env, timeout=120)
            assert (run.returncode, run.stdout, run.stderr) == (
                0, "relation pair ('a', 'x') leaves the carrier\n", ""), seed

    def test_stray_pairs_of_other_types_sort_after_strings(self):
        c = Carrier.of("ab")
        relation = [("a", "a"), ("b", "b"), (1, "a"), ("b", None), ("b", "q")]
        with pytest.raises(DomainError, match=r"^relation pair \('b', 'q'\) leaves"):
            Poset(c, relation)
        with pytest.raises(DomainError, match=r"^relation pair \('b', None\) leaves"):
            Poset(c, iter(relation[:4]))


class TestSpecializationOrder:
    def test_sierpinski_order(self):
        p = specialization_order(SIERPINSKI)
        # the closed point sits below the generic one
        assert p.leq("s", "o")
        assert not p.leq("o", "s")

    def test_requires_t0(self):
        with pytest.raises(NotT0Error) as exc:
            specialization_order(CHAOTIC)
        assert exc.value.pair == ("a", "b")

    def test_round_trip_space_to_poset(self):
        rng = random.Random(83)
        for _ in range(40):
            p = random_poset(rng, 6)
            sp = poset_to_space(p)
            assert space_to_poset(sp) == p

    def test_orders_and_spaces_share_their_masks(self):
        rng = random.Random(97)
        for _ in range(40):
            p = random_poset(rng, 8)
            assert poset_to_space(p).point_closures == p.downs
            space = poset_to_space(p)
            poset = specialization_order(space)
            assert poset.downs == space.point_closures
            hasse_dot(poset)
            assert "relation" not in poset.__dict__  # no label pairs were built
            assert poset.relation == p.relation and "relation" in poset.__dict__

    def test_round_trip_poset_to_space(self):
        # on finite T0 spaces, closing the order recovers the closed sets
        rng = random.Random(89)
        seen_t0 = 0
        for _ in range(80):
            sp = random_space(rng, 5)
            if sp.t0_violation() is not None:
                continue
            seen_t0 += 1
            assert poset_to_space(specialization_order(sp)) == sp
        assert seen_t0 >= 10

    def test_leq_matches_point_closures(self):
        rng = random.Random(97)
        for _ in range(40):
            sp = random_space(rng, 5)
            if sp.t0_violation() is not None:
                continue
            p = specialization_order(sp)
            for x in sp.carrier.points:
                for y in sp.carrier.points:
                    assert p.leq(y, x) == (y in sp.closure({x}))


class TestSpectral:
    def test_sierpinski_is_spectral(self):
        rep = is_spectral(SIERPINSKI)
        assert rep.spectral
        assert rep.compact and rep.t0 and rep.sober and rep.compact_open_basis
        assert rep.t0_witness is None and rep.sober_witness is None

    def test_chaotic_pair_is_not(self):
        rep = is_spectral(CHAOTIC)
        assert not rep.spectral
        assert rep.t0_witness == ("a", "b")
        assert not rep.sober
        assert rep.sober_witness == ("a", "b")

    def test_finite_spectral_iff_t0(self):
        rng = random.Random(101)
        for _ in range(60):
            sp = random_space(rng, 6)
            rep = is_spectral(sp)
            assert rep.spectral == (sp.t0_violation() is None)
            assert rep.compact

    def test_report_json(self):
        doc = is_spectral(SIERPINSKI).to_json()
        assert doc["spectral"] is True
        assert doc["t0_witness"] is None
        json.dumps(doc)


class TestPatch:
    def test_t0_patch_is_discrete(self):
        rng = random.Random(103)
        for _ in range(40):
            sp = random_space(rng, 5)
            if sp.t0_violation() is not None:
                continue
            patch = patch_topology(sp)
            assert len(patch.closed_masks) == 1 << len(sp.carrier)

    def test_patch_blocks_are_indistinguishability_classes(self):
        rng = random.Random(107)
        for _ in range(40):
            sp = random_space(rng, 6)
            patch = patch_topology(sp)
            singles = {
                frozenset(patch.closure({x})) for x in sp.carrier.points
            }
            expect = set()
            for x in sp.carrier.points:
                cl_x = sp.closure({x})
                expect.add(
                    frozenset(
                        y for y in sp.carrier.points if sp.closure({y}) == cl_x
                    )
                )
            assert singles == expect

    def test_patch_refines_original(self):
        rng = random.Random(109)
        for _ in range(30):
            sp = random_space(rng, 5)
            patch = patch_topology(sp)
            assert sp.closed_masks <= patch.closed_masks

    def test_patch_matches_ultra_topology_of_subbasis(self):
        # generating family and generated space induce the same patch partition
        rng = random.Random(113)
        for _ in range(40):
            f = random_family(rng, 6, 4)
            assert patch_topology(from_subbasis(f)) == ultra_topology(f)


class TestGenericClosure:
    def test_sierpinski(self):
        assert generic_closure(SIERPINSKI, {"s"}) == frozenset({"o", "s"})
        assert generic_closure(SIERPINSKI, {"o"}) == frozenset({"o"})

    def test_definition_oracle(self):
        rng = random.Random(127)
        for _ in range(40):
            sp = random_space(rng, 5)
            pts = sp.carrier.points
            y = frozenset(p for p in pts if rng.random() < 0.5)
            got = generic_closure(sp, y)
            expect = frozenset(
                x for x in pts if sp.closure({x}) & y
            )
            assert got == expect

    def test_is_a_closure_operator(self):
        rng = random.Random(131)
        for _ in range(40):
            sp = random_space(rng, 5)
            pts = sp.carrier.points
            y = frozenset(p for p in pts if rng.random() < 0.5)
            gy = generic_closure(sp, y)
            assert y <= gy
            assert generic_closure(sp, gy) == gy


class TestContinuity:
    def test_identity_is_continuous(self):
        rng = random.Random(137)
        for _ in range(20):
            sp = random_space(rng, 5)
            ident = {p: p for p in sp.carrier.points}
            assert is_continuous(ident, sp, sp)

    def test_constant_to_closed_point(self):
        const = {"a": "s", "b": "s", "c": "s"}
        assert is_continuous(const, DISCRETE3, SIERPINSKI)

    def test_known_discontinuity(self):
        # indiscrete domain cannot separate points the codomain separates
        m = {"a": "o", "b": "s"}
        assert not is_continuous(m, CHAOTIC, SIERPINSKI)

    def test_requires_total_map(self):
        with pytest.raises(DomainError):
            is_continuous({"o": "o"}, SIERPINSKI, SIERPINSKI)

    def test_requires_codomain_images(self):
        with pytest.raises(DomainError):
            is_continuous({"o": "z", "s": "s"}, SIERPINSKI, SIERPINSKI)

    def test_preimage_criterion_oracle(self):
        rng = random.Random(139)
        for _ in range(40):
            dom = random_space(rng, 4)
            cod = random_space(rng, 4)
            mapping = {
                x: rng.choice(cod.carrier.points) for x in dom.carrier.points
            }
            expect = all(
                dom.is_closed(
                    frozenset(
                        x for x in dom.carrier.points if mapping[x] in c
                    )
                )
                for c in cod.closed_sets()
            )
            assert is_continuous(mapping, dom, cod) == expect


class TestUltraTransport:
    def test_preimages_present(self):
        dom = SetFamily.of(["a", "b"], [{"a"}, {"b"}, set()])
        cod = SetFamily.of(["x", "y"], [{"x"}])
        rep = ultra_transport({"a": "x", "b": "y"}, dom, cod)
        assert rep.preimages_in_family
        assert rep.missing == ()
        assert rep.continuous is True

    def test_missing_preimage_reported(self):
        dom = SetFamily.of(["a", "b"], [{"a", "b"}])
        cod = SetFamily.of(["x", "y"], [{"x"}], names=["half"])
        rep = ultra_transport({"a": "x", "b": "y"}, dom, cod)
        assert not rep.preimages_in_family
        assert rep.missing == ("half",)
        assert rep.continuous is None

    def test_hypothesis_forces_continuity(self):
        rng = random.Random(149)
        hits = 0
        for _ in range(200):
            dom = random_family(rng, 5, 4)
            cod = random_family(rng, 4, 3)
            mapping = {
                x: rng.choice(cod.carrier.points) for x in dom.carrier.points
            }
            rep = ultra_transport(mapping, dom, cod)
            if rep.preimages_in_family:
                hits += 1
                assert rep.continuous is True
        assert hits >= 5


class TestHasseDot:
    def test_sierpinski_dot(self):
        p = specialization_order(SIERPINSKI)
        dot = hasse_dot(p, "sierpinski")
        assert dot == (
            'digraph "sierpinski" {\n'
            "  rankdir=BT;\n"
            '  "o";\n'
            '  "s";\n'
            '  "s" -> "o";\n'
            "}\n"
        )

    def test_quotes_awkward_labels(self):
        p = Poset.from_pairs(['a"b', "c"], [('a"b', "c")])
        dot = hasse_dot(p)
        assert '"a\\"b"' in dot

    def test_deterministic(self):
        rng = random.Random(151)
        for _ in range(10):
            p = random_poset(rng, 5)
            assert hasse_dot(p) == hasse_dot(p)
