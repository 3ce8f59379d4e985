import gc
import itertools
import json
import math
import random
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from ultratop import (
    DomainError,
    FiniteRing,
    Ideal,
    PrincipalUltrafilter,
    RingEmbedding,
    RingHom,
    SetFamily,
    Subring,
    UltratopError,
    a_ultra,
    all_ideals,
    atoms,
    fip_check,
    from_subbasis,
    generic_closure,
    gf,
    integrality_certificate,
    intermediate_rings,
    is_continuous,
    is_integral,
    is_integrally_closed_in,
    is_spectral,
    is_stable,
    limit_set,
    overring_family,
    overring_space,
    prime_ideals,
    principal_ideal,
    principal_open_family,
    product,
    spec_functor,
    spec_space,
    specialization_order,
    stable_closure,
    subring_closure,
    ultrafilter_prime,
    vanishing_set,
    zmod,
)
from ultratop import core, rings
from test_cli import call_main


def divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def prime_divisors(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def f2_into_f16() -> RingEmbedding:
    f2, f16 = gf(2), gf(16)
    return RingEmbedding.of(f2, f16, {"0": "0", "1": "1"})


def f4_into_f16() -> RingEmbedding:
    f4, f16 = gf(4), gf(16)
    base = {"0": "0", "1": "1"}
    for a, b in itertools.permutations(["6", "7"]):
        try:
            return RingEmbedding.of(f4, f16, {**base, "2": a, "3": b})
        except DomainError:
            continue
    raise AssertionError("no embedding of the four-element field found")


class TestFiniteRing:
    def test_zmod_tables(self):
        r = zmod(6)
        assert r.size == 6
        assert r.add[4][5] == 3
        assert r.mul[4][5] == 2
        assert r.neg == (0, 5, 4, 3, 2, 1)
        for n in range(2, 65):  # the residue tables at every size
            r = zmod(n)
            assert (r.elements, r.zero, r.one, r.name) == (
                tuple(map(str, range(n))), 0, 1, f"Z/{n}")
            assert r.add == tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
            assert r.mul == tuple(tuple(i * j % n for j in range(n)) for i in range(n))

    def test_zmod_bounds(self):
        with pytest.raises(DomainError):
            zmod(1)
        with pytest.raises(DomainError):
            zmod(65)

    def test_rejects_noncommutative_table(self):
        r = zmod(2)
        bad_mul = ((0, 0), (1, 1))
        with pytest.raises(DomainError):
            FiniteRing(r.elements, r.add, bad_mul, 0, 1)

    @pytest.mark.parametrize(
        "n, change, message",
        [
            (65, {}, "operation tables are capped at 64 elements"),
            (4, {"elements": ["0", "1", "1", "3"]}, "element labels must be pairwise distinct"),
            (4, {"zero": 4}, "zero and one must be element indices"),
            (4, {"one": -1}, "zero and one must be element indices"),
        ],
    )
    def test_document_refusals_are_two(self, n, change, message):
        # the residue tables, built here since zmod itself stops at 64
        doc = {"elements": list(map(str, range(n))),
               "add": [[(i + j) % n for j in range(n)] for i in range(n)],
               "mul": [[i * j % n for j in range(n)] for i in range(n)], "zero": 0, "one": 1,
               **change}
        with pytest.raises(DomainError, match=f"^{message}$"):
            FiniteRing.from_json(doc)
        assert call_main(["spec", "-"], doc) == (2, "", f"domain error: {message}\n")

    def test_rejects_zero_equal_one(self):
        r = zmod(2)
        with pytest.raises(DomainError):
            FiniteRing(r.elements, r.add, r.mul, 0, 0)

    def test_rejects_broken_distributivity(self):
        # swap a single product entry in Z/3
        r = zmod(3)
        mul = [list(row) for row in r.mul]
        mul[2][2] = 0
        mul_t = tuple(tuple(row) for row in mul)
        with pytest.raises(DomainError):
            FiniteRing(r.elements, r.add, mul_t, 0, 1)

    def test_idx_and_label(self):
        r = zmod(5)
        assert r.idx("3") == 3
        assert r.label(3) == "3"
        with pytest.raises(DomainError):
            r.idx("9")
        for i in (-1, 5):
            with pytest.raises(DomainError, match=f"^element index {i} is out of range$"):
                r.label(i)

    def test_json_round_trip(self):
        r = zmod(4)
        doc = json.loads(json.dumps(r.to_json()))
        again = FiniteRing.from_json(doc, name="Z/4")
        assert again == r

    def test_product_is_componentwise(self):
        r = product(zmod(2), zmod(3))
        assert r.size == 6
        i = r.idx("(1,2)")
        j = r.idx("(1,1)")
        assert r.elements[r.add[i][j]] == "(0,0)"
        assert r.elements[r.mul[i][j]] == "(1,2)"

    def test_product_size_cap(self):
        with pytest.raises(DomainError):
            product(zmod(9), zmod(8))

    def test_additive_generators_are_logarithmic(self):
        # each generator at least doubles the subgroup the earlier ones span
        factors = [zmod(n) for n in range(2, 33)] + [gf(q) for q in (4, 8, 9, 16)]
        rings = [zmod(n) for n in range(2, 65)] + [gf(q) for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)]
        rings += [product(a, b) for a in factors for b in factors if a.size * b.size <= 64]
        for r in rings:
            assert len(r._additive_generators) <= math.log2(r.size), r.name

    def test_gf_is_a_field(self):
        for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16):
            f = gf(q)
            assert f.size == q
            for x in range(1, q):
                assert f.one in f.mul[x], f.name

    def test_gf_rejects_non_prime_powers(self):
        for q in (1, 6, 10, 12, 32):
            with pytest.raises(DomainError):
                gf(q)

    def test_gf16_prime_subfield(self):
        f = gf(16)
        assert f.add[1][1] == 0  # characteristic two
        assert f.mul[2][2] != 0


class TestIdeals:
    def test_principal_ideal_example(self):
        ideal = principal_ideal(zmod(12), "2")
        assert ideal.labels == frozenset({"0", "2", "4", "6", "8", "10"})

    def test_all_ideals_of_zmod_match_divisors(self):
        for n in (2, 4, 6, 12, 18, 30):
            r = zmod(n)
            got = {i.members for i in all_ideals(r)}
            expect = {
                frozenset(range(0, n, d)) if d != n else frozenset({0})
                for d in divisors(n)
            }
            assert got == expect, n

    def test_ideal_validation(self):
        r = zmod(4)
        with pytest.raises(DomainError):
            Ideal(r, frozenset({1}))  # no zero
        with pytest.raises(DomainError):
            Ideal(r, frozenset({0, 1}))  # does not absorb
        # the least member out of range, before any sum or product is tested
        for members, named in (({0, -2}, -2), ({0, 1, 7, -1, 4}, -1), ({0, 2, 4, 9}, 4)):
            with pytest.raises(DomainError, match=f"^ideal member {named} is out of range$"):
                Ideal(zmod(4), frozenset(members))

    @pytest.mark.parametrize("index", [-1, 7, 4, -5])
    def test_principal_ideal_checks_its_index(self, index):
        # a negative index does not wrap around to the last elements
        with pytest.raises(DomainError, match=f"^element index {index} is out of range$"):
            principal_ideal(zmod(4), index)

    def test_primes_of_zmod_are_prime_divisors(self):
        for n in range(2, 31):
            r = zmod(n)
            got = {p.members for p in prime_ideals(r)}
            expect = {frozenset(range(0, n, p)) for p in prime_divisors(n)}
            assert got == expect, n

    def test_primes_of_a_field_is_just_zero(self):
        for q in (2, 3, 4, 5, 8, 9):
            primes = prime_ideals(gf(q))
            assert len(primes) == 1
            assert primes[0].members == frozenset({0})

    def test_primes_by_definition(self):
        # oracle: proper ideal P with ab in P => a in P or b in P
        for r in (zmod(12), zmod(8), product(zmod(2), zmod(2)), gf(4)):
            all_sets = {i.members for i in all_ideals(r)}
            whole = frozenset(range(r.size))
            expect = {
                m
                for m in all_sets
                if m != whole
                and all(
                    r.mul[a][b] not in m or a in m or b in m
                    for a in range(r.size)
                    for b in range(r.size)
                )
            }
            assert {p.members for p in prime_ideals(r)} == expect


class TestSpecSpace:
    def test_zmod12_shape(self):
        sp = spec_space(zmod(12))
        assert sp.carrier.points == ("(2)", "(3)")
        # two-point discrete space
        assert len(sp.closed_masks) == 4

    def test_local_ring_has_one_point(self):
        sp = spec_space(zmod(8))
        assert sp.carrier.points == ("(2)",)

    def test_product_splits(self):
        sp = spec_space(product(zmod(2), zmod(2)))
        assert len(sp.carrier) == 2

    def test_zero_ring_rejected(self):
        trivial = FiniteRing(("0",), ((0,),), ((0,),), 0, 0)
        with pytest.raises(DomainError):
            spec_space(trivial)

    def test_always_discrete_and_spectral(self):
        for r in (zmod(12), zmod(30), zmod(64), product(zmod(4), zmod(9)), gf(16)):
            sp = spec_space(r)
            assert len(sp.closed_masks) == 1 << len(sp.carrier)
            assert is_spectral(sp).spectral

    def test_vanishing_sets(self):
        r = zmod(12)
        assert vanishing_set(r, "2") == frozenset({"(2)"})
        assert vanishing_set(r, "3") == frozenset({"(3)"})
        assert vanishing_set(r, "0") == frozenset({"(2)", "(3)"})
        assert vanishing_set(r, "1") == frozenset()
        assert vanishing_set(r, "6") == frozenset({"(2)", "(3)"})

    def test_closed_sets_are_vanishing_loci(self):
        for r in (zmod(12), zmod(30), product(zmod(2), zmod(2))):
            sp = spec_space(r)
            for ideal in all_ideals(r):
                locus = frozenset.intersection(
                    frozenset(sp.carrier.points),
                    *[vanishing_set(r, r.elements[i]) for i in ideal.members],
                )
                assert sp.is_closed(locus)

    def test_principal_open_family(self):
        fam = principal_open_family(zmod(12))
        by_name = {n: s for n, s in fam.members}
        assert by_name["D_1"] == frozenset({"(2)", "(3)"})
        assert by_name["D_0"] == frozenset()
        assert by_name["D_2"] == frozenset({"(3)"})
        assert by_name["D_3"] == frozenset({"(2)"})


class TestSpectrumFromIdempotents:
    """Primes are read off the primitive idempotents and certified; no ideal
    lattice is built, and each ring keeps its own spectrum."""

    @staticmethod
    def sixth_power():
        ring = zmod(2)
        for _ in range(5):
            ring = product(ring, zmod(2))
        return FiniteRing.from_json(ring.to_json())

    def test_spectrum_builds_no_ideal_lattice(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("an ideal lattice was built")

        for module, name in ((core, "_join_closure"), (rings, "_join_closure"),
                             (rings, "_ideal_sets")):
            monkeypatch.setattr(module, name, refuse)
        fresh = self.sixth_power  # a ring with nothing cached yet
        for extra in ([], ["--format", "dot"]):
            code, out, err = call_main(["spec", "-", *extra], fresh().to_json())
            assert (code, err) == (0, "")
        assert "->" not in out and len(out.splitlines()) == 10  # 6 points, 4 other lines
        assert len(prime_ideals(fresh())) == 6
        ring = fresh()
        assert len(vanishing_set(ring, ring.elements[ring.zero])) == 6
        ring = fresh()
        assert len(spec_functor(RingHom(ring, ring, tuple(range(ring.size))))) == 6
        assert len(principal_open_family(fresh()).members) == 64
        label, members = rings._spectrum(fresh())[0]
        ultra = PrincipalUltrafilter.at(label, [label])
        assert ultrafilter_prime(fresh(), ultra).members == members

    @pytest.mark.parametrize(
        "attr, wrong",
        [
            ("_nilpotents", frozenset({0})),  # 6 is nilpotent in Z/12
            ("_nilpotents", frozenset()),
            ("_nilpotents", frozenset(range(12))),
            ("_primitive_idempotents", (1,)),  # 1 = 4 + 9 is not primitive
            ("_primitive_idempotents", (4,)),
            ("_primitive_idempotents", (4, 9, 9)),
        ],
    )
    def test_a_failed_certificate_is_an_internal_error(self, monkeypatch, attr, wrong):
        monkeypatch.setattr(FiniteRing, attr, property(lambda ring: wrong))
        code, out, err = call_main(["spec", "--zmod", "12"])
        assert (code, out) == (3, "")
        assert err.startswith("internal error: ") and err.count("\n") == 1

    def test_the_certificate_holds_on_z12(self):
        ring = zmod(12)
        assert ring._nilpotents == frozenset({0, 6})
        assert ring._primitive_idempotents == (4, 9)

    def test_no_module_cache_keeps_a_ring(self):
        for compute in (spec_space, prime_ideals, all_ideals, principal_open_family):
            ring = product(zmod(4), zmod(6))
            compute(ring)
            ref = weakref.ref(ring)
            del ring
            gc.collect()  # the cached Ideal tuples refer back to their ring
            assert ref() is None, compute.__name__

    def test_warm_ideal_calls_build_no_ideal(self, monkeypatch):
        ring = self.sixth_power()
        cold = prime_ideals(ring), all_ideals(ring)
        assert tuple(map(len, cold)) == (6, 64)

        def refuse(self):
            raise AssertionError("an Ideal was built")

        monkeypatch.setattr(Ideal, "__post_init__", refuse)
        assert (prime_ideals(ring), all_ideals(ring)) == cold
        with pytest.raises(AssertionError, match="an Ideal was built"):
            Ideal(ring, frozenset({ring.zero}))


class TestUltrafilterPrime:
    def test_recovers_the_anchor_prime(self):
        for r in (zmod(12), zmod(30), zmod(8), product(zmod(2), zmod(3)), gf(9)):
            sp = spec_space(r)
            for label in sp.carrier.points:
                u = PrincipalUltrafilter.at(label, sp.carrier.points)
                ideal = ultrafilter_prime(r, u)
                # the result is one of the primes, namely the anchor's
                assert any(p.members == ideal.members for p in prime_ideals(r))
                for x in ideal.members:
                    assert label in vanishing_set(r, r.elements[x])

    def test_matches_vanishing_membership(self):
        # x lands in the ultrafilter prime iff the anchor prime contains x
        r = zmod(30)
        sp = spec_space(r)
        for label in sp.carrier.points:
            u = PrincipalUltrafilter.at(label, sp.carrier.points)
            ideal = ultrafilter_prime(r, u)
            for x in range(r.size):
                assert (x in ideal.members) == (
                    label in vanishing_set(r, r.elements[x])
                )

    def test_limit_set_cross_check(self):
        # the ultrafilter limit in the principal-open family is the anchor point
        r = zmod(12)
        fam = principal_open_family(r)
        for label in fam.carrier.points:
            u = PrincipalUltrafilter.at(label, fam.carrier.points)
            assert limit_set(fam, u) == frozenset({label})

    def test_rejects_stray_base(self):
        with pytest.raises(DomainError, match="^ultrafilter base must consist of spectrum points$"):
            ultrafilter_prime(
                zmod(12), PrincipalUltrafilter.at("(5)", ["(5)"])
            )


class TestHoms:
    def test_quotient_map(self):
        h = RingHom.of(zmod(12), zmod(6), {str(i): str(i % 6) for i in range(12)})
        assert h.apply("7") == "1"
        assert not h.is_injective

    def test_every_reduction_is_a_homomorphism(self):
        for m in range(2, 65):
            for d in divisors(m)[1:]:
                RingHom(zmod(m), zmod(d), tuple(i % d for i in range(m)))

    def test_rejects_the_zero_ring_into_a_nonzero_ring(self):
        zero = FiniteRing(("0",), ((0,),), ((0,),), 0, 0)
        RingHom(zero, zero, (0,))
        with pytest.raises(DomainError, match="does not preserve addition"):
            RingHom(zero, zmod(2), (1,))

    def test_rejects_non_homomorphism(self):
        with pytest.raises(DomainError):
            RingHom.of(zmod(2), zmod(3), {"0": "0", "1": "1"})

    def test_rejects_partial_map(self):
        with pytest.raises(DomainError):
            RingHom.of(zmod(2), zmod(2), {"0": "0"})

    def test_rejects_wrong_one(self):
        with pytest.raises(DomainError):
            RingHom.of(zmod(2), zmod(4), {"0": "0", "1": "2"})

    def test_frobenius_on_gf4(self):
        f4 = gf(4)
        frob = {f4.elements[x]: f4.elements[f4.mul[x][x]] for x in range(4)}
        h = RingHom.of(f4, f4, frob)
        assert h.is_injective
        assert h.apply("2") == "3"

    def test_embedding_requires_injectivity(self):
        with pytest.raises(DomainError):
            RingEmbedding.of(
                zmod(12), zmod(6), {str(i): str(i % 6) for i in range(12)}
            )

    def test_crt_isomorphism(self):
        # Z/6 -> Z/2 x Z/3 by reduction in each factor
        r6, r23 = zmod(6), product(zmod(2), zmod(3))
        h = RingEmbedding.of(
            r6, r23, {str(i): f"({i % 2},{i % 3})" for i in range(6)}
        )
        assert h.is_injective


class TestIntermediateRings:
    def test_subring_closure_adds_inverses(self):
        r = zmod(6)
        got = subring_closure(r, {r.idx("2")})
        assert got == frozenset(range(6))  # 1 + 2 = 3, etc: everything

    def test_subring_validation(self):
        r = zmod(4)
        with pytest.raises(DomainError):
            Subring(r, frozenset({0}))  # missing one
        with pytest.raises(DomainError):
            Subring(r, frozenset({0, 1}))  # 1+1=2 escapes
        # the least member out of range, not an IndexError from a sum or product
        for members, named in (({0, 1, 2, 3, 9}, 9), ({0, 1, 5, -3}, -3), ({0, 1, 4}, 4)):
            with pytest.raises(DomainError, match=f"^subring member {named} is out of range$"):
                Subring(zmod(4), frozenset(members))

    @pytest.mark.parametrize("seed, named", [([-1], -1), ([2, 4], 4), ([1, -3, 9], -3)])
    def test_subring_closure_checks_its_seed(self, seed, named):
        with pytest.raises(DomainError, match=f"^element index {named} is out of range$"):
            subring_closure(zmod(4), seed)

    def test_prime_field_tower_in_gf16(self):
        rings = intermediate_rings(f2_into_f16())
        assert [r.size for r in rings] == [2, 4, 16]
        f4 = rings[1]
        assert f4.labels == frozenset({"0", "1", "6", "7"})

    def test_no_room_between_f4_and_f16(self):
        rings = intermediate_rings(f4_into_f16())
        assert [r.size for r in rings] == [4, 16]

    def test_diagonal_in_product(self):
        r2 = zmod(2)
        sq = product(r2, r2)
        emb = RingEmbedding.of(r2, sq, {"0": "(0,0)", "1": "(1,1)"})
        rings = intermediate_rings(emb)
        assert [r.size for r in rings] == [2, 4]

    def test_every_result_contains_the_image(self):
        for emb in (f2_into_f16(), f4_into_f16()):
            image = frozenset(emb.mapping)
            for ring in intermediate_rings(emb):
                assert image <= ring.members

    def test_exhaustive_against_brute_force(self):
        # all subsets of Z/2 x Z/2 that form subrings containing the image
        r2 = zmod(2)
        sq = product(r2, r2)
        emb = RingEmbedding.of(r2, sq, {"0": "(0,0)", "1": "(1,1)"})
        expect = set()
        image = frozenset(emb.mapping)
        for r in range(1, 5):
            for combo in itertools.combinations(range(4), r):
                cand = frozenset(combo)
                if not image <= cand:
                    continue
                try:
                    Subring(sq, cand)
                except DomainError:
                    continue
                expect.add(cand)
        assert {r.members for r in intermediate_rings(emb)} == expect

    def test_ambient_cap(self):
        emb = RingEmbedding.of(zmod(2), product(gf(4), gf(16)), {"0": "(0,0)", "1": "(1,1)"})
        with pytest.raises(DomainError, match="capped at 32 ambient elements"):
            intermediate_rings(emb)


class TestOverringSpace:
    def test_family_members_are_loci(self):
        emb = f2_into_f16()
        fam = overring_family(emb)
        rings = intermediate_rings(emb)
        by_name = dict(fam.members)
        f4_label = rings[1].label()
        top_label = rings[2].label()
        bottom_label = rings[0].label()
        assert by_name["U_0"] == frozenset(fam.carrier.points)
        assert by_name["U_6"] == frozenset({f4_label, top_label})
        assert by_name["U_2"] == frozenset({top_label})
        assert bottom_label in by_name["U_1"]

    def test_space_is_spectral(self):
        for emb in (f2_into_f16(), f4_into_f16()):
            assert is_spectral(overring_space(emb)).spectral

    def test_closure_is_subring_containment(self):
        emb = f2_into_f16()
        sp = overring_space(emb)
        rings = intermediate_rings(emb)
        for r in rings:
            cl = sp.closure({r.label()})
            expect = frozenset(
                s.label() for s in rings if s.members <= r.members
            )
            assert cl == expect

    def test_specialization_order_is_containment(self):
        emb = f2_into_f16()
        sp = overring_space(emb)
        p = specialization_order(sp)
        rings = {r.label(): r for r in intermediate_rings(emb)}
        for a in rings:
            for b in rings:
                assert p.leq(a, b) == (rings[a].members <= rings[b].members)

    def test_a_ultra_recovers_each_ring(self):
        emb = f2_into_f16()
        fam = overring_family(emb)
        for ring in intermediate_rings(emb):
            u = PrincipalUltrafilter.at(ring.label(), fam.carrier.points)
            assert a_ultra(emb, u) == ring

    def test_a_ultra_rejects_stray_base(self):
        emb = f2_into_f16()
        with pytest.raises(DomainError,
                           match="^ultrafilter base must consist of intermediate rings$"):
            a_ultra(emb, PrincipalUltrafilter.at("junk", ["junk"]))


class TestIntegrality:
    def test_member_gets_linear_certificate(self):
        emb = f2_into_f16()
        f4 = intermediate_rings(emb)[1]
        cert = integrality_certificate(f4, "1")
        assert cert.degree == 1
        assert cert.verify()

    def test_outsider_gets_power_certificate(self):
        emb = f2_into_f16()
        f2 = intermediate_rings(emb)[0]
        cert = integrality_certificate(f2, "7")
        assert cert.degree >= 2
        assert cert.verify()
        assert all(c in f2.members for c in cert.coeffs)

    def test_certificate_is_honest(self):
        # re-evaluate the polynomial by hand
        emb = f2_into_f16()
        f16 = emb.target
        f2 = intermediate_rings(emb)[0]
        for label in f16.elements:
            cert = integrality_certificate(f2, label)
            b = f16.idx(label)
            acc = f16.zero
            for c in reversed(cert.coeffs):
                acc = f16.add[f16.mul[acc][b]][c]
            assert acc == f16.zero
            assert cert.coeffs[-1] == f16.one

    def test_everything_is_integral(self):
        emb = f2_into_f16()
        for ring in intermediate_rings(emb):
            for label in emb.target.elements:
                assert is_integral(ring, label)

    def test_closure_report(self):
        emb = f2_into_f16()
        for ring in intermediate_rings(emb):
            rep = is_integrally_closed_in(ring)
            assert rep.holds
            assert len(rep.certificates) == emb.target.size
            assert all(c.verify() for c in rep.certificates)


class TestSpecFunctor:
    def test_quotient_contraction(self):
        h = RingHom.of(zmod(12), zmod(6), {str(i): str(i % 6) for i in range(12)})
        assert spec_functor(h) == {"(2)": "(2)", "(3)": "(3)"}

    def test_inclusion_into_product(self):
        r2 = zmod(2)
        sq = product(r2, r2)
        emb = RingEmbedding.of(r2, sq, {"0": "(0,0)", "1": "(1,1)"})
        out = spec_functor(emb)
        assert len(out) == 2
        assert set(out.values()) == {"(0)"}

    def test_zariski_continuity(self):
        rng = random.Random(157)
        homs = [
            RingHom.of(zmod(12), zmod(6), {str(i): str(i % 6) for i in range(12)}),
            RingHom.of(zmod(30), zmod(6), {str(i): str(i % 6) for i in range(30)}),
            RingHom.of(zmod(6), zmod(2), {str(i): str(i % 2) for i in range(6)}),
        ]
        for h in homs:
            mapping = spec_functor(h)
            assert is_continuous(
                mapping, spec_space(h.target), spec_space(h.source)
            )

    def test_identity_contraction(self):
        r = zmod(30)
        ident = RingHom.of(r, r, {e: e for e in r.elements})
        assert spec_functor(ident) == {
            p: p for p in spec_space(r).carrier.points
        }


BOUNDARY_RINGS = [zmod(4), gf(4), product(zmod(2), zmod(3)),
                  FiniteRing(("0",), ((0,),), ((0,),), 0, 0)]
BOUNDARY_FAMILY = SetFamily.of(["a", "b", "c", "d"], [{"a", "b"}, {"b"}, {"c"}])
BOUNDARY_SPACE = from_subbasis(BOUNDARY_FAMILY)
BOUNDARY_POSET = specialization_order(BOUNDARY_SPACE)


@st.composite
def boundary_calls(draw):
    """A public call that takes element indices or labels, with drawn arguments of the
    documented types: ints (negative, out of range, bools among them), labels (points
    and not), and lists of them, nested where the labels are read as one set."""
    ring = draw(st.sampled_from(BOUNDARY_RINGS))
    index = st.one_of(st.integers(-ring.size - 2, ring.size + 2), st.booleans())
    indices = st.lists(index, max_size=4)
    element = st.one_of(st.sampled_from(ring.elements), st.text(max_size=2))
    point = st.one_of(st.sampled_from(BOUNDARY_FAMILY.carrier.points), st.text(max_size=2))
    points = st.lists(point, max_size=4)
    nested = st.lists(st.one_of(point, st.lists(point, max_size=2)), max_size=4)
    family, space, poset = BOUNDARY_FAMILY, BOUNDARY_SPACE, BOUNDARY_POSET
    calls = {
        "principal_ideal": (principal_ideal, st.just(ring), st.one_of(index, element)),
        "subring_closure": (subring_closure, st.just(ring), indices),
        "Ideal": (Ideal, st.just(ring), indices.map(frozenset)),
        "Subring": (Subring, st.just(ring), indices.map(frozenset)),
        "FiniteRing.label": (ring.label, index),
        "FiniteRing.idx": (ring.idx, element),
        "vanishing_set": (vanishing_set, st.just(ring), element),
        "RingHom": (RingHom, st.just(ring), st.just(ring), indices.map(tuple)),
        "RingHom.of": (RingHom.of, st.just(ring), st.just(ring), st.dictionaries(element, element)),
        "integrality_certificate": (integrality_certificate,
                                    st.just(Subring(ring, subring_closure(ring, ()))), element),
        "Carrier.mask_of": (family.carrier.mask_of, nested),
        "FinSpace.closure": (space.closure, nested),
        "FinSpace.is_open": (space.is_open, points),
        "generic_closure": (generic_closure, st.just(space), points),
        "Poset.leq": (poset.leq, point, point),
        "Poset.down": (poset.down, point),
        "limit_set": (lambda p, base: limit_set(family, PrincipalUltrafilter.at(p, base)),
                      point, points),
        "is_stable": (is_stable, st.just(family), nested),
        "stable_closure": (stable_closure, st.just(family), points),
        "atom_of": (atoms(family).atom_of, point),
        "fip_check": (fip_check, st.lists(points, max_size=3)),
        "SetFamily.of": (SetFamily.of, st.just(family.carrier), st.lists(points, max_size=3)),
    }
    name = draw(st.sampled_from(sorted(calls)))
    call, *args = calls[name]
    return name, call, [draw(arg) for arg in args]


class TestLibraryBoundary:
    """Indices and labels handed to the library directly are checked where they enter:
    a call returns or raises an UltratopError (the tests of each entry pin the messages
    that name the value).  Library calls take a bool as the int it is (True is 1); the
    JSON readers reject it.  Wrongly typed arguments, such as None for a list, raise
    Python's own TypeError."""

    @settings(max_examples=400, deadline=2000, derandomize=True, database=None)
    @given(boundary_calls())
    def test_every_call_returns_or_raises_an_ultratop_error(self, case):
        name, call, args = case
        try:
            call(*args)
        except UltratopError:
            pass

    def test_a_bool_is_the_int_it_is(self):
        r = zmod(4)
        assert principal_ideal(r, True) == principal_ideal(r, 1)
        assert subring_closure(r, [False]) == subring_closure(r, [0])
        assert r.label(True) == "1"

    @pytest.mark.parametrize("call", [
        lambda: principal_ideal(zmod(4), None),
        lambda: subring_closure(zmod(4), None),
        lambda: Ideal(zmod(4), None),
        lambda: BOUNDARY_SPACE.closure(None),
        lambda: is_stable(BOUNDARY_FAMILY, None),
    ])
    def test_wrongly_typed_arguments_stay_type_errors(self, call):
        with pytest.raises(TypeError):
            call()
