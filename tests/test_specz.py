import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from ultratop import (
    DomainError,
    ZConstructible,
    ZPoint,
    ZSubsetDescriptor,
    d_of,
    is_prime,
    is_ultra_closed,
    limit_points,
    patch_closure,
    prime_factors,
    v_of,
    z_fip_check,
    zariski_closure,
)
from ultratop import specz

PRIME_WINDOW = [p for p in range(2, 100) if all(p % d for d in range(2, p))]


def eval_window(c: ZConstructible) -> frozenset[int]:
    """Concrete shadow of a constructible set on a window of small primes."""
    return frozenset(p for p in PRIME_WINDOW if c.contains_prime(p))


def constructibles(max_primes=4):
    prime = st.sampled_from(PRIME_WINDOW)
    return st.builds(
        ZConstructible,
        st.frozensets(prime, max_size=max_primes),
        st.booleans(),
    )


class TestPrimality:
    def test_small_cases(self):
        # 41 is itself a witness base and must still test prime
        assert [n for n in range(2, 50) if is_prime(n)] == [
            2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
        ]
        assert not is_prime(0)
        assert not is_prime(1)
        assert not is_prime(-7)

    def test_carmichael_numbers(self):
        for n in (561, 1105, 1729, 41041, 825265):
            assert not is_prime(n)

    def test_large_primes(self):
        assert is_prime(2**61 - 1)
        assert is_prime(999983)
        assert not is_prime(2**61 + 1)

    def test_bound_is_enforced(self):
        with pytest.raises(DomainError):
            is_prime(10**25)

    def test_prime_factors(self):
        assert prime_factors(12) == frozenset({2, 3})
        assert prime_factors(-12) == frozenset({2, 3})
        assert prime_factors(97) == frozenset({97})
        assert prime_factors(999966000289) == frozenset({999983})

    def test_prime_factors_rejects_units_and_zero(self):
        with pytest.raises(DomainError):
            prime_factors(0)
        assert prime_factors(1) == frozenset()
        assert prime_factors(-1) == frozenset()

    @pytest.mark.parametrize("call", [prime_factors, v_of, d_of])
    @pytest.mark.parametrize("n", [1.5, 10.0, 0.0, 1.0, "6", None])
    def test_a_non_integer_is_a_type_error(self, call, n):
        # 1.5 once ran without end, and prime_factors(10.0) was {2, 5.0}
        with pytest.raises(TypeError):
            call(n)

    def test_a_bool_is_the_int_it_is(self):
        assert prime_factors(True) == frozenset()
        assert (v_of(True), v_of(False)) == (v_of(1), v_of(0))
        assert (d_of(True), d_of(False)) == (d_of(1), d_of(0))

    def test_a_prime_is_tested_once_per_locus(self, monkeypatch):
        calls = []
        monkeypatch.setattr(specz, "is_prime", lambda n: calls.append(n) or is_prime(n))
        p = 999999999989
        c = d_of(p)
        assert calls == [p]
        assert c == ZConstructible(frozenset({p}), True)

    def test_prime_factors_cap(self):
        with pytest.raises(DomainError):
            prime_factors(10**12 + 1)

    def test_factorization_multiplies_back(self):
        rng = random.Random(163)
        for _ in range(50):
            n = rng.randint(2, 10**6)
            fs = prime_factors(n)
            m = n
            for p in fs:
                assert m % p == 0
                while m % p == 0:
                    m //= p
            assert m == 1


class TestZPoint:
    def test_generic_and_closed(self):
        g = ZPoint.generic()
        assert g.is_generic
        assert str(g) == "(0)"
        p = ZPoint.at(7)
        assert not p.is_generic
        assert str(p) == "(7)"

    def test_rejects_composite(self):
        with pytest.raises(DomainError):
            ZPoint.at(6)


class TestConstructible:
    def test_v_of_examples(self):
        assert v_of(12) == ZConstructible(frozenset({2, 3}), False)
        assert v_of(0).is_whole
        assert v_of(1).is_empty
        assert v_of(-1).is_empty

    def test_d_of_examples(self):
        d = d_of(6)
        assert d.cofinite
        assert d.primes == frozenset({2, 3})
        assert not d.contains_prime(2)
        assert d.contains_prime(5)
        assert d.contains_generic

    def test_rejects_composite_entries(self):
        with pytest.raises(DomainError):
            ZConstructible(frozenset({4}), False)

    def test_generic_membership_tracks_cofiniteness(self):
        assert not v_of(6).contains_generic
        assert d_of(6).contains_generic
        assert ZConstructible.whole().contains(ZPoint.generic())

    @given(constructibles(), constructibles())
    @settings(max_examples=150, deadline=None)
    def test_union_matches_window(self, a, b):
        assert eval_window(a | b) == eval_window(a) | eval_window(b)
        assert (a | b).contains_generic == (a.contains_generic or b.contains_generic)

    @given(constructibles(), constructibles())
    @settings(max_examples=150, deadline=None)
    def test_intersection_matches_window(self, a, b):
        assert eval_window(a & b) == eval_window(a) & eval_window(b)
        assert (a & b).contains_generic == (
            a.contains_generic and b.contains_generic
        )

    @given(constructibles())
    @settings(max_examples=100, deadline=None)
    def test_complement_involution(self, a):
        assert ~~a == a
        assert eval_window(~a) == frozenset(PRIME_WINDOW) - eval_window(a)
        assert (~a).contains_generic != a.contains_generic

    @given(constructibles(), constructibles(), st.integers(-(10**6), 10**6))
    @settings(max_examples=150, deadline=None)
    def test_untested_results_are_what_the_tested_constructor_builds(self, a, b, n):
        # results built from primes already known are not tested again
        for c in (~a, a | b, a & b, v_of(n), d_of(n)):
            tested = ZConstructible(c.primes, c.cofinite)
            assert (type(c), repr(c), hash(c)) == (ZConstructible, repr(tested), hash(tested))
            assert c == tested

    @given(constructibles(), constructibles(), constructibles())
    @settings(max_examples=100, deadline=None)
    def test_distributivity(self, a, b, c):
        assert a & (b | c) == (a & b) | (a & c)
        assert a | (b & c) == (a | b) & (a | c)

    @given(constructibles())
    @settings(max_examples=50, deadline=None)
    def test_de_morgan(self, a):
        b = ZConstructible(frozenset({2, 7}), True)
        assert ~(a | b) == ~a & ~b
        assert ~(a & b) == ~a | ~b

    def test_json_round_trip(self):
        for c in (v_of(12), d_of(12), ZConstructible.empty(), ZConstructible.whole()):
            doc = json.loads(json.dumps(c.to_json()))
            assert ZConstructible.from_json(doc) == c

    def test_from_json_rejects_mismatched_generic(self):
        with pytest.raises(DomainError):
            ZConstructible.from_json(
                {"primes": [2], "mode": "finite", "generic": True}
            )

    def test_from_json_rejects_unknown_mode(self):
        with pytest.raises(DomainError):
            ZConstructible.from_json({"primes": [], "mode": "open"})


class TestDescriptor:
    def test_constructible_round_trip(self):
        for c in (v_of(30), d_of(30), ZConstructible.empty(), ZConstructible.whole()):
            assert isinstance(c, ZSubsetDescriptor)
            y = ZSubsetDescriptor(c.primes, c.cofinite, c.generic)
            assert ZConstructible(y.primes, y.cofinite, y.generic) == c

    def test_non_constructible_shapes_are_expressible(self):
        closed_pts = ZSubsetDescriptor.max_points()
        assert closed_pts.has_infinite_prime_support
        assert not closed_pts.contains(ZPoint.generic())
        with pytest.raises(DomainError):
            ZConstructible(closed_pts.primes, closed_pts.cofinite, closed_pts.generic)

    def test_contains_prime_rejects_a_composite(self):
        for d in (ZSubsetDescriptor.finite([2, 3]), ZSubsetDescriptor.max_points()):
            with pytest.raises(DomainError, match="^9 is not a prime number$"):
                d.contains_prime(9)

    def test_is_subset_of(self):
        fin = ZSubsetDescriptor.finite([2, 3])
        assert fin.is_subset_of(ZSubsetDescriptor.finite([2, 3, 5]))
        assert not fin.is_subset_of(ZSubsetDescriptor.finite([2]))
        assert fin.is_subset_of(ZSubsetDescriptor.cofinite_except([5]))
        assert not fin.is_subset_of(ZSubsetDescriptor.cofinite_except([3]))
        cof = ZSubsetDescriptor.cofinite_except([2])
        assert not cof.is_subset_of(fin)
        assert cof.is_subset_of(ZSubsetDescriptor.max_points())
        gen = ZSubsetDescriptor.finite([], generic=True)
        assert not gen.is_subset_of(ZSubsetDescriptor.max_points())
        assert gen.is_subset_of(ZSubsetDescriptor.whole())

    def test_json_round_trip(self):
        for y in (
            ZSubsetDescriptor.finite([2, 5], generic=True),
            ZSubsetDescriptor.max_points(),
            ZSubsetDescriptor.whole(),
            ZSubsetDescriptor.empty(),
        ):
            doc = json.loads(json.dumps(y.to_json()))
            assert ZSubsetDescriptor.from_json(doc) == y


class TestClosures:
    def test_finite_sets_are_ultra_closed(self):
        y = ZSubsetDescriptor.finite([2, 3, 5])
        assert limit_points(y) == y
        assert is_ultra_closed(y)
        assert patch_closure(y) == y

    def test_infinite_support_attracts_the_generic_point(self):
        y = ZSubsetDescriptor.max_points()
        cl = patch_closure(y)
        assert cl.contains(ZPoint.generic())
        assert cl == ZSubsetDescriptor.whole()
        assert not is_ultra_closed(y)
        assert is_ultra_closed(cl)

    def test_cofinite_with_generic_is_closed(self):
        y = ZSubsetDescriptor.cofinite_except([7], generic=True)
        assert is_ultra_closed(y)

    def test_patch_closure_is_idempotent(self):
        cases = [
            ZSubsetDescriptor.finite([11], generic=True),
            ZSubsetDescriptor.max_points(),
            ZSubsetDescriptor.cofinite_except([2, 3]),
            ZSubsetDescriptor.empty(),
        ]
        for y in cases:
            assert patch_closure(patch_closure(y)) == patch_closure(y)
            assert y.is_subset_of(patch_closure(y))

    def test_zariski_closure(self):
        fin = ZSubsetDescriptor.finite([2, 3])
        assert zariski_closure(fin) == fin
        assert zariski_closure(ZSubsetDescriptor.finite([], generic=True)) == (
            ZSubsetDescriptor.whole()
        )
        assert zariski_closure(ZSubsetDescriptor.max_points()) == (
            ZSubsetDescriptor.whole()
        )
        assert zariski_closure(ZSubsetDescriptor.empty()) == (
            ZSubsetDescriptor.empty()
        )

    def test_patch_refines_zariski(self):
        cases = [
            ZSubsetDescriptor.finite([2, 3]),
            ZSubsetDescriptor.finite([5], generic=True),
            ZSubsetDescriptor.max_points(),
            ZSubsetDescriptor.cofinite_except([13], generic=True),
        ]
        for y in cases:
            assert patch_closure(y).is_subset_of(zariski_closure(y))


class TestZFip:
    def test_nested_opens_have_fip(self):
        sets = [d_of(2), d_of(6), d_of(30)]
        res = z_fip_check(sets)
        assert res.has_fip
        assert res.intersection == ZConstructible(frozenset({2, 3, 5}), True)
        assert res.witness is None

    def test_symbolic_verdict_beats_any_window(self):
        # cofinite sets excluding [2..97] still intersect: the verdict cannot
        # be recovered by evaluating on the small-prime window alone
        sets = [d_of(p) for p in PRIME_WINDOW]
        res = z_fip_check(sets)
        assert res.has_fip
        assert res.intersection.cofinite
        assert eval_window(res.intersection) == frozenset()

    def test_disjoint_pair_witnessed(self):
        sets = [v_of(4), v_of(9), ZConstructible.whole()]
        res = z_fip_check(sets)
        assert not res.has_fip
        assert res.witness == (0, 1)
        assert res.intersection is None

    def test_minimal_witness_preferred(self):
        sets = [v_of(6), v_of(10), v_of(15), ZConstructible.empty()]
        res = z_fip_check(sets)
        assert not res.has_fip
        assert res.witness == (3,)

    def test_triple_only_failure(self):
        # pairwise nonempty, empty as a triple
        sets = [v_of(6), v_of(10), v_of(15)]
        res = z_fip_check(sets)
        assert not res.has_fip
        assert res.witness == (0, 1, 2)

    def test_rejects_empty_input(self):
        with pytest.raises(DomainError):
            z_fip_check([])

    @given(st.lists(constructibles(max_primes=3), min_size=1, max_size=5))
    @settings(max_examples=100, deadline=None)
    def test_verdict_matches_normal_form(self, sets):
        res = z_fip_check(sets)
        total = sets[0]
        for c in sets[1:]:
            total = total & c
        assert res.has_fip == (not total.is_empty)
        if res.has_fip:
            assert res.intersection == total
        else:
            inter = sets[res.witness[0]]
            for i in res.witness[1:]:
                inter = inter & sets[i]
            assert inter.is_empty
