"""Seeded workloads for the ultratop benchmark.

Every document and every expected answer is built here from the generator's
own knowledge of what it generated: a poset, a partition into atoms, the
primes it multiplied, the components of a product ring.  Nothing here calls
ultratop.  Library ops receive the ultratop package when they run, so the
traced run can wrap its public functions; the rings workload also receives
it to build the ring objects its library ops take.

An op is a ``CliOp`` (argv plus a stdin document, run in-process through
``ultratop.cli.main``) or a ``LibOp`` (one public library call).
``sizes`` holds the counts that drive each op's cost; the traced run sums
them beside the spans.
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product as cartesian
from typing import Callable

SCHEMA = "v1"
FACTOR_CAP = 10**12


def rng_for(*parts) -> random.Random:
    """A generator whose stream depends only on the given parts."""
    return random.Random(":".join(str(p) for p in parts))


def bits(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if (mask >> i) & 1]


def unions(blocks: list[int]) -> set[int]:
    """Every union of the given masks, the empty union included."""
    out = {0}
    for b in blocks:
        out |= {c | b for c in out}
    return out


# --------------------------------------------------------------------------
# expected outputs


@dataclass
class Expect:
    """Expected output: a JSON value, or a DOT graph as (name, nodes, edges).

    ``text`` is the output in the CLI's documented format.  A byte-identical
    output is accepted without parsing; anything else is parsed and compared.
    """

    kind: str
    value: object
    text: str


def expect_json(value: dict) -> Expect:
    return Expect("json", value, json.dumps(value, indent=2, sort_keys=True) + "\n")


def _dot_quote(label: str) -> str:
    return '"' + label.replace("\\", "\\\\").replace('"', '\\"') + '"'


def expect_dot(name: str, nodes, edges, cli: bool = True) -> Expect:
    lines = [f"// ultratop schema {SCHEMA}"] if cli else []
    lines += [f"digraph {_dot_quote(name)} {{", "  rankdir=BT;"]
    lines += [f"  {_dot_quote(p)};" for p in sorted(nodes)]
    lines += [f"  {_dot_quote(a)} -> {_dot_quote(b)};" for a, b in sorted(edges)]
    lines.append("}")
    return Expect("dot", (name, frozenset(nodes), frozenset(edges)), "\n".join(lines) + "\n")


_Q = r'"((?:[^"\\]|\\.)*)"'
_DOT_HEAD = re.compile(rf"^digraph {_Q} \{{$")
_DOT_NODE = re.compile(rf"^\s*{_Q};$")
_DOT_EDGE = re.compile(rf"^\s*{_Q}\s*->\s*{_Q};$")


def _unquote(s: str) -> str:
    return re.sub(r"\\(.)", r"\1", s)


def parse_dot(text: str):
    name, nodes, edges = None, set(), set()
    for line in text.splitlines():
        if m := _DOT_HEAD.match(line):
            name = _unquote(m.group(1))
        elif m := _DOT_EDGE.match(line):
            edges.add((_unquote(m.group(1)), _unquote(m.group(2))))
        elif m := _DOT_NODE.match(line):
            nodes.add(_unquote(m.group(1)))
    return (name, frozenset(nodes), frozenset(edges))


def output_matches(out: str, expect: Expect) -> bool:
    if out == expect.text:
        return True
    if expect.kind == "json":
        try:
            return json.loads(out) == expect.value
        except ValueError:
            return False
    return parse_dot(out) == expect.value


def sorted_sets(label_sets) -> list[list[str]]:
    """Sets as the CLI lists closed sets: by size, then by sorted labels."""
    keyed = sorted((len(t), t) for t in (tuple(sorted(s)) for s in label_sets))
    return [list(t) for _, t in keyed]


# --------------------------------------------------------------------------
# ops


@dataclass
class CliOp:
    kind: str
    argv: list[str]
    stdin: str
    expect: Expect
    sizes: dict = field(default_factory=dict)


@dataclass
class LibOp:
    kind: str
    call: Callable  # call(ultratop_package) -> result
    check: Callable  # check(result) -> bool
    sizes: dict = field(default_factory=dict)


# --------------------------------------------------------------------------
# spaces: finite spaces from random posets

# bands of closed-set counts; the lower end is raised to n + 1 (a chain)
SMALL, MID, LARGE, HUGE = (0, 64), (65, 256), (257, 700), (701, 1100)


def _poset(rng: random.Random, n: int, band: tuple[int, int]) -> list[int]:
    """Principal down-set masks of a random poset on n points whose lattice
    of down-sets has a size in the band.  Relations are drawn along a random
    linear extension with a probability nudged until the size fits."""
    lo, hi = max(band[0], n + 1), band[1]
    p = rng.random()
    for _ in range(5000):
        below: list[int] = []
        for j in range(n):
            m = 0
            for i in range(j):
                if rng.random() < p:
                    m |= (1 << i) | below[i]
            below.append(m)
        down = [below[j] | (1 << j) for j in range(n)]
        count = len(unions(down))
        if lo <= count <= hi:
            return down
        step = rng.uniform(0.0, 0.15)
        p = min(1.0, p + step) if count > hi else max(0.0, p - step)
    raise RuntimeError(f"no {n}-point poset with {lo}..{hi} down-sets")


@dataclass
class Space:
    labels: list[str]  # sorted; bit k of every mask is labels[k]
    down: list[int]  # closure of each point
    masks: frozenset  # closed sets
    dup: tuple[int, int] | None  # the indistinguishable pair, if any

    def names(self, mask: int) -> list[str]:
        return [self.labels[i] for i in bits(mask)]

    def doc(self) -> str:
        return json.dumps({"carrier": self.labels, "closed": [self.names(m) for m in sorted(self.masks)]})

    def sizes(self, **more) -> dict:
        return {"points": len(self.labels), "topology.closed_in": len(self.masks), **more}


def make_space(rng: random.Random, n: int, band, dup: bool) -> Space:
    """n distinct points, plus a copy of one of them when ``dup``."""
    down = _poset(rng, n, band)
    if dup:
        x = rng.randrange(n)
        down = [d | (1 << n) if (d >> x) & 1 else d for d in down]
        down.append(down[x])
    total = len(down)
    perm = rng.sample(range(total), total)
    moved = [0] * total
    for i, d in enumerate(down):
        moved[perm[i]] = sum(1 << perm[j] for j in bits(d))
    pair = tuple(sorted((perm[x], perm[n]))) if dup else None
    labels = [f"p{k:02d}" for k in range(total)]
    return Space(labels, moved, frozenset(unions(moved)), pair)


def _check_spectral(sp: Space) -> CliOp:
    t0 = sp.dup is None
    report = {
        "compact": True,
        "t0": t0,
        "t0_witness": None if t0 else [sp.labels[i] for i in sp.dup],
        "sober": t0,
        # the one irreducible closed set with two generic points
        "sober_witness": None if t0 else sp.names(sp.down[sp.dup[0]]),
        "compact_open_basis": True,
        "spectral": t0,
    }
    value = {"schema": SCHEMA, "verb": "check-spectral", "carrier": sp.labels, "report": report}
    return CliOp("check-spectral", ["check-spectral", "-"], sp.doc(), expect_json(value), sp.sizes())


def _patch(sp: Space) -> CliOp:
    n = len(sp.labels)
    blocks = [1 << i for i in range(n) if not sp.dup or i not in sp.dup]
    if sp.dup:
        blocks.append((1 << sp.dup[0]) | (1 << sp.dup[1]))
    closed = unions(blocks)  # 2 ** (distinct points) sets
    value = {"schema": SCHEMA, "verb": "patch", "carrier": sp.labels,
             "closed": sorted_sets(sp.names(m) for m in closed)}
    sizes = sp.sizes(**{"topology.closed_out": len(closed)})
    return CliOp("patch", ["patch", "-"], sp.doc(), expect_json(value), sizes)


def _lib_space(ut, sp: Space):
    return ut.FinSpace(ut.Carrier(tuple(sp.labels)), sp.masks)


def _order(sp: Space) -> LibOp:
    covers = []
    for x, dx in enumerate(sp.down):
        strict = dx & ~(1 << x)
        for y in bits(strict):
            if not any((sp.down[z] >> y) & 1 and z != y for z in bits(strict)):
                covers.append((sp.labels[y], sp.labels[x]))
    exp = expect_dot("poset", sp.labels, covers, cli=False)
    return LibOp(
        "order",
        lambda ut: ut.hasse_dot(ut.specialization_order(_lib_space(ut, sp))),
        lambda out: output_matches(out, exp),
        sp.sizes(),
    )


def _generic(rng: random.Random, sp: Space) -> LibOp:
    n = len(sp.labels)
    subset = rng.sample(range(n), rng.randint(1, 3))
    s = sum(1 << i for i in subset)
    exp = frozenset(sp.labels[x] for x in range(n) if sp.down[x] & s)
    names = [sp.labels[i] for i in subset]
    return LibOp(
        "generic_closure",
        lambda ut: ut.generic_closure(_lib_space(ut, sp), names),
        lambda out: out == exp,
        sp.sizes(),
    )


def _continuous(rng: random.Random, sp: Space, variant: int) -> LibOp:
    """A map onto a chain: by height (monotone), by reversed height, or random."""
    n = len(sp.labels)
    height = [0] * n
    for x in sorted(range(n), key=lambda i: sp.down[i].bit_count()):
        height[x] = max((height[y] + 1 for y in bits(sp.down[x]) if y != x), default=0)
    h = max(height) + 1
    f = [height[x] if variant == 0 else h - 1 - height[x] if variant == 1 else rng.randrange(h)
         for x in range(n)]
    exp = all(f[y] <= f[x] for x in range(n) for y in bits(sp.down[x]))
    chain = tuple(f"c{i:02d}" for i in range(h))
    chain_closed = frozenset((1 << i) - 1 for i in range(h + 1))
    mapping = {sp.labels[x]: chain[f[x]] for x in range(n)}
    return LibOp(
        "is_continuous",
        lambda ut: ut.is_continuous(
            mapping, _lib_space(ut, sp), ut.FinSpace(ut.Carrier(chain), chain_closed)
        ),
        lambda out: out is exp,
        sp.sizes(),
    )


def _fit(n: int, band):
    """The band, or the next smaller one that n points can reach."""
    while band[0] > 1 << n:
        band = {MID: SMALL, LARGE: MID, HUGE: LARGE}[band]
    return band


def _spaces_plan(smoke: bool) -> list[tuple[str, int, tuple, bool]]:
    """(kind, distinct points, closed-set band, duplicate a point)."""
    if smoke:
        return [("check-spectral", 4, SMALL, False), ("check-spectral", 4, SMALL, True),
                ("patch", 4, SMALL, True), ("order", 4, SMALL, False),
                ("generic", 4, SMALL, False), ("continuous", 4, SMALL, False)]
    check = {6: [SMALL] * 6, 7: [SMALL] * 5 + [MID], 8: [SMALL] * 5 + [MID] * 3,
             9: [SMALL] * 5 + [MID] * 3 + [LARGE], 10: [SMALL] * 5 + [MID] * 3 + [LARGE] * 2 + [HUGE],
             11: [SMALL] * 6 + [MID] * 2 + [LARGE] * 2, 12: [SMALL] * 6 + [MID] * 2 + [LARGE] * 2}
    plan = []
    for n, bands in check.items():
        plan += [("check-spectral", n, b, n < 12 and i % 4 == 1) for i, b in enumerate(bands)]
    patch = {6: [SMALL] * 4, 7: [SMALL] * 4, 8: [SMALL] * 3 + [MID], 9: [SMALL] * 3 + [MID],
             10: [SMALL] * 14}
    for n, bands in patch.items():
        plan += [("patch", n, b, n < 10 and i % 3 == 1) for i, b in enumerate(bands)]
    for kind in ("order", "generic", "continuous"):
        plan += [(kind, 6 + i % 7, _fit(6 + i % 7, (SMALL, MID, LARGE)[i % 3]), False) for i in range(12)]
    return plan


def spaces_ops(seed, smoke: bool = False) -> list:
    rng = rng_for("spaces", seed)
    ops = []
    for i, (kind, n, band, dup) in enumerate(_spaces_plan(smoke)):
        sp = make_space(rng, n, band, dup)
        if kind == "check-spectral":
            ops.append(_check_spectral(sp))
        elif kind == "patch":
            ops.append(_patch(sp))
        elif kind == "order":
            ops.append(_order(sp))
        elif kind == "generic":
            ops.append(_generic(rng, sp))
        else:
            ops.append(_continuous(rng, sp, i % 3))
    rng.shuffle(ops)
    return ops


# --------------------------------------------------------------------------
# families: set families, FIP lists and Spec(Z) documents


@dataclass
class Family:
    labels: list[str]
    blocks: list[list[str]]  # the atoms
    members: list[list[str]]

    def doc(self) -> dict:
        members = [{"name": f"F{j}", "set": sorted(m)} for j, m in enumerate(self.members)]
        return {"carrier": self.labels, "members": members}


def make_family(rng: random.Random, n: int, a: int) -> Family:
    """n points split into a atoms; members are unions of atoms chosen so
    that no two atoms have the same membership signature."""
    labels = [f"x{k:02d}" for k in range(n)]
    points = rng.sample(labels, n)
    cuts = [0, *sorted(rng.sample(range(1, n), a - 1)), n]
    blocks = [sorted(points[cuts[i]:cuts[i + 1]]) for i in range(a)]
    m = max(1, (a - 1).bit_length()) + rng.randrange(3)
    sigs = rng.sample(range(1 << m), a)
    members = [sorted(p for b, s in zip(blocks, sigs) if (s >> j) & 1 for p in b) for j in range(m)]
    rng.shuffle(labels)
    return Family(labels, blocks, members)


def _family_sizes(fam: Family, **more) -> dict:
    return {"points": len(fam.labels), "core.atoms_out": len(fam.blocks), **more}


def _atoms(fam: Family) -> CliOp:
    value = {"schema": SCHEMA, "verb": "atoms", "carrier": sorted(fam.labels),
             "atoms": sorted(fam.blocks), "element_count": 1 << len(fam.blocks)}
    return CliOp("atoms", ["atoms", "-"], json.dumps(fam.doc()), expect_json(value), _family_sizes(fam))


def _closure(rng: random.Random, fam: Family, stable: bool) -> CliOp:
    if stable:
        chosen = rng.sample(fam.blocks, rng.randint(1, len(fam.blocks)))
        subset = {p for b in chosen for p in b}
    else:
        subset = set(rng.sample(fam.labels, rng.randint(1, 3)))
    closure = sorted(p for b in fam.blocks if subset & set(b) for p in b)
    value = {"schema": SCHEMA, "verb": "closure", "set": sorted(subset), "closure": closure,
             "is_stable": closure == sorted(subset)}
    doc = {"family": fam.doc(), "set": rng.sample(sorted(subset), len(subset))}
    return CliOp("closure", ["closure", "-"], json.dumps(doc), expect_json(value), _family_sizes(fam))


def _ultra(fam: Family) -> CliOp:
    index = {p: i for i, p in enumerate(sorted(fam.labels))}
    carrier = sorted(fam.labels)
    closed = unions([sum(1 << index[p] for p in b) for b in fam.blocks])
    value = {"schema": SCHEMA, "verb": "ultra-topology", "carrier": carrier,
             "closed": sorted_sets([carrier[i] for i in bits(m)] for m in closed)}
    return CliOp("ultra-topology", ["ultra-topology", "-"], json.dumps(fam.doc()), expect_json(value),
                 _family_sizes(fam, **{"topology.closed_out": len(closed)}))


def _transforms(rng: random.Random, k: int) -> LibOp:
    """k disjoint small members: k + 1 intersections, 2^k - 1 unions and
    2k members once complements are added."""
    extra = rng.randint(0, 3)
    sizes = [rng.randint(1, 2) for _ in range(k)]
    labels = [f"t{i:02d}" for i in range(sum(sizes) + extra)]
    points = rng.sample(labels, len(labels))
    blocks, at = [], 0
    for s in sizes:
        blocks.append(frozenset(points[at:at + s]))
        at += s
    counts = (k + 1, (1 << k) - 1, 2 * k)
    members = tuple((f"F{j}", b) for j, b in enumerate(blocks))
    return LibOp(
        "family_transforms",
        lambda ut: ut.family_transforms(ut.SetFamily(ut.Carrier(tuple(labels)), members)),
        lambda out: tuple(len(f.members) for f in out) == counts,
        {"points": len(labels), "core.transform_sets_out": sum(counts)},
    )


def _fip(rng: random.Random, k: int) -> LibOp:
    """Set i misses point u_i and nothing else of U, so every proper
    subfamily meets and the only empty subfamily is the whole list."""
    core_pts = [f"u{i:02d}" for i in range(k)]
    sets = [set(core_pts) - {core_pts[i]} for i in range(k)]
    for j in range(rng.randint(0, 6)):
        missing = rng.randrange(k)
        for i in range(k):
            if i != missing and rng.random() < 0.6:
                sets[i].add(f"z{j:02d}")
    lists = [rng.sample(sorted(s), len(s)) for s in sets]
    witness = tuple(range(k))
    return LibOp(
        "fip_check",
        lambda ut: ut.fip_check(lists),
        lambda out: out.has_fip is False and out.witness == witness and out.intersection is None,
        {"k": k},
    )


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin below 3.3e24."""
    if n < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for p in small:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in small:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


SMALL_PRIMES = [p for p in range(2, 400) if is_prime(p)]


def _large_prime(rng: random.Random) -> int:
    n = rng.randrange(FACTOR_CAP // 2, FACTOR_CAP)
    while not is_prime(n):
        n += 1
    return n


def _specz_fip(rng: random.Random, k: int, large: bool) -> CliOp:
    """k constructible sets whose only empty subfamily is all k of them.

    Up to k = 8: one finite set of k - 1 primes and, for each of them, a
    cofinite set missing it (``large`` puts a prime near 10^12 in a
    ``d_of``).  From k = 9: k finite sets over the first k primes, set i
    holding every prime but the i-th.  Primes up to 37 keep the cost of
    each op independent of the seed: ultratop tests larger ones by
    Miller-Rabin, which costs far more per intersection.
    """
    if k <= 8:
        primes = rng.sample(SMALL_PRIMES[:12], k - 1)
        if large:
            primes[0] = _large_prime(rng)
        if math.prod(primes) <= FACTOR_CAP:
            finite = {"v_of": math.prod(p ** rng.randint(1, 2) for p in primes)}
            if finite["v_of"] > FACTOR_CAP:
                finite = {"v_of": math.prod(primes)}
        else:
            finite = {"primes": sorted(primes), "mode": "finite"}
        sets = []
        for p in primes:
            form = rng.randrange(3)
            if p > 10**6 or form == 0:
                sets.append({"d_of": p})
            elif form == 1:
                sets.append({"d_of": p ** rng.randint(2, 3)})
            else:
                sets.append({"primes": [p], "mode": "cofinite", "generic": True})
        sets.insert(rng.randrange(k), finite)
    else:
        primes = rng.sample(SMALL_PRIMES[:k], k)
        sets = []
        for i in range(k):
            rest = primes[:i] + primes[i + 1:]
            n = math.prod(rest)
            sets.append({"v_of": n} if n <= FACTOR_CAP else {"primes": sorted(rest), "mode": "finite"})
    value = {"schema": SCHEMA, "verb": "specz-fip", "has_fip": False, "intersection": None,
             "witness": list(range(k))}
    return CliOp("specz-fip", ["specz-fip", "-"], json.dumps({"sets": sets}), expect_json(value),
                 {"specz.fip_sets": k, "specz.witness_len": k})


def _specz_closure(rng: random.Random, variant: int) -> CliOp:
    whole = {"primes": [], "mode": "cofinite", "generic": True}
    generic = variant % 2 == 1
    if variant < 2:
        primes = set(rng.sample(SMALL_PRIMES, rng.randint(1, 5)))
        if rng.random() < 0.3:
            primes.add(_large_prime(rng))
        primes = sorted(primes)
        argv = ["specz-closure", "--primes", ",".join(map(str, rng.sample(primes, len(primes))))]
        base = {"primes": primes, "mode": "finite", "generic": generic}
        patch, zariski, closed = base, whole if generic else base, True
    else:
        argv = ["specz-closure", "--primes", "all"]
        base = {"primes": [], "mode": "cofinite", "generic": generic}
        patch, zariski, closed = whole, whole, generic
    if generic:
        argv.append("--generic")
    value = {"schema": SCHEMA, "verb": "specz-closure", "input": base, "patch_closure": patch,
             "zariski_closure": zariski, "is_ultra_closed": closed}
    return CliOp("specz-closure", argv, "", expect_json(value), {})


def families_ops(seed, smoke: bool = False) -> list:
    rng = rng_for("families", seed)
    ops = []
    if smoke:
        fam = make_family(rng, 6, 3)
        return [_atoms(fam), _closure(rng, fam, True), _ultra(fam), _transforms(rng, 3), _fip(rng, 3),
                _specz_fip(rng, 3, False), _specz_closure(rng, 0), _specz_closure(rng, 3)]
    for i in range(24):
        n = 8 + (i * 7) % 17
        ops.append(_atoms(make_family(rng, n, min(n, 2 + i % 11))))
        ops.append(_closure(rng, make_family(rng, n, min(n, 2 + (i * 5) % 11)), i % 2 == 0))
    for i in range(16):
        a = 4 + i % 9
        ops.append(_ultra(make_family(rng, rng.randint(max(12, a), 24), a)))
        ops.append(_specz_closure(rng, i % 4))
    fip_k = (6, 6, 6, 6, 7, 7, 7, 7, 8, 8, 8, 9, 9, 10, 11, 12)
    for k, large in zip(fip_k, [True, False] * 4 + [False] * 8):
        ops.append(_specz_fip(rng, k, large))
    for k in (6, 6, 6, 7, 7, 7, 8, 8, 8, 9, 9, 10):
        ops.append(_transforms(rng, k))
    for i in range(12):
        ops.append(_fip(rng, 6 + i % 7))
    rng.shuffle(ops)
    return ops


# --------------------------------------------------------------------------
# rings: finite commutative rings as products of Z/m and GF(q)

# irreducible moduli over the prime field, coefficients low to high
_GF = {2: (2, 1, ()), 4: (2, 2, (1, 1, 1)), 8: (2, 3, (1, 1, 0, 1)), 9: (3, 2, (1, 0, 1)),
       16: (2, 4, (1, 1, 0, 0, 1))}


@lru_cache(maxsize=None)
def _component_tables(comp: tuple[str, int]):
    """(add, mul) tables of Z/m or GF(q) on the values 0..size-1."""
    kind, q = comp
    if kind == "Z":
        return ([[(a + b) % q for b in range(q)] for a in range(q)],
                [[a * b % q for b in range(q)] for a in range(q)])
    p, k, modulus = _GF[q]
    if k == 1:
        return _component_tables(("Z", p))

    def digits(x):
        return [(x // p**i) % p for i in range(k)]

    def encode(ds):
        return sum(d * p**i for i, d in enumerate(ds))

    def mul(x, y):
        prod = [0] * (2 * k - 1)
        for i, da in enumerate(digits(x)):
            for j, db in enumerate(digits(y)):
                prod[i + j] = (prod[i + j] + da * db) % p
        for deg in range(2 * k - 2, k - 1, -1):
            c, prod[deg] = prod[deg], 0
            for j in range(k):
                prod[deg - k + j] = (prod[deg - k + j] - c * modulus[j]) % p
        return encode(prod[:k])

    add = [[encode((a + b) % p for a, b in zip(digits(x), digits(y))) for y in range(q)] for x in range(q)]
    return add, [[mul(x, y) for y in range(q)] for x in range(q)]


def _size(model) -> int:
    return math.prod(q for _, q in model)


def _prime_divisors(m: int) -> list[int]:
    return [p for p in range(2, m + 1) if m % p == 0 and is_prime(p)]


class Ring:
    """A product ring with a chosen element order and labels.

    Elements are tuples of component values.  The prime ideals are the
    maximal ideals: one component's maximal ideal times the other
    components.  A principal generator of such a prime has that component
    generating the maximal ideal and units everywhere else.
    """

    def __init__(self, model: tuple, order: list[tuple], labels: list[str]):
        self.model, self.order, self.labels = model, order, labels
        self.index = {e: i for i, e in enumerate(order)}
        tabs = [_component_tables(c) for c in model]
        r = range(len(model))

        def table(t):
            return [[self.index[tuple(tabs[c][t][a[c]][b[c]] for c in r)] for b in order] for a in order]

        self.add, self.mul = table(0), table(1)
        self.zero = self.index[tuple(0 for _ in model)]
        self.one = self.index[tuple(1 for _ in model)]

    def doc(self) -> dict:
        return {"elements": self.labels, "add": self.add, "mul": self.mul,
                "zero": self.zero, "one": self.one}

    def primes(self) -> list[tuple[str, list[int]]]:
        """(label, member indices) of each prime, sorted as the CLI sorts them."""
        out = []
        for j, (kind, q) in enumerate(self.model):
            for p in (_prime_divisors(q) if kind == "Z" else [0]):
                def in_max(v):
                    return v % p == 0 if kind == "Z" else v == 0

                def generates(v):
                    return math.gcd(v, q) == p if kind == "Z" else v == 0

                def unit(c, v):
                    return math.gcd(v, self.model[c][1]) == 1 if self.model[c][0] == "Z" else v != 0

                members = [i for i, e in enumerate(self.order) if in_max(e[j])]
                gen = next(i for i, e in enumerate(self.order)
                           if generates(e[j]) and all(unit(c, e[c]) for c in range(len(e)) if c != j))
                out.append((f"({self.labels[gen]})", members))
        return sorted(out)

    def ideal_sizes(self) -> list[int]:
        sizes = [1]
        for kind, q in self.model:
            comp = [q // d for d in range(1, q + 1) if q % d == 0] if kind == "Z" else [1, q]
            sizes = [s * c for s in sizes for c in comp]
        return sorted(sizes)


def make_ring(model: tuple, rng: random.Random | None) -> Ring:
    """Canonical order and labels, or (with ``rng``) a fresh relabeling:
    a random element order and labels tagged so no earlier table repeats."""
    order = list(cartesian(*(range(q) for _, q in model)))

    def name(e):
        return str(e[0]) if len(e) == 1 else "(" + ",".join(map(str, e)) + ")"

    labels = [name(e) for e in order]
    if rng is not None:
        tag = format(rng.getrandbits(32), "08x")
        perm = rng.sample(range(len(order)), len(order))
        order = [order[i] for i in perm]
        labels = [f"{name(e)}.{tag}" for e in order]
    return Ring(model, order, labels)


SPEC_MODELS = [
    *[(("Z", n),) for n in range(2, 65)],
    *[(("Z", a), ("Z", b)) for a in range(2, 33) for b in range(a, 33) if a * b <= 64],
    *[(("GF", q),) for q in (4, 8, 9, 16)],
    *[(("GF", q), ("Z", b)) for q in (4, 8, 9, 16) for b in range(2, 17) if q * b <= 64],
]


def _spec_expect(ring: Ring, name: str, dot: bool) -> Expect:
    primes = ring.primes()
    labels = [lab for lab, _ in primes]
    if dot:  # the spectrum of a finite ring is discrete: no covers
        return expect_dot("spec", labels, [])
    subsets = [[lab for i, lab in enumerate(labels) if (m >> i) & 1] for m in range(1 << len(labels))]
    value = {"schema": SCHEMA, "verb": "spec", "ring": name,
             "primes": [{"label": lab, "members": [ring.labels[i] for i in mem]} for lab, mem in primes],
             "closed": sorted_sets(subsets)}
    return expect_json(value)


def _ring_sizes(ring: Ring, **more) -> dict:
    n = len(ring.primes())
    return {"rings.elements": len(ring.order), "rings.primes_out": n, "topology.closed_out": 1 << n, **more}


def _spec_op(ring: Ring, doc: str, kind: str, ut_ring) -> CliOp | LibOp:
    """One op on a ring: spec (JSON or DOT) on its table, or a library call
    on the ring object built from the same table."""
    if kind == "spec":
        return CliOp("spec", ["spec", "-"], doc, _spec_expect(ring, "", False), _ring_sizes(ring))
    if kind == "spec-dot":
        return CliOp("spec-dot", ["spec", "-", "--format", "dot"], doc, _spec_expect(ring, "", True),
                     _ring_sizes(ring))
    if kind == "all_ideals":
        sizes = ring.ideal_sizes()
        return LibOp(kind, lambda ut: ut.all_ideals(ut_ring),
                     lambda out: sorted(len(i.members) for i in out) == sizes, _ring_sizes(ring))
    primes = {frozenset(mem) for _, mem in ring.primes()}
    return LibOp(kind, lambda ut: ut.prime_ideals(ut_ring),
                 lambda out: {i.members for i in out} == primes, _ring_sizes(ring))


def _ut_ring(ut, ring: Ring):
    return ut.FiniteRing(tuple(ring.labels), tuple(map(tuple, ring.add)), tuple(map(tuple, ring.mul)),
                         ring.zero, ring.one)


def _zmod_op(n: int, dot: bool) -> CliOp:
    ring = make_ring((("Z", n),), None)
    argv = ["spec", "--zmod", str(n)] + (["--format", "dot"] if dot else [])
    return CliOp("spec-zmod", argv, "", _spec_expect(ring, f"Z/{n}", dot), _ring_sizes(ring))


def _functor_pair(rng: random.Random, n: int, d: int, ut):
    """spec_functor of the projection Z/n -> Z/d: each prime (q) of Z/d
    contracts to the prime (q) of Z/n."""
    src, tgt = make_ring((("Z", n),), rng), make_ring((("Z", d),), rng)
    mapping = tuple(tgt.index[(e[0] % d,)] for e in src.order)
    src_primes = {frozenset(mem): lab for lab, mem in src.primes()}
    exp = {}
    for lab, mem in tgt.primes():
        image = set(mem)
        exp[lab] = src_primes[frozenset(a for a in range(n) if mapping[a] in image)]
    hom = ut.RingHom(_ut_ring(ut, src), _ut_ring(ut, tgt), mapping) if ut else None
    return LibOp("spec_functor", lambda u: u.spec_functor(hom), lambda out: out == exp,
                 {"rings.elements": n + d, "rings.primes_out": len(exp)})


def _closure_mask(ring: Ring, seed: int) -> int:
    """Smallest unital subring containing the seed elements, as a mask."""
    members = seed | (1 << ring.zero) | (1 << ring.one)
    todo = bits(members)
    while todo:
        a = todo.pop()
        for b in bits(members):
            for v in (ring.add[a][b], ring.mul[a][b]):
                if not (members >> v) & 1:
                    members |= 1 << v
                    todo.append(v)
    return members  # finite: closed under + is closed under negation


@lru_cache(maxsize=None)
def subring_count(model: tuple) -> int:
    return len(_subrings(make_ring(model, None)))


def _subrings(ring: Ring) -> list[int]:
    """Every unital subring, by brute force: close each found subring with
    one more element until nothing new appears."""
    start = _closure_mask(ring, 0)
    found, todo = {start}, [start]
    while todo:
        s = todo.pop()
        for b in range(len(ring.order)):
            if not (s >> b) & 1:
                t = _closure_mask(ring, s | (1 << b))
                if t not in found:
                    found.add(t)
                    todo.append(t)
    return sorted(found, key=lambda m: (m.bit_count(), bits(m)))


OVERRING_MODELS = [
    (("Z", 2),) * 3, (("Z", 2),) * 4, (("GF", 4), ("Z", 2)), (("GF", 4), ("Z", 2), ("Z", 2)),
    (("GF", 4), ("GF", 4)), (("GF", 8), ("Z", 2)), (("GF", 16),), (("GF", 8), ("GF", 4)),
    (("GF", 16), ("Z", 2)), (("GF", 4), ("GF", 4), ("Z", 2)), (("GF", 8), ("Z", 2), ("Z", 2)),
]

Z2_DOC = {"elements": ["0", "1"], "add": [[0, 1], [1, 0]], "mul": [[0, 0], [0, 1]], "zero": 0, "one": 1}


def _overrings_pair(rng: random.Random, model: tuple, fresh: bool) -> tuple[CliOp, CliOp]:
    """overrings in JSON and in DOT on one embedding of Z/2 into the model.
    The intermediate rings, ordered by inclusion, come from brute force."""
    ring = make_ring(model, rng if fresh else None)
    subs = _subrings(ring)

    def label(m):
        return "{" + ",".join(ring.labels[i] for i in bits(m)) + "}"

    rings = [{"label": label(m), "size": m.bit_count(), "members": sorted(ring.labels[i] for i in bits(m))}
             for m in subs]
    report = {"compact": True, "t0": True, "t0_witness": None, "sober": True, "sober_witness": None,
              "compact_open_basis": True, "spectral": True}
    value = {"schema": SCHEMA, "verb": "overrings", "rings": rings, "spectral": report}
    covers = [(label(a), label(b)) for a in subs for b in subs
              if a != b and a & ~b == 0
              and not any(c not in (a, b) and a & ~c == 0 and c & ~b == 0 for c in subs)]
    doc = json.dumps({"source": Z2_DOC, "target": ring.doc(), "map": [ring.zero, ring.one]})
    sizes = {"rings.elements": len(ring.order) + 2, "rings.intermediate_out": len(subs),
             "points": len(subs)}
    return (CliOp("overrings", ["overrings", "-"], doc, expect_json(value), sizes),
            CliOp("overrings-dot", ["overrings", "-", "--format", "dot"], doc,
                  expect_dot("overrings", [label(m) for m in subs], covers), sizes))


def _by_size(rng: random.Random, models: list, lo: int, hi: int) -> tuple:
    return rng.choice([m for m in models if lo <= _size(m) <= hi])


def rings_plan(seed, smoke: bool) -> list[tuple]:
    """The fixed shape of a rings pass: (group, kind, model or args, position).

    A group's first op sends a freshly relabelled ring; its second op
    re-sends the same ring later in the same pass.  ``spec --zmod N`` ops
    rebuild the canonical Z/N each time, so from the second pass on they
    re-send a ring as well.
    """
    rng = rng_for("rings-plan", seed)
    kinds = ["spec", "spec-dot", "all_ideals", "prime_ideals"]
    if smoke:
        return [("ring", ("spec", "prime_ideals"), (("Z", 6),)),
                ("ring", ("spec-dot", "all_ideals"), (("Z", 2), ("Z", 3))),
                ("functor", None, (6, 3)), ("overrings", None, (("Z", 2),) * 3), ("zmod", False, 4)]
    plan = []
    strata = [(2, 16)] * 10 + [(17, 32)] * 9 + [(33, 64)] * 9
    for lo, hi in strata:
        plan.append(("ring", tuple(rng.sample(kinds, 2)), _by_size(rng, SPEC_MODELS, lo, hi)))
    for _ in range(10):
        n = rng.choice([n for n in range(12, 65) if len(_prime_divisors(n)) >= 2])
        plan.append(("functor", None, (n, rng.choice([d for d in range(2, n) if n % d == 0]))))
    usable = [m for m in OVERRING_MODELS if 3 <= subring_count(m) <= 20]
    for i in range(12):
        plan.append(("overrings", None, usable[i % len(usable)]))
    for i in range(20):
        plan.append(("zmod", i % 3 == 2, rng.randint(9, 64)))
    return plan


def rings_ops(seed, pass_no: int, ut, smoke: bool = False) -> list:
    """The ops of one pass; relabelings are drawn anew for each pass."""
    plan = rings_plan(seed, smoke)
    order_rng = rng_for("rings-order", seed)
    rng = rng_for("rings", seed, pass_no)
    firsts, seconds = [], []
    for group, kind, args in plan:
        if group == "ring":
            ring = make_ring(args, rng)
            doc = json.dumps(ring.doc())
            obj = _ut_ring(ut, ring) if ut and {"all_ideals", "prime_ideals"} & set(kind) else None
            firsts.append(_spec_op(ring, doc, kind[0], obj))
            seconds.append(_spec_op(ring, doc, kind[1], obj))
        elif group == "functor":
            op = _functor_pair(rng, *args, ut)
            firsts.append(op)
            seconds.append(op)
        elif group == "overrings":
            first, second = _overrings_pair(rng, args, fresh=True)
            firsts.append(first)
            seconds.append(second)
        else:
            firsts.append(_zmod_op(args, kind))
            seconds.append(None)
    # fixed positions: shuffle the first sends, then put each re-send after its first
    slots = list(range(len(firsts)))
    order_rng.shuffle(slots)
    ops = [firsts[i] for i in slots]
    for i in slots:
        if seconds[i] is not None:
            first = next(j for j, op in enumerate(ops) if op is firsts[i])
            ops.insert(order_rng.randint(first + 1, len(ops)), seconds[i])
    return ops


def spaces_rings_ops(seed, pass_no: int, ut, smoke: bool = False, spaces=None) -> list:
    """The spaces ops (``spaces``, if already built) and one pass of the
    rings ops, riffled in an order that is fixed by the seed and keeps each
    list's own order."""
    spaces = spaces_ops(seed, smoke) if spaces is None else spaces
    rings = rings_ops(seed, pass_no, ut, smoke)
    rng = rng_for("spaces-rings", seed)
    picks = [0] * len(spaces) + [1] * len(rings)
    rng.shuffle(picks)
    sources = (iter(spaces), iter(rings))
    return [next(sources[p]) for p in picks]
