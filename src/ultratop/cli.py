"""Command line front end: JSON documents in, JSON or DOT out.

Exit codes: 0 on success, 1 on malformed input (bad flags, unreadable files,
broken JSON, missing keys, fields of the wrong JSON type), 2 on domain
violations (inputs that parse but break a precondition, with the violating
item named).  Output is deterministic: identical invocations produce
identical bytes, and every output carries the schema tag v1.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from typing import Callable

from .core import DomainError, SetFamily, _json_field, atoms, stable_closure, is_stable
from .rings import (
    FiniteRing,
    RingEmbedding,
    intermediate_rings,
    overring_space,
    spec_space,
    zmod,
)
from .specz import (
    ZConstructible,
    ZSubsetDescriptor,
    is_ultra_closed,
    patch_closure,
    v_of,
    d_of,
    z_fip_check,
    zariski_closure,
)
from .topology import (
    FinSpace,
    hasse_dot,
    is_spectral,
    patch_topology,
    specialization_order,
    ultra_topology,
)

SCHEMA = "v1"


class InputError(Exception):
    """Malformed command line or input document; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise InputError(message)


def _read_doc(path: str) -> dict:
    try:
        text = sys.stdin.read() if path == "-" else open(path, encoding="utf-8").read()
    except OSError as e:
        raise InputError(f"cannot read {path!r}: {e}") from e
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise InputError(f"invalid JSON in {path!r}: {e}") from e
    if not isinstance(doc, dict):
        raise InputError("top-level JSON value must be an object")
    return doc


def _emit(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _dot(graph: str) -> str:
    return f"// ultratop schema {SCHEMA}\n" + graph


def _json_only(args: argparse.Namespace) -> None:
    if args.format != "json":
        raise InputError(f"{args.verb} supports only --format json")


def _sorted_sets(sets) -> list[list[str]]:
    return [sorted(s) for s in sets]


def _cmd_ultra_topology(args: argparse.Namespace) -> str:
    _json_only(args)
    family = SetFamily.from_json(_read_doc(args.input))
    space = ultra_topology(family)
    return _emit(
        {
            "schema": SCHEMA,
            "verb": args.verb,
            "carrier": list(space.carrier.points),
            "closed": _sorted_sets(space.closed_sets()),
        }
    )


def _cmd_closure(args: argparse.Namespace) -> str:
    _json_only(args)
    doc = _read_doc(args.input)
    family = SetFamily.from_json(doc["family"])
    subset = frozenset(str(x) for x in _json_field(doc["set"], list, "set"))
    return _emit(
        {
            "schema": SCHEMA,
            "verb": args.verb,
            "set": sorted(subset),
            "closure": sorted(stable_closure(family, subset)),
            "is_stable": is_stable(family, subset),
        }
    )


def _cmd_atoms(args: argparse.Namespace) -> str:
    _json_only(args)
    family = SetFamily.from_json(_read_doc(args.input))
    alg = atoms(family)
    return _emit(
        {
            "schema": SCHEMA,
            "verb": args.verb,
            "carrier": list(family.carrier.points),
            "atoms": _sorted_sets(alg.atoms),
            "element_count": alg.element_count,
        }
    )


def _cmd_check_spectral(args: argparse.Namespace) -> str:
    _json_only(args)
    space = FinSpace.from_json(_read_doc(args.input))
    report = is_spectral(space)
    return _emit(
        {
            "schema": SCHEMA,
            "verb": args.verb,
            "carrier": list(space.carrier.points),
            "report": report.to_json(),
        }
    )


def _cmd_patch(args: argparse.Namespace) -> str:
    _json_only(args)
    space = FinSpace.from_json(_read_doc(args.input))
    patched = patch_topology(space)
    return _emit(
        {
            "schema": SCHEMA,
            "verb": args.verb,
            "carrier": list(patched.carrier.points),
            "closed": _sorted_sets(patched.closed_sets()),
        }
    )


def _load_ring(args: argparse.Namespace) -> FiniteRing:
    if args.zmod is not None:
        return zmod(args.zmod)
    if args.input is None:
        raise InputError("spec needs --zmod N or a ring document")
    return FiniteRing.from_json(_read_doc(args.input))


def _cmd_spec(args: argparse.Namespace) -> str:
    ring = _load_ring(args)
    space = spec_space(ring)
    if args.format == "dot":
        return _dot(hasse_dot(specialization_order(space), name="spec"))
    from .rings import _spectrum  # deterministic (label, members) pairs

    return _emit(
        {
            "schema": SCHEMA,
            "verb": args.verb,
            "ring": ring.name,
            "primes": [
                {"label": label, "members": [ring.elements[i] for i in sorted(mem)]}
                for label, mem in _spectrum(ring)
            ],
            "closed": _sorted_sets(space.closed_sets()),
        }
    )


def _cmd_overrings(args: argparse.Namespace) -> str:
    doc = _read_doc(args.input)
    source = FiniteRing.from_json(doc["source"], name="source")
    target = FiniteRing.from_json(doc["target"], name="target")
    emb = RingEmbedding(source, target, tuple(int(i) for i in doc["map"]))
    space = overring_space(emb)
    if args.format == "dot":
        return _dot(hasse_dot(specialization_order(space), name="overrings"))
    rings = intermediate_rings(emb)
    return _emit(
        {
            "schema": SCHEMA,
            "verb": args.verb,
            "rings": [
                {
                    "label": r.label(),
                    "size": r.size,
                    "members": sorted(r.labels),
                }
                for r in rings
            ],
            "spectral": is_spectral(space).to_json(),
        }
    )


def _parse_primes(spec: str) -> ZSubsetDescriptor:
    if spec == "all":
        return ZSubsetDescriptor.max_points()
    try:
        primes = [int(tok) for tok in spec.split(",") if tok]
    except ValueError as e:
        raise InputError(f"--primes expects 'all' or comma-separated integers: {e}")
    return ZSubsetDescriptor.finite(primes)


def _cmd_specz_closure(args: argparse.Namespace) -> str:
    _json_only(args)
    base = _parse_primes(args.primes)
    if args.generic:
        base = replace(base, generic=True)
    return _emit(
        {
            "schema": SCHEMA,
            "verb": args.verb,
            "input": base.to_json(),
            "patch_closure": patch_closure(base).to_json(),
            "zariski_closure": zariski_closure(base).to_json(),
            "is_ultra_closed": is_ultra_closed(base),
        }
    )


def _constructible_from_entry(entry: dict, path: str) -> ZConstructible:
    """One entry of ``sets``; a badly typed field raises a TypeError whose
    message starts with the field's path in the document."""
    _json_field(entry, dict, path)
    try:
        for key, locus in (("v_of", v_of), ("d_of", d_of)):
            if key in entry:
                return locus(_json_field(entry[key], int, key))
        return ZConstructible.from_json(entry)
    except TypeError as e:
        raise TypeError(f"{path}.{e}") from None


def _cmd_specz_fip(args: argparse.Namespace) -> str:
    _json_only(args)
    doc = _read_doc(args.input)
    entries = _json_field(doc["sets"], list, "sets")
    sets = [_constructible_from_entry(e, f"sets[{i}]") for i, e in enumerate(entries)]
    result = z_fip_check(sets)
    return _emit(
        {
            "schema": SCHEMA,
            "verb": args.verb,
            "has_fip": result.has_fip,
            "intersection": (
                result.intersection.to_json() if result.intersection else None
            ),
            "witness": list(result.witness) if result.witness else None,
        }
    )


_HANDLERS: dict[str, Callable[[argparse.Namespace], str]] = {
    "ultra-topology": _cmd_ultra_topology,
    "closure": _cmd_closure,
    "atoms": _cmd_atoms,
    "check-spectral": _cmd_check_spectral,
    "patch": _cmd_patch,
    "spec": _cmd_spec,
    "overrings": _cmd_overrings,
    "specz-closure": _cmd_specz_closure,
    "specz-fip": _cmd_specz_fip,
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ultratop", description=__doc__)
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="reserved for randomized commands; accepted for interface stability",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(verb: str, with_input: bool = True, optional_input: bool = False):
        p = sub.add_parser(verb)
        if with_input:
            if optional_input:
                p.add_argument("input", nargs="?", default=None,
                               help="path to a JSON document, or - for stdin")
            else:
                p.add_argument("input", help="path to a JSON document, or - for stdin")
        p.add_argument("--format", choices=("json", "dot"), default="json")
        return p

    add("ultra-topology")
    add("closure")
    add("atoms")
    add("check-spectral")
    add("patch")
    spec = add("spec", optional_input=True)
    spec.add_argument("--zmod", type=int, default=None, metavar="N")
    add("overrings")
    zc = add("specz-closure", with_input=False)
    zc.add_argument("--primes", required=True,
                    help="'all' for every prime, or a comma-separated list")
    zc.add_argument("--generic", action="store_true",
                    help="include the generic point in the input subset")
    add("specz-fip")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        out = _HANDLERS[args.verb](args)
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except DomainError as e:
        print(f"domain error: {e}", file=sys.stderr)
        return 2
    except (KeyError, TypeError, ValueError) as e:
        print(f"error: malformed input: {e!r}", file=sys.stderr)
        return 1
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
