"""Command line front end: JSON documents in, JSON or DOT out.

Every verb is one row of ``_VERBS``: its handler, its input argument
(required, optional or none) and whether it may print DOT.  A handler takes
the parsed arguments and the document, and returns the body of the output: a
dict, in which a space stands for its closed sets, or DOT text.  ``main``
alone reads the document, rejects ``--format dot`` on JSON-only verbs, adds
the ``schema`` and ``verb`` header, renders the text, listing each space's
closed sets where ``_dumps`` meets it, and writes stdout.  The argument
parser is built once per process: ``build_parser()`` returns the shared
parser, which parsing leaves unchanged.

Exit codes: 0 on success; 1 on ``InputError``, malformed input (bad flags,
unreadable files, broken JSON, missing keys, fields of the wrong JSON type,
conflicting inputs); 2 on any other ``DomainError`` (inputs that parse but
break a precondition, with the violating item named); 3 on any other
exception, a library bug (one line on stderr, no traceback).  Output is
deterministic: identical invocations produce identical bytes, and every
output carries the schema tag v1.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import replace
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from typing import Callable

from .core import (
    DomainError, InputError, SetFamily, UltratopError, _json_field, _json_key, atoms,
    stable_closure,
)
from .rings import (
    FiniteRing, RingEmbedding, _spectrum, intermediate_rings, overring_space, spec_space, zmod,
)
from .specz import (
    ZConstructible, ZSubsetDescriptor, d_of, is_ultra_closed, patch_closure, v_of, z_fip_check,
    zariski_closure,
)
from .topology import (
    FinSpace, hasse_dot, is_spectral, patch_topology, specialization_order, ultra_topology,
)

SCHEMA = "v1"

_Body = dict | str  # a JSON object, or DOT text


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise InputError(message)


def _read_doc(path: str) -> dict:
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, encoding="utf-8") as f:
                text = f.read()
    except OSError as e:
        raise InputError(f"cannot read {path!r}: {e}") from e
    except UnicodeDecodeError as e:
        raise InputError(f"cannot read {path!r}: not {e.encoding} at byte {e.start} "
                         f"({e.reason})") from None
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as e:  # also nesting too deep, integers too long
        raise InputError(f"invalid JSON in {path!r}: {e}") from None
    return _json_field(doc, dict, "the document")


def _closed_json(space: FinSpace, indent: str) -> str:
    """The closed sets as ``_dumps`` writes their list at this indent, in one join: the
    listing spells each set with a separator before each label, and starts with the empty set."""
    inner = indent + "  "
    sets = space._listing(lambda p: "," + inner + "  " + encode_basestring_ascii(p), "")
    tails = map(itemgetter(slice(1, None)), sets[1:])  # each nonempty set without its first ","
    return f"[{inner}[],{inner}[" + f"{inner}],{inner}[".join(tails) + f"{inner}]{indent}]"


def _space_body(space: FinSpace) -> dict:
    return {"carrier": list(space.carrier.points), "closed": space}


def _cmd_ultra_topology(args: argparse.Namespace, doc: dict) -> _Body:
    return _space_body(ultra_topology(SetFamily.from_json(doc)))


def _cmd_closure(args: argparse.Namespace, doc: dict) -> _Body:
    family = SetFamily.from_json(_json_key(doc, "family", dict), "family.")
    subset = frozenset(_json_key(doc, "set", list, item=str))
    closure = stable_closure(family, subset)  # stable exactly when it is its own closure
    return {"set": sorted(subset), "closure": sorted(closure), "is_stable": closure == subset}


def _cmd_atoms(args: argparse.Namespace, doc: dict) -> _Body:
    family = SetFamily.from_json(doc)
    alg = atoms(family)
    return {
        "carrier": list(family.carrier.points),
        "atoms": [sorted(a) for a in alg.atoms],
        "element_count": alg.element_count,
    }


def _cmd_check_spectral(args: argparse.Namespace, doc: dict) -> _Body:
    space = FinSpace.from_json(doc)
    return {"carrier": list(space.carrier.points), "report": is_spectral(space).to_json()}


def _cmd_patch(args: argparse.Namespace, doc: dict) -> _Body:
    return _space_body(patch_topology(FinSpace.from_json(doc)))


def _cmd_spec(args: argparse.Namespace, doc: dict | None) -> _Body:
    if (args.zmod is None) == (doc is None):
        both = "" if doc is None else ", not both"
        raise InputError(f"spec needs --zmod N or a ring document{both}")
    ring = zmod(args.zmod) if doc is None else FiniteRing.from_json(doc)
    space = spec_space(ring)
    if args.format == "dot":
        return hasse_dot(specialization_order(space), name="spec")
    return {
        "ring": ring.name,
        "primes": [  # deterministic (label, members) pairs
            {"label": label, "members": [ring.elements[i] for i in sorted(mem)]}
            for label, mem in _spectrum(ring)
        ],
        "closed": space,
    }


def _cmd_overrings(args: argparse.Namespace, doc: dict) -> _Body:
    source = FiniteRing.from_json(_json_key(doc, "source", dict), name="source")
    target = FiniteRing.from_json(_json_key(doc, "target", dict), name="target")
    emb = RingEmbedding(source, target, tuple(_json_key(doc, "map", list, item=int)))
    space = overring_space(emb)
    if args.format == "dot":
        return hasse_dot(specialization_order(space), name="overrings")
    return {
        "rings": [
            {"label": r.label(), "size": r.size, "members": sorted(r.labels)}
            for r in intermediate_rings(emb)
        ],
        "spectral": is_spectral(space).to_json(),
    }


def _parse_primes(spec: str) -> ZSubsetDescriptor:
    if spec == "all":
        return ZSubsetDescriptor.max_points()
    try:
        primes = [int(tok) for tok in spec.split(",") if tok]
    except ValueError as e:
        raise InputError(f"--primes expects 'all' or comma-separated integers: {e}")
    return ZSubsetDescriptor.finite(primes)


def _cmd_specz_closure(args: argparse.Namespace, doc: None) -> _Body:
    base = _parse_primes(args.primes)
    if args.generic:
        base = replace(base, generic=True)
    return {
        "input": base.to_json(),
        "patch_closure": patch_closure(base).to_json(),
        "zariski_closure": zariski_closure(base).to_json(),
        "is_ultra_closed": is_ultra_closed(base),
    }


def _constructible_from_entry(entry: dict, path: str) -> ZConstructible:
    """One entry of ``sets``: ``v_of``, ``d_of`` or an inline subset, never
    two of them; faults are named by their path, ``sets[i].mode`` or ``sets[i]``."""
    _json_field(entry, dict, path)
    given = [key for key in ("v_of", "d_of", "primes", "mode") if key in entry]
    if len(given) > 1 and given != ["primes", "mode"]:
        raise InputError(f"malformed input: {path} gives more than one of v_of, d_of and "
                         "primes/mode")
    for key, locus in (("v_of", v_of), ("d_of", d_of)):
        if key in entry:
            n = _json_key(entry, key, int, path + ".")
            try:
                return locus(n)
            except DomainError as e:
                raise DomainError(f"{e} at {path}") from None
    return ZConstructible.from_json(entry, path + ".")


def _cmd_specz_fip(args: argparse.Namespace, doc: dict) -> _Body:
    entries = _json_key(doc, "sets", list)
    sets = [_constructible_from_entry(e, f"sets[{i}]") for i, e in enumerate(entries)]
    result = z_fip_check(sets)
    return {
        "has_fip": result.has_fip,
        "intersection": result.intersection.to_json() if result.intersection else None,
        "witness": list(result.witness) if result.witness else None,
    }


# verb -> (handler, input argument: "required", "optional" or None, may print DOT)
_VERBS: dict[str, tuple[Callable[[argparse.Namespace, dict | None], _Body], str | None, bool]] = {
    "ultra-topology": (_cmd_ultra_topology, "required", False),
    "closure": (_cmd_closure, "required", False),
    "atoms": (_cmd_atoms, "required", False),
    "check-spectral": (_cmd_check_spectral, "required", False),
    "patch": (_cmd_patch, "required", False),
    "spec": (_cmd_spec, "optional", True),
    "overrings": (_cmd_overrings, "required", True),
    "specz-closure": (_cmd_specz_closure, None, False),
    "specz-fip": (_cmd_specz_fip, "required", False),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ultratop", description=__doc__)
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="reserved for randomized commands; accepted for interface stability",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    verbs = {}
    for verb, (_, takes, _) in _VERBS.items():
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


def _dumps(value, indent: str = "\n") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)`` for documents of string keyed dicts,
    lists, tuples, strings, ints, booleans, None and spaces, each written as the list of its
    closed sets by ``_closed_json`` at the indent it stands at.  With an indent ``json.dumps``
    runs its pure-Python encoder; this writer keeps the C one.  Other types raise TypeError."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, FinSpace):
        return _closed_json(value, indent)
    inner, brackets = indent + "  ", "[]"
    if isinstance(value, dict):
        items = [f"{encode_basestring_ascii(k)}: {_dumps(value[k], inner)}" for k in sorted(value)]
        brackets = "{}"
    elif isinstance(value, (list, tuple)):
        try:  # labels are most of the output: a list of strings takes one map
            items = list(map(encode_basestring_ascii, value))
        except TypeError:
            items = [_dumps(v, inner) for v in value]
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    if not items:
        return brackets
    return brackets[0] + inner + ("," + inner).join(items) + indent + brackets[1]


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        handler, _, dot = _VERBS[args.verb]
        if args.format == "dot" and not dot:
            raise InputError(f"{args.verb} supports only --format json")
        path = getattr(args, "input", None)
        body = handler(args, None if path is None else _read_doc(path))
        if isinstance(body, str):
            text = f"// ultratop schema {SCHEMA}\n" + body
        else:  # the closed sets are listed here, so their cap is a domain error too
            text = _dumps({"schema": SCHEMA, "verb": args.verb, **body}) + "\n"
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except DomainError as e:
        print(f"domain error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # a library bug, never bad input
        print(f"internal error: {e if isinstance(e, UltratopError) else repr(e)}", file=sys.stderr)
        return 3
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
