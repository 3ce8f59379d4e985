"""Command line front end: JSON documents in, JSON or DOT out.

Every verb is one row of ``_VERBS``: its handler, its input argument
(required, optional or none), whether it may print DOT, and its options.  A
handler takes the parsed arguments and the document, and returns the body of
the output: a dict, in which a space stands for its closed sets, or DOT text.
``_read_args`` reads argv in one walk, by the options of the verb's row.
``main`` alone reads the document, rejects ``--format dot`` on JSON-only
verbs, adds the ``schema`` and ``verb`` header, renders the text, listing each
space's closed sets where ``_dumps`` meets it, and writes stdout.

Exit codes: 0 on success; 1 on ``InputError``, malformed input (bad flags,
unreadable files, broken JSON, missing keys, fields of the wrong JSON type,
conflicting inputs); 2 on any other ``DomainError`` (inputs that parse but
break a precondition, with the violating item named); 3 on any other
exception, a library bug (one line on stderr, no traceback).  Output is
deterministic: identical invocations produce identical bytes, and every
output carries the schema tag v1.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import replace
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from types import SimpleNamespace
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


def _cmd_ultra_topology(args: SimpleNamespace, doc: dict) -> _Body:
    return _space_body(ultra_topology(SetFamily.from_json(doc)))


def _cmd_closure(args: SimpleNamespace, doc: dict) -> _Body:
    family = SetFamily.from_json(_json_key(doc, "family", dict), "family.")
    subset = frozenset(_json_key(doc, "set", list, item=str))
    closure = stable_closure(family, subset)  # stable exactly when it is its own closure
    return {"set": sorted(subset), "closure": sorted(closure), "is_stable": closure == subset}


def _cmd_atoms(args: SimpleNamespace, doc: dict) -> _Body:
    family = SetFamily.from_json(doc)
    alg = atoms(family)
    return {
        "carrier": list(family.carrier.points),
        "atoms": [sorted(a) for a in alg.atoms],
        "element_count": alg.element_count,
    }


def _cmd_check_spectral(args: SimpleNamespace, doc: dict) -> _Body:
    space = FinSpace.from_json(doc)
    return {"carrier": list(space.carrier.points), "report": is_spectral(space).to_json()}


def _cmd_patch(args: SimpleNamespace, doc: dict) -> _Body:
    return _space_body(patch_topology(FinSpace.from_json(doc)))


def _cmd_spec(args: SimpleNamespace, doc: dict | None) -> _Body:
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


def _cmd_overrings(args: SimpleNamespace, doc: dict) -> _Body:
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
        primes = [int(tok) for tok in spec.split(",")]
    except ValueError as e:
        raise InputError(f"--primes expects 'all' or comma-separated integers: {e}")
    if not re.fullmatch("-?[0-9]+(,-?[0-9]+)*", spec):  # int() also reads " 2", "2_0" and "٢"
        raise InputError(f"--primes expects 'all' or comma-separated integers, not {spec!r}")
    return ZSubsetDescriptor.finite(primes)


def _cmd_specz_closure(args: SimpleNamespace, doc: None) -> _Body:
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


def _cmd_specz_fip(args: SimpleNamespace, doc: dict) -> _Body:
    entries = _json_key(doc, "sets", list)
    sets = [_constructible_from_entry(e, f"sets[{i}]") for i, e in enumerate(entries)]
    result = z_fip_check(sets)
    return {
        "has_fip": result.has_fip,
        "intersection": result.intersection.to_json() if result.intersection else None,
        "witness": list(result.witness) if result.witness else None,
    }


# verb -> (handler, input argument: "required", "optional" or None, may print DOT, options),
# an option -> how its text is read: int (None if not given), str (required) or bool (a flag)
_VERBS: dict[str, tuple[Callable[..., _Body], str | None, bool, dict[str, type]]] = {
    "ultra-topology": (_cmd_ultra_topology, "required", False, {}),
    "closure": (_cmd_closure, "required", False, {}),
    "atoms": (_cmd_atoms, "required", False, {}),
    "check-spectral": (_cmd_check_spectral, "required", False, {}),
    "patch": (_cmd_patch, "required", False, {}),
    "spec": (_cmd_spec, "optional", True, {"zmod": int}),
    "overrings": (_cmd_overrings, "required", True, {}),
    "specz-closure": (_cmd_specz_closure, None, False, {"primes": str, "generic": bool}),
    "specz-fip": (_cmd_specz_fip, "required", False, {}),
}
# the tokens the stdlib parser reads as values: empty, "-", a negative number, a token with a
# space, and a token with no leading "-"
_VALUE = re.compile(r"\Z|-\Z|-\d+$|-\d*\.\d+$|.* |[^-]", re.S).match


def _name(tok: str, kinds: dict) -> str | None:
    """The option that ``-h`` (with anything after it), or ``--`` and a unique prefix of its
    name before any ``=``, names; None if the token is a value, "" if an unknown option."""
    head = "--help" if tok[:2] == "-h" else tok.partition("=")[0]
    names = [k for k in kinds if f"--{k}".startswith(head)] if head[:2] == "--" else []
    if len(names) > 1:  # ``--`` too
        raise InputError(f"ambiguous option: {tok} could match --{', --'.join(names)}")
    return names[0] if names else None if _VALUE(tok) else ""


def _read_args(argv: list[str]) -> SimpleNamespace | None:
    """``[--seed N] VERB [INPUT] [OPTIONS]`` as the stdlib parser read it: ``--name value``
    or ``--name=value`` by any unique prefix, the last one winning; None asks for help.  Unknown
    options and extra values raise InputError at the end, so that a later ``-h`` gives help."""
    args, kinds, takes, extra = SimpleNamespace(seed=0), {"help": bool, "seed": int}, None, []
    for tok in (rest := iter(argv)):
        name = _name(tok, kinds)
        if name is None and "verb" not in vars(args):
            if tok not in _VERBS:
                raise InputError(f"argument verb: invalid choice: {tok!r} "
                                 f"(choose from {', '.join(map(repr, _VERBS))})")
            _, takes, _, options = _VERBS[tok]
            kinds = {"help": bool, "format": {"json": "json", "dot": "dot"}.__getitem__, **options}
            vars(args).update({k: False if o is bool else None for k, o in options.items()
                               if o is not str}, verb=tok, format="json")
            if takes:
                args.input = None
        elif name is None and takes:
            args.input, takes = tok, None
        elif not name:
            extra.append(tok)
        else:
            flag, (_, eq, value) = kinds[name] is bool, tok.partition("=")
            if flag and (eq or tok[:2] == "-h" != tok):
                raise InputError(f"argument --{name}: ignored explicit argument in {tok!r}")
            if name == "help":
                return None
            if not (flag or eq):
                value = next(rest, None)
                if value is None or _name(value, kinds) is not None:
                    raise InputError(f"argument --{name}: expected one argument")
            try:
                setattr(args, name, flag or kinds[name](value))
            except (ValueError, KeyError):
                raise InputError(f"argument --{name}: invalid value: {value!r}") from None
    missing = ["verb"] * ("verb" not in vars(args)) + ["input"] * (takes == "required")
    missing += [f"--{k}" for k, o in kinds.items() if o is str and k not in vars(args)]
    if missing:
        raise InputError(f"the following arguments are required: {', '.join(missing)}")
    if extra:
        raise InputError(f"unrecognized arguments: {' '.join(extra)}")
    return args


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
    try:
        args = _read_args(sys.argv[1:] if argv is None else argv)
        if args is None:  # -h or --help: the grammar, then each verb's input and options
            sys.stdout.write("usage: ultratop [--seed N] VERB [INPUT] [OPTIONS]\n" + "".join(
                f"  {verb}: {takes or 'no'} input, --format json{'|dot' * dot}"
                + "".join(f", --{k} {o.__name__}" for k, o in opts.items()) + "\n"
                for verb, (_, takes, dot, opts) in _VERBS.items()))
            return 0
        handler, _, dot, _ = _VERBS[args.verb]
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
