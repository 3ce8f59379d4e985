import contextlib
import copy
import gc
import io
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ultratop import (
    DomainError, FiniteRing, FinSpace, SetFamily, UltratopError, ZConstructible, gf, product,
    ultra_topology, zmod,
)
from ultratop import cli, rings
from ultratop.cli import main


FAMILY_DOC = {
    "carrier": ["a", "b", "c"],
    "members": [{"name": "F0", "set": ["a", "b"]}],
}
SIERPINSKI_DOC = {"carrier": ["o", "s"], "closed": [[], ["s"], ["o", "s"]]}
Z2_DOC = {"elements": ["0", "1"], "add": [[0, 1], [1, 0]], "mul": [[0, 0], [0, 1]], "zero": 0, "one": 1}
EMBEDDING_DOC = {"source": Z2_DOC, "target": gf(4).to_json(), "map": [0, 1]}

# one valid input per verb: a document, or the arguments of a verb without one
VALID = {
    "ultra-topology": FAMILY_DOC,
    "closure": {"family": FAMILY_DOC, "set": ["a"]},
    "atoms": FAMILY_DOC,
    "check-spectral": SIERPINSKI_DOC,
    "patch": SIERPINSKI_DOC,
    "spec": Z2_DOC,
    "overrings": EMBEDDING_DOC,
    "specz-closure": ["--primes", "2,3"],
    "specz-fip": {"sets": [{"v_of": 6}, {"d_of": 10}, {"primes": [3], "mode": "finite"}]},
}
DOT_VERBS = {"spec", "overrings"}


def run(capsys, argv, stdin_doc=None, monkeypatch=None):
    if stdin_doc is not None:
        import io
        import sys

        monkeypatch.setattr(
            sys, "stdin", io.StringIO(json.dumps(stdin_doc))
        )
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def call_main(argv, doc=None):
    """(exit code, stdout, stderr) of one in-process call, with doc on stdin."""
    out, err, stdin = io.StringIO(), io.StringIO(), sys.stdin
    sys.stdin = io.StringIO("" if doc is None else json.dumps(doc))
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


def run_file(tmp_path, capsys, verb, doc, extra=()):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code = main([verb, str(path), *extra])
    out = capsys.readouterr()
    return code, out.out, out.err


class TestExitCodes:
    def test_success_is_zero(self, tmp_path, capsys):
        code, out, _ = run_file(tmp_path, capsys, "ultra-topology", FAMILY_DOC)
        assert code == 0
        assert json.loads(out)["schema"] == "v1"

    def test_unknown_verb_is_one(self, capsys):
        assert main(["frobnicate"]) == 1
        assert capsys.readouterr().err

    def test_missing_file_is_one(self, capsys):
        assert main(["ultra-topology", "/nonexistent/input.json"]) == 1
        assert capsys.readouterr().err

    def test_broken_json_is_one(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["ultra-topology", str(path)]) == 1
        assert capsys.readouterr().err

    def test_non_object_document_is_one(self, tmp_path, capsys):
        path = tmp_path / "arr.json"
        path.write_text("[1, 2]")
        assert main(["ultra-topology", str(path)]) == 1
        capsys.readouterr()

    def test_file_input_is_closed(self, tmp_path, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            code, _, err = run_file(tmp_path, capsys, "atoms", FAMILY_DOC)
            gc.collect()
        assert (code, err) == (0, "")
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    @pytest.mark.parametrize(
        "text, reason",
        [
            ('{"carrier": ["a"], "members": ' + "[" * 100000 + "]" * 100000 + "}",
             "maximum recursion depth exceeded"),
            ('{"carrier": ["a"], "members": [' + "9" * 5000 + "]}", "Exceeds the limit ("),
        ],
        ids=["deep-nesting", "long-integer"],
    )
    def test_unparsable_json_is_one_line(self, tmp_path, capsys, text, reason):
        path = tmp_path / "doc.json"
        path.write_text(text)  # json.dumps cannot build the nested case
        assert main(["atoms", str(path)]) == 1
        out = capsys.readouterr()
        assert out.out == "" and len(out.err.splitlines()) == 1
        assert out.err.startswith(f"error: invalid JSON in {str(path)!r}: {reason}")

    def test_non_utf8_file_is_one_short_line(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        head = json.dumps(FAMILY_DOC).encode()[:-1] + b', "x": "'
        path.write_bytes(head + b'\xe9"' + b" " * 5000 + b"}")  # é in Latin-1
        assert main(["atoms", str(path)]) == 1
        err = capsys.readouterr().err
        assert err == (f"error: cannot read {str(path)!r}: not utf-8 at byte {len(head)} "
                       "(invalid continuation byte)\n")

    def test_missing_key_is_one(self, tmp_path, capsys):
        code, _, err = run_file(tmp_path, capsys, "closure", FAMILY_DOC)
        assert code == 1
        assert err

    def test_domain_violation_is_two(self, tmp_path, capsys):
        doc = {
            "family": FAMILY_DOC,
            "set": ["z"],  # not a carrier point
        }
        code, _, err = run_file(tmp_path, capsys, "closure", doc)
        assert code == 2
        assert "z" in err

    def test_invalid_topology_is_two(self, tmp_path, capsys):
        doc = {"carrier": ["a", "b"], "closed": [["a"]]}
        code, _, err = run_file(tmp_path, capsys, "check-spectral", doc)
        assert code == 2
        assert err

    # the verbs that read each kind of document, keyed by a field only it has
    VERBS_BY_KEY = {
        "closed": ("check-spectral", "patch"),
        "members": ("ultra-topology", "atoms"),
        "family": ("closure",),
        "sets": ("specz-fip",),
        "elements": ("spec",),
        "map": ("overrings",),
    }

    @pytest.mark.parametrize(
        "doc, path",
        [
            ({"carrier": ["a", "b"], "closed": [[], "ab", "a"]}, "closed[1]"),
            ({"carrier": "ab", "closed": [[], ["a"], ["a", "b"]]}, "carrier"),
            ({"carrier": ["a"], "closed": "a"}, "closed"),
            ({"carrier": "abc", "members": [{"name": "F0", "set": ["a"]}]}, "carrier"),
            (
                {"carrier": ["a", "b"], "members": [
                    {"name": "F0", "set": ["a"]}, {"name": "F1", "set": "ab"}
                ]},
                "members[1].set",
            ),
            ({"family": FAMILY_DOC, "set": "ab"}, "set must be a list"),
            ({"sets": "ab"}, "sets must be a list"),
            (
                {"sets": [{"v_of": 6}, {"primes": [2], "mode": "finite", "generic": "false"}]},
                "sets[1].generic",
            ),
            ({"sets": [{"primes": "23", "mode": "finite"}]}, "sets[0].primes"),
            ({"sets": [{"primes": [2.9], "mode": "finite"}]}, "sets[0].primes[0]"),
            ({"sets": [{"primes": [], "mode": 5}]}, "sets[0].mode"),
            ({"sets": [{"v_of": "12"}]}, "sets[0].v_of"),
            ({"sets": [{"v_of": 12.7}]}, "sets[0].v_of"),
            ({"sets": [{"v_of": 6}, {"d_of": True}]}, "sets[1].d_of"),
            ({"carrier": [2, 10], "closed": [[], [2], [2, 10]]}, "carrier[0]"),
            ({"carrier": [1, "a"], "closed": [[], [1, "a"]]}, "carrier[0]"),
            ({"carrier": ["a", 2], "members": [{"name": "F0", "set": ["a"]}]}, "carrier[1]"),
            ({"family": FAMILY_DOC, "set": ["a", 1]}, "set[1]"),
            ({**Z2_DOC, "elements": "01"}, "elements"),
            ({**Z2_DOC, "elements": [0, 1]}, "elements[0]"),
            ({**Z2_DOC, "add": ["01", "10"]}, "add[0]"),
            ({**Z2_DOC, "mul": [[0, 0], [0, 1.0]]}, "mul[1][1]"),
            ({**Z2_DOC, "zero": 0.7}, "zero"),
            ({**Z2_DOC, "one": True}, "one"),
            ({**EMBEDDING_DOC, "map": "01"}, "map"),
            ({**EMBEDDING_DOC, "map": [0, 1.0]}, "map[1]"),
            ({**EMBEDDING_DOC, "source": {**Z2_DOC, "zero": False}}, "source.zero"),
            ({**EMBEDDING_DOC, "target": {**Z2_DOC, "add": [[0, 1], [1, "0"]]}}, "target.add[1][1]"),
            ({"sets": [{"v_of": 6, "d_of": 5}]}, "sets[0]"),
            ({"sets": [{"d_of": 6}, {"d_of": 5, "primes": [2], "mode": "finite"}]}, "sets[1]"),
            ({"sets": [{"v_of": 6, "mode": "finite"}]}, "sets[0]"),
            ({"carrier": ["a"], "members": [{"name": 5, "set": ["a"]}]}, "members[0].name"),
            (
                {"carrier": ["a", "b"], "members": [
                    {"name": "F0", "set": ["a"]}, {"name": ["x", 1], "set": ["b"]}
                ]},
                "members[1].name",
            ),
            ({"carrier": ["a"], "members": "a"}, "members must be a list"),
            ({"carrier": ["a"], "members": ["a"]}, "members[0] must be an object"),
            ({"carrier": ["a"], "closed": [[], [["a"]]]}, "closed[1][0]"),
            ({"carrier": ["a"], "closed": [[], [1]]}, "closed[1][0]"),
            ({"carrier": ["a"], "members": [{"name": "F0", "set": [["a"]]}]}, "members[0].set[0]"),
            ({"carrier": ["a"], "members": [{"name": "F0", "set": [1]}]}, "members[0].set[0]"),
            ({"family": {"carrier": ["a"], "members": [{"name": "F0", "set": [1]}]}, "set": []},
             "family.members[0].set[0]"),
        ],
    )
    def test_string_is_not_read_as_a_list(self, tmp_path, capsys, doc, path):
        verbs = next(v for key, v in self.VERBS_BY_KEY.items() if key in doc)
        for verb in verbs:
            code, out, err = run_file(tmp_path, capsys, verb, doc)
            assert (code, out) == (1, "")
            assert path in err

    @pytest.mark.parametrize(
        "verb, doc, path",
        [
            ("specz-fip", {"sets": [{"v_of": 6}, {"primes": [2]}]}, "sets[1].mode"),
            ("specz-fip", {"sets": [{"v_of": 6}, {"mode": "finite"}]}, "sets[1].primes"),
            ("specz-fip", {"sets": [{"v_of": 6}, {}]}, "sets[1].mode"),
            ("specz-fip", {}, "sets"),
            ("closure", {"family": FAMILY_DOC}, "set"),
            ("atoms", {"carrier": ["a"]}, "members"),
            ("ultra-topology", {"members": [{"name": "F0", "set": []}]}, "carrier"),
            ("ultra-topology", {"carrier": ["a"], "members": [{"name": "F0"}]}, "members[0].set"),
            ("closure", {"family": {"carrier": ["a"], "members": [{"set": []}]}, "set": []},
             "members[0].name"),
            ("patch", {"carrier": ["a"]}, "closed"),
            ("overrings", {"source": Z2_DOC, "target": Z2_DOC}, "map"),
            ("closure", {"family": {"carrier": ["a"]}, "set": []}, "family.members"),
        ],
    )
    def test_missing_key_is_named(self, tmp_path, capsys, verb, doc, path):
        code, out, err = run_file(tmp_path, capsys, verb, doc)
        assert (code, out) == (1, "")
        assert path in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "verb, doc, line",
        [
            ("atoms", {"carrier": ["a"]}, "missing key members"),
            ("atoms", {"carrier": ["a"], "members": [{"name": "F0", "set": "a"}]},
             "members[0].set must be a list, not str"),
            ("closure", {"family": {"carrier": ["a"]}, "set": []}, "missing key family.members"),
            ("closure", {"family": {"carrier": "a", "members": []}, "set": []},
             "family.carrier must be a list, not str"),
            ("check-spectral", {"carrier": ["a"]}, "missing key closed"),
            ("check-spectral", {"carrier": ["a"], "closed": "a"}, "closed must be a list, not str"),
            ("spec", {k: v for k, v in Z2_DOC.items() if k != "one"}, "missing key one"),
            ("spec", {**Z2_DOC, "zero": 0.5}, "zero must be an integer, not float"),
            ("spec", [Z2_DOC], "the document must be an object, not list"),
            ("overrings", {**EMBEDDING_DOC, "source": {"elements": ["0", "1"]}},
             "missing key source.add"),
            ("overrings", {**EMBEDDING_DOC, "target": {**Z2_DOC, "add": [[0, 1], [1, "0"]]}},
             "target.add[1][1] must be an integer, not str"),
            ("specz-fip", {"sets": [{"v_of": 6}, {"primes": [2]}]}, "missing key sets[1].mode"),
            ("specz-fip", {"sets": [{"primes": "23", "mode": "finite"}]},
             "sets[0].primes must be a list, not str"),
            ("specz-fip", {"sets": [{"v_of": 6, "d_of": 5}]},
             "sets[0] gives more than one of v_of, d_of and primes/mode"),
        ],
    )
    def test_malformed_document_line(self, tmp_path, capsys, verb, doc, line):
        code, out, err = run_file(tmp_path, capsys, verb, doc)
        assert (code, out, err) == (1, "", f"error: malformed input: {line}\n")

    @pytest.mark.parametrize("verb", ["check-spectral", "patch"])
    @pytest.mark.parametrize(
        "closed, line",
        [
            ([[], ["a"], ["z"], ["b", 1], ["a", "b"]], "closed[3][1] must be a string, not int"),
            ([["a"], ["b", None], ["a", "b"]], "closed[1][1] must be a string, not NoneType"),
            ([[], ["y", "x"], "ab", ["a", "b"]], "closed[2] must be a list, not str"),
            ([[], ["q"], ["a", ["b"]], ["a", "b"]], "closed[2][1] must be a string, not list"),
            ([[], ["a"], ["a", "b"], [True]], "closed[3][0] must be a string, not bool"),
        ],
        ids=["stray-then-int", "no-empty-set-and-null", "stray-then-string-entry",
             "nested-list", "true-after-a-topology"],
    )
    def test_first_bad_entry_wins_over_other_faults(self, verb, closed, line):
        """A space document with a stray label, a missing set or a broken
        topology besides a label or entry of the wrong type names the first
        entry of the wrong type."""
        doc = {"carrier": ["a", "b"], "closed": closed}
        assert call_main([verb, "-"], doc) == (1, "", f"error: malformed input: {line}\n")

    def test_unknown_mode_names_its_entry(self, tmp_path, capsys):
        doc = {"sets": [{"primes": [2], "mode": "x"}]}
        code, out, err = run_file(tmp_path, capsys, "specz-fip", doc)
        assert (code, out, err) == (2, "", "domain error: unknown mode 'x' at sets[0].mode\n")

    @pytest.mark.parametrize(
        "entry, line",
        [
            ({"primes": [4], "mode": "finite"}, "4 is not a prime number at sets[1]"),
            ({"primes": [2], "mode": "finite", "generic": True},
             "a constructible set contains the generic point exactly when it is cofinite"
             " at sets[1]"),
            ({"d_of": 10**13}, "factorization inputs are capped at 1000000000000 at sets[1]"),
        ],
        ids=["composite", "generic", "factor-cap"],
    )
    def test_domain_errors_name_their_entry(self, tmp_path, capsys, entry, line):
        doc = {"sets": [{"v_of": 6}, entry, {"primes": [3], "mode": "finite"}]}
        code, out, err = run_file(tmp_path, capsys, "specz-fip", doc)
        assert (code, out, err) == (2, "", f"domain error: {line}\n")

    @pytest.mark.parametrize("ring, key", [("source", "elements"), ("target", "one")])
    def test_missing_ring_key_names_the_ring(self, tmp_path, capsys, ring, key):
        doc = {**EMBEDDING_DOC, ring: {k: v for k, v in EMBEDDING_DOC[ring].items() if k != key}}
        code, out, err = run_file(tmp_path, capsys, "overrings", doc)
        assert (code, out) == (1, "")
        assert f"{ring}.{key}" in err

    def test_fip_search_past_its_bound_is_two(self, tmp_path, capsys):
        # 15 primes, then D(p) for each of them, twice: a list of 31 sets whose
        # witness is the first 16, which the pruned search reaches only after
        # 8572167 steps, past the cap of 2**22
        primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]
        doc = {"sets": [{"primes": primes, "mode": "finite"}] + [{"d_of": p} for p in primes] * 2}
        code, out, err = run_file(tmp_path, capsys, "specz-fip", doc)
        assert (code, out) == (2, "")
        assert err == "domain error: the FIP witness search is capped at 4194304 intersections\n"

    def test_closed_sets_past_their_bound_are_two(self, tmp_path, capsys):
        # a 30-point chain has 31 closed sets, and its patch is discrete: 2**30
        labels = [f"p{i:02d}" for i in range(30)]
        doc = {"carrier": labels, "closed": [labels[:k] for k in range(31)]}
        code, out, err = run_file(tmp_path, capsys, "patch", doc)
        assert (code, out) == (2, "")
        assert err == "domain error: listing closed sets is capped at 65536 sets\n"

    def test_dot_unsupported_is_one(self, tmp_path, capsys):
        code, _, err = run_file(
            tmp_path, capsys, "atoms", FAMILY_DOC, extra=["--format", "dot"]
        )
        assert code == 1
        assert err

    @pytest.mark.parametrize("verb", list(cli._VERBS))
    @pytest.mark.parametrize("fmt", ["json", "dot"])
    def test_format_follows_the_verb_table(self, tmp_path, capsys, verb, fmt):
        valid = VALID[verb]
        if isinstance(valid, dict):
            code, out, err = run_file(tmp_path, capsys, verb, valid, extra=["--format", fmt])
        else:
            code, out, err = run(capsys, [verb, *valid, "--format", fmt])
        if fmt == "json" or verb in DOT_VERBS:
            assert (code, err) == (0, "")
            assert out.startswith("{" if fmt == "json" else "// ultratop schema v1\n")
        else:
            assert (code, out) == (1, "")
            assert err == f"error: {verb} supports only --format json\n"

    def test_spec_with_zmod_and_document_is_one(self, tmp_path, capsys):
        code, out, err = run_file(tmp_path, capsys, "spec", Z2_DOC, extra=["--zmod", "6"])
        assert (code, out) == (1, "")
        assert "not both" in err

    @pytest.mark.parametrize(
        "exc, line",
        [
            (UltratopError("internal: a prime ideal is not maximal"),
             "internal: a prime ideal is not maximal"),
            (KeyError("one"), "KeyError('one')"),
            (TypeError("unhashable type: 'list'"), 'TypeError("unhashable type: \'list\'")'),
            (ValueError("tuple.index(x): x not in tuple"),
             "ValueError('tuple.index(x): x not in tuple')"),
        ],
        ids=["UltratopError", "KeyError", "TypeError", "ValueError"],
    )
    def test_internal_error_is_three(self, capsys, monkeypatch, exc, line):
        def broken(ring):
            raise exc

        monkeypatch.setattr(cli, "spec_space", broken)
        assert main(["spec", "--zmod", "6"]) == 3
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"internal error: {line}\n"

    def test_unchecked_ring_laws_end_in_one_line(self, tmp_path, capsys):
        # the ring laws are checked at every size, up to the 64-element cap
        doc = zmod(33).to_json()
        doc["mul"][2][2] = 1
        code, out, err = run_file(tmp_path, capsys, "spec", doc)
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("n, i, j, v", [(40, 32, 29, 30), (33, 2, 2, 1)])
    def test_broken_ring_laws_are_two_at_any_size(self, tmp_path, capsys, n, i, j, v):
        doc = zmod(n).to_json()
        doc["mul"][i][j] = doc["mul"][j][i] = v
        code, out, err = run_file(tmp_path, capsys, "spec", doc)
        assert (code, out) == (2, "")
        assert re.fullmatch(
            r"domain error: (addition is not associative|multiplication is not associative"
            r"|distributivity fails) at \(\d+, \d+, \d+\)\n",
            err,
        )


def _slots(value):
    """Every (container, key) pair inside a JSON value."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, child in items:
        yield value, key
        if isinstance(child, (dict, list)):
            yield from _slots(child)


JSON_VALUES = st.one_of(
    st.text(max_size=3),
    st.floats(allow_nan=False, allow_infinity=False),
    st.booleans(),
    st.none(),
    st.lists(st.integers(-1, 3) | st.text(max_size=2), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(-1, 3), max_size=2),
)


@st.composite
def mutated_documents(draw):
    """A valid document of some verb with one key dropped or one value replaced."""
    verb = draw(st.sampled_from(sorted(v for v, doc in VALID.items() if isinstance(doc, dict))))
    doc = copy.deepcopy(VALID[verb])
    container, key = draw(st.sampled_from(list(_slots(doc))))
    if isinstance(container, dict) and draw(st.booleans()):
        del container[key]
    else:
        container[key] = draw(JSON_VALUES)
    return verb, doc


class TestFuzz:
    @settings(max_examples=300, deadline=2000, derandomize=True, database=None)
    @given(mutated_documents())
    def test_mutated_documents_fail_cleanly(self, case):
        verb, doc = case
        code, out, err = call_main([verb, "-"], doc)
        assert code in (0, 1, 2)
        if code:
            assert out == ""
        assert len(err.splitlines()) == (code != 0)

    @settings(max_examples=300, deadline=2000, derandomize=True, database=None)
    @given(mutated_documents())
    def test_readers_return_or_raise_domain_errors(self, case):
        """Every document reader, given any value inside a mutated document,
        returns or raises a DomainError; never a bare KeyError or TypeError."""
        _, doc = case
        for value in [doc, *(container[key] for container, key in _slots(doc))]:
            for read in (SetFamily.from_json, FinSpace.from_json, FiniteRing.from_json,
                         ZConstructible.from_json):
                try:
                    read(value)
                except DomainError:
                    pass


class TestVerbs:
    def test_ultra_topology(self, tmp_path, capsys):
        code, out, _ = run_file(tmp_path, capsys, "ultra-topology", FAMILY_DOC)
        doc = json.loads(out)
        assert code == 0
        assert doc["verb"] == "ultra-topology"
        assert doc["closed"] == [[], ["c"], ["a", "b"], ["a", "b", "c"]]

    def test_closure(self, tmp_path, capsys):
        code, out, _ = run_file(
            tmp_path, capsys, "closure", {"family": FAMILY_DOC, "set": ["a"]}
        )
        doc = json.loads(out)
        assert code == 0
        assert doc["closure"] == ["a", "b"]
        assert doc["is_stable"] is False

    def test_atoms(self, tmp_path, capsys):
        code, out, _ = run_file(tmp_path, capsys, "atoms", FAMILY_DOC)
        doc = json.loads(out)
        assert code == 0
        assert doc["atoms"] == [["a", "b"], ["c"]]
        assert doc["element_count"] == 4

    def test_check_spectral(self, tmp_path, capsys):
        code, out, _ = run_file(tmp_path, capsys, "check-spectral", SIERPINSKI_DOC)
        doc = json.loads(out)
        assert code == 0
        assert doc["report"]["spectral"] is True
        assert doc["report"]["t0_witness"] is None

    def test_check_spectral_negative(self, tmp_path, capsys):
        chaotic = {"carrier": ["a", "b"], "closed": [[], ["a", "b"]]}
        code, out, _ = run_file(tmp_path, capsys, "check-spectral", chaotic)
        doc = json.loads(out)
        assert code == 0
        assert doc["report"]["spectral"] is False
        assert doc["report"]["t0_witness"] == ["a", "b"]

    def test_patch(self, tmp_path, capsys):
        code, out, _ = run_file(tmp_path, capsys, "patch", SIERPINSKI_DOC)
        doc = json.loads(out)
        assert code == 0
        assert doc["closed"] == [[], ["o"], ["s"], ["o", "s"]]

    def test_spec_zmod(self, capsys):
        code = main(["spec", "--zmod", "12"])
        out = capsys.readouterr().out
        doc = json.loads(out)
        assert code == 0
        labels = [p["label"] for p in doc["primes"]]
        assert labels == ["(2)", "(3)"]
        by_label = {p["label"]: p["members"] for p in doc["primes"]}
        assert by_label["(2)"] == ["0", "2", "4", "6", "8", "10"]

    def test_spec_ring_document(self, tmp_path, capsys):
        code, out, _ = run_file(tmp_path, capsys, "spec", zmod(30).to_json())
        doc = json.loads(out)
        assert code == 0
        assert [p["label"] for p in doc["primes"]] == ["(2)", "(3)", "(5)"]

    def test_spec_dot(self, capsys):
        code = main(["spec", "--zmod", "12", "--format", "dot"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("// ultratop schema v1\n")
        assert 'digraph "spec"' in out
        assert '"(2)";' in out and '"(3)";' in out

    def test_spec_rejects_bad_zmod(self, capsys):
        assert main(["spec", "--zmod", "1"]) == 2
        capsys.readouterr()

    def test_overrings(self, tmp_path, capsys):
        doc = {
            "source": gf(2).to_json(),
            "target": gf(16).to_json(),
            "map": [0, 1],
        }
        code, out, _ = run_file(tmp_path, capsys, "overrings", doc)
        body = json.loads(out)
        assert code == 0
        assert [r["size"] for r in body["rings"]] == [2, 4, 16]
        assert body["rings"][1]["members"] == ["0", "1", "6", "7"]
        assert body["spectral"]["spectral"] is True

    def test_overrings_into_a_fifth_power(self, tmp_path, capsys):
        # Z/2 into (Z/2)^5: one intermediate ring per partition of 5 points
        target = zmod(2)
        for _ in range(4):
            target = product(target, zmod(2))
        doc = {"source": Z2_DOC, "target": target.to_json(), "map": [target.zero, target.one]}
        code, out, err = run_file(tmp_path, capsys, "overrings", doc)
        body = json.loads(out)
        assert (code, err) == (0, "")
        assert len(body["rings"]) == 52
        assert body["spectral"]["spectral"] is True

    def test_overrings_dot(self, tmp_path, capsys):
        doc = {
            "source": gf(2).to_json(),
            "target": gf(4).to_json(),
            "map": [0, 1],
        }
        code, out, _ = run_file(
            tmp_path, capsys, "overrings", doc, extra=["--format", "dot"]
        )
        assert code == 0
        assert out.startswith("// ultratop schema v1\n")
        assert '"{0,1}" -> "{0,1,2,3}";' in out

    @pytest.mark.parametrize("extra", [[], ["--format", "dot"]], ids=["json", "dot"])
    def test_overrings_enumerates_intermediate_rings_once(self, monkeypatch, extra):
        # the space, its spectral report and the JSON ring list share one enumeration
        calls, worker = [], rings._intermediate_rings
        monkeypatch.setattr(rings, "_intermediate_rings", lambda emb: calls.append(emb) or worker(emb))
        target = product(gf(4), zmod(2))
        doc = {"source": Z2_DOC, "target": target.to_json(), "map": [target.zero, target.one]}
        for count in (1, 2):
            code, out, err = call_main(["overrings", "-", *extra], doc)
            assert (code, err) == (0, "")
            assert len(calls) == count

    def test_overrings_rejects_non_embedding(self, tmp_path, capsys):
        doc = {
            "source": zmod(4).to_json(),
            "target": zmod(2).to_json(),
            "map": [0, 1, 0, 1],
        }
        code, _, err = run_file(tmp_path, capsys, "overrings", doc)
        assert code == 2
        assert err

    def test_specz_closure_finite(self, capsys):
        code = main(["specz-closure", "--primes", "2,3"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["input"]["primes"] == [2, 3]
        assert doc["is_ultra_closed"] is True
        assert doc["patch_closure"] == doc["input"]

    def test_specz_closure_all(self, capsys):
        code = main(["specz-closure", "--primes", "all"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["is_ultra_closed"] is False
        assert doc["patch_closure"]["generic"] is True
        assert doc["zariski_closure"]["generic"] is True

    def test_specz_closure_rejects_composite(self, capsys):
        assert main(["specz-closure", "--primes", "2,9"]) == 2
        capsys.readouterr()

    def test_specz_closure_rejects_a_non_integer_prime(self):
        assert call_main(["specz-closure", "--primes", "2,x"]) == (1, "", (
            "error: --primes expects 'all' or comma-separated integers: "
            "invalid literal for int() with base 10: 'x'\n"))

    @pytest.mark.parametrize("spec, tail", [
        ("", ": invalid literal for int() with base 10: ''"),
        (",,,", ": invalid literal for int() with base 10: ''"),
        ("2,,3", ": invalid literal for int() with base 10: ''"),
        (" 2", ", not ' 2'"),
        ("2,3 ", ", not '2,3 '"),
        ("2_0", ", not '2_0'"),
        ("+2", ", not '+2'"),
        ("٢", ", not '٢'"),  # ARABIC-INDIC DIGIT TWO, which int() reads as 2
    ])
    def test_primes_are_ascii_digits_only(self, spec, tail):
        """Each comma-separated item of --primes is an optional minus and ASCII digits; an
        empty item or a form that int() alone would read is refused, not dropped or coerced."""
        assert call_main(["specz-closure", "--primes", spec]) == (
            1, "", f"error: --primes expects 'all' or comma-separated integers{tail}\n")

    @pytest.mark.parametrize("spec", ["-3", "2,-3", "-2"])
    def test_a_negative_prime_is_a_domain_error(self, spec):
        code, out, err = call_main(["specz-closure", "--primes", spec])
        assert (code, out) == (2, "") and err.startswith("domain error: -") and err.count("\n") == 1

    def test_specz_fip(self, tmp_path, capsys):
        doc = {"sets": [{"v_of": 6}, {"v_of": 10}, {"v_of": 15}]}
        code, out, _ = run_file(tmp_path, capsys, "specz-fip", doc)
        body = json.loads(out)
        assert code == 0
        assert body["has_fip"] is False
        assert body["witness"] == [0, 1, 2]

    def test_specz_fip_with_intersection(self, tmp_path, capsys):
        doc = {"sets": [{"d_of": 2}, {"d_of": 6}]}
        code, out, _ = run_file(tmp_path, capsys, "specz-fip", doc)
        body = json.loads(out)
        assert code == 0
        assert body["has_fip"] is True
        assert body["intersection"]["mode"] == "cofinite"
        assert body["intersection"]["primes"] == [2, 3]

    def test_specz_fip_inline_constructible(self, tmp_path, capsys):
        doc = {
            "sets": [
                {"primes": [2], "mode": "finite", "generic": False},
                {"primes": [3], "mode": "finite", "generic": False},
            ]
        }
        code, out, _ = run_file(tmp_path, capsys, "specz-fip", doc)
        body = json.loads(out)
        assert code == 0
        assert body["has_fip"] is False
        assert body["witness"] == [0, 1]


class TestStdinAndDeterminism:
    def test_stdin_dash(self, capsys, monkeypatch):
        code, out, _ = run(
            capsys, ["ultra-topology", "-"], FAMILY_DOC, monkeypatch
        )
        assert code == 0
        assert json.loads(out)["verb"] == "ultra-topology"

    def test_identical_invocations_identical_bytes(self, tmp_path, capsys):
        _, first, _ = run_file(tmp_path, capsys, "ultra-topology", FAMILY_DOC)
        _, second, _ = run_file(tmp_path, capsys, "ultra-topology", FAMILY_DOC)
        assert first == second
        code = main(["spec", "--zmod", "30"])
        assert code == 0
        third = capsys.readouterr().out
        main(["spec", "--zmod", "30"])
        fourth = capsys.readouterr().out
        assert third == fourth

    def test_output_ends_with_newline(self, tmp_path, capsys):
        _, out, _ = run_file(tmp_path, capsys, "atoms", FAMILY_DOC)
        assert out.endswith("\n")

    def test_seed_flag_accepted(self, capsys):
        assert main(["--seed", "7", "spec", "--zmod", "6"]) == 0
        capsys.readouterr()

    def test_schema_tag_everywhere(self, tmp_path, capsys):
        _, out, _ = run_file(tmp_path, capsys, "patch", SIERPINSKI_DOC)
        assert json.loads(out)["schema"] == "v1"

    def test_stray_labels_are_named_alike_under_every_hash_seed(self):
        """Sets of labels iterate in an order that string hashing, random per
        process, decides; with several stray labels the least one is named."""
        strays = ["z", "a", "x", "y"]
        family = {"carrier": ["a"], "members": [{"name": "F0", "set": strays}]}
        calls = [
            ("check-spectral", {"carrier": ["a"], "closed": [[], ["a"], strays]}),
            ("patch", {"carrier": ["a"], "closed": [[], strays, ["a"]]}),
            ("atoms", family),
            ("ultra-topology", family),
            ("closure", {"family": FAMILY_DOC, "set": ["z", "x", "y", "a"]}),
        ]
        script = (
            "import contextlib, io, json, sys\n"
            "from ultratop.cli import main\n"
            "for verb, doc in json.load(sys.stdin):\n"
            "    sys.stdin, err = io.StringIO(json.dumps(doc)), io.StringIO()\n"
            "    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):\n"
            "        print(main([verb, '-']), err.getvalue(), file=sys.__stdout__)\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        seen = set()
        for seed in range(6):
            env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": str(seed)}
            run = subprocess.run([sys.executable, "-c", script], input=json.dumps(calls),
                                 capture_output=True, text=True, env=env, timeout=120)
            assert run.returncode == 0, run.stderr
            seen.add(run.stdout)
        assert seen == {"2 domain error: 'x' is not a point of the carrier\n\n" * len(calls)}


# pairs of calls whose parsed arguments differ in a default, a flag, the
# output format or the exit code
SEQUENCES = [
    ((["spec", "--zmod", "4"], None), (["spec", "-"], Z2_DOC)),
    ((["specz-closure", "--primes", "2", "--generic"], None), (["specz-closure", "--primes", "2"], None)),
    ((["overrings", "-", "--format", "dot"], EMBEDDING_DOC), (["overrings", "-"], EMBEDDING_DOC)),
    ((["atoms", "-", "--bogus"], FAMILY_DOC), (["atoms", "-"], FAMILY_DOC)),
]

JSON_TEXT = st.text(
    st.sampled_from('"\\/\x00\x1f\x7f\n\t\u2028\ud800\udfffé€😀') | st.characters(exclude_categories=()),
    max_size=6,
)
# spaces of up to 5 points, each standing for its closed sets as the CLI renders them
SPACES = st.tuples(
    st.lists(JSON_TEXT, min_size=1, max_size=5, unique=True),
    st.lists(st.integers(0, 31), min_size=1, max_size=3),
).map(lambda drawn: ultra_topology(SetFamily.of(drawn[0], [
    [x for i, x in enumerate(drawn[0]) if m >> i & 1] for m in drawn[1]])))
JSON_TREES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-(2**80), 2**80) | JSON_TEXT | SPACES,
    lambda kids: (st.lists(kids, max_size=4) | st.lists(kids, max_size=4).map(tuple)
                  | st.dictionaries(JSON_TEXT, kids, max_size=4)),
    max_leaves=12,
)
# a listing whose labels escape or hold JSON separators, and the smallest listing
ODD_SPACE = ultra_topology(SetFamily.of(["a", "é", '"x', "[,]\n"], [["a", "é"], ['"x']]))
ONE_POINT = ultra_topology(SetFamily.of(["p"], [[]]))


def plain(value):
    """The value with each space as the lists of labels of its closed sets."""
    if isinstance(value, FinSpace):
        return value.to_json()["closed"]
    if isinstance(value, dict):
        return {k: plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [plain(v) for v in value]
    return value


def nested(value, depth):
    for key in range(depth):
        value = [0, value] if key % 2 else {"k": value, "": None}
    return value


class TestOutputPath:
    @settings(max_examples=300, derandomize=True, database=None)
    @given(JSON_TREES)
    def test_writer_matches_json_dumps(self, value):
        assert cli._dumps(value) == json.dumps(plain(value), indent=2, sort_keys=True)

    @pytest.mark.parametrize("depth", range(5))
    def test_writer_writes_encoded_sets_at_any_depth(self, depth):
        for space in (ODD_SPACE, ONE_POINT):
            value = nested(space, depth)
            assert cli._dumps(value) == json.dumps(plain(value), indent=2, sort_keys=True)

    def test_writer_rejects_other_types(self):
        with pytest.raises(TypeError):
            cli._dumps({"a": [1.5]})

    @pytest.mark.parametrize("first, second", SEQUENCES)
    def test_cached_parser_keeps_calls_apart(self, first, second):
        alone = []
        for argv, doc in (first, second):
            alone.append(call_main(argv, doc))
        assert alone[0] != alone[1] and alone[1][0] == 0
        assert [call_main(*first), call_main(*second)] == alone
