import contextlib
import copy
import gc
import io
import json
import re
import sys
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from ultratop import UltratopError, gf, product, zmod
from ultratop import cli
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

    @pytest.mark.parametrize("ring, key", [("source", "elements"), ("target", "one")])
    def test_missing_ring_key_names_the_ring(self, tmp_path, capsys, ring, key):
        doc = {**EMBEDDING_DOC, ring: {k: v for k, v in EMBEDDING_DOC[ring].items() if k != key}}
        code, out, err = run_file(tmp_path, capsys, "overrings", doc)
        assert (code, out) == (1, "")
        assert f"{ring}.{key}" in err

    def test_fip_search_past_its_bound_is_two(self, tmp_path, capsys):
        # only the whole list of 22 sets is empty: the worst case, 2**23 - 2 ANDs
        primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73]
        doc = {"sets": [{"d_of": p} for p in primes] + [{"primes": primes, "mode": "finite"}]}
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

    def test_internal_error_is_three(self, capsys, monkeypatch):
        def broken(ring):
            raise UltratopError("internal: a prime ideal is not maximal")

        monkeypatch.setattr(cli, "spec_space", broken)
        assert main(["spec", "--zmod", "6"]) == 3
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "internal error: internal: a prime ideal is not maximal\n"

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
JSON_TREES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-(2**80), 2**80) | JSON_TEXT,
    lambda kids: (st.lists(kids, max_size=4) | st.lists(kids, max_size=4).map(tuple)
                  | st.dictionaries(JSON_TEXT, kids, max_size=4)),
    max_leaves=12,
)


class TestOutputPath:
    @settings(max_examples=300, derandomize=True, database=None)
    @given(JSON_TREES)
    def test_writer_matches_json_dumps(self, value):
        assert cli._dumps(value) == json.dumps(value, indent=2, sort_keys=True)

    def test_writer_rejects_other_types(self):
        with pytest.raises(TypeError):
            cli._dumps({"a": [1.5]})

    @pytest.mark.parametrize("first, second", SEQUENCES)
    def test_cached_parser_keeps_calls_apart(self, first, second):
        assert cli.build_parser() is cli.build_parser()
        alone = []
        for argv, doc in (first, second):
            cli.build_parser.cache_clear()
            alone.append(call_main(argv, doc))
        assert alone[0] != alone[1] and alone[1][0] == 0
        cli.build_parser.cache_clear()
        assert [call_main(*first), call_main(*second)] == alone
