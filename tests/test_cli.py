import json

import pytest

from ultratop import gf, zmod
from ultratop.cli import main


FAMILY_DOC = {
    "carrier": ["a", "b", "c"],
    "members": [{"name": "F0", "set": ["a", "b"]}],
}
SIERPINSKI_DOC = {"carrier": ["o", "s"], "closed": [[], ["s"], ["o", "s"]]}


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

    @pytest.mark.parametrize(
        "doc, path",
        [
            ({"carrier": ["a", "b"], "closed": [[], "ab", "a"]}, "closed[1]"),
            ({"carrier": "ab", "closed": [[], ["a"], ["a", "b"]]}, "carrier"),
            ({"carrier": ["a"], "closed": "a"}, "closed"),
        ],
    )
    def test_string_is_not_read_as_a_list(self, tmp_path, capsys, doc, path):
        for verb in ("check-spectral", "patch"):
            code, out, err = run_file(tmp_path, capsys, verb, doc)
            assert (code, out) == (1, "")
            assert path in err

    def test_dot_unsupported_is_one(self, tmp_path, capsys):
        code, _, err = run_file(
            tmp_path, capsys, "atoms", FAMILY_DOC, extra=["--format", "dot"]
        )
        assert code == 1
        assert err


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
