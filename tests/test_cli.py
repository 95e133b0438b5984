"""Command-line interface: verbs, output formats, exit codes."""

import itertools
import json
import math
import re
import time

import pytest

from cinfer import catalog, inequalities
from cinfer.cli import main
from cinfer.sets import BasicSet
from cinfer.structures import CIStructure


@pytest.fixture()
def ex1_file(tmp_path):
    path = tmp_path / "ex1.json"
    path.write_text(json.dumps(catalog.get("EX1").distribution.to_json_dict()))
    return str(path)


class TestCheckCI:
    def test_true_statement(self, ex1_file, capsys):
        assert main(["check-ci", ex1_file, "x _||_ y | "]) == 0
        assert capsys.readouterr().out.strip() == "true"

    def test_false_statement_exit_code(self, ex1_file, capsys):
        assert main(["check-ci", ex1_file, "z _||_ u | "]) == 1
        assert capsys.readouterr().out.strip() == "false"

    def test_compound_statement(self, ex1_file, capsys):
        assert main(["check-ci", ex1_file, "z u _||_ x | "]) == 1
        assert main(["check-ci", ex1_file, "z _||_ u | x y"]) == 0

    def test_json_output(self, ex1_file, capsys):
        assert main(["check-ci", "--json", ex1_file, "x _||_ y | "]) == 0
        assert json.loads(capsys.readouterr().out) == {"holds": True}

    def test_malformed_statement(self, ex1_file, capsys):
        assert main(["check-ci", ex1_file, "x indep y"]) == 2

    def test_unknown_variable(self, ex1_file):
        assert main(["check-ci", ex1_file, "x _||_ q | "]) == 2

    def test_missing_file(self, tmp_path):
        assert main(["check-ci", str(tmp_path / "nope.json"), "x _||_ y | "]) == 2


ELEVEN_LABELS = ["x", "y", "z", "u", "a", "b", "c", "d", "e", "f", "g"]
BAD_DISTRIBUTIONS = {
    "top-level-list": [1, 2],
    "density-not-list": {"variables": [{"name": "x", "cardinality": 2}], "density": 5},
    "config-not-list": {
        "variables": [{"name": "x", "cardinality": 2}],
        "density": [{"config": 5, "prob": "1"}],
    },
    "cardinality-not-int": {
        "variables": [{"name": "x", "cardinality": [2]}],
        "density": [{"config": [0], "prob": "1"}],
    },
    # Fraction would build 10**10000000 for this exponent
    "prob-exponent": {
        "variables": [{"name": "x", "cardinality": 2}],
        "density": [{"config": [0], "prob": "1e-10000000"}, {"config": [1], "prob": "1"}],
    },
    # sums to 1, over a denominator of 10**101
    "prob-denominator": {
        "variables": [{"name": "x", "cardinality": 2}, {"name": "y", "cardinality": 2}],
        "density": [
            {"config": [0, 0], "prob": "1/1" + "0" * 101},
            {"config": [1, 1], "prob": "9" * 101 + "/1" + "0" * 101},
        ],
    },
    "prob-zero-denominator": {
        "variables": [{"name": "x", "cardinality": 2}],
        "density": [{"config": [0], "prob": "1/0"}],
    },
    "name-not-string": {
        "variables": [{"name": "x", "cardinality": 2}, {"name": 5, "cardinality": 2}],
        "density": [{"config": [0, 0], "prob": "1"}],
    },
    # JSON true and false are Python ints; over x, y, z, u so every verb
    # would otherwise run
    "cardinality-bool": {
        "variables": [{"name": "x", "cardinality": True}]
        + [{"name": n, "cardinality": 2} for n in "yzu"],
        "density": [{"config": [0, 0, 0, 0], "prob": "1"}],
    },
    "config-bool": {
        "variables": [{"name": n, "cardinality": 2} for n in "xyzu"],
        "density": [{"config": [False, True, False, True], "prob": "1"}],
    },
    # one row over eleven variables: C(11,2) * 2**9 = 28,160 triplets
    "eleven-variables": {
        "variables": [{"name": n, "cardinality": 1} for n in ELEVEN_LABELS],
        "density": [{"config": [0] * 11, "prob": "1"}],
    },
}
BAD_STRUCTURES = {
    "top-level-list": [1, 2],
    "statements-not-list": {"variables": ["x", "y"], "statements": 5},
    "K-not-list": {"variables": ["x", "y", "z"], "statements": [{"i": "x", "j": "y", "K": 5}]},
    "labels-not-strings": {"variables": [1, 2, 3], "statements": [{"i": 1, "j": 2, "K": [3]}]},
    "i-not-string": {"variables": ["x", "y"], "statements": [{"i": ["x"], "j": "y", "K": []}]},
    "j-missing": {"variables": ["x", "y"], "statements": [{"i": "x", "K": []}]},
    "eleven-variables": {"variables": ELEVEN_LABELS, "statements": []},
    # loads, but the rule engine covers at most eight variables
    "nine-variables": {"variables": ELEVEN_LABELS[:9], "statements": []},
}
# argv with None where the input file goes
LOADING_VERBS = [
    (["structure", None], BAD_DISTRIBUTIONS),
    (["entropy", None], BAD_DISTRIBUTIONS),
    (["check-ci", None, "x _||_ y | "], BAD_DISTRIBUTIONS),
    (["ingleton", None, "--xyzu", "x,y,z,u"], BAD_DISTRIBUTIONS),
    (["closure", None], BAD_STRUCTURES),
]


class TestMalformedInput:
    @pytest.mark.parametrize(
        "argv, document",
        [
            pytest.param(argv, doc, id=f"{argv[0]}-{name}")
            for argv, docs in LOADING_VERBS
            for name, doc in docs.items()
        ],
    )
    def test_wrong_json_shape_is_an_input_error(self, argv, document, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(document))
        start = time.perf_counter()
        assert main([str(path) if a is None else a for a in argv]) == 2
        assert time.perf_counter() - start < 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [argv for argv, _ in LOADING_VERBS], ids=lambda a: a[0])
    def test_deeply_nested_json_is_an_input_error(self, argv, tmp_path, capsys):
        # deeper than the JSON decoder's recursion limit
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        assert main([str(path) if a is None else a for a in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @staticmethod
    def _colliding_labels(tmp_path):
        # over a, b and ab, the subsets {a, b} and {ab} would share the key "ab"
        path = tmp_path / "ab.json"
        path.write_text(json.dumps({
            "variables": [{"name": n, "cardinality": 2} for n in ("a", "b", "ab")],
            "density": [
                {"config": cfg, "prob": "1/3"} for cfg in ([0, 0, 0], [1, 0, 1], [0, 1, 1])
            ],
        }))
        return str(path)

    def test_colliding_subset_keys_are_an_input_error(self, tmp_path, capsys):
        assert main(["entropy", "--json", self._colliding_labels(tmp_path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_colliding_subset_keys_in_text_output(self, tmp_path, capsys):
        # the text form would print H(ab) twice
        assert main(["entropy", self._colliding_labels(tmp_path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_colliding_subset_keys_in_structure_text(self, tmp_path, capsys):
        # the text form would name the conditioning sets {a, b} and {ab} alike
        assert main(["structure", self._colliding_labels(tmp_path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert main(["structure", "--json", self._colliding_labels(tmp_path)]) == 0

    def test_colliding_subset_keys_in_closure_text(self, tmp_path, capsys):
        # the text form would print (c,d|ab) (c,d|ab)
        path = tmp_path / "cd.json"
        path.write_text(json.dumps({
            "variables": ["a", "b", "ab", "c", "d"],
            "statements": [{"i": "c", "j": "d", "K": K} for K in (["a", "b"], ["ab"])],
        }))
        assert main(["closure", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert main(["closure", "--json", str(path)]) == 0
        statements = json.loads(capsys.readouterr().out)["statements"]
        assert {"i": "c", "j": "d", "K": ["a", "b"]} in statements
        assert {"i": "c", "j": "d", "K": ["ab"]} in statements


def _nested(depth: int) -> list:
    value = []
    for _ in range(depth):
        value = [value]
    return value


LONG_LABEL = "v" * 5000


def _distribution(prob=None, names=("x", "y")) -> dict:
    return {
        "variables": [{"name": n, "cardinality": 2} for n in names],
        "density": [{"config": [0, 0], "prob": "1" if prob is None else prob}],
    }


def _structure(i="x", K=()) -> dict:
    return {"variables": ["x", "y", "z"], "statements": [{"i": i, "j": "y", "K": list(K)}]}


class TestErrorMessages:
    @pytest.mark.parametrize(
        "argv, document",
        [
            pytest.param(["closure", None], _structure(i=LONG_LABEL), id="long-i"),
            pytest.param(["closure", None], _structure(i=_nested(300)), id="deep-i"),
            pytest.param(["closure", None], _structure(K=[LONG_LABEL]), id="long-K-label"),
            pytest.param(["structure", None], _distribution(prob=_nested(300)), id="deep-prob"),
            pytest.param(["structure", None], _distribution(prob="7" * 5000), id="long-prob"),
            pytest.param(
                ["structure", None], _distribution(names=(LONG_LABEL, LONG_LABEL)), id="dup-label"
            ),
            pytest.param(
                ["check-ci", None, f"x _||_ {LONG_LABEL}"], _distribution(), id="long-statement"
            ),
            pytest.param(["check-ci", None, LONG_LABEL], _distribution(), id="no-separator"),
        ],
    )
    def test_quoted_input_is_capped(self, argv, document, tmp_path, capsys):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(document))
        assert main([str(path) if a is None else a for a in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert len(err) < 200

    def test_unknown_label_is_quoted_once(self, ex1_file, capsys):
        assert main(["check-ci", ex1_file, "x _||_ w | "]) == 2
        assert capsys.readouterr().err == "error: unknown variable 'w'\n"

    def test_unknown_check_is_quoted_once(self, capsys):
        assert main(["verify-paper", "--only", "nope"]) == 2
        assert capsys.readouterr().err.startswith("error: unknown check 'nope'; known: ")
        # an empty name is unknown too, not a request for every check
        assert main(["verify-paper", "--only", ""]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: unknown check ''; known: ")


class TestInputBounds:
    def test_one_variable_files(self, tmp_path, capsys):
        bit = tmp_path / "bit.json"
        bit.write_text(json.dumps({
            "variables": [{"name": "x", "cardinality": 2}],
            "density": [{"config": [0], "prob": "1/2"}, {"config": [1], "prob": "1/2"}],
        }))
        assert main(["entropy", str(bit)]) == 0
        assert capsys.readouterr().out == "H({}) = 0.000000000000\nH(x) = 0.693147180560\n"
        empty = {"variables": ["x"], "statements": []}
        assert main(["structure", "--json", str(bit)]) == 0
        assert json.loads(capsys.readouterr().out) == empty
        seed = tmp_path / "seed.json"
        seed.write_text(json.dumps(empty))
        assert main(["closure", "--json", str(seed)]) == 0
        assert json.loads(capsys.readouterr().out) == empty

    @staticmethod
    def _wide_file(tmp_path, rows, card):
        """The first rows configurations of ten card-valued variables."""
        path = tmp_path / f"wide-{rows}x{card}.json"
        path.write_text(json.dumps({
            "variables": [{"name": n, "cardinality": card} for n in "xyzuabcdef"],
            "density": [
                {"config": list(cfg), "prob": f"1/{rows}"}
                for cfg in itertools.islice(itertools.product(range(card), repeat=10), rows)
            ],
        }))
        return str(path)

    def test_oversized_marginal_fill_is_an_input_error(self, tmp_path, capsys):
        # 725 rows over ten four-valued variables: up to 524,751 marginal
        # entries, one row more than the bound allows
        path = self._wide_file(tmp_path, 725, 4)
        for argv in (["structure"], ["entropy"], ["ingleton", "--xyzu", "x,y,z,u"]):
            assert main(argv + [path]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: 725 rows over 10 variables") and err.count("\n") == 1
        # a single CI query fills no lattice
        assert main(["check-ci", path, "e _||_ f | "]) == 1

    def test_full_binary_grid_over_ten_variables(self, tmp_path, capsys):
        # 1,024 rows * 2**10 is over the bound, its 3**10 marginal entries are not
        path = self._wide_file(tmp_path, 1024, 2)
        assert main(["entropy", path]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1024 and lines[-1] == f"H(xyzuabcdef) = {10 * math.log(2):.12f}"
        # ten independent fair bits: every one of the 11,520 triplets holds
        assert main(["structure", "--json", path]) == 0
        full = CIStructure(BasicSet(tuple("xyzuabcdef")), (1 << 11_520) - 1)
        assert json.loads(capsys.readouterr().out) == full.to_json_dict()


class TestStructure:
    def test_text_output(self, ex1_file, capsys):
        assert main(["structure", ex1_file]) == 0
        out = capsys.readouterr().out
        assert "(x,y|)" in out and "(z,u|xy)" in out

    def test_json_round_trip(self, ex1_file, capsys):
        assert main(["structure", "--json", ex1_file]) == 0
        parsed = CIStructure.from_json_dict(json.loads(capsys.readouterr().out))
        assert parsed.members == catalog.get("EX1").claimed_statements.members


class TestEntropyAndIngleton:
    def test_entropy_text(self, ex1_file, capsys):
        assert main(["entropy", ex1_file]) == 0
        out = capsys.readouterr().out
        assert "H({}) = 0.000000000000" in out
        assert "H(xyzu)" in out

    def test_ingleton_value(self, ex1_file, capsys):
        assert main(["ingleton", ex1_file, "--xyzu", "x,y,z,u"]) == 0
        value = float(capsys.readouterr().out)
        assert value == pytest.approx(-0.0849495, abs=1e-6)

    def test_ingleton_grouped_variables(self, ex1_file, capsys):
        # compound first group, empty last group: still a valid expression
        assert main(["ingleton", ex1_file, "--xyzu", "x+y,z,u,"]) == 0
        float(capsys.readouterr().out)

    def test_ingleton_wrong_group_count(self, ex1_file, capsys):
        assert main(["ingleton", ex1_file, "--xyzu", "x,y,z"]) == 2


class TestClosure:
    def test_single_statement_closure(self, tmp_path, capsys):
        from cinfer.sets import BasicSet, Report

        base = BasicSet(("x", "y", "z", "u"))
        seed = CIStructure.from_statements(base, [("x", "y", ""), ("x", "z", "y")])
        path = tmp_path / "seed.json"
        path.write_text(json.dumps(seed.to_json_dict()))
        assert main(["closure", str(path)]) == 0
        out = capsys.readouterr().out
        assert "(x,z|)" in out and "(x,y|z)" in out

    def test_empty_closure(self, tmp_path, capsys):
        from cinfer.sets import BasicSet, Report

        base = BasicSet(("x", "y", "z", "u"))
        path = tmp_path / "empty.json"
        path.write_text(json.dumps(CIStructure(base, 0).to_json_dict()))
        assert main(["closure", str(path)]) == 0
        assert capsys.readouterr().out.strip() == "(empty)"


class TestEnumerate:
    @pytest.mark.parametrize("rules, count", [("sg", 26_424), ("all", 18_478)])
    def test_dump_is_strictly_ascending_hex(self, rules, count, tmp_path, capsys):
        path = tmp_path / f"{rules}.txt"
        assert main(["enumerate", "--rules", rules, "--dump", str(path)]) == 0
        assert capsys.readouterr().out.strip() == str(count)
        lines = path.read_text().splitlines()
        assert len(lines) == count
        assert all(re.fullmatch("[0-9a-f]{6}", line) for line in lines)
        values = [int(line, 16) for line in lines]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_human_dump_lines(self, tmp_path, capsys):
        path = tmp_path / "sg.txt"
        assert main(["enumerate", "--rules", "sg", "--dump", str(path), "--dump-human"]) == 0
        assert capsys.readouterr().out.strip() == "26424"
        lines = path.read_text().splitlines()
        plain = tmp_path / "plain.txt"
        assert main(["enumerate", "--rules", "sg", "--dump", str(plain)]) == 0
        assert [line[:6] for line in lines] == plain.read_text().splitlines()
        base = BasicSet(("x", "y", "z", "u"))
        for line in lines[:50] + lines[-50:]:
            bits = int(line[:6], 16)
            assert line == f"{bits:06x}  {CIStructure(base, bits).render()}"
        assert lines[0] == "000000  (empty)"

    def test_human_dump_needs_a_dump(self, tmp_path, capsys):
        assert main(["enumerate", "--dump-human"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "error: --dump-human needs --dump\n"

    def test_threads_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", "--threads", "2"])
        assert exc.value.code == 2


class TestVerifyVerbs:
    def test_verify_paper_single_check(self, capsys):
        assert main(["verify-paper", "--only", "hxy"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("[PASS] hxy")

    def test_verify_paper_json(self, capsys):
        assert main(["verify-paper", "--only", "example5-closed-form", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data[0]["check"] == "example5-closed-form"
        assert data[0]["ok"] is True

    def test_verify_paper_unknown_check(self, capsys):
        assert main(["verify-paper", "--only", "nonsense"]) == 2

    def test_verify_inequality(self, capsys):
        assert main(["verify-inequality", "3"]) == 0
        report = inequalities.verify_conditional_inequality(3)
        assert capsys.readouterr().out == f"[PASS] rule 3: {report.detail}\n"

    def test_verify_inequality_bad_rule(self, capsys):
        assert main(["verify-inequality", "9"]) == 2

    def test_verify_inequality_takes_no_tolerance(self, capsys):
        # every verdict is decided at FLOAT_TOL
        with pytest.raises(SystemExit) as exc:
            main(["verify-inequality", "3", "--tol", "1e-6"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --tol" in capsys.readouterr().err

    def test_verify_inequality_takes_no_samples(self, capsys):
        # the verdict runs on the catalog distributions, with nothing drawn
        with pytest.raises(SystemExit) as exc:
            main(["verify-inequality", "3", "--samples", "20"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --samples" in capsys.readouterr().err

    def test_verify_inequality_json(self, capsys):
        assert main(["verify-inequality", "3", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert list(data) == ["rule", "instances", "min_ingleton", "ok"]
        assert data["rule"] == 3 and data["instances"] == 128 and data["ok"] is True
        report = inequalities.verify_conditional_inequality(3)
        assert data["min_ingleton"] == report.value


class TestIrreducibles:
    def test_listing(self, capsys):
        assert main(["irreducibles"]) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert len(lines) == 92
        assert lines[-1].startswith("ffffff")
