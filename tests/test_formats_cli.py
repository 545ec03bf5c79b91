"""Serialization formats and the command line surface."""

import json
from fractions import Fraction

import pytest

from latdefect import (
    FormatError,
    NotIntegerError,
    SeifertData,
    canonical_plumbing,
    e7_lattice,
    format_fraction,
    gram_from_json,
    gram_to_json,
    parse_fraction,
    validate_lattice,
)
from latdefect.cli import main
from latdefect.formats import MAX_GRAM_ENTRY, MAX_GRAM_RANK

A1_DOC = '{"rank": 1, "gram": [[2]]}'
I3_DOC = json.dumps({"rank": 3, "gram": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]})
E7_DOC = gram_to_json(e7_lattice().gram)
# glue --json basis rows, in direct-sum coordinates
A1_A1_BASIS = [["1/2", "1/2"], ["0", "1"]]
E7_A1_BASIS = [
    ["1", "0", "0", "0", "0", "0", "0", "0"],
    ["0", "1", "0", "0", "0", "0", "0", "0"],
    ["0", "0", "1", "0", "0", "0", "0", "0"],
    ["0", "0", "0", "1/2", "0", "1/2", "1/2", "1/2"],
    ["0", "0", "0", "0", "1", "0", "0", "0"],
    ["0", "0", "0", "0", "0", "1", "0", "0"],
    ["0", "0", "0", "0", "0", "0", "1", "0"],
    ["0", "0", "0", "0", "0", "0", "0", "1"],
]


def test_format_fraction():
    assert format_fraction(3) == "3"
    assert format_fraction(Fraction(-31, 4)) == "-31/4"
    assert format_fraction(Fraction(4, 2)) == "2"


def test_parse_fraction():
    assert parse_fraction("3") == 3
    assert parse_fraction("-31/4") == Fraction(-31, 4)
    assert parse_fraction(" 7/2 ") == Fraction(7, 2)
    assert parse_fraction("-0/5") == 0
    # ASCII digits only: int() would read an Arabic-Indic three as 3, 1_0 as
    # 10 and fullwidth 1/2 as 1/2; a sign goes on the numerator only
    bad_inputs = ("a", "1/0", "1/2/3", "", "\u0663", "1_0", "\uff11/\uff12", "+3",
                  "1/-2", "- 1", "1 / 2", "1.5", "1" * 5000)
    for bad in bad_inputs:
        with pytest.raises(FormatError) as info:
            parse_fraction(bad)
        assert info.value.exit_code == 1
    with pytest.raises(FormatError, match="^invalid rational '1/0': zero denominator$"):
        parse_fraction("1/0")


def test_gram_json_roundtrip():
    rows = [[2, 1], [1, 3]]
    doc = gram_to_json(rows)
    assert json.loads(doc) == {"rank": 2, "gram": rows}
    assert gram_from_json(doc) == rows
    assert gram_to_json([[Fraction(4, 2), 1], [1, 3]]) == doc
    # int() would write [[2]] for 5/2
    for entry in (Fraction(5, 2), 2.5, True, "2"):
        with pytest.raises(NotIntegerError, match="is not an integer"):
            gram_to_json([[entry]])


def test_gram_json_diagnostics():
    cases = [
        ("not json", "invalid JSON"),
        ("[1]", "expected an object"),
        ("{}", "missing 'gram'"),
        ('{"gram": []}', "nonempty list"),
        ('{"gram": [[1, 2], [1]]}', "row 1 has length 1"),
        ('{"gram": [[1.5]]}', "row 0, column 0"),
        ('{"gram": [[true]]}', "row 0, column 0"),
        ('{"rank": 3, "gram": [[1]]}', "'rank' is 3"),
        # true and 1.0 both compare equal to the row count 1
        ('{"rank": true, "gram": [[1]]}', "'rank' is true, not an integer"),
        ('{"rank": 1.0, "gram": [[1]]}', "'rank' is 1.0, not an integer"),
    ]
    for text, fragment in cases:
        with pytest.raises(FormatError, match=fragment):
            gram_from_json(text)


@pytest.fixture()
def gram_files(tmp_path):
    files = {}
    for name, doc in (("a1", A1_DOC), ("a1b", A1_DOC), ("i3", I3_DOC), ("e7", E7_DOC)):
        path = tmp_path / f"{name}.json"
        path.write_text(doc)
        files[name] = str(path)
    files["delta2"] = str(tmp_path / "delta2.json")
    (tmp_path / "delta2.json").write_text(
        json.dumps({"rank": 2, "gram": [[1, 0], [0, 2]]})
    )
    files["bad"] = str(tmp_path / "bad.json")
    (tmp_path / "bad.json").write_text('{"rank": 1, "gram": [[0]]}')
    return files


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_defect_unimodular(capsys, gram_files):
    code, out, _ = run_cli(capsys, ["defect", "--gram", gram_files["i3"]])
    assert code == 0
    assert out == "defect = 0\n"


def test_cli_defect_pair(capsys, gram_files):
    code, out, _ = run_cli(capsys, ["defect", "--gram", gram_files["delta2"]])
    assert code == 0
    assert out == "d_plus = 1/4\nd_minus = -1/4\n"
    d_plus = Fraction(out.splitlines()[0].removeprefix("d_plus = "))
    # the plus class minimum from charmin gives the same defect
    code, out, _ = run_cli(
        capsys, ["--json", "charmin", "--gram", gram_files["delta2"], "--sign", "plus"]
    )
    assert code == 0
    assert (Fraction(json.loads(out)["min"]) - 2) / 4 == d_plus


def test_cli_defect_takes_no_sign(capsys, gram_files):
    # one path: defect prints both classes; per-class minima are charmin's
    code, _, err = run_cli(capsys, ["defect", "--gram", gram_files["delta2"], "--sign", "plus"])
    assert code == 1
    assert "--sign" in err


def test_cli_defect_json(capsys, gram_files):
    code, out, _ = run_cli(capsys, ["--json", "defect", "--gram", gram_files["delta2"]])
    assert code == 0
    assert json.loads(out) == {"determinant": 2, "d_plus": "1/4", "d_minus": "-1/4"}


def test_cli_charmin(capsys, gram_files):
    code, out, _ = run_cli(
        capsys, ["charmin", "--gram", gram_files["a1"], "--sign", "minus"]
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "min = 0"
    assert lines[1] == "minimizer: (0)"
    assert lines[2].startswith("nodes = ")


def test_cli_charmin_json(capsys, gram_files):
    code, out, _ = run_cli(
        capsys, ["--json", "charmin", "--gram", gram_files["i3"]]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["min"] == "3"
    # antipodal minimizers are reported once, first coordinate positive
    assert sorted(payload["minimizers"]) == sorted(
        [[1, b, c] for b in (-1, 1) for c in (-1, 1)]
    )
    assert payload["nodes"] > 0


def test_cli_glue(capsys, gram_files):
    code, out, _ = run_cli(
        capsys, ["glue", "--left", gram_files["a1"], "--right", gram_files["a1b"]]
    )
    assert code == 0
    rows = gram_from_json(out)
    lat = validate_lattice(rows)
    assert lat.rank == 2
    assert abs(lat.determinant) == 1
    code, out, _ = run_cli(
        capsys,
        ["--json", "glue", "--left", gram_files["a1"], "--right", gram_files["a1b"]],
    )
    payload = json.loads(out)
    assert payload["rank"] == 2
    assert payload["index"] == 2
    assert abs(payload["determinant"]) == 1
    assert payload["basis"] == A1_A1_BASIS
    code, out, _ = run_cli(
        capsys,
        ["--json", "glue", "--left", gram_files["e7"], "--right", gram_files["a1"]],
    )
    assert code == 0
    assert json.loads(out)["basis"] == E7_A1_BASIS


def test_cli_seifert_d_sphere(capsys):
    # leading-dash expressions travel after the "--" separator
    for argv, value in (
        (["seifert", "d", "P"], "2"),
        (["seifert", "d", "--", "-P"], "-2"),
        (["seifert", "d", "3*P"], "6"),
    ):
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        assert out == f"d = {value}\n"


def test_cli_seifert_d_pair(capsys):
    code, out, _ = run_cli(capsys, ["seifert", "d", "Y(-1; -3)"])
    assert code == 0
    assert out == "class values: -1/4, 1/4\nd_{1/4} = 1/4\nd_{-1/4} = -1/4\n"


def test_cli_seifert_d_many_classes(capsys):
    code, out, _ = run_cli(capsys, ["seifert", "d", "Y(-2; -3/2)"])
    assert code == 0
    assert out == "class values: -1/4, 0, 0, 3/4\n"


def test_cli_seifert_d_json(capsys):
    code, out, _ = run_cli(capsys, ["--json", "seifert", "d", "Y(-1; -3)"])
    assert code == 0
    payload = json.loads(out)
    assert payload["h1"] == 2
    assert payload["class_values"] == ["-1/4", "1/4"]
    assert payload["pair"] == {"d_1/4": "1/4", "d_-1/4": "-1/4"}


def test_cli_json_and_seed_are_global_only(capsys):
    code, out, err = run_cli(capsys, ["seifert", "d", "--json", "Y(-1; -3)"])
    assert (code, out) == (1, "")
    assert "--json" in err
    code, out, err = run_cli(capsys, ["verify", "roundtrip", "--trials", "1", "--seed", "1"])
    assert (code, out) == (1, "")
    assert "--seed" in err


def test_cli_obstruct(capsys):
    code, out, _ = run_cli(capsys, ["obstruct", "P"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "positive definite filling: Obstructed"
    assert lines[1] == "negative definite filling: Inconclusive"
    assert lines[2].startswith("reason: ")

    code, out, _ = run_cli(capsys, ["obstruct", "Y(-1; -3)"])
    assert code == 0
    assert "positive definite filling: Inconclusive" in out
    assert "negative definite filling: Inconclusive" in out


def test_cli_surgery(capsys):
    code, out, _ = run_cli(capsys, ["surgery", "Y(-1; -3)"])
    assert code == 0
    assert out == "difference = 1/2\nverdict = false\n"


def test_cli_surgery_needs_pair(capsys):
    code, _, err = run_cli(capsys, ["surgery", "P"])
    assert code == 2
    assert "labelled pair" in err


def test_cli_verify(capsys):
    code, out, _ = run_cli(
        capsys, ["verify", "congruence", "--trials", "5", "--rank-bound", "4"]
    )
    assert code == 0
    assert out.startswith("suite congruence: 5 trials, ")
    assert out.strip().endswith("0 violations")
    code, out, _ = run_cli(
        capsys,
        ["--json", "verify", "congruence", "--trials", "5", "--rank-bound", "4"],
    )
    payload = json.loads(out)
    assert payload["suites"][0]["name"] == "congruence"
    assert payload["suites"][0]["trials"] == 5


def test_cli_exit_codes(capsys, gram_files, tmp_path):
    # usage problems
    assert run_cli(capsys, ["bogus"])[0] == 1
    assert run_cli(capsys, ["seifert", "d", "Q"])[0] == 1
    broken = tmp_path / "broken.json"
    broken.write_text("not json")
    assert run_cli(capsys, ["defect", "--gram", str(broken)])[0] == 1
    # bytes that no JSON encoding decodes are malformed input, not a traceback
    undecodable = tmp_path / "undecodable.json"
    undecodable.write_bytes(b'\xff\xfe{"gram": [[1]]}')
    code, _, err = run_cli(capsys, ["defect", "--gram", str(undecodable)])
    assert code == 1 and err.startswith("error: invalid JSON")
    radius = ["charmin", "--gram", gram_files["a1"], "--radius", "\u0663"]
    assert run_cli(capsys, radius)[0] == 1
    code, _, err = run_cli(capsys, radius[:-1] + ["1/0"])
    assert code == 1 and "invalid rational '1/0': zero denominator" in err
    # mathematical preconditions
    code, _, err = run_cli(capsys, ["defect", "--gram", gram_files["bad"]])
    assert code == 2 and "error:" in err
    # an empty radius names the bound on squares the caller gave
    code, _, err = run_cli(
        capsys,
        ["charmin", "--gram", gram_files["a1"], "--sign", "plus", "--radius", "1"],
    )
    assert code == 2 and "no characteristic covector in the plus class with square <= 1\n" in err
    code, _, err = run_cli(capsys, ["charmin", "--gram", gram_files["a1"], "--radius", "-1"])
    assert code == 2 and "no characteristic covector with square <= -1\n" in err
    # node budget exhaustion
    code, _, err = run_cli(
        capsys, ["--node-budget", "1", "charmin", "--gram", gram_files["i3"]]
    )
    assert code == 3 and "budget" in err


def test_gram_json_bounds_are_inclusive():
    n = MAX_GRAM_RANK
    rows = [[MAX_GRAM_ENTRY if i == j else 0 for j in range(n)] for i in range(n)]
    assert gram_from_json(gram_to_json(rows)) == rows


def test_cli_rejects_oversized_gram(capsys, tmp_path):
    n = MAX_GRAM_RANK + 1
    identity = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    cases = [
        (gram_to_json(identity), f"rank {n} exceeds the limit of {MAX_GRAM_RANK}"),
        (gram_to_json([[MAX_GRAM_ENTRY + 1]]), "row 0, column 0 exceeds"),
        (gram_to_json([[2, -MAX_GRAM_ENTRY - 1], [-MAX_GRAM_ENTRY - 1, 2]]), "row 0, column 1 exceeds"),
        ('{"gram": [[1' + "0" * 5000 + "]]}", "invalid JSON"),
    ]
    for k, (doc, fragment) in enumerate(cases):
        path = tmp_path / f"big{k}.json"
        path.write_text(doc)
        code, out, err = run_cli(capsys, ["defect", "--gram", str(path)])
        assert code == 1 and out == ""
        assert fragment in err


def test_cli_rejects_deeply_nested_gram(capsys, tmp_path):
    # 100 KB of nested lists is malformed input, not a RecursionError
    path = tmp_path / "deep.json"
    path.write_text('{"gram": ' + "[" * 50000 + "]" * 50000 + "}")
    with pytest.raises(FormatError, match="invalid JSON: maximum recursion depth"):
        gram_from_json(path.read_text())
    code, out, err = run_cli(capsys, ["defect", "--gram", str(path)])
    assert code == 1 and out == ""
    assert "invalid JSON" in err


def test_cli_reads_many_leading_minus_signs(capsys):
    # each pair of minus signs cancels; the parser does not recurse per sign.
    # "--" ends the options, since the expression starts with a minus sign
    for count, expected in ((5000, "d = 2"), (5001, "d = -2")):
        code, out, _ = run_cli(capsys, ["seifert", "d", "--", "-" * count + "P"])
        assert code == 0 and out.splitlines() == [expected]
    code, out, _ = run_cli(capsys, ["seifert", "d", "--", "- -\t- Y(2; 15/13, 17/3, 23/22)"])
    assert code == 0
    reversed_once = run_cli(capsys, ["seifert", "d", "--", "-Y(2; 15/13, 17/3, 23/22)"])[1]
    assert out.splitlines()[0] == reversed_once.splitlines()[0]


def test_cli_help_paths(capsys):
    # a bare invocation is a usage error that still shows the help text
    code, _, err = run_cli(capsys, [])
    assert code == 1
    assert "Usage" in err or "Commands" in err
    code, out, _ = run_cli(capsys, ["--help"])
    assert code == 0
    assert "defect" in out and "seifert" in out


def test_cli_rejects_oversized_seifert_plumbing(capsys):
    # the leg -1000000/999999 expands to a chain of about 10^6 vertices
    for expression, fragment in (
        ("Y(-1; -1000000/999999)", f"more than {MAX_GRAM_RANK} vertices"),
        ("Y(1; 1000000/999999)", f"more than {MAX_GRAM_RANK} vertices"),
        ("Y(-1; -" + "7" * 5000 + "/3)", "too many digits"),
    ):
        code, out, err = run_cli(capsys, ["seifert", "d", expression])
        assert code == 1 and out == ""
        assert fragment in err


def test_seifert_plumbing_bound_is_inclusive():
    # one central vertex and a chain of 63 framings -2
    legs = (Fraction(-(MAX_GRAM_RANK), MAX_GRAM_RANK - 1),)
    assert canonical_plumbing(SeifertData(-1, legs)).rank == MAX_GRAM_RANK
    with pytest.raises(FormatError):
        canonical_plumbing(SeifertData(-1, (Fraction(-(MAX_GRAM_RANK + 1), MAX_GRAM_RANK),)))
