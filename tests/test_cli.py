import json

import pytest

from eii import codec
from eii.cli import run
from eii.codespec import spec_from_capability, spec_to_json
from eii.gf import field
from eii.words import word_from_text, word_to_text

EX4 = ["--capability", "((1,1,2),(1,2,3),(1,2,3),(1,2,3))", "--field", "3", "--n", "7"]


@pytest.fixture
def ex4_spec_file(tmp_path):
    spec = spec_from_capability(field(3), "((1,1,2),(1,2,3),(1,2,3),(1,2,3))", 7)
    path = tmp_path / "ex4.json"
    path.write_text(spec_to_json(spec))
    return path


def test_info_capability(capsys):
    assert run(["info", *EX4]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "[84, 62, 4]"
    assert "field: GF(2^3)" in out
    assert "layers: 3" in out
    assert "capability: ((1,1,2),(1,2,3),(1,2,3),(1,2,3))" in out


def test_info_spec_file(ex4_spec_file, capsys):
    assert run(["info", "--spec", str(ex4_spec_file)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "[84, 62, 4]"


def test_info_leaf(capsys):
    assert run(["info", "--capability", "(22)", "--field", "7", "--n", "84"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "[84, 62, 23]"


def test_usage_errors(capsys):
    assert run(["info"]) == 1  # no spec source
    assert run(["info", "--capability", "(22)", "--field", "7"]) == 1  # missing --n
    assert run(["bogus"]) == 1
    capsys.readouterr()


def test_validation_error_exit_code(capsys):
    # m = 12 blocks cannot live in GF(8)
    code = run(["info", "--capability", "(1,1,1,1,1,2,2,2,2,3,3,3)",
                "--field", "3", "--n", "7"])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_encode_decode_round_trip(tmp_path, capsys):
    spec = spec_from_capability(field(3), "((1,1,2),(1,2,3),(1,2,3),(1,2,3))", 7)
    data = tmp_path / "data.txt"
    data.write_text(" ".join(str((3 * i + 1) % 8) for i in range(62)))
    word_path = tmp_path / "word.txt"
    assert run(["encode", *EX4, "--data", str(data), "--output", str(word_path)]) == 0
    word = word_from_text(word_path.read_text())
    assert codec.is_codeword(spec, word)

    erased = word.with_erasures([0, 8, 30])
    erased_path = tmp_path / "erased.txt"
    erased_path.write_text(word_to_text(erased))
    assert run(["decode", *EX4, "--word", str(erased_path)]) == 0
    assert word_from_text(capsys.readouterr().out) == word


def test_decode_no_erasures_echoes(tmp_path, capsys):
    spec = spec_from_capability(field(3), "((1,1,2),(1,2,3),(1,2,3),(1,2,3))", 7)
    word = codec.encode(spec, [0] * 62)
    path = tmp_path / "word.txt"
    path.write_text(word_to_text(word))
    assert run(["decode", *EX4, "--word", str(path)]) == 0
    assert word_from_text(capsys.readouterr().out) == word


def test_decode_erasure_list_and_modes(tmp_path, capsys):
    spec = spec_from_capability(field(3), "((1,1,2),(1,2,3),(1,2,3),(1,2,3))", 7)
    word = codec.encode(spec, [i % 8 for i in range(62)])
    path = tmp_path / "word.txt"
    path.write_text(word_to_text(word))
    for mode in ("alg", "pcheck"):
        assert run(["decode", *EX4, "--word", str(path),
                    "--erasures", "1,2,22", "--mode", mode]) == 0
        assert word_from_text(capsys.readouterr().out) == word


def test_decode_failure_exit_code(tmp_path, capsys):
    spec = spec_from_capability(field(3), "((1,1,2),(1,2,3),(1,2,3),(1,2,3))", 7)
    word = codec.encode(spec, [0] * 62)
    path = tmp_path / "word.txt"
    path.write_text(word_to_text(word))
    erasures = ",".join(str(i) for i in range(30))
    assert run(["decode", *EX4, "--word", str(path), "--erasures", erasures]) == 3
    assert run(["decode", *EX4, "--word", str(path), "--erasures", erasures,
                "--mode", "pcheck"]) == 3
    capsys.readouterr()


def test_pcheck_csv(capsys):
    assert run(["pcheck", "--capability", "(1,2,7)", "--field", "3", "--n", "7"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert lines[0] == "# gf=2^3 rows=12 cols=21"
    assert len(lines) == 13


def test_pcheck_reduce_and_alist(capsys):
    assert run(["pcheck", "--capability", "(1,2,7)", "--field", "3", "--n", "7",
                "--reduce"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "# gf=2^3 rows=10 cols=21"
    assert run(["pcheck", "--capability", "(1,2,7)", "--field", "3", "--n", "7",
                "--format", "alist"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "12 21"


def test_density_output(capsys):
    args = ["density", "--capability",
            "(((1,1,2),(1,2,3)),((1,2,3),(1,2,3)))", "--field", "3", "--n", "7"]
    assert run(args) == 0
    assert capsys.readouterr().out.startswith("504/1848 = 0.272727")


def test_anetf_text_and_determinism(capsys):
    args = ["anetf", "--capability", "(1,2,7)", "--field", "3", "--n", "7",
            "--trials", "500", "--seed", "7", "--mode", "capability"]
    assert run(args) == 0
    first = capsys.readouterr().out
    assert run(args) == 0
    second = capsys.readouterr().out
    assert first == second
    assert "mean " in first


def test_anetf_json(capsys):
    args = ["anetf", "--capability", "(22)", "--field", "7", "--n", "84",
            "--trials", "50", "--seed", "3", "--mode", "pcheck", "--format", "json"]
    assert run(args) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["mean"] == 23.0
    assert doc["histogram"] == {"23": 50}
    assert doc["trials"] == 50


@pytest.mark.parametrize("option", [["--seed", "-1"], ["--seed", str(2**64)], ["--trials", "0"]])
def test_anetf_bad_seed_or_trials(option, capsys):
    args = ["anetf", "--capability", "(1,2,7)", "--field", "3", "--n", "7", *option]
    assert run(args) == 2
    assert "must be an integer" in capsys.readouterr().err


def test_mindist_brute_tiny(capsys):
    assert run(["mindist-brute", "--capability", "(1,3)", "--field", "2", "--n", "3"]) == 0
    out = capsys.readouterr().out
    assert "brute-force minimum distance: 4" in out


def test_mindist_brute_guard(capsys):
    code = run(["mindist-brute", *EX4])
    assert code == 2
    assert "refusing" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["density", "anetf"])
def test_zero_row_parity_check_tree(command, capsys):
    # the all-zero first block has an empty parity-check matrix
    args = [command, "--capability", "((0,0,0),(1,1,1))", "--field", "3", "--n", "7"]
    if command == "anetf":
        args += ["--mode", "pcheck", "--trials", "20"]
    assert run(args) == 0
    capsys.readouterr()


@pytest.mark.parametrize("symbol", [9, -1])
def test_encode_symbol_out_of_range(symbol, tmp_path, capsys):
    data = tmp_path / "data.txt"
    data.write_text(" ".join(["1"] * 30 + [str(symbol)] + ["1"] * 31))
    assert run(["encode", *EX4, "--data", str(data)]) == 2
    assert "position 30" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["alg", "pcheck"])
def test_decode_symbol_out_of_range(mode, tmp_path, capsys):
    spec = spec_from_capability(field(3), "((1,1,2),(1,2,3),(1,2,3),(1,2,3))", 7)
    symbols = list(codec.encode(spec, [0] * 62).symbols)
    symbols[5] = 300
    path = tmp_path / "word.txt"
    path.write_text(" ".join(map(str, symbols)))
    assert run(["decode", *EX4, "--word", str(path), "--erasures", "0", "--mode", mode]) == 2
    assert "position 5" in capsys.readouterr().err


@pytest.mark.parametrize("code", [
    {"node": {}},
    {"node": {"s": [1, 0], "children": 5}},
    {"node": {"s": ["1", 0], "children": [{"leaf": {"n": 7, "u": 1}}]}},
    {"leaf": {"n": 7}},
    {"leaf": [7, 1]},
])
def test_spec_json_schema(code, tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"field": {"w": 3}, "code": code}))
    assert run(["info", "--spec", str(path)]) == 2
    assert "error" in capsys.readouterr().err
