import ast
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, event, given, settings
import hypothesis.strategies as st

import torusham
from torusham import TorusSpec, cli, hamiltonian_path, paths, verify_ham_path, word_from_text, words
from torusham.cli import certificate_record, word_from_record
from conftest import expand
from test_golden import GOLDEN

BASE = [sys.executable, "-m", "torusham"]
# children import the package this suite imported, with or without PYTHONPATH
PACKAGE_ROOT = os.path.dirname(os.path.dirname(torusham.__file__))


def child_env(env_extra=None):
    env = dict(os.environ)
    env.pop("TORUS_HAM_CAP", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [PACKAGE_ROOT, env.get("PYTHONPATH")]))
    if env_extra:
        env.update(env_extra)
    return env


def run(*args, stdin=None, env_extra=None):
    return subprocess.run(
        BASE + list(args), input=stdin, capture_output=True, text=True, env=child_env(env_extra)
    )


def test_construct_json_and_verify_round_trip():
    built = run("construct", "--m", "3", "--k", "3", "--to", "2,0,0")
    assert built.returncode == 0, built.stderr
    record = json.loads(built.stdout)
    assert record["moduli"] == [3, 3, 3]
    assert record["from"] == [0, 0, 0]
    assert record["to"] == [2, 0, 0]
    assert record["verified"] is True
    assert record["length"] == 26
    assert "nested" in record["word"]

    checked = run("verify", stdin=built.stdout)
    assert checked.returncode == 0, checked.stderr


def test_construct_refusal_exit_2():
    got = run("construct", "--m", "3", "--k", "3", "--to", "1,0,0")
    assert got.returncode == 2
    assert "mod 3" in got.stderr


def test_construct_k2_is_an_error():
    got = run("construct", "--m", "3", "--k", "2", "--to", "2,0")
    assert got.returncode == 1
    assert "k >= 3" in got.stderr


def test_construct_bad_vertex_reports_position():
    got = run("construct", "--m", "3", "--k", "3", "--to", "2,x,0")
    assert got.returncode == 1
    assert "position 2" in got.stderr


LONG = "1" * 5000  # more digits than int() reads from text by default
K_BELOW_3 = (
    "k >= 3 required: for k = 2 and odd m only (m+1)/2 of the admissible "
    "endpoints terminate a hamiltonian path; use the oracle for k = 2"
)


# every integer flag, with the rest of a command line that runs
INTEGER_FLAGS = {
    "construct-m": (["construct", "--k", "3", "--to", "2,0,0"], "--m"),
    "construct-k": (["construct", "--m", "3", "--to", "2,0,0"], "--k"),
    "verify-m": (["verify", "--k", "3"], "--m"),
    "verify-k": (["verify", "--m", "3"], "--k"),
    "endpoints-cap": (["endpoints", "--moduli", "3,3"], "--cap"),
    "scan-max-vertices": (["scan", "--k", "3"], "--max-vertices"),
    "scan-k": (["scan", "--max-vertices", "8"], "--k"),
}
# tokens int() reads and the one reader refuses, and a token with a comma
NOT_ONE_INTEGER = {"plus": "+3", "underscore": "1_0", "comma": "3,4"}
ENDPOINTS = ["endpoints", "--moduli", "3,3"]
CUBE = ["construct", "--m", "3", "--k", "3"]


@pytest.mark.parametrize(
    "env, argv, stderr",
    [
        # tokens that int() refuses: the reader names them, int() does not
        (None, CUBE + ["--to=--1,0,0"], "error: bad vertex component '--1' at position 1"),
        (None, CUBE + ["--to=\u00b2,0,0"], "error: bad vertex component '\u00b2' at position 1"),
        (None, CUBE + [f"--to=0,{LONG},0"], f"error: bad vertex component '{LONG}' at position 2"),
        (None, ["endpoints", "--moduli", "\u00b2,3"], "error: bad modulus '\u00b2' at position 1"),
        # a cap below 2 is refused by endpoints as by scan
        (None, ENDPOINTS + ["--cap", "1"], "error: cap 1 is below 2, the fewest vertices of a torus"),
        (None, ENDPOINTS + ["--cap", "-5"], "error: cap -5 is below 2, the fewest vertices of a torus"),
        # a non-ASCII decimal digit is read, as int() reads it: \u0663 is 3
        (None, CUBE + ["--to=\u0663,0,0"], "error: (3, 0, 0) is not a reduced vertex of TorusSpec(moduli=(3, 3, 3))"),
        # the cycle length is checked by TorusSpec, after plan's k >= 3 check
        (None, ["construct", "--m", "1", "--k", "3", "--to=0,0,0"], "error: cycle lengths must be >= 2, got 1"),
        (None, ["construct", "--m", "-1", "--k", "3", "--to=0,0,0"], "error: cycle lengths must be >= 2, got -1"),
        (None, ["construct", "--m", "1", "--k", "2", "--to=0,0"], f"error: {K_BELOW_3}"),
        # an integer flag reads one integer: argparse's usage error names the flag and the token
        *(
            (None, rest + [flag, token], f"torusham {rest[0]}: error: argument {flag}: invalid integer value: {token!r}")
            for rest, flag in INTEGER_FLAGS.values()
            for token in NOT_ONE_INTEGER.values()
        ),
        # TORUS_HAM_CAP reads one integer, when --cap is not given
        ({"TORUS_HAM_CAP": "+3"}, ENDPOINTS, "error: bad TORUS_HAM_CAP '+3' at position 1"),
        ({"TORUS_HAM_CAP": "1_0"}, ENDPOINTS, "error: bad TORUS_HAM_CAP '1_0' at position 1"),
        ({"TORUS_HAM_CAP": "3,4"}, ENDPOINTS, "error: bad TORUS_HAM_CAP '3,4': one integer expected"),
    ],
    ids=[
        "double-minus", "superscript", "long", "moduli-superscript", "cap-1", "cap-minus-5", "arabic-indic",
        "m1-k3", "m-minus-1-k3", "m1-k2",
        *(f"{name}-{what}" for name in INTEGER_FLAGS for what in NOT_ONE_INTEGER),
        *(f"env-cap-{what}" for what in NOT_ONE_INTEGER),
    ],
)
def test_integer_and_cap_errors_are_one_pinned_line(monkeypatch, capsys, env, argv, stderr):
    monkeypatch.delenv("TORUS_HAM_CAP", raising=False)
    for name, value in (env or {}).items():
        monkeypatch.setenv(name, value)
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse's usage errors: the usage, then the error line
        code = exc.code
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    usage, _, line = captured.err[:-1].rpartition("\n")
    assert line == stderr and captured.err[-1] == "\n"
    assert usage == "" if line.startswith("error: ") else usage.startswith(f"usage: torusham {argv[0]} ")


def test_integer_reader_takes_decimal_digits_after_at_most_one_sign(capsys):
    # the one reader behind parse_vertex (signed) and parse_moduli (unsigned)
    assert cli.parse_vertex(" -2 ,\u0663, 0 ") == (-2, 3, 0)
    assert cli.parse_moduli("3 ,\u0663") == (3, 3)
    for pos, token in enumerate(("+1", "1_0", "--1", "-", "", "1 2", "0x1", "\u00b2"), start=2):
        text = ",".join(["0"] * (pos - 1) + [token])
        with pytest.raises(ValueError, match=f"^bad vertex component {re.escape(repr(token))} at position {pos}$"):
            cli.parse_vertex(text)
        with pytest.raises(ValueError, match=f"^bad modulus {re.escape(repr(token))} at position {pos}$"):
            cli.parse_moduli(text)
    with pytest.raises(ValueError, match="^bad modulus '-3' at position 1$"):
        cli.parse_moduli("-3")
    # the one-integer form of the integer flags and TORUS_HAM_CAP
    assert cli.integer(" -2 ") == -2 and cli.integer("\u0663") == 3
    for token in ("+1", "1_0", "--1", "-", "", "1 2", "0x1", "\u00b2"):
        with pytest.raises(ValueError, match=f"^bad integer {re.escape(repr(token))} at position 1$"):
            cli.integer(token)
    with pytest.raises(ValueError, match="^bad integer '3,4': one integer expected$"):
        cli.integer("3,4")
    with pytest.raises(ValueError, match="^bad integer 'x' at position 2$"):
        cli.integer("3,x")
    # so --m \u0663 builds at m = 3, as int() read it
    assert cli.main(["construct", "--m", "\u0663", "--k", "3", "--to", "2,0,0"]) == 0
    assert json.loads(capsys.readouterr().out)["moduli"] == [3, 3, 3]


def test_only_the_reader_calls_int():
    # the one integer syntax: int() is called in _read_ints alone, and every typed flag is an integer
    tree = ast.parse(Path(cli.__file__).read_text())
    callers = {
        getattr(top, "name", "<module>")
        for top in tree.body
        for node in ast.walk(top)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "int"
    }
    assert callers == {"_read_ints"}
    types = [
        ast.unparse(kw.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "add_argument"
        for kw in node.keywords
        if kw.arg == "type"
    ]
    assert types == ["integer"] * 7


def test_construct_out_of_range_vertex_names_the_spec(capsys):
    # the error line embeds the spec's repr
    assert cli.main(["construct", "--m", "3", "--k", "3", "--to", "5,0,0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: (5, 0, 0) is not a reduced vertex of TorusSpec(moduli=(3, 3, 3))\n"


def test_construct_word_format_round_trips():
    built = run("construct", "--m", "2", "--k", "3", "--to", "1,0,0", "--format", "word")
    assert built.returncode == 0
    checked = run("verify", "--m", "2", "--k", "3", "--to", "1,0,0", stdin=built.stdout)
    assert checked.returncode == 0, checked.stderr


def test_construct_vertices_format():
    built = run("construct", "--m", "2", "--k", "3", "--to", "1,0,0", "--format", "vertices")
    lines = built.stdout.strip().splitlines()
    assert built.returncode == 0
    assert len(lines) == 8
    assert lines[0] == "0,0,0" and lines[-1] == "1,0,0"
    assert len(set(lines)) == 8
    assert lines == ["0,0,0", "0,1,0", "1,1,0", "1,1,1", "0,1,1", "0,0,1", "1,0,1", "1,0,0"]


def test_construct_into_closed_pipe_exits_1_without_traceback():
    # like `construct ... | head -c 16`: the 19683 lines of (3,9)'s vertices, and the streamed
    # text of (3,10)'s record, each overflow the pipe buffer
    cases = [
        ("9", "--format", "vertices", "0,0,0,0,0,0,0,0,0\n"),
        ("10", "--format", "json", '{"moduli": [3, 3'),
    ]
    for k, flag, fmt, first in cases:
        args = ["construct", "--m", "3", "--k", k, "--to", "2" + ",0" * (int(k) - 1), flag, fmt]
        child = subprocess.Popen(
            BASE + args, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=child_env()
        )
        assert child.stdout.read(len(first)) == first
        child.stdout.close()
        stderr = child.stderr.read()
        child.stderr.close()
        assert child.wait(timeout=60) == 1, fmt
        assert "Traceback" not in stderr and "BrokenPipeError" not in stderr, fmt


def test_streamed_records_equal_the_dumped_ones(monkeypatch, capsys):
    # (3,11) has 177146 arcs, so its text is rendered in several slices
    m, k, u, v = 3, 11, (1, 0, 2) + (0,) * 8, (0, 2) + (0,) * 9
    cert = hamiltonian_path(m, k, u, v)
    assert cert.verified and cert.length > 2 * words._SLICE
    argv = ["construct", "--m", str(m), "--k", str(k), "--from", ",".join(map(str, u)),
            "--to", ",".join(map(str, v))]
    record = certificate_record(cert)
    assert cli.main(argv) == 0 and capsys.readouterr().out == json.dumps(record) + "\n"
    assert cli.main(argv + ["--format", "word"]) == 0 and capsys.readouterr().out == cert.text + "\n"
    # verify's record of a nested claim, and of a flat one, whose text writes each arc on its own
    for word in ({"nested": cert.text}, {"flat": list(cert.arcs)}):
        checked = verify_ham_path(cert.spec, u, v, next(iter(word.values())))
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(dict(record, word=word))))
        assert cli.main(["verify"]) == 0
        assert capsys.readouterr().out == json.dumps(certificate_record(checked)) + "\n"
    assert checked.text == words.text_from_arcs(cert.arcs) != cert.text


def test_construct_dot_format():
    built = run("construct", "--m", "2", "--k", "3", "--to", "1,0,0", "--format", "dot")
    assert built.returncode == 0
    assert built.stdout.startswith("digraph")
    assert "color=red" in built.stdout
    # 8 vertices with out-degree 3
    assert built.stdout.count("->") == 24


def test_dot_format_size_cap():
    built = run("construct", "--m", "3", "--k", "7", "--to", "2,0,0,0,0,0,0", "--format", "dot")
    assert built.returncode == 1
    assert "dot export" in built.stderr


def test_dot_format_size_cap_comes_before_construction(monkeypatch, capsys):
    # nothing is built past the cap, so an over-cap refused target is an error, not a refusal
    monkeypatch.setattr(paths, "hamiltonian_path", lambda *args: pytest.fail("built past the cap"))
    argv = ["construct", "--m", "3", "--k", "7", "--to", "0,0,0,0,0,0,0", "--format", "dot"]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == "error: dot export is capped at 512 vertices, got 2187\n"


def test_verify_tampered_word_exit_2():
    built = run("construct", "--m", "3", "--k", "3", "--to", "2,0,0")
    record = json.loads(built.stdout)
    text = record["word"]["nested"]
    # swap the final generator for a different one
    tampered = text[:-3] + "x2)" if text.endswith("x1)") else text[:-3] + "x1)"
    record["word"]["nested"] = tampered
    checked = run("verify", stdin=json.dumps(record))
    assert checked.returncode == 2
    assert "not a hamiltonian path" in checked.stderr


def test_verify_wrong_target_exit_2():
    built = run("construct", "--m", "3", "--k", "3", "--to", "2,0,0")
    checked = run("verify", "--m", "3", "--k", "3", "--to", "0,2,0", stdin=built.stdout)
    assert checked.returncode == 2
    assert "endpoint" in checked.stderr


def test_verify_corrupted_flat_record_names_the_step():
    arcs = expand(word_from_text(CUBE_WORD))
    assert arcs[6:8] == [0, 2]
    arcs[6:8] = [2, 0]
    record = json.dumps({"moduli": [3, 3, 3], "to": [2, 0, 0], "word": {"flat": arcs}})
    checked = run("verify", stdin=record)
    assert checked.returncode == 2
    assert checked.stderr == "not a hamiltonian path: repeated vertex at step 10\n"


def test_verify_flat_entry_past_a_byte_keeps_the_length_check():
    # 300 is no generator, but a wrong length is still the principled negative answer
    checked = run("verify", "--m", "3", "--k", "3", "--to", "2,0,0", stdin="[300]")
    assert checked.returncode == 2
    assert "length 1" in checked.stderr


def test_verify_flat_json_word():
    payload = json.dumps([0, 1, 0])
    checked = run("verify", "--m", "2", "--k", "2", "--to", "0,1", stdin=payload)
    assert checked.returncode == 0


def test_verify_reads_a_file(tmp_path, capsys):
    word = tmp_path / "word.txt"
    word.write_text(json.dumps([0, 1, 0]) + "\n")
    assert cli.main(["verify", "--m", "2", "--k", "2", "--to", "0,1", "--file", str(word)]) == 0
    assert json.loads(capsys.readouterr().out)["length"] == 3


MISSING_FILE = os.path.join(os.path.dirname(__file__), "no-such-word.txt")
CUBE_WORD = "(x1 x2 x1^2 x2 x1^2 x3 x1^2 x2 x1^2 x2 x1^2 x3 x1^2 x2 x1^2 x2 x1^2 x3)"
CUBE_RECORD = json.dumps(
    {"moduli": [3, 3, 3], "from": [0, 0, 0], "to": [2, 0, 0], "word": {"nested": CUBE_WORD}}
)


@pytest.mark.parametrize(
    "flags, stdin",
    [
        (["--m", "3", "--k", "3", "--to", "2,0,0"], "x5^26"),
        (["--m", "3", "--k", "3", "--to", "2,0,0"], "(a^26)"),
        ([], json.dumps({"moduli": 5, "to": [2, 0, 0], "word": CUBE_WORD})),
        ([], json.dumps({"moduli": [3, 3, 3], "from": 5, "to": [2, 0, 0], "word": CUBE_WORD})),
        ([], json.dumps({"moduli": [3, 3, 3], "to": [2, 0, 0], "word": {"flat": 5}})),
        ([], json.dumps({"moduli": [3, 3, 3], "to": [2, 0, 0], "word": 5})),
        # int() would read 3.9 as 3, and the word verifies on (Z_3)^3
        ([], json.dumps({"moduli": [3.9, 3, 3], "to": [2, 0, 0], "word": CUBE_WORD})),
        (["--m", "3", "--k", "3", "--to", "2,0,0"], "[true]"),
        (["--m", "3", "--k", "3", "--to", "2,0,0"], "[1.0]"),
        (["--m", "3", "--k", "3", "--to", "2,0,0"], "[-1]"),
        # the right length, so the generator range is what fails
        (["--m", "3", "--k", "3", "--to", "2,0,0"], json.dumps([300] + [0] * 25)),
        # deep text parses without recursion, so only a fault in it is an error
        (["--m", "3", "--k", "3", "--to", "2,0,0"], "(" * 3000 + "x1" + ")" * 2999),
        (["--m", "3", "--k", "3", "--to", "2,0,0"], "x1" + "^1" * 3000 + "^"),
        (["--m", "3", "--k", "3", "--to", "2,0,0"], "[" * 100000 + "]" * 100000),
        (["--m", "3", "--k", "3", "--to", "2,0,0"], " \n"),
        (["--m", "3", "--k", "3", "--to", "2,0,0", "--file", MISSING_FILE], ""),
        (["--m", "3", "--k", "3", "--to", "2,0,0", "--file", os.curdir], ""),
        # CUBE_RECORD verifies on its own, so only the lone --m or --k can fail these
        (["--m", "5", "--to", "2,0,0"], CUBE_RECORD),
        (["--k", "4"], CUBE_RECORD),
    ],
    ids=[
        "unknown-generator", "letter-symbol", "moduli-int", "from-int", "flat-int", "word-int",
        "moduli-float",
        "flat-true", "flat-float", "flat-negative", "flat-300",
        "deep-parentheses", "deep-powers", "deep-json-array", "blank", "missing-file", "directory-file",
        "lone-m", "lone-k",
    ],
)
def test_verify_bad_input_is_one_error_line(flags, stdin):
    checked = run("verify", *flags, stdin=stdin)
    assert checked.returncode == 1
    assert checked.stderr.startswith("error: ")
    assert len(checked.stderr.splitlines()) == 1


CUBE_ARCS = expand(word_from_text(CUBE_WORD))
NOT_AN_INT = "error: flat form entries must be non-negative ints, got {}\n"
NOT_A_GENERATOR = "error: arc {} is not a generator index in [0, 3)\n"
SHORT = "not a hamiltonian path: length 2 != vertex count - 1 = 26\n"


@pytest.mark.parametrize(
    "arcs, code, stderr, kept",
    [
        ([True] + CUBE_ARCS[1:], 1, NOT_AN_INT.format(True), None),
        ([1.0] + CUBE_ARCS[1:], 1, NOT_AN_INT.format(1.0), None),
        ([-1] + CUBE_ARCS[1:], 1, NOT_AN_INT.format(-1), None),
        # an entry past a byte is no bad entry, but a bad one after it still is
        ([300, -1], 1, NOT_AN_INT.format(-1), None),
        ([300, True], 1, NOT_AN_INT.format(True), None),
        # the right length: the generator range check names the largest arc
        ([10**30] + CUBE_ARCS[1:], 1, NOT_A_GENERATOR.format(10**30), None),
        ([300] + CUBE_ARCS[1:-1] + [299], 1, NOT_A_GENERATOR.format(300), None),
        ([3] + CUBE_ARCS[1:], 1, NOT_A_GENERATOR.format(3), None),
        # a wrong length is answered first; the arcs are kept only when they fit in bytes
        ([10**30, 0], 2, SHORT, b""),
        ([0, 300], 2, SHORT, b""),
        ([0, 255], 2, SHORT, b"\0\xff"),
        ([2, 1], 2, SHORT, b"\2\1"),
        (CUBE_ARCS[:6] + CUBE_ARCS[7:5:-1] + CUBE_ARCS[8:], 2,
         "not a hamiltonian path: repeated vertex at step 10\n",
         bytes(CUBE_ARCS[:6] + CUBE_ARCS[7:5:-1] + CUBE_ARCS[8:])),
        (CUBE_ARCS, 0, "", bytes(CUBE_ARCS)),
    ],
    ids=[
        "true", "float", "negative", "negative-after-300", "true-after-300", "1e30", "300",
        "3", "1e30-short", "300-short", "255-short", "short", "swapped", "valid",
    ],
)
def test_verify_flat_array_messages(monkeypatch, capsys, arcs, code, stderr, kept):
    certs = []

    def recording(*args):
        certs.append(verify_ham_path(*args))
        return certs[-1]

    monkeypatch.setattr(cli, "verify_ham_path", recording)
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(arcs)))
    assert cli.main(["verify", "--m", "3", "--k", "3", "--to", "2,0,0"]) == code
    assert capsys.readouterr().err == stderr
    assert (certs[0].arcs if certs else None) == kept


def _decoded(decode, text):
    """decode(text) with every bytes read as its list, or the type of what it raised."""
    def lists(value):
        if isinstance(value, bytes):
            return list(value)
        if isinstance(value, dict):
            return {key: lists(item) for key, item in value.items()}
        return [lists(item) for item in value] if isinstance(value, list) else value

    try:
        return lists(decode(text))
    except Exception as exc:
        return type(exc)


@pytest.mark.parametrize(
    "text",
    [
        "[0,1]", "[0, 1 ]", "[ 0, 1]", "[0,  1]", "[\n0, 1]", "[0, 10]", "[01]", "[0, 1,]", "[0, 1",
        "[]", "[7]", '["1"]', "[0, -1]", "[1.0]", "[true]", "[0, [1]]", "[\u0663]",
        "[0, 1, 2, 3, 4, 5, 6, 7, 8, 9]", "[0, 1]]", "[0, 1] x", "[[0, 1], [2]]", '["]", 0]',
        "[0,11]", "[0,\t1]", "[0,,1]", "[0 ,1]", "[0, 1, 2 ]", "[0\u0663 1]", "[0, 1, 23]", "[0, 12, 3]",
        '{"a": [0, 1], "b": {"c": [2]}, "d": [0, 1}',
        # json.loads reads no Unicode digit in a number, the pure-Python scanner would (13)
        "1\u0663", '{"a": 1\u0663}', "[1\u0663]", '{"a": 1.\u0663}',
        "1" * 5000, '{"a": ' + "1" * 5000 + "}", "[" * 100000,
    ],
)
def test_record_reader_reads_what_json_loads_reads(text):
    decoded = _decoded(cli._DECODER.decode, text)
    assert decoded == _decoded(json.loads, text)
    if isinstance(decoded, list):
        # an array as json.dumps writes single digits comes as bytes, any other as a list
        canonical = re.fullmatch(r"\[[0-9](, [0-9])*\]", text) is not None
        assert isinstance(cli._DECODER.decode(text), bytes) == canonical


def test_digit_bytes_needs_its_closing_bracket():
    # find gives -1 for "[7,", which as a slice bound would read "7" as the whole array
    assert cli._digit_bytes("[7,", 1, "[7,".find("]")) is None
    assert cli._digit_bytes("[7, 8]", 1, 5) == bytes([7, 8])


@pytest.mark.parametrize(
    "text, word",
    [
        ('{"nested": "x1"}', "x1"),
        ('{"flat": [0, 1]}', b"\0\1"),
        ('{"flat": [0, 10]}', [0, 10]),
        ("[2]", b"\2"),
        ('{"nested": [0, 1]}', ValueError("word entry 'nested' must be a str")),
        ('{"flat": "x1"}', ValueError("word entry 'flat' must be a list")),
        ('{"x": [0, 1]}', ValueError("word object needs a 'nested' or 'flat' entry")),
        ("5", ValueError("cannot read a word from int")),
    ],
)
def test_word_from_record_takes_what_the_reader_gives(text, word):
    value = cli._DECODER.decode(text)
    if isinstance(word, ValueError):
        with pytest.raises(ValueError, match=f"^{re.escape(str(word))}$"):
            word_from_record(value)
    else:
        got = word_from_record(value)
        assert got == word and type(got) is type(word)


@pytest.mark.parametrize(
    "argv, stdin, kind, code",
    [
        ([], json.dumps({"moduli": [3, 3, 3], "to": [2, 0, 0], "word": {"flat": CUBE_ARCS}}), bytes, 0),
        (["--m", "3", "--k", "3", "--to", "2,0,0"], json.dumps(CUBE_ARCS), bytes, 0),
        ([], json.dumps({"moduli": [3, 3, 3], "to": [2, 0, 0], "word": CUBE_ARCS[:2]}), bytes, 2),
        ([], json.dumps({"moduli": [2] * 10, "to": [1] + [0] * 9, "word": {"flat": [9, 0]}}), bytes, 2),
        # an arc of 10 or more takes two digits: the array is read as a list
        ([], json.dumps({"moduli": [2] * 12, "to": [1] + [0] * 11, "word": {"flat": [11, 0]}}), list, 2),
        ([], json.dumps({"moduli": [3, 3, 3], "to": [2, 0, 0], "word": {"flat": CUBE_ARCS}}, indent=1),
         list, 0),
    ],
    ids=["record", "bare", "bare-in-record", "k10", "k12", "indented"],
)
def test_digit_arrays_reach_the_verifier_as_bytes(monkeypatch, capsys, argv, stdin, kind, code):
    claims, checked = [], []

    def recording(spec, start, target, w):
        claims.append(w)
        return verify_ham_path(spec, start, target, w)

    def checking(arcs):
        checked.append(arcs)
        return reference(arcs)

    reference = words.word_from_flat
    monkeypatch.setattr(cli, "verify_ham_path", recording)
    monkeypatch.setattr(words, "word_from_flat", checking)
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    assert cli.main(["verify", *argv]) == code
    assert [type(w) for w in claims] == [kind]
    # bytes need no entry check: only a list meets word_from_flat
    assert checked == ([] if kind is bytes else claims)
    captured = capsys.readouterr()
    if code == 0:
        assert json.loads(captured.out)["length"] == 26


@pytest.mark.parametrize("depth", [600, 3000])
def test_deep_word_text_reaches_the_length_check(depth):
    # text nesting costs no recursion, so the outcome does not depend on sys.getrecursionlimit()
    for text in ("(" * depth + "x1" + ")" * depth, "x1" + "^1" * depth):
        checked = run("verify", "--m", "3", "--k", "3", "--to", "2,0,0", stdin=text)
        assert checked.returncode == 2
        assert checked.stderr == "not a hamiltonian path: length 1 != vertex count - 1 = 26\n"
    deep = "(" * depth + CUBE_WORD + ")" * depth
    record = json.loads(CUBE_RECORD)
    record["word"]["nested"] = deep
    checked = run("verify", stdin=json.dumps(record))
    assert checked.returncode == 0, checked.stderr
    assert json.loads(checked.stdout)["word"]["nested"] == deep


@pytest.mark.parametrize("depth, code", [(600, 0), (3000, 1)])
def test_deep_record_keeps_the_answer_of_json_loads(depth, code):
    # the record reader nests objects in Python frames; too deep for them, json.loads answers
    extra = '{"x": ' * depth + "0" + "}" * depth
    checked = run("verify", stdin=CUBE_RECORD[:-1] + ', "extra": ' + extra + "}")
    assert checked.returncode == code
    if code:
        assert checked.stderr == (
            "error: maximum recursion depth exceeded while decoding a JSON object from a unicode string\n"
        )
    else:
        assert checked.stderr == "" and json.loads(checked.stdout)["word"]["nested"] == CUBE_WORD


def test_memory_error_is_one_error_line(monkeypatch, capsys):
    def out_of_memory(*args):
        raise MemoryError

    monkeypatch.setattr(paths, "hamiltonian_path", out_of_memory)
    monkeypatch.setattr(cli, "verify_ham_path", out_of_memory)
    monkeypatch.setattr(sys, "stdin", io.StringIO("x1^26"))
    for argv in (["construct", "--m", "3", "--k", "3", "--to", "2,0,0"],
                 ["verify", "--m", "3", "--k", "3", "--to", "2,0,0"]):
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and len(captured.err.splitlines()) == 1


@pytest.mark.parametrize(
    "argv, code",
    [
        (["construct", "--m", "3", "--k", str(10**7), "--to", "2,0,0"], 1),
        (["verify", "--m", "3", "--k", str(10**7), "--to", "2,0,0"], 1),
        (["verify", "--m", "1", "--k", str(10**7), "--to", "2,0,0"], 1),
        # no spec has 10^7 coordinates and at most 64 vertices
        (["scan", "--max-vertices", "64", "--k", str(10**7)], 0),
    ],
    ids=["construct", "verify", "verify-m1", "scan"],
)
def test_huge_k_is_answered_before_allocating(monkeypatch, capsys, argv, code):
    monkeypatch.setattr(sys, "stdin", io.StringIO("x1^26"))
    tracemalloc.start()
    try:
        assert cli.main(argv) == code
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert captured.out == ""
    if code:
        assert captured.err.startswith("error: ") and len(captured.err.splitlines()) == 1
    assert peak < 1 << 20


def test_empty_start_is_an_error(capsys):
    # an empty start is no vertex, not the zero vertex: like an empty target it is refused
    assert cli.main(["construct", "--m", "3", "--k", "3", "--from", "", "--to", "2,0,0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: bad vertex component '' at position 1\n"


@pytest.mark.parametrize("key", ["from", "to"])
def test_empty_vertex_of_a_record_is_an_error(monkeypatch, capsys, key):
    # a record's [] has no text token to name: it is refused by its coordinate count
    record = json.loads(CUBE_RECORD)
    record[key] = []
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(record)))
    assert cli.main(["verify"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: expected 3 coordinates, got 0\n"


# verify fuzzing: specs stay small or overflow, so no input can ask for a huge expansion
_SMALL_INT = st.integers(-2, 6)
_WILD_INT = st.one_of(_SMALL_INT, st.sampled_from([10**7, 2**63, 10**30]))
_WORD_TOKENS = ["x1", "x2", "x3", "x1^2", "x2^8", "(", ")", ")^2", ")^0"]
_JUNK_TOKENS = ["x0", "x9", "y", "3", "^", "#", "\u0663", "[", "{", "\"", "\n", "^999999999999"]
_TEXTS = st.one_of(
    st.lists(st.sampled_from(_WORD_TOKENS), min_size=1, max_size=16).map(" ".join),
    st.lists(st.sampled_from(_WORD_TOKENS + _JUNK_TOKENS), max_size=12).map("".join),
    st.text(max_size=20),
    # deep or huge, but built in one piece
    st.integers(0, 3000).map(lambda d: "(" * d + "x1^999999999" + ")" * d),
    st.integers(0, 3000).map(lambda d: "x1" + "^1" * d + "^" * (d % 2)),
    st.just("(x1^999999999999)^999999999999 x2"),
)
_JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), _WILD_INT, st.floats(allow_nan=False), _TEXTS),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.dictionaries(st.sampled_from(["nested", "flat", "x"]), inner)
    ),
    max_leaves=8,
)
# flat arrays, mostly of small ints, with bad entries among them
_FLAT = st.lists(st.one_of(_SMALL_INT, _JSON_VALUES), max_size=30)
_RECORDS = st.fixed_dictionaries(
    {},
    optional={
        "moduli": st.one_of(st.lists(_SMALL_INT, max_size=4), _JSON_VALUES),
        "from": st.one_of(st.lists(_SMALL_INT, max_size=4), _JSON_VALUES),
        "to": st.one_of(st.lists(_SMALL_INT, max_size=4), _JSON_VALUES),
        "word": st.one_of(
            _TEXTS,
            st.fixed_dictionaries({"nested": _TEXTS}),
            st.fixed_dictionaries({"flat": _FLAT}),
            _JSON_VALUES,
        ),
    },
).map(json.dumps)
_STDIN = st.one_of(
    _TEXTS,
    st.just(CUBE_RECORD),
    st.just(CUBE_WORD),
    _RECORDS,
    _FLAT.map(json.dumps),
    # malformed JSON: a record cut short
    st.tuples(_RECORDS, st.integers(1, 40)).map(lambda rec: rec[0][: -rec[1]]),
    st.integers(1, 30000).map(lambda d: "[" * d),
)
_VERTEX_TEXT = st.one_of(
    st.lists(_SMALL_INT, max_size=4).map(lambda v: ",".join(map(str, v))), st.text(max_size=8)
)


def _flags(spec, start, target):
    pairs = (("--from", start), ("--to", target))
    return spec + [f"{flag}={value}" for flag, value in pairs if value is not None]


_VERTEX_FLAG = st.none() | st.sampled_from(["2,0,0", "0,1", "0,0,0"]) | _VERTEX_TEXT
_ARGV = st.one_of(
    # a spec and target that hold, so the word decides
    st.sampled_from([["--m=3", "--k=3", "--to=2,0,0"], ["--m=2", "--k=2", "--to=0,1"], []]),
    st.builds(
        _flags,
        st.one_of(
            st.sampled_from([[], ["--m=3", "--k=3"], ["--m=3"], ["--k=4"]]),
            st.tuples(_WILD_INT, _WILD_INT).map(lambda mk: [f"--m={mk[0]}", f"--k={mk[1]}"]),
        ),
        _VERTEX_FLAG,
        _VERTEX_FLAG,
    ),
)


@settings(max_examples=250, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_ARGV, stdin=_STDIN)
def test_verify_fuzz_keeps_the_exit_contract(monkeypatch, capsys, argv, stdin):
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = cli.main(["verify", *argv])
    event(f"exit {code}")
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    if code == 0:
        assert captured.err == "" and json.loads(captured.out)["verified"] is True
    elif code == 1:
        assert captured.out == "" and len(lines) == 1 and lines[0].startswith("error: ")
    else:
        assert code == 2 and captured.out == ""
        assert len(lines) == 1 and lines[0].startswith("not a hamiltonian path: ")


@settings(max_examples=300, deadline=None)
@given(text=st.one_of(_RECORDS, _FLAT.map(json.dumps), _FLAT.map(lambda a: json.dumps(a, indent=1))))
def test_record_reader_matches_json_loads(text):
    assert _decoded(cli._DECODER.decode, text) == _decoded(json.loads, text)


def test_verify_without_spec_is_an_error():
    checked = run("verify", "--to", "0,1", stdin="(x1 x2 x1)")
    assert checked.returncode == 1
    assert "--m" in checked.stderr


def test_endpoints_small():
    got = run("endpoints", "--moduli", "3,3")
    assert got.returncode == 0
    record = json.loads(got.stdout)
    assert record["reachable"] == [[0, 2], [2, 0]]
    assert record["agreement"] is False


def test_endpoints_size_cap_exit_1():
    got = run("endpoints", "--moduli", "9,9,9")
    assert got.returncode == 1
    assert "cap" in got.stderr


def test_endpoints_cap_flag():
    got = run("endpoints", "--moduli", "3,3", "--cap", "100")
    assert got.returncode == 1 and "hard limit" in got.stderr
    got = run("endpoints", "--moduli", "3,3", "--cap", "64")
    assert got.returncode == 0
    # with k = 10 no spec has at most 1000 vertices, and the cap is still refused
    for argv in (["--max-vertices", "100"], ["--max-vertices", "1000", "--k", "10"]):
        got = run("scan", *argv)
        assert got.returncode == 1 and "hard limit" in got.stderr
        assert got.stdout == ""
    # no torus has fewer than 2 vertices, so a cap below 2 is refused, not scanned to nothing
    for cap, k in (("-5", "3"), ("0", "1"), ("1", "1")):
        got = run("scan", "--max-vertices", cap, "--k", k)
        assert got.returncode == 1 and got.stdout == ""
        assert got.stderr == f"error: cap {cap} is below 2, the fewest vertices of a torus\n"


def test_endpoints_env_cap():
    got = run("endpoints", "--moduli", "3,3", env_extra={"TORUS_HAM_CAP": "8"})
    assert got.returncode == 1
    got = run("endpoints", "--moduli", "3,3", env_extra={"TORUS_HAM_CAP": "16"})
    assert got.returncode == 0
    got = run("endpoints", "--moduli", "2,2,2", env_extra={"TORUS_HAM_CAP": "abc"})
    assert got.returncode == 1 and "TORUS_HAM_CAP" in got.stderr


def test_scan_smallest():
    got = run("scan", "--max-vertices", "8", "--k", "3")
    assert got.returncode == 0
    lines = got.stdout.strip().splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["moduli"] == [2, 2, 2]
    assert record["agreement"] is True


def test_scan_k2_includes_cycle_annotation():
    got = run("scan", "--max-vertices", "12", "--k", "2")
    assert got.returncode == 0
    records = {tuple(r["moduli"]): r for r in map(json.loads, got.stdout.splitlines())}
    assert records[(2, 4)]["cycle_exists"] is True
    assert records[(2, 3)]["cycle_exists"] is False
    assert records[(3, 3)]["cycle_exists"] is True


def test_record_round_trip_for_every_small_target():
    # serialization fidelity across the whole admissible endpoint sweep
    for m, k in [(2, 3), (3, 3)]:
        spec = TorusSpec.power(m, k)
        for v in spec.vertices():
            if sum(v) % m != m - 1:
                continue
            cert = hamiltonian_path(m, k, spec.zero(), v)
            blob = json.loads(json.dumps(certificate_record(cert)))
            word = word_from_record(blob["word"])
            assert word_from_text(word) == cert.word
            assert verify_ham_path(spec, spec.zero(), v, word).verified


def test_scan_reports_counterexamples_on_stderr():
    got = run("scan", "--max-vertices", "12", "--k", "3")
    assert got.returncode == 0
    assert "counterexample" in got.stderr
    records = [json.loads(line) for line in got.stdout.splitlines()]
    by_moduli = {tuple(r["moduli"]): r for r in records}
    assert by_moduli[(2, 2, 3)]["counterexamples"] == [[0, 0, 1], [1, 1, 1], [1, 1, 2]]


# odd m from 0 and from elsewhere; even m with a transposition, from elsewhere
@pytest.mark.parametrize("m, k, u, v, digest", [GOLDEN[0], GOLDEN[2], GOLDEN[12]])
def test_cli_path_builds_no_tree(monkeypatch, capsys, m, k, u, v, digest):
    # construct renders text from arcs and verify parses text to bytes: no tree on either path
    def no_tree(*args):
        raise AssertionError("built or read a word tree")

    reference = words.word_from_runs
    for mod in (words, paths, cli):
        for name in ("word_from_runs", "word_from_text"):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, no_tree)
    cert = hamiltonian_path(m, k, u, v)
    line = json.dumps(certificate_record(cert))
    assert hashlib.sha256(line.encode()).hexdigest() == digest
    text = json.loads(line)["word"]["nested"]
    argv = ["construct", "--m", str(m), "--k", str(k), "--from", ",".join(map(str, u)),
            "--to", ",".join(map(str, v))]
    assert cli.main(argv) == 0 and capsys.readouterr().out == line + "\n"
    assert cli.main(argv + ["--format", "word"]) == 0 and capsys.readouterr().out == text + "\n"
    monkeypatch.setattr(sys, "stdin", io.StringIO(line))
    assert cli.main(["verify"]) == 0 and capsys.readouterr().out == line + "\n"
    from_text = verify_ham_path(cert.spec, u, v, text)
    from_flat = verify_ham_path(cert.spec, u, v, cert.arcs)
    assert from_text.verified and from_text.arcs == cert.arcs and from_text.claim == text
    assert from_text.word is None and from_flat.word is None
    monkeypatch.undo()
    # the tree is still there on demand, equal to the one hamiltonian_path used to build
    assert cert.word == reference(cert.arcs, paths.plan(m, k, u, v).tau[0])
