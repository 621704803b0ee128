"""End-to-end CLI behavior: exit codes, report shape, and determinism."""
from __future__ import annotations

import io
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given
from hypothesis import strategies as st

import multlat.rings
from multlat.cli import _exit_status, main

from helpers import fig3_under_a_new_bottom

B2_MEET = {
    "elements": ["0", "a", "b", "1"],
    "order": {"kind": "covers",
              "pairs": [["0", "a"], ["0", "b"], ["a", "1"], ["b", "1"]]},
    "multiplication": {"kind": "meet"},
}
DIAMOND_MEET = {
    "elements": ["0", "x", "y", "z", "1"],
    "order": {"kind": "covers",
              "pairs": [["0", "x"], ["0", "y"], ["0", "z"],
                        ["x", "1"], ["y", "1"], ["z", "1"]]},
    "multiplication": {"kind": "meet"},
}


def write(tmp_path, data, name="lattice.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# validate


ONE_ELEMENT_TABLE = {
    "elements": ["0"],
    "order": {"kind": "covers", "pairs": []},
    "multiplication": {"kind": "table", "table": [["0"]]},
}
TWO_CHAIN_TABLE = {
    "elements": ["0", "1"],
    "order": {"kind": "covers", "pairs": [["0", "1"]]},
    "multiplication": {"kind": "table", "table": [["0", "0"], ["0", "1"]]},
}


def test_validate_good_file(tmp_path, capsys):
    code, out, _ = run_cli(["validate", write(tmp_path, B2_MEET)], capsys)
    assert code == 0
    assert json.loads(out) == {"valid": True, "elements": 4,
                               "multiplication": True}


@pytest.mark.parametrize("doc", [ONE_ELEMENT_TABLE, TWO_CHAIN_TABLE])
def test_the_smallest_files_validate_with_a_table(tmp_path, capsys, doc):
    code, out, _ = run_cli(["validate", write(tmp_path, doc)], capsys)
    assert code == 0
    assert json.loads(out) == {"valid": True, "elements": len(doc["elements"]),
                               "multiplication": True}


def test_validate_axiom_violation(tmp_path, capsys):
    code, out, _ = run_cli(["validate", write(tmp_path, DIAMOND_MEET)], capsys)
    assert code == 2
    diag = json.loads(out)
    assert diag["valid"] is False
    assert diag["error"]["axiom"] == "M3"
    assert len(diag["error"]["witness"]) == 3


def test_validate_malformed_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{oops", encoding="utf-8")
    code, out, _ = run_cli(["validate", str(path)], capsys)
    assert code == 3
    assert json.loads(out)["valid"] is False


def test_validate_missing_file(tmp_path, capsys):
    code, _, _ = run_cli(["validate", str(tmp_path / "nope.json")], capsys)
    assert code == 3


@pytest.mark.parametrize("content", [
    json.dumps({"elements": ["0", "0", "1"],
                "order": {"kind": "covers", "pairs": [["0", "1"]]}}).encode(),
    b"\xff\xfe{}",
    b"[" * 100000,
    b'{"elements": ' + b"1" * 5000 + b"}",
], ids=["duplicate-names", "not-utf8", "deep-nesting", "long-integer"])
def test_validate_unreadable_documents_exit_3(tmp_path, capsys, content):
    path = tmp_path / "lattice.json"
    path.write_bytes(content)
    code, out, err = run_cli(["validate", str(path)], capsys)
    assert code == 3
    assert json.loads(out)["error"]["kind"] == "parse"
    assert len(err.splitlines()) == 1


NAMES = st.sampled_from(["0", "a", "b", "c", "1"])
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6)


@st.composite
def lattice_documents(draw):
    """Lattice files that are well formed in most fields and arbitrary JSON
    in some, so that every branch of the schema check is reached."""
    # One time in eight, a part is arbitrary JSON instead of well formed.
    def rarely():
        return draw(st.sampled_from([False] * 7 + [True]))

    def field(good):
        return draw(JSON_VALUES if rarely() else good)

    elements = field(st.lists(NAMES, min_size=1, max_size=5, unique=not rarely()))
    pool = elements if isinstance(elements, list) and elements else ["0"]
    name = NAMES if rarely() else st.sampled_from(pool)
    pairs = draw(st.lists(st.lists(name, min_size=2, max_size=2), max_size=6))
    if draw(st.booleans()):  # first name below and last above all others
        pairs += [[pool[0], x] for x in pool[1:]] + [[x, pool[-1]] for x in pool[:-1]]
    order = field(st.fixed_dictionaries({
        "kind": st.sampled_from(["covers", "covers", "leq", "lt"]),
        "pairs": st.just(pairs)}))
    size = len(pool)
    table = st.lists(st.lists(name, min_size=size, max_size=size),
                     min_size=size, max_size=size)
    mult = field(st.one_of(
        st.fixed_dictionaries({"kind": st.sampled_from(["meet", "trivial", "lcm"])}),
        st.fixed_dictionaries({"kind": st.just("table"), "table": table})))
    doc = {"elements": elements, "order": order}
    if draw(st.booleans()):
        doc["multiplication"] = mult
    if rarely():
        doc[draw(st.sampled_from(["elements", "extra"]))] = draw(JSON_VALUES)
    return field(st.just(doc))


@given(lattice_documents())
def test_validate_fuzz_ends_in_a_documented_exit_code(doc):
    """Any JSON document ends in exit 0, 2 or 3 with one JSON object on
    stdout; an uncaught exception fails the test as it would show a
    traceback at the command line."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "lattice.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["validate", path])
    assert code in (0, 2, 3)
    assert json.loads(out.getvalue())["valid"] is (code == 0)
    assert "Traceback" not in err.getvalue()


def _run_in_process(args) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one in-process run; a usage error's
    SystemExit counts as its exit code."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(args)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@given(lattice_documents())
def test_analyze_and_graph_fuzz_end_in_a_documented_exit_code(doc):
    """analyze and graph --color on the same documents as the validate fuzz
    end in a documented exit code, never in an uncaught exception."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "lattice.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        for args in (["analyze", path], ["graph", path, "--color"]):
            code, _, err = _run_in_process(args)
            assert code in (0, 1, 2, 3, 4), args
            assert "Traceback" not in err


SPEC_ARGUMENTS = {
    "chain": st.integers(1, 12).map(str),
    "boolean": st.integers(0, 6).map(str),
    "divisor": st.integers(2, 60).map(str),
    "random": st.tuples(st.integers(0, 3), st.integers(2, 40)).map(
        lambda cs: f"{cs[0]}x{cs[1]}"),
}
SPEC_FIELDS = st.one_of(
    st.integers(-2, 12).map(str),
    st.sampled_from(["", "x", "3x", "x4", "0x2", "-1x3", "2x41", "7",
                     "meet", "trivial", "ring", "table"]),
    st.text(max_size=3))


@st.composite
def family_specs(draw):
    """Family specs, well formed three times in four (with an optional
    multiplication, which may not suit the family), and arbitrary
    colon-separated fields otherwise."""
    family = draw(st.sampled_from(["chain", "boolean", "divisor", "random",
                                   "fig2", "fig3", "bogus", ""]))
    if family in SPEC_ARGUMENTS and draw(st.sampled_from([True] * 3 + [False])):
        fields = [draw(SPEC_ARGUMENTS[family])]
        fields += draw(st.sampled_from([[], [], ["meet"], ["trivial"], ["ring"]]))
    else:
        fields = draw(st.lists(SPEC_FIELDS, max_size=3))
    return ":".join([family, *fields])


@given(st.lists(family_specs(), min_size=1, max_size=3))
def test_search_spec_fuzz_ends_in_a_documented_exit_code(specs):
    """Any --families string ends in a documented exit code; a usage error
    is one line on stderr and nothing on stdout."""
    code, out, err = _run_in_process(
        ["search", "--families", ",".join(specs), "--budget", "3"])
    assert code in (0, 1, 2, 3, 4)
    assert "Traceback" not in err
    if code == 2:
        assert out == "" and err.count("\n") == 1


# ---------------------------------------------------------------------------
# analyze


def test_analyze_fig3_fails_with_exit_1(capsys):
    code, out, err = run_cli(["analyze", "--fixture", "fig3"], capsys)
    assert code == 1
    report = json.loads(out)
    assert report["chi"] == 4 and report["omega"] == 3
    assert report["verdict"] == "fails"
    assert report["reduced"] is False
    assert report["nilpotent_witness"] == {"element": "f", "exponent": 2}
    assert report["vertex_count"] == 12
    assert report["modular"] is False
    assert "wall" not in out  # timing never enters the canonical report
    assert "analyzed" in err


def test_analyze_fig2_holds_with_exit_0(capsys):
    code, out, _ = run_cli(["analyze", "--fixture", "fig2"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["chi"] == 4 and report["omega"] == 4
    assert report["verdict"] == "holds"


def test_analyze_element_flag(capsys):
    code, out, _ = run_cli(["analyze", "--fixture", "fig2", "--element", "d"],
                           capsys)
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "empty_graph"
    assert report["element"] == "d"
    assert report["chi"] == 0 and report["omega"] == 0


def test_analyze_a_reduced_lattice_at_a_non_semiprime_element_exits_1(
        tmp_path, capsys):
    """fig3 under a new bottom is reduced, yet chi = 4 > omega = 3 at its
    old bottom "0", which is not semiprime: a verdict, not a self-check
    failure."""
    path = write(tmp_path, fig3_under_a_new_bottom())
    code, out, err = run_cli(["analyze", path, "--element", "0"], capsys)
    assert code == 1 and "FATAL" not in err
    report = json.loads(out)
    assert (report["verdict"], report["chi"], report["omega"]) == ("fails", 4, 3)
    assert report["element"] == "0" and report["reduced"] is True


def test_analyze_file_without_multiplication_is_structural_error(tmp_path, capsys):
    data = {k: v for k, v in B2_MEET.items() if k != "multiplication"}
    code, _, err = run_cli(["analyze", write(tmp_path, data)], capsys)
    assert code == 2
    assert "multiplication" in err


def test_analyze_mult_override(tmp_path, capsys):
    data = {k: v for k, v in B2_MEET.items() if k != "multiplication"}
    code, out, _ = run_cli(["analyze", write(tmp_path, data), "--mult", "meet"],
                           capsys)
    assert code == 0
    report = json.loads(out)
    assert report["chi"] == report["omega"] == 2


B2_BAD_TABLE = dict(B2_MEET, multiplication={"kind": "table", "table": [
    ["0", "0", "0", "0"], ["0", "a", "0", "a"],
    ["0", "0", "b", "b"], ["0", "a", "b", "a"]]})  # 1*1 = a breaks M5


@pytest.mark.parametrize("command", [["analyze"], ["graph", "--sense", "mult"]])
def test_mult_override_does_not_check_the_files_own_table(tmp_path, capsys, command):
    """--mult meet or trivial replaces the file's table, so that table is
    neither resolved nor verified; without the override it still is."""
    path = write(tmp_path, B2_BAD_TABLE)
    code, _, _ = run_cli([*command, path, "--mult", "meet"], capsys)
    assert code == 0
    code, _, err = run_cli([*command, path], capsys)
    assert code == 2
    assert "M5 fails at ('1',)" in err


@pytest.mark.parametrize("multiplication", [
    {"kind": "table", "table": [["0", 0, "0", "0"]]},
    {"kind": "table", "table": "no"},
    {"kind": "table"},
    {"kind": "magic"},
    {"kind": "meet", "table": []},
])
def test_mult_override_still_checks_the_schema(tmp_path, capsys, multiplication):
    path = write(tmp_path, dict(B2_MEET, multiplication=multiplication))
    for mult in ("meet", "trivial"):
        code, _, _ = run_cli(["analyze", path, "--mult", mult], capsys)
        assert code == 3


def test_analyze_timeout_partial_report(capsys):
    code, out, _ = run_cli(["analyze", "--fixture", "fig3",
                            "--timeout", "0"], capsys)
    assert code == 4
    report = json.loads(out)
    assert report["timed_out"] is True
    assert report["chi"] is None and report["verdict"] is None
    assert report["reduced"] is False  # the rest of the report is intact


def test_analyze_json_round_trip(capsys):
    code1, out1, _ = run_cli(["analyze", "--fixture", "fig3"], capsys)
    json.loads(out1)
    code2, out2, _ = run_cli(["analyze", "--fixture", "fig3"], capsys)
    assert out1 == out2 and code1 == code2


# ---------------------------------------------------------------------------
# graph


def test_graph_order_sense_golden(capsys):
    code, out, _ = run_cli(["graph", "--fixture", "fig2", "--sense", "order"],
                           capsys)
    assert code == 0
    assert out == ('graph G {\n'
                   '  "a";\n'
                   '  "b";\n'
                   '  "c";\n'
                   '  "a" -- "c";\n'
                   '  "b" -- "c";\n'
                   '}\n')


def test_graph_mult_sense_k4(capsys):
    code, out, _ = run_cli(["graph", "--fixture", "fig2", "--sense", "mult"],
                           capsys)
    assert code == 0
    assert out.count(" -- ") == 6


def test_graph_dot_file_and_color(tmp_path, capsys):
    target = tmp_path / "out.dot"
    code, _, err = run_cli(["graph", "--fixture", "fig3", "--dot", str(target),
                            "--color"], capsys)
    assert code == 0
    text = target.read_text(encoding="utf-8")
    assert text.count("fillcolor=") == 12
    assert "12 vertices / 21 edges" in err


def test_graph_ideal_flag(tmp_path, capsys):
    code, out, _ = run_cli(["graph", "--fixture", "fig2", "--sense", "order",
                            "--ideal", "0,a"], capsys)
    assert code == 0
    assert '"b" -- "c";' in out


def test_graph_bad_ideal(tmp_path, capsys):
    code, _, err = run_cli(["graph", "--fixture", "fig2", "--sense", "order",
                            "--ideal", "a"], capsys)
    assert code == 2
    assert "ideal" in err.lower()


@pytest.mark.parametrize("args, message", [
    (["--ideal", "a"], "graph --ideal needs --sense order"),
    (["--sense", "mult", "--ideal", "0"], "graph --ideal needs --sense order"),
    (["--sense", "order", "--element", "a"], "graph --element needs --sense mult"),
])
def test_graph_flags_of_the_other_sense_are_usage_errors(args, message, capsys):
    """--ideal belongs to the order sense and --element to the multiplicative
    one (the default); given to the other sense, neither is ignored."""
    with pytest.raises(SystemExit) as exc:
        main(["graph", "--fixture", "fig2", *args])
    out, err = capsys.readouterr()
    assert exc.value.code == 2
    assert out == ""
    assert err.count("\n") == 1 and message in err


def test_graph_empty_chain(tmp_path, capsys):
    data = {"elements": ["0", "m", "1"],
            "order": {"kind": "covers", "pairs": [["0", "m"], ["m", "1"]]}}
    code, out, _ = run_cli(["graph", write(tmp_path, data), "--sense", "order"],
                           capsys)
    assert code == 0
    assert out == "graph G {\n}\n"


def test_graph_quotes_names_with_quotes_and_backslashes(tmp_path, capsys):
    """Each name is one quoted DOT ID: a double quote and a backslash in a
    name are escaped, so the ID does not end inside the name."""
    data = {"elements": ["0", 'a"x', "b\\", "1"],
            "order": {"kind": "covers", "pairs": [
                ["0", 'a"x'], ["0", "b\\"], ['a"x', "1"], ["b\\", "1"]]}}
    code, out, _ = run_cli(["graph", write(tmp_path, data), "--sense", "order"],
                           capsys)
    assert code == 0
    assert out == ('graph G {\n'
                   '  "a\\"x";\n'
                   '  "b\\\\";\n'
                   '  "a\\"x" -- "b\\\\";\n'
                   '}\n')


def test_graph_dot_to_an_unwritable_path_exits_3(tmp_path, capsys):
    target = tmp_path / "missing" / "x.dot"
    code, out, err = run_cli(["graph", "--fixture", "fig3", "--dot", str(target)],
                             capsys)
    assert code == 3
    assert out == ""
    assert err.count("\n") == 1 and "cannot write" in err


def power_chain_document(e: int) -> dict:
    """Id(Z_{2^e}) as a lattice file: the chain of ideals (2^i), with
    (2^i)(2^j) = (2^min(i + j, e)).  Its graph needs ceil(e / 2) colours."""
    names = [f"2^{i}" for i in range(e + 1)]
    return {"elements": names,
            "order": {"kind": "covers",
                      "pairs": [[names[i + 1], names[i]] for i in range(e)]},
            "multiplication": {"kind": "table", "table": [
                [names[min(i + j, e)] for j in range(e + 1)]
                for i in range(e + 1)]}}


def test_graph_color_beyond_the_palette_exits_2(tmp_path, capsys):
    """chi = 13 is one more colour than the DOT palette holds."""
    path = write(tmp_path, power_chain_document(26))
    code, out, err = run_cli(["analyze", path], capsys)
    assert code == 0 and json.loads(out)["chi"] == 13
    code, out, err = run_cli(["graph", path, "--color"], capsys)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "palette has 12" in err
    code, out, _ = run_cli(["graph", path], capsys)
    assert code == 0 and out.count(" -- ") > 0


# ---------------------------------------------------------------------------
# ring


def test_ring_single_modulus(capsys):
    code, out, _ = run_cli(["ring", "--modulus", "30"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["chi"] == report["omega"] == 3
    assert report["minimal_prime_elements"] == ["(2)", "(3)", "(5)"]


def test_ring_sweep_jsonl(capsys):
    code, out, _ = run_cli(["ring", "--sweep", "2..12"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 11
    reports = [json.loads(ln) for ln in lines]
    assert [r["instance"] for r in reports] == [f"ring:{n}" for n in range(2, 13)]
    by_n = {r["instance"]: r for r in reports}
    assert by_n["ring:6"]["chi"] == 2
    assert by_n["ring:7"]["verdict"] == "empty_graph"


def test_ring_sweep_with_timeouts_exits_4(capsys):
    """ring:6 and ring:8 time out and ring:7 has an empty graph: every line
    is printed, and the timeouts decide the exit code."""
    code, out, _ = run_cli(["ring", "--sweep", "6..8", "--timeout", "0"], capsys)
    assert code == 4
    reports = [json.loads(ln) for ln in out.strip().splitlines()]
    assert [r["timed_out"] for r in reports] == [True, False, True]


def test_ring_requires_exactly_one_mode(capsys):
    with pytest.raises(SystemExit):
        main(["ring"])
    with pytest.raises(SystemExit):
        main(["ring", "--modulus", "6", "--sweep", "2..4"])
    capsys.readouterr()


def test_ring_invalid_modulus(capsys):
    code, _, err = run_cli(["ring", "--modulus", "1"], capsys)
    assert code == 2
    assert "modulus" in err


# ---------------------------------------------------------------------------
# search


def test_search_finds_fig3(capsys):
    code, out, err = run_cli(["search", "--families", "fig3,boolean:3",
                              "--seed", "1"], capsys)
    assert code == 1
    lines = out.strip().splitlines()
    assert len(lines) == 1
    finding = json.loads(lines[0])
    assert finding["instance"] == "fig3+table"
    assert finding["oracle_verified"] is True
    assert "2 instance(s)" in err


def test_search_clean_families_exit_0(capsys):
    code, out, _ = run_cli(["search", "--families", "boolean:3,chain:4",
                            "--seed", "1"], capsys)
    assert code == 0
    assert out == ""


def test_search_with_skipped_instances_exits_4(capsys):
    code, out, err = run_cli(["search", "--families", "boolean:3,divisor:30",
                              "--timeout", "0"], capsys)
    assert code == 4
    assert out == ""
    assert "2 skipped on timeout" in err


@pytest.mark.parametrize("failed, timed_out, code", [
    (False, False, 0), (True, False, 1), (False, True, 4), (True, True, 1)])
def test_a_failure_outranks_a_timeout(failed, timed_out, code):
    assert _exit_status(failed, timed_out) == code


# ---------------------------------------------------------------------------
# determinism across processes (fresh interpreter each run)


def run_subprocess(args):
    return subprocess.run([sys.executable, "-m", "multlat", *args],
                          capture_output=True, text=True)


def test_cmd_analyze_byte_identical_across_runs():
    r1 = run_subprocess(["analyze", "--fixture", "fig3"])
    r2 = run_subprocess(["analyze", "--fixture", "fig3"])
    assert r1.returncode == r2.returncode == 1
    assert r1.stdout == r2.stdout
    assert r1.stdout.encode() == r2.stdout.encode()


def test_a_closed_stdout_exits_3_with_one_line():
    """A reader that stops after the first line of a sweep ends the run in
    exit 3 and one line on stderr, with no traceback."""
    with subprocess.Popen([sys.executable, "-m", "multlat", "ring", "--sweep", "2..1000"],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
    assert json.loads(first)["instance"] == "ring:2"
    assert proc.returncode == 3
    assert err == "error: standard output was closed\n"


def test_cmd_search_byte_identical_across_runs():
    args = ["search", "--families", "fig3,random:5x14,divisor:66",
            "--seed", "42", "--budget", "50"]
    r1 = run_subprocess(args)
    r2 = run_subprocess(args)
    assert r1.returncode == r2.returncode == 1
    assert r1.stdout == r2.stdout


@pytest.mark.parametrize("args, message", [
    (["search", "--families", "random:0x16"],
     "random count must be >= 1, got 0 in spec 'random:0x16'"),
    (["search", "--families", "bogus:3"], "unknown family 'bogus'"),
    (["search", "--families", "boolean:x"], "boolean rank must be an integer"),
    (["search", "--families", "boolean:11"], "boolean rank must be 0..10"),
    (["search", "--families", "chain:-1"], "chain size must be 1..1024"),
    (["search", "--families", "random:5x"], "random size must be an integer"),
    (["search", "--families", "random:3x0"], "random size must be 4..40"),
    (["search", "--families", "chain:4", "--budget", "0"],
     "budget must be positive"),
    (["ring", "--modulus", "1000000000001"],
     "modulus must be at most 1000000000000, got 1000000000001"),
    (["search", "--families", "divisor:735134400"],
     "Id(Z_735134400) has 1344 elements; at most 1024 are accepted"),
    (["search", "--families", "fig3,chain:x"], "chain size must be an integer"),
    (["search", "--families", "chain:1025"],
     "chain size must be 1..1024, got 1025 in spec 'chain:1025'"),
])
def test_input_errors_exit_2_with_one_line(args, message, capsys):
    code, out, err = run_cli(args, capsys)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and message in err


@pytest.mark.parametrize("args", [
    ["analyze", "--fixture", "fig3", "--timeout", "nan"],
    ["analyze", "--fixture", "fig3", "--timeout", "-1"],
    ["ring", "--modulus", "6", "--timeout", "inf"],
    ["search", "--families", "fig3", "--timeout", "soon"],
])
def test_bad_timeouts_are_rejected_at_parse_time(args, capsys):
    with pytest.raises(SystemExit) as exc:
        main(args)
    out, err = capsys.readouterr()
    assert exc.value.code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert "argument --timeout: must be a finite number of seconds >= 0" in err


@pytest.mark.parametrize("args, message", [
    (["ring", "--sweep", "5..3"],
     "argument --sweep: range A..B needs A <= B, got '5..3'"),
    (["search", "--families", ","], "search needs at least one family spec"),
    (["ring", "--sweep", "2-5"],
     "argument --sweep: range must look like A..B, got '2-5'"),
    (["analyze"], "analyze needs a file or --fixture"),
    (["graph", "--color"], "graph needs a file or --fixture"),
])
def test_a_run_with_nothing_to_analyse_is_a_usage_error(args, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(args)
    out, err = capsys.readouterr()
    assert exc.value.code == 2
    assert out == ""
    assert err.count("\n") == 1 and message in err


def test_mult_table_on_a_file_without_a_table_exits_2(tmp_path, capsys):
    """The file's own table is already the default, so --mult offers only
    the products that override it: table is a usage error, not a run of
    the file's meet."""
    path = write(tmp_path, B2_MEET)
    for command in (["analyze"], ["graph"]):
        with pytest.raises(SystemExit) as exc:
            main([*command, path, "--mult", "table"])
        out, err = capsys.readouterr()
        assert exc.value.code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert "argument --mult: invalid choice: 'table'" in err


def test_a_solver_timeout_outside_analyze_exits_4(capsys):
    """graph --color lets the solver's timeout reach main, which reports it
    in one line and exits 4, before any DOT is printed."""
    code, out, err = run_cli(["graph", "--fixture", "fig3", "--color",
                              "--timeout", "0"], capsys)
    assert code == 4
    assert out == ""
    assert err == "timeout: solver exceeded its time budget\n"


def test_a_failed_self_check_exits_2_with_one_fatal_line(monkeypatch, capsys):
    monkeypatch.setattr(multlat.rings, "is_modular", lambda lat: False)
    code, out, err = run_cli(["ring", "--modulus", "6"], capsys)
    assert code == 2
    assert out == ""
    assert err == ("FATAL SELF-TEST FAILURE: Id(Z_6) reports non-modular; "
                   "divisor lattices are distributive\n")


def test_unknown_element_names_are_structural_errors(capsys):
    code, _, err = run_cli(["analyze", "--fixture", "fig3",
                            "--element", "zzz"], capsys)
    assert code == 2
    assert "unknown element" in err
    code, _, err = run_cli(["graph", "--fixture", "fig2", "--sense", "order",
                            "--ideal", "0,nope"], capsys)
    assert code == 2
    assert "unknown element" in err
    # An empty name is a name like any other, not the flag left out.
    for args in (["analyze", "--fixture", "fig3", "--element", ""],
                 ["graph", "--fixture", "fig3", "--element", ""],
                 ["graph", "--fixture", "fig2", "--sense", "order",
                  "--ideal", ""]):
        code, out, err = run_cli(args, capsys)
        assert (code, out) == (2, ""), args
        assert "unknown element name ''" in err


def test_an_element_named_by_the_empty_string(tmp_path, capsys):
    """B2 with the atom a named "": --element "" analyses that atom, and
    --ideal "" names {a}, which is not a down-set."""
    path = write(tmp_path, {**B2_MEET, "elements": ["0", "", "b", "1"],
                            "order": {"kind": "covers",
                                      "pairs": [["0", ""], ["0", "b"],
                                                ["", "1"], ["b", "1"]]}})
    code, out, _ = run_cli(["analyze", path, "--element", ""], capsys)
    report = json.loads(out)
    assert (code, report["element"], report["verdict"]) == (0, "", "empty_graph")
    code, out, err = run_cli(["graph", path, "--sense", "order",
                              "--ideal", ""], capsys)
    assert (code, out) == (2, "")
    assert err == "error: subset {''} is not an ideal\n"
    code, out, err = run_cli(["analyze", path, "--element", "c"], capsys)
    assert (code, out) == (2, "")
    assert err == ("error: unknown element name 'c'; elements are "
                   "'0', '', 'b', '1'\n")
