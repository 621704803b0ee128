"""The JSON lattice file schema."""
from __future__ import annotations

import json

import pytest

import multlat.fileio
from multlat import (AxiomViolation, IncompleteTable, LatticeFileError, NotALattice,
                     attach_multiplication, build_lattice, load_lattice_file,
                     parse_lattice_data)
from multlat.cli import main
from multlat.lattice import MAX_INPUT_ELEMENTS

GOOD = {
    "elements": ["0", "a", "b", "1"],
    "order": {"kind": "covers",
              "pairs": [["0", "a"], ["0", "b"], ["a", "1"], ["b", "1"]]},
}


def write(tmp_path, data):
    path = tmp_path / "lattice.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def test_load_lattice_without_multiplication(tmp_path):
    lat, ml = load_lattice_file(write(tmp_path, GOOD))
    assert lat.n == 4 and ml is None


def test_load_lattice_with_meet_multiplication(tmp_path):
    data = dict(GOOD, multiplication={"kind": "meet"})
    lat, ml = load_lattice_file(write(tmp_path, data))
    assert ml is not None
    assert ml.product[lat.names.index("a")][lat.names.index("b")] == lat.bottom


def test_load_lattice_with_table(tmp_path):
    data = {
        "elements": ["0", "1"],
        "order": {"kind": "covers", "pairs": [["0", "1"]]},
        "multiplication": {"kind": "table",
                           "table": [["0", "0"], ["0", "1"]]},
    }
    lat, ml = load_lattice_file(write(tmp_path, data))
    assert ml.product[1][1] == 1


TABLE_SHAPE = '"table" must be a list of lists of names'


@pytest.mark.parametrize("table, error, message", [
    # A non-string entry is a schema error wherever it is and whatever else
    # is wrong with the table: exit 3, as when every entry was type-checked
    # before any was resolved.
    ([["0", 0], ["0", "1"]], LatticeFileError, TABLE_SHAPE),
    ([["0", "0"], ["0", ["1"]]], LatticeFileError, TABLE_SHAPE),
    ([["0", "0"], ["0", None]], LatticeFileError, TABLE_SHAPE),
    ([["0"], ["0", 1]], LatticeFileError, TABLE_SHAPE),
    ([["0", "0"], ["0", "1"], [{}]], LatticeFileError, TABLE_SHAPE),
    # Strings only: resolving them names the fault, exit 2.
    ([["0", "0"], ["0", "one"]], IncompleteTable,
     "table entry (1,1) names unknown element 'one'"),
    ([["0", "0"], ["0"]], IncompleteTable, "table row 1 has 1 entries, expected 2"),
    ([["0", "0"]], IncompleteTable, "table has 1 rows, expected 2"),
])
def test_table_faults_keep_their_kind_and_message(tmp_path, capsys, table, error,
                                                  message):
    data = {"elements": ["0", "1"], "order": {"kind": "covers", "pairs": [["0", "1"]]},
            "multiplication": {"kind": "table", "table": table}}
    with pytest.raises(error) as exc:
        parse_lattice_data(data)
    assert str(exc.value) == message
    assert main(["validate", write(tmp_path, data)]) == (3 if error is LatticeFileError else 2)
    capsys.readouterr()


def test_leq_kind(tmp_path):
    data = {
        "elements": ["0", "1"],
        "order": {"kind": "leq", "pairs": [["0", "1"]]},
    }
    lat, _ = load_lattice_file(write(tmp_path, data))
    assert lat.up[0] >> 1 & 1


def test_unknown_top_level_key_rejected():
    with pytest.raises(LatticeFileError, match="unknown key"):
        parse_lattice_data(dict(GOOD, extra=1))


def test_unknown_order_key_rejected():
    bad = dict(GOOD, order=dict(GOOD["order"], loops=True))
    with pytest.raises(LatticeFileError, match="unknown key"):
        parse_lattice_data(bad)


def test_unknown_multiplication_key_rejected():
    bad = dict(GOOD, multiplication={"kind": "meet", "zzz": 0})
    with pytest.raises(LatticeFileError, match="unknown key"):
        parse_lattice_data(bad)


def test_a_multiplication_that_is_not_an_object_is_rejected():
    bad = dict(GOOD, multiplication=["meet"])
    with pytest.raises(LatticeFileError,
                       match='^"multiplication" must be an object$'):
        parse_lattice_data(bad)


def test_missing_keys_rejected():
    with pytest.raises(LatticeFileError, match="missing key"):
        parse_lattice_data({"elements": ["0"]})


def test_bad_shapes_rejected():
    with pytest.raises(LatticeFileError):
        parse_lattice_data([1, 2, 3])
    with pytest.raises(LatticeFileError):
        parse_lattice_data(dict(GOOD, elements=[]))
    with pytest.raises(LatticeFileError):
        parse_lattice_data(dict(GOOD, elements=["0", 1]))
    with pytest.raises(LatticeFileError):
        parse_lattice_data(dict(GOOD, order={"kind": "covers", "pairs": [["0"]]}))
    with pytest.raises(LatticeFileError):
        parse_lattice_data(dict(GOOD, order={"kind": "upward", "pairs": []}))
    with pytest.raises(LatticeFileError):
        parse_lattice_data(dict(GOOD, multiplication={"kind": "magic"}))
    with pytest.raises(LatticeFileError):
        parse_lattice_data(dict(GOOD, multiplication={"kind": "table",
                                                      "table": "no"}))


def test_undeclared_element_in_pairs_rejected():
    bad = dict(GOOD, order={"kind": "covers", "pairs": [["0", "zz"]]})
    with pytest.raises(LatticeFileError, match="undeclared"):
        parse_lattice_data(bad)


def order_document(elements, kind, pairs):
    return {"elements": elements, "order": {"kind": kind, "pairs": pairs}}


# Files that break one rule of build_lattice on names or the order kind.
NAME_AND_KIND_FAULTS = [
    (order_document(["0", "a", "a", "1"], "covers", [["0", "a"], ["a", "1"]]),
     "element name 'a' is declared more than once"),
    (order_document(["0", "1"], "covers", [["0", "zz"]]),
     "order pair references undeclared element 'zz'"),
    (order_document(["0", "1"], "leq", [["0", "1"], ["zz", "1"]]),
     "order pair references undeclared element 'zz'"),
    (order_document(["0", "1"], "upward", [["0", "1"]]),
     'order kind must be "covers" or "leq", got \'upward\''),
    (order_document(["0", "1"], ["covers"], [["0", "1"]]),
     'order kind must be "covers" or "leq", got [\'covers\']'),
    (order_document(["0", "a", "b", "1"], "covers",
                    [["a", "b"], ["b", "a"], ["a", "zz"]]),
     "order pair references undeclared element 'zz'"),
]


@pytest.mark.parametrize("doc, message", NAME_AND_KIND_FAULTS,
                         ids=["duplicate-name", "undeclared-covers",
                              "undeclared-leq", "kind-string", "kind-list",
                              "undeclared-and-cycle"])
def test_name_and_kind_faults_keep_build_lattice_wording(tmp_path, capsys, doc, message):
    """parse_lattice_data reports build_lattice's ValueError word for word
    as a LatticeFileError, and validate exits 3 with that message."""
    with pytest.raises(LatticeFileError) as exc:
        parse_lattice_data(doc)
    assert str(exc.value) == message
    order = doc["order"]
    with pytest.raises(ValueError) as exc:
        build_lattice(doc["elements"], order["pairs"], order["kind"])
    assert str(exc.value) == message
    assert main(["validate", write(tmp_path, doc)]) == 3
    out, err = capsys.readouterr()
    assert json.loads(out)["error"] == {"kind": "parse", "message": message}
    assert err == message + "\n"


def test_an_unknown_multiplication_kind_has_one_wording(tmp_path, capsys):
    """attach_multiplication and the file reader state the kind rule in the
    same words: a ValueError from the API, a LatticeFileError from the file
    whether or not the multiplication is attached, and exit 3 from
    validate."""
    message = ("multiplication kind must be one of ('table', 'meet', "
               "'trivial'), got 'magic'")
    doc = dict(GOOD, multiplication={"kind": "magic"})
    with pytest.raises(ValueError) as exc:
        attach_multiplication(parse_lattice_data(GOOD)[0], "magic")
    assert str(exc.value) == message
    for attach in (True, False):
        with pytest.raises(LatticeFileError) as exc:
            parse_lattice_data(doc, attach=attach)
        assert str(exc.value) == message
    assert main(["validate", write(tmp_path, doc)]) == 3
    out, err = capsys.readouterr()
    assert json.loads(out)["error"] == {"kind": "parse", "message": message}
    assert err == message + "\n"


def test_a_non_lattice_file_is_a_structural_error(tmp_path, capsys):
    """An order that is not a lattice raises NotALattice, not a ValueError,
    so it is not a file error and validate exits 2."""
    doc = order_document(["0", "a", "b", "c", "d", "1"], "covers",
                         [["0", "a"], ["0", "b"], ["a", "c"], ["a", "d"],
                          ["b", "c"], ["b", "d"], ["c", "1"], ["d", "1"]])
    with pytest.raises(NotALattice) as exc:
        parse_lattice_data(doc)
    assert not isinstance(exc.value, ValueError)
    assert main(["validate", write(tmp_path, doc)]) == 2
    assert json.loads(capsys.readouterr().out)["error"]["kind"] == "NotALattice"


class _BuildReached(Exception):
    """Raised by a stand-in for build_lattice, so no lattice is built."""


def test_a_file_past_the_element_cap_is_rejected_before_building(
        tmp_path, capsys, monkeypatch):
    """A file with more than MAX_INPUT_ELEMENTS names is a parse error
    (exit 3) and build_lattice never runs; a file at the cap reaches it."""
    def stand_in(*args):
        raise _BuildReached

    monkeypatch.setattr(multlat.fileio, "build_lattice", stand_in)
    message = (f'"elements" lists {MAX_INPUT_ELEMENTS + 1} names; at most '
               f'{MAX_INPUT_ELEMENTS} are accepted')
    names = [str(i) for i in range(MAX_INPUT_ELEMENTS + 1)]
    over = order_document(names, "covers", [])
    with pytest.raises(LatticeFileError, match=message):
        parse_lattice_data(over)
    assert main(["validate", write(tmp_path, over)]) == 3
    assert capsys.readouterr().err == message + "\n"
    with pytest.raises(_BuildReached):
        parse_lattice_data(order_document(names[:-1], "covers", []))


def test_axiom_violation_passes_through(tmp_path):
    data = {
        "elements": ["0", "x", "y", "z", "1"],
        "order": {"kind": "covers",
                  "pairs": [["0", "x"], ["0", "y"], ["0", "z"],
                            ["x", "1"], ["y", "1"], ["z", "1"]]},
        "multiplication": {"kind": "meet"},
    }
    with pytest.raises(AxiomViolation):
        load_lattice_file(write(tmp_path, data))


def test_unreadable_and_malformed_files(tmp_path):
    with pytest.raises(LatticeFileError):
        load_lattice_file(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{oops", encoding="utf-8")
    with pytest.raises(LatticeFileError):
        load_lattice_file(str(bad))
