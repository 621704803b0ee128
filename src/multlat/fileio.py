"""Reading lattice files.

The on-disk format is UTF-8 JSON:

    {
      "elements": ["0", "a", "b", "1"],
      "order": {"kind": "covers" | "leq", "pairs": [["0", "a"], ...]},
      "multiplication": {"kind": "table", "table": [["0", ...], ...]}
                      | {"kind": "meet"} | {"kind": "trivial"}    (optional)
    }

Pairs [x, y] mean x <= y.  Unknown keys are rejected.  Schema problems raise
LatticeFileError (CLI exit 3); order/axiom problems raise the structural
errors from the core modules (CLI exit 2).  A file that declares more than
``MAX_INPUT_ELEMENTS`` elements is a schema problem, rejected before the
lattice is built.

This module checks only the JSON shape.  The rules on names and the order
kind (no name declared twice, a kind of "covers" or "leq", no pair naming an
undeclared element) live in ``build_lattice``, and the rule on the
multiplication kind in ``check_mult_kind``; their ValueError is re-raised
here as LatticeFileError with the same message.  A table's entries are read
once, by ``attach_multiplication``, which looks each one up by name; only
when that fails is the table searched for an entry that is not a string,
which is a schema error.
"""
from __future__ import annotations

import json
from typing import Any

from .errors import IncompleteTable, LatticeFileError
from .lattice import MAX_INPUT_ELEMENTS, Lattice, build_lattice
from .multiplication import MultLattice, attach_multiplication, check_mult_kind


def _expect_keys(obj: dict, allowed: set[str], required: set[str], where: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise LatticeFileError(f"unknown key(s) in {where}: {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise LatticeFileError(f"missing key(s) in {where}: {sorted(missing)}")


_TABLE_SHAPE = '"table" must be a list of lists of names'


def _has_non_name(table: list[list]) -> bool:
    return not all(isinstance(x, str) for row in table for x in row)


def parse_lattice_data(data: Any, attach: bool = True
                       ) -> tuple[Lattice, MultLattice | None]:
    """Validate parsed JSON data and build the (mult-)lattice it describes.

    With ``attach`` false the multiplication is checked against the schema
    only, and None is returned in its place.
    """
    if not isinstance(data, dict):
        raise LatticeFileError("top level must be a JSON object")
    _expect_keys(data, {"elements", "order", "multiplication"},
                 {"elements", "order"}, "lattice file")

    elements = data["elements"]
    if (not isinstance(elements, list) or not elements
            or not all(isinstance(e, str) for e in elements)):
        raise LatticeFileError('"elements" must be a non-empty list of strings')
    if len(elements) > MAX_INPUT_ELEMENTS:
        raise LatticeFileError(f'"elements" lists {len(elements)} names; at '
                               f'most {MAX_INPUT_ELEMENTS} are accepted')

    order = data["order"]
    if not isinstance(order, dict):
        raise LatticeFileError('"order" must be an object')
    _expect_keys(order, {"kind", "pairs"}, {"kind", "pairs"}, '"order"')
    pairs = order["pairs"]
    if not isinstance(pairs, list) or not all([
            isinstance(p, list) and len(p) == 2
            and isinstance(p[0], str) and isinstance(p[1], str) for p in pairs]):
        raise LatticeFileError('"pairs" must be a list of [name, name] pairs')

    try:
        lat = build_lattice(elements, pairs, order["kind"])
    except ValueError as exc:  # a name or kind rule of build_lattice
        raise LatticeFileError(str(exc)) from exc

    if "multiplication" not in data:
        return lat, None
    mult = data["multiplication"]
    if not isinstance(mult, dict):
        raise LatticeFileError('"multiplication" must be an object')
    mkind = mult.get("kind")
    try:
        check_mult_kind(mkind)
    except ValueError as exc:
        raise LatticeFileError(str(exc)) from exc
    if mkind != "table":
        _expect_keys(mult, {"kind"}, {"kind"}, '"multiplication"')
        return lat, attach_multiplication(lat, mkind) if attach else None
    _expect_keys(mult, {"kind", "table"}, {"kind", "table"}, '"multiplication"')
    table = mult["table"]
    if not isinstance(table, list) or not all(isinstance(row, list) for row in table):
        raise LatticeFileError(_TABLE_SHAPE)
    if not attach:
        if _has_non_name(table):
            raise LatticeFileError(_TABLE_SHAPE)
        return lat, None
    # The entries are read once, by attach_multiplication; a non-string
    # entry cannot name an element, so it always ends in IncompleteTable.
    try:
        return lat, attach_multiplication(lat, "table", table)
    except IncompleteTable:
        if _has_non_name(table):
            raise LatticeFileError(_TABLE_SHAPE) from None
        raise


def load_lattice_file(path: str, attach: bool = True
                      ) -> tuple[Lattice, MultLattice | None]:
    """Load a lattice file; LatticeFileError on unreadable or malformed input.
    ``attach`` is passed to ``parse_lattice_data``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise LatticeFileError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise LatticeFileError(f"{path} is not UTF-8: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # ValueError: a JSONDecodeError, or an integer literal too long to
        # convert; RecursionError: nesting deeper than the decoder can follow.
        raise LatticeFileError(f"{path} is not valid JSON: {exc}") from exc
    return parse_lattice_data(data, attach)
