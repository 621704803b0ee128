"""Lattice family generators and the counterexample search harness.

Family specs are compact strings:

  chain:K          the K-element chain                       (K <= 1024)
  boolean:K        the lattice of subsets of {1..K}          (K <= 10)
  divisor:N        the ideal lattice of Z_N
  random:CxS       C seeded random distributive lattices of size <= S (4..40)
  fig2 / fig3      the bundled fixtures

An optional trailing ":MULT" picks the multiplication (meet, trivial, ring,
table); the defaults are meet for chain/boolean/random, ring for divisor,
trivial for fig2 and the bundled table for fig3.

The search analyzes each generated instance and records every chi != omega
finding.  A reduced instance with chi != omega is impossible by the reduced
theory, so it aborts the run with SelfCheckError - it is the strongest
self-test available.
"""
from __future__ import annotations

import random
from collections.abc import Iterator
from dataclasses import dataclass, field
from itertools import chain, islice

from .errors import InvalidSpec, SelfCheckError
from .fixtures import FIXTURE_MULTS, FIXTURE_NAMES, fixture
from .lattice import MAX_INPUT_ELEMENTS, Lattice, _bits, build_lattice
from .multiplication import MULT_KINDS, MultLattice, attach_multiplication
from .report import VERDICT_FAILS, analyze
from .rings import MAX_MODULUS, ideal_lattice_zn
from .solvers import (DEFAULT_SOLVER_BUDGET, ORACLE_CAP, brute_force_chromatic,
                      brute_force_clique)
from .zdgraph import mult_zero_divisor_graph

#: The largest K for ``boolean:K``: 2^K elements, at most MAX_INPUT_ELEMENTS.
MAX_BOOLEAN_RANK = MAX_INPUT_ELEMENTS.bit_length() - 1
MIN_RANDOM_SIZE = 4
MAX_RANDOM_SIZE = 40


def chain_lattice(k: int) -> Lattice:
    """The k-element chain c0 < c1 < ... (k >= 1)."""
    if k < 1:
        raise ValueError("chain needs at least one element")
    names = [f"c{i}" for i in range(k)]
    covers = [(f"c{i}", f"c{i + 1}") for i in range(k - 1)]
    return build_lattice(names, covers, "covers")


def boolean_lattice(k: int) -> Lattice:
    """The lattice of subsets of {1..k}, ordered by inclusion
    (0 <= k <= ``MAX_BOOLEAN_RANK``).

    Elements are named "{}", "{1}", "{1,2}", ... and ordered by subset
    bitmask, so the empty set is the bottom and the full set the top.  The
    order is built from its k 2^(k-1) cover pairs, a set below the same set
    with one more point.
    """
    if not 0 <= k <= MAX_BOOLEAN_RANK:
        raise ValueError(f"boolean rank must be in 0..{MAX_BOOLEAN_RANK}")

    def name(mask: int) -> str:
        return "{" + ",".join(str(i + 1) for i in range(k) if mask >> i & 1) + "}"

    names = [name(m) for m in range(1 << k)]
    pairs = [(names[m], names[m | 1 << i]) for m in range(1 << k)
             for i in range(k) if not m >> i & 1]
    return build_lattice(names, pairs, "covers")


def random_poset_down_set_lattice(seed: int, max_size: int) -> Lattice:
    """The down-set lattice of a seeded random poset; always distributive.

    Posets are sampled (3-6 points, random comparabilities i < j drawn with
    i ascending, so ``below[i]`` is already transitively closed when it is
    copied into ``below[j]``) until the down-set family has at most
    ``max_size`` members; the same seed always yields the same lattice.  A
    poset of m points has at least m + 1 down-sets, so ``max_size`` must be
    at least ``MIN_RANDOM_SIZE``, which ``generate`` checks too; InvalidSpec
    (a ValueError) says so at once instead of sampling in vain.
    """
    if not MIN_RANDOM_SIZE <= max_size <= MAX_RANDOM_SIZE:
        raise InvalidSpec(f"random size must be {MIN_RANDOM_SIZE}.."
                          f"{MAX_RANDOM_SIZE}, got {max_size}")
    rng = random.Random(seed)
    for _ in range(1000):
        m = rng.randint(3, 6)
        below = [1 << i for i in range(m)]  # below[i]: bitmask of j <= i
        for i in range(m):
            for j in range(i + 1, m):
                if rng.random() < 0.4:
                    below[j] |= below[i]  # impose i < j transitively
        # A down-set holds everything below each of its points.
        masks = [s for s in range(1 << m) if all(below[x] & ~s == 0 for x in _bits(s))]
        if len(masks) > max_size:
            continue
        masks.sort(key=lambda s: (s.bit_count(), s))
        names = ["{" + ",".join(str(i) for i in range(m) if s >> i & 1) + "}"
                 for s in masks]
        pairs = [(names[i], names[j]) for i, s1 in enumerate(masks)
                 for j, s2 in enumerate(masks) if s1 & ~s2 == 0]
        return build_lattice(names, pairs, "leq")
    raise RuntimeError("random poset sampling failed to meet the size bound")


_DEFAULT_MULTS = {"divisor": "ring", **FIXTURE_MULTS}
# The families with one integer argument: its name, its range, the lattice.
_ONE_ARG = {"chain": ("size", 1, MAX_INPUT_ELEMENTS, chain_lattice),
            "boolean": ("rank", 0, MAX_BOOLEAN_RANK, boolean_lattice),
            "divisor": ("modulus", 2, MAX_MODULUS,
                        lambda n: ideal_lattice_zn(n).lattice)}


def _int_arg(text: str, spec: str, what: str, low: int,
             high: int | None = None) -> int:
    """Parse one integer field of a family spec, within [low, high]."""
    try:
        value = int(text)
    except ValueError:
        raise InvalidSpec(f"{what} must be an integer, got {text!r} in spec "
                          f"{spec!r}") from None
    if value < low or (high is not None and value > high):
        bounds = f"{low}..{high}" if high is not None else f">= {low}"
        raise InvalidSpec(f"{what} must be {bounds}, got {value} in spec {spec!r}")
    return value


def _instances(spec: str, seed: int = 0) -> Iterator[tuple[str, MultLattice]]:
    """Check one family spec now; build its instances only when asked.

    Every InvalidSpec is raised here, before anything is built.  The
    (instance_id, MultLattice) pairs come from a generator expression, one
    at a time, so what only building shows comes as each is built:
    InvalidModulus for Id(Z_n) with too many elements, AxiomViolation for
    an inadmissible multiplication.
    """
    family, *args = spec.split(":")
    if family not in (*FIXTURE_NAMES, *_ONE_ARG, "random"):
        raise InvalidSpec(f"unknown family {family!r} in spec {spec!r}")
    mult = args.pop() if args and args[-1] in (*MULT_KINDS, "ring") else None
    kind = mult or _DEFAULT_MULTS.get(family, "meet")
    # ring and table apply only to the families that have them by default.
    owners = [f for f, m in _DEFAULT_MULTS.items() if m == kind]
    if kind in ("ring", "table") and family not in owners:
        raise InvalidSpec(f"{kind} multiplication only applies to "
                          f"{' and '.join(owners)} specs: {spec!r}")

    if family in FIXTURE_NAMES:
        if args:
            raise InvalidSpec(f"fixture spec takes no arguments: {spec!r}")
        return ((f"{family}+{kind}", fixture(family, kind)) for _ in range(1))

    if family in _ONE_ARG:
        what, low, high, make = _ONE_ARG[family]
        if len(args) != 1:
            raise InvalidSpec(f"{family} spec needs one {what} argument: {spec!r}")
        k = _int_arg(args[0], spec, f"{family} {what}", low, high)
        if kind == "ring":
            return ((f"divisor:{k}+ring", ideal_lattice_zn(k))
                    for _ in range(1))
        return ((f"{family}:{k}+{kind}", attach_multiplication(make(k), kind))
                for _ in range(1))

    if len(args) != 1 or "x" not in args[0]:
        raise InvalidSpec(f"random spec must look like random:CxS: {spec!r}")
    count_s, size_s = args[0].split("x", 1)
    count = _int_arg(count_s, spec, "random count", 1)
    size = _int_arg(size_s, spec, "random size", MIN_RANDOM_SIZE,
                    MAX_RANDOM_SIZE)
    first = seed * 1_000_003
    return ((f"random:seed={s},max={size}+{kind}",
             attach_multiplication(random_poset_down_set_lattice(s, size), kind))
            for s in range(first, first + count))


def generate(spec: str, seed: int = 0) -> list[tuple[str, MultLattice]]:
    """Expand one family spec into (instance_id, MultLattice) pairs.

    The optional trailing ":MULT" field of the spec picks the multiplication
    in place of the family's default.  ``seed`` seeds the random family.
    Raises InvalidSpec (a ValueError) on malformed or out-of-range specs,
    InvalidModulus when Id(Z_n) has more than ``MAX_INPUT_ELEMENTS`` elements,
    and propagates AxiomViolation when a requested multiplication is
    inadmissible on the generated lattice.
    """
    return list(_instances(spec, seed))


@dataclass
class SearchResult:
    """Outcome of a counterexample search run."""

    findings: list[dict] = field(default_factory=list)
    skipped: list[str] = field(default_factory=list)
    analyzed: int = 0


def search_counterexamples(families: list[str], budget: int = 1000,
                           seed: int = 0,
                           solver_budget: float | None = DEFAULT_SOLVER_BUDGET
                           ) -> SearchResult:
    """Analyze generated instances and collect every chi != omega finding.

    Every spec is checked first, so a malformed one raises InvalidSpec
    before any analysis.  Instances are then built and analyzed one at a
    time, in config order, up to ``budget`` many: an instance past the
    budget is never built, so its multiplication is never checked.  Per-
    instance solver timeouts are skipped and logged.  Findings on graphs of
    at most 12 vertices are re-verified against the brute-force oracles.
    """
    if budget <= 0:
        raise InvalidSpec(f"budget must be positive, got {budget}")
    instances = [_instances(spec, seed) for spec in families]
    result = SearchResult()
    for instance_id, ml in islice(chain.from_iterable(instances), budget):
        report = analyze(ml, instance_id=instance_id,
                         solver_budget=solver_budget)
        result.analyzed += 1
        if report.timed_out:
            result.skipped.append(instance_id)
            continue
        if report.verdict != VERDICT_FAILS:
            continue
        if report.reduced:  # unreachable: analyze() raises first
            raise SelfCheckError(f"{instance_id}: reduced finding escaped")
        verified = None
        if report.vertex_count <= ORACLE_CAP:
            graph = mult_zero_divisor_graph(ml)
            verified = (brute_force_chromatic(graph) == report.chi
                        and brute_force_clique(graph) == report.omega)
            if not verified:
                raise SelfCheckError(
                    f"{instance_id}: solvers disagree with the brute-force "
                    "oracle")
        result.findings.append({
            "instance": instance_id,
            "element_count": report.element_count,
            "vertex_count": report.vertex_count,
            "chi": report.chi,
            "omega": report.omega,
            "reduced": report.reduced,
            "modular": report.modular,
            "oracle_verified": verified,
        })
    return result
