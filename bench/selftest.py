"""Show that the output checks are not vacuous.

Every workload's check gets the program's own output on its shortened
inputs, which must pass, and then that output changed in one place, once for
each kind of wrong answer: a colouring that gives two adjacent vertices one
colour, a clique witness with a non-edge, chi one too high, a wrong minimal
prime semi-ideal count, and a perturbed lattice file that was accepted.  Each
changed output must be counted as failed, by the check meant to catch it.
"""
from __future__ import annotations

import copy
import json
import os
import shutil
import sys

import child
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
WORK = os.path.join(os.path.dirname(HERE), ".bench_work")


def outputs(M, wl: workloads.Workload) -> list:
    """The program's output on every item, as the checks receive it."""
    ops, serialize = child.prepare(M, wl.name, wl.items)
    return [json.loads(json.dumps(serialize(op()))) for op in ops]


def graph_mutants(omega, clique, chi, coloring) -> dict:
    """Wrong answers built from a right (omega, clique, chi, coloring).

    ``coloring`` maps vertex to colour.  Two clique members are adjacent,
    and two vertices of one colour are not, so a clique member's colour twin
    in place of another member gives a witness with a non-edge.
    """
    a, b = clique[0], clique[1]
    clash = dict(coloring)
    clash[b] = clash[a]
    mutants = {"two adjacent vertices one colour": (omega, clique, chi, clash),
               "chi": (omega, clique, chi + 1, coloring)}
    for k, a in enumerate(clique):
        twins = [v for v, c in coloring.items() if c == coloring[a] and v != a]
        if twins:
            other = 1 if k == 0 else 0
            wrong = clique[:other] + [twins[0]] + clique[other + 1:]
            mutants["non-edge"] = (omega, wrong, chi, coloring)
            break
    return mutants


def report_mutants(text: str) -> dict[str, str]:
    r = json.loads(text)
    mutants = {}
    for expect, (omega, clique, chi, coloring) in graph_mutants(
            r["omega"], r["clique"], r["chi"], r["coloring"]).items():
        m = copy.deepcopy(r)
        m.update(omega=omega, clique=clique, chi=chi, coloring=coloring)
        mutants[expect] = json.dumps(m)
    m = copy.deepcopy(r)
    m["counts"]["minimal_prime_semi_ideals"] += 1
    mutants["minimal_prime_semi_ideals count"] = json.dumps(m)
    return mutants


def solver_mutants(out: dict) -> dict[str, dict]:
    coloring = {v: c for v, c in out["coloring"]}
    mutants = {}
    for expect, (omega, clique, chi, col) in graph_mutants(
            out["omega"], out["clique"], out["chi"], coloring).items():
        mutants[expect] = {"omega": omega, "clique": clique, "chi": chi,
                           "coloring": sorted(col.items())}
    return mutants


def run_checks(wl, outs, mutate, pick) -> list[str]:
    """Right answers must pass; each mutant must fail as expected."""
    errors = []
    tried: dict[str, int] = {}
    for item, out in enumerate(outs):
        problems = wl.check(item, out)
        if problems:
            errors.append(f"{wl.name} {wl.labels[item]}: right answer failed: "
                          f"{problems}")
            continue
        if not pick(item, out):
            continue
        for expect, wrong in mutate(item, out).items():
            tried[expect] = tried.get(expect, 0) + 1
            problems = wl.check(item, wrong)
            if not any(expect in p for p in problems):
                errors.append(f"{wl.name} {wl.labels[item]}: wrong answer "
                              f"({expect}) not caught: {problems}")
    print(f"self-test: {wl.name}: wrong answers tried and caught: {tried}",
          file=sys.stderr)
    return errors


def main(seed: int = 1) -> int:
    import multlat as M

    errors = []
    for name in ("ring-sweep", "large-analyze"):
        wl = workloads.make(name, seed, "", smoke=True)
        outs = outputs(M, wl)
        errors += run_checks(wl, outs, lambda item, out: report_mutants(out),
                             lambda item, out: json.loads(out)["omega"] >= 2)

    wl = workloads.make("solver-graphs", seed, "", smoke=True)
    errors += run_checks(wl, outputs(M, wl),
                         lambda item, out: solver_mutants(out),
                         lambda item, out: True)

    workdir = os.path.join(WORK, f"selftest-{os.getpid()}")
    os.makedirs(workdir)
    try:
        wl = workloads.make("validate-wide", seed, workdir, smoke=True)
        outs = outputs(M, wl)
        # Items come in pairs: a valid file, then its perturbed copy.  The
        # perturbed copy's check gets the valid file's accepted tables.
        errors += run_checks(
            wl, outs,
            lambda item, out: {"perturbed file was accepted": outs[item - 1]},
            lambda item, out: item % 2 == 1)
        errors += run_checks(
            wl, outs,
            lambda item, out: {"meet table": dict(
                out, meet=[row[::-1] for row in out["meet"]])},
            lambda item, out: item % 2 == 0)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not os.listdir(WORK):
            os.rmdir(WORK)

    for error in errors:
        print(f"self-test: {error}", file=sys.stderr)
    print(json.dumps({"self_test": "fail" if errors else "pass"}))
    return 1 if errors else 0
