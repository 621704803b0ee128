"""The ideal lattice of Z_n as a multiplicative lattice.

The ideals of Z_n are (d) = dZ_n for the divisors d of n, ordered by reverse
divisibility; join is gcd, meet is lcm, and the ideal product is
(d1)(d2) = (gcd(d1*d2, n)).  The annihilating-ideal graph of Z_n is then the
multiplicative-sense zero-divisor graph of this lattice at the zero ideal.

The order-theoretic tables are built by the generic lattice machinery and
must agree with the arithmetic ones; any disagreement or axiom violation here
is an implementation bug and raises SelfCheckError loudly.

Two identities keep the arithmetic cheap without dropping an entry from it.

* The product is associative, so for a prime p and divisors d, x of n,
  gcd(p*gcd(d*x, n), n) = gcd(p*d*x, p*n, n) = gcd(p*d*x, n): row (d*p) is
  row (p) read at the entries of row (d).  Only the rows of (1) and of the
  primes are computed with gcd; the others are composed along the cover
  pairs, which list every d > 1 as d'*p with d' < d.
* For a, b dividing n, lcm(a, b) = n / gcd(n/a, n/b), and d -> n/d reverses
  the ascending divisor list: ``divs[k-1-i] == n // divs[i]``.  So once
  every join entry is gcd, ``meet[i][j] == k-1-join[k-1-i][k-1-j]`` holds
  exactly when the meet entry is lcm.  Every join row is checked against
  gcd before any meet row is checked against it.
"""
from __future__ import annotations

import math
from operator import itemgetter

from .errors import InvalidModulus, SelfCheckError
from .lattice import MAX_INPUT_ELEMENTS, build_lattice, is_modular
from .multiplication import MultLattice, _checked
from .report import BeckReport, analyze
from .solvers import DEFAULT_SOLVER_BUDGET


def prime_factorization(n: int) -> list[tuple[int, int]]:
    """n's primes p, ascending, as pairs (p, e) with exponent e >= 1.  Trial
    division stops at the square root of what is left of n."""
    pairs = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            pairs.append((p, e))
        p += 1
    if n > 1:
        pairs.append((n, 1))
    return pairs


def _divisors(factorization: list[tuple[int, int]]) -> list[int]:
    divs = [1]
    for p, e in factorization:
        divs += [d * p**i for i in range(1, e + 1) for d in divs]
    return sorted(divs)


#: The largest modulus ``ideal_lattice_zn`` accepts.  A prime near it is the
#: slowest to factorise: 10**6 trial divisions, 0.09-0.10 s (2-core Xeon).
MAX_MODULUS = 10**12


def ideal_lattice_zn(n: int) -> MultLattice:
    """Build Id(Z_n) as a ``MultLattice``, with full axiom validation.

    Element i is named "(d)" for the i-th divisor d of n, ascending, so the
    whole ring (1) is the top and the zero ideal (n) is the bottom.  The
    order is built from its cover pairs, (d*p) below (d) for each prime p
    dividing n/d.  Its join is checked against gcd entry by entry and its
    meet against the join through d -> n/d.  The product table is composed
    from the prime rows along the cover pairs, row (d*p) being
    ``itemgetter(*row(d))(row(p))`` (module docstring for both proofs), and
    goes to the full axiom check as an index table, with no round trip
    through the element names.

    Raises InvalidModulus, before anything is built, for n < 2, for
    n > ``MAX_MODULUS`` and for an n with more than ``MAX_INPUT_ELEMENTS``
    divisors, counted off its ``prime_factorization`` before any is listed.
    """
    if not isinstance(n, int) or n < 2:
        raise InvalidModulus(f"modulus must be an integer >= 2, got {n!r}")
    if n > MAX_MODULUS:
        raise InvalidModulus(f"modulus must be at most {MAX_MODULUS}, got {n}")
    factorization = prime_factorization(n)
    k = math.prod([e + 1 for _, e in factorization])
    if k > MAX_INPUT_ELEMENTS:
        raise InvalidModulus(f"Id(Z_{n}) has {k} elements; at most "
                             f"{MAX_INPUT_ELEMENTS} are accepted")
    divs = _divisors(factorization)
    primes = [p for p, _ in factorization]
    names = tuple([f"({d})" for d in divs])
    position = {d: i for i, d in enumerate(divs)}
    # (d) covers (d*p) exactly for the primes p dividing n/d.
    covers = [(i, p, position[d * p])
              for i, d in enumerate(divs) for p in primes if n // d % p == 0]
    lat = build_lattice(names, [(names[c], names[i]) for i, _, c in covers],
                        "covers")

    # Cross-check the generic order tables against divisor arithmetic: the
    # join against gcd, then the meet through d -> n/d against the join.
    top = k - 1
    join = lat.join
    for d1, row in zip(divs, join):
        if [divs[j] for j in row] != [math.gcd(d1, d2) for d2 in divs]:
            raise SelfCheckError(f"join table of Id(Z_{n}) is not gcd")
    for row, dual in zip(lat.meet, reversed(join)):
        if [*row] != [top - j for j in reversed(dual)]:
            raise SelfCheckError(f"meet table of Id(Z_{n}) is not lcm")

    # Row (1) is the identity and the prime rows are gcds; every other row
    # (d*p) is row (p) read at the entries of row (d), in ascending d.
    rows: list[tuple[int, ...] | None] = [None] * k
    rows[0] = tuple(range(k))
    for p in primes:
        rows[position[p]] = tuple([position[math.gcd(p * d, n)] for d in divs])
    for i, p, c in covers:
        if rows[c] is None:
            rows[c] = itemgetter(*rows[i])(rows[position[p]])
    product = tuple(rows)
    ml = _checked(lat, product)
    if not is_modular(lat):
        raise SelfCheckError(f"Id(Z_{n}) reports non-modular; divisor lattices "
                             "are distributive")
    return ml


def analyze_ring(n: int, solver_budget: float | None = DEFAULT_SOLVER_BUDGET
                 ) -> BeckReport:
    """Full analysis of the annihilating-ideal graph of Z_n.

    Returns the standard report for the zero-divisor graph of Id(Z_n) at the
    zero ideal.  For squarefree n the lattice is reduced and the verdict is
    guaranteed; for other n the values are reported without any claim.
    ``solver_budget`` is passed to ``analyze`` as it is: None means no limit.
    """
    return analyze(ideal_lattice_zn(n), instance_id=f"ring:{n}",
                   solver_budget=solver_budget)
