"""The ideal lattice of Z_n as a multiplicative lattice.

The ideals of Z_n are (d) = dZ_n for the divisors d of n, ordered by reverse
divisibility; join is gcd, meet is lcm, and the ideal product is
(d1)(d2) = (gcd(d1*d2, n)).  The annihilating-ideal graph of Z_n is then the
multiplicative-sense zero-divisor graph of this lattice at the zero ideal.

The order-theoretic tables are built by the generic lattice machinery and
must agree with the arithmetic ones; any disagreement or axiom violation here
is an implementation bug and raises SelfCheckError loudly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidModulus, SelfCheckError
from .lattice import Lattice, build_lattice, is_modular
from .multiplication import MultLattice, attach_multiplication


def divisors_of(n: int) -> list[int]:
    small = []
    large = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def is_squarefree(n: int) -> bool:
    d = 2
    while d * d <= n:
        if n % (d * d) == 0:
            return False
        if n % d == 0:
            n //= d
        d += 1
    return True


def prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


@dataclass(frozen=True)
class ZnIdealLattice:
    """The multiplicative lattice of ideals of Z_n."""

    n: int
    divisors: tuple[int, ...]
    embedded: MultLattice

    @property
    def lattice(self) -> Lattice:
        return self.embedded.lattice

    def element_of(self, d: int) -> int:
        """Index of the ideal generated by divisor d."""
        return self.divisors.index(d)


def ideal_lattice_zn(n: int) -> ZnIdealLattice:
    """Build Id(Z_n) with full axiom validation.

    Elements are named "(d)" for each divisor d of n, in ascending divisor
    order, so the whole ring (1) is the top and the zero ideal (n) is the
    bottom.  Products are computed in unbounded integers.
    """
    if not isinstance(n, int) or n < 2:
        raise InvalidModulus(f"modulus must be an integer >= 2, got {n!r}")
    divs = divisors_of(n)
    names = tuple([f"({d})" for d in divs])
    pairs = [(f"({d1})", f"({d2})")
             for d1 in divs for d2 in divs if d1 % d2 == 0]
    lat = build_lattice(names, pairs, "leq")

    # Cross-check the generic order tables against divisor arithmetic.
    for i, d1 in enumerate(divs):
        for j, d2 in enumerate(divs):
            if divs[lat.meet[i][j]] != math.lcm(d1, d2):
                raise SelfCheckError(f"meet table of Id(Z_{n}) is not lcm")
            if divs[lat.join[i][j]] != math.gcd(d1, d2):
                raise SelfCheckError(f"join table of Id(Z_{n}) is not gcd")

    table = [[f"({math.gcd(d1 * d2, n)})" for d2 in divs] for d1 in divs]
    ml = attach_multiplication(lat, "table", table)
    if not is_modular(lat):
        raise SelfCheckError(f"Id(Z_{n}) reports non-modular; divisor lattices "
                             "are distributive")
    return ZnIdealLattice(n, tuple(divs), ml)


def analyze_ring(n: int, solver_budget: float | None = None):
    """Full analysis of the annihilating-ideal graph of Z_n.

    Returns the standard report for the zero-divisor graph of Id(Z_n) at the
    zero ideal.  For squarefree n the lattice is reduced and the verdict is
    guaranteed; for other n the values are reported without any claim.
    """
    from .report import analyze  # local import to avoid a cycle

    zn = ideal_lattice_zn(n)
    kwargs = {}
    if solver_budget is not None:
        kwargs["solver_budget"] = solver_budget
    return analyze(zn.embedded, instance_id=f"ring:{n}", **kwargs)
