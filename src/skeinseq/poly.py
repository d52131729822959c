"""Polynomials over F2 in named variables, stored as sets of monomials.

A variable stands for either a square-root indeterminate (unit HALF, one
power drops the homological grading by 1) or a full indeterminate (unit
FULL, one power drops it by 2).  Coefficients live in F2, so a polynomial
is just the set of monomials with coefficient 1 and addition is symmetric
difference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

HALF = 1
FULL = 2

Monomial = tuple[int, ...]


@dataclass(frozen=True)
class VarSet:
    """An ordered universe of variable names with their units."""

    names: tuple[str, ...]
    units: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.names) != len(set(self.names)):
            raise ValueError("duplicate variable names: %r" % (self.names,))
        if len(self.names) != len(self.units):
            raise ValueError("names/units length mismatch")
        for u in self.units:
            if u not in (HALF, FULL):
                raise ValueError("unit must be HALF (U^1/2) or FULL (U): %r" % (u,))

    @property
    def n(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError("unknown variable %r" % (name,)) from None

    def h_drop(self, mono: Monomial) -> int:
        """Homological drop of a monomial: unit weight per power."""
        return sum(e * u for e, u in zip(mono, self.units))

    def alex2(self, mono: Monomial) -> int:
        """Mod-2 Alexander weight (half-unit powers count, full ones do not)."""
        return sum(e * (u % 2) for e, u in zip(mono, self.units)) % 2


@dataclass(frozen=True)
class Poly:
    """An element of F2[variables]; terms is the set of monomials present."""

    vars: VarSet
    terms: frozenset[Monomial]

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(vs: VarSet) -> "Poly":
        return Poly(vs, frozenset())

    @staticmethod
    def one(vs: VarSet) -> "Poly":
        return Poly(vs, frozenset({(0,) * vs.n}))

    @staticmethod
    def var(vs: VarSet, name: str, power: int = 1) -> "Poly":
        mono = [0] * vs.n
        mono[vs.index(name)] = power
        return Poly(vs, frozenset({tuple(mono)}))

    @staticmethod
    def monomial(vs: VarSet, exps: Mapping[str, int]) -> "Poly":
        mono = [0] * vs.n
        for name, e in exps.items():
            if e < 0:
                raise ValueError("negative exponent")
            mono[vs.index(name)] += e
        return Poly(vs, frozenset({tuple(mono)}))

    # -- ring structure ----------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __add__(self, other: "Poly") -> "Poly":
        self._same_universe(other)
        return Poly(self.vars, self.terms ^ other.terms)

    def __mul__(self, other: "Poly") -> "Poly":
        self._same_universe(other)
        acc: set[Monomial] = set()
        for m1 in self.terms:
            for m2 in other.terms:
                m = tuple(a + b for a, b in zip(m1, m2))
                acc.symmetric_difference_update({m})
        return Poly(self.vars, frozenset(acc))

    def _same_universe(self, other: "Poly") -> None:
        if self.vars != other.vars:
            raise ValueError("polynomials over different variable universes")

    # -- calculus and substitution ------------------------------------------

    def derivative(self, name: str) -> "Poly":
        """Formal d/d(name) over F2: odd exponents survive with one power less."""
        i = self.vars.index(name)
        acc: set[Monomial] = set()
        for m in self.terms:
            if m[i] % 2 == 1:
                mm = list(m)
                mm[i] -= 1
                acc.symmetric_difference_update({tuple(mm)})
        return Poly(self.vars, frozenset(acc))

    def map_vars(self, target: VarSet, assignment: Mapping[str, str]) -> "Poly":
        """Substitute variables by variables of `target` (units must match)."""
        idx: list[int] = []
        for name, unit in zip(self.vars.names, self.vars.units):
            new = assignment.get(name, name)
            j = target.index(new)
            if target.units[j] != unit:
                raise ValueError("unit mismatch substituting %r -> %r" % (name, new))
            idx.append(j)
        acc: set[Monomial] = set()
        for m in self.terms:
            mm = [0] * target.n
            for e, j in zip(m, idx):
                mm[j] += e
            acc.symmetric_difference_update({tuple(mm)})
        return Poly(target, frozenset(acc))

    # -- text form -----------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for m in sorted(self.terms):
            factors = [
                self.vars.names[i] + ("^%d" % e if e > 1 else "")
                for i, e in enumerate(m)
                if e > 0
            ]
            parts.append("*".join(factors) if factors else "1")
        return "+".join(parts)


def parse_poly(vs: VarSet, text: str) -> Poly:
    """Parse '+'-separated monomials, each '*'-separated powers like "z1^2*w2"."""
    text = text.strip()
    if text in ("", "0"):
        return Poly.zero(vs)
    acc = Poly.zero(vs)
    for tpart in text.split("+"):
        tpart = tpart.strip()
        if tpart == "1":
            acc = acc + Poly.one(vs)
            continue
        exps: dict[str, int] = {}
        for factor in tpart.split("*"):
            factor = factor.strip()
            if not factor:
                raise ValueError("empty factor in %r" % (text,))
            if "^" in factor:
                name, _, pw = factor.partition("^")
                e = int(pw)
            else:
                name, e = factor, 1
            if e < 0:
                raise ValueError("negative exponent in %r" % (text,))
            exps[name.strip()] = exps.get(name.strip(), 0) + e
        acc = acc + Poly.monomial(vs, exps)
    return acc
