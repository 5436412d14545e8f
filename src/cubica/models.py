"""Cubic extension models of K = k(x) and ramification reports.

A model is pure (y^3 = beta) or impure (y^3 = 3c y + alpha, c != 0).  The
degenerate constant cases (beta a constant cube class, alpha a constant) are
rejected lazily by the analyzer, which is where they become visible.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dfield

from .algebra import Element, FieldError, RationalFunction


@dataclass(frozen=True)
class CubicModel:
    kind: str                      # "pure" | "impure"
    base: object                   # coefficient field of k
    beta: RationalFunction = None  # pure: y^3 = beta
    c: Element = None              # impure: y^3 = 3c y + alpha
    alpha: RationalFunction = None
    # irreducible polynomials the analyzer divides out before it factors;
    # they never change an answer, so equality, hashing, repr and the JSON
    # encoders ignore them
    hints: tuple = dfield(default=None, compare=False, repr=False)

    @staticmethod
    def pure(beta: RationalFunction) -> "CubicModel":
        if beta.is_zero():
            raise FieldError("y^3 = 0 is not a field extension")
        return CubicModel(kind="pure", base=beta.field, beta=beta)

    @staticmethod
    def impure(c: Element, alpha: RationalFunction, hints=None) -> "CubicModel":
        if c.is_zero():
            raise FieldError("impure model needs c != 0")
        if alpha.field != c.field:
            raise FieldError("alpha and c over different fields")
        return CubicModel(kind="impure", base=alpha.field, c=c, alpha=alpha,
                          hints=hints)

    def __repr__(self):
        if self.kind == "pure":
            return f"y^3 = {self.beta!r}"
        return f"y^3 = 3*{self.c!r}*y + {self.alpha!r}"


@dataclass
class RamificationReport:
    total: list            # places with ramification index 3
    partial: list          # places with one double point in the fibre
    genus: int
    metadata: dict = dfield(default_factory=dict)

    def total_degree(self):
        return sum(p.degree for p in self.total)

    def partial_degree(self):
        return sum(p.degree for p in self.partial)

    def signature(self):
        return (f"3^{self.total_degree()}"
                + (f" 2^{self.partial_degree()}" if self.partial else "")
                + f", g={self.genus}")

    def total_set(self):
        return set(self.total)

    def partial_set(self):
        return set(self.partial)


def sorted_places(places) -> list:
    return sorted(places, key=lambda p: p.sort_key())
