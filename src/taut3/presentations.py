"""Finite presentations of fundamental groups for the built-in manifold families.

Words are stored as tuples of (generator index, nonzero exponent) runs, always
reduced.  This makes free differential calculus (see taut3.twisted_torsion)
direct and keeps homology computations exact.  Each built-in presentation also
records its shape (`CyclicShape`, `TriangleShape`, `SeifertShape`): the
exponents its relators were built from, which is all that the exact flat
moduli in taut3.su2reps need to know about the relators.  Where a presentation
is the 2-skeleton of a known CW structure (S^3, L(p,q), T^3, Sigma(2,3,5)), it
also carries the boundary of the one 3-cell, written with the relators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

Word = tuple  # tuple of (gen, exp) pairs

# Largest p of Lens(p, q) and p*q*r of Brieskorn(p, q, r), so that no run
# hangs: the flat moduli have p//2 + 1 and about pqr/12 classes, built one by
# one (0.4 s for the 2465 classes of Sigma(29,31,33)).  Relator residuals also
# grow with the exponents: 2e-12 at Sigma(2,3,4999), against a tolerance of 1e-10.
SIZE_BOUND = 30000


class ParameterError(ValueError):
    """Invalid family parameters (non-coprime, out of range...)."""


def reduce_word(pairs) -> Word:
    """Collapse adjacent runs on the same generator and drop zero exponents."""
    out = []
    for g, e in pairs:
        if e == 0:
            continue
        if out and out[-1][0] == g:
            e2 = out[-1][1] + e
            if e2 == 0:
                out.pop()
            else:
                out[-1] = (g, e2)
        else:
            out.append((g, int(e)))
    return tuple((g, e) for g, e in out)


def concat_words(*ws) -> Word:
    pairs = []
    for w in ws:
        pairs.extend(w)
    return reduce_word(pairs)


def word_power(w: Word, n: int) -> Word:
    """w^n for n >= 0."""
    return concat_words(*([w] * n))


def gen(g: int, e: int = 1) -> Word:
    return reduce_word([(g, e)])


@dataclass(frozen=True)
class CyclicShape:
    """<x | x^order>."""

    order: int


@dataclass(frozen=True)
class TriangleShape:
    """<s, t | s^b t^-c, (st)^a s^-b>: s^b = t^c = (st)^a is central."""

    a: int
    b: int
    c: int


@dataclass(frozen=True)
class SeifertShape:
    """<x1, x2, x3, h | [x_i, h], x_i^alpha_i h^beta_i, x1 x2 x3 h^b0>."""

    alphas: tuple
    betas: tuple
    b0: int


@dataclass(frozen=True)
class GroupPresentation:
    """`d3_words`, if known, is the boundary of the one 3-cell: per relator, a
    group-ring element as (coefficient, word) pairs."""

    num_generators: int
    relators: tuple
    label: str = ""
    shape: CyclicShape | TriangleShape | SeifertShape | None = None
    d3_words: tuple | None = None

    def __post_init__(self):
        if self.num_generators < 1:
            raise ParameterError("need at least one generator")
        object.__setattr__(self, "relators", tuple(reduce_word(r) for r in self.relators))
        for r in self.relators:
            for g, e in r:
                if not (0 <= g < self.num_generators):
                    raise ParameterError(f"generator index {g} out of range")
                if e == 0:
                    raise ParameterError("zero exponent in relator")
        if self.d3_words is not None and len(self.d3_words) != len(self.relators):
            raise ParameterError("need one 3-cell boundary word per relator")

    @cached_property
    def h1(self) -> HomologySummary:
        """H_1 of the presented group, computed on first read."""
        return homology_h1(self)

    def exponent_matrix(self) -> list:
        """Abelianized relation matrix: one row of exponent sums per relator."""
        m = [[0] * self.num_generators for _ in self.relators]
        for row, r in zip(m, self.relators):
            for g, e in r:
                row[g] += e
        return m


@dataclass(frozen=True)
class HomologySummary:
    betti_1: int
    torsion_coefficients: tuple

    def __post_init__(self):
        ts = tuple(int(t) for t in self.torsion_coefficients)
        for a, b in zip(ts, ts[1:]):
            if b % a != 0:
                raise ValueError("torsion coefficients must form a divisibility chain")
        object.__setattr__(self, "torsion_coefficients", ts)


def invariant_factors(m) -> list:
    """Nonzero invariant factors of an integer matrix (a list of rows), as a
    divisibility chain: the diagonal of its Smith normal form, up to sign.

    Each step takes the nonzero entry of least absolute value as pivot and
    reduces its column by row operations and its row by column operations
    (Euclid).  Any remainder is a smaller pivot for the next step; once the
    pivot's row and column are clear, both are struck out.  gcd/lcm swaps turn
    the resulting diagonal into a divisibility chain.
    """
    a = [list(row) for row in m]
    factors = []
    while any(map(any, a)):
        _, i, j = min((abs(v), i, j) for i, row in enumerate(a) for j, v in enumerate(row) if v)
        prow, p = a[i], a[i][j]
        for k, row in enumerate(a):
            if k != i and row[j]:
                q = row[j] // p
                a[k] = [x - q * y for x, y in zip(row, prow)]
        for col in range(len(prow)):
            if col != j and prow[col]:
                q = prow[col] // p
                for row in a:
                    row[col] -= q * row[j]
        if any(row[j] for row in a if row is not prow) or any(prow[:j] + prow[j + 1:]):
            continue
        factors.append(abs(p))
        del a[i]
        for row in a:
            del row[j]
    for i in range(len(factors)):
        for j in range(i + 1, len(factors)):
            g = math.gcd(factors[i], factors[j])
            factors[i], factors[j] = g, factors[i] * factors[j] // g
    return factors


def homology_h1(p: GroupPresentation) -> HomologySummary:
    """H_1 of the presented group: Z^(g - rank) plus the invariant factors > 1
    of the exponent-sum matrix."""
    factors = invariant_factors(p.exponent_matrix())
    return HomologySummary(p.num_generators - len(factors), tuple(f for f in factors if f > 1))


def _pairwise_coprime(ns):
    return all(math.gcd(a, b) == 1 for i, a in enumerate(ns) for b in ns[i + 1:])


def _brieskorn_two_generator(p, q, r):
    """Balanced 2-generator presentation <s,t | s^b = t^c = (st)^a>, if one with
    trivial abelianization exists for some assignment of (p, q, r) to (a, b, c)."""
    import itertools

    for a, b, c in itertools.permutations((p, q, r)):
        if abs(a * b + a * c - b * c) != 1:
            continue
        r1 = concat_words(gen(0, b), gen(1, -c))            # s^b t^-c
        st_a = word_power(concat_words(gen(0), gen(1)), a)  # (st)^a
        r2 = concat_words(st_a, gen(0, -b))                 # (st)^a s^-b
        # for (2, 3, 5), the 3-cell boundary (1 - t, s^-1 - t) generates the
        # kernel of d2 over Z[G], |G| = 120 (checked in the tests)
        t, s_inv = gen(1), gen(0, -1)
        d3 = (((1, ()), (-1, t)), ((-1, t), (1, s_inv))) if (a, b, c) == (2, 3, 5) else None
        return GroupPresentation(2, (r1, r2), label=f"Brieskorn({p},{q},{r})",
                                 shape=TriangleShape(a, b, c), d3_words=d3)
    return None


def _brieskorn_seifert(p, q, r):
    """Genus-0 Seifert presentation <x1,x2,x3,h | h central, x_i^a_i h^b_i, x1x2x3 h^b0>
    with the Seifert slopes fixed by requiring trivial H_1."""
    alphas = (p, q, r)
    total = p * q * r
    betas = []
    for a in alphas:
        abar = total // a
        betas.append(pow(abar, -1, a))
    b0 = (sum(b * (total // a) for a, b in zip(alphas, betas)) - 1) // total
    h = 3
    relators = []
    for i in range(3):
        relators.append(concat_words(gen(i), gen(h), gen(i, -1), gen(h, -1)))
    for i, (a, b) in enumerate(zip(alphas, betas)):
        relators.append(concat_words(gen(i, a), gen(h, b)))
    relators.append(concat_words(gen(0), gen(1), gen(2), gen(h, b0)))
    return GroupPresentation(4, tuple(relators), label=f"Brieskorn({p},{q},{r})",
                             shape=SeifertShape(alphas, tuple(betas), b0))


def builtin_presentation(family: str, *params) -> GroupPresentation:
    """Presentations of pi_1 for the built-in families.

    family: "S3", "Lens" (p, q), "Brieskorn" (p, q, r), "Torus3".
    """
    if family in ("S3", "Torus3") and params:
        raise ParameterError(f"{family} takes no parameters")
    if family == "S3":
        return GroupPresentation(1, (gen(0),), label="S3", shape=CyclicShape(1),
                                 d3_words=(((1, gen(0)), (-1, ())),))
    if family == "Lens":
        if len(params) != 2:
            raise ParameterError("Lens takes (p, q)")
        p, q = params
        if p < 2 or math.gcd(p, q) != 1:
            raise ParameterError(f"Lens({p},{q}): need p >= 2 and gcd(p, q) = 1")
        if p > SIZE_BOUND:
            raise ParameterError(f"Lens({p},{q}): need p <= {SIZE_BOUND}")
        d3 = (((1, gen(0, pow(q, -1, p))), (-1, ())),)  # x^qbar - 1, qbar = q^-1 mod p
        return GroupPresentation(1, (gen(0, p),), label=f"Lens({p},{q})", shape=CyclicShape(p),
                                 d3_words=d3)
    if family == "Brieskorn":
        if len(params) != 3:
            raise ParameterError("Brieskorn takes (p, q, r)")
        p, q, r = params
        if min(p, q, r) < 2 or not _pairwise_coprime((p, q, r)):
            raise ParameterError(f"Brieskorn({p},{q},{r}): need pairwise coprime, each >= 2")
        if p * q * r > SIZE_BOUND:
            raise ParameterError(f"Brieskorn({p},{q},{r}): need p*q*r <= {SIZE_BOUND}")
        pres = _brieskorn_two_generator(p, q, r) or _brieskorn_seifert(p, q, r)
        h1 = pres.h1
        if h1.betti_1 != 0 or h1.torsion_coefficients:
            raise AssertionError(f"Brieskorn presentation failed homology-sphere check: {h1}")
        return pres
    if family == "Torus3":
        relators = tuple(
            concat_words(gen(i), gen(j), gen(i, -1), gen(j, -1))
            for i, j in ((0, 1), (0, 2), (1, 2))
        )
        # the 3-cell is the cube, over the relators [x,y], [x,z], [y,z]
        x, y, z = gen(0), gen(1), gen(2)
        d3 = (((1, z), (-1, ())), ((1, ()), (-1, y)), ((1, x), (-1, ())))
        return GroupPresentation(3, relators, label="Torus3", d3_words=d3)
    raise ParameterError(f"unknown family {family!r}")
