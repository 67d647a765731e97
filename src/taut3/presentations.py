"""Finite presentations of fundamental groups for the built-in manifold families.

Words are stored as tuples of (generator index, nonzero exponent) runs, always
reduced.  This makes free differential calculus (see taut3.twisted_torsion)
direct and keeps homology computations exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

Word = tuple  # tuple of (gen, exp) pairs


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


def invert_word(w: Word) -> Word:
    return tuple((g, -e) for g, e in reversed(w))


def concat_words(*ws) -> Word:
    pairs = []
    for w in ws:
        pairs.extend(w)
    return reduce_word(pairs)


def word_power(w: Word, n: int) -> Word:
    if n < 0:
        return word_power(invert_word(w), -n)
    return concat_words(*([w] * n))


def gen(g: int, e: int = 1) -> Word:
    return reduce_word([(g, e)])


@dataclass(frozen=True)
class GroupPresentation:
    num_generators: int
    relators: tuple
    label: str = ""

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

    @cached_property
    def h1(self) -> HomologySummary:
        """H_1 of the presented group, computed on first read."""
        return homology_h1(self)

    def exponent_matrix(self):
        """Abelianized relation matrix (a sympy Matrix), one row per relator."""
        import sympy  # imported on first use: most commands never need it

        m = sympy.zeros(len(self.relators), self.num_generators)
        for i, r in enumerate(self.relators):
            for g, e in r:
                m[i, g] += e
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


def homology_h1(p: GroupPresentation) -> HomologySummary:
    """H_1 of the presented group: Smith normal form of the exponent-sum matrix."""
    from sympy.matrices.normalforms import smith_normal_form

    m = p.exponent_matrix()
    if len(p.relators) == 0:
        return HomologySummary(p.num_generators, ())
    snf = smith_normal_form(m)
    factors = [abs(snf[i, i]) for i in range(min(snf.shape)) if snf[i, i] != 0]
    rank = len(factors)
    torsion = tuple(int(f) for f in factors if f > 1)
    return HomologySummary(p.num_generators - rank, torsion)


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
        return GroupPresentation(2, (r1, r2), label=f"Brieskorn({p},{q},{r})")
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
    return GroupPresentation(4, tuple(relators), label=f"Brieskorn({p},{q},{r})")


def builtin_presentation(family: str, *params) -> GroupPresentation:
    """Presentations of pi_1 for the built-in families.

    family: "S3", "Lens" (p, q), "Brieskorn" (p, q, r), "Torus3".
    """
    if family in ("S3", "Torus3") and params:
        raise ParameterError(f"{family} takes no parameters")
    if family == "S3":
        return GroupPresentation(1, (gen(0),), label="S3")
    if family == "Lens":
        if len(params) != 2:
            raise ParameterError("Lens takes (p, q)")
        p, q = params
        if p < 2 or math.gcd(p, q) != 1:
            raise ParameterError(f"Lens({p},{q}): need p >= 2 and gcd(p, q) = 1")
        return GroupPresentation(1, (gen(0, p),), label=f"Lens({p},{q})")
    if family == "Brieskorn":
        if len(params) != 3:
            raise ParameterError("Brieskorn takes (p, q, r)")
        p, q, r = params
        if min(p, q, r) < 2 or not _pairwise_coprime((p, q, r)):
            raise ParameterError(f"Brieskorn({p},{q},{r}): need pairwise coprime, each >= 2")
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
        return GroupPresentation(3, relators, label="Torus3")
    raise ParameterError(f"unknown family {family!r}")
