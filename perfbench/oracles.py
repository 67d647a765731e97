"""Oracles for the benchmark's operations, independent of the code they check.

Each operation's JSON report is checked section by section. A check either
finds a wrong value (the operation is unsound) or a missing flat class (the
operation is incomplete). The benchmark keeps the two apart: a missing class
lowers `class_recall` and counts the operation as failed, while any wrong
value also makes the run's `correct` flag false.

Sources of truth:
- Lens(p, q): the SU(2) classes of Z/p are the characters k = 0..p//2,
  with traces 2 cos(2 pi k / p).
- Brieskorn spheres: #irreducible classes = 2|lambda| (Fintushel-Stern 1990)
  with lambda = sigma/8 (Neumann-Wahl 1990), sigma from Brieskorn's
  lattice-point count in exact Fraction arithmetic; the only reducible class
  is the trivial one.
- Sigma(2,3,5) as <s, t | s^b = t^c = (st)^a>: the irreducible classes are
  the spherical triangles with side angles k pi/b, l pi/c, m pi/a, the three
  central values agreeing.
- Torsion: the singular-value route `sv_torsion_oracle` on a twisted complex
  built from the exact class that the reported trace coordinates match.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

TRACE_TOL = 1e-6
FD_AGREEMENT_MAX = 1e-5
GV_MAX = 1e-8
INTEGRABILITY_MAX = 1e-6
TORSION_RTOL = 1e-8


@dataclass
class Verdict:
    """Outcome of checking one operation's report."""

    found: int = 0
    expected: int = 0
    errors: list = field(default_factory=list)   # wrong values
    missing: list = field(default_factory=list)  # classes the solver did not find


def brieskorn_sigma(p: int, q: int, r: int) -> int:
    """Signature of the Milnor fibre of x^p + y^q + z^r (Brieskorn 1966)."""
    plus = minus = 0
    for i, j, k in itertools.product(range(1, p), range(1, q), range(1, r)):
        s = (Fraction(i, p) + Fraction(j, q) + Fraction(k, r)) % 2
        if 0 < s < 1:
            plus += 1
        elif 1 < s < 2:
            minus += 1
    return plus - minus


def brieskorn_irreducible_count(p: int, q: int, r: int) -> int:
    """2|lambda| with lambda = sigma/8."""
    lam = Fraction(brieskorn_sigma(p, q, r), 8)
    if lam.denominator != 1:
        raise ValueError(f"sigma/8 is not an integer for ({p},{q},{r})")
    return 2 * abs(int(lam))


def triangle_group_irreducibles(a: int, b: int, c: int):
    """Exact (tr s, tr t, tr st) of the irreducible SU(2) classes of
    <s, t | s^b = t^c = (st)^a>.

    s, t, st have rotation angles alpha = k pi/b, beta = l pi/c,
    gamma = m pi/a; s^b = (-1)^k etc. must agree, and s, t fail to commute
    exactly when the spherical triangle inequalities are strict.
    """
    out = []
    for k, l, m in itertools.product(range(1, b), range(1, c), range(1, a)):
        if not (k % 2 == l % 2 == m % 2):
            continue
        al, be, ga = k * math.pi / b, l * math.pi / c, m * math.pi / a
        if abs(al - be) < ga < min(al + be, 2 * math.pi - al - be):
            out.append((2 * math.cos(al), 2 * math.cos(be), 2 * math.cos(ga)))
    return out


def _two_generator_exponents(relators):
    """(a, b, c) of the relators s^b t^-c and (st)^a s^-b, or None."""
    if len(relators) != 2:
        return None
    r1, r2 = relators
    if len(r1) != 2 or r1[0][0] != 0 or r1[1][0] != 1 or r1[0][1] <= 0 or r1[1][1] >= 0:
        return None
    b, c = r1[0][1], -r1[1][1]
    a = sum(1 for g, e in r2 if g == 1 and e == 1)
    if r2 != tuple([(0, 1), (1, 1)] * a + [(0, -b)]):
        return None
    return a, b, c


def _match(found, exact, tol=TRACE_TOL):
    """Split found coordinate tuples into (unmatched found, unmatched exact)."""
    exact = [np.asarray(e, dtype=float) for e in exact]
    left = list(exact)
    extra = []
    for f in found:
        f = np.asarray(f, dtype=float)
        hit = next((i for i, e in enumerate(left) if e.shape == f.shape and np.max(np.abs(e - f)) < tol), None)
        if hit is None:
            extra.append(f.tolist())
        else:
            left.pop(hit)
    return extra, [e.tolist() for e in left]


def rep_from_traces(coords):
    """A representative (g, 4) quaternion array for 1- or 2-generator trace
    coordinates [tr x] or [tr s, tr t, tr st]."""
    coords = [float(x) for x in coords]
    al = math.acos(max(-1.0, min(1.0, coords[0] / 2)))
    s = np.array([math.cos(al), 0.0, 0.0, math.sin(al)])
    if len(coords) == 1:
        return s[None, :]
    be = math.acos(max(-1.0, min(1.0, coords[1] / 2)))
    denom = math.sin(al) * math.sin(be)
    # Re(st) = cos al cos be - sin al sin be u_d for t's axis u
    u_d = 1.0 if abs(denom) < 1e-12 else (math.cos(al) * math.cos(be) - coords[2] / 2) / denom
    u_d = max(-1.0, min(1.0, u_d))
    t = np.array([math.cos(be), math.sin(be) * math.sqrt(1.0 - u_d**2), 0.0, math.sin(be) * u_d])
    return np.stack([s, t])


def _torsion_errors(family, params, per_class, exact):
    """Reported log T per class against `sv_torsion_oracle`, on a complex built
    from the exact class that the reported trace coordinates match."""
    from taut3.su2reps import Su2Element, Su2Rep
    from taut3.twisted_torsion import build_twisted_complex, cw_structure, sv_torsion_oracle

    cw = cw_structure(family, *params)
    errors = []
    for entry in per_class:
        coords = entry["trace_coordinates"]
        hit = [e for e in exact if np.max(np.abs(np.subtract(e, coords))) < TRACE_TOL]
        if not hit:
            errors.append(f"torsion reported for traces {coords}, not a flat class")
            continue
        images = rep_from_traces(hit[0])
        rep = Su2Rep(
            generator_images=tuple(Su2Element.from_array(q) for q in images),
            trace_coords=np.asarray(hit[0], dtype=float),
            irreducible=False,
            residual=0.0,
        )
        want = sv_torsion_oracle(build_twisted_complex(cw, rep))
        got = entry["log_t"]
        if not abs(got - want) <= TORSION_RTOL * max(1.0, abs(want)):
            errors.append(f"torsion log_t {got!r} != oracle {want!r} at traces {coords}")
    return errors


def _expected_classes(family, params, presentation):
    """(expected trace tuples or None, expected irreducible count, expected reducible count)."""
    if family == "Lens":
        p = params[0]
        exact = [(2 * math.cos(2 * math.pi * k / p),) for k in range(p // 2 + 1)]
        return exact, 0, len(exact)
    if family == "Brieskorn":
        n_irr = brieskorn_irreducible_count(*params)
        abc = _two_generator_exponents(presentation.relators)
        exact = None
        if abc is not None:
            exact = [(2.0, 2.0, 2.0)] + triangle_group_irreducibles(*abc)
            if len(exact) - 1 != n_irr:
                raise AssertionError(f"oracles disagree for Brieskorn{tuple(params)}")
        return exact, n_irr, 1
    raise ValueError(f"no class oracle for family {family!r}")


def check_reps(verdict: Verdict, exact, n_irr, n_red, values):
    """Count expected and genuinely found classes; a spurious class is an error."""
    coords = values["trace_coordinates"]
    verdict.expected += n_irr + n_red
    if values["class_count"] != len(coords):
        verdict.errors.append("class_count disagrees with the listed classes")
    if exact is not None:
        extra, missing = _match(coords, exact)
        verdict.errors.extend(f"class with traces {e} is not a flat class" for e in extra)
        verdict.missing.extend(f"class with traces {m}" for m in missing)
        verdict.found += len(exact) - len(missing)
        return
    reducible = [c for c in coords if np.max(np.abs(np.asarray(c) - 2.0)) < TRACE_TOL]
    irr = values["irreducible_count"]
    if irr + len(reducible) != len(coords):
        verdict.errors.append("a reducible class has a trace other than 2")
    if irr > n_irr or len(reducible) > n_red:
        verdict.errors.append(
            f"{irr} irreducible / {len(reducible)} reducible classes exceed the "
            f"oracle's {n_irr} / {n_red}"
        )
    verdict.found += min(irr, n_irr) + min(len(reducible), n_red)
    if irr < n_irr:
        verdict.missing.append(f"{n_irr - irr} of {n_irr} irreducible classes")
    if len(reducible) < n_red:
        verdict.missing.append("the trivial class")


def check_report(body: dict, manifest: dict) -> Verdict:
    """Check every section of a report body against the oracles."""
    from taut3.presentations import builtin_presentation

    verdict = Verdict()
    family = manifest["manifold"]["family"]
    params = tuple(manifest["manifold"].get("params", ()))
    sections = body["sections"]
    exact, n_irr, n_red = _expected_classes(
        family, params, builtin_presentation(family, *params)
    )

    if "reps" in sections:
        check_reps(verdict, exact, n_irr, n_red, sections["reps"]["values"])

    tor = sections.get("torsion", {}).get("values")
    if tor and exact is not None:
        verdict.errors.extend(_torsion_errors(family, params, tor["per_class"], exact))

    cas = sections.get("casson", {}).get("values")
    if cas and family == "Brieskorn":
        want = brieskorn_irreducible_count(*params)
        if cas["unsigned_count"] != want:
            verdict.errors.append(f"casson unsigned_count {cas['unsigned_count']} != {want}")

    cs = sections.get("chern_simons", {}).get("values")
    if cs:
        if not cs["fd_agreement"] < FD_AGREEMENT_MAX:
            verdict.errors.append(f"chern_simons fd_agreement {cs['fd_agreement']!r}")
        if cs["flat_connection_grad_norm"] != 0.0:
            verdict.errors.append(f"flat connection gradient {cs['flat_connection_grad_norm']!r}")

    gv = sections.get("godbillon_vey", {}).get("values")
    if gv and gv.get("per_foliation"):
        if not abs(gv["total"]) < GV_MAX:
            verdict.errors.append(f"GV total {gv['total']!r}")
        for row in gv["per_foliation"]:
            if row["taut"] is not True:
                verdict.errors.append(f"foliation {row['label']} not taut")
            elif not abs(row["gv"]) < GV_MAX:
                verdict.errors.append(f"foliation {row['label']} GV {row['gv']!r}")
        for res in gv["integrability_residuals"]:
            if not res < INTEGRABILITY_MAX:
                verdict.errors.append(f"integrability residual {res!r}")
    return verdict
