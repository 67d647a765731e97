"""Acceptance gate: ten criteria, one printed pass/fail line each.

Each test computes its criterion at the pinned tolerance, prints
  [PASS] criterion N: <summary>   or   [FAIL] criterion N: <summary>
(bypassing pytest capture so the lines always appear), and then asserts.
"""

import json
import math
import time

import numpy as np
import pytest

from su2_oracles import random_unit
from taut3 import cyclic as cyc
from taut3 import su2
from taut3.chern_simons import (
    LatticeConnection,
    action_gradient,
    cs_action,
    curvature,
)
from taut3.cli import main as cli_main
from taut3.foliation_gv import DiscreteForm, FoliationSpec, gv_term
from taut3.presentations import builtin_presentation, concat_words, gen
from taut3.su2reps import enumerate_reps, evaluate_word
from taut3.twisted_torsion import build_twisted_complex, cw_structure, rs_torsion
from taut3.zeta import circle_laplacian_log_det, zeta_log_det
from taut3.leafwise import leafwise_torsion, tangential_laplacian

from test_chern_simons import finite_difference_gradient
from test_foliation_gv import gauge_changed_omega, omega_exp_f
from test_su2reps import brieskorn_235_angle_oracle
from test_twisted_torsion import fox, random_word, reweighted


_capman = None


@pytest.fixture(autouse=True)
def _capture_manager(request):
    global _capman
    _capman = request.config.pluginmanager.getplugin("capturemanager")


def report(num: int, summary: str, ok: bool):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {summary}"
    if _capman is not None:
        with _capman.global_and_fixture_disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="module")
def brieskorn_moduli():
    t0 = time.perf_counter()
    moduli = enumerate_reps(builtin_presentation("Brieskorn", 2, 3, 5))
    return moduli, time.perf_counter() - t0


def test_criterion_1_representation_counts(brieskorn_moduli):
    ok = True
    details = []
    for p in range(2, 13):
        got = len(enumerate_reps(builtin_presentation("Lens", p, 1)).classes)
        want = p // 2 + 1
        ok &= got == want
        if p == 5:
            details.append(f"Lens(5,1)={got}")
    moduli, elapsed = brieskorn_moduli
    irr = [r for r in moduli.classes if r.irreducible]
    oracle = brieskorn_235_angle_oracle()
    found = {
        (round(float(r.trace_coords[0]), 6), round(float(r.trace_coords[1]), 6))
        for r in irr
    }
    ok &= len(irr) == 2 and found == oracle and elapsed < 60.0
    details.append(f"Brieskorn(2,3,5) irreducibles={len(irr)} in {elapsed:.1f}s")
    report(1, "; ".join(details) + " (exact counts, < 60 s)", ok)


def test_criterion_2_fox_calculus():
    """On the production Fox routine, with random unit quaternions as images."""
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(1000):
        u, v = random_word(rng), random_word(rng)
        images = random_unit(rng, (3,))
        lhs = fox(concat_words(u, v), images)
        rhs = fox(u, images) + su2.qmul(evaluate_word(images, u), fox(v, images))
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    x = random_unit(rng, (1,))
    for p in range(1, 21):
        expect = sum(su2.qpow(x[0], k) for k in range(p))
        worst = max(worst, float(np.max(np.abs(fox(gen(0, p), x) - expect))))
    ok = worst < 1e-12
    report(2, f"product rule on 1000 pairs; d(x^p)/dx against sum of powers for p <= 20 "
              f"(worst {worst:.1e} < 1e-12)", ok)


def test_criterion_3_complex_validity(brieskorn_moduli):
    from taut3.su2reps import Su2Element, Su2Rep

    known = {
        ("S3", ()): (1, 0, 0, 1),
        ("Lens", (5, 1)): (1, 0, 0, 1),
        ("Lens", (7, 2)): (1, 0, 0, 1),
        ("Torus3", ()): (1, 3, 3, 1),
        ("Brieskorn", (2, 3, 5)): (1, 0, 0, 1),
    }
    ok = True
    worst = 0.0
    for (family, params), betti in known.items():
        cw = cw_structure(family, *params)
        g = cw.num_generators
        triv = Su2Rep(
            tuple(Su2Element.from_array(su2.IDENTITY) for _ in range(g)),
            np.zeros(1), False, 0.0,
        )
        reps = [triv]
        if family == "Brieskorn":
            reps += list(brieskorn_moduli[0].classes)
        elif family in ("S3", "Lens"):
            reps += list(enumerate_reps(cw).classes)
        for rep in reps:
            c = build_twisted_complex(cw, rep)
            for prod in (c.d1 @ c.d2, c.d2 @ c.d3):
                worst = max(worst, float(np.linalg.norm(prod)))
        ok &= rs_torsion(build_twisted_complex(cw, triv)).betti == tuple(2 * b for b in betti)
    ok &= worst < 1e-10
    report(3, f"D_i D_(i+1) norms < 1e-10 (worst {worst:.1e}); untwisted homology matches", ok)


def test_criterion_4_zeta_determinant():
    rng = np.random.default_rng(5)
    ok = True
    for _ in range(20):
        lam = np.abs(rng.standard_normal(12)) + 0.1
        lam[:3] = 0.0
        ok &= abs(zeta_log_det(lam) - math.log(np.prod(lam[3:]))) < 1e-12
    circle_err = abs(circle_laplacian_log_det() - math.log(4 * math.pi**2))
    ok &= circle_err < 1e-8
    report(4, f"finite products to 1e-12; det'(circle) = 4 pi^2 to 1e-8 (err {circle_err:.1e})", ok)


def test_criterion_5_metric_independence(brieskorn_moduli):
    cw = cw_structure("Brieskorn", 2, 3, 5)
    rep = next(r for r in brieskorn_moduli[0].classes if r.irreducible)
    c = build_twisted_complex(cw, rep)
    base = rs_torsion(c).log_t
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(20):
        weights = []
        for n in c.dims:
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            weights.append(a @ a.conj().T + n * np.eye(n))
        worst = max(worst, abs(rs_torsion(reweighted(c, weights)).log_t - base))
    ok = worst < 1e-8
    report(5, f"acyclic torsion drift over 20 SPD weightings: {worst:.2e} < 1e-8", ok)


def test_criterion_6_chern_simons_stationarity():
    conn = LatticeConnection.random(4, scale=0.2, seed=3)
    g = action_gradient(conn)
    fd = finite_difference_gradient(conn, step=1e-4)
    rel = float(np.linalg.norm(g - fd) / np.linalg.norm(g))
    coeffs = np.zeros((3, 4, 4, 4, 3))
    coeffs[2, ..., 2] = 0.37
    flat = LatticeConnection.from_coefficients(coeffs)
    scale = float(np.max(np.abs(flat.components)))
    flat_ok = (
        float(np.linalg.norm(curvature(flat))) < 1e-12
        and float(np.linalg.norm(action_gradient(flat))) < 1e-6 * scale
    )
    # convergence order of central differences along a generic direction
    rng = np.random.default_rng(4)
    v = rng.standard_normal(conn.coefficients().shape)
    v /= np.linalg.norm(v)
    c0 = conn.coefficients()
    exact = float(np.sum(g * v))

    def s(t):
        return cs_action(LatticeConnection.from_coefficients(c0 + t * v))

    errs = [abs((s(h) - s(-h)) / (2 * h) - exact) for h in (2e-1, 1e-1)]
    order = float(np.log2(errs[0] / errs[1]))
    ok = rel < 1e-5 and flat_ok and order >= 1.9
    report(6, f"fd vs analytic rel err {rel:.1e} < 1e-5; flat stationary; order {order:.2f} >= 1.9", ok)


def test_criterion_7_godbillon_vey():
    def gv(omega):
        return gv_term(FoliationSpec(omega))[0][1]

    t0 = time.perf_counter()
    ok = True
    for n in (16, 32):
        ok &= abs(gv(omega_exp_f(n))) < 1e-8
    om = omega_exp_f(32)
    rescale_drift = abs(gv(om) - gv(DiscreteForm(1, 2.7 * om.values)))
    ok &= rescale_drift < 1e-10
    drifts = [abs(gv(gauge_changed_omega(n))) for n in (16, 32, 64)]
    orders = [float(np.log2(drifts[i] / drifts[i + 1])) for i in range(2)]
    elapsed = time.perf_counter() - t0
    ok &= min(orders) >= 1.5 and elapsed < 120.0
    report(
        7,
        f"exact-theta GV < 1e-8; rescale drift {rescale_drift:.1e}; "
        f"gauge-change order {min(orders):.2f} >= 1.5; {elapsed:.1f}s < 120 s",
        ok,
    )


def test_criterion_8_leafwise():
    ok = True
    for M in range(1, 7):
        s0, s1, s2 = (tangential_laplacian(k, M) for k in range(3))
        ok &= (s0.kernel_dim, s1.kernel_dim, s2.kernel_dim) == (1, 2, 1)
        ok &= np.array_equal(s2.eigenvalues, s0.eigenvalues)
        nz0 = s0.eigenvalues[s0.eigenvalues > 0]
        nz1 = s1.eigenvalues[s1.eigenvalues > 0]
        ok &= np.array_equal(np.sort(nz1), np.sort(np.concatenate([nz0, nz0])))
        ok &= abs(leafwise_torsion(M).log_t) < 1e-10
    report(8, "kernel dims (1,2,1); spectral identities exact; log T = 0 to 1e-10, M = 1..6", ok)


def test_criterion_9_cyclic():
    tau = cyc.fundamental_cocycle(8)
    rng = np.random.default_rng(13)
    b = cyc.hochschild_b(tau)
    ok = True
    for _ in range(50):
        f0, f1, f2 = (cyc.random_trig(2, rng) for _ in range(3))
        scale = max(1.0, *(np.max(np.abs(f.coefficients)) for f in (f0, f1, f2))) ** 3
        ok &= abs(b(f0, f1, f2)) < 1e-11 * scale
        ok &= abs(tau(f0, f1) + tau(f1, f0)) < 1e-11 * scale
    ok &= np.max(np.abs(cyc.cyclic_lambda(tau).kernel - tau.kernel)) == 0.0
    for n in range(-3, 4):
        ok &= abs(cyc.k_pairing(cyc.mode(n), tau) - n) < 1e-12
    report(9, "b tau = 0 and lambda tau = tau on 50 probes; windings -3..3 to 1e-12", ok)


def test_criterion_10_cli_determinism(tmp_path):
    n = 16
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({
        "schema_version": 1,
        "manifold": {"family": "Lens", "params": [5, 1]},
        "foliations": [{
            "label": "no-transversal",
            "omega": ["0", "0", "exp(0.3*sin(2*pi*x) + 0.2*cos(2*pi*y))"],
            "grid": n,
        }],
        "leafwise": {"truncation": 2, "weights": [1.0, 2.0, 1.0]},
    }))
    reports = []
    for name in ("r1.json", "r2.json"):
        out = tmp_path / name
        code = cli_main(["all", "--manifest", str(manifest), "--out", str(out), "--seed", "0"])
        assert code == 0
        data = json.loads(out.read_text())
        data.pop("timings", None)
        reports.append(data)
    identical = reports[0] == reports[1]
    warnings = {k: s["warnings"] for k, s in reports[0]["sections"].items()}
    faults = (
        any("inconclusive" in w for w in warnings.get("godbillon_vey", []))
        and any("metric-dependent" in w for w in warnings.get("leafwise", []))
        and any("not acyclic" in w for w in warnings.get("torsion", []))
        and any("skipped" in w for w in warnings.get("casson", []))
    )
    ok = identical and faults
    report(10, "two seeded `all` runs identical modulo timings; fault warnings surfaced", ok)
