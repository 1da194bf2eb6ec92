"""Acceptance suite: eleven numbered criteria, one printed pass/fail line
each, with pinned tolerances.

Criterion 7's Pohozaev clause checks the constrained minimizer at twice
the threshold mass, a soliton of width ~5e-7 and energy ~-9.05e12 (the
infimum scales like -rho^30 for d=1, q=4, p=4.5).  A polished
minimization without a grid sizes its box to the seed's dilation
minimizer, so the minimizer is resolved and G = 0 holds to the polish
precision; on the fixed default box the same flow lands on a one-cell
spike with a relative Pohozaev residual of 0.527.
"""

import warnings
from unittest import mock

import numpy as np
import pytest

from nls_lab import backend, conformal, ground_state as gs, spectral
from nls_lab.evolution import (
    EvolutionState,
    EvolveControls,
    decay_envelopes,
    evolve,
    evolve_monitor,
)
from nls_lab.functionals import (
    CoeffTriple,
    EnergyBreakdown,
    ModelParams,
    breakdown,
    pohozaev_terms,
    split_energy_star_terms,
    standing_wave_multiplier,
)
from nls_lab.grid import AnalyticProfile, ResolutionWarning, eval_profile


def _report(num, name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"{tag} criterion {num:2d}: {name}" + (f" ({detail})" if detail else ""))


def _gaussian(grid, width=2.0, rho=None):
    f = eval_profile(grid, AnalyticProfile(kind="gaussian", amplitude=1.0, width=width))
    return spectral.normalize(f, rho) if rho is not None else f


def test_criterion_01_conservation_suite(params, grid512):
    psi0 = _gaussian(grid512)

    def drifts(dt):
        state = EvolutionState(psi0, 0.0, "physical", params)
        traj = evolve(state, 5.0, EvolveControls(dt_base=dt, cadence=25))
        m = traj.series("mass")
        e = traj.series("energy")
        mom = np.array([r.momentum[0] for r in traj.records])
        return (
            float(np.max(np.abs(m - m[0])) / m[0]),
            float(np.max(np.abs(mom - mom[0]))),
            float(np.max(np.abs(e - e[0]))),
        )

    mass1, mom1, e1 = drifts(1e-2)
    _, _, e2 = drifts(5e-3)
    ratio = e1 / e2
    ok = mass1 < 1e-10 and mom1 < 1e-8 and 3.0 <= ratio <= 5.0
    _report(1, "conservation suite", ok,
            f"mass {mass1:.1e}, momentum {mom1:.1e}, energy ratio {ratio:.2f}")
    assert mass1 < 1e-10
    assert mom1 < 1e-8
    assert 3.0 <= ratio <= 5.0


def test_criterion_02_norm_identity_suite(params, grid512):
    psi0 = _gaussian(grid512)
    worst = {}
    for t in (0.0, 0.5, 1.0, 3.0):
        psi_t = conformal.free_propagate(psi0, t) if t > 0 else psi0
        rep = conformal.verify_norm_identities(psi_t, t)
        worst[t] = rep.max_residual()
    ok = worst[0.0] < 1e-12 and all(v < 1e-6 for v in worst.values())
    _report(2, "pseudo-conformal identity suite", ok,
            f"max residual {max(worst.values()):.1e}")
    assert worst[0.0] < 1e-12
    for t, v in worst.items():
        assert v < 1e-6, f"identity residual {v} at t={t}"


def test_criterion_03_energy_balance_identity(params, grid512):
    phi0 = _gaussian(grid512, rho=1.0)

    def residual(dt, A):
        state = EvolutionState(phi0, 0.0, "conformal", params)
        traj = evolve(state, 0.9, EvolveControls(dt_base=dt, c_adapt=float("inf"),
                                                 cadence=1, A=A))
        tau = traj.clocks()
        ea = traj.series("e_mod")
        ra = traj.series("r_mod")
        return abs(ea[-1] + np.trapezoid(ra, tau) - ea[0])

    ratios = {}
    for A in (0.6, 0.75, 0.9):
        ratios[A] = residual(0.02, A) / residual(0.01, A)
    ok = all(3.0 <= r <= 5.0 for r in ratios.values())
    _report(3, "energy-balance identity", ok,
            "dt-halving ratios " + ", ".join(f"{r:.2f}" for r in ratios.values()))
    for A, r in ratios.items():
        assert 3.0 <= r <= 5.0, f"balance residual ratio {r} at A={A}"


def test_criterion_04_modified_energy_monotonicity(sparams, grid512, rho1_075):
    A = 0.75
    phi0 = _gaussian(grid512, rho=0.5 * rho1_075.rho0_est)
    state = EvolutionState(phi0, 0.0, "conformal", sparams)
    traj = evolve(state, 0.99, EvolveControls(dt_base=1e-2, c_adapt=1e-2,
                                              cadence=10, A=A))
    ea = traj.series("e_mod")
    slack = 1e-6 * abs(ea[0])
    max_excess = float(np.max(ea - ea[0]))
    env = decay_envelopes(traj, A)
    ok = traj.sound and max_excess <= slack and env.max_ratio <= 10.0
    _report(4, "modified-energy monotonicity", ok,
            f"max excess {max_excess:.1e}, envelope ratio {env.max_ratio:.2f}")
    assert traj.sound
    assert max_excess <= slack
    assert env.max_ratio <= 10.0


def test_criterion_05_ground_state_non_decay(params, ground_datum):
    A, eps = 0.75, 0.1
    state = EvolutionState(ground_datum.field, 0.0, "conformal", params)
    traj = evolve(state, 0.999, EvolveControls(dt_base=1e-2, c_adapt=1e-2,
                                               cadence=10, A=A))
    cut = traj.unsound_from or len(traj.records)
    assert cut >= 5, "trajectory lost soundness before any dynamics resolved"
    taus = traj.clocks()[:cut]

    env = decay_envelopes(traj, A)
    grown = [
        bool(np.any(prod[:cut] > 10 * prod[0]))
        for prod in (env.kinetic_product, env.nq_product, env.np_product)
    ]

    ea0 = traj.records[0].e_mod
    star = np.array(
        [
            split_energy_star_terms(
                r.clock,
                EnergyBreakdown(kinetic=r.kinetic, nq=r.nq, np=r.np,
                                mass=r.mass, total=r.energy),
                A,
                params,
                eps,
            )
            for r in traj.records[:cut]
        ]
    )
    all_below = bool(np.all(star < -abs(ea0)))
    deep_min = star.min() < 10 * star[0] < 0
    deep_end = star[-1] < 5 * star[0] < 0
    ok = any(grown) and all_below and deep_min and deep_end
    _report(5, "ground-state non-decay", ok,
            f"envelope growth by tau={taus[-1]:.3f}, star {star[0]:.2f} -> {star.min():.2f}")
    assert any(grown), "no decay-envelope product exceeded 10x its initial value"
    assert all_below
    assert deep_min and deep_end


def test_criterion_06_scattering_probe(sparams, params, grid512, ground_datum):
    taus = (0.9, 0.95, 0.99, 0.995, 0.999)

    def run(phi0):
        state = EvolutionState(phi0, 0.0, "conformal", sparams)
        controls = EvolveControls(dt_base=1e-2, c_adapt=1e-2, cadence=10, snapshot_clocks=taus)
        return conformal.scattering_probe(evolve_monitor(state, 0.999, controls))

    small = run(_gaussian(grid512, rho=0.3))
    # A no-op nonlinear phase leaves each step the free group.
    with mock.patch.object(backend, "nonlinear_phase", lambda *args: None):
        free = run(_gaussian(grid512, rho=0.3))
    ground = run(ground_datum.field)
    ok = (
        small.verdict == "scattering_consistent"
        and small.finest_residual < small.tol
        and free.residuals.max() < 1e-12
        and ground.verdict != "scattering_consistent"
    )
    _report(6, "scattering probe", ok,
            f"small-mass {small.finest_residual:.1e} < {small.tol:.1e}, "
            f"ground-state verdict {ground.verdict}")
    assert small.verdict == "scattering_consistent"
    assert small.finest_residual < small.tol
    assert free.residuals.max() < 1e-12
    assert ground.verdict != "scattering_consistent"


def test_criterion_07_threshold_dichotomy(params, threshold_energy):
    th = threshold_energy
    coeffs = gs.triple_energy(params)
    bracket_ok = th.bracket_width <= 0.02 * th.rho0_est

    lo_probe = gs.probe(params, coeffs, 0.5 * th.rho0_est)
    lo_ok = lo_probe.verdict == "zero" and all(
        r.classification == "spread_to_zero_energy" for r in lo_probe.results
    )

    hi_probe = gs.probe(params, coeffs, 2.0 * th.rho0_est)
    hi_ok = hi_probe.verdict == "negative" and any(
        r.classification == "converged_negative" for r in hi_probe.results
    )

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ResolutionWarning)
        deep = gs.minimize_on_sphere(
            params, coeffs, 2.0 * th.rho0_est,
            gs.FlowOptions(max_iters=6000, polish=True, residual_tol=1e-10),
            None, AnalyticProfile(kind="gaussian", amplitude=1.0, width=1.0),
        )
    b = breakdown(deep.field, params, coeffs)
    g = pohozaev_terms(b, params, coeffs)
    d, q, p = params.d, params.q, params.p
    scale = (
        2 * coeffs.alpha * b.kinetic
        + d * (q - 1) / 2 * coeffs.beta * b.nq
        + d * (p - 1) / 2 * coeffs.gamma * b.np
    )
    g_rel = abs(g) / scale
    pohozaev_ok = g_rel <= 1e-4

    ok = bracket_ok and lo_ok and hi_ok and pohozaev_ok
    _report(7, "threshold dichotomy", ok,
            f"bracket {th.bracket_width / th.rho0_est:.3f}, lo {lo_probe.verdict}, "
            f"hi {hi_probe.verdict}, Pohozaev residual {g_rel:.2e}")
    assert bracket_ok
    assert lo_ok
    assert hi_ok
    assert pohozaev_ok, (
        f"relative Pohozaev residual {g_rel:.3e} > 1e-4: the polished state at twice "
        "the threshold mass (continuum width ~5e-7) is not the minimizer; check the "
        "box sized by the seed's dilation fit and the polish stopping rule"
    )


def test_criterion_08_scaling_law():
    mp = ModelParams(d=1, q=2.0, p=3.0)
    coeffs = CoeffTriple.pure_focusing(0.5, 0.25)
    target = gs.pure_focusing_exponent(mp)
    assert target == pytest.approx(6.0)
    rhos = np.array([0.8, 1.0, 1.2, 1.5])
    energies = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ResolutionWarning)
        for rho in rhos:
            seed = AnalyticProfile(kind="gaussian", amplitude=1.0, width=1.0 / rho**2)
            # No grid: each run takes the box _dilation_fit sizes to its
            # seed, which holds the soliton; a fixed L=32 box leaves a
            # third of the rho=0.8 soliton's mass outside its core.
            res = gs.minimize_on_sphere(
                mp, coeffs, rho,
                gs.FlowOptions(max_iters=6000, polish=True, residual_tol=1e-10),
                None, seed,
            )
            assert res.classification == "converged_negative"
            assert res.sound
            energies.append(res.energy)
    slope = float(np.polyfit(np.log(rhos), np.log(-np.array(energies)), 1)[0])
    ok = abs(slope - target) <= 0.05 * target
    _report(8, "pure-focusing scaling law", ok, f"fitted exponent {slope:.3f}")
    assert abs(slope - target) <= 0.05 * target


def test_criterion_09_closed_form_layer(params, sparams, threshold_energy):
    a_grid = np.linspace(params.delta_q + 1e-6, 1.0, 50)
    f_vals = [gs.f_of_A(a, sparams) for a in a_grid]
    f_ok = all(x > y for x, y in zip(f_vals, f_vals[1:]))

    F_ok = gs.F_of_x(1.0, sparams) > gs.F_of_x(2.0, sparams) > 1.0

    margins_ok = True
    qs = np.linspace(3.05, 4.85, 10)
    for q in qs:
        for p in np.linspace(q + 0.01, 4.99, 10):
            rep = gs.ordering_check(ModelParams(d=1, q=float(q), p=float(p),
                                                regime="scattering"))
            m1, m2 = rep.margins
            margins_ok = margins_ok and m1 > 0 and m2 > 0

    coeffs = CoeffTriple(2.0, 1.5, 0.9)
    lam = gs.lambda_reduction(coeffs, params)
    hom_err = max(
        abs(gs.lambda_reduction(coeffs.scaled(c), params) - lam) / lam
        for c in (0.125, 3.7, 1024.0)
    )
    hom_ok = hom_err <= 1e-12

    th_abc = gs.threshold_mass(params, coeffs, bracket_tol=0.02)
    th_red = gs.threshold_mass(params, CoeffTriple(1.0, 1.0, lam), bracket_tol=0.02)
    red_err = abs(th_abc.rho0_est - th_red.rho0_est) / th_red.rho0_est
    red_ok = red_err <= 0.02

    ok = f_ok and F_ok and margins_ok and hom_ok and red_ok
    _report(9, "closed-form layer", ok,
            f"homogeneity {hom_err:.1e}, reduction agreement {red_err:.1e}")
    assert f_ok
    assert F_ok
    assert margins_ok
    assert hom_ok
    assert red_ok


def test_criterion_10_named_threshold_order(named):
    sep = (
        named.rho_star.rho_hi < named.rho_SW.rho_lo
        and named.rho_SW.rho_hi < named.rho_E.rho_lo
    )
    rho1_vals = [r.rho0_est for r in named.rho1.values()]
    rho1_ok = all(x < y for x, y in zip(rho1_vals, rho1_vals[1:]))
    eps_sorted = sorted(named.rho2)  # ascending epsilon
    rho2_vals = [named.rho2[e].rho0_est for e in eps_sorted]
    rho2_ok = all(x > y for x, y in zip(rho2_vals, rho2_vals[1:]))
    gaps = [named.rho_E.rho0_est - v for v in rho2_vals]
    toward_ok = all(g > 0 for g in gaps) and all(x < y for x, y in zip(gaps, gaps[1:]))
    ok = sep and rho1_ok and rho2_ok and toward_ok
    _report(10, "named-threshold order", ok,
            f"star {named.rho_star.rho0_est:.3f} < SW {named.rho_SW.rho0_est:.3f} "
            f"< E {named.rho_E.rho0_est:.3f}")
    assert sep, "bracket separation of rho_star < rho_SW < rho_E failed"
    assert rho1_ok, "rho_1(A) not increasing on the A grid"
    assert rho2_ok, "rho_2(eps) not increasing as eps decreases"
    assert toward_ok, "rho_2(eps) not approaching rho_E from below"


def test_criterion_11_standing_wave_algebra(rng):
    """1000 consistent (K, nq, np, M, E <= 0) tuples built from the
    standing-wave linear system; omega must come out positive and be
    homogeneous of degree 0."""
    checked = 0
    while checked < 1000:
        d = int(rng.integers(1, 4))
        hi = 1 + 4 / d
        q = float(rng.uniform(1.01, hi - 0.02))
        p = float(rng.uniform(q + 0.005, hi - 0.005))
        if not q < p < hi:
            continue
        mp = ModelParams(d=d, q=q, p=p)
        K = float(rng.lognormal(0.0, 1.0))
        M = float(rng.lognormal(0.0, 1.0))
        # nq >= 0 forces E >= (d(p-1) - 4) / (2 d (p-1)) * K (a negative bound)
        e_min = (d * (p - 1) - 4) / (2 * d * (p - 1)) * K
        E = float(rng.uniform(e_min, 0.0))
        nq = (q + 1) * (p - 1) / (p - q) * E - (d * (p - 1) - 4) * (q + 1) / (
            2 * d * (p - q)
        ) * K
        npw = 2 * (p + 1) / (d * (p - 1)) * K + (q - 1) * (p + 1) / (
            (q + 1) * (p - 1)
        ) * nq
        assert nq >= -1e-12 * K and npw >= 0
        nq = max(nq, 0.0)

        # the tuple satisfies the energy and virial relations by construction
        e_res = abs(K / 2 + nq / (q + 1) - npw / (p + 1) - E)
        v_res = abs(K + d * (q - 1) / (2 * (q + 1)) * nq
                    - d * (p - 1) / (2 * (p + 1)) * npw)
        scale = K + nq + npw + abs(E)
        assert e_res <= 1e-10 * scale
        assert v_res <= 1e-10 * scale

        bdn = EnergyBreakdown(kinetic=K, nq=nq, np=npw, mass=M, total=E)
        m = standing_wave_multiplier(bdn, mp)
        assert m.omega > 0, f"omega = {m.omega} for E = {E}"
        # cross-check against the first system equation K + nq - np + omega M = 0
        omega_direct = (npw - K - nq) / M
        assert m.omega == pytest.approx(omega_direct, rel=1e-6, abs=1e-9)

        scaled = EnergyBreakdown(kinetic=4 * K, nq=4 * nq, np=4 * npw,
                                 mass=4 * M, total=4 * E)
        assert standing_wave_multiplier(scaled, mp).omega == m.omega
        c = float(rng.lognormal(0.0, 2.0))
        arb = EnergyBreakdown(kinetic=c * K, nq=c * nq, np=c * npw,
                              mass=c * M, total=c * E)
        assert standing_wave_multiplier(arb, mp).omega == pytest.approx(
            m.omega, rel=1e-12
        )
        checked += 1
    _report(11, "standing-wave algebra", True, f"{checked} tuples, omega > 0 throughout")
