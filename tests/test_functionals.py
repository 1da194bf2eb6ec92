import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nls_lab import spectral
from nls_lab.functionals import (
    CoeffTriple,
    EnergyBreakdown,
    ModelParams,
    breakdown,
    correction_energy_terms,
    energy_coeffs,
    gn_quotient,
    modified_energy_terms,
    pohozaev_terms,
    split_energy_star_terms,
    standing_wave_multiplier,
)
from nls_lab.grid import AnalyticProfile, eval_profile


def test_model_params_regimes():
    p = ModelParams(d=1, q=4.0, p=4.5)
    assert (p.delta_q, p.delta_p) == (0.5, 0.25)
    ModelParams(d=1, q=3.5, p=4.9, regime="scattering")
    with pytest.raises(ValueError):
        ModelParams(d=1, q=4.5, p=4.0)
    with pytest.raises(ValueError):
        ModelParams(d=1, q=2.0, p=4.0, regime="scattering")  # q <= 1 + 2/d
    with pytest.raises(ValueError):
        ModelParams(d=1, q=4.0, p=5.0)  # p at the critical endpoint
    with pytest.raises(ValueError):
        ModelParams(d=1, q=4.0, p=4.5, regime="weird")


def test_coeff_triple_validation():
    CoeffTriple(1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        CoeffTriple(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        CoeffTriple(1.0, -0.1, 1.0)
    t = CoeffTriple(1.0, 2.0, 3.0).scaled(0.5)
    assert (t.alpha, t.beta, t.gamma) == (0.5, 1.0, 1.5)


def test_breakdown_against_direct_integrals(params, grid512):
    f = eval_profile(grid512, AnalyticProfile(kind="gaussian", amplitude=1.2, width=2.0))
    b = breakdown(f, params)
    a = np.abs(f.values)
    vol = grid512.cell_volume
    assert b.mass == pytest.approx(float((a**2).sum()) * vol, rel=1e-13)
    assert b.nq == pytest.approx(float((a**5).sum()) * vol, rel=1e-13)
    assert b.np == pytest.approx(float((a**5.5).sum()) * vol, rel=1e-13)
    assert b.kinetic == pytest.approx(spectral.gradient_sq_norm(f), rel=1e-13)
    c = energy_coeffs(params)
    assert b.total == pytest.approx(
        c.alpha * b.kinetic + c.beta * b.nq - c.gamma * b.np, rel=1e-13
    )


def test_breakdown_rejects_negative_integrals():
    with pytest.raises(ValueError):
        EnergyBreakdown(kinetic=-1.0, nq=0.0, np=0.0, mass=1.0, total=0.0)


def test_pohozaev_is_scaling_derivative(params, grid512):
    """G equals d/d lambda of E(u_lambda) at lambda = 1 for the
    mass-preserving dilation u_lambda = lambda^{d/2} u(lambda x)."""
    f = eval_profile(grid512, AnalyticProfile(kind="gaussian", amplitude=1.0, width=2.0))
    coeffs = CoeffTriple(0.7, 0.3, 0.4)
    b = breakdown(f, params, coeffs)
    d, q, p = params.d, params.q, params.p

    def energy_at(lam):
        k = lam**2 * b.kinetic
        nq = lam ** (d * (q - 1) / 2) * b.nq
        npw = lam ** (d * (p - 1) / 2) * b.np
        return coeffs.alpha * k + coeffs.beta * nq - coeffs.gamma * npw

    h = 1e-6
    fd = (energy_at(1 + h) - energy_at(1 - h)) / (2 * h)
    assert pohozaev_terms(b, params, coeffs) == pytest.approx(fd, rel=1e-8)


def test_modified_energy_at_tau_zero_is_energy(params, grid512):
    f = eval_profile(grid512, AnalyticProfile(kind="gaussian", amplitude=1.0, width=2.0))
    b = breakdown(f, params)
    for A in (0.3, 0.75, 1.0):
        assert modified_energy_terms(0.0, b, A, params) == pytest.approx(b.total, rel=1e-13)
    with pytest.raises(ValueError):
        modified_energy_terms(1.0, b, 0.75, params)


@settings(max_examples=50, deadline=None)
@given(
    tau=st.floats(0.0, 0.95),
    A=st.floats(0.1, 1.0),
    k=st.floats(0.1, 10.0),
    nq=st.floats(0.0, 10.0),
    npw=st.floats(0.0, 10.0),
)
def test_correction_is_minus_dtau_of_modified(tau, A, k, nq, npw, params):
    b = EnergyBreakdown(kinetic=k, nq=nq, np=npw, mass=1.0, total=0.0)
    h = 1e-7 * max(1.0, 1 - tau)
    if tau + h >= 1 or tau - h < 0:
        return
    fd = -(
        modified_energy_terms(tau + h, b, A, params)
        - modified_energy_terms(tau - h, b, A, params)
    ) / (2 * h)
    r = correction_energy_terms(tau, b, A, params)
    assert r == pytest.approx(fd, rel=1e-5, abs=1e-7)


@settings(max_examples=50, deadline=None)
@given(
    tau=st.floats(0.0, 0.99),
    A=st.floats(0.1, 1.0),
    eps=st.floats(0.01, 0.99),
    k=st.floats(0.1, 10.0),
    nq=st.floats(0.0, 10.0),
    npw=st.floats(0.0, 10.0),
)
def test_split_energy_star_identity(tau, A, eps, k, nq, npw, params):
    """E_A = eps * (all-positive-weight part) + E_A_star, exactly."""
    b = EnergyBreakdown(kinetic=k, nq=nq, np=npw, mass=1.0, total=0.0)
    s = 1.0 - tau
    dq, dp = params.delta_q, params.delta_p
    positive = (
        s**A / 2 * k
        + s ** (A - dq) / (params.q + 1) * nq
        + s ** (A - dp) / (params.p + 1) * npw
    )
    lhs = modified_energy_terms(tau, b, A, params)
    rhs = eps * positive + split_energy_star_terms(tau, b, A, params, eps)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_standing_wave_multiplier_sign(params):
    b = EnergyBreakdown(kinetic=2.0, nq=1.0, np=3.0, mass=1.5, total=-0.25)
    m = standing_wave_multiplier(b, params)
    assert m.omega == pytest.approx((2 * 2.0 / 1 - 2 * (-0.25)) / 1.5)
    assert m.positive_if_E_nonpositive
    assert m.omega > 0
    with pytest.raises(ValueError):
        standing_wave_multiplier(
            EnergyBreakdown(kinetic=1.0, nq=0.0, np=0.0, mass=0.0, total=1.0), params
        )


def test_gn_quotient_amplitude_invariance(params, grid512):
    f = eval_profile(grid512, AnalyticProfile(kind="gaussian", amplitude=1.0, width=2.0))
    g = f.with_values(2.7 * f.values)
    assert gn_quotient(f, params) == pytest.approx(gn_quotient(g, params), rel=1e-12)
