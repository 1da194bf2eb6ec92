import csv
import json
import hashlib

import numpy as np
import pytest

from nls_lab import cli
from nls_lab import ground_state as gs
from nls_lab.config import _SCHEMA, ConfigError, parse_config
from nls_lab.functionals import EnergyBreakdown, ModelParams, correction_energy_terms, modified_energy_terms
from nls_lab.grid import field_from_bytes


EVOLVE_CFG = """
# physical-model smoke run
model = physical
d = 1
n = 256
L = 64
q = 4
p = 4.5
profile = gaussian
width = 2.0
rho = 1.0
t_max = 0.5
dt_base = 0.01
cadence = 10
snapshot_taus = 0.5
snapshots = true
"""


def test_parse_valid_config():
    cfg = parse_config(EVOLVE_CFG, "evolve")
    assert cfg.get("model") == "physical"
    assert cfg.get("snapshots") is True
    assert cfg.grid().n == 256
    assert cfg.model_params().q == 4.0
    assert cfg.profile().width == 2.0


def test_parse_collects_all_violations():
    bad = "model = orbital\nn = 7\nwobble = 3\nq = not-a-number\nepsilon = 0.5\nd = 0\n"
    with pytest.raises(ConfigError) as exc:
        parse_config(bad, "evolve")
    msgs = exc.value.errors
    assert any("model" in m for m in msgs)
    assert any("n:" in m for m in msgs)
    assert "d: must be 1, 2 or 3 (got 0)" in msgs
    assert any("wobble" in m for m in msgs)
    assert "epsilon: unknown key" in msgs
    assert any("q:" in m for m in msgs)
    assert any("required" in m for m in msgs)
    assert msgs == sorted(msgs)


def test_parse_regime_strictness():
    base = "d = 1\nn = 256\nL = 64\nq = 3\np = 4.5\nprofile = gaussian\nrho = 0.3\n"
    parse_config(base + "model = physical\nt_max = 1\n", "evolve")
    with pytest.raises(ConfigError) as exc:
        parse_config(base, "scatter")
    assert any("scattering" in m for m in exc.value.errors)


def test_parse_conditional_requirements():
    text = "model = conformal\nd = 1\nn = 256\nL = 64\nq = 4\np = 4.5\nprofile = gaussian\nrho = 1\n"
    with pytest.raises(ConfigError) as exc:
        parse_config(text, "evolve")
    assert any("tau_max" in m for m in exc.value.errors)


def test_parse_rejects_unknown_subcommand():
    with pytest.raises(ConfigError):
        parse_config("", "frobnicate")


def _write(tmp_path, text):
    p = tmp_path / "run.cfg"
    p.write_text(text)
    return str(p)


def test_cli_config_error_exit_code(tmp_path, capsys):
    cfg = _write(tmp_path, "model = physical\n")
    rc = cli.main(["evolve", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_CONFIG
    assert "required" in capsys.readouterr().err


def test_cli_missing_config_file(tmp_path):
    rc = cli.main(["evolve", "--config", str(tmp_path / "nope.cfg")])
    assert rc == cli.EXIT_CONFIG


SWEEP_CFG = "d = 1\nsweep.q_count = 2\nsweep.p_count = 2\n"


def test_cli_out_prefix_under_a_regular_file_is_a_config_error(tmp_path, capsys):
    cfg = _write(tmp_path, SWEEP_CFG)
    (tmp_path / "some_file").write_text("")
    rc = cli.main(["sweep", "--config", cfg, "--out", str(tmp_path / "some_file" / "o")])
    assert rc == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error:")


def test_cli_artifact_write_failure_exits_1_with_one_error_line(tmp_path, capsys):
    # A directory where the artifact goes makes its open fail, even as root.
    cfg = _write(tmp_path, SWEEP_CFG)
    (tmp_path / "o.sweep.csv").mkdir()
    rc = cli.main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_OTHER
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert not (tmp_path / "o.manifest.json").exists()


def test_cli_evolve_artifacts_and_manifest(tmp_path):
    cfg = _write(tmp_path, EVOLVE_CFG)
    out = str(tmp_path / "runs" / "a")
    rc = cli.main(["evolve", "--config", cfg, "--out", out])
    assert rc == cli.EXIT_OK

    csv_path = out + ".diagnostics.csv"
    man_path = out + ".manifest.json"
    snap_path = out + ".snap-0.5.field"
    text = open(csv_path).read()
    assert "tau,mass,K,nq,np,E,E_A,R_A" in text

    man = json.load(open(man_path))
    assert man["subcommand"] == "evolve"
    assert man["config"]["rho"] == 1.0
    for name, digest in man["checksums"].items():
        payload = open(str(tmp_path / "runs" / name), "rb").read()
        assert hashlib.sha256(payload).hexdigest() == digest
    assert man["sound"] == {"evolve": True}

    snap = field_from_bytes(open(snap_path, "rb").read())
    assert snap.grid.n == 256
    assert np.isfinite(snap.values).all()


def test_cli_determinism_byte_identical(tmp_path):
    cfg = _write(tmp_path, EVOLVE_CFG)
    outs = []
    for tag in ("a", "b"):
        out = str(tmp_path / tag)
        assert cli.main(["evolve", "--config", cfg, "--out", out]) == cli.EXIT_OK
        outs.append(open(out + ".diagnostics.csv", "rb").read())
    assert outs[0] == outs[1]


SCATTER_CFG = (
    "d = 1\nn = 256\nL = 64\nq = 4\np = 4.5\nprofile = gaussian\nwidth = 2\n"
    "rho = 0.3\ncadence = 10\n"
)


def test_cli_scatter_run(tmp_path):
    cfg = _write(tmp_path, SCATTER_CFG)
    out = str(tmp_path / "s")
    rc = cli.main(["scatter", "--config", cfg, "--out", out])
    assert rc == cli.EXIT_OK
    doc = json.load(open(out + ".scatter.json"))
    assert doc["verdict"] == "scattering_consistent"
    lines = open(out + ".residuals.csv").read().splitlines()
    assert len(lines) == 6  # header + 5 probe rows


def test_cli_scatter_evolves_to_tau_max(tmp_path, monkeypatch):
    ends = []
    evolve_monitor = cli.evolve_monitor

    def recording_evolve_monitor(state, end_clock, controls):
        ends.append(end_clock)
        return evolve_monitor(state, end_clock, controls)

    monkeypatch.setattr(cli, "evolve_monitor", recording_evolve_monitor)
    cfg = _write(tmp_path, SCATTER_CFG + "snapshot_taus = 0.3, 0.4, 0.5\ntau_max = 0.6\n")
    assert cli.main(["scatter", "--config", cfg, "--out", str(tmp_path / "s")]) == cli.EXIT_OK
    cfg = _write(tmp_path, SCATTER_CFG + "snapshot_taus = 0.3, 0.4, 0.5\n")
    assert cli.main(["scatter", "--config", cfg, "--out", str(tmp_path / "t")]) == cli.EXIT_OK
    assert ends == [0.6, 0.5]


def test_scatter_snapshot_beyond_tau_max_is_a_config_error(tmp_path, capsys):
    for extra in ("tau_max = 0.5\n", "snapshot_taus = 0.3, 0.7\ntau_max = 0.5\nn = 6\n"):
        with pytest.raises(ConfigError) as exc:
            parse_config(SCATTER_CFG + extra, "scatter")
        late = [m for m in exc.value.errors if m.startswith("snapshot_taus:")]
        assert len(late) == 1 and "tau_max" in late[0]
    assert any(m.startswith("n:") for m in exc.value.errors)
    cfg = _write(tmp_path, SCATTER_CFG + "tau_max = 0.5\n")
    assert cli.main(["scatter", "--config", cfg, "--out", str(tmp_path / "s")]) == cli.EXIT_CONFIG
    assert "snapshot_taus" in capsys.readouterr().err
    assert not (tmp_path / "s.manifest.json").exists()


def test_scatter_snapshot_taus_need_two_clocks_in_unit_interval(tmp_path, capsys):
    """The scattering probe needs two distinct snapshot clocks, each in
    (0, 1): a clock <= 0 would be dropped and a clock >= 1 ends the
    conformal run at its singular time."""
    for taus in ("0.5", "0.5, 0.5", "0.5, 1.0", "0.0, 0.5", "-0.1, 0.3, 0.5", ""):
        with pytest.raises(ConfigError) as exc:
            parse_config(SCATTER_CFG + f"snapshot_taus = {taus}\n", "scatter")
        assert [m for m in exc.value.errors if m.startswith("snapshot_taus:")], taus
    parse_config(SCATTER_CFG + "snapshot_taus = 0.3, 0.5, 0.5\n", "scatter")
    cfg = _write(tmp_path, SCATTER_CFG + "snapshot_taus = 0.5\n")
    assert cli.main(["scatter", "--config", cfg, "--out", str(tmp_path / "s")]) == cli.EXIT_CONFIG
    assert "two distinct clocks" in capsys.readouterr().err
    assert not (tmp_path / "s.manifest.json").exists()


@pytest.mark.parametrize(
    "model, end, taus, outside",
    [
        ("conformal", "tau_max", "-0.2, 0.0, 0.7, 1.5", "[-0.2, 0.7, 1.5]"),
        ("physical", "t_max", "-0.2, 0.0, 0.3, 0.8", "[-0.2, 0.8]"),
    ],
)
def test_evolve_snapshot_taus_outside_the_run_are_a_config_error(tmp_path, capsys, model, end, taus, outside):
    """An evolve starts at clock 0 and stops at its end clock, so it could
    record no snapshot at an earlier or later clock: such entries are a
    config error, not silently dropped; 0 and the end clock are kept."""
    text = EVOLVE_CFG.replace("model = physical", f"model = {model}").replace("t_max", end)
    parse_config(text.replace("snapshot_taus = 0.5", "snapshot_taus = 0.0, 0.25, 0.5"), "evolve")
    text = text.replace("snapshot_taus = 0.5", f"snapshot_taus = {taus}")
    with pytest.raises(ConfigError) as exc:
        parse_config(text, "evolve")
    assert exc.value.errors == [f"snapshot_taus: entries {outside} lie outside [0, {end} = 0.5]"]
    cfg = _write(tmp_path, text)
    assert cli.main(["evolve", "--config", cfg, "--out", str(tmp_path / "e")]) == cli.EXIT_CONFIG
    assert "snapshot_taus" in capsys.readouterr().err
    assert not (tmp_path / "e.manifest.json").exists()


def test_cli_evolve_blowup_exit_code(tmp_path, capsys):
    text = EVOLVE_CFG.replace("rho = 1.0", "rho = 1e90")
    cfg = _write(tmp_path, text)
    out = str(tmp_path / "b")
    with np.errstate(all="ignore"):
        rc = cli.main(["evolve", "--config", cfg, "--out", out])
    assert rc == cli.EXIT_EVOLUTION
    assert "non-finite field" in capsys.readouterr().err
    assert not (tmp_path / "b.manifest.json").exists()


def test_cli_scatter_blowup_exit_code(tmp_path, capsys):
    cfg = _write(tmp_path, SCATTER_CFG.replace("rho = 0.3", "rho = 1e90"))
    out = str(tmp_path / "b")
    with np.errstate(all="ignore"):
        rc = cli.main(["scatter", "--config", cfg, "--out", out])
    assert rc == cli.EXIT_EVOLUTION
    assert "non-finite field" in capsys.readouterr().err
    assert not (tmp_path / "b.manifest.json").exists()


def test_cli_verify_run(tmp_path, capsys):
    cfg = _write(tmp_path, "n = 256\n")
    out = str(tmp_path / "v")
    rc = cli.main(["verify", "--config", cfg, "--out", out])
    assert rc == cli.EXIT_OK
    report = open(out + ".verify.txt").read()
    assert "PASS mass_conservation" in report
    assert "FAIL" not in report


def test_cli_verify_failure_exits_6_without_a_manifest(tmp_path, capsys, monkeypatch):
    """A failing check prints its FAIL line, still writes the report,
    and exits EXIT_VERIFY with no manifest: here a free propagator that
    gains 0.1% of amplitude per call breaks unitarity."""
    free_propagate = cli.conformal.free_propagate

    def gaining(field, t):
        return free_propagate(field.with_values(1.001 * field.values), t)

    monkeypatch.setattr(cli.conformal, "free_propagate", gaining)
    cfg = _write(tmp_path, "n = 256\n")
    out = str(tmp_path / "v")
    rc = cli.main(["verify", "--config", cfg, "--out", out])
    assert rc == cli.EXIT_VERIFY == 6
    captured = capsys.readouterr()
    assert "FAIL free_unitarity" in captured.out
    assert "verification suite reported failures" in captured.err
    report = open(out + ".verify.txt").read()
    assert "FAIL free_unitarity" in report and "PASS mass_conservation" in report
    assert not (tmp_path / "v.manifest.json").exists()


@pytest.mark.parametrize(
    "d, q, p, hi", [(1, 4, 3.5, 5.0), (1, 4, 4, 5.0), (1, 4, 5, 5.0), (1, 4, 6.5, 5.0), (2, 2, 3.2, 3.0)]
)
def test_p_outside_q_to_the_critical_power_is_a_config_error(d, q, p, hi):
    """p must lie strictly between q and 1 + 4/d; the message names both
    ends and the value."""
    with pytest.raises(ConfigError) as exc:
        parse_config(f"d = {d}\nq = {q}\nrho = 0.5\np = {p}\n", "groundstate")
    assert exc.value.errors == [f"p: requires q < p < {hi} (got {float(p)})"]


def test_cli_sweep_run(tmp_path):
    cfg = _write(tmp_path, "d = 1\nsweep.q_count = 3\nsweep.p_count = 3\n")
    out = str(tmp_path / "w")
    rc = cli.main(["sweep", "--config", cfg, "--out", out])
    assert rc == cli.EXIT_OK
    lines = open(out + ".sweep.csv").read().splitlines()
    assert lines[0] == "q,p,lambda_star,lambda_sw,lambda_E,margin1,margin2"
    assert len(lines) == 10
    for line in lines[1:]:
        vals = [float(v) for v in line.split(",")]
        assert vals[5] > 0 and vals[6] > 0


def test_cli_groundstate_run(tmp_path):
    text = "d = 1\nq = 4\np = 4.5\nrho = 0.5\nmax_iters = 400\n"
    cfg = _write(tmp_path, text)
    out = str(tmp_path / "g")
    rc = cli.main(["groundstate", "--config", cfg, "--out", out])
    assert rc == cli.EXIT_OK
    doc = json.load(open(out + ".groundstate.json"))
    assert doc["classification"] in ("spread_to_zero_energy", "budget_exhausted")
    f = field_from_bytes(open(out + ".groundstate.field", "rb").read())
    assert f.grid.n == 512


def test_cli_threshold_run(tmp_path):
    text = (
        "d = 1\nq = 4\np = 4.5\ncoeffs.alpha = 0.5\ncoeffs.beta = 0.2\n"
        "coeffs.gamma = 0.18181818181818182\nbracket_tol = 0.1\n"
    )
    cfg = _write(tmp_path, text)
    out = str(tmp_path / "t")
    rc = cli.main(["threshold", "--config", cfg, "--out", out])
    assert rc == cli.EXIT_OK
    doc = json.load(open(out + ".threshold.json"))
    assert doc["rho_lo"] < doc["rho0_est"] < doc["rho_hi"]
    assert 2.0 < doc["rho0_est"] < 3.0
    assert {"rho", "verdict", "sound"} <= set(doc["probes"][0])


def test_cli_threshold_scales_the_energy_bisection(tmp_path):
    """threshold on the rho2(0.4) triple writes the energy triple's bracket
    times (Lambda / Lambda_E)^(-kappa), and the energy triple's probe
    log: its masses, verdicts and seed energies."""
    params = ModelParams(d=1, q=4.0, p=4.5)
    coeffs = gs.triple_rho2(params, 0.4)
    text = (
        f"d = 1\nq = 4\np = 4.5\ncoeffs.alpha = {coeffs.alpha!r}\ncoeffs.beta = {coeffs.beta!r}\n"
        f"coeffs.gamma = {coeffs.gamma!r}\nbracket_tol = 0.1\n"
    )
    out = str(tmp_path / "t")
    assert cli.main(["threshold", "--config", _write(tmp_path, text), "--out", out]) == cli.EXIT_OK
    doc = json.load(open(out + ".threshold.json"))
    energy = gs.threshold_mass(params, gs.triple_energy(params), bracket_tol=0.1)
    ratio = gs.lambda_reduction(coeffs, params) / gs.lambda_reduction(gs.triple_energy(params), params)
    f = ratio ** -gs.threshold_exponent(params)
    assert f < 1
    assert (doc["rho_lo"], doc["rho_hi"]) == (f * energy.rho_lo, f * energy.rho_hi)
    assert [(pr["rho"], pr["verdict"], pr["energies"]) for pr in doc["probes"]] == [
        (pr.rho, pr.verdict, [r.energy for r in pr.results]) for pr in energy.probes
    ]


def test_cli_workers_accepts_only_one(tmp_path, capsys):
    cfg = _write(tmp_path, "d = 1\nsweep.q_count = 2\nsweep.p_count = 2\n")
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep", "--config", cfg, "--out", str(tmp_path / "w2"), "--workers", "2"])
    assert exc.value.code == 2
    assert "--workers" in capsys.readouterr().err
    rc = cli.main(["sweep", "--config", cfg, "--out", str(tmp_path / "w1"), "--workers", "1"])
    assert rc == cli.EXIT_OK


def test_cli_named_thresholds_run(tmp_path):
    text = "d = 1\nq = 4\np = 4.5\nbracket_tol = 0.1\nA_grid = 1.0\neps_grid = 0.4\n"
    cfg = _write(tmp_path, text)
    out = str(tmp_path / "n")
    rc = cli.main(["named-thresholds", "--config", cfg, "--out", out])
    assert rc == cli.EXIT_OK
    lines = open(out + ".named.csv").read().splitlines()
    assert lines[0] == "name,parameter,rho_lo,rho_hi,rho0_est"
    rows = {tuple(line.split(",")[:2]): line.split(",")[2:] for line in lines[1:]}
    keys = list(rows)
    assert [name for name, _ in keys] == ["rho_E", "rho_SW", "rho_star", "rho1", "rho2"]
    assert [float(param) for _, param in keys[3:]] == [1.0, 0.4]
    assert rows[("rho_star", "")] == rows[("rho1", "1")]
    for lo, hi, est in rows.values():
        assert float(lo) < float(est) < float(hi)

    man = json.load(open(out + ".manifest.json"))
    assert man["subcommand"] == "named-thresholds"
    assert man["sound"] == {"named_thresholds": True}
    assert set(man["checksums"]) == {"n.named.csv"}
    for name, digest in man["checksums"].items():
        payload = open(str(tmp_path / name), "rb").read()
        assert hashlib.sha256(payload).hexdigest() == digest


def test_named_thresholds_grid_lists_out_of_range_are_config_errors(tmp_path, capsys):
    """rho1(A) needs every A_grid entry in (delta(q), 1], here (0.5, 1],
    and rho2(eps) every eps_grid entry in (0, 1): both lists are checked
    with the rest of the config, before any bisection runs."""
    text = NAMED_CFG + "A_grid = 0.1\neps_grid = 1.5\n"
    with pytest.raises(ConfigError) as exc:
        parse_config(text, "named-thresholds")
    assert exc.value.errors == [
        "A_grid: entries must lie in (delta(q) = 0.5, 1] (got (0.1,))",
        "eps_grid: entries must lie in (0, 1) (got (1.5,))",
    ]
    with pytest.raises(ConfigError):
        parse_config(NAMED_CFG + "A_grid = 0.5, 1.0\n", "named-thresholds")
    parse_config(NAMED_CFG + "A_grid = 0.51, 1.0\neps_grid = 0.4\n", "named-thresholds")
    cfg = _write(tmp_path, text)
    assert cli.main(["named-thresholds", "--config", cfg, "--out", str(tmp_path / "n")]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "A_grid: entries" in err and "eps_grid: entries" in err
    assert not (tmp_path / "n.manifest.json").exists()


CONFORMAL_CFG = (
    EVOLVE_CFG.replace("model = physical", "model = conformal").replace("t_max", "tau_max") + "A = 0.75\n"
)
THRESHOLD_CFG = "d = 1\nq = 4\np = 4.5\ncoeffs.alpha = 0.5\ncoeffs.beta = 0.2\ncoeffs.gamma = 0.2\n"
NAMED_CFG = "d = 1\nq = 4\np = 4.5\n"
UNREAD = [
    ("named-thresholds", NAMED_CFG, "seed = 5"),
    ("threshold", THRESHOLD_CFG, "n = 64"),
    ("threshold", THRESHOLD_CFG, "L = 4"),
    ("groundstate", NAMED_CFG + "rho = 0.5\n", "profile = gaussian"),
    ("evolve", CONFORMAL_CFG, "t_max = 0.5"),
    ("evolve", EVOLVE_CFG, "c_adapt = 0.01"),
    ("evolve", EVOLVE_CFG, "tau_max = 0.5"),
    ("evolve", EVOLVE_CFG, "A = 0.75"),
    ("scatter", SCATTER_CFG, "t_max = 1"),
    ("verify", "n = 256\n", "rho = 1"),
    ("sweep", "d = 1\n", "q = 4"),
    ("evolve", EVOLVE_CFG, "amplitude = 3"),
    ("scatter", SCATTER_CFG, "free_flow = true"),
]


@pytest.mark.parametrize("subcommand, text, key", UNREAD, ids=[f"{c}+{k.split()[0]}" for c, _, k in UNREAD])
def test_cli_rejects_a_key_the_subcommand_does_not_read(tmp_path, capsys, subcommand, text, key):
    name = key.split(" =")[0]
    parse_config(text, subcommand)
    cfg = _write(tmp_path, text + key + "\n")
    assert cli.main([subcommand, "--config", cfg, "--out", str(tmp_path / "o")]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"{name}: not read by" in err or f"{name}: unknown key" in err
    assert not (tmp_path / "o.manifest.json").exists()


def _evolve_csv(tmp_path, text):
    """(metadata lines, rows) of the diagnostics CSV of an evolve run."""
    out = str(tmp_path / "e")
    assert cli.main(["evolve", "--config", _write(tmp_path, text), "--out", out]) == cli.EXIT_OK
    lines = open(out + ".diagnostics.csv").read().splitlines()
    meta = [l for l in lines if l.startswith("#")]
    return meta, list(csv.DictReader(l for l in lines if not l.startswith("#")))


def test_cli_evolve_records_the_modified_energy_of_its_exponent(tmp_path):
    meta, rows = _evolve_csv(tmp_path, CONFORMAL_CFG)
    assert meta[0] == "# model=conformal d=1 q=4.0 p=4.5 A=0.75"
    assert len(rows) > 2
    params = parse_config(CONFORMAL_CFG, "evolve").model_params()
    for row in rows:
        tau, kinetic, nq, npw, mass, energy = (float(row[k]) for k in ("tau", "K", "nq", "np", "mass", "E"))
        b = EnergyBreakdown(kinetic=kinetic, nq=nq, np=npw, mass=mass, total=energy)
        assert float(row["E_A"]) == modified_energy_terms(tau, b, 0.75, params)
        assert float(row["R_A"]) == correction_energy_terms(tau, b, 0.75, params)


def test_cli_evolve_without_A_leaves_E_A_and_R_A_blank(tmp_path):
    meta, rows = _evolve_csv(tmp_path, CONFORMAL_CFG.replace("A = 0.75\n", ""))
    assert meta[0] == "# model=conformal d=1 q=4.0 p=4.5 A=None"
    assert rows and all(row["E_A"] == row["R_A"] == "" for row in rows)


@pytest.mark.parametrize(
    "line, error",
    [("A = 0.6, 0.75", "A: cannot parse '0.6, 0.75'"), ("A_list = 0.75", "A_list: unknown key")],
)
def test_evolve_takes_one_decay_exponent(tmp_path, capsys, line, error):
    cfg = _write(tmp_path, CONFORMAL_CFG.replace("A = 0.75", line))
    assert cli.main(["evolve", "--config", cfg, "--out", str(tmp_path / "o")]) == cli.EXIT_CONFIG
    assert error in capsys.readouterr().err
    assert not (tmp_path / "o.manifest.json").exists()


def test_a_key_set_twice_is_a_config_error(tmp_path, capsys):
    """A repeated key names both of its lines and is reported with every
    other violation; the run writes no manifest."""
    text = NAMED_CFG + "rho = 2.6\nrho = 3.2\nmax_iters = 0\n"
    with pytest.raises(ConfigError) as exc:
        parse_config(text, "groundstate")
    assert exc.value.errors == ["max_iters: must be >= 1 (got 0)", "rho: set on line 4 and again on line 5"]
    cfg = _write(tmp_path, text)
    assert cli.main(["groundstate", "--config", cfg, "--out", str(tmp_path / "g")]) == cli.EXIT_CONFIG
    assert "rho: set on line 4 and again on line 5" in capsys.readouterr().err
    assert not (tmp_path / "g.manifest.json").exists()


@pytest.mark.parametrize(
    "given, missing",
    [
        (["coeffs.alpha"], ["coeffs.beta", "coeffs.gamma"]),
        (["coeffs.beta"], ["coeffs.alpha", "coeffs.gamma"]),
        (["coeffs.alpha", "coeffs.gamma"], ["coeffs.beta"]),
    ],
)
def test_groundstate_partial_coeffs_triple_is_a_config_error(tmp_path, capsys, given, missing):
    text = NAMED_CFG + "rho = 0.5\n" + "".join(f"{k} = 0.5\n" for k in given)
    with pytest.raises(ConfigError) as exc:
        parse_config(text, "groundstate")
    assert [m.split(":")[0] for m in exc.value.errors] == missing
    assert all("required with coeffs." in m for m in exc.value.errors)
    cfg = _write(tmp_path, text)
    assert cli.main(["groundstate", "--config", cfg, "--out", str(tmp_path / "g")]) == cli.EXIT_CONFIG
    assert missing[0] in capsys.readouterr().err
    assert not (tmp_path / "g.manifest.json").exists()


def test_center_needs_one_or_d_components(tmp_path, capsys):
    cfg = _write(tmp_path, EVOLVE_CFG + "center = 0, 1\n")
    assert cli.main(["evolve", "--config", cfg, "--out", str(tmp_path / "c")]) == cli.EXIT_CONFIG
    assert "center: must have 1 or d = 1 components" in capsys.readouterr().err
    assert not (tmp_path / "c.manifest.json").exists()
    planar = EVOLVE_CFG.replace("d = 1", "d = 2").replace("q = 4\np = 4.5", "q = 2\np = 2.5")
    assert parse_config(planar + "center = 1, 2\n", "evolve").profile().center == (1.0, 2.0)
    assert parse_config(planar + "center = 1\n", "evolve").profile().center == (1.0,)
    with pytest.raises(ConfigError) as exc:
        parse_config(planar + "center = 1, 2, 3\n", "evolve")
    assert [m.split(":")[0] for m in exc.value.errors] == ["center"]


# (key, valid config, out-of-range value, message, the value as parsed)
RANGES = [
    ("model", "evolve", "orbital", "must be physical or conformal", "orbital"),
    ("d", "threshold", "0", "must be 1, 2 or 3", "0"),
    ("n", "scatter", "100", "must be a power of two >= 8", "100"),
    ("L", "scatter", "-1", "must be positive", "-1.0"),
    ("profile", "scatter", "box", "must be gaussian or sech", "box"),
    ("width", "scatter", "0", "must be positive", "0.0"),
    ("rho", "groundstate", "-2", "must be positive", "-2.0"),
    ("dt_base", "evolve", "0", "must be positive", "0.0"),
    ("c_adapt", "scatter", "-1", "must be positive", "-1.0"),
    ("cadence", "evolve", "0", "must be >= 1", "0"),
    ("A", "conformal evolve", "1.5", "must lie in (0, 1]", "1.5"),
    ("t_max", "evolve", "0", "must be positive", "0.0"),
    ("tau_max", "scatter", "1.5", "must lie in (0, 1)", "1.5"),
    ("bracket_tol", "threshold", "1", "must lie in (0, 1)", "1.0"),
    ("seed", "threshold", "-3", "must be >= 0", "-3"),
    ("eps_grid", "named-thresholds", "0.4, 1.5", "entries must lie in (0, 1)", "(0.4, 1.5)"),
    ("max_iters", "groundstate", "0", "must be >= 1", "0"),
    ("flow_dt", "groundstate", "0", "must be positive", "0.0"),
    ("residual_tol", "groundstate", "-1e-3", "must be positive", "-0.001"),
    ("coeffs.alpha", "threshold", "0", "must be positive", "0.0"),
    ("coeffs.beta", "threshold", "-1", "must be positive", "-1.0"),
    ("coeffs.gamma", "threshold", "0", "must be positive", "0.0"),
    ("sweep.q_count", "sweep", "1", "must be >= 2", "1"),
    ("sweep.p_count", "sweep", "0", "must be >= 2", "0"),
]
# name -> (subcommand, config)
VALID = {
    "evolve": ("evolve", EVOLVE_CFG),
    "conformal evolve": ("evolve", CONFORMAL_CFG),
    "scatter": ("scatter", SCATTER_CFG),
    "threshold": ("threshold", THRESHOLD_CFG),
    "named-thresholds": ("named-thresholds", NAMED_CFG),
    "groundstate": ("groundstate", NAMED_CFG + "rho = 0.5\n"),
    "sweep": ("sweep", "d = 1\n"),
}


def test_every_single_value_rule_has_a_range_case():
    assert {key for key, (_, _, rule) in _SCHEMA.items() if rule} == {row[0] for row in RANGES}


@pytest.mark.parametrize("key, config, value, message, got", RANGES, ids=[row[0] for row in RANGES])
def test_out_of_range_value_names_its_key_and_rule(key, config, value, message, got):
    subcommand, text = VALID[config]
    parse_config(text, subcommand)
    # The key is set once: its line in the valid config, if any, gives way.
    lines = [line for line in text.splitlines() if line.split("=")[0].strip() != key]
    with pytest.raises(ConfigError) as exc:
        parse_config("\n".join(lines + [f"{key} = {value}"]) + "\n", subcommand)
    assert [m for m in exc.value.errors if m.startswith(f"{key}:")] == [f"{key}: {message} (got {got})"]
