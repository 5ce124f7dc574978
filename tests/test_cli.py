"""Command-line interface: subcommands, config precedence, exit codes."""

import json

import numpy as np
import pytest

from discsteer import RadialState, compute_zeros, control
from discsteer.bessel import ZERO_RESIDUAL_MAX
from discsteer.errors import DomainError
from discsteer.cli import (EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, EXIT_VERIFY,
                           _effective, main)


def test_effective_precedence():
    defaults = {"a": 1, "b": 2, "c": 3}
    config = {"a": 10, "c": 30, "ignored": 99}
    flags = {"a": 100, "b": None}
    out = _effective(defaults, config, flags)
    assert out == {"a": 100, "b": 2, "c": 30}


def test_effective_types():
    defaults = {"T": 1.0, "K": 20, "psif": None}
    out = _effective(defaults, {"T": 2, "psif": "target.json"}, {})
    assert out == {"T": 2, "K": 20, "psif": "target.json"}
    for bad in ({"K": 2.5}, {"K": True}, {"T": "1"}, {"psif": 3}):
        with pytest.raises(DomainError):
            _effective(defaults, bad, {})


def usage_error(argv, capsys, naming=""):
    """Exit code 2 with one `error:` line that contains `naming`, and no
    traceback."""
    code = main(argv)
    err = capsys.readouterr().err
    return code == EXIT_USAGE and err.startswith("error: ") \
        and "Traceback" not in err and naming in err


def test_config_must_be_an_object(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1]")
    assert usage_error(["zeros", "--config", str(cfg), "--out", str(tmp_path)],
                       capsys)


def test_config_value_of_wrong_type(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"k": "abc"}))
    assert usage_error(["zeros", "--config", str(cfg), "--out", str(tmp_path)],
                       capsys)


def test_verify_table_entry_without_value(tmp_path, capsys):
    table = tmp_path / "zeros.json"
    table.write_text(json.dumps({"tol": 1e-12,
                                 "zeros": [{"nu": 0, "k": 1}]}))
    assert usage_error(["verify", "--table", str(table),
                        "--out", str(tmp_path / "v")], capsys)


@pytest.mark.parametrize("field, value", [
    ("value", None), ("value", "NaN"), ("value", float("nan")), ("value", [1]),
    ("value", 0.0), ("nu", -1), ("k", 0), ("k", True)])
def test_verify_rejects_malformed_table(tmp_path, capsys, field, value):
    # a valid four-zero table with one field replaced
    table = tmp_path / "zeros.json"
    compute_zeros(0, 4).to_json(table)
    payload = json.loads(table.read_text())
    payload["zeros"][0][field] = value
    table.write_text(json.dumps(payload))
    assert usage_error(["verify", "--table", str(table),
                        "--out", str(tmp_path / "v")], capsys, f"{field}=")


@pytest.mark.parametrize("case", ["repeated", "missing"])
def test_verify_rejects_repeated_or_missing_entry(tmp_path, capsys, case):
    # each (nu, k) of the table's range appears exactly once: a second
    # j_{0,4} listed first, or a dropped j_{1,5}, is refused
    table = tmp_path / "zeros.json"
    compute_zeros(1, 40).to_json(table)
    payload = json.loads(table.read_text())
    entries = payload["zeros"]
    if case == "repeated":
        wrong = dict(entries[3], value=entries[3]["value"] + 1e-4)
        assert (wrong["nu"], wrong["k"]) == (0, 4)
        entries.insert(3, wrong)
    else:
        entries.remove(next(e for e in entries if (e["nu"], e["k"]) == (1, 5)))
    table.write_text(json.dumps(payload))
    assert usage_error(["verify", "--table", str(table),
                        "--out", str(tmp_path / "v")], capsys, "exactly once")


def test_no_command_is_usage_error():
    assert main([]) == EXIT_USAGE


def test_unknown_command_is_usage_error():
    assert main(["frobnicate"]) == EXIT_USAGE


def test_zeros_command(tmp_path):
    out = tmp_path / "run"
    code = main(["zeros", "--nu", "1", "--k", "5", "--out", str(out)])
    assert code == EXIT_OK
    payload = json.loads((out / "zeros.json").read_text())
    assert len(payload["zeros"]) == 10  # nu in {0, 1}, k in 1..5
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "zeros"
    assert set(manifest["versions"]) == {"discsteer", "numpy", "scipy"}


def test_zeros_command_large_k(tmp_path):
    # every one of these zeros lies below 6.3e4, well inside bessel_j's range
    out = tmp_path / "run"
    assert main(["zeros", "--k", "20000", "--out", str(out)]) == EXIT_OK
    payload = json.loads((out / "zeros.json").read_text())
    assert len(payload["zeros"]) == 20000


def test_zeros_beyond_supported_range(tmp_path, capsys):
    # the 400000th zero lies near 1.26e6, past X_MAX_SUPPORTED = 1e6
    assert usage_error(["zeros", "--k", "400000", "--out", str(tmp_path)],
                       capsys)


def test_zeros_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    main(["zeros", "--k", "8", "--out", str(a)])
    main(["zeros", "--k", "8", "--out", str(b)])
    assert (a / "zeros.json").read_text() == (b / "zeros.json").read_text()


def test_zeros_bad_k(tmp_path):
    assert main(["zeros", "--k", "0", "--out", str(tmp_path)]) == EXIT_USAGE


def test_config_file_overrides_default(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"k": 3}))
    out = tmp_path / "run"
    assert main(["zeros", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    payload = json.loads((out / "zeros.json").read_text())
    assert len(payload["zeros"]) == 3


def test_missing_config_is_usage_error(tmp_path):
    assert main(["zeros", "--config", str(tmp_path / "none.json")]) == EXIT_USAGE


def test_verify_passes(tmp_path):
    out = tmp_path / "v"
    code = main(["verify", "--k", "20", "--out", str(out)])
    assert code == EXIT_OK
    report = json.loads((out / "verify_report.json").read_text())
    assert report["all_ok"]
    assert report["checks"]["zero_residual"]["value"] <= 1e-11
    assert report["checks"]["nonresonance"]["value"] > 1e-6


def test_verify_reads_table_with_tol_key(tmp_path):
    # older table files also carry a "tol" key; it is ignored, and the zeros
    # are certified against the fixed bound
    table = tmp_path / "zeros.json"
    compute_zeros(0, 12).to_json(table)
    payload = json.loads(table.read_text())
    assert "tol" not in payload
    table.write_text(json.dumps({"tol": 1e-12, "zeros": payload["zeros"]}))
    out = tmp_path / "v"
    assert main(["verify", "--table", str(table), "--out", str(out)]) == EXIT_OK
    report = json.loads((out / "verify_report.json").read_text())
    assert report["checks"]["zero_residual"]["bound"] == ZERO_RESIDUAL_MAX


@pytest.mark.parametrize("shift", [1e-4, 1e-10])
def test_verify_detects_corrupt_table(tmp_path, shift):
    # perturb one tabulated zero: certification must fail with exit code 1,
    # also when only the zero residual (2.3e-11 against 1e-11) shows it
    out = tmp_path / "good"
    main(["zeros", "--k", "12", "--out", str(out)])
    payload = json.loads((out / "zeros.json").read_text())
    payload["zeros"][3]["value"] += shift
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    code = main(["verify", "--k", "12", "--table", str(bad),
                 "--out", str(tmp_path / "vr")])
    assert code == EXIT_VERIFY
    report = json.loads((tmp_path / "vr" / "verify_report.json").read_text())
    assert not report["checks"]["zero_residual"]["ok"]


def test_verify_coupling_bounds_detect_misordered_zero(tmp_path):
    # j_{0,5} set below j_{0,4} lifts s_p(5) = j_5^3 |M_p5| above s_p(4),
    # out of the uniform bounds [8 j_{0,p}, s_p(4)]
    tab = compute_zeros(0, 12)
    table = tmp_path / "zeros.json"
    tab.to_json(table)
    payload = json.loads(table.read_text())
    assert (payload["zeros"][4]["nu"], payload["zeros"][4]["k"]) == (0, 5)
    payload["zeros"][4]["value"] = tab[(0, 4)] - 0.5
    table.write_text(json.dumps(payload))
    out = tmp_path / "v"
    assert main(["verify", "--table", str(table), "--out", str(out)]) == EXIT_VERIFY
    report = json.loads((out / "verify_report.json").read_text())
    bounds = report["checks"]["coupling_bounds"]
    # the lower margin stays positive: the upper bound s_p(4) catches it
    assert not bounds["ok"] and bounds["value"] > 0
    for p in (1, 2, 3):
        assert report["coupling_bounds"][f"p{p}"]["lower"] == 8 * tab.row(0)[p - 1]


def test_synthesize_requires_target(tmp_path):
    assert main(["synthesize", "--out", str(tmp_path)]) == EXIT_USAGE


def test_synthesize_and_simulate(tmp_path):
    # a small end-to-end run through the CLI with a tangent-safe target
    psif = np.zeros(12, dtype=complex)
    psif[4] = 1e-3
    state_path = tmp_path / "psif.json"
    RadialState(psif).to_json(state_path)
    out = tmp_path / "syn"
    code = main(["synthesize", "--psif", str(state_path), "--N", "12",
                 "--K", "8", "--out", str(out)])
    assert code == EXIT_OK
    report = json.loads((out / "synthesize_report.json").read_text())
    assert report["endpoint_error"] < 1e-4
    rows = (out / "control_v.csv").read_text().strip().splitlines()
    assert rows[0] == "t,v"
    assert len(rows) == 2050

    state0 = tmp_path / "state0.json"
    RadialState(np.eye(1, 12, 0)[0].astype(complex)).to_json(state0)
    sim_out = tmp_path / "sim"
    code = main(["simulate", "--state0", str(state0), "--N", "12",
                 "--steps", "4096", "--out", str(sim_out)])
    assert code == EXIT_OK
    run = json.loads((sim_out / "run.json").read_text())
    assert run["norm_drift"] <= 1e-10


def test_ill_conditioned_synthesis_is_numerical_failure(tmp_path, capsys):
    # below T ~ 0.25 the Gram solve (cond 6e9) loses v's zero mean to
    # rounding: a conditioning failure, exit 3, not a usage error
    psif = np.zeros(12, dtype=complex)
    psif[4] = 1e-3
    state_path = tmp_path / "psif.json"
    RadialState(psif).to_json(state_path)
    code = main(["synthesize", "--psif", str(state_path), "--T", "0.22",
                 "--N", "12", "--K", "12", "--out", str(tmp_path / "syn")])
    err = capsys.readouterr().err
    assert code == EXIT_NUMERICAL
    assert err.startswith("numerical failure: ") and "condition number" in err


def test_simulate_requires_state(tmp_path):
    assert main(["simulate", "--out", str(tmp_path)]) == EXIT_USAGE


def test_radius_round_trip_via_cli(tmp_path):
    ts = np.linspace(0, 1, 513)
    u = 0.05 * np.sin(2 * np.pi * ts)
    csv_path = tmp_path / "u.csv"
    lines = ["t,u"] + [f"{t:.16e},{v:.16e}" for t, v in zip(ts, u)]
    csv_path.write_text("\n".join(lines) + "\n")
    out = tmp_path / "r"
    code = main(["radius", "--control", str(csv_path), "--out", str(out)])
    assert code == EXIT_OK
    rows = (out / "radius.csv").read_text().strip().splitlines()
    assert rows[0] == "tau,R"
    first = [float(x) for x in rows[1].split(",")]
    last = [float(x) for x in rows[-1].split(",")]
    assert first[1] == pytest.approx(1.0, abs=1e-8)
    assert last[1] == pytest.approx(1.0, abs=1e-6)


def test_radius_requires_control(tmp_path):
    assert main(["radius", "--out", str(tmp_path)]) == EXIT_USAGE


def test_radius_rejects_header_only_csv(tmp_path, capsys):
    csv_path = tmp_path / "u.csv"
    csv_path.write_text("t,u\n")
    assert usage_error(["radius", "--control", str(csv_path),
                        "--out", str(tmp_path / "o")], capsys)


def test_radius_rejects_nan_in_csv(tmp_path, capsys):
    csv_path = tmp_path / "u.csv"
    csv_path.write_text("t,u\n0.0,0.0\n0.5,nan\n1.0,0.0\n")
    assert usage_error(["radius", "--control", str(csv_path),
                        "--out", str(tmp_path / "o")], capsys)


@pytest.mark.parametrize("text", ["[1, 2]", "[[NaN, 0]]"])
def test_simulate_rejects_malformed_state(tmp_path, capsys, text):
    state0 = tmp_path / "state0.json"
    state0.write_text(text)
    assert usage_error(["simulate", "--state0", str(state0), "--N", "4",
                        "--steps", "16", "--out", str(tmp_path / "o")], capsys)


def test_radius_rejects_nonuniform_grid(tmp_path):
    csv_path = tmp_path / "u.csv"
    csv_path.write_text("t,u\n0.0,0.0\n0.3,0.1\n1.0,0.0\n")
    assert main(["radius", "--control", str(csv_path),
                 "--out", str(tmp_path / "o")]) == EXIT_USAGE


def test_steer_exit_code_paths(tmp_path):
    assert main(["steer", "--out", str(tmp_path)]) == EXIT_USAGE


def test_steer_steps_flag(tmp_path):
    # zero iterations cannot converge (exit 3), but the run and its manifest
    # are written with the flag's value
    state = tmp_path / "state.json"
    RadialState(np.eye(1, 6, 0)[0].astype(complex)).to_json(state)
    out = tmp_path / "s"
    code = main(["steer", "--N", "6", "--K", "4", "--iterations", "0",
                 "--steps", "64", "--psi0", str(state), "--psif", str(state),
                 "--out", str(out)])
    assert code == EXIT_NUMERICAL
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["steps"] == 64
    assert set(manifest["input_hashes"]) == {"psi0", "psif"}
    # the report: the Newton history, the control and the radius horizon
    report = json.loads((out / "steer_report.json").read_text())
    assert list(report) == ["converged", "iterations", "residual_history",
                            "control_samples", "horizon", "T_star"]
    assert report["converged"] is False and report["iterations"] == 0
    assert len(report["residual_history"]) == 1
    assert report["control_samples"] == [0.0] * 2049
    assert report["horizon"] == 1.0
    assert report["T_star"] == pytest.approx(0.25, abs=1e-12)


@pytest.mark.parametrize("n", ["0", "-3"])
def test_simulate_needs_a_mode(tmp_path, capsys, n):
    state0 = tmp_path / "state0.json"
    RadialState([1.0]).to_json(state0)
    assert usage_error(["simulate", "--state0", str(state0), "--N", n,
                        "--steps", "16", "--out", str(tmp_path / "o")],
                       capsys, "N >= 1")


def test_synthesize_needs_three_modes(tmp_path, capsys):
    psif = tmp_path / "psif.json"
    RadialState([0.0, 0.0]).to_json(psif)
    assert usage_error(["synthesize", "--psif", str(psif), "--N", "2",
                        "--K", "2", "--out", str(tmp_path / "o")],
                       capsys, "at least 3 eigenvalues")


def test_steer_needs_a_mode(tmp_path, capsys):
    state = tmp_path / "state.json"
    RadialState([1.0]).to_json(state)
    assert usage_error(["steer", "--N", "0", "--K", "0", "--psi0",
                        str(state), "--psif", str(state),
                        "--out", str(tmp_path / "o")],
                       capsys, "N >= 1")


@pytest.mark.parametrize("command, flags", [
    ("synthesize", ["--K", "10", "--psif", "STATE"]),
    ("simulate", ["--steps", "16", "--state0", "STATE"]),
    ("steer", ["--K", "10", "--iterations", "0", "--steps", "64",
               "--psi0", "STATE", "--psif", "STATE"]),
])
def test_modes_beyond_n(tmp_path, capsys, command, flags):
    # a 40-mode state at N = 10: mode 31 cannot be dropped silently
    c = np.zeros(40, dtype=complex)
    c[[3, 30]] = 1e-3
    state = tmp_path / "state.json"
    RadialState(c).to_json(state)
    flags = [str(state) if f == "STATE" else f for f in flags]
    assert usage_error([command, "--N", "10", *flags,
                        "--out", str(tmp_path / "o")],
                       capsys, "beyond the truncation N=10")


@pytest.mark.parametrize("command, K", [("synthesize", "-5"), ("synthesize", "0"),
                                        ("steer", "-2"), ("steer", "7"),
                                        ("steer", "1"), ("steer", "2")])
def test_coverage_outside_one_to_n(tmp_path, capsys, monkeypatch, command, K):
    # K must lie in 3..N, refused before any endpoint map is paid for
    calls = []
    monkeypatch.setattr(control, "endpoint_map",
                        lambda *args, **kwargs: calls.append(args))
    state = tmp_path / "state.json"
    RadialState(np.eye(1, 6, 0)[0].astype(complex)).to_json(state)
    steer_only = ["--iterations", "0", "--steps", "64"] if command == "steer" \
        else []
    assert usage_error([command, "--N", "6", "--K", K, *steer_only,
                        "--psi0", str(state), "--psif", str(state),
                        "--out", str(tmp_path / "o")],
                       capsys, "must lie in 3..N=6")
    assert calls == []


@pytest.mark.parametrize("k", ["1", "2", "3"])
def test_verify_needs_four_zeros(tmp_path, capsys, k):
    assert usage_error(["verify", "--k", k, "--out", str(tmp_path)],
                       capsys, "k_max >= 4")


def test_verify_table_without_zeros(tmp_path, capsys):
    table = tmp_path / "zeros.json"
    table.write_text(json.dumps({"tol": 1e-12, "zeros": []}))
    assert usage_error(["verify", "--table", str(table),
                        "--out", str(tmp_path / "v")],
                       capsys, "holds no zeros")


@pytest.mark.parametrize("command", ["synthesize", "steer"])
@pytest.mark.parametrize("T", ["nan", "inf"])
def test_non_finite_horizon(tmp_path, capsys, command, T):
    state = tmp_path / "state.json"
    RadialState(np.eye(1, 6, 0)[0].astype(complex)).to_json(state)
    assert usage_error([command, "--N", "6", "--K", "4", "--T", T,
                        "--psi0", str(state), "--psif", str(state),
                        "--out", str(tmp_path / "o")],
                       capsys, "finite and positive")


@pytest.mark.parametrize("command, flags", [
    ("zeros", ["--k", "4"]),
    ("verify", ["--k", "4"]),
    ("synthesize", ["--N", "6", "--K", "4", "--psif", "STATE"]),
    ("simulate", ["--N", "6", "--steps", "64", "--state0", "STATE"]),
    ("steer", ["--N", "6", "--K", "4", "--iterations", "0", "--steps", "64",
               "--psi0", "STATE", "--psif", "STATE"]),
    ("radius", ["--control", "CONTROL"]),
])
def test_manifest_lists_every_output(tmp_path, command, flags):
    # the manifest names each file the command wrote, once, and no other
    c = np.zeros(6, dtype=complex)
    c[3] = 1e-3
    inputs = {"STATE": tmp_path / "state.json", "CONTROL": tmp_path / "u.csv"}
    RadialState(c).to_json(inputs["STATE"])
    ts = np.linspace(0, 1, 65)
    inputs["CONTROL"].write_text("t,u\n" + "".join(
        f"{t:.16e},{0.01 * np.sin(2 * np.pi * t):.16e}\n" for t in ts))
    out = tmp_path / "o"
    code = main([command, *[str(inputs.get(f, f)) for f in flags],
                 "--out", str(out)])
    assert code in (EXIT_OK, EXIT_NUMERICAL)  # steer: zero iterations
    outputs = json.loads((out / "manifest.json").read_text())["outputs"]
    assert sorted(outputs) == sorted(p.name for p in out.iterdir()
                                     if p.name != "manifest.json")
