import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import conegate
from conegate import cli, propagation
from conegate.cli import CSV_CHUNK_ROWS, MAX_SWEEP_POINTS, RunConfig, _write_output, main
from conegate.phases import cone_eigenstate
from conegate.propagation import (
    adiabatic_error,
    loop_duration,
    propagator_compensated,
    propagator_uncompensated,
)
from conegate.hamiltonians import FieldParams
from conegate.sequences import s_operation_angles, s_operation_params


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    rows = [dict(zip(header, (float(x) for x in ln.split(",")))) for ln in lines[1:]]
    return header, rows


def loop_schedule_doc(omega0=1.0, omega1=1.0, gamma=-2.0, compensated=True):
    omega_z = gamma if compensated else 0.0
    return {
        "frame": "single-qubit",
        "steps": [
            {
                "op": "loop",
                "revolutions": 1.0,
                "compensated": compensated,
                "loop": {
                    "omega0": omega0,
                    "omega1": omega1,
                    "gamma": gamma,
                    "omega_z": omega_z,
                    "phase0": 0.0,
                },
            }
        ],
    }


class TestScurve:
    def test_single_point_matches_solver(self, capsys):
        code, out, _ = run_cli(
            ["scurve", "--delta-over-j", "1.058", "--omega1-range", "1:1:1"], capsys
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["omega1_over_J", "delta_over_J", "J_tc", "phi_prime_rad"]
        sol = s_operation_params(1.058, 1.0, 1.0)
        assert rows[0]["J_tc"] == pytest.approx(sol.t_c, rel=1e-11)
        assert rows[0]["phi_prime_rad"] == pytest.approx(sol.phi_prime, rel=1e-11)

    def test_sweep_is_monotone(self, capsys):
        code, out, _ = run_cli(
            ["scurve", "--delta-over-j", "1.058", "--omega1-range", "0.5:10:0.5"],
            capsys,
        )
        assert code == 0
        _, rows = parse_csv(out)
        j_tc = [r["J_tc"] for r in rows]
        phi = [r["phi_prime_rad"] for r in rows]
        assert all(a > b for a, b in zip(j_tc, j_tc[1:]))
        assert all(a > b for a, b in zip(phi, phi[1:]))

    def test_grid_mode(self, capsys):
        code, out, _ = run_cli(
            ["scurve", "--delta-over-j", "0.5:2.5:1", "--omega1-range", "1:3:1"],
            capsys,
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 9
        deltas = sorted({r["delta_over_J"] for r in rows})
        assert deltas == [0.5, 1.5, 2.5]

    def test_deterministic_output(self, capsys):
        args = ["scurve", "--delta-over-j", "1.058", "--omega1-range", "0.5:5:0.25"]
        _, first, _ = run_cli(args, capsys)
        _, second, _ = run_cli(args, capsys)
        assert first == second

    def test_empty_range_rejected(self, capsys):
        code, _, err = run_cli(
            ["scurve", "--delta-over-j", "1.0", "--omega1-range", "5:1:1"], capsys
        )
        assert code == 2
        assert "range" in err

    def test_header_echoes_config(self, capsys):
        _, out, _ = run_cli(
            ["scurve", "--delta-over-j", "1.058", "--omega1-range", "1:2:1"], capsys
        )
        assert "# conegate " in out
        assert "# command = scurve" in out

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            ["scurve", "--delta-over-j", "1.058", "--omega1-range", "1:2:1",
             "--format", "json"], capsys
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["command"] == "scurve"
        assert len(doc["columns"]["J_tc"]) == 2


class TestEvolve:
    def test_compensated_loop_returns_to_start(self, tmp_path, capsys):
        path = tmp_path / "loop.json"
        path.write_text(json.dumps(loop_schedule_doc()))
        code, out, err = run_cli(
            ["evolve", "--schedule", str(path), "--steps", "20000"], capsys
        )
        assert code == 0
        assert "warning" not in err
        _, rows = parse_csv(out)
        first, last = rows[0], rows[-1]
        for axis in ("bloch_x", "bloch_y", "bloch_z"):
            assert abs(first[axis] - last[axis]) < 1e-8
        # the compensated loop is dynamical-phase-free
        assert abs(last["dynamical_phase"]) < 1e-7

    def test_uncompensated_loop_displaced(self, tmp_path, capsys):
        doc = loop_schedule_doc(gamma=0.5, compensated=False)
        path = tmp_path / "loop.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(
            ["evolve", "--schedule", str(path), "--steps", "20000"], capsys
        )
        assert code == 0
        assert "not cyclic" in err
        _, rows = parse_csv(out)
        first, last = rows[0], rows[-1]
        displacement = max(
            abs(first[a] - last[a]) for a in ("bloch_x", "bloch_y", "bloch_z")
        )
        assert displacement > 0.01
        psi0 = np.array([rows[0]["re_amp0"] + 1j * rows[0]["im_amp0"],
                         rows[0]["re_amp1"] + 1j * rows[0]["im_amp1"]])
        psi1 = np.array([last["re_amp0"] + 1j * last["im_amp0"],
                         last["re_amp1"] + 1j * last["im_amp1"]])
        infidelity = 1 - abs(psi0.conj() @ psi1) ** 2
        expected = adiabatic_error(FieldParams(1.0, 1.0, 0.5))
        assert infidelity == pytest.approx(expected, abs=1e-6)

    @pytest.mark.parametrize("schedule", ["uncompensated", "tilted"])
    def test_cyclicity_warning_names_what_it_measured(self, schedule, tmp_path, capsys):
        # the tilted schedule's loop is exact; its RotY pair leaves the run
        # non-cyclic, so the warning must not blame the loop
        from conegate.gates import phase_gate_recipe
        from conegate.sequences import sequence_to_dict

        doc = (loop_schedule_doc(gamma=0.5, compensated=False) if schedule == "uncompensated"
               else sequence_to_dict(phase_gate_recipe(1.0).sequence))
        path = tmp_path / "schedule.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(["evolve", "--schedule", str(path), "--steps", "2000"], capsys)
        assert code == 0
        assert err.startswith("warning: schedule is not cyclic: final-state overlap defect ")
        assert "loop" not in err

    def test_initial_state_is_loop_eigenstate(self, tmp_path, capsys):
        path = tmp_path / "loop.json"
        path.write_text(json.dumps(loop_schedule_doc()))
        _, out, _ = run_cli(["evolve", "--schedule", str(path), "--steps", "1000"], capsys)
        _, rows = parse_csv(out)
        geom = cone_eigenstate(1.0, 1.0)
        assert rows[0]["re_amp0"] == pytest.approx(geom.psi0[0].real, abs=1e-12)
        assert rows[0]["re_amp1"] == pytest.approx(geom.psi0[1].real, abs=1e-12)

    def test_bloch_columns_take_one_call_per_trajectory(self, tmp_path, capsys,
                                                        monkeypatch):
        import conegate.cli

        shapes = []
        stacked = conegate.cli.bloch_vector
        monkeypatch.setattr(conegate.cli, "bloch_vector",
                            lambda psi: shapes.append(np.shape(psi)) or stacked(psi))
        path = tmp_path / "loop.json"
        path.write_text(json.dumps(loop_schedule_doc()))
        code, out, _ = run_cli(["evolve", "--schedule", str(path), "--steps", "1000"], capsys)
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) > 2
        assert shapes == [(len(rows), 2)]

    def test_empty_schedule_header_only(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"frame": "single-qubit", "steps": []}))
        code, out, _ = run_cli(["evolve", "--schedule", str(path)], capsys)
        assert code == 0
        header, rows = parse_csv(out)
        assert rows == []
        assert header[0] == "t"

    def test_parse_error_names_position(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"frame": "single-qubit",\n "steps": [}')
        code, _, err = run_cli(["evolve", "--schedule", str(path)], capsys)
        assert code == 2
        assert "line 2" in err and "column" in err

    def test_two_qubit_schedule(self, tmp_path, capsys):
        from conegate.phases import (
            canonical_phase,
            geometric_phase_cone,
            two_qubit_loop_params,
        )
        from conegate.sequences import build_conditional_loop, sequence_to_dict

        delta = 1.058
        doc = sequence_to_dict(build_conditional_loop(delta, 1.0))
        path = tmp_path / "cond.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(
            ["evolve", "--schedule", str(path), "--steps", "4000"], capsys
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert "bloch_x" not in header  # two-qubit trajectories carry amplitudes only
        assert "re_amp3" in header
        last = rows[-1]
        # |b-up, a-up> picks up the b-up sector phase; everything is
        # dynamical-phase-free along the way
        final = last["re_amp0"] + 1j * last["im_amp0"]
        setting = two_qubit_loop_params(delta, 1.0)
        expected = geometric_phase_cone(setting.theta_plus)
        assert abs(abs(final) - 1.0) < 1e-6
        assert abs(canonical_phase(np.angle(final) - expected)) < 1e-5
        assert abs(last["dynamical_phase"]) < 1e-6

    def test_t_end_crops_rows(self, tmp_path, capsys):
        path = tmp_path / "loop.json"
        path.write_text(json.dumps(loop_schedule_doc()))
        _, full, _ = run_cli(["evolve", "--schedule", str(path), "--steps", "1000"], capsys)
        _, cropped, _ = run_cli(
            ["evolve", "--schedule", str(path), "--steps", "1000", "--t-end", "1.0"],
            capsys,
        )
        _, rows_full = parse_csv(full)
        _, rows_cropped = parse_csv(cropped)
        assert rows_cropped[-1]["t"] <= 1.0 + 1e-12
        assert len(rows_cropped) < len(rows_full)


class TestGateCommand:
    def test_cnot_passes(self, capsys):
        code, out, _ = run_cli(["gate", "cnot", "--steps", "5000"], capsys)
        assert code == 0
        assert "simulated fidelity" in out
        fid = float(out.rsplit("=", 1)[1])
        assert fid >= 1 - 1e-5

    def test_phase_identity_report(self, capsys):
        code, out, _ = run_cli(
            ["gate", "phase", "--theta", str(np.pi / 2)], capsys
        )
        assert code == 0
        assert "simulated fidelity = 1" in out

    def test_phase_gate_report(self, capsys):
        code, out, _ = run_cli(
            ["gate", "phase", "--theta", "1.0", "--steps", "5000"], capsys
        )
        assert code == 0
        assert "theta0 = 1" in out

    def test_hadamard_reports_parameters(self, capsys):
        code, out, _ = run_cli(["gate", "hadamard", "--steps", "5000"], capsys)
        assert code == 0
        assert "theta0 = 1.30599941297" in out

    def test_json_format_is_refused(self, tmp_path, capsys):
        code, out, err = run_cli(["gate", "cnot", "--format", "json"], capsys)
        assert code == 2
        assert out == ""
        assert "--format 'json'" in err
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"format": "json"}))
        code, out, err = run_cli(["gate", "cnot", "--config", str(cfg)], capsys)
        assert code == 2
        assert "--format 'json'" in err

    def test_unknown_gate_rejected(self, capsys):
        code = main(["gate", "swap"])
        capsys.readouterr()
        assert code == 2

    def test_cphase(self, capsys):
        code, out, _ = run_cli(
            ["gate", "cphase", "--delta-over-j", "1.058", "--steps", "5000"], capsys
        )
        assert code == 0
        assert "delta = 1.058" in out


class TestGateOutcomes:
    """The two branches of cmd_gate that leave the usual report: a program
    whose simulated fidelity misses the gate, and the degenerate tilt of
    the phase gate, whose identity needs no loop."""

    def test_a_failed_verification_exits_3(self, capsys):
        code, out, err = run_cli(["gate", "phase", "--steps", "2"], capsys)
        assert code == 3
        assert out.startswith("# conegate ") and "target matrix:" in out
        label, fidelity = out.splitlines()[-1].split(" = ")
        assert label == "simulated fidelity"
        assert float(fidelity) < 0.99999
        assert err == f"verification FAILED: fidelity {fidelity} below 0.99999\n"

    def test_the_degenerate_tilt_integrates_nothing(self, monkeypatch, capsys):
        from conegate import sequences

        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return propagation._integrate(*args, **kwargs)

        monkeypatch.setattr(sequences, "_integrate", counting)
        theta = ["gate", "phase", "--theta", "1.5707963267948966"]
        code, out, err = run_cli(theta, capsys)
        assert (code, err) == (0, "")
        assert "  note = degenerate tilt: identity gate, no loop is required" in out.splitlines()
        assert out.endswith("\nsimulated fidelity = 1\n")
        code, many, err = run_cli(theta + ["--loops", "50000000"], capsys)
        assert (code, err) == (0, "")
        assert many == (out.replace("# format = csv\n", "# format = csv\n# loops = 50000000\n")
                        .replace("  loops = 1\n", "  loops = 50000000\n"))
        assert calls == []
        run_cli(["gate", "phase", "--theta", "1.0", "--steps", "100"], capsys)
        assert len(calls) == 1  # the counter sees a tilt that needs its loop


class TestVerifyOnce:
    @staticmethod
    def count_verifies(monkeypatch):
        from conegate import cli, gates

        calls = []
        original = gates.verify_gate

        def counting(recipe, steps_per_loop=10_000):
            calls.append((recipe.target, steps_per_loop))
            return original(recipe, steps_per_loop=steps_per_loop)

        monkeypatch.setattr(gates, "verify_gate", counting)
        monkeypatch.setattr(cli, "verify_gate", counting)
        return calls

    @pytest.mark.parametrize("name", ["not", "hadamard", "cnot"])
    def test_gate_is_verified_once(self, name, monkeypatch, capsys):
        from conegate import gates

        calls = self.count_verifies(monkeypatch)
        code, out, _ = run_cli(["gate", name, "--steps", "3000"], capsys)
        assert code == 0
        target = {"not": gates.NOT_TARGET, "hadamard": gates.HADAMARD, "cnot": gates.CNOT_TARGET}
        assert [steps for _, steps in calls] == [3000]
        assert np.array_equal(calls[0][0], target[name])


class TestZeroValuedFlags:
    """A given 0 is validated, never swapped for the default."""

    @pytest.mark.parametrize(
        "argv, field",
        [
            (["gate", "phase", "--theta", "0"], "--theta"),
            (["gate", "phase", "--loops", "0"], "--loops"),
            (["gate", "cphase", "--delta-over-j", "0"], "--delta-over-j"),
            (["compare-adiabatic", "--theta", "0", "--gamma-range", "0.1:0.2:0.1"],
             "theta"),
        ],
    )
    def test_zero_is_rejected(self, argv, field, capsys):
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert field in err


class TestCompareAdiabatic:
    def test_columns_and_claims(self, capsys):
        code, out, _ = run_cli(
            ["compare-adiabatic", "--gamma-range", "0.01:0.5:0.49"], capsys
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == [
            "gamma_over_omega0",
            "infidelity_uncompensated",
            "infidelity_compensated",
        ]
        slow, fast = rows[0], rows[1]
        assert fast["infidelity_uncompensated"] > slow["infidelity_uncompensated"]
        assert slow["infidelity_uncompensated"] < 1e-3
        for row in rows:
            assert row["infidelity_compensated"] < 1e-10

    def test_zero_speed_rejected(self, capsys):
        code, _, err = run_cli(
            ["compare-adiabatic", "--gamma-range", "0:0.5:0.5"], capsys
        )
        assert code == 2

    def test_underflowing_speed_names_both_flags(self, capsys):
        # each flag passes its own check; gamma cos(theta) rounds to 0
        code, out, err = run_cli(["compare-adiabatic", "--theta", "1.5707963267948963",
                                  "--gamma-range", "5e-309:5e-309:1"], capsys)
        assert (code, out) == (2, "")
        assert "--gamma-range" in err and "--theta" in err
        assert "gamma 5e-309 times cos(theta)" in err


class TestConfigPlumbing:
    def test_config_file_supplies_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"delta_over_j": "1.058", "omega1_range": "1:2:1"}))
        code, out, _ = run_cli(["scurve", "--config", str(cfg)], capsys)
        assert code == 0
        assert "# delta_over_j = 1.058" in out

    def test_flags_override_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"delta_over_j": "9.9", "omega1_range": "1:2:1"}))
        code, out, _ = run_cli(
            ["scurve", "--config", str(cfg), "--delta-over-j", "1.058"], capsys
        )
        assert code == 0
        assert "# delta_over_j = 1.058" in out

    @pytest.mark.parametrize(
        "doc, argv, keys",
        [
            ({"stpes": 100, "command": "scurve"}, ["gate", "phase"], "'command', 'stpes'"),
            ({"config": "other.json"}, ["gate", "phase"], "'config'"),
            ({"omega1_range": "1:2:1"}, ["gate", "hadamard"], "'omega1_range'"),
            ({"t_end": 1.0, "delta_over_j": "1.058", "omega1_range": "1:2:1"}, ["scurve"],
             "'t_end'"),
            ({"name": "cnot"}, ["gate", "phase"], "'name'"),
            ({"seed": 1}, ["gate", "phase"], "'seed'"),
        ],
    )
    def test_unknown_config_key_exits_2_naming_it(self, doc, argv, keys, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        code, out, err = run_cli(argv + ["--config", str(cfg)], capsys)
        assert code == 2
        assert out == ""
        assert err == f"error: unknown config key(s) for {argv[0]}: {keys}\n"

    def test_env_var_sets_steps(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("CONEGATE_STEPS", "777")
        code, out, _ = run_cli(
            ["scurve", "--delta-over-j", "1.0", "--omega1-range", "1:1:1"], capsys
        )
        assert code == 0
        assert "# steps = 777" in out

    def test_invalid_env_var(self, capsys, monkeypatch):
        monkeypatch.setenv("CONEGATE_STEPS", "many")
        code, _, err = run_cli(
            ["scurve", "--delta-over-j", "1.0", "--omega1-range", "1:1:1"], capsys
        )
        assert code == 2
        assert "CONEGATE_STEPS" in err

    def test_output_file(self, tmp_path, capsys):
        out_path = tmp_path / "sweep.csv"
        code, out, _ = run_cli(
            ["scurve", "--delta-over-j", "1.058", "--omega1-range", "1:2:1",
             "--out", str(out_path)], capsys
        )
        assert code == 0
        assert out == ""
        text = out_path.read_text()
        assert text.startswith("# conegate")

    def test_missing_required_flag(self, capsys):
        code, _, err = run_cli(["scurve", "--omega1-range", "1:2:1"], capsys)
        assert code == 2
        assert "delta-over-j" in err


def _stdout(*lines: str) -> str:
    return "\n".join([f"# conegate {__import__('conegate').__version__}", *lines]) + "\n"


_SCURVE_ROW = ["omega1_over_J,delta_over_J,J_tc,phi_prime_rad",
               "1,1.058,0.530275060261,0.588210153884"]
_COMPARE_ROWS = ["gamma_over_omega0,infidelity_uncompensated,infidelity_compensated",
                 "0.1,0.0016702316939,0", "0.2,0.00623073648608,0"]
_EVOLVE_COLUMNS = ["t,re_amp0,im_amp0,re_amp1,im_amp1,bloch_x,bloch_y,bloch_z,dynamical_phase"]


class TestHeaderEcho:
    """The header echoes a command-line number as parsed and every other
    given value as given; of the defaults it shows format and steps only."""

    @pytest.mark.parametrize(
        "argv, doc, env, expected",
        [
            (["gate", "phase", "--theta", "1", "--steps", "0500", "--loops", "02"], None, None,
             _stdout("# command = gate", "# format = csv", "# loops = 2", "# name = phase",
                     "# steps = 500", "# theta = 1.0", "target matrix:",
                     "-0.968109+0.250529j  +0.000000+0.000000j",
                     "+0.000000+0.000000j  -0.968109-0.250529j", "parameters:",
                     "  loops = 2", "  theta0 = 1", "  tilt = 1",
                     "simulated fidelity = 0.999999999875")),
            (["gate", "cphase", "--delta-over-j", "1.0580", "--steps", "300"], None, None,
             _stdout("# command = gate", "# delta_over_j = 1.058", "# format = csv",
                     "# name = cphase", "# steps = 300", "target matrix:",
                     "+0.999060+0.043341j  +0.000000+0.000000j  +0.000000+0.000000j  "
                     "+0.000000+0.000000j",
                     "+0.000000+0.000000j  +0.999060-0.043341j  +0.000000+0.000000j  "
                     "+0.000000+0.000000j",
                     "+0.000000+0.000000j  +0.000000+0.000000j  -0.867758+0.496987j  "
                     "+0.000000+0.000000j",
                     "+0.000000+0.000000j  +0.000000+0.000000j  +0.000000+0.000000j  "
                     "-0.867758-0.496987j",
                     "parameters:", "  delta = 1.058", "  gamma = -2.116",
                     "  gamma_minus_phase = -3.66171562839",
                     "  gamma_plus_phase = -6.23983029654", "  j = 1",
                     "  omega1 = 0.345490955019", "  theta_minus = 1.40447021732",
                     "  theta_plus = 0.166326109475",
                     "simulated fidelity = 0.999999999977")),
            (["gate", "phase", "--steps", "300"], {"theta": "1"}, None,
             _stdout("# command = gate", "# format = csv", "# name = phase", "# steps = 300",
                     "# theta = 1", "target matrix:",
                     "-0.126275-0.991995j  +0.000000+0.000000j",
                     "+0.000000+0.000000j  -0.126275+0.991995j", "parameters:",
                     "  loops = 1", "  theta0 = 1", "  tilt = 1",
                     "simulated fidelity = 0.999999999725")),
            (["gate", "phase", "--steps", "300"], None, None,
             _stdout("# command = gate", "# format = csv", "# name = phase", "# steps = 300",
                     "target matrix:", "-0.000000-1.000000j  +0.000000+0.000000j",
                     "+0.000000+0.000000j  -0.000000+1.000000j", "parameters:",
                     "  loops = 1", "  theta0 = 1.0471975512", "  tilt = 1.0471975512",
                     "simulated fidelity = 0.999999999737")),
            (["scurve", "--delta-over-j", "1.0580", "--omega1-range", "1:1:1"], None, None,
             _stdout("# command = scurve", "# delta_over_j = 1.0580", "# format = csv",
                     "# omega1_range = 1:1:1", "# steps = 10000", *_SCURVE_ROW)),
            (["scurve"], {"steps": 300.0, "delta_over_j": 1.058, "omega1_range": "1:1:1"}, None,
             _stdout("# command = scurve", "# delta_over_j = 1.058", "# format = csv",
                     "# omega1_range = 1:1:1", "# steps = 300.0", *_SCURVE_ROW)),
            (["scurve", "--steps", "0400", "--format", "json"],
             {"steps": 300.0, "delta_over_j": "1.0580", "omega1_range": "1:1:1"}, None,
             "\n".join(["{", '  "columns": {', '    "J_tc": [', "      0.5302750602609773",
                        "    ],", '    "delta_over_J": [', "      1.058", "    ],",
                        '    "omega1_over_J": [', "      1.0", "    ],",
                        '    "phi_prime_rad": [', "      0.5882101538843943", "    ]", "  },",
                        '  "command": "scurve",', '  "config": {',
                        '    "delta_over_j": "1.0580",', '    "format": "json",',
                        '    "omega1_range": "1:1:1",', '    "steps": 400', "  },",
                        f'  "tool": "conegate {__import__("conegate").__version__}"', "}", ""])),
            (["scurve", "--delta-over-j", "1.058", "--omega1-range", "1:1:1"], None, "0300",
             _stdout("# command = scurve", "# delta_over_j = 1.058", "# format = csv",
                     "# omega1_range = 1:1:1", "# steps = 300", *_SCURVE_ROW)),
            (["compare-adiabatic", "--theta", "0.60", "--gamma-range", "0.1:0.2:0.1",
              "--out", ""], None, None,
             _stdout("# command = compare-adiabatic", "# format = csv",
                     "# gamma_range = 0.1:0.2:0.1", "# out = ", "# steps = 10000",
                     "# theta = 0.6", *_COMPARE_ROWS)),
            (["compare-adiabatic", "--gamma-range", "0.1:0.2:0.1"], {"theta": 0.6, "out": ""},
             "250",
             _stdout("# command = compare-adiabatic", "# format = csv",
                     "# gamma_range = 0.1:0.2:0.1", "# out = ", "# steps = 250",
                     "# theta = 0.6", *_COMPARE_ROWS)),
            (["compare-adiabatic", "--gamma-range", "0.1:0.2:0.1"], None, None,
             _stdout("# command = compare-adiabatic", "# format = csv",
                     "# gamma_range = 0.1:0.2:0.1", "# steps = 10000",
                     *_COMPARE_ROWS[:1],
                     "0.1,0.00270420697247,2.22044604925e-16", "0.2,0.0110999920968,0")),
            (["evolve", "--schedule", "empty.json", "--t-end", "1"], None, None,
             _stdout("# command = evolve", "# format = csv", "# schedule = empty.json",
                     "# steps = 10000", "# t_end = 1.0", *_EVOLVE_COLUMNS)),
            (["evolve", "--schedule", "empty.json"], {"t_end": 1}, None,
             _stdout("# command = evolve", "# format = csv", "# schedule = empty.json",
                     "# steps = 10000", "# t_end = 1", *_EVOLVE_COLUMNS)),
        ],
        ids=["flag-numbers", "gate-delta-flag", "config-theta-text", "theta-default-hidden",
             "scurve-delta-flag-text", "config-raw", "json-flags-over-config", "env-steps",
             "out-empty-flag", "out-empty-config-env", "compare-defaults",
             "t-end-flag", "t-end-config"],
    )
    def test_full_stdout(self, argv, doc, env, expected, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("CONEGATE_STEPS", raising=False)
        if env is not None:
            monkeypatch.setenv("CONEGATE_STEPS", env)
        (tmp_path / "empty.json").write_text(json.dumps({"frame": "single-qubit", "steps": []}))
        if doc is not None:
            (tmp_path / "cfg.json").write_text(json.dumps(doc))
            argv = argv + ["--config", "cfg.json"]
        code, out, err = run_cli(argv, capsys)
        assert (code, err) == (0, "")
        assert out == expected


class TestSweepArrays:
    """The whole-grid sweeps give the bits of a point-by-point evaluation."""

    @pytest.mark.parametrize("delta_arg", ["1.058", "0.5:2.5:0.25"])
    def test_scurve_columns_match_per_point(self, delta_arg, capsys):
        code, out, _ = run_cli(["scurve", "--delta-over-j", delta_arg,
                                "--omega1-range", "0.1:10.1:0.5", "--format", "json"], capsys)
        assert code == 0
        cols = json.loads(out)["columns"]
        omega1, delta = cols["omega1_over_J"], cols["delta_over_J"]
        assert omega1[0] == 0.1 and omega1[-1] == 0.1 + 0.5 * 20  # both endpoints
        sols = [s_operation_params(d, 1.0, w) for d, w in zip(delta, omega1)]
        assert np.array_equal(cols["J_tc"], [s.t_c for s in sols])
        assert np.array_equal(cols["phi_prime_rad"], [s.phi_prime for s in sols])

    def test_compare_columns_match_per_point(self, capsys):
        theta = 0.6
        code, out, _ = run_cli(["compare-adiabatic", "--theta", str(theta),
                                "--gamma-range=-2.5:1.5:0.0917", "--format", "json"], capsys)
        assert code == 0
        cols = json.loads(out)["columns"]
        omega0, omega1 = float(np.cos(theta)), float(np.sin(theta))
        psi0 = cone_eigenstate(omega0, omega1).psi0
        un, co = [], []
        for g in cols["gamma_over_omega0"]:
            p_un = FieldParams(omega0, omega1, g * omega0)
            p_co = FieldParams(omega0, omega1, g * omega0, omega_z=g * omega0)
            u_un = propagator_uncompensated(p_un, loop_duration(p_un))
            u_co = propagator_compensated(p_co, loop_duration(p_co))
            un.append(adiabatic_error(p_un))
            assert un[-1] == max(0.0, 1.0 - abs(psi0.conj() @ (u_un @ psi0)) ** 2)
            overlap = abs(psi0.conj() @ (u_co @ psi0))
            co.append(max(0.0, 1.0 - overlap * overlap))
        assert np.array_equal(cols["infidelity_uncompensated"], un)
        assert np.array_equal(cols["infidelity_compensated"], co)

    def test_csv_writer_matches_per_value_format(self, capsys):
        values = [0.0, -0.0, 1e-300, 1e300, np.float64(0.1) * 3, -2.5e-17, 123456789012345.0]
        columns = {"a": values, "b": np.array(values[::-1]), "c": list(np.arange(7.0))}
        _write_output(RunConfig("test", {"k": "50%s"}), columns, None, "csv")
        rows = [",".join(f"{columns[n][k]:.12g}" for n in columns) for k in range(7)]
        expected = "\n".join([f"# conegate {__import__('conegate').__version__}",
                               "# command = test", "# k = 50%s", "a,b,c"] + rows) + "\n"
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize("rows", [CSV_CHUNK_ROWS - 1, CSV_CHUNK_ROWS, CSV_CHUNK_ROWS + 1])
    def test_csv_chunks_match_per_value_format(self, rows, capsys):
        rng = np.random.default_rng(rows)
        values = rng.normal(size=rows) * 10.0 ** rng.integers(-300, 300, size=rows)
        values[:4] = [0.0, -0.0, 0.1 * 3, 123456789012345.0]
        columns = {"a": values, "b": values[::-1], "c": list(np.arange(float(rows)))}
        _write_output(RunConfig("test", {"k": "50%s"}), columns, None, "csv")
        lines = capsys.readouterr().out.split("\n")
        assert lines[:4] == [f"# conegate {__import__('conegate').__version__}",
                             "# command = test", "# k = 50%s", "a,b,c"]
        assert lines[4:] == [",".join(f"{columns[n][k]:.12g}" for n in columns)
                             for k in range(rows)] + [""]

    def test_csv_writer_empty_columns(self, capsys):
        _write_output(RunConfig("test", {}), {"t": [], "x": np.zeros(0)}, None, "csv")
        assert capsys.readouterr().out.endswith("# command = test\nt,x\n")

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (["scurve", "--delta-over-j", "0.9:1.3:0.2", "--omega1-range", "0.25:2:0.25"],
             "e5a6d87b31c8a48c869e9a303b3fd2ba5874a57a64aef3bec371ea03dc120841"),
            (["compare-adiabatic", "--theta", "0.6", "--gamma-range", "0.01:0.3:0.02"],
             "a6220e180c8146b867fb43eb57f11f2a35687c19c323c147fde8f3f853907b24"),
            # a 100 x 190 grid, the size of the benchmark's scurve calls
            (["scurve", "--delta-over-j", "0.5:2.49:0.02", "--omega1-range", "0.3:9.775:0.05"],
             "a3b1f6d0fcc05fc006cd7dc22cbdcdc59891f617d99feb9ce5c0601ad190cd37"),
            # 5,500 speeds, across the LOOP_BLOCK boundary of loop_infidelities
            (["compare-adiabatic", "--theta", "0.6", "--gamma-range", "0.001:5.5:0.001"],
             "6cf6c540ae6f70fa52d65894180c79a15a530e46bf0f528acbb1e6e85756ae65"),
        ],
    )
    def test_pinned_digest(self, argv, digest, capsys, monkeypatch):
        # digests of the point-by-point implementation's output; the last two
        # were taken before the grid writer and the stacked overlaps
        monkeypatch.delenv("CONEGATE_STEPS", raising=False)
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "schedule, extra, digest",
        [
            ("tilted", [],
             "d61d9afbadef8546a4d84c3044226c70e71d74a00d6e5e9aba2feca94a12f8c7"),
            ("conditional", [],
             "b81325cf8f3918c39423322afecc9cd5a69e6886430797313b4290a8f565f111"),
            ("conditional", ["--t-end", "1.0"],
             "f466c6e1f21bbd4d5e339165f403103bf42f46393085eda0bbbc62afb6389575"),
            ("tilted", ["--t-end", "1.0"],
             "ee534f5db579b6e47176243949d7b1919339e258ea996a40711efdb1f8edd83a"),
        ],
    )
    def test_pinned_evolve_digest(self, schedule, extra, digest, tmp_path, capsys,
                                  monkeypatch):
        # the header echoes the schedule path, so it is a fixed relative name
        from conegate.gates import phase_gate_recipe
        from conegate.sequences import build_conditional_loop, sequence_to_dict

        seq = (phase_gate_recipe(1.0).sequence if schedule == "tilted"
               else build_conditional_loop(1.8, 1.0))
        monkeypatch.delenv("CONEGATE_STEPS", raising=False)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "schedule.json").write_text(json.dumps(sequence_to_dict(seq)))
        code, out, _ = run_cli(["evolve", "--schedule", "schedule.json", "--steps", "2000"]
                               + extra, capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestPinnedIntegratorBytes:
    """Full stdout of integrator runs long enough to span several blocks of
    the integrator: the gate reports and evolve rows at 20,000 steps per
    loop. The digests were taken before the integrator evaluated several
    blocks per pass and before simulate_sequence reused repeated loops."""

    @pytest.mark.parametrize(
        "gate, steps, digest",
        [
            (["phase", "--theta", "0.7"], 10_000,
             "3e0e1f6d9c343dea0d2cde69820c5ad8919aabdcdec94dec8577218dc3387793"),
            (["phase", "--theta", "0.7"], 100_000,
             "758513ff020fd66309e88f993ea75498d3592d35db8aaad567ecb0194701518e"),
            (["hadamard"], 10_000,
             "c8b3eadb6fc3ab365421c9781f9901d82056d0ed0f87e891e884d8f9dbcdf7ef"),
            (["hadamard"], 100_000,
             "a5b33dc8639d0f3053e086602e04f0cb804d77f9358876c3bffe0934264efbbb"),
            (["not"], 10_000,
             "4ac485f53402d0c9cebf275cc8607f7dce9fd9cdafea8ba71876a90e2ef23dc9"),
            (["not"], 100_000,
             "d267c358e4782b61d2174792b99877cddaf2aa85982d603b52d39c49eef721db"),
            (["cphase", "--delta-over-j", "1.8"], 10_000,
             "16ce84d463cc91bc5fb4769c18867e27297cf0751d1b31dc336f50457888a965"),
            (["cphase", "--delta-over-j", "1.8"], 100_000,
             "86feada8e05a682f869a3a16043e2acfb2a98616d43a1f2ffaa2789a0c28b120"),
            (["cnot"], 10_000,
             "10917513cf7a3c795b1f069665a6e726f0ca8fd38c17aed61dec64f3cd7602f9"),
            (["cnot"], 100_000,
             "3384a3da98ec4ce9864a9606dd97051d283332e9894b31851f18aed48c71e486"),
        ],
    )
    def test_pinned_gate_digest(self, gate, steps, digest, capsys, monkeypatch):
        monkeypatch.delenv("CONEGATE_STEPS", raising=False)
        code, out, _ = run_cli(["gate"] + gate + ["--steps", str(steps)], capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "schedule, digest",
        [
            ("tilted", "1407d6ea1fa1ebff514a2d6418c8ee59dbedd5dc4fabe0ba8e4ffc0d9db1682b"),
            ("conditional", "2dd980eb1e80972b33dbf6248c7474c1033fe61e7d4971c698be722b2f2c1a9e"),
        ],
    )
    def test_pinned_evolve_digest(self, schedule, digest, tmp_path, capsys, monkeypatch):
        from conegate.gates import phase_gate_recipe
        from conegate.sequences import build_conditional_loop, sequence_to_dict

        seq = (phase_gate_recipe(1.0).sequence if schedule == "tilted"
               else build_conditional_loop(1.8, 1.0))
        monkeypatch.delenv("CONEGATE_STEPS", raising=False)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "schedule.json").write_text(json.dumps(sequence_to_dict(seq)))
        code, out, _ = run_cli(["evolve", "--schedule", "schedule.json", "--steps", "20000"],
                               capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


def _grid_reference(delta_values, omega1_values) -> str:
    """The scurve CSV body of a grid, each value formatted on its own from
    whole repeat/tile columns: delta is the outer axis, omega1 the inner."""
    delta = np.repeat(delta_values, omega1_values.size)
    omega1 = np.tile(omega1_values, delta_values.size)
    t_c, phi_prime, _, _ = s_operation_angles(delta, 1.0, omega1)
    rows = [f"{w:.12g},{d:.12g},{t:.12g},{p:.12g}\n"
            for w, d, t, p in zip(omega1, delta, t_c, phi_prime)]
    return "omega1_over_J,delta_over_J,J_tc,phi_prime_rad\n" + "".join(rows)


def _assert_same_lines(got: str, expected: str) -> None:
    """got == expected, reporting the first line that differs: pytest's own
    diff of two texts of thousands of lines takes minutes."""
    got_lines, expected_lines = got.split("\n"), expected.split("\n")
    pairs = zip(got_lines, expected_lines)
    first = next((k for k, (a, b) in enumerate(pairs) if a != b),
                 min(len(got_lines), len(expected_lines)))
    assert got_lines == expected_lines, (
        f"line {first}: {got_lines[first:first + 1]} != {expected_lines[first:first + 1]}")


def _range_text(start: float, step: float, count: int) -> str:
    # the stop sits half a step past the last point, so the count is exact
    return f"{start!r}:{start + (count - 0.5) * step!r}:{step!r}"


class TestGridWriter:
    """scurve's CSV is the grid's rows formatted value by value, whatever
    the grid's shape against the chunk size, and its writer holds one chunk
    at a time."""

    @pytest.mark.parametrize("omegas", [CSV_CHUNK_ROWS - 1, CSV_CHUNK_ROWS, CSV_CHUNK_ROWS + 1])
    @pytest.mark.parametrize("delta_arg", ["1.058", "-1.5:1.5:0.75"])  # the second crosses 0
    def test_rows_match_per_value_format(self, omegas, delta_arg, capsys):
        omega1_arg = _range_text(0.05, 0.001, omegas)
        code, out, _ = run_cli(["scurve", f"--delta-over-j={delta_arg}",
                                "--omega1-range", omega1_arg], capsys)
        assert code == 0
        header, _, body = out.partition("omega1_over_J,")
        assert all(line.startswith("# ") for line in header.splitlines())
        deltas = (np.array([1.058]) if ":" not in delta_arg
                  else -1.5 + 0.75 * np.arange(5))
        assert 0.0 in deltas or deltas.size == 1
        _assert_same_lines("omega1_over_J," + body,
                           _grid_reference(deltas, 0.05 + 0.001 * np.arange(omegas)))

    @pytest.mark.parametrize("omegas", [1, 2, 4, 5, 6, 11])
    @pytest.mark.parametrize("deltas", [1, 2, 3, 7])
    def test_small_chunks_match_per_value_format(self, omegas, deltas, capsys, monkeypatch):
        # chunks of 5 rows put every grid shape on and across a chunk edge
        monkeypatch.setattr(cli, "CSV_CHUNK_ROWS", 5)
        code, out, _ = run_cli(["scurve", f"--delta-over-j={_range_text(-0.7, 0.35, deltas)}",
                                "--omega1-range", _range_text(0.2, 0.3, omegas)], capsys)
        assert code == 0
        expected = _grid_reference(-0.7 + 0.35 * np.arange(deltas), 0.2 + 0.3 * np.arange(omegas))
        _assert_same_lines(out.partition("omega1_over_J,")[2],
                           expected.partition("omega1_over_J,")[2])

    def test_writer_memory_is_one_chunk(self, tmp_path):
        import tracemalloc

        argv = ["scurve", "--delta-over-j", _range_text(0.5, 0.02, 40),
                "--omega1-range", _range_text(0.1, 0.005, 5000), "--out", str(tmp_path / "g.csv")]
        rows = 40 * 5000
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        with open(tmp_path / "g.csv") as fh:
            assert sum(not line.startswith("#") for line in fh) == rows + 1
        # at most ten float64 arrays of the grid for the solver and its
        # columns, plus 2 MB for one chunk's values, template and text: the
        # whole output as one string would take another 11 MB
        assert peak < 10 * 8 * rows + 2e6


class TestSweepBounds:
    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["compare-adiabatic", "--gamma-range", "0.1:1:1e-12"], "--gamma-range"),
            (["scurve", "--delta-over-j", "1.0", "--omega1-range", "0.1:1:1e-12"],
             "--omega1-range"),
            (["scurve", "--delta-over-j", "0.1:1:1e-12", "--omega1-range", "1:2:1"],
             "--delta-over-j"),
            (["scurve", "--delta-over-j", "0:1:0.001", "--omega1-range", "1:2:0.001"],
             "--delta-over-j x --omega1-range"),
        ],
    )
    def test_oversized_sweep_is_refused_before_allocation(self, argv, flag, capsys):
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert flag in err
        assert str(MAX_SWEEP_POINTS) in err

    @pytest.mark.parametrize(
        "revolutions, steps, message",
        [
            ([1e5], 100, f"10000001 points, more than the {MAX_SWEEP_POINTS}"),  # 1e7 steps
            ([1e306], 100, "a loop of 1e+306 revolutions at 257 per revolution overflows"),
            ([6e305] * 3, 257, f"points, more than the {MAX_SWEEP_POINTS}"),  # a sum past 1e308
        ],
    )
    def test_oversized_trajectory_is_refused_before_allocation(
            self, revolutions, steps, message, tmp_path, capsys):
        import tracemalloc

        doc = loop_schedule_doc()
        doc["steps"] = [dict(doc["steps"][0], revolutions=r) for r in revolutions]
        (tmp_path / "loop.json").write_text(json.dumps(doc))
        tracemalloc.start()
        try:
            code, out, err = run_cli(["evolve", "--schedule", str(tmp_path / "loop.json"),
                                      "--steps", str(steps)], capsys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert out == ""
        assert message in err
        assert peak < 4e6

    @pytest.mark.parametrize("text", ["0.1:inf:1", "0.5:1:inf", "nan:1:0.1", "-inf:1:0.5"])
    def test_non_finite_range_is_refused(self, text, capsys):
        code, out, err = run_cli(["compare-adiabatic", f"--gamma-range={text}"], capsys)
        assert code == 2
        assert out == ""
        assert "--gamma-range" in err and "finite" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["scurve", "--delta-over-j", "1.0", "--omega1-range=-1:1:0.5"],
             "omega1 must be positive"),
            (["compare-adiabatic", "--gamma-range=-0.5:0.5:0.25"],
             "gamma range must exclude zero"),
        ],
    )
    def test_whole_grid_checks_keep_their_messages(self, argv, message, capsys):
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert message in err


class TestOutputErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["scurve", "--delta-over-j", "1.058", "--omega1-range", "1:2:1"],
            ["gate", "phase", "--theta", str(np.pi / 2)],
        ],
    )
    def test_out_into_missing_directory(self, argv, tmp_path, capsys):
        target = tmp_path / "nodir" / "x.out"
        code, out, err = run_cli(argv + ["--out", str(target)], capsys)
        assert code == 2
        assert out == ""
        assert str(target) in err
        assert "Traceback" not in err

    def test_a_closed_stdout_ends_quietly(self, tmp_path):
        # about 900 KB of CSV, so the writer is still writing when the
        # reader closes the pipe: a pipe holds 64 KiB
        src = os.path.dirname(os.path.dirname(os.path.abspath(conegate.__file__)))
        argv = [sys.executable, "-m", "conegate", "compare-adiabatic", "--theta", "0.6",
                "--gamma-range", "0.01:2:0.0001"]
        with open(tmp_path / "stderr", "wb") as err:
            proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err,
                                    env=dict(os.environ, PYTHONPATH=src))
            first = proc.stdout.readline()
            proc.stdout.close()
            assert proc.wait(timeout=60) == 141
        assert first == f"# conegate {conegate.__version__}\n".encode()
        assert (tmp_path / "stderr").read_bytes() == b""


def _whole_document(config: RunConfig, columns: dict, grid: dict | None = None) -> str:
    """The JSON document of a run as one json.dumps of Python float lists, a
    grid's axes repeated into whole columns: the text the streamed writer
    must give."""
    if grid:
        (inner_name, inner), (outer_name, outer) = grid.items()
        columns = {inner_name: np.tile(inner, outer.size),
                   outer_name: np.repeat(outer, inner.size), **columns}
    doc = {"tool": f"conegate {conegate.__version__}", "command": config.command,
           "config": config.values,
           "columns": {name: [float(v) for v in vals] for name, vals in columns.items()}}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


class TestJsonWriter:
    """--format json is written one column at a time and CSV_CHUNK_ROWS
    values at a time, and its text is json.dumps(doc, indent=2,
    sort_keys=True) of the whole document."""

    @pytest.mark.parametrize("frame, width", [("single-qubit", 9), ("two-qubit-rotating", 10)])
    def test_empty_schedule_has_empty_columns(self, frame, width, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"frame": frame, "steps": []}))
        code, out, _ = run_cli(["evolve", "--schedule", str(path), "--format", "json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert list(doc["columns"].values()) == [[]] * width
        assert out == json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def test_grid_with_a_long_inner_axis(self, capsys):
        omegas, deltas = CSV_CHUNK_ROWS + 4, 3  # the inner axis spans two chunks
        code, out, _ = run_cli(["scurve", "--delta-over-j", _range_text(0.5, 0.2, deltas),
                                "--omega1-range", _range_text(0.05, 0.001, omegas),
                                "--format", "json"], capsys)
        assert code == 0
        omega1, delta = 0.05 + 0.001 * np.arange(omegas), 0.5 + 0.2 * np.arange(deltas)
        t_c, phi_prime, _, _ = s_operation_angles(delta[:, None], 1.0, omega1)
        config = RunConfig("scurve", json.loads(out)["config"])
        assert out == _whole_document(
            config, {"J_tc": t_c.ravel(), "phi_prime_rad": phi_prime.ravel()},
            {"omega1_over_J": omega1, "delta_over_J": delta})

    @pytest.mark.parametrize("rows", [CSV_CHUNK_ROWS, CSV_CHUNK_ROWS + 1, 2 * CSV_CHUNK_ROWS + 3])
    def test_chunk_seams_and_non_finite_values(self, rows, capsys):
        rng = np.random.default_rng(rows)
        values = rng.normal(size=rows) * 10.0 ** rng.integers(-300, 300, size=rows)
        values[[0, 1, 2, 3, CSV_CHUNK_ROWS - 1, -1]] = [np.nan, np.inf, -np.inf, -0.0, np.nan, -np.inf]
        columns = {"b": values, "a": list(values[::-1]), "c": np.arange(float(rows))}
        config = RunConfig("test", {"k": "50%s"})
        _write_output(config, columns, None, "json")
        assert capsys.readouterr().out == _whole_document(config, columns)

    def test_config_values_that_hold_an_empty_column_text(self, capsys):
        # the writer fills the first '": []' texts of the dump, which are the
        # columns' own: the config sorts after them
        config = RunConfig("test", {"schedule": 's": [].json', "z": {"x": []}, "a": [[]]})
        columns = {"t": [0.5, 1.5], "x": np.zeros(0)}
        _write_output(config, columns, None, "json")
        assert capsys.readouterr().out == _whole_document(config, columns)

    def test_a_closed_stdout_ends_quietly(self, tmp_path):
        # about 1.4 MB of JSON, written in chunks: the reader closes the
        # pipe after 10 bytes, while the writer is still writing
        src = os.path.dirname(os.path.dirname(os.path.abspath(conegate.__file__)))
        argv = [sys.executable, "-m", "conegate", "compare-adiabatic", "--theta", "0.6",
                "--gamma-range", "0.01:2:0.0001", "--format", "json"]
        with open(tmp_path / "stderr", "wb") as err:
            proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err,
                                    env=dict(os.environ, PYTHONPATH=src))
            first = proc.stdout.read(10)
            proc.stdout.close()
            assert proc.wait(timeout=60) == 141
        assert first == b'{\n  "colum'
        assert (tmp_path / "stderr").read_bytes() == b""

    def test_writer_memory_does_not_grow_with_rows(self, tmp_path):
        import tracemalloc

        # every chunk holds the same values, so each run's chunks cost alike
        chunk = np.random.default_rng(5).normal(size=CSV_CHUNK_ROWS)
        peaks = []
        for rows in (50_000, 200_000):
            columns = {name: np.resize(chunk, rows) for name in ("a", "b", "c")}
            tracemalloc.start()
            try:
                _write_output(RunConfig("test", {}), columns, str(tmp_path / "o.json"), "json")
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert len(json.loads((tmp_path / "o.json").read_text())["columns"]["a"]) == rows
        # the whole document as Python floats would take over 20 MB more; the
        # peak moves by a few hundred bytes from run to run at any row count
        assert peaks[1] <= peaks[0] + 4096


class TestUnknownScheduleKeys:
    """A key that a schedule document's schema does not hold is refused,
    never dropped: a misspelled initial_state would otherwise start the
    run from the default state."""

    LOOP = {"omega0": 1.0, "omega1": 1.0, "gamma": -2.0, "omega_z": -2.0}

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"frame": "single-qubit", "initial_sate": [[0, 0], [1, 0]],
              "steps": [{"op": "rot_x", "angle": 0.5}]}, "initial_sate: unknown field"),
            ({"steps": [{"op": "rot_x", "angle": 0.5, "duration": 3}]},
             "steps[0].duration: unknown field"),
            ({"steps": [{"op": "rot_z", "angle": 0.5}, {"op": "free", "duration": 1.0,
                                                        "delta": 1.0, "angle": 0.5}]},
             "steps[1].angle: unknown field"),
            ({"steps": [{"op": "loop", "loop": LOOP, "omega0": 1.0}]},
             "steps[0].omega0: unknown field"),
            ({"steps": [{"op": "loop", "loop": dict(LOOP, omega_x=1.0)}]},
             "steps[0].loop.omega_x: unknown field"),
            ({"frame": "two-qubit-rotating",
              "steps": [{"op": "loop", "loop": {"delta": 1.8, "j": 1.0, "omega0": 1.0}}]},
             "steps[0].loop.omega0: unknown field"),
        ],
    )
    def test_unknown_key_exits_2_naming_its_path(self, doc, message, tmp_path, capsys):
        path = tmp_path / "schedule.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(["evolve", "--schedule", str(path), "--steps", "100"], capsys)
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"


class TestConfigIntegers:
    @pytest.mark.parametrize(
        "doc, argv, field",
        [
            ({"loops": 1.5, "theta": 1.0}, ["gate", "phase"], "loops"),
            ({"loops": True, "theta": 1.0}, ["gate", "phase"], "loops"),
            ({"steps": 10.5, "delta_over_j": "1.058", "omega1_range": "1:2:1"}, ["scurve"],
             "steps"),
            ({"steps": False, "delta_over_j": "1.058", "omega1_range": "1:2:1"}, ["scurve"],
             "steps"),
        ],
    )
    def test_non_integral_value_is_refused(self, doc, argv, field, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        code, out, err = run_cli(argv + ["--config", str(cfg)], capsys)
        assert code == 2
        assert out == ""
        assert field in err

    def test_integral_float_is_accepted(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"steps": 300.0, "delta_over_j": "1.058",
                                   "omega1_range": "1:2:1"}))
        code, out, _ = run_cli(["scurve", "--config", str(cfg)], capsys)
        assert code == 0
        assert "# steps = 300.0" in out


class TestConfigTypes:
    @pytest.mark.parametrize(
        "doc, argv, flag",
        [
            ({"delta_over_j": "abc"}, ["gate", "cphase"], "--delta-over-j"),
            ({"delta_over_j": [2]}, ["gate", "cphase"], "--delta-over-j"),
            ({"theta": "x"}, ["gate", "phase"], "--theta"),
            ({"theta": [1]}, ["gate", "phase"], "--theta"),
            ({"theta": True}, ["gate", "phase"], "--theta"),
            ({"theta": "x", "gamma_range": "0.1:0.2:0.1"}, ["compare-adiabatic"], "--theta"),
            ({"gamma_range": 5}, ["compare-adiabatic"], "--gamma-range"),
            ({"delta_over_j": "abc", "omega1_range": "1:2:1"}, ["scurve"], "--delta-over-j"),
            ({"delta_over_j": [2], "omega1_range": "1:2:1"}, ["scurve"], "--delta-over-j"),
            ({"delta_over_j": "1.058", "omega1_range": 5}, ["scurve"], "--omega1-range"),
            ({"t_end": "soon"}, ["evolve", "--schedule", "loop.json"], "--t-end"),
            ({"t_end": {}}, ["evolve", "--schedule", "loop.json"], "--t-end"),
            ({"schedule": ["a"]}, ["evolve"], "--schedule"),
            ({"out": 5}, ["gate", "phase"], "--out"),
            ({"theta": None}, ["gate", "phase"], "--theta"),
            ({"out": None}, ["gate", "phase"], "--out"),
            ({"steps": None}, ["gate", "phase"], "--steps"),
        ],
    )
    def test_wrong_type_exits_2_naming_the_flag(self, doc, argv, flag, tmp_path, capsys,
                                                monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "loop.json").write_text(json.dumps(loop_schedule_doc()))
        (tmp_path / "cfg.json").write_text(json.dumps(doc))
        steps = [] if "steps" in doc else ["--steps", "100"]  # a flag would override the doc
        code, out, err = run_cli(argv + steps + ["--config", "cfg.json"], capsys)
        assert code == 2
        assert out == ""
        assert flag in err
        assert "Traceback" not in err


class TestGateOptions:
    """--theta and --loops belong to the phase gate and --delta-over-j to
    cphase; any other gate given one, by flag or by config, exits 2 naming
    the flag and the gate, before the value is read."""

    CASES = [(gate, flag, owner)
             for gate in ("hadamard", "not", "cnot")
             for flag, owner in (("--theta", "phase"), ("--loops", "phase"),
                                 ("--delta-over-j", "cphase"))]
    CASES += [("phase", "--delta-over-j", "cphase"), ("cphase", "--theta", "phase"),
              ("cphase", "--loops", "phase")]

    @pytest.mark.parametrize("gate, flag, owner", CASES)
    def test_a_flag_of_another_gate(self, gate, flag, owner, capsys):
        # a value the flag's own parser would refuse: it is never read
        code, out, err = run_cli(["gate", gate, flag, "abc"], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: {flag} applies only to gate {owner}, not to gate {gate}\n"

    @pytest.mark.parametrize("gate, flag, owner", CASES)
    def test_a_config_key_of_another_gate(self, gate, flag, owner, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({flag[2:].replace("-", "_"): 2}))
        code, out, err = run_cli(["gate", gate, "--config", str(cfg)], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: {flag} applies only to gate {owner}, not to gate {gate}\n"

    def test_the_first_of_several_is_named(self, capsys):
        code, out, err = run_cli(["gate", "hadamard", "--loops", "3", "--theta", "0.5",
                                  "--delta-over-j", "2.0"], capsys)
        assert (code, out) == (2, "")
        assert err == "error: --theta applies only to gate phase, not to gate hadamard\n"


class TestScheduleSchema:
    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"steps": [{"op": "rot_x", "angle": None}]},
             "steps[0].angle: expected a finite number"),
            ({"steps": "abc"}, "steps: expected a list"),
            ({"steps": [{"op": "rot_y", "angle": 1.0}, {"op": "free", "duration": "1",
                                                        "delta": 1.0}]},
             "steps[1].duration: expected a finite number"),
            ({"steps": [7]}, "steps[0]: expected an object"),
            ({"steps": [{"angle": 1.0}]}, "steps[0].op: missing field"),
            ({"steps": [{"op": "loop", "compensated": "no", "loop": {}}]},
             "steps[0].compensated: expected true or false"),
            ({"steps": [{"op": "loop", "loop": "abc"}]}, "steps[0].loop: expected an object"),
            ({"steps": [{"op": "loop", "loop": {"omega0": 1, "omega1": 1, "gamma": 10**400}}]},
             "steps[0].loop.gamma: expected a finite number"),
            ({"steps": [{"op": "loop", "loop": {"omega0": 1, "omega1": 1, "gamma": -2}}]},
             "steps[0]: compensated loop requires omega_z = gamma"),
            ({"frame": "three-qubit", "steps": []}, "frame: unknown frame 'three-qubit'"),
            ({"frame": "two-qubit-rotating",
              "steps": [{"op": "rot_y", "angle": 1.0},
                        {"op": "loop", "loop": {"delta": 1e200, "j": 1}}]},
             "steps[1]: no finite conditional loop setting for delta = 1e+200, j = 1.0"),
        ],
    )
    def test_malformed_schedule_exits_2_naming_the_field(self, doc, message, tmp_path, capsys):
        path = tmp_path / "schedule.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(["evolve", "--schedule", str(path), "--steps", "100"], capsys)
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"


class TestStepBudget:
    def test_step_budget_exits_2(self, capsys):
        code, out, err = run_cli(["gate", "phase", "--theta", "1", "--steps", "60000000"], capsys)
        assert code == 2
        assert out == ""
        assert "60000000 steps requested, at most 50,000,000 allowed" in err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["gate", "phase", "--steps", str(10**400)], "--steps"),
            (["gate", "cnot", "--steps", str(10**12)], "--steps"),
            (["gate", "phase", "--loops", str(10**400)], "--loops"),
            (["gate", "phase", "--loops", str(10**9), "--steps", "1"], "--loops"),
        ],
    )
    def test_counts_beyond_the_budget_exit_2_naming_the_flag(self, argv, flag, capsys):
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {flag}")

    @pytest.mark.parametrize(
        "argv, flag, shown",
        [
            (["gate", "phase", "--loops", str(10**400)], "--loops", "got 1e+400"),
            (["gate", "phase", "--loops", str(-(10**400))], "--loops", "got -1e+400"),
            (["evolve", "--schedule", "{loop}", "--steps", "10000"], "--schedule",
             "for 2.57e+202 points"),
            (["scurve", "--delta-over-j", "1.0", "--omega1-range", "0:1e300:1e-3"],
             "--omega1-range", "for 1e+303 points"),
            (["compare-adiabatic", "--gamma-range", "1:1e308:1e-300"], "--gamma-range",
             "for inf points"),
            # past the 4,300 digits int() reads from a text
            (["gate", "phase", "--steps", "1" * 5000], "--steps",
             "got a text of 5,000 characters, '111111111111111..."),
        ],
    )
    def test_long_counts_print_a_short_line(self, argv, flag, shown, tmp_path, capsys):
        doc = loop_schedule_doc()
        doc["steps"][0]["revolutions"] = 1e200
        (tmp_path / "loop.json").write_text(json.dumps(doc))
        argv = [a.format(loop=tmp_path / "loop.json") for a in argv]
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {flag}") and shown in err
        assert len(err) < 120 and err.count("\n") == 1


class TestParserReuse:
    """main builds its parser once; nothing of one call leaks into the next."""

    def test_a_given_flag_does_not_stick(self, capsys):
        code, out, _ = run_cli(["gate", "phase", "--theta", "1.0", "--steps", "500"], capsys)
        assert code == 0
        assert "# theta = 1.0" in out
        code, out, _ = run_cli(["gate", "phase", "--steps", "500"], capsys)
        assert code == 0
        assert "# theta =" not in out
        assert f"theta0 = {np.pi / 3:.12g}" in out

    def test_version_twice(self, capsys):
        for _ in range(2):
            code, out, _ = run_cli(["--version"], capsys)
            assert code == 0
            assert out.startswith("conegate ")


class TestOverflowingInputs:
    """Inputs whose every number is finite, but whose free evolution angle
    overflows or whose start state has squares beyond the float range."""

    @staticmethod
    def evolve(doc, tmp_path, capsys):
        path = tmp_path / "schedule.json"
        path.write_text(json.dumps(doc))
        return run_cli(["evolve", "--schedule", str(path), "--steps", "100"], capsys)

    @pytest.mark.parametrize("doc", [
        {"frame": "two-qubit-rotating",
         "steps": [{"op": "free", "duration": 1.0, "delta": 1e308, "j": 1e308}]},
        {"steps": [{"op": "rot_x", "angle": 0.3},
                   {"op": "free", "duration": 1e308, "delta": 1e308}]},
    ], ids=["two-qubit", "single-qubit"])
    def test_an_overflowing_free_evolution_names_its_step(self, doc, tmp_path, capsys):
        index = len(doc["steps"]) - 1
        code, out, err = self.evolve(doc, tmp_path, capsys)
        assert code == 2
        assert out == ""
        assert err == (f"error: steps[{index}]: free evolution angle duration "
                       "(delta +- j) / 2 is not finite\n")

    @pytest.mark.parametrize("scaled, unit", [
        ([[1e308, 0], [1e308, 0]], [[1, 0], [1, 0]]),
        ([[1e-200, 0], [0, 0]], [[1, 0], [0, 0]]),
        ([[0, -3e307], [4e307, 0]], [[0, -3], [4, 0]]),
        ([[5e-324, 0], [0, 5e-324]], [[1, 0], [0, 1]]),
        # subnormal squares: a finite, nonzero norm 5.6e-6 off (relative)
        ([[1e-160, 0], [0, 0]], [[1, 0], [0, 0]]),
        ([[1e-160, 0], [0, 1e-160]], [[1, 0], [0, 1]]),
    ])
    def test_a_start_state_at_any_scale_is_its_direction(self, scaled, unit, tmp_path,
                                                         capsys):
        doc = {"steps": [{"op": "rot_x", "angle": 0.3},
                         {"op": "free", "duration": 1.0, "delta": 0.7}]}
        runs = []
        for state in (scaled, unit):
            doc["initial_state"] = state
            runs.append(self.evolve(doc, tmp_path, capsys))
        assert runs[0] == runs[1] == (0, runs[1][1], "")

    def test_a_start_state_normalized_within_the_check_keeps_its_bytes(
            self, tmp_path, capsys, monkeypatch):
        # its plain normalization has norm 1 + 1.8e-11, within a trajectory's
        # 1e-10, so it is not rescaled; the digest was taken before the
        # rescale looked at the normalized norm
        monkeypatch.delenv("CONEGATE_STEPS", raising=False)
        monkeypatch.chdir(tmp_path)  # the header echoes the schedule path
        doc = {"steps": [{"op": "rot_x", "angle": 0.3},
                         {"op": "free", "duration": 1.0, "delta": 0.7}],
               "initial_state": [[1e-157, 0], [0, 0]]}
        (tmp_path / "schedule.json").write_text(json.dumps(doc))
        code, out, err = run_cli(["evolve", "--schedule", "schedule.json", "--steps", "100"],
                                 capsys)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "a238f40743fd15f7e019f873c2dcd4f895af32bc81e38c8faf9a4258989591bd")

    def test_an_all_zero_start_state_is_refused(self, tmp_path, capsys):
        doc = loop_schedule_doc()
        doc["initial_state"] = [[0, -0.0], [0, 0]]
        assert self.evolve(doc, tmp_path, capsys) == (
            2, "", "error: initial_state must be a nonzero vector\n")

    # the range's first value is start + 0 step, so -0.0 starts at 0.0
    @pytest.mark.parametrize("text, start", [("0:1:0.5", 0.0), ("-1:1:0.5", -1.0),
                                             ("-0.0:0:1", 0.0)])
    def test_scurve_names_a_nonpositive_omega1_range(self, text, start, capsys):
        code, out, err = run_cli(["scurve", "--delta-over-j", "1.058",
                                  f"--omega1-range={text}"], capsys)
        assert (code, out) == (2, "")
        assert err == (f"error: --omega1-range: omega1 must be positive, "
                       f"got a start of {start!r}\n")


class TestFieldNamingErrors:
    @pytest.mark.parametrize(
        "initial_state, message",
        [
            ([[1, 0], [0, 0], [0, 0]], "initial_state: expected 2 [re, im] pairs"),
            ([[1, 0], "x"], "initial_state[1]: expected a [re, im] pair"),
            ([[1, 0], [0, True]], "initial_state[1][1]: expected a finite number"),
            ([["1", 0], [0, 0]], "initial_state[0][0]: expected a finite number"),
            ({"re": 1}, "initial_state: expected 2 [re, im] pairs"),
            # read even where no run starts from it
            pytest.param("x", "initial_state: expected 2 [re, im] pairs", id="empty-steps"),
        ],
    )
    def test_malformed_initial_state(self, initial_state, message, request, tmp_path, capsys):
        doc = loop_schedule_doc()
        if request.node.callspec.id == "empty-steps":
            doc["steps"] = []
        doc["initial_state"] = initial_state
        path = tmp_path / "schedule.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(["evolve", "--schedule", str(path), "--steps", "100"], capsys)
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    def test_two_qubit_initial_state_needs_four_pairs(self, tmp_path, capsys):
        doc = {"frame": "two-qubit-rotating",
               "steps": [{"op": "rot_x", "angle": 1.0}],
               "initial_state": [[1, 0], [0, 0]]}
        path = tmp_path / "schedule.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(["evolve", "--schedule", str(path)], capsys)
        assert code == 2
        assert err == "error: initial_state: expected 4 [re, im] pairs\n"

    @pytest.mark.parametrize(
        "argv, doc",
        [
            (["--t-end", "nan"], {}),
            (["--t-end=-5"], {}),
            ([], {"t_end": float("nan")}),
            ([], {"t_end": -5}),
            ([], {"t_end": 10**400}),
        ],
    )
    def test_bad_t_end_exits_2_before_integrating(self, argv, doc, tmp_path, capsys):
        (tmp_path / "loop.json").write_text(json.dumps(loop_schedule_doc()))
        (tmp_path / "cfg.json").write_text(json.dumps(doc))
        code, out, err = run_cli(["evolve", "--schedule", str(tmp_path / "loop.json"),
                                  "--steps", "100", "--config", str(tmp_path / "cfg.json")]
                                 + argv, capsys)
        assert code == 2
        assert out == ""
        assert "--t-end" in err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_scurve_delta_over_j_exits_2(self, value, capsys):
        code, out, err = run_cli(["scurve", f"--delta-over-j={value}",
                                  "--omega1-range", "1:2:1"], capsys)
        assert code == 2
        assert out == ""
        assert "--delta-over-j" in err

    # 1e200 and 1.4e154 are finite, but delta^2 overflows: no finite loop setting
    @pytest.mark.parametrize("value", ["inf", "-inf", "nan", "1e200", "1.4e154"])
    def test_non_finite_delta_over_j_names_the_flag(self, value, capsys):
        code, out, err = run_cli(["gate", "cphase", "--delta-over-j", value], capsys)
        assert code == 2
        assert out == ""
        assert "--delta-over-j" in err
