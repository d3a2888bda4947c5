import hashlib
import json

import numpy as np
import pytest

from conegate.cli import CSV_CHUNK_ROWS, MAX_SWEEP_POINTS, RunConfig, _write_output, main
from conegate.phases import cone_eigenstate
from conegate.propagation import (
    adiabatic_error,
    loop_duration,
    propagator_compensated,
    propagator_uncompensated,
)
from conegate.hamiltonians import FieldParams
from conegate.sequences import s_operation_params


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
            ["scurve", "--delta-over-j", "1.058", "--omega1-range", "1:2:1",
             "--seed", "7"], capsys
        )
        assert "# conegate " in out
        assert "# command = scurve" in out
        assert "# seed = 7" in out

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


class TestVerifyOnce:
    @staticmethod
    def count_verifies(monkeypatch):
        from conegate import cli, gates

        calls = []
        original = gates.verify_gate

        def counting(recipe, steps_per_loop=10_000):
            calls.append((recipe.name, steps_per_loop))
            return original(recipe, steps_per_loop=steps_per_loop)

        monkeypatch.setattr(gates, "verify_gate", counting)
        monkeypatch.setattr(cli, "verify_gate", counting)
        return calls

    @pytest.mark.parametrize("name", ["not", "hadamard", "cnot"])
    def test_gate_is_verified_once(self, name, monkeypatch, capsys):
        calls = self.count_verifies(monkeypatch)
        code, out, _ = run_cli(["gate", name, "--steps", "3000"], capsys)
        assert code == 0
        assert calls == [(name, 3000)]


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
        ],
    )
    def test_pinned_digest(self, argv, digest, capsys, monkeypatch):
        # digests of the point-by-point implementation's output
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
        ],
    )
    def test_wrong_type_exits_2_naming_the_flag(self, doc, argv, flag, tmp_path, capsys,
                                                monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "loop.json").write_text(json.dumps(loop_schedule_doc()))
        (tmp_path / "cfg.json").write_text(json.dumps(doc))
        code, out, err = run_cli(argv + ["--steps", "100", "--config", "cfg.json"], capsys)
        assert code == 2
        assert out == ""
        assert flag in err
        assert "Traceback" not in err


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


class TestFieldNamingErrors:
    @pytest.mark.parametrize(
        "initial_state, message",
        [
            ([[1, 0], [0, 0], [0, 0]], "initial_state: expected 2 [re, im] pairs"),
            ([[1, 0], "x"], "initial_state[1]: expected a [re, im] pair"),
            ([[1, 0], [0, True]], "initial_state[1][1]: expected a finite number"),
            ([["1", 0], [0, 0]], "initial_state[0][0]: expected a finite number"),
            ({"re": 1}, "initial_state: expected 2 [re, im] pairs"),
        ],
    )
    def test_malformed_initial_state(self, initial_state, message, tmp_path, capsys):
        doc = loop_schedule_doc()
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

    @pytest.mark.parametrize("seed", ["abc", 1.5, True, [1]])
    def test_config_seed_must_be_an_integer(self, seed, tmp_path, capsys):
        (tmp_path / "cfg.json").write_text(json.dumps({"seed": seed}))
        code, out, err = run_cli(["scurve", "--delta-over-j", "1.058", "--omega1-range",
                                  "1:2:1", "--config", str(tmp_path / "cfg.json")], capsys)
        assert code == 2
        assert out == ""
        assert "--seed" in err

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_non_finite_delta_over_j_names_the_flag(self, value, capsys):
        code, out, err = run_cli(["gate", "cphase", "--delta-over-j", value], capsys)
        assert code == 2
        assert out == ""
        assert "--delta-over-j" in err
