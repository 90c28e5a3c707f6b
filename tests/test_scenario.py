"""Scenario files, deterministic emitters, sweeps, and the CLI."""
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from sigchain import scenario as scn
from sigchain.cli import main


def qpsk_config(name="smoke", n_symbols=64, outputs=("constellation", "psd"),
                chain=None):
    cfg = {
        "name": name,
        "mode": "comm",
        "sample_rate": 8.0e9,
        "comm": {
            "constellation": {"scheme": "m_psk", "m": 4},
            "pulse": {"kind": "root_raised_cosine", "rolloff": 0.35,
                      "span_symbols": 8, "samples_per_symbol": 8},
            "n_symbols": n_symbols,
            "bit_seed": 1,
            "outputs": list(outputs),
        },
    }
    if chain is not None:
        cfg["chain"] = chain
    return cfg


def pi_config(name="pi-smoke", outputs=("bloch",)):
    return {
        "name": name,
        "mode": "qubit",
        "sample_rate": 1.0e9,
        "qubit": {
            "model": {"levels": 2, "drive_gain": 3.0e7},
            "envelope": {"shape": "rect", "duration_s": 6.4e-8,
                         "peak_amplitude": None},
            "gate": {"rotation_angle": math.pi},
            "outputs": list(outputs),
        },
    }


class TestEmitter:
    def test_sorted_keys_and_stable_bytes(self):
        a = scn.emit_json({"b": 1, "a": 2.5})
        b = scn.emit_json({"a": 2.5, "b": 1})
        assert a == b
        assert a.index('"a"') < a.index('"b"')
        assert a.endswith("\n")

    def test_special_floats_become_strings(self):
        text = scn.emit_json({"p": math.inf, "m": -math.inf, "n": math.nan})
        assert '"inf"' in text and '"-inf"' in text and '"nan"' in text
        assert json.loads(text) == {"p": "inf", "m": "-inf", "n": "nan"}

    def test_complex_becomes_pair(self):
        assert json.loads(scn.emit_json({"z": 1.5 - 2.0j}))["z"] == [1.5, -2.0]

    def test_numpy_scalars_and_arrays(self):
        text = scn.emit_json({"v": np.arange(3.0), "k": np.int64(7),
                              "f": np.float64(0.5), "b": np.bool_(True)})
        assert json.loads(text) == {"v": [0.0, 1.0, 2.0], "k": 7,
                                    "f": 0.5, "b": True}

    def test_whole_floats_keep_a_decimal_point(self):
        assert json.loads(scn.emit_json({"x": 2.0})) == {"x": 2.0}
        assert '"x": 2.0' in scn.emit_json({"x": 2.0})

    def test_rejects_unknown_types(self):
        with pytest.raises(TypeError):
            scn.emit_json({"x": object()})


class TestValidation:
    def test_missing_key_names_the_path(self):
        cfg = qpsk_config()
        del cfg["comm"]["bit_seed"]
        with pytest.raises(scn.ConfigError, match=r"scenario\.comm.*bit_seed"):
            scn.plan_scenario(cfg)

    def test_wrong_type_names_the_path(self):
        cfg = qpsk_config()
        cfg["sample_rate"] = "fast"
        with pytest.raises(scn.ConfigError,
                           match=r"scenario\.sample_rate.*number"):
            scn.plan_scenario(cfg)

    def test_unknown_key_rejected(self):
        cfg = qpsk_config()
        cfg["comm"]["pulse"]["beta"] = 0.5
        with pytest.raises(scn.ConfigError, match=r"pulse.*'beta'"):
            scn.plan_scenario(cfg)

    def test_bad_mode(self):
        cfg = qpsk_config()
        cfg["mode"] = "radar"
        with pytest.raises(scn.ConfigError, match="scenario.mode"):
            scn.plan_scenario(cfg)

    def test_bad_name_characters(self):
        cfg = qpsk_config(name="../escape")
        with pytest.raises(scn.ConfigError, match="scenario.name"):
            scn.plan_scenario(cfg)

    def test_unknown_stage_kind_carries_index(self):
        chain = {"stages": [{"kind": "wormhole", "params": {}}]}
        with pytest.raises(scn.ConfigError, match=r"chain\.stages\.0"):
            scn.plan_scenario(qpsk_config(chain=chain))

    def test_stochastic_stage_needs_seed(self):
        chain = {"stages": [{"kind": "phase_noise", "params": {"rate": 10.0}}]}
        with pytest.raises(scn.ConfigError, match="seed"):
            scn.plan_scenario(qpsk_config(chain=chain))

    def test_rfdac_mismatch_needs_seed(self):
        chain = {"stages": [{"kind": "rfdac_core", "params": {
            "bits": 8, "mismatch_sigma": 0.01}}]}
        with pytest.raises(scn.ConfigError, match="seed"):
            scn.plan_scenario(qpsk_config(chain=chain))

    def test_rfdac_without_mismatch_needs_no_seed(self):
        chain = {"stages": [{"kind": "rfdac_core", "params": {"bits": 8}}]}
        scn.plan_scenario(qpsk_config(chain=chain))

    def test_offset_pair_becomes_complex(self):
        chain = {"stages": [{"kind": "lo_feedthrough",
                             "params": {"offset": [0.01, -0.02]}}]}
        plan = scn.plan_scenario(qpsk_config(chain=chain))
        assert plan["chain"].stages[0].params["offset"] == 0.01 - 0.02j

    def test_bad_offset_shape(self):
        chain = {"stages": [{"kind": "lo_feedthrough",
                             "params": {"offset": [1.0, 2.0, 3.0]}}]}
        with pytest.raises(scn.ConfigError, match="offset"):
            scn.plan_scenario(qpsk_config(chain=chain))

    def test_budget_output_needs_chain(self):
        cfg = qpsk_config(outputs=("budget",))
        with pytest.raises(scn.ConfigError, match="budget"):
            scn.plan_scenario(cfg)

    def test_unknown_output_rejected(self):
        cfg = qpsk_config(outputs=("waterfall",))
        with pytest.raises(scn.ConfigError, match="waterfall"):
            scn.plan_scenario(cfg)

    def test_bloch_needs_two_levels(self):
        cfg = pi_config()
        cfg["qubit"]["model"]["levels"] = 3
        cfg["qubit"]["model"]["anharmonicity"] = -1.0e9
        with pytest.raises(scn.ConfigError, match="two-level"):
            scn.plan_scenario(cfg)

    def test_rotation_angle_range(self):
        cfg = pi_config()
        cfg["qubit"]["gate"]["rotation_angle"] = 0.0
        with pytest.raises(scn.ConfigError, match="rotation_angle"):
            scn.plan_scenario(cfg)

    def test_load_scenario_rejects_bad_json(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        with pytest.raises(scn.ConfigError, match="invalid JSON"):
            scn.load_scenario(p)

    def test_load_scenario_missing_file(self, tmp_path):
        with pytest.raises(scn.ConfigError, match="cannot read"):
            scn.load_scenario(tmp_path / "absent.json")


class TestRunScenario:
    def test_comm_outputs(self, tmp_path):
        summary = scn.run_scenario(qpsk_config(), tmp_path)
        assert summary["evm_rms"] < 0.02
        dest = tmp_path / "smoke"
        result = json.loads((dest / "metrics.json").read_text())
        assert result["name"] == "smoke" and result["mode"] == "comm"
        lines = (dest / "constellation.csv").read_text().splitlines()
        assert lines[0] == "bits,i_ref,q_ref,i_rx,q_rx"
        assert len(lines) == 1 + summary["num_symbols"]
        assert all(len(row.split(",")) == 5 for row in lines[1:])
        psd = (dest / "psd.csv").read_text().splitlines()
        assert psd[0] == "freq_hz,db"
        assert len(psd) > 64

    def test_qubit_outputs(self, tmp_path):
        summary = scn.run_scenario(pi_config(), tmp_path)
        assert summary["infidelity"] < 1e-9
        assert summary["leakage"] is None
        assert abs(summary["pulse_area"] - math.pi) < 1e-9
        lines = (tmp_path / "pi-smoke" / "bloch.csv").read_text().splitlines()
        assert lines[0] == "t,x,y,z"
        last = [float(v) for v in lines[-1].split(",")]
        assert abs(last[3] + 1.0) < 1e-9

    def test_reruns_are_byte_identical(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        scn.run_scenario(qpsk_config(), a)
        scn.run_scenario(qpsk_config(), b)
        for fname in ("metrics.json", "constellation.csv", "psd.csv"):
            assert (a / "smoke" / fname).read_bytes() == \
                (b / "smoke" / fname).read_bytes()

    def test_eye_output(self, tmp_path):
        cfg = qpsk_config(outputs=("eye",))
        cfg["comm"]["constellation"] = {"scheme": "m_ask", "m": 2}
        cfg["comm"]["pulse"] = {"kind": "rect", "span_symbols": 4,
                                "samples_per_symbol": 8}
        summary = scn.run_scenario(cfg, tmp_path)
        assert summary["eye"]["height"] > 0.0
        lines = (tmp_path / "smoke" / "eye.csv").read_text().splitlines()
        assert lines[0] == "t_frac,i,q"

    def test_budget_output(self, tmp_path):
        chain = {"architecture": "cartesian", "stages": [
            {"kind": "amplitude_error", "params": {"eps_a": 0.03}},
            {"kind": "static_phase_error", "params": {"phi_e": 0.02}},
        ]}
        cfg = qpsk_config(outputs=("budget",), chain=chain)
        summary = scn.run_scenario(cfg, tmp_path)
        assert set(summary["budget"]["terms"]) == {"amp", "phase"}
        lines = (tmp_path / "smoke" / "budget.csv").read_text().splitlines()
        assert lines[0] == "term,evm"
        assert lines[-2].startswith("rss,")
        assert lines[-1].startswith("measured,")


class TestSweep:
    def sweep_config(self, values):
        chain = {"stages": [
            {"kind": "bandwidth_limit", "params": {"cutoff_hz": 3.0e9}}]}
        return {
            "base": qpsk_config(name="swp", n_symbols=32, outputs=(),
                                chain=chain),
            "sweep": {"paths": ["chain.stages.0.params.cutoff_hz"],
                      "values": [values]},
        }

    def test_rows_in_grid_order_with_failures(self, tmp_path):
        target = scn.run_sweep(self.sweep_config([2.0e9, 9.0e9, 1.0e9]),
                               tmp_path)
        lines = target.read_text().splitlines()
        assert lines[0] == "chain.stages.0.params.cutoff_hz,evm_rms,evm_db"
        assert len(lines) == 4
        assert "FAILED,FAILED" in lines[2]
        evm_lo = float(lines[1].split(",")[1])
        evm_hi = float(lines[3].split(",")[1])
        assert evm_hi > evm_lo

    def test_mistyped_value_fails_only_its_point(self, tmp_path):
        target = scn.run_sweep(self.sweep_config([2.0e9, "abc", 1.0e9]),
                               tmp_path)
        lines = target.read_text().splitlines()
        assert len(lines) == 4
        assert lines[2] == "abc,FAILED,FAILED"
        assert "FAILED" not in lines[1] and "FAILED" not in lines[3]

    def test_threads_do_not_change_bytes(self, tmp_path):
        cfg = self.sweep_config([3.0e9, 2.0e9, 1.0e9, 8.0e8])
        a = scn.run_sweep(cfg, tmp_path / "a", threads=1)
        b = scn.run_sweep(cfg, tmp_path / "b", threads=3)
        assert a.read_bytes() == b.read_bytes()

    def test_two_axis_grid(self, tmp_path):
        cfg = self.sweep_config([2.0e9, 1.0e9])
        cfg["base"]["chain"]["stages"].append(
            {"kind": "amplitude_error", "params": {"eps_a": 0.0}})
        cfg["sweep"]["paths"].append("chain.stages.1.params.eps_a")
        cfg["sweep"]["values"].append([0.0, 0.05])
        target = scn.run_sweep(cfg, tmp_path)
        lines = target.read_text().splitlines()
        assert len(lines) == 5
        assert lines[0].startswith("chain.stages.0.params.cutoff_hz,"
                                   "chain.stages.1.params.eps_a,")

    def test_too_many_paths(self, tmp_path):
        cfg = self.sweep_config([1.0e9])
        cfg["sweep"]["paths"] = ["a", "b", "c"]
        cfg["sweep"]["values"] = [[1], [2], [3]]
        with pytest.raises(scn.ConfigError, match="one or two"):
            scn.run_sweep(cfg, tmp_path)

    def test_values_must_match_paths(self, tmp_path):
        cfg = self.sweep_config([1.0e9])
        cfg["sweep"]["values"] = [[1.0e9], [2.0e9]]
        with pytest.raises(scn.ConfigError, match="per path"):
            scn.run_sweep(cfg, tmp_path)

    def test_bad_path_index_is_config_error(self, tmp_path):
        cfg = self.sweep_config([1.0e9])
        cfg["sweep"]["paths"] = ["chain.stages.9.params.cutoff_hz"]
        with pytest.raises(scn.ConfigError, match="bad index"):
            scn.run_sweep(cfg, tmp_path)


class TestCalibrationRunner:
    def cal_config(self):
        return {
            "name": "fix-iq",
            "sample_rate": 4.0e9,
            "chain": {"architecture": "cartesian", "stages": [
                {"kind": "iq_imbalance",
                 "params": {"gain_mismatch": 0.08, "quad_skew": 0.06}},
            ]},
            "routine": {"kind": "iq_cal", "n_samples": 2048},
        }

    def test_iq_cal_writes_report_and_chain(self, tmp_path):
        report = scn.run_calibration(self.cal_config(), tmp_path)
        assert report["routine"] == "iq_cal"
        dest = tmp_path / "fix-iq"
        chain = json.loads((dest / "corrected_chain.json").read_text())
        assert chain["stages"][0]["kind"] == "iq_correction"
        parsed = json.loads((dest / "report.json").read_text())
        assert len(parsed["matrix"]) == 2

    def test_unknown_routine(self, tmp_path):
        cfg = self.cal_config()
        cfg["routine"]["kind"] = "tea_leaves"
        with pytest.raises(scn.ConfigError, match="routine.kind"):
            scn.run_calibration(cfg, tmp_path)

    def test_reruns_are_byte_identical(self, tmp_path):
        scn.run_calibration(self.cal_config(), tmp_path / "a")
        scn.run_calibration(self.cal_config(), tmp_path / "b")
        for fname in ("report.json", "corrected_chain.json"):
            assert (tmp_path / "a" / "fix-iq" / fname).read_bytes() == \
                (tmp_path / "b" / "fix-iq" / fname).read_bytes()


class TestBundled:
    def test_listing_contains_the_demos(self):
        names = scn.list_bundled_scenarios()
        for expected in ("qpsk_ideal", "pi_pulse_ideal", "qam16_budget",
                         "polar_skew", "rfdac_images", "harmonic_ask",
                         "drag_leakage", "iq_cal_demo", "bandwidth_sweep"):
            assert expected in names

    def test_unknown_name_raises(self):
        with pytest.raises(scn.ConfigError, match="no bundled"):
            scn.bundled_scenario_path("missing_demo")

    def test_all_simulation_scenarios_validate(self):
        for name in scn.list_bundled_scenarios():
            if name in ("iq_cal_demo", "bandwidth_sweep"):
                continue
            scn.load_scenario(scn.bundled_scenario_path(name))


class TestReadme:
    def test_json_examples_validate(self):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        blocks = re.findall(r"```json\n(.*?)```", readme.read_text(),
                            flags=re.S)
        assert blocks
        for block in blocks:
            scn.plan_scenario(json.loads(block))


class TestCli:
    def test_simulate_exit_zero(self, tmp_path, capsys):
        p = tmp_path / "s.json"
        p.write_text(json.dumps(qpsk_config()))
        assert main(["simulate", str(p), "--out-dir",
                     str(tmp_path / "out")]) == 0
        assert "evm_rms" in capsys.readouterr().out

    def test_bundled_name_resolves(self, tmp_path, capsys):
        assert main(["simulate", "qpsk_ideal", "--out-dir",
                     str(tmp_path / "out")]) == 0
        assert "qpsk_ideal" in capsys.readouterr().out

    def test_bundled_name_not_hidden_by_directory(self, tmp_path, capsys,
                                                  monkeypatch):
        # a results folder named like a scenario, e.g. from an earlier run
        monkeypatch.chdir(tmp_path)
        (tmp_path / "qpsk_ideal").mkdir()
        assert main(["simulate", "qpsk_ideal", "--out-dir", "out"]) == 0
        assert "qpsk_ideal" in capsys.readouterr().out

    def test_config_error_exit_two(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{broken")
        assert main(["simulate", str(p), "--out-dir", str(tmp_path)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_file_exit_two(self, tmp_path, capsys):
        assert main(["simulate", str(tmp_path / "nope.json"),
                     "--out-dir", str(tmp_path)]) == 2

    def test_runtime_failure_exit_three(self, tmp_path, capsys):
        cfg = {
            "name": "fold",
            "sample_rate": 4.0e9,
            "chain": {"stages": [
                {"kind": "am_ampm", "params": {"gain_poly": [1.0, -0.45],
                                               "phase_poly": [0.0]}},
            ]},
            "routine": {"kind": "dpd_fit", "full_scale": 1.0},
        }
        p = tmp_path / "cal.json"
        p.write_text(json.dumps(cfg))
        assert main(["calibrate", str(p), "--out-dir",
                     str(tmp_path / "out")]) == 3
        assert "error" in capsys.readouterr().err

    def test_sweep_command(self, tmp_path, capsys):
        cfg = TestSweep().sweep_config([2.0e9, 1.0e9])
        p = tmp_path / "swp.json"
        p.write_text(json.dumps(cfg))
        assert main(["sweep", str(p), "--out-dir", str(tmp_path / "out"),
                     "--threads", "2"]) == 0
        assert (tmp_path / "out" / "swp" / "sweep.csv").exists()

    def test_scenarios_command(self, capsys):
        assert main(["scenarios"]) == 0
        assert "qpsk_ideal" in capsys.readouterr().out

    def test_calibrate_command(self, tmp_path, capsys):
        p = tmp_path / "c.json"
        p.write_text(json.dumps(TestCalibrationRunner().cal_config()))
        assert main(["calibrate", str(p), "--out-dir",
                     str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "fix-iq" / "report.json").exists()
