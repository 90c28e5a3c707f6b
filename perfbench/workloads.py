"""The four benchmark workloads: what one op is, and why it was chosen.

Every in-process workload is a closed loop with one client: the next op
starts when the previous one ends.  Inputs are scenario dicts built here
from the workload seed; the package receives nothing else.  The bit,
phase-noise and jitter seeds of a scenario derive from the workload seed,
so the same seed gives the same inputs and byte-identical outputs.

Each ``run_*`` function takes the ``sigchain.scenario`` module, the inputs
built by the matching ``*_inputs`` function and a fresh output directory,
and returns the key values that ``checks.py`` compares with references.

Seeds: the baseline was recorded with seed ``BASELINE_SEED``.  Seed
``HELD_OUT_SEED`` was never run while the benchmark was written; keep it
for confirming a claimed gain on a seed the change was not tuned on.
"""
from __future__ import annotations

import csv
import math
import random

BASELINE_SEED = 1
HELD_OUT_SEED = 90210

# BENCHMARK.json lists only link_budget and cal_sweep; qubit_gate and
# cli_cold run by name, traced or not, but are not gated.  On the 2-core
# shared host the benchmark was sized on, pure-Python speed switches by
# about 1.4x between spells lasting minutes.  qubit_gate follows those
# spells in full: over ten 30-s runs its op rate spread 28% between
# quartiles, past the 25% bound, while link_budget's long-record numpy work
# spread 8%.  Two workloads leave room, within the benchmark's total time,
# for runs long enough to average over several spells.  They still reach
# every layer: cal_sweep reaches qubit through the Rabi calibration, and
# each traced run reports the cli.import_* layers.  Import cost stays gated
# through setup_s.
WORKLOADS = ("link_budget", "qubit_gate", "cal_sweep", "cli_cold")


def _seeds(seed: int, *names: str) -> dict:
    rng = random.Random(f"sigchain-bench/{seed}")
    return {name: rng.randrange(1, 2**31) for name in names}


# ------------------------------------------------------------ link_budget
#
# Loads: two 8192-symbol comm scenarios (~65.7k samples each) per op.
# Few calls on long records: the sample_jitter kernel, the eye and budget
# metrics and the CSV writers and decision loops in `scenario` do most of
# the work.  Bypasses: qubit, calibration and sweep code are never reached.

LINK_FS = 8.0e9
LINK_SYMBOLS = 8192


def link_budget_inputs(seed: int) -> list:
    s = _seeds(seed, "qam_bits", "phase_noise", "jitter", "psk_bits")
    qam = {
        "name": "bench_qam16_budget",
        "mode": "comm",
        "sample_rate": LINK_FS,
        "chain": {"architecture": "cartesian", "stages": [
            {"kind": "amplitude_error", "params": {"eps_a": 0.02}},
            {"kind": "am_ampm", "params": {"gain_poly": [1.0, -0.03],
                                           "phase_poly": [0.0, 0.0, 0.02]}},
            {"kind": "static_phase_error", "params": {"phi_e": 0.015}},
            {"kind": "phase_noise",
             "params": {"rate": 100.0, "seed": s["phase_noise"]}},
            {"kind": "sample_jitter",
             "params": {"sigma_s": 3.0e-12, "seed": s["jitter"]}},
            {"kind": "iq_imbalance",
             "params": {"gain_mismatch": 0.03, "quad_skew": 0.02}},
            {"kind": "lo_feedthrough", "params": {"offset": [0.004, 0.003]}},
            {"kind": "bandwidth_limit", "params": {"cutoff_hz": 1.6e9}},
        ]},
        "comm": {
            "constellation": {"scheme": "square_qam", "m": 16},
            "pulse": {"kind": "root_raised_cosine", "rolloff": 0.35,
                      "span_symbols": 16, "samples_per_symbol": 8},
            "n_symbols": LINK_SYMBOLS,
            "bit_seed": s["qam_bits"],
            "eye_levels": 4,
            "outputs": ["budget", "eye", "psd", "constellation"],
        },
    }
    psk = {
        "name": "bench_psk8_polar",
        "mode": "comm",
        "sample_rate": LINK_FS,
        "chain": {"architecture": "polar", "stages": [
            {"kind": "polar_paths", "params": {
                "am_bits": 8, "am_full_scale": None, "am_cutoff_hz": 3.0e9,
                "tau_a": 0.0, "pm_bits": 10, "pm_cutoff_hz": 3.0e9,
                "tau_p": 6.0e-11, "comp_delay_s": 0.0}},
            {"kind": "onoff_leakage", "params": {"off_ratio_db": 50.0}},
        ]},
        "comm": {
            "constellation": {"scheme": "m_psk", "m": 8},
            "pulse": {"kind": "raised_cosine", "rolloff": 0.5,
                      "span_symbols": 8, "samples_per_symbol": 8},
            "n_symbols": LINK_SYMBOLS,
            "bit_seed": s["psk_bits"],
            "outputs": ["constellation", "psd"],
        },
    }
    return [qam, psk]


def run_link_budget(sc, inputs: list, out_dir) -> dict:
    qam = sc.run_scenario(inputs[0], out_dir)
    psk = sc.run_scenario(inputs[1], out_dir)
    budget = qam["budget"]
    return {"qam.evm_rms": qam["evm_rms"],
            "qam.rss_deviation": budget["rss_deviation"],
            "qam.budget.amp": budget["terms"]["amp"],
            "qam.budget.iq_lo": budget["terms"]["iq_lo"],
            "qam.eye.height": qam["eye"]["height"],
            "psk.evm_rms": psk["evm_rms"]}


# ------------------------------------------------------------- qubit_gate
#
# Loads: two finely resolved gates per op (1024 drive samples, 16
# propagation substeps each) through the four-stage drive chain below.
# `bloch_trajectory` and `propagate` do about three quarters of the work.
# Bypasses: link metrics and the fractional-delay kernel are never reached.
# No stage is stochastic, so the seed changes nothing here.

QUBIT_FS = 6.4e10
QUBIT_DURATION = 1.6e-8          # 1024 samples at QUBIT_FS
QUBIT_GAIN = math.pi / 1.0e-8
QUBIT_SUBSTEPS = 16


def qubit_chain() -> dict:
    return {"architecture": "cartesian", "stages": [
        {"kind": "amplitude_error", "params": {"eps_a": 0.01}},
        {"kind": "iq_imbalance",
         "params": {"gain_mismatch": 0.02, "quad_skew": 0.01}},
        {"kind": "lo_feedthrough", "params": {"offset": [0.002, -0.001]}},
        {"kind": "bandwidth_limit", "params": {"cutoff_hz": 4.0e9}},
    ]}


def _gaussian(drag: bool) -> dict:
    env = {"shape": "gaussian", "duration_s": QUBIT_DURATION,
           "peak_amplitude": None, "sigma_fraction": 0.25}
    if drag:
        env.update({"drag_enabled": True,
                    "drag_coefficient_s": -6.366197723675814e-10})
    return env


def qubit_gate_inputs(seed: int) -> list:
    pi = {"rotation_angle": math.pi, "axis_phase": 0.0}
    two = {
        "name": "bench_pi_bloch", "mode": "qubit", "sample_rate": QUBIT_FS,
        "chain": qubit_chain(),
        "qubit": {"model": {"levels": 2, "drive_gain": QUBIT_GAIN},
                  "envelope": _gaussian(drag=False), "gate": pi,
                  "substeps": QUBIT_SUBSTEPS, "outputs": ["bloch"]},
    }
    three = {
        "name": "bench_drag3", "mode": "qubit", "sample_rate": QUBIT_FS,
        "chain": qubit_chain(),
        "qubit": {"model": {"levels": 3, "drive_gain": QUBIT_GAIN,
                            "anharmonicity": -1.5707963267948966e9},
                  "envelope": _gaussian(drag=True), "gate": pi,
                  "substeps": QUBIT_SUBSTEPS, "outputs": []},
    }
    return [two, three]


def run_qubit_gate(sc, inputs: list, out_dir) -> dict:
    two = sc.run_scenario(inputs[0], out_dir)
    three = sc.run_scenario(inputs[1], out_dir)
    return {"pi.infidelity": two["infidelity"],
            "drag.infidelity": three["infidelity"],
            "drag.leakage": three["leakage"]}


# -------------------------------------------------------------- cal_sweep
#
# Loads: all five calibration routines plus a 4x4 threaded sweep per op.
# The same chain, impairment and qubit layers are called hundreds of times
# on short records, often with identical synthesis, so per-call overhead
# and caching show here, and a change tuned for link_budget's long records
# can cost here.  It is the only workload that reaches calibration and the
# threaded sweep.  Bypasses: eye, budget and Bloch outputs.

SWEEP_THREADS = 2                 # nproc of the 2-core reference machine


def _polar_chain(tau_p: float) -> dict:
    return {"architecture": "polar", "stages": [
        {"kind": "polar_paths", "params": {
            "am_bits": None, "am_full_scale": None, "am_cutoff_hz": 3.0e9,
            "tau_a": 0.0, "pm_bits": None, "pm_cutoff_hz": 3.0e9,
            "tau_p": tau_p, "comp_delay_s": 0.0}},
        {"kind": "onoff_leakage", "params": {"off_ratio_db": 60.0}},
    ]}


def cal_sweep_inputs(seed: int) -> dict:
    s = _seeds(seed, "align_probe", "sweep_bits")
    return {
        "polar_delay_align": {
            "name": "bench_align", "sample_rate": 8.0e9,
            "chain": _polar_chain(1.5e-10),
            "routine": {"kind": "polar_delay_align", "symbol_period": 1.0e-9,
                        "window_s": 4.0e-10, "step_s": 2.5e-11,
                        "n_symbols": 512, "seed": s["align_probe"]}},
        "dpd_fit": {
            "name": "bench_dpd", "sample_rate": 8.0e9,
            "chain": {"architecture": "cartesian", "stages": [
                {"kind": "am_ampm",
                 "params": {"gain_poly": [1.0, -0.12, 0.01],
                            "phase_poly": [0.0, 0.0, 0.1]}},
                {"kind": "bandwidth_limit", "params": {"cutoff_hz": 1.0e9}},
            ]},
            "routine": {"kind": "dpd_fit", "order": 5, "n_levels": 64,
                        "hold_samples": 1024}},
        "iq_cal": {
            "name": "bench_iq", "sample_rate": 4.0e9,
            "chain": {"architecture": "cartesian", "stages": [
                {"kind": "iq_imbalance",
                 "params": {"gain_mismatch": 0.08, "quad_skew": 0.06}},
                {"kind": "lo_feedthrough", "params": {"offset": [0.01, 0.005]}},
            ]},
            "routine": {"kind": "iq_cal", "n_samples": 65536}},
        "leakage_cancel": {
            "name": "bench_leak", "sample_rate": 4.0e9,
            "chain": {"architecture": "cartesian", "stages": [
                {"kind": "amplitude_error", "params": {"eps_a": 0.05}},
                {"kind": "lo_feedthrough", "params": {"offset": [0.02, -0.01]}},
            ]},
            "routine": {"kind": "leakage_cancel"}},
        "rabi_amplitude_cal": {
            "name": "bench_rabi", "sample_rate": QUBIT_FS,
            "chain": qubit_chain(),
            "routine": {"kind": "rabi_amplitude_cal",
                        "model": {"levels": 2, "drive_gain": QUBIT_GAIN},
                        "envelope": {"shape": "gaussian",
                                     "duration_s": QUBIT_DURATION,
                                     "peak_amplitude": 1.0,
                                     "sigma_fraction": 0.25},
                        # the half turn sits near 1.32, inside the sweep
                        "scales": [0.035 * (k + 1) for k in range(64)]}},
        "sweep": {
            "base": {
                "name": "bench_sweep", "mode": "comm", "sample_rate": 8.0e9,
                "chain": _polar_chain(0.0),
                "comm": {"constellation": {"scheme": "m_psk", "m": 4},
                         "pulse": {"kind": "raised_cosine", "rolloff": 0.5,
                                   "span_symbols": 8,
                                   "samples_per_symbol": 8},
                         "n_symbols": 2048, "bit_seed": s["sweep_bits"],
                         "outputs": []}},
            "sweep": {"paths": ["chain.stages.0.params.tau_p",
                                "chain.stages.0.params.pm_cutoff_hz"],
                      "values": [[0.0, 5.0e-11, 1.0e-10, 1.5e-10],
                                 [3.0e9, 2.0e9, 1.5e9, 1.0e9]]}},
    }


def run_cal_sweep(sc, inputs: dict, out_dir) -> dict:
    align = sc.run_calibration(inputs["polar_delay_align"], out_dir)
    dpd = sc.run_calibration(inputs["dpd_fit"], out_dir)
    iq = sc.run_calibration(inputs["iq_cal"], out_dir)
    leak = sc.run_calibration(inputs["leakage_cancel"], out_dir)
    rabi = sc.run_calibration(inputs["rabi_amplitude_cal"], out_dir)
    table = sc.run_sweep(inputs["sweep"], out_dir, threads=SWEEP_THREADS)
    with open(table, newline="") as f:
        rows = list(csv.DictReader(f))
    evms = [float(r["evm_rms"]) for r in rows]
    return {"align.best_delay_s": align["best_delay_s"],
            "dpd.gain_poly.1": float(dpd["gain_poly"][0]),
            "iq.matrix.00": iq["matrix"][0][0],
            "leak.off_level.abs": abs(leak["off_level"]),
            "rabi.pi_code": rabi["pi_code"],
            "sweep.points": float(len(rows)),
            "sweep.evm_rms.min": min(evms),
            "sweep.evm_rms.max": max(evms)}


# --------------------------------------------------------------- cli_cold
#
# Loads: one fresh `python -m sigchain.cli` process per op, cycling through
# the nine bundled commands in a seeded order.  This is what an interactive
# user pays: import dominates (scipy.signal alone is most of it) and compute
# is a few milliseconds, so kernel changes should show no change here.
#
# Harness facts: the package is not installed, so each op runs
# `python -m sigchain.cli` with PYTHONPATH pointing at the checkout's
# `src`.  Ops run from a working directory that holds no entry named like
# a bundled scenario: `cli._resolve` treats an existing path with the
# scenario's name as the scenario file, so running from inside an out-dir
# that holds `<name>/` result folders fails with exit 2.

CLI_COMMANDS = (
    ("simulate", "qpsk_ideal"),
    ("simulate", "qam16_budget"),
    ("simulate", "polar_skew"),
    ("simulate", "rfdac_images"),
    ("simulate", "harmonic_ask"),
    ("simulate", "pi_pulse_ideal"),
    ("simulate", "drag_leakage"),
    ("sweep", "bandwidth_sweep"),
    ("calibrate", "iq_cal_demo"),
)


def cli_cold_inputs(seed: int) -> list:
    order = list(CLI_COMMANDS)
    random.Random(f"sigchain-bench/{seed}/cli").shuffle(order)
    return order


INPUTS = {"link_budget": link_budget_inputs, "qubit_gate": qubit_gate_inputs,
          "cal_sweep": cal_sweep_inputs, "cli_cold": cli_cold_inputs}
OPS = {"link_budget": run_link_budget, "qubit_gate": run_qubit_gate,
       "cal_sweep": run_cal_sweep}
