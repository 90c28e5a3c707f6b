"""Scenario files, deterministic emitters, sweeps, and the CLI."""
import copy
import csv
import json
import logging
import math
import os
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from sigchain import metrics as met
from sigchain import modulation as mod
from sigchain import qubit as qb
from sigchain import scenario as scn
from sigchain.chains import InputError, TxChain, run_chain, synth_qubit_pulse
from sigchain.cli import main
from sigchain.envelope import MAX_SAMPLES


# a 16-bit converter holding each sample twice
HELD = {"stages": [{"kind": "rfdac_core",
                    "params": {"bits": 16, "hold_factor": 2}}]}


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


def _child_env() -> dict:
    """The environment of a child Python that imports this sigchain."""
    src = str(Path(scn.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}


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


def _reference_csv(header, rows):
    """The per-cell CSV rules, written out cell by cell."""
    lines = [header]
    for row in rows:
        cells = []
        for v in row:
            if isinstance(v, str):
                cells.append(v)
            elif isinstance(v, (int, np.integer)):
                cells.append(str(int(v)))
            else:
                v = float(v)
                if math.isnan(v):
                    cells.append("nan")
                elif math.isinf(v):
                    cells.append("inf" if v > 0 else "-inf")
                else:
                    cells.append(format(v, ".17g"))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


class TestCsv:
    SPECIAL = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324,
               1.7976931348623157e308, 2.2250738585072014e-308, 0.1, 1.0,
               -3.0, 1e16, 123456789.125]

    def columns(self, n):
        rng = np.random.default_rng(n)
        floats = rng.standard_normal(n) * 10.0 ** rng.integers(-320, 308, n)
        floats[:len(self.SPECIAL)] = self.SPECIAL[:n]
        ints = rng.integers(-2**62, 2**62, n)
        return [
            floats,
            (rng.standard_normal(n) * 1e3).astype(np.float32),
            ints,
            [int(v) for v in ints],
            [f"s{k:03b}" for k in range(n)],
            ["FAILED" if k % 3 == 1 else float(v)
             for k, v in enumerate(floats)],
            np.ascontiguousarray(floats[::-1]),
            np.array([f"o{k}" if k % 2 else int(v)
                      for k, v in enumerate(ints)], dtype=object),
            tuple(floats.tolist()),
        ]

    @pytest.mark.parametrize("extra", [0, 1, 17])
    @pytest.mark.parametrize("blocks", [0, 1, 2])
    def test_matches_per_cell_rules(self, blocks, extra):
        n = blocks * scn._CSV_BLOCK + extra
        cols = self.columns(n)
        got = scn._csv("a,b,c,d,e,f,g,h,i", *cols)
        assert got == _reference_csv("a,b,c,d,e,f,g,h,i", zip(*cols))
        assert got.count("\n") == n + 1

    def test_special_values_spelled_out(self):
        text = scn._csv("x", np.array([math.nan, math.inf, -math.inf, -0.0]))
        assert text == "x\nnan\ninf\n-inf\n-0\n"

    def test_booleans_are_true_and_false(self):
        # not 1 and 0, which would read as a swept integer
        text = scn._csv("t,a", (False, True, np.bool_(True)),
                        np.array([True, False, True]))
        assert text == "t,a\nfalse,true\ntrue,false\ntrue,true\n"

    def test_non_scalar_cells_are_quoted_json(self):
        text = scn._csv("v,w", [[0.5, 1], {"a": "b"}, None, 'say "hi"'],
                        [1.0, 2.0, 3.0, 4.0])
        assert text == ('v,w\n"[0.5,1]",1\n"{""a"":""b""}",2\n'
                        'null,3\n"say ""hi""",4\n')
        rows = list(csv.reader(text.splitlines()))
        assert [json.loads(r[0]) for r in rows[1:4]] == [
            [0.5, 1], {"a": "b"}, None]
        assert rows[4][0] == 'say "hi"'

    @staticmethod
    def _per_cell(header, *columns):
        """Each float cell formatted on its own by ``"%.17g" % v``."""
        rows = ("\n".join(",".join("%.17g" % v for v in row)
                          for row in zip(*columns)))
        return header + "\n" + rows + "\n"

    @pytest.mark.parametrize("n", [1, 2, 9, scn._CSV_BLOCK + 5])
    def test_repeated_floats_match_per_cell_text(self, n):
        # -0.0 beside 0.0, a nan of either sign and both infinities, in a
        # column of few distinct values, beside an all-distinct column
        rng = np.random.default_rng(n)
        pool = np.array([0.0, -0.0, math.nan, -math.nan, math.inf,
                         -math.inf, 0.1, -3.0, 5e-324])
        repeated = pool[rng.integers(0, pool.size, n)]
        repeated[:min(n, pool.size)] = pool[:n]
        distinct = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
        halves = np.repeat(rng.standard_normal((n + 1) // 2), 2)[:n]
        strided = np.repeat(pool[:4], 2 * n).reshape(-1, 2)[:n, 1]
        cols = (repeated, distinct, halves, strided,
                repeated.astype(np.float32))
        got = scn._csv("r,d,h,s,f", *cols)
        assert got == self._per_cell("r,d,h,s,f", *cols)

    def test_signed_zeros_keep_their_text(self):
        text = scn._csv("x", np.array([0.0, -0.0, 0.0, -0.0]))
        assert text == "x\n0\n-0\n0\n-0\n"

    @pytest.mark.parametrize("n", [1, 9, scn._CSV_BLOCK + 5])
    def test_ndarray_columns_match_csv_cell(self, n):
        # str, int and bool arrays are read with tolist and formatted cell
        # by cell; float arrays of repeating values and an all-distinct
        # float column take the exact-digit pass beside them
        rng = np.random.default_rng(n)
        words = np.array(["0110", "a,b", 'say "hi"', "line\nbreak", "", "x"])
        ints = np.array([0, -1, 7, 2**62, -2**63, 42])
        pool = np.array([0.0, -0.0, math.nan, math.inf, -math.inf, 0.1])
        pick = rng.integers(0, 6, (4, n))
        cols = (words[pick[0]], ints[pick[1]], ints[pick[2]].astype(np.int32),
                pick[3] > 2, pool[pick[3]],
                rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n))
        want = "s,i,j,b,r,d\n" + "".join(
            ",".join(scn._csv_cell(v) for v in row) + "\n"
            for row in zip(*cols))
        # line by line, so a failure names the lines, not a full text diff
        got, want = scn._csv("s,i,j,b,r,d", *cols).split("\n"), \
            want.split("\n")
        assert len(got) == len(want)
        assert [k for k, (a, b) in enumerate(zip(got, want)) if a != b] == []

    TABLE_FLOATS = np.array([0.0, -0.0, math.nan, -math.nan, math.inf,
                             -math.inf, 1e-300, -1e-300, 1e20, -1e20, 0.1,
                             -3.0, 5e-324, 123456789.125])
    TABLE_WORDS = ["0110", "a,b", 'say "hi"', "line\nbreak", "", "x\ry"]

    @pytest.mark.parametrize("n", [1, 9, scn._CSV_BLOCK + 5])
    def test_table_columns_match_csv_cell(self, n):
        # each row's cell is _csv_cell of its table entry: signed zeros,
        # nan, infinities and floats outside the exact-digit range in a
        # float table, RFC 4180 quoting in a string table
        rng = np.random.default_rng(n)
        fi = rng.integers(0, self.TABLE_FLOATS.size, n)
        wi = rng.integers(0, len(self.TABLE_WORDS), n)
        cols = (scn.Table(self.TABLE_FLOATS, fi),
                scn.Table(self.TABLE_WORDS, wi),
                scn.Table(np.array([7, -1, 2**62]), fi % 3),
                self.TABLE_FLOATS[fi])
        want = "f,w,i,x\n" + "".join(
            f"{scn._csv_cell(self.TABLE_FLOATS[f])},"
            f"{scn._csv_cell(self.TABLE_WORDS[w])},"
            f"{[7, -1, 2**62][f % 3]},{scn._csv_cell(self.TABLE_FLOATS[f])}\n"
            for f, w in zip(fi.tolist(), wi.tolist()))
        got = scn._csv("f,w,i,x", *cols)
        assert got.split("\n") == want.split("\n")
        # a table column writes what the plain column of its rows writes
        assert got == scn._csv("f,w,i,x", self.TABLE_FLOATS[fi],
                               np.array(self.TABLE_WORDS)[wi],
                               np.array([7, -1, 2**62])[fi % 3],
                               self.TABLE_FLOATS[fi])

    def test_string_array_matches_per_cell_path(self):
        # a string array column writes what the list of its values writes,
        # quoting included
        labels = ["0110", "a,b", 'say "hi"', "line\nbreak", "0110", "a,b"]
        got = scn._csv("s,x", np.array(labels), np.arange(6.0))
        assert got == scn._csv("s,x", labels, np.arange(6.0))
        assert got.splitlines()[2] == '"a,b",1'

    @staticmethod
    def _oracle_columns():
        """Float columns, about 1.5M cells, that probe the exact-digit
        path at its edges; each cell's text must be ``"%.17g" % v``."""
        rng = np.random.default_rng(20260)

        def both(v):
            return np.concatenate([v, -v])

        # each decade from 1e-5 to 1e17, and one and two ulps either side
        tens = np.array([float(f"1e{k}") for k in range(-5, 18)])
        up, down = np.nextafter(tens, np.inf), np.nextafter(tens, 0.0)
        decades = both(np.concatenate([
            tens, up, down, np.nextafter(up, np.inf),
            np.nextafter(down, 0.0)]))
        # 17 digits then a 5: the nearest doubles to 18th-digit ties, and
        # odd / 2**(17 - e) in decade e, each an exact tie (an odd below
        # 2**53 is exact, which bounds e = 15 to 2.25e15)
        digits = rng.integers(10**16, 10**17, 50_000)
        exps = rng.integers(-4, 16, digits.size)
        near = np.array([float(f"{d}5e{e - 17}")
                         for d, e in zip(digits.tolist(), exps.tolist())])
        exact = np.concatenate([
            (rng.integers(math.ceil(10.0**e * 2**(17 - e)),
                          int(min(10.0**(e + 1) * 2**(17 - e), 2**53)),
                          2_500) | 1) * 2.0 ** (e - 17)
            for e in range(-4, 16)])
        # 17 nines then a digit: as near as a double comes to carrying
        # into the next decade
        nines = np.array([float(f"99999999999999999{d}e{e - 17}")
                          for d in range(10) for e in range(-5, 17)])
        # bit patterns: uniform over the exact-digit range, and over all
        # doubles (nan payloads, infinities, subnormals and both zeros too)
        lo, hi = np.array([1e-4, 1e16]).view(np.int64)
        in_range = rng.integers(lo, hi, 350_000).view(np.float64)
        anything = rng.integers(-2**63, 2**63 - 1, 200_000,
                                endpoint=True).view(np.float64)
        fallback = np.array([0.0, 5e-324, 2.2250738585072014e-308,
                             1.7976931348623157e308, math.nan, math.inf])
        mixed = both(in_range[:20_000].copy())
        mixed[rng.integers(0, mixed.size, 4_000)] = both(fallback)[
            rng.integers(0, 12, 4_000)]
        lo32, hi32 = np.array([1e-4, 1e16], np.float32).view(np.int32)
        single = rng.integers(lo32, hi32, 100_000).view(np.float32)
        # float32's smallest subnormal, smallest normal and largest values
        fallback32 = np.array([0.0, 1e-45, 1.1754944e-38, 3.4028235e38,
                               math.nan, math.inf], np.float32)
        return [decades, both(near), both(exact), both(nines),
                both(in_range), anything, both(fallback), mixed,
                both(single), both(fallback32)]

    @staticmethod
    def _assert_percent_17g(col):
        got = scn._csv("x", col).split("\n")
        assert got[0] == "x" and got[-1] == "" and len(got) == len(col) + 2
        # cell by cell, so a failure names the values, not a text diff
        bad = [(v, g) for v, g in zip(col.tolist(), got[1:-1])
               if g != "%.17g" % v]
        assert bad[:5] == [], f"{len(bad)} of {len(col)} cells differ"

    def test_float_cells_match_percent_17g(self):
        for col in self._oracle_columns():
            self._assert_percent_17g(col)

    @pytest.mark.parametrize("toward", [-math.inf, math.inf])
    def test_float_cells_do_not_trust_log10(self, monkeypatch, toward):
        # log10 an ulp low puts every power of ten a decade low, an ulp
        # high puts the ulps below it a decade high; the digits must still
        # be exact, whatever the log10 of a numpy build errs by
        log10 = np.log10
        monkeypatch.setattr(np, "log10",
                            lambda x: np.nextafter(log10(x), toward))
        decades, *_, mixed = self._oracle_columns()[:8]
        self._assert_percent_17g(np.concatenate([decades, mixed]))


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
        # absent, or present with no stage to attribute a term to
        for chain in (None, {"stages": []}):
            cfg = qpsk_config(outputs=("budget",), chain=chain)
            with pytest.raises(scn.ConfigError, match=re.escape(
                    "scenario.comm.outputs: a budget report needs a chain of "
                    "at least one stage")):
                scn.plan_scenario(cfg)

    def test_architecture_rule_has_one_text(self):
        with pytest.raises(InputError) as lib:
            TxChain("bogus")
        assert lib.value.key == "architecture"
        assert lib.value.problem == (
            "expected one of ('cartesian', 'polar', 'rfdac', 'harmonic', "
            "'custom'), got 'bogus'")
        cfg = qpsk_config(chain={"architecture": "bogus", "stages": []})
        with pytest.raises(scn.ConfigError) as parsed:
            scn.plan_scenario(cfg)
        assert str(parsed.value) == f"scenario.chain.{lib.value}"

    @pytest.mark.parametrize("chain, want", [
        ({}, TxChain("custom")), ({"stages": None}, TxChain("custom")),
        ({"architecture": "polar"}, TxChain("polar"))],
        ids=["empty", "null-stages", "architecture-only"])
    def test_absent_stages_plan_to_an_empty_chain(self, chain, want):
        plan = scn.plan_scenario(qpsk_config(outputs=(), chain=chain))
        assert plan["chain"] == want and plan["chain"].stages == ()

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

    @pytest.mark.parametrize("stages, where", [
        # each stage sees the scenario rate times every earlier hold factor
        ([{"kind": "bandwidth_limit", "params": {"cutoff_hz": 4.0e9}}],
         "stages.0.params.cutoff_hz: must stay below 4e+09"),
        ([{"kind": "rfdac_core", "params": {"bits": 8, "hold_factor": 2}},
          {"kind": "bandwidth_limit", "params": {"cutoff_hz": 8.0e9}}],
         "stages.1.params.cutoff_hz: must stay below 8e+09"),
        ([{"kind": "polar_paths", "params": {"pm_cutoff_hz": 5.0e9}}],
         "stages.0.params.pm_cutoff_hz"),
        # the shaped record's rate, sps / (sps / 8e9), is an ulp below 8e9
        ([{"kind": "sample_jitter",
           "params": {"sigma_s": 1.2500000000000002e-11, "seed": 1}}],
         "stages.0.params.sigma_s: must stay below 1.25e-11"),
        ([{"kind": "bandwidth_limit",
           "params": {"cutoff_hz": 3999999999.9999995}}],
         "scenario.chain.stages.0.params.cutoff_hz: must stay below 4e+09"),
    ])
    def test_rate_bounds_at_the_stage_rate(self, stages, where):
        with pytest.raises(scn.ConfigError, match=re.escape(where)):
            scn.plan_scenario(qpsk_config(chain={"stages": stages}))

    def test_hold_factor_raises_the_rate_later_stages_see(self):
        stages = [
            {"kind": "rfdac_core", "params": {"bits": 8, "hold_factor": 2}},
            {"kind": "bandwidth_limit", "params": {"cutoff_hz": 6.0e9}}]
        scn.plan_scenario(qpsk_config(chain={"stages": stages}))

    def test_sample_budget_counts_symbols_and_holds(self):
        # the shaped record: 8 samples per symbol plus 8 symbols of tails
        cfg = qpsk_config(n_symbols=MAX_SAMPLES // 8 - 8)
        scn.plan_scenario(cfg)
        cfg["comm"]["n_symbols"] += 1
        with pytest.raises(scn.ConfigError,
                           match=r"^scenario\.comm\.n_symbols: asks for"):
            scn.plan_scenario(cfg)
        cfg["comm"]["n_symbols"] -= 1
        cfg["chain"] = {"stages": [
            {"kind": "rfdac_core", "params": {"bits": 8, "hold_factor": 2}}]}
        with pytest.raises(scn.ConfigError,
                           match=r"^scenario\.comm\.n_symbols: asks for"):
            scn.plan_scenario(cfg)

    @pytest.mark.parametrize("key, value, where", [
        ("duration_s", 1.0e9, "scenario.qubit.envelope.duration_s"),
        ("substeps", 10**9, "scenario.qubit.substeps"),
    ])
    def test_sample_budget_counts_gate_samples(self, key, value, where):
        cfg = pi_config()
        if key == "substeps":
            cfg["qubit"]["substeps"] = value
        else:
            cfg["qubit"]["envelope"][key] = value
        with pytest.raises(scn.ConfigError, match=re.escape(where)):
            scn.plan_scenario(cfg)

    @pytest.mark.parametrize("make, kind, key", [
        (lambda: qpsk_config(n_symbols=32, outputs=(), chain=HELD),
         "path_skew", "tau_i"),
        (lambda: qpsk_config(n_symbols=32, outputs=(), chain=HELD),
         "iq_paths", "tau_q"),
        (lambda: {**pi_config(outputs=()), "chain": HELD}, "path_skew",
         "tau_q"),
        (lambda: {**pi_config(outputs=()), "chain": HELD}, "iq_paths",
         "tau_i"),
        (lambda: {**rabi_cal_config(), "chain": HELD}, "path_skew", "tau_i"),
        (lambda: probe_cal_config("iq_cal", n_samples=64), "path_skew",
         "tau_q"),
        (lambda: align_cal_config(n_symbols=24), "iq_paths", "tau_i"),
        (lambda: probe_cal_config("dpd_fit", hold_factor=2), "iq_paths",
         "tau_q"),
        (lambda: probe_cal_config("leakage_cancel", hold_factor=2),
         "path_skew", "tau_i"),
        (lambda: qpsk_config(n_symbols=32, outputs=(), chain=HELD),
         "polar_paths", "tau_a"),
        (lambda: {**pi_config(outputs=()), "chain": HELD}, "polar_paths",
         "tau_p"),
        (lambda: probe_cal_config("dpd_fit", hold_factor=2), "polar_paths",
         "comp_delay_s"),
    ], ids=["comm-skew", "comm-iq-paths", "qubit-skew", "qubit-iq-paths",
            "rabi", "iq", "align", "dpd", "leakage", "comm-polar-am",
            "qubit-polar-pm", "dpd-polar-trim"])
    def test_delay_bound_is_a_quarter_of_the_record(self, make, kind, key,
                                                    tmp_path, capsys,
                                                    monkeypatch):
        from sigchain import calibration as cal
        from sigchain import chains as ch

        cfg = copy.deepcopy(make())
        calibrate = "routine" in cfg
        run = scn.run_calibration if calibrate else scn.run_scenario
        stages = cfg["chain"]["stages"]
        stages.append({"kind": kind, "params": {key: 0.0}})
        # the record the delay stage sees: a hold keeps its duration
        real, seen = ch.apply_stage, []

        class Seen(Exception):
            pass

        def spy(env, spec, gate_mask=None):
            if spec.kind != kind:
                return real(env, spec, gate_mask)
            seen.append(env.duration)
            raise Seen

        with monkeypatch.context() as m:
            m.setattr(ch, "apply_stage", spy)
            with pytest.raises(Seen):
                run(cfg, tmp_path / "probe")
        bound = seen[0] / 4.0
        stages[-1]["params"][key] = -math.nextafter(bound, 0.0)
        try:
            run(cfg, tmp_path / "below")
        except cal.CalibrationError:
            pass  # the chain ran; the routine may refuse what it measured
        stages[-1]["params"][key] = -bound
        p = tmp_path / "at.json"
        p.write_text(json.dumps(cfg))
        assert main(["calibrate" if calibrate else "simulate", str(p),
                     "--out-dir", str(tmp_path / "at")]) == 2
        err = capsys.readouterr().err
        top = "calibration" if calibrate else "scenario"
        assert (f"config error: {top}.chain.stages.{len(stages) - 1}.params."
                f"{key}:") in err
        assert not (tmp_path / "at").exists()

    def test_read_config_rejects_bad_json(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        with pytest.raises(scn.ConfigError, match="invalid JSON"):
            scn.read_config(p)

    def test_read_config_missing_file(self, tmp_path):
        with pytest.raises(scn.ConfigError, match="cannot read"):
            scn.read_config(tmp_path / "absent.json")


def _full_eye_csv(env, symbol_period, instant_fraction):
    """eye.csv as written before the EYE_TRACES cap: every sample."""
    sps = int(round(symbol_period * env.sample_rate))
    instant = int(round(instant_fraction * sps))
    offs = (np.arange(len(env)) - instant + sps // 2) % sps
    return scn._csv("t_frac,i,q", offs / sps, env.samples.real,
                    env.samples.imag)


def _eye_case(case):
    if case == "harmonic_ask":
        return scn.read_config(scn.bundled_scenario_path("harmonic_ask"))
    cfg = qpsk_config(n_symbols=64 if case == "short_record" else 300,
                      outputs=("eye",))
    if case == "rect":
        cfg["comm"]["n_symbols"] = 64
        cfg["comm"]["constellation"] = {"scheme": "m_ask", "m": 2}
        cfg["comm"]["pulse"] = {"kind": "rect", "span_symbols": 4,
                                "samples_per_symbol": 8}
    if case == "hold_factor":
        cfg["chain"] = {"stages": [{"kind": "rfdac_core", "params": {
            "bits": 16, "hold_factor": 2}}]}
    return cfg


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

    @pytest.mark.parametrize("scheme, m", [
        ("m_psk", 4), ("m_psk", 8), ("square_qam", 16), ("square_qam", 64)])
    def test_constellation_rows_are_the_sent_labels(self, scheme, m):
        # bits, i_ref and q_ref come from tables over the sent labels; the
        # text equals the plain columns of the bit strings and the scorer's
        # reference symbols
        cfg = qpsk_config(n_symbols=300, outputs=("constellation",),
                          chain={"stages": [{"kind": "phase_noise", "params":
                                             {"rate": 1e6, "seed": 2}}]})
        cfg["comm"]["constellation"] = {"scheme": scheme, "m": m}
        _, artifacts = scn._compute(cfg)
        plan = scn.plan_scenario(cfg)
        bits, stream, clean = scn._comm_input(plan)
        rx, ref, _ = met.LinkScorer(stream, plan["constellation"],
                                    plan["pulse"])(
            run_chain(plan["chain"], clean))
        bps, skip = plan["constellation"].bits_per_symbol, 8
        labels = ["".join(map(str, row))
                  for row in bits.reshape(-1, bps)[skip:-skip].tolist()]
        assert artifacts["constellation.csv"] == scn._csv(
            "bits,i_ref,q_ref,i_rx,q_rx", labels, ref.real, ref.imag,
            rx.real, rx.imag)

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
        comm = qpsk_config(outputs=("constellation", "psd", "eye"))
        qubit = pi_config()
        qubit["qubit"]["substeps"] = 4
        for out in (a, b):
            scn.run_scenario(comm, out)
            scn.run_scenario(qubit, out)
        for fname in ("metrics.json", "constellation.csv", "psd.csv",
                      "eye.csv"):
            assert (a / "smoke" / fname).read_bytes() == \
                (b / "smoke" / fname).read_bytes()
        for fname in ("metrics.json", "bloch.csv"):
            assert (a / "pi-smoke" / fname).read_bytes() == \
                (b / "pi-smoke" / fname).read_bytes()

    def test_eye_output(self, tmp_path):
        cfg = qpsk_config(outputs=("eye",))
        cfg["comm"]["constellation"] = {"scheme": "m_ask", "m": 2}
        cfg["comm"]["pulse"] = {"kind": "rect", "span_symbols": 4,
                                "samples_per_symbol": 8}
        summary = scn.run_scenario(cfg, tmp_path)
        assert summary["eye"]["height"] > 0.0
        lines = (tmp_path / "smoke" / "eye.csv").read_text().splitlines()
        assert lines[0] == "t_frac,i,q"

    @pytest.mark.parametrize("case, rows", [
        ("root_raised_cosine", 256 * 8),     # 292 steady periods, capped
        ("short_record", 56 * 8),            # 64 + 8 - 2 * 8 periods
        ("rect", 56 * 8),                    # 64 - 2 * 4 periods
        ("hold_factor", 256 * 16),           # the chain doubles the rate
        ("harmonic_ask", 248 * 16),          # 256 - 2 * 4 periods
    ])
    def test_eye_rows_are_the_full_record_rows_past_the_tails(self, case,
                                                              rows):
        cfg = _eye_case(case)
        summary, artifacts = scn._compute(cfg)
        plan = scn.plan_scenario(cfg)
        _, _, clean = scn._comm_input(plan)
        env = clean if plan["chain"] is None else \
            run_chain(plan["chain"], clean)
        full = _full_eye_csv(env, plan["symbol_period"],
                             summary["eye"]["sample_instant_fraction"])
        full = full.splitlines(keepends=True)
        lines = artifacts["eye.csv"].splitlines(keepends=True)
        assert len(lines) == 1 + rows
        sps = round(plan["symbol_period"] * env.sample_rate)
        lo = 1 + plan["pulse"].span_symbols * sps
        assert lines == full[:1] + full[lo:lo + rows]
        # the eye is still scored on the whole record
        eye = met.eye_metrics(env, plan["symbol_period"],
                              n_levels=plan["eye_levels"])
        assert summary["eye"]["height"] == eye.eye_height

    def test_bloch_rows_are_the_drive_sample_instants(self, tmp_path):
        cfg = pi_config()
        cfg["qubit"]["substeps"] = 16
        scn.run_scenario(cfg, tmp_path)
        lines = (tmp_path / "pi-smoke" / "bloch.csv").read_text().splitlines()
        plan = scn.plan_scenario(cfg)
        times, pts = qb.bloch_trajectory(plan["model"],
                                         scn._qubit_input(plan), substeps=16)
        full = scn._csv("t,x,y,z", times, *pts.T).splitlines()
        assert len(full) == 1 + 64 * 16 + 1
        assert len(lines) == 1 + 64 + 1
        assert lines == full[:1] + full[1::16]
        assert abs(float(lines[-1].split(",")[3]) + 1.0) < 1e-9

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

    @pytest.mark.parametrize("timing_search", [False, True])
    def test_budget_reuses_the_main_run(self, timing_search, tmp_path,
                                        monkeypatch):
        from sigchain import chains as ch
        from sigchain import metrics as met

        runs = []

        def counting(chain, env, run_chain=ch.run_chain):
            runs.append(chain)
            return run_chain(chain, env)

        for module in (ch, met, scn):
            monkeypatch.setattr(module, "run_chain", counting, raising=False)
        cfg = scn.read_config(scn.bundled_scenario_path("qam16_budget"))
        cfg["comm"]["timing_search"] = timing_search
        summary = scn.run_scenario(cfg, tmp_path)
        budget = summary["budget"]
        assert budget["total_measured"] == summary["evm_rms"]
        # the search absorbs the low-pass group delay: 0.063 against 0.128
        assert (summary["evm_rms"] < 0.1) == timing_search
        # one run per term plus the main run, whose EVM is the total
        assert len(runs) == len(budget["terms"]) + 1


class TestScoredWindow:
    """With an odd span_symbols x samples_per_symbol the two pulse tails
    together are a sample shorter than span_symbols periods; every sent
    symbol past the first and last span_symbols is still scored."""

    @pytest.mark.parametrize("kind, span, chain", [
        ("raised_cosine", 5, None),
        ("raised_cosine", 7, None),
        ("root_raised_cosine", 5, HELD),
    ], ids=["rc-5x5", "rc-7x5", "rrc-5x5-held"])
    def test_odd_tails_score_every_sent_symbol(self, kind, span, chain):
        cfg = qpsk_config(n_symbols=256, outputs=("constellation",),
                          chain=chain)
        cfg["sample_rate"] = 5.0e9
        cfg["comm"]["pulse"] = {"kind": kind, "rolloff": 0.35,
                                "span_symbols": span, "samples_per_symbol": 5}
        want = 256 - 2 * span
        summary, artifacts = scn._compute(cfg)
        assert summary["num_symbols"] == want
        assert summary["evm_rms"] < 0.1
        rows = artifacts["constellation.csv"].splitlines()[1:]
        assert len(rows) == want
        plan = scn.plan_scenario(cfg)
        const = plan["constellation"]
        for row in rows:
            label, i_ref, q_ref = row.split(",")[:3]
            assert const.points[int(label, 2)] == complex(float(i_ref),
                                                          float(q_ref))
        _, stream, clean = scn._comm_input(plan)
        env = clean if chain is None else run_chain(plan["chain"], clean)
        rx, ref, report = met.LinkScorer(stream, const, plan["pulse"])(env)
        assert rx.size == report.num_symbols == want
        assert np.array_equal(ref, stream.symbols[span:-span])


CUTOFF = "chain.stages.0.params.cutoff_hz"


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

    def test_mistyped_value_fails_only_its_point(self, tmp_path, caplog):
        with caplog.at_level(logging.WARNING, logger="sigchain"):
            target = scn.run_sweep(self.sweep_config([2.0e9, "abc", 1.0e9]),
                                   tmp_path)
        lines = target.read_text().splitlines()
        assert len(lines) == 4
        assert lines[2] == "abc,FAILED,FAILED"
        assert "FAILED" not in lines[1] and "FAILED" not in lines[3]
        failures = json.loads((target.parent / "failures.json").read_text())
        assert len(failures) == 1
        assert failures[0]["point"] == {
            "chain.stages.0.params.cutoff_hz": "abc"}
        assert failures[0]["error"]
        assert "chain.stages.0.params.cutoff_hz='abc'" in caplog.text

    def test_list_values_are_quoted_json(self, tmp_path):
        path = "chain.stages.0.params.offset"
        chain = {"stages": [
            {"kind": "lo_feedthrough", "params": {"offset": [0.0, 0.0]}}]}
        cfg = {"base": qpsk_config(name="lo", n_symbols=32, outputs=(),
                                   chain=chain),
               "sweep": {"paths": [path],
                         "values": [[[0.01, 0.0], [0.02, 0.01]]]}}
        target = scn.run_sweep(cfg, tmp_path)
        with open(target, newline="") as f:
            rows = list(csv.DictReader(f))
        assert [json.loads(r[path]) for r in rows] == [[0.01, 0.0],
                                                       [0.02, 0.01]]
        assert all(None not in r for r in rows)
        assert 0.0 < float(rows[0]["evm_rms"]) < float(rows[1]["evm_rms"])
        assert not (target.parent / "failures.json").exists()

    def test_two_level_qubit_leakage_reads_nan(self, tmp_path):
        cfg = {"base": pi_config(name="pi-swp", outputs=()),
               "sweep": {"paths": ["qubit.gate.rotation_angle"],
                         "values": [[math.pi / 2, math.pi]]}}
        target = scn.run_sweep(cfg, tmp_path)
        with open(target, newline="") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 2
        assert [r["leakage"] for r in rows] == ["nan", "nan"]
        assert all(float(r["infidelity"]) < 1e-9 for r in rows)

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

    def test_header_cells_are_quoted(self, tmp_path):
        # a path no stage takes: every point fails, and the file still
        # reads back as rows of the header's width
        path = 'chain.stages.0.params.a,"b'
        cfg = self.sweep_config([1.0e9, 2.0e9])
        cfg["sweep"]["paths"] = [path]
        target = scn.run_sweep(cfg, tmp_path)
        with open(target, newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == [path, "evm_rms", "evm_db"]
        assert [len(r) for r in rows] == [3] * 3
        assert [r[1:] for r in rows[1:]] == [["FAILED", "FAILED"]] * 2

    def test_misspelt_key_fails_every_point(self, tmp_path):
        # only a bad index or a path through a non-object is refused up
        # front; a key no record takes reaches each point's plan
        cfg = scn.read_config(scn.bundled_scenario_path("bandwidth_sweep"))
        path = "chain.stages.0.params.cutof_hz"
        cfg["sweep"]["paths"] = [path]
        target = scn.run_sweep(cfg, tmp_path)
        with open(target, newline="") as f:
            rows = list(csv.reader(f))
        n = len(cfg["sweep"]["values"][0])
        assert rows[0] == [path, "evm_rms", "evm_db"]
        assert [r[1:] for r in rows[1:]] == [["FAILED", "FAILED"]] * n
        failures = json.loads((target.parent / "failures.json").read_text())
        assert [f["point"] for f in failures] == [
            {path: v} for v in cfg["sweep"]["values"][0]]
        assert all("cutof_hz" in f["error"] for f in failures)

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
        # an index on the way or last, assigning into a string, and
        # traversing one
        for path, match in [
                ("chain.stages.9.params.cutoff_hz", "bad index '9'"),
                ("chain.stages.9", "bad index '9'"),
                ("name.x", "cannot assign"),
                ("name.x.y", "'x' is not traversable")]:
            cfg = self.sweep_config([1.0e9])
            cfg["sweep"]["paths"] = [path]
            with pytest.raises(scn.ConfigError, match=match):
                scn.run_sweep(cfg, tmp_path)

    @pytest.mark.parametrize("first, second", [
        (CUTOFF, CUTOFF),
        (CUTOFF, "chain.stages.00.params.cutoff_hz"),
        (CUTOFF, "chain.stages.-1.params.cutoff_hz"),
        ("chain.stages.0", CUTOFF),
        (CUTOFF, "chain"),
    ], ids=["same", "zero-padded", "negative", "inside", "around"])
    def test_overlapping_paths_exit_two_before_compute(
            self, first, second, tmp_path, capsys, monkeypatch):
        # the second axis would overwrite the first at every point
        started = []

        def compute(*args, **kwargs):
            started.append(args)
            raise AssertionError("compute started")

        monkeypatch.setattr(scn, "run_chain", compute)
        monkeypatch.setattr(scn, "synth_comm_waveform", compute)
        cfg = self.sweep_config([3.2e9, 2.0e9])
        cfg["sweep"] = {"paths": [first, second],
                        "values": [[3.2e9, 2.0e9], [1.5e9, 1.0e9]]}
        p = tmp_path / "s.json"
        p.write_text(json.dumps(cfg))
        assert main(["sweep", str(p), "--out-dir",
                     str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(
            "sigchain: config error: sweep-file.sweep.paths.1: "
            f"{second!r} names the entry {first!r} names")
        assert not (tmp_path / "out").exists() and not started

    def test_distinct_entries_of_one_stage_sweep_together(self, tmp_path):
        cfg = self.sweep_config([2.0e9])
        cfg["sweep"] = {"paths": ["chain.stages.0.params.cutoff_hz",
                                  "chain.stages.0.kind"],
                        "values": [[2.0e9], ["bandwidth_limit"]]}
        lines = scn.run_sweep(cfg, tmp_path).read_text().splitlines()
        assert len(lines) == 2 and "FAILED" not in lines[1]


def _oracle_sweep(raw: dict, out_dir, threads: int) -> Path:
    """``run_sweep`` as it was before points shared their input: each point
    plans, synthesizes and scores its own config."""
    base, sw = raw["base"], raw["sweep"]
    paths, values = sw["paths"], sw["values"]
    grid = [(a,) for a in values[0]] if len(paths) == 1 else \
        [(a, b) for a in values[0] for b in values[1]]

    def one(point):
        cfg = copy.deepcopy(base)
        for p, v in zip(paths, point):
            scn._set_path(cfg, p, v)
        try:
            summary, _ = scn._compute(cfg)
            return point, summary, None
        except Exception as e:  # noqa: BLE001
            return point, None, str(e)

    with ThreadPoolExecutor(max_workers=threads) as pool:
        results = list(pool.map(one, grid))
    cols = scn._MODES[scn.plan_scenario(base)["mode"]].columns
    failures = [{"point": dict(zip(paths, point)), "error": err}
                for point, summary, err in results if summary is None]
    metric_cols = [["FAILED" if s is None else
                    (math.nan if s.get(c) is None else s[c])
                    for _, s, _ in results] for c in cols]
    dest = Path(out_dir) / base["name"]
    dest.mkdir(parents=True, exist_ok=True)
    target = dest / "sweep.csv"
    target.write_text(scn._csv(",".join(list(paths) + list(cols)),
                               *zip(*grid), *metric_cols))
    if failures:
        (dest / "failures.json").write_text(scn.emit_json(failures))
    return target


def _polar_swept(n_symbols=48):
    chain = {"architecture": "polar", "stages": [
        {"kind": "polar_paths", "params": {"am_cutoff_hz": 3.0e9,
                                           "pm_cutoff_hz": 3.0e9}},
        {"kind": "bandwidth_limit", "params": {"cutoff_hz": 3.0e9}}]}
    return qpsk_config(name="shared", n_symbols=n_symbols, outputs=(),
                       chain=chain)


def _qubit_swept(duration_s=6.4e-8):
    cfg = pi_config(name="shared-q", outputs=())
    cfg["qubit"]["envelope"]["duration_s"] = duration_s
    cfg["chain"] = {"stages": [
        {"kind": "amplitude_error", "params": {"eps_a": 0.0}},
        {"kind": "bandwidth_limit", "params": {"cutoff_hz": 2.0e8}}]}
    return cfg


SWEEPS = {
    "comm-chain-2d": {
        "base": _polar_swept(),
        "sweep": {"paths": ["chain.stages.0.params.tau_p",
                            "chain.stages.1.params.cutoff_hz"],
                  "values": [[0.0, 5.0e-11, 1.5e-10], [3.0e9, 1.0e9]]}},
    "qubit-chain": {
        "base": _qubit_swept(),
        "sweep": {"paths": ["chain.stages.0.params.eps_a"],
                  "values": [[0.0, 0.02, -0.05]]}},
    "comm-symbols-and-chain": {
        "base": _polar_swept(),
        "sweep": {"paths": ["comm.n_symbols",
                            "chain.stages.0.params.tau_p"],
                  "values": [[32, 40], [0.0, 1.0e-10]]}},
    "points-fail-to-parse": {
        "base": qpsk_config(name="holds", n_symbols=32, outputs=(), chain={
            "stages": [{"kind": "rfdac_core",
                        "params": {"bits": 10, "hold_factor": 1}}]}),
        "sweep": {"paths": ["chain.stages.0.params.hold_factor"],
                  "values": [[1, "2", 3, 10**6]]}},
    # the test makes the input stage raise: the shared input and every
    # point's own input fail at run time
    "input-fails": {
        "base": _qubit_swept(),
        "sweep": {"paths": ["chain.stages.0.params.eps_a"],
                  "values": [[0.0, 0.02]]}},
}


class TestSharedSweepInput:
    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("name", sorted(SWEEPS))
    def test_matches_per_point_synthesis(self, name, threads, tmp_path,
                                         monkeypatch):
        cfg = SWEEPS[name]
        if name == "input-fails":
            def fail(plan):
                raise RuntimeError("input stage failed")

            monkeypatch.setitem(scn._MODES, "qubit",
                                scn._MODES["qubit"]._replace(make=fail))
        got = scn.run_sweep(copy.deepcopy(cfg), tmp_path / "got",
                            threads=threads).parent
        want = _oracle_sweep(cfg, tmp_path / "want", threads).parent
        for fname in ("sweep.csv", "failures.json"):
            assert (got / fname).exists() == (want / fname).exists()
            if (want / fname).exists():
                assert (got / fname).read_bytes() == \
                    (want / fname).read_bytes()
        rows = (got / "sweep.csv").read_text().splitlines()[1:]
        failed = sum("FAILED" in r for r in rows)
        assert failed == {"points-fail-to-parse": 2,
                          "input-fails": len(rows)}.get(name, 0)

    @pytest.mark.parametrize("name, calls", [
        ("comm-chain-2d", 1), ("comm-symbols-and-chain", 4)])
    def test_chain_only_sweep_shapes_once(self, name, calls, tmp_path,
                                          monkeypatch):
        from sigchain import modulation as mod

        seen = []
        shape = mod.shape_symbols

        def counted(stream, pulse):
            seen.append(len(stream))
            return shape(stream, pulse)

        monkeypatch.setattr(mod, "shape_symbols", counted)
        scn.run_sweep(copy.deepcopy(SWEEPS[name]), tmp_path, threads=2)
        assert len(seen) == calls

    def test_many_threads_share_one_input(self, tmp_path):
        # more workers than cores, switching often: the shared record and
        # its memoized polar split must give every point what one thread does
        cfg = SWEEPS["comm-chain-2d"]
        want = scn.run_sweep(copy.deepcopy(cfg), tmp_path / "one").read_bytes()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for k in range(3):
                got = scn.run_sweep(copy.deepcopy(cfg), tmp_path / str(k),
                                    threads=6)
                assert got.read_bytes() == want
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("cfg", [_polar_swept(), _qubit_swept()],
                             ids=["comm", "qubit"])
    def test_shared_input_is_read_only(self, cfg):
        plan = scn.plan_scenario(cfg)
        made = scn._MODES[plan["mode"]].make(plan)
        if plan["mode"] == "comm":
            bits, stream, clean = made
            arrays = (bits, stream.symbols, clean.samples)
        else:
            arrays = (made.samples,)
        for arr in arrays:
            assert not arr.flags.writeable


def rabi_cal_config(scales=None):
    return {
        "name": "rabi-cal",
        "sample_rate": 1.0e9,
        "routine": {
            "kind": "rabi_amplitude_cal",
            "model": {"levels": 2, "drive_gain": math.pi / 64e-9},
            "envelope": {"shape": "rect", "duration_s": 64e-9,
                         "peak_amplitude": 1.0},
            "scales": scales or [0.05 * (k + 1) for k in range(24)],
        },
    }


def align_cal_config(**routine):
    return {
        "name": "align-cal",
        "sample_rate": 8.0e9,
        "chain": {"architecture": "polar", "stages": [
            {"kind": "polar_paths", "params": {"tau_p": 1.5e-10}}]},
        "routine": {"kind": "polar_delay_align", "symbol_period": 1.0e-9,
                    "window_s": 4.0e-10, "step_s": 5.0e-11, **routine},
    }


def probe_cal_config(kind, hold_factor=1, **routine):
    """A ``kind`` calibration of a chain that holds each sample
    ``hold_factor`` times."""
    return {
        "name": "probe-cal",
        "sample_rate": 4.0e9,
        "chain": {"stages": [{"kind": "rfdac_core", "params": {
            "bits": 12, "hold_factor": hold_factor}}]},
        "routine": {"kind": kind, **routine},
    }


def _rabi_gate(duration_s):
    cfg = rabi_cal_config()
    cfg["routine"]["envelope"]["duration_s"] = duration_s
    return cfg


def _with(cfg, *stages, **routine):
    """``cfg`` with ``stages`` appended to its chain and ``routine`` keys
    set."""
    cfg.setdefault("chain", {"stages": []})["stages"].extend(stages)
    cfg["routine"].update(routine)
    return cfg


def _align_window(n_symbols, at_edge):
    """An alignment whose widest candidates are +- a quarter of the probe
    record, or the float just below that quarter, in nine steps."""
    from sigchain import calibration as cal
    from sigchain import modulation as mod

    cfg = align_cal_config(n_symbols=n_symbols)
    r = cfg["routine"]
    shape = cal.align_probe_shape(r["symbol_period"], cfg["sample_rate"])
    quarter = mod.shaped_samples(n_symbols, shape) / (
        shape.samples_per_symbol / r["symbol_period"]) / 4.0
    r["window_s"] = (quarter if at_edge else
                     float(np.nextafter(quarter, 0.0)))
    r["step_s"] = r["window_s"] / 4.0
    return cfg


def _no_polar_paths(cfg):
    cfg["chain"]["stages"] = [
        {"kind": "iq_imbalance", "params": {"quad_skew": 0.05}}]
    return cfg


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

    def test_rabi_report_carries_residual(self, tmp_path):
        report = scn.run_calibration(rabi_cal_config(), tmp_path)
        parsed = json.loads(
            (tmp_path / "rabi-cal" / "report.json").read_text())
        assert parsed["residual"] == report["residual"]
        assert 0.0 <= report["residual"] <= 0.15

    def test_reruns_are_byte_identical(self, tmp_path):
        scn.run_calibration(self.cal_config(), tmp_path / "a")
        scn.run_calibration(self.cal_config(), tmp_path / "b")
        for fname in ("report.json", "corrected_chain.json"):
            assert (tmp_path / "a" / "fix-iq" / fname).read_bytes() == \
                (tmp_path / "b" / "fix-iq" / fname).read_bytes()


def _no_outputs(cfg):
    cfg["comm"]["outputs"] = []
    return cfg


class TestRunDirectory:
    """A run's directory holds exactly the files that run wrote, whatever
    was there before, and a run that fails to write leaves the old one."""

    @staticmethod
    def run(cfg, out_dir) -> str:
        """Run a scenario, sweep or calibration file; the run's name."""
        if "routine" in cfg:
            return scn.run_calibration(cfg, out_dir)["name"]
        if "sweep" in cfg:
            return scn.run_sweep(cfg, out_dir).parent.name
        return scn.run_scenario(cfg, out_dir)["name"]

    @staticmethod
    def files(root) -> dict:
        return {str(p.relative_to(root)): p.read_bytes()
                for p in sorted(Path(root).rglob("*")) if p.is_file()}

    @pytest.mark.parametrize("first, second, left", [
        (scn.read_config(scn.bundled_scenario_path("qam16_budget")),
         _no_outputs(scn.read_config(
             scn.bundled_scenario_path("qam16_budget"))),
         ["metrics.json"]),
        (qpsk_config(name="same", outputs=("constellation", "psd", "eye")),
         pi_config(name="same"), ["bloch.csv", "metrics.json"]),
        ({**TestCalibrationRunner().cal_config(), "name": "same"},
         {**rabi_cal_config(), "name": "same"}, ["report.json"]),
        (TestSweep().sweep_config([2.0e9, "abc"]),
         TestSweep().sweep_config([2.0e9]), ["sweep.csv"]),
    ], ids=["budget-then-no-outputs", "comm-then-qubit",
            "chain-then-no-chain", "failed-then-clean-sweep"])
    def test_a_rerun_leaves_only_its_reports(self, first, second, left,
                                             tmp_path):
        name = self.run(first, tmp_path)
        # a user's own file, and another kind of run's report
        for stray in {"notes.txt", "report.json", "metrics.json"} - set(left):
            (tmp_path / name / stray).write_text("left by hand\n")
        assert len(os.listdir(tmp_path / name)) > len(left)
        assert self.run(second, tmp_path) == name
        assert sorted(os.listdir(tmp_path / name)) == left
        assert os.listdir(tmp_path) == [name]

    @pytest.mark.parametrize("fault", ["second-file", "swap-in"])
    def test_a_failed_write_leaves_the_old_run(self, fault, tmp_path,
                                               monkeypatch):
        cfg = qpsk_config(outputs=("constellation", "psd"))
        name = self.run(cfg, tmp_path)
        before = self.files(tmp_path)
        assert len(before) == 3
        write, rename, calls = scn.write_text_atomic, Path.rename, []

        def fail_second(path, text):
            calls.append(path)
            if len(calls) == 2:
                raise OSError("disk full")
            write(path, text)

        def fail_swap_in(self, target):
            # the old run is already moved aside when the new one fails
            if self.name == "run":
                raise OSError("disk full")
            return rename(self, target)

        if fault == "second-file":
            monkeypatch.setattr(scn, "write_text_atomic", fail_second)
        else:
            monkeypatch.setattr(Path, "rename", fail_swap_in)
        with pytest.raises(OSError, match="disk full"):
            self.run(qpsk_config(n_symbols=32, outputs=("psd",)), tmp_path)
        assert len(calls) == (fault == "second-file") * 2
        assert self.files(tmp_path) == before
        assert os.listdir(tmp_path) == [name]

    def test_a_file_at_the_run_path_is_kept(self, tmp_path):
        (tmp_path / "smoke").write_text("not a run\n")
        with pytest.raises(OSError, match="smoke"):
            self.run(qpsk_config(), tmp_path)
        assert os.listdir(tmp_path) == ["smoke"]
        assert (tmp_path / "smoke").read_text() == "not a run\n"

    def test_bundled_reruns_into_one_dir_are_byte_identical(self, tmp_path):
        cfgs = [scn.read_config(scn.bundled_scenario_path(name))
                for name in scn.list_bundled_scenarios()]
        names = [self.run(copy.deepcopy(cfg), tmp_path) for cfg in cfgs]
        first = self.files(tmp_path)
        assert sorted(os.listdir(tmp_path)) == sorted(names)
        assert [self.run(cfg, tmp_path) for cfg in cfgs] == names
        assert self.files(tmp_path) == first


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
            path = scn.bundled_scenario_path(name)
            scn.plan_scenario(scn.read_config(path))


README = Path(__file__).resolve().parents[1] / "README.md"


class TestReadme:
    @staticmethod
    def _blocks(lang):
        blocks = re.findall(rf"```{lang}\n(.*?)```", README.read_text(),
                            flags=re.S)
        assert blocks
        return blocks

    def test_json_examples_validate(self):
        for block in self._blocks("json"):
            scn.plan_scenario(json.loads(block))

    def test_python_examples_run_in_order(self, capsys):
        # later blocks reuse names bound by earlier ones, e.g. `chain`
        namespace = {}
        for i, block in enumerate(self._blocks("python")):
            exec(compile(block, f"README.md python block {i}", "exec"),
                 namespace)


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

    @pytest.mark.parametrize("name, line", [
        ("qpsk_ideal", "qpsk_ideal: evm_rms=0 (-inf dB) over 224 symbols"),
        ("qam16_budget",
         "qam16_budget: evm_rms=0.128373 (-17.83 dB) over 160 symbols"),
        ("pi_pulse_ideal", "pi_pulse_ideal: infidelity=1.45497e-11"),
        ("drag_leakage", "drag_leakage: infidelity=0.00699706 "
                         "leakage=2.27e-09"),
    ])
    def test_summary_line(self, name, line, tmp_path, capsys):
        assert main(["simulate", name, "--out-dir", str(tmp_path)]) == 0
        assert capsys.readouterr().out == f"{line} -> {tmp_path / name}\n"

    @pytest.mark.parametrize("base, section, change, where", [
        ("harmonic_ask", "comm", {"eye_levels": 0}, "comm.eye_levels"),
        ("harmonic_ask", "comm", {"eye_levels": 100000}, "comm.eye_levels"),
        ("qpsk_ideal", "comm", {"bit_seed": -1}, "comm.bit_seed"),
        ("qpsk_ideal", "comm", {"constellation": {
            "scheme": "qpsk_sum", "ratios": [True, 0.5]}},
         "comm.constellation.ratios.0"),
        ("qpsk_ideal", "comm", {"constellation": {
            "scheme": "qpsk_sum", "ratios": ["1", 0.5]}},
         "comm.constellation.ratios.0"),
        ("qpsk_ideal", "comm", {"constellation": {
            "scheme": "qpsk_sum", "ratios": [0.5, math.inf]}},
         "comm.constellation.ratios.1"),
        ("qpsk_ideal", "comm", {"constellation": {
            "scheme": "qpsk_sum", "ratios": [2.0**-k for k in range(7)]}},
         "comm.constellation.ratios"),
        ("qpsk_ideal", "comm", {"constellation": {
            "scheme": "m_psk", "m": 2 * mod.MAX_POINTS}},
         "comm.constellation.m"),
        ("qpsk_ideal", "comm", {"constellation": {
            "scheme": "star_qam", "rings": 64, "phases": 128}},
         "comm.constellation.phases"),
        ("qpsk_ideal", "comm", {"constellation": {
            "scheme": "qpsk_sum", "ratios": [1, 1]}},
         "comm.constellation: degenerate qpsk_sum constellation: coincident "
         "points"),
        ("pi_pulse_ideal", None, {"comm": {}}, "scenario: unknown key 'comm'"),
        ("qpsk_ideal", None, {"qubit": {}}, "scenario: unknown key 'qubit'"),
    ], ids=["eye-levels", "eye-levels-past-periods", "bit-seed", "ratio-bool",
            "ratio-string", "ratio-inf", "seven-ratios", "psk-size",
            "star-size", "ratios-coincide", "comm-on-qubit", "qubit-on-comm"])
    def test_mode_section_defect_exit_two(self, base, section, change,
                                          where, tmp_path, capsys):
        cfg = scn.read_config(scn.bundled_scenario_path(base))
        (cfg if section is None else cfg[section]).update(change)
        p = tmp_path / "s.json"
        p.write_text(json.dumps(cfg))
        assert main(["simulate", str(p), "--out-dir",
                     str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        prefix = "" if section is None else "scenario."
        assert err.startswith(f"sigchain: config error: {prefix}{where}"), err
        assert not (tmp_path / "out").exists()

    @staticmethod
    def named_run(command, name) -> dict:
        """A small scenario, sweep or calibration file named ``name``."""
        if command == "calibrate":
            return {**TestCalibrationRunner().cal_config(), "name": name}
        if command == "sweep":
            cfg = TestSweep().sweep_config([2.0e9])
            cfg["base"]["name"] = name
            return cfg
        return qpsk_config(name=name, n_symbols=32, outputs=())

    @pytest.mark.parametrize("command", ["simulate", "sweep", "calibrate"])
    def test_a_255_byte_name_runs(self, command, tmp_path):
        name = "n" * 255
        p = tmp_path / "s.json"
        p.write_text(json.dumps(self.named_run(command, name)))
        out = tmp_path / "out"
        assert main([command, str(p), "--out-dir", str(out)]) == 0
        assert os.listdir(out) == [name]

    @pytest.mark.parametrize("command, section", [
        ("simulate", "scenario"), ("sweep", "scenario"),
        ("calibrate", "calibration")])
    @pytest.mark.parametrize("name", ["n" * 256, "\u00e9" * 128],
                             ids=["256-chars", "256-bytes"])
    def test_a_name_past_255_bytes_exit_two_before_compute(
            self, command, section, name, tmp_path, capsys, monkeypatch):
        from sigchain import calibration as cal

        def compute(*args, **kwargs):
            raise AssertionError("compute started")

        for module in (scn, cal):
            for fn in ("run_chain", "synth_comm_waveform"):
                monkeypatch.setattr(module, fn, compute)
        p = tmp_path / "s.json"
        p.write_text(json.dumps(self.named_run(command, name)))
        assert main([command, str(p), "--out-dir",
                     str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            f"sigchain: config error: {section}.name: name must be letters, "
            "digits, '_' or '-', at most 255 bytes\n")
        assert not (tmp_path / "out").exists()

    def test_null_section_keys_take_their_defaults(self):
        cfg = qpsk_config(outputs=())
        want = scn.plan_scenario(cfg)
        cfg["comm"].update(timing_search=None, eye_levels=None, outputs=None)
        got = scn.plan_scenario(cfg)
        for key in ("timing_search", "eye_levels", "outputs"):
            assert got[key] == want[key]
        assert (got["timing_search"], got["eye_levels"]) == (False, 2)

    def test_eye_level_rule_has_one_text(self):
        cfg = qpsk_config(outputs=("eye",))
        cfg["comm"]["eye_levels"] = 0
        with pytest.raises(scn.ConfigError) as parsed:
            scn.plan_scenario(cfg)
        cfg["comm"]["eye_levels"] = 2
        plan = scn.plan_scenario(cfg)
        _, _, clean = scn._comm_input(plan)
        with pytest.raises(ValueError) as lib:
            met.eye_metrics(clean, plan["symbol_period"], n_levels=0)
        assert str(parsed.value) == \
            "scenario.comm.eye_levels: an eye needs at least 1 level"
        assert str(lib.value) == "n_levels: an eye needs at least 1 level"

    def test_eye_level_upper_bound_has_one_text(self):
        # 256 rect symbols: the record holds 256 whole symbol periods
        cfg = scn.read_config(scn.bundled_scenario_path("harmonic_ask"))
        cfg["comm"]["eye_levels"] = 256
        plan = scn.plan_scenario(cfg)
        _, _, clean = scn._comm_input(plan)
        met.eye_metrics(clean, plan["symbol_period"], n_levels=256)
        cfg["comm"]["eye_levels"] = 257
        with pytest.raises(scn.ConfigError) as parsed:
            scn.plan_scenario(cfg)
        with pytest.raises(ValueError) as lib:
            met.eye_metrics(clean, plan["symbol_period"], n_levels=257)
        problem = ("an eye needs at most one level per symbol period, 256 "
                   "in this record")
        assert str(parsed.value) == f"scenario.comm.eye_levels: {problem}"
        assert str(lib.value) == f"n_levels: {problem}"

    def test_substeps_rule_has_one_text(self):
        cfg = pi_config(outputs=())
        cfg["qubit"]["substeps"] = 0
        with pytest.raises(scn.ConfigError) as parsed:
            scn.plan_scenario(cfg)
        cfg["qubit"]["substeps"] = 1
        plan = scn.plan_scenario(cfg)
        pulse = scn._qubit_input(plan)
        for track in (qb.propagate, qb.bloch_trajectory):
            with pytest.raises(ValueError) as lib:
                track(plan["model"], pulse, substeps=0)
            assert str(lib.value) == "substeps: must be at least 1"
        assert str(parsed.value) == \
            "scenario.qubit.substeps: must be at least 1"

    def test_scored_span_rule_has_one_text(self, tmp_path):
        from sigchain import calibration as cal
        from sigchain import chains as ch

        problem = ("leaves no symbol to score: the first and last 8 of 16 "
                   "symbols are not scored")
        with pytest.raises(scn.ConfigError) as parsed:
            scn.plan_scenario(qpsk_config(n_symbols=16))
        with pytest.raises(scn.ConfigError) as routine:
            scn.run_calibration(align_cal_config(n_symbols=16), tmp_path)
        plan = scn.plan_scenario(qpsk_config())
        _, _, clean = scn._comm_input(plan)
        with pytest.raises(ValueError) as lib:
            met.demodulate(clean, plan["constellation"], plan["pulse"],
                           plan["symbol_period"], n_symbols=16,
                           skip_edge_symbols=8)
        chain = ch.TxChain("polar", (ch.StageSpec("polar_paths", {}),))
        with pytest.raises(ValueError) as align:
            cal.polar_delay_align(chain, 8.0e9, 1.0e-9, 4.0e-10, 5.0e-11,
                                  n_symbols=16)
        assert str(parsed.value) == \
            f"scenario.comm.pulse.span_symbols: {problem}"
        assert str(routine.value) == f"calibration.routine.n_symbols: {problem}"
        assert str(lib.value) == f"skip_edge_symbols: {problem}"
        assert str(align.value) == f"n_symbols: {problem}"

    def test_bloch_rule_has_one_text(self):
        cfg = pi_config(outputs=("bloch",))
        plan = scn.plan_scenario(cfg)
        pulse = scn._qubit_input(plan)
        cfg["qubit"]["model"].update(levels=3, anharmonicity=-1.0e9)
        with pytest.raises(scn.ConfigError) as parsed:
            scn.plan_scenario(cfg)
        with pytest.raises(ValueError) as lib:
            qb.bloch_trajectory(qb.QubitModel(3.0e7, levels=3,
                                              anharmonicity=-1.0e9), pulse)
        problem = "a bloch track needs a two-level model"
        assert str(parsed.value) == f"scenario.qubit.outputs: {problem}"
        assert str(lib.value) == f"model: {problem}"

    def test_trim_delay_rule_has_one_text(self, tmp_path):
        from sigchain import calibration as cal
        from sigchain import chains as ch

        cfg = align_cal_config(n_symbols=17, window_s=7e-9, step_s=1e-9)
        with pytest.raises(scn.ConfigError) as parsed:
            scn.run_calibration(cfg, tmp_path)
        # the same probe record, 25 symbols of 8 samples, run as a library
        shape = cal.align_probe_shape(1.0e-9, 8.0e9)
        const = mod.build_constellation("m_psk", m=4)
        _, probe = ch.synth_comm_waveform(np.zeros(34, dtype=int), const,
                                          shape, symbol_period=1.0e-9)
        chain = ch.TxChain("polar", (ch.StageSpec("polar_paths", {}),))
        with pytest.raises(ValueError) as lib:
            next(ch.run_chain_per_trim(chain, probe, [7e-9]))
        problem = ("|comp_delay_s| must stay below a quarter of the 2.5e-08 "
                   "s record, got 7e-09")
        assert str(parsed.value) == f"calibration.routine.window_s: {problem}"
        assert str(lib.value) == f"params.comp_delay_s: {problem}"

    def test_harmonic_factor_rule_has_one_text(self):
        from sigchain import chains as ch

        cfg = scn.read_config(scn.bundled_scenario_path("harmonic_ask"))
        cfg["chain"]["stages"][1]["params"]["factor"] = 5
        with pytest.raises(scn.ConfigError) as parsed:
            scn.plan_scenario(cfg)
        with pytest.raises(ValueError) as lib:
            ch.StageSpec("harmonic_multiply", {"factor": 5})
        problem = ("stage 'harmonic_multiply' parameter 'factor' must lie in "
                   "[2, 4], got 5")
        assert str(parsed.value) == \
            f"scenario.chain.stages.1.params.factor: {problem}"
        assert str(lib.value) == f"params.factor: {problem}"

    def test_simulate_plans_once(self, tmp_path, capsys, monkeypatch):
        calls = []
        plan = scn.plan_scenario

        def counted(raw):
            calls.append(raw)
            return plan(raw)

        monkeypatch.setattr(scn, "plan_scenario", counted)
        assert main(["simulate", "qpsk_ideal", "--out-dir",
                     str(tmp_path)]) == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("command, name", [
        ("simulate", "qpsk_ideal"), ("calibrate", "iq_cal_demo")])
    def test_threads_is_a_sweep_flag(self, command, name, tmp_path, capsys):
        with pytest.raises(SystemExit) as info:
            main([command, name, "--out-dir", str(tmp_path), "--threads",
                  "2"])
        assert info.value.code == 2
        assert "unrecognized arguments: --threads" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_threads_below_one_exit_two(self, tmp_path, capsys):
        assert main(["sweep", "bandwidth_sweep", "--out-dir",
                     str(tmp_path / "out"), "--threads", "0"]) == 2
        assert capsys.readouterr().err == \
            "sigchain: config error: --threads must be >= 1\n"
        assert not (tmp_path / "out").exists()

    def test_config_error_exit_two(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{broken")
        assert main(["simulate", str(p), "--out-dir", str(tmp_path)]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["sweep", "calibrate"])
    def test_malformed_json_exit_two_names_file(self, command, tmp_path,
                                                capsys):
        p = tmp_path / "bad.json"
        p.write_text("{broken")
        assert main([command, str(p), "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and str(p) in err

    def test_integer_past_the_digit_limit_exit_two(self, tmp_path, capsys):
        # json.loads refuses an integer literal of over 4,300 digits with a
        # plain ValueError, not a JSONDecodeError
        cfg = scn.read_config(scn.bundled_scenario_path("qpsk_ideal"))
        cfg["comm"]["n_symbols"] = "N"
        p = tmp_path / "big.json"
        p.write_text(json.dumps(cfg).replace('"N"', "1" + "0" * 5000))
        assert main(["simulate", str(p), "--out-dir",
                     str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(
            f"sigchain: config error: {p}: invalid JSON (Exceeds the limit")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    @pytest.mark.parametrize("duration_s, code", [(6.3e-8, 2), (6.4e-8, 0)])
    def test_gate_length_checked_at_parse(self, command, duration_s, code,
                                          tmp_path, capsys, monkeypatch):
        # 63 samples at 1 GHz is one short of a gate; a chain-only sweep
        # on such a base fails as a whole, not point by point
        base = _qubit_swept(duration_s=duration_s)
        cfg = base if command == "simulate" else {"base": base, "sweep": {
            "paths": ["chain.stages.0.params.eps_a"],
            "values": [[0.0, 0.02]]}}
        if code:
            def compute(plan):
                raise AssertionError("compute started")

            monkeypatch.setitem(scn._MODES, "qubit",
                                scn._MODES["qubit"]._replace(make=compute))
        p = tmp_path / "s.json"
        p.write_text(json.dumps(cfg))
        assert main([command, str(p), "--out-dir",
                     str(tmp_path / "out")]) == code
        if code:
            assert ("config error: scenario.qubit.envelope.duration_s: the "
                    "gate spans 63 samples") in capsys.readouterr().err
            assert not (tmp_path / "out").exists()

    def test_short_gate_has_one_text(self, tmp_path, capsys):
        cfg = pi_config(outputs=())
        cfg["qubit"]["envelope"]["duration_s"] = 6.3e-8
        gate_text = "the gate spans 63 samples at 1e+09 Hz, fewer than 64"
        with pytest.raises(ValueError) as lib:
            synth_qubit_pulse(mod.GateEnvelopeSpec("rect", 6.3e-8), 1.0e9)
        assert str(lib.value) == f"duration_s: {gate_text}"
        p = tmp_path / "s.json"
        p.write_text(json.dumps(cfg))
        assert main(["simulate", str(p), "--out-dir",
                     str(tmp_path / "out")]) == 2
        assert ("config error: scenario.qubit.envelope.duration_s: "
                f"{gate_text}") in capsys.readouterr().err

    @pytest.mark.parametrize("scheme, key, value, code", [
        ("m_psk", "m", 4, 0), ("m_psk", "m", 4.5, 2), ("m_psk", "m", True, 2),
        ("m_ask", "m", 4.0, 2), ("square_qam", "m", 16.5, 2),
        ("star_qam", "rings", 2.5, 2)])
    def test_constellation_sizes_are_integers(self, scheme, key, value,
                                              code, tmp_path, capsys):
        cfg = qpsk_config()
        cfg["comm"]["constellation"] = {"scheme": scheme, "rings": 2,
                                        "phases": 4} if key == "rings" \
            else {"scheme": scheme}
        cfg["comm"]["constellation"][key] = value
        p = tmp_path / "s.json"
        p.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert main(["simulate", str(p), "--out-dir", str(out)]) == code
        if code:
            assert (f"config error: scenario.comm.constellation.{key}: "
                    "expected integer") in capsys.readouterr().err
            assert not out.exists()
        else:
            assert (out / "smoke" / "metrics.json").exists()

    def test_constellation_keys_are_checked(self, tmp_path):
        cfg = qpsk_config()
        cfg["comm"]["constellation"]["rings"] = 2
        with pytest.raises(scn.ConfigError, match=(
                r"scenario\.comm\.constellation: unknown key 'rings'")):
            scn.plan_scenario(cfg)
        cfg["comm"]["constellation"] = {"scheme": "hex"}
        with pytest.raises(scn.ConfigError, match=(
                r"scenario\.comm\.constellation\.scheme: expected one of")):
            scn.plan_scenario(cfg)

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
        # --verbose adds the failure's traceback to the one error line, on
        # stderr, though pytest has given the root logger its own handlers
        for verbose in (False, True):
            with pytest.warns(UserWarning,
                              match="AM-AM transfer is non-monotone"):
                assert main(["calibrate", str(p), "--out-dir",
                             str(tmp_path / "out")]
                            + ["--verbose"] * verbose) == 3
            lines = capsys.readouterr().err.splitlines()
            assert lines[-1].startswith("sigchain: error: ")
            assert ("Traceback (most recent call last):" in lines) == verbose
            assert len(lines) > 1 if verbose else len(lines) == 1

    def test_log_records_print_once_on_stderr(self, tmp_path, capsys):
        # beside an embedding program's own stderr handler on the root
        # logger, each sigchain record is printed once, in the CLI's format
        p = tmp_path / "swp.json"
        p.write_text(json.dumps(TestSweep().sweep_config([2.0e9, "abc"])))
        root = logging.StreamHandler(sys.stderr)
        logging.getLogger().addHandler(root)
        try:
            for verbose in (False, True):
                assert main(["sweep", str(p), "--out-dir",
                             str(tmp_path / "out")]
                            + ["--verbose"] * verbose) == 0
                err = capsys.readouterr().err
                assert err.count("sweep point") == 1 + verbose
                assert err.count("WARNING sweep point") == 1
                assert err.count("Traceback (most recent call last)") == \
                    verbose
        finally:
            logging.getLogger().removeHandler(root)
        assert not logging.getLogger("sigchain").handlers

    def test_files_are_utf8_in_any_locale(self, tmp_path):
        # a non-ASCII sweep value reads and writes the same bytes under the
        # C locale as in UTF-8 mode
        cfg = {"base": qpsk_config(name="enc", n_symbols=32, outputs=()),
               "sweep": {"paths": ["comm.constellation.scheme"],
                         "values": [["m_psk", "\u00e9"]]}}
        p = tmp_path / "swp.json"
        p.write_text(json.dumps(cfg, ensure_ascii=False), encoding="utf-8")
        for mode, env in (("0", {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0"}),
                          ("1", {})):
            run = subprocess.run(
                [sys.executable, "-X", f"utf8={mode}", "-m", "sigchain.cli",
                 "sweep", str(p), "--out-dir", str(tmp_path / mode)],
                env={**_child_env(), **env}, capture_output=True)
            assert run.returncode == 0, run.stderr
        got = (tmp_path / "0" / "enc" / "sweep.csv").read_bytes()
        assert got == (tmp_path / "1" / "enc" / "sweep.csv").read_bytes()
        assert b"\xc3\xa9," in got

    def test_sweep_command(self, tmp_path, capsys):
        # a failed value holding a line break is still one point
        for values in ([2.0e9, 1.0e9], [3.2e9, "a\nb"]):
            cfg = TestSweep().sweep_config(values)
            p = tmp_path / "swp.json"
            p.write_text(json.dumps(cfg))
            assert main(["sweep", str(p), "--out-dir", str(tmp_path / "out"),
                         "--threads", "2"]) == 0
            assert (tmp_path / "out" / "swp" / "sweep.csv").exists()
            assert "sweep: 2 points -> " in capsys.readouterr().out
        cfg = TestSweep().sweep_config([2.0e9, 1.0e9])
        cfg["sweep"]["paths"].append("comm.n_symbols")
        cfg["sweep"]["values"].append([24, 32, 40])
        p.write_text(json.dumps(cfg))
        assert main(["sweep", str(p), "--out-dir", str(tmp_path / "out")]) \
            == 0
        assert "sweep: 6 points -> " in capsys.readouterr().out
        rows = (tmp_path / "out" / "swp" / "sweep.csv").read_text()
        assert len(rows.splitlines()) == 7

    def test_scenarios_command(self, capsys):
        assert main(["scenarios"]) == 0
        assert "qpsk_ideal" in capsys.readouterr().out

    def test_calibrate_command(self, tmp_path, capsys):
        p = tmp_path / "c.json"
        p.write_text(json.dumps(TestCalibrationRunner().cal_config()))
        assert main(["calibrate", str(p), "--out-dir",
                     str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "fix-iq" / "report.json").exists()

    @pytest.mark.parametrize("cfg, where", [
        (rabi_cal_config([0.1, 0.2, "x", 0.4, 0.5]),
         "calibration.routine.scales.2: expected finite number"),
        (rabi_cal_config([0.1, True, 0.3, 0.4, 0.5]),
         "calibration.routine.scales.1: expected finite number"),
        (rabi_cal_config([0.1, 0.2, 0.2, 0.4, 0.5]),
         "calibration.routine.scales: must be strictly increasing"),
        (rabi_cal_config([0.1, 0.2, 0.3, 0.4]),
         "calibration.routine.scales: need at least 5 sweep points"),
        (align_cal_config(window_s=0.0),
         "calibration.routine.window_s: must be positive"),
        (align_cal_config(step_s=-5.0e-11),
         "calibration.routine.step_s: must be positive"),
        (_no_polar_paths(align_cal_config()),
         "calibration.chain.stages: polar_delay_align needs a 'polar_paths'"),
        (probe_cal_config("iq_cal", n_samples=2**25),
         "calibration.routine.n_samples: asks for"),
        (probe_cal_config("iq_cal", hold_factor=8, n_samples=2**22),
         "calibration.routine.n_samples: asks for"),
        (probe_cal_config("dpd_fit", n_levels=2**13, hold_samples=2**12),
         "calibration.routine.n_levels: asks for"),
        (align_cal_config(n_symbols=10**9),
         "calibration.routine.n_symbols: asks for"),
        (probe_cal_config("leakage_cancel", on_samples=2**24),
         "calibration.routine.on_samples: asks for"),
        (align_cal_config(n_symbols=0),
         "calibration.routine.n_symbols: leaves no symbol to score: the "
         "first and last 8 of 0 symbols are not scored"),
        (align_cal_config(n_symbols=16),
         "calibration.routine.n_symbols: leaves no symbol to score: the "
         "first and last 8 of 16 symbols are not scored"),
        (probe_cal_config("iq_cal", n_samples=-5),
         "calibration.routine.n_samples: must be at least 8"),
        (probe_cal_config("dpd_fit", hold_samples=0),
         "calibration.routine.hold_samples: must hold each level"),
        (probe_cal_config("dpd_fit", hold_factor=2, hold_samples=1),
         "calibration.routine.hold_samples: must hold each level"),
        (probe_cal_config("dpd_fit", n_levels=0),
         "calibration.routine.n_levels: must be at least order + 2 = 7"),
        (probe_cal_config("dpd_fit", order=4),
         "calibration.routine.order: must be 3, 5 or 7"),
        (probe_cal_config("leakage_cancel", on_samples=-300),
         "calibration.routine.on_samples: must be at least 1"),
        (probe_cal_config("leakage_cancel", guard_samples=-4),
         "calibration.routine.guard_samples: must be nonnegative"),
        (probe_cal_config("leakage_cancel", off_samples=16),
         "calibration.routine.off_samples: must exceed guard_samples + 8"),
        (_rabi_gate(63e-9),
         "calibration.routine.envelope.duration_s: the gate spans 63"),
        (_rabi_gate(1e300),
         "calibration.routine.envelope.duration_s: asks for"),
        (align_cal_config(symbol_period=1.05e-9),
         "calibration.routine.symbol_period: symbol_period must span"),
        (align_cal_config(symbol_period=3.75e-10),
         "calibration.routine.symbol_period: symbol_period must span"),
        (align_cal_config(n_symbols=17, window_s=7e-9, step_s=1e-9),
         "calibration.routine.window_s: |comp_delay_s| must stay below a "
         "quarter of the 2.5e-08 s record, got 7e-09"),
        (_align_window(48, at_edge=True),
         "calibration.routine.window_s: |comp_delay_s| must stay below a "
         "quarter of the 5.6e-08 s record"),
        (probe_cal_config("iq_cal", n_samples=64, tone_freq=3e9),
         "calibration.routine.tone_freq: tone must land strictly inside"),
        (probe_cal_config("iq_cal", n_samples=64, tone_freq=2e9),
         "calibration.routine.tone_freq: tone must land strictly inside"),
        (probe_cal_config("iq_cal", n_samples=64, tone_freq=0.0),
         "calibration.routine.tone_freq: tone must land strictly inside"),
        (probe_cal_config("iq_cal", n_samples=64, tone_freq=-6.25e7),
         "calibration.routine.tone_freq: tone must land strictly inside"),
        (_with(rabi_cal_config(), saturation=1.5),
         "calibration.routine.saturation: must lie in (0, 1]"),
        (_with(rabi_cal_config(), saturation=-1.0),
         "calibration.routine.saturation: must lie in (0, 1]"),
        (_with(rabi_cal_config(), residual_tol=-0.1),
         "calibration.routine.residual_tol: must be nonnegative"),
        (align_cal_config(seed=-1),
         "calibration.routine.seed: must be nonnegative"),
        (probe_cal_config("dpd_fit", full_scale=0.0),
         "calibration.routine.full_scale: must be positive"),
        (probe_cal_config("dpd_fit", full_scale=-1.0),
         "calibration.routine.full_scale: must be positive"),
        (probe_cal_config("iq_cal", hold_factor=2),
         "calibration.chain: iq_cal needs a chain that keeps the record"),
        (_with(probe_cal_config("iq_cal", n_samples=4096), {
            "kind": "path_skew", "params": {"tau_i": 3e-7}}),
         "calibration.chain.stages.1.params.tau_i: |tau_i| must stay below "
         "a quarter of the 1.024e-06 s record, got 3e-07"),
        (_with(probe_cal_config("leakage_cancel", hold_factor=2), {
            "kind": "gated_offset", "params": {"offset": [0.01, 0.0]}}),
         "calibration.chain.stages.1.kind: gated stage 'gated_offset' cannot "
         "follow a hold_factor above 1"),
        (probe_cal_config("iq_cal", n_samples=10**400),
         "calibration.routine.n_samples: asks for over 1.798e+308 samples"),
        (probe_cal_config("leakage_cancel", off_samples=10**400),
         "calibration.routine.off_samples: the off window asks for over"),
        (probe_cal_config("dpd_fit", hold_samples=10**400),
         "calibration.routine.hold_samples: one level asks for over"),
        (align_cal_config(n_symbols=10**400),
         "calibration.routine.n_symbols: asks for over 1.798e+308 samples"),
    ], ids=["scale-str", "scale-bool", "scales-not-increasing",
            "too-few-scales", "window-zero", "step-negative",
            "no-polar-paths", "iq-samples", "iq-samples-held",
            "dpd-staircase", "align-symbols", "leakage-burst",
            "align-no-symbols", "align-all-edge", "iq-negative",
            "dpd-no-hold", "dpd-hold-held", "dpd-no-levels", "dpd-order",
            "leakage-negative-burst", "leakage-negative-guard",
            "leakage-short-gap", "rabi-gate-63", "rabi-gate-huge",
            "align-period-fraction", "align-period-3", "align-window-past",
            "align-window-at-edge", "iq-tone-past-nyquist", "iq-tone-at-half",
            "iq-tone-dc", "iq-tone-negative", "rabi-saturation-past-1",
            "rabi-saturation-negative", "rabi-residual-tol-negative",
            "align-seed-negative", "dpd-full-scale-zero",
            "dpd-full-scale-negative", "iq-held-chain", "iq-skew-past-quarter",
            "leakage-gated-after-hold", "iq-samples-past-float",
            "leakage-gap-past-float", "dpd-hold-past-float",
            "align-symbols-past-float"])
    def test_calibration_input_exit_two_before_compute(
            self, cfg, where, tmp_path, capsys, monkeypatch):
        from sigchain import calibration as cal

        def compute(*args, **kwargs):
            raise AssertionError("compute started")

        # every way a routine starts computing
        for name in ("run_chain", "run_chain_per_trim", "synth_comm_waveform"):
            monkeypatch.setattr(cal, name, compute)
        monkeypatch.setattr(qb, "rabi_protocol", compute)
        p = tmp_path / "cal.json"
        p.write_text(json.dumps(cfg))
        assert main(["calibrate", str(p), "--out-dir",
                     str(tmp_path / "out")]) == 2
        assert where in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("cfg", [
        align_cal_config(n_symbols=17),
        probe_cal_config("iq_cal", n_samples=8),
        probe_cal_config("dpd_fit", hold_samples=4),
        probe_cal_config("dpd_fit", hold_factor=2, hold_samples=2),
        probe_cal_config("dpd_fit", n_levels=7),
        probe_cal_config("leakage_cancel", on_samples=1, guard_samples=0,
                         off_samples=9),
        _rabi_gate(64e-9),
        align_cal_config(symbol_period=5e-10),
        align_cal_config(n_symbols=17, window_s=6e-9, step_s=1e-9),
        _align_window(48, at_edge=False),
        probe_cal_config("iq_cal", n_samples=64, tone_freq=6.25e7),
        probe_cal_config("iq_cal", n_samples=64, tone_freq=1.9375e9),
    ], ids=["align", "iq", "dpd-hold", "dpd-hold-held", "dpd-levels",
            "leakage", "rabi-gate-64", "align-period-4", "align-window",
            "align-window-below-edge", "iq-tone-bin-1", "iq-tone-bin-31"])
    def test_smallest_calibration_probe_runs(self, cfg, tmp_path):
        p = tmp_path / "cal.json"
        p.write_text(json.dumps(cfg))
        assert main(["calibrate", str(p), "--out-dir",
                     str(tmp_path / "out")]) == 0

    @pytest.mark.parametrize("scenario, stage, params, where", [
        ("qam16_budget", 0, {"eps_a": "0.02"}, "stages.0.params.eps_a"),
        ("qam16_budget", 5, {"cutoff_hz": 9.0e9},
         "stages.5.params.cutoff_hz"),
        ("qam16_budget", 2, {"seed": "x"}, "stages.2.params.seed"),
        ("qam16_budget", 3, {"gain_mismatch": [1, 2]},
         "stages.3.params.gain_mismatch"),
        ("qam16_budget", 0, {"kind": "quantize", "bits": 8.5},
         "stages.0.params.bits"),
        ("rfdac_images", 0, {"bits": True}, "stages.0.params.bits"),
        ("rfdac_images", 0, {"bits": 24, "mismatch_sigma": 0.01, "seed": 1},
         "stages.0.params.bits"),
        ("qam16_budget", None, {"n_symbols": 10**13}, "comm.n_symbols"),
        ("qam16_budget", 5, {"kind": "rfdac_core", "bits": 12},
         "stages.5.kind"),
        ("polar_skew", 0, {"kind": "rfdac_core", "bits": 12,
                           "hold_factor": 2}, "stages.1.kind"),
        ("qam16_budget", None, {"n_symbols": 10**400}, "comm.n_symbols"),
        ("qam16_budget", None, {"n_symbols": 32}, "comm.pulse.span_symbols"),
        ("polar_skew", 0, {"tau_p": 1e300}, "stages.0.params.tau_p"),
        # 10 ** (level_dbc / 20) would overflow a float
        ("qam16_budget", 0, {"kind": "spur_inject", "offset_hz": 1.0e8,
                             "level_dbc": 7000}, "stages.0.params.level_dbc"),
    ], ids=["eps-str", "cutoff-past-nyquist", "seed-str", "gain-list",
            "quantize-bits-float", "rfdac-bits-bool", "rfdac-mismatch-table",
            "n-symbols-huge",
            "budget-composite-stage", "gated-after-hold",
            "n-symbols-past-float", "no-symbol-scored", "pm-delay-huge",
            "spur-level-overflow"])
    def test_config_mistakes_exit_two_with_path(
            self, scenario, stage, params, where, tmp_path, capsys):
        cfg = scn.read_config(scn.bundled_scenario_path(scenario))
        params = dict(params)
        if stage is None:
            cfg["comm"].update(params)
        elif "kind" in params:
            cfg["chain"]["stages"][stage] = {"kind": params.pop("kind"),
                                             "params": params}
        else:
            cfg["chain"]["stages"][stage]["params"].update(params)
        p = tmp_path / "s.json"
        p.write_text(json.dumps(cfg))
        assert main(["simulate", str(p), "--out-dir",
                     str(tmp_path / "out")]) == 2
        prefix = "scenario." if stage is None else "scenario.chain."
        assert f"config error: {prefix}{where}:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_budget_on_an_empty_chain_exit_two(self, tmp_path, capsys):
        cfg = scn.read_config(scn.bundled_scenario_path("qam16_budget"))
        cfg["chain"]["stages"] = []
        p = tmp_path / "s.json"
        p.write_text(json.dumps(cfg))
        assert main(["simulate", str(p), "--out-dir",
                     str(tmp_path / "out")]) == 2
        assert ("config error: scenario.comm.outputs: a budget report needs "
                "a chain of at least one stage") in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_import_loads_no_scipy(self):
        # scipy is a test-only oracle; the runtime needs numpy alone
        code = ("import sigchain.cli, sys; assert not [m for m in "
                "sys.modules if m.split('.')[0] == 'scipy']")
        subprocess.run([sys.executable, "-c", code], env=_child_env(),
                       check=True)
