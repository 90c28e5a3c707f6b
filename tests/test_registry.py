"""The stage registry: one row per stage kind drives dispatch, the budget
term, the seed rule and the parameter checks.  The schema-driven fuzz test
mutates one parameter of every bundled scenario's stages and only parses.
The mode table: a second fuzz mutates one key of every bundled scenario's
comm or qubit section, and runs what plans."""
import copy
import dataclasses
import inspect
import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigchain import chains as ch
from sigchain import impairments as imp
from sigchain import metrics as met
from sigchain import modulation as mod
from sigchain import qubit as qb
from sigchain import scenario as scn
from sigchain.cli import main
from sigchain.envelope import ComplexEnvelope


# the bundled pi pulse is a 256-sample record at 16 GHz, 16 ns long
PI_FS = 1.6e10


def _env(n: int = 64, fs: float = 1e6) -> ComplexEnvelope:
    return ComplexEnvelope(np.exp(2j * np.pi * 0.01 * np.arange(n)), fs)


class TestRows:
    def test_terms_are_budget_terms(self):
        for kind, row in ch.STAGES.items():
            assert row.term is None or row.term in met.BUDGET_TERMS, kind
        # the order of the budget.csv columns
        assert met.BUDGET_TERMS == ("amp", "phase", "pn", "iq_lo", "bw")

    def test_dpd_is_the_am_ampm_row(self):
        assert ch.STAGES["dpd"] is ch.STAGES["am_ampm"]
        spec = ch.StageSpec("dpd", {"gain_poly": [1.0, -0.05]})
        assert spec.kind == "dpd"
        a = ch.apply_stage(_env(), spec)
        b = imp.am_ampm(_env(), [1.0, -0.05], [0.0])
        assert np.array_equal(a.samples, b.samples)

    def test_impairment_is_looked_up_per_call(self, monkeypatch):
        calls = []

        def spy(env, eps_a):
            calls.append(eps_a)
            return env

        monkeypatch.setattr(imp, "amplitude_error", spy)
        ch.apply_stage(_env(), ch.StageSpec("amplitude_error", {"eps_a": 0.1}))
        assert calls == [0.1]

    @pytest.mark.parametrize("name, fn, kwargs", [
        ("harmonic_ask", "eye_metrics", {"n_levels": 4}),
        ("pi_pulse_ideal", "propagate", {"substeps": 4}),
    ])
    def test_mode_library_is_looked_up_per_call(self, name, fn, kwargs,
                                                monkeypatch):
        owner = met if fn == "eye_metrics" else qb
        real, calls = getattr(owner, fn), []

        def spy(*args, **kw):
            calls.append(kw)
            return real(*args, **kw)

        monkeypatch.setattr(owner, fn, spy)
        scn._compute(SCENARIOS[name])
        assert calls == [kwargs]

    def test_by_name_kernels_take_the_schema_keys(self):
        # apply_stage passes the parameters as keywords, in any order, and
        # a gated row's gate as the keyword gate_mask
        gated = []
        for kind, row in ch.STAGES.items():
            if isinstance(row.apply, str):
                kernel = inspect.signature(getattr(imp, row.apply))
                keys = {*row.params, *(["gate_mask"] if row.gated else [])}
                assert set(list(kernel.parameters)[1:]) == keys, kind
                gated += [kind] * row.gated
        assert gated == ["onoff_leakage"]

    def test_callable_rows_take_the_record_and_parameters(self):
        for kind, row in ch.STAGES.items():
            if callable(row.apply):
                assert row.apply.__name__ == f"_apply_{kind}", kind
                assert list(inspect.signature(row.apply).parameters) == [
                    "env", "p"], kind

    def test_defaults_are_not_stored(self):
        params = {"bits": 8, "seed": None}
        spec = ch.StageSpec("rfdac_core", params)
        ch.apply_stage(_env(), spec)
        assert spec.params == {"bits": 8, "seed": None}

    def test_null_optional_is_absent(self):
        a = ch.apply_stage(_env(), ch.StageSpec("iq_paths", {
            "bits": None, "full_scale": None, "tau_i": None,
            "cutoff_hz": 1e5}))
        b = imp.bandwidth_limit(_env(), 1e5)
        assert np.array_equal(a.samples, b.samples)

    def test_numpy_scalars_accepted(self):
        ch.StageSpec("quantize", {"bits": np.int64(8),
                                  "full_scale": np.float64(1.5)})
        ch.StageSpec("amplitude_error", {"eps_a": np.int32(0)})


class TestSchemaChecks:
    @pytest.mark.parametrize("kind, params, key, match", [
        ("quantize", {"bits": 8.5}, "bits", "type 'int'"),
        ("rfdac_core", {"bits": True}, "bits", "type 'int'"),
        ("amplitude_error", {"eps_a": "0.02"}, "eps_a", "type 'number'"),
        ("amplitude_error", {"eps_a": False}, "eps_a", "type 'number'"),
        ("amplitude_error", {"eps_a": -1.0}, "eps_a", r"\(-1, inf\)"),
        ("amplitude_error", {"eps_a": math.nan}, "eps_a", "must lie in"),
        ("static_phase_error", {"phi_e": math.inf}, "phi_e", "must lie in"),
        ("iq_imbalance", {"gain_mismatch": [1, 2]}, "gain_mismatch", "type"),
        ("phase_noise", {"rate": 1.0, "seed": "x"}, "seed", "type 'int'"),
        ("phase_noise", {"rate": 1.0, "seed": -1}, "seed", "must lie in"),
        ("phase_noise", {"rate": 1.0}, "seed", "seed"),
        ("rfdac_core", {"bits": 8, "hold_factor": 0}, "hold_factor",
         "must lie in"),
        ("rfdac_core", {"bits": 8, "mismatch_sigma": 0.01}, "seed", "seed"),
        ("harmonic_multiply", {"factor": 5}, "factor", r"\[2, 4\], got 5"),
        ("iq_correction", {"matrix": [[1.0, 0.0]]}, "matrix", "'matrix'"),
        ("iq_correction", {"matrix": [[1, 0], [0, "1"]]}, "matrix",
         "'matrix'"),
        ("lo_feedthrough", {"offset": [0.1, 0.2]}, "offset", "'complex'"),
        ("am_ampm", {"gain_poly": []}, "gain_poly", "'numbers'"),
        ("state_errors", {"levels": [0.0, 1.0], "errors": [0.1]}, "errors",
         "as many errors as levels"),
        ("state_errors", {"levels": [1.0], "seed": 3}, "sigma",
         "requires parameter 'sigma'"),
        ("state_errors", {"levels": [1.0], "sigma": 0.1}, "seed", "seed"),
        ("bandwidth_limit", {}, "cutoff_hz", "requires parameter"),
        ("amplitude_error", {"eps_a": 10**400}, "eps_a", "'number'"),
        ("lo_feedthrough", {"offset": 10**400}, "offset", "'complex'"),
        ("am_ampm", {"gain_poly": [1.0, 10**400]}, "gain_poly", "'numbers'"),
        ("spur_inject", {"offset_hz": 1e3, "level_dbc": 7000.0}, "level_dbc",
         r"\(-inf, 300\], got 7000"),
    ])
    def test_rejected_at_construction(self, kind, params, key, match):
        with pytest.raises(ch.InputError, match=match) as info:
            ch.StageSpec(kind, params)
        assert info.value.key == f"params.{key}"

    def test_explicit_errors_need_no_seed(self):
        ch.StageSpec("state_errors", {"levels": [1.0], "errors": [0.1]})

    def test_spur_at_its_level_bound_is_finite(self):
        out = ch.apply_stage(_env(), ch.StageSpec(
            "spur_inject", {"offset_hz": 1e3, "level_dbc": 300.0}))
        assert np.all(np.isfinite(out.samples))

    def test_off_ratio_may_be_infinite(self):
        out = ch.apply_stage(_env(), ch.StageSpec(
            "onoff_leakage", {"off_ratio_db": math.inf}))
        assert np.array_equal(out.samples, _env().samples)

    @pytest.mark.parametrize("kind, name", [
        (kind, name) for kind, row in ch.STAGES.items()
        for name, par in row.params.items() if par.below or par.delay])
    def test_record_bound_holds_at_its_edge(self, kind, name):
        # a rate bound at the record's rate, a delay at a quarter of it
        n, fs = 64, 1e6
        row = ch.STAGES[kind]
        par = row.params[name]
        bound = par.below(fs) if par.below else n / fs / 4.0
        seed = {"seed": 1} if "seed" in row.params else {}

        def check(v):
            spec = ch.StageSpec(kind, {name: v, **seed})
            return ch.check_record(ch.TxChain("custom", (spec,)), n, fs, "n")

        assert check(math.nextafter(bound, 0.0)) == 1
        with pytest.raises(ch.InputError) as info:
            check(bound)
        assert info.value.key == f"chain.stages.0.params.{name}"

    @pytest.mark.parametrize("kind, name, value", [
        (kind, name, value) for kind, row in ch.STAGES.items()
        for name, par in row.params.items()
        for value in ([1e300, 1e-6] if par.delay else
                      [par.below(PI_FS)] if par.below else [])])
    def test_library_and_config_refuse_a_delay_alike(self, kind, name, value,
                                                     tmp_path, capsys):
        # a delay past a quarter of the record, or a rate bound at its edge
        seed = {"seed": 1} if "seed" in ch.STAGES[kind].params else {}
        _refused_alike([{"kind": kind, "params": {name: value, **seed}}],
                       f"params.{name}", tmp_path, capsys)

    def test_library_and_config_refuse_a_gate_after_a_hold(self, tmp_path,
                                                           capsys):
        _refused_alike([
            {"kind": "rfdac_core", "params": {"bits": 8, "hold_factor": 2}},
            {"kind": "onoff_leakage", "params": {"off_ratio_db": 30.0}},
        ], "kind", tmp_path, capsys)


def _refused_alike(stages, key, tmp_path, capsys):
    """Library ``run_chain`` of ``stages`` on the pi pulse's record and
    ``sigchain simulate`` of the pi pulse with that chain both refuse its
    last stage at ``key``, with the same problem text."""
    chain = ch.TxChain("custom", tuple(
        ch.StageSpec(s["kind"], s["params"]) for s in stages))
    with pytest.raises(ch.InputError) as info:
        ch.run_chain(chain, ComplexEnvelope(np.ones(256), PI_FS))
    cfg = scn.read_config(scn.bundled_scenario_path("pi_pulse_ideal"))
    cfg["chain"] = {"stages": stages}
    p = tmp_path / "s.json"
    p.write_text(json.dumps(cfg))
    assert main(["simulate", str(p), "--out-dir", str(tmp_path / "out")]) == 2
    assert info.value.key == key
    assert capsys.readouterr().err == (
        f"sigchain: config error: scenario.chain.stages.{len(stages) - 1}."
        f"{key}: {info.value.problem}\n")


# ------------------------------------------------------------- fuzzing

def _bundled_scenarios() -> dict:
    """Every bundled file as a scenario that plan_scenario accepts: a sweep
    contributes its base, a calibration its chain on a short QPSK link."""
    out = {}
    qpsk = scn.read_config(scn.bundled_scenario_path("qpsk_ideal"))
    for name in scn.list_bundled_scenarios():
        cfg = scn.read_config(scn.bundled_scenario_path(name))
        if "sweep" in cfg:
            cfg = cfg["base"]
        elif "routine" in cfg:
            cfg = {**qpsk, "name": name, "sample_rate": cfg["sample_rate"],
                   "chain": cfg["chain"]}
        out[name] = cfg
    return out


SCENARIOS = _bundled_scenarios()
SITES = [(name, i, key)
         for name, cfg in SCENARIOS.items()
         for i, stage in enumerate(cfg.get("chain", {}).get("stages", []))
         for key in ch.STAGES[stage["kind"]].params]
WRONG_TYPES = ["x", {"re": 1.0}, [[1.0], [2.0, 3.0]], [1.0, 2.0, 3.0], []]


def _stage_rate(cfg: dict, index: int) -> float:
    """The sample rate stage ``index`` sees: earlier hold factors scale it."""
    rate = cfg["sample_rate"]
    for stage in cfg["chain"]["stages"][:index]:
        rate *= stage["params"].get("hold_factor") or 1
    return rate


def _past_bounds(par, rate: float) -> list:
    """Values just outside a parameter's bounds, and its rate bound."""
    out = [par.below(rate)] if par.below else []
    if par.type in ("int", "number"):
        lo, hi = (float(b) for b in par.bounds[1:-1].split(","))
        if par.bounds[0] == "(":
            out.append(lo)
        elif lo > -math.inf:
            out.append(int(lo) - 1 if par.type == "int"
                       else np.nextafter(lo, -math.inf))
        if par.bounds[-1] == ")":
            out.append(hi)
        elif hi < math.inf:
            out.append(int(hi) + 1 if par.type == "int"
                       else np.nextafter(hi, math.inf))
    return out


def test_every_bundled_stage_parameter_is_a_site():
    assert len(SITES) > 30
    assert {k for _, _, k in SITES} >= {"offset", "cutoff_hz", "seed",
                                        "hold_factor", "factor"}


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_one_mutated_parameter_is_accepted_or_named(data):
    name, index, key = data.draw(st.sampled_from(SITES))
    cfg = copy.deepcopy(SCENARIOS[name])
    par = ch.STAGES[cfg["chain"]["stages"][index]["kind"]].params[key]
    value = data.draw(st.one_of(
        st.sampled_from([None, True, False, *WRONG_TYPES,
                         *_past_bounds(par, _stage_rate(cfg, index))]),
        st.text(max_size=4),
        st.dictionaries(st.text(max_size=2), st.integers(), max_size=2)))
    cfg["chain"]["stages"][index].setdefault("params", {})[key] = value
    try:
        scn.plan_scenario(cfg)
    except scn.ConfigError as e:
        assert str(e).startswith(f"scenario.chain.stages.{index}.params.{key}"
                                 ":"), str(e)


# ------------------------------------------------- mode section fuzzing
#
# Every key of each bundled scenario's comm or qubit section, its records
# and its constellation, set to one value at a time.  The file must plan
# and then run, or fail with a ConfigError at that key (or, for null,
# report the key missing at its section).  A value of the wrong kind, or
# just past a stated bound, must fail.

# The schemes no bundled file uses, each on a qpsk_ideal copy
SCHEME_EXAMPLES = {"qpsk_sum": {"ratios": [2.0, 1.0]},
                   "star_qam": {"rings": 2, "phases": 8}}
SECTION_SCENARIOS = {**SCENARIOS, **{
    scheme: {**copy.deepcopy(SCENARIOS["qpsk_ideal"]), "name": scheme}
    for scheme in SCHEME_EXAMPLES}}
for _scheme, _params in SCHEME_EXAMPLES.items():
    SECTION_SCENARIOS[_scheme]["comm"]["constellation"] = {"scheme": _scheme,
                                                          **_params}

# Values just past each key's bound, by the key's last name
PAST_BOUND = {
    "n_symbols": 15, "bit_seed": -1, "eye_levels": 0, "substeps": 0,
    "m": 2 * mod.MAX_POINTS, "rings": 2 * mod.MAX_POINTS,
    "phases": 2 * mod.MAX_POINTS, "ratios": [1.0] * 7, "ratio": 0.0,
    "rolloff": np.nextafter(1.0, 2.0), "span_symbols": 3,
    "samples_per_symbol": 3, "sigma_fraction": np.nextafter(1.0, 2.0),
    "duration_s": 0.0, "peak_amplitude": -5e-324, "drive_gain": 0.0,
    "levels": 4, "rotation_angle": np.nextafter(2 * math.pi, 7.0)}
VALUES = [None, True, "x", math.inf, 0, -1, 4.5, 10**400]


def _record_kind(annotation: str):
    return {"float": "number", "float | None": "number",
            "list[float]": "list"}.get(annotation, annotation)


def _section_keys(cfg: dict):
    """(dotted key under the scenario, its JSON kind) for every key of the
    mode section: records and the constellation by their fields, and each
    entry of a list the file gives."""
    mode = cfg["mode"]
    section = cfg[mode]
    for key, kind in scn._MODES[mode].keys.items():
        path = f"{mode}.{key}"
        if kind is mod.Constellation:
            yield path, "dict"
            scheme = section[key]["scheme"]
            yield f"{path}.scheme", tuple(mod.SCHEMES)
            for p in inspect.signature(mod.SCHEMES[scheme]).parameters.values():
                yield f"{path}.{p.name}", _record_kind(p.annotation)
        elif isinstance(kind, type):
            yield path, "dict"
            for f in dataclasses.fields(kind):
                yield f"{path}.{f.name}", _record_kind(f.type)
        else:
            yield path, "list" if isinstance(kind, list) else kind
    for key in ("outputs", "constellation.ratios"):
        node = section
        for k in key.split("."):
            node = node.get(k, {})
        for i, v in enumerate(node or ()):
            yield f"{mode}.{key}.{i}", "str" if key == "outputs" else "number"


def _of_kind(v, kind) -> bool:
    if isinstance(kind, tuple):
        return v in kind
    if kind in ("bool", "str", "list", "dict"):
        return isinstance(v, {"bool": bool, "str": str, "list": list,
                              "dict": dict}[kind])
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    # any int is an integer; a number is one a float holds
    return isinstance(v, int) if kind == "int" \
        else abs(v) <= sys.float_info.max


SECTION_SITES = [(name, key, kind)
                 for name, cfg in SECTION_SCENARIOS.items()
                 for key, kind in _section_keys(cfg)]


def _set_key(cfg: dict, dotted: str, value) -> None:
    *heads, last = dotted.split(".")
    node = cfg
    for k in heads:
        node = node[int(k)] if isinstance(node, list) else node[k]
    if isinstance(node, list):
        node[int(last)] = value
    else:
        node[last] = value


def test_every_section_key_is_a_site():
    keys = {key.split(".", 1)[1] for _, key, _ in SECTION_SITES}
    assert keys >= {"constellation.ratios.0", "constellation.rings",
                    "timing_search", "eye_levels", "bit_seed", "substeps",
                    "pulse.rolloff", "model.anharmonicity", "gate.axis_phase",
                    "envelope.drag_enabled", "outputs.0"}
    last = {key.rsplit(".", 1)[-1] for key in keys}
    assert set(PAST_BOUND) - {"ratio"} <= last


@pytest.mark.parametrize("name, key, kind", SECTION_SITES,
                         ids=[f"{n}-{k}" for n, k, _ in SECTION_SITES])
def test_one_mutated_section_key_runs_or_is_named(name, key, kind):
    leaf = key.rsplit(".", 1)[-1]
    past = PAST_BOUND.get("ratio" if leaf.isdigit() and "ratios" in key
                          else leaf)
    values = [(v, False) for v in VALUES] + \
        ([] if past is None else [(past, True)])
    for value, past_bound in values:
        cfg = copy.deepcopy(SECTION_SCENARIOS[name])
        _set_key(cfg, key, value)
        must_fail = past_bound or value is not None \
            and not _of_kind(value, kind)
        try:
            scn.plan_scenario(cfg)
        except scn.ConfigError as e:
            section, _, key_name = f"scenario.{key}".rpartition(".")
            assert str(e).startswith(f"scenario.{key}:") or (
                value is None and str(e) == f"{section}: missing required "
                f"key {key_name!r}"), (value, str(e))
            continue
        assert not must_fail, f"{key} = {value!r} planned"
        scn._compute(cfg)


@pytest.mark.parametrize("name", sorted(SECTION_SCENARIOS))
def test_the_other_mode_section_is_unknown(name):
    cfg = copy.deepcopy(SECTION_SCENARIOS[name])
    other = next(m for m in scn._MODES if m != cfg["mode"])
    cfg[other] = {}
    with pytest.raises(scn.ConfigError,
                       match=f"^scenario: unknown key '{other}'$"):
        scn.plan_scenario(cfg)
