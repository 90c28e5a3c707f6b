"""README claims checked against the code.

The README's code blocks are run by ``test_scenario.TestReadme``; these
tests hold its impairment catalog to the stage registry, its mode table to
the mode rows, its calibration table to the routine signatures, its
command-line examples to the argument parser and its quick start to the
package exports."""
import importlib
import inspect
import json
import pkgutil
import re
from pathlib import Path

import pytest

import sigchain
from sigchain.chains import ARCHITECTURES, STAGES

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _section(title: str) -> str:
    return README.split(f"## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_catalog_table_lists_every_atomic_stage_with_its_term():
    rows = re.findall(r"^\| `(\w+)` \| .* \| (\w+) \|$",
                      _section("Impairment catalog"), flags=re.M)
    assert dict(rows) == {kind: row.term for kind, row in STAGES.items()
                          if row.term is not None}
    assert len(rows) == len(dict(rows))


def test_composite_list_matches_the_registry():
    text = _section("Impairment catalog").split("Composite stages", 1)[1]
    named = re.findall(r"`(\w+)`", text.split("\n\n", 1)[0])
    assert sorted(named) == sorted(kind for kind, row in STAGES.items()
                                   if row.term is None)


def test_architecture_list_matches_the_code():
    line = re.search(r"`architecture` is one of (.*?)\.\n",
                     _section("Scenario files"), flags=re.S).group(1)
    assert tuple(re.findall(r"`(\w+)`", line)) == ARCHITECTURES


def test_calibration_table_matches_the_routines():
    from sigchain import calibration as cal

    table, routine = {}, None
    for name, key, default in re.findall(
            r"^\| (?:`(\w+)` )?\| `(\w+)` \| ([^|]*?) \|",
            _section("Calibration routines"), flags=re.M):
        routine = name or routine
        table.setdefault(routine, {})[key] = default
    want = {}
    for name in cal.ROUTINES:
        params = inspect.signature(getattr(cal, name)).parameters.values()
        want[name] = {p.name: "required" if p.default is p.empty
                      else json.dumps(p.default) for p in params
                      if p.name not in ("chain", "sample_rate")}
    assert table == want


def test_command_line_examples_parse():
    from sigchain.cli import build_parser

    block = _section("Command line").split("```sh\n", 1)[1].split("```")[0]
    lines = [line.split("#")[0].split() for line in block.splitlines()]
    assert len(lines) >= 5
    for words in lines:
        assert words[0] == "sigchain"
        build_parser().parse_args(words[1:])


def test_scored_window_matches_the_bundled_links():
    from sigchain import scenario as scn

    assert ("the first and last `span_symbols` symbols are not scored"
            in _section("Scenario files"))
    links = 0
    for name in scn.list_bundled_scenarios():
        raw = scn.read_config(scn.bundled_scenario_path(name))
        if raw.get("mode") != "comm":
            continue
        comm = raw["comm"]
        summary, _ = scn._compute(raw)
        assert summary["num_symbols"] == (
            comm["n_symbols"] - 2 * comm["pulse"]["span_symbols"]), name
        links += 1
    assert links >= 5


def test_mode_table_matches_the_modes():
    from sigchain.scenario import _KINDS, _MODES

    def kind_name(kind) -> str:
        if isinstance(kind, type):
            return "object"
        return "array" if isinstance(kind, list) else _KINDS[kind][1]

    table, mode = {}, None
    for name, key, kind, default in re.findall(
            r"^ *\| (?:`(\w+)` )?\| `(\w+)` \| ([^|]*?) \| ([^|]*?) \|",
            _section("Scenario files"), flags=re.M):
        mode = name or mode
        table.setdefault(mode, {})[key] = (kind, default)
    assert table == {
        name: {key: (kind_name(kind), json.dumps(row.defaults[key])
                     if key in row.defaults else "required")
               for key, kind in row.keys.items()}
        for name, row in _MODES.items()}


@pytest.mark.parametrize("name", [
    m.name for m in pkgutil.iter_modules(sigchain.__path__)] + [None])
def test_every_export_resolves(name):
    module = importlib.import_module(
        "sigchain" + (f".{name}" if name else ""))
    exports = getattr(module, "__all__", ())
    assert len(set(exports)) == len(exports)
    for export in exports:
        assert hasattr(module, export), f"{module.__name__}.{export}"


def test_package_exports_the_quick_start_and_the_entry_points():
    from sigchain import calibration, cli

    quick = _section("Quick start (library)")
    imported = {name for block in re.findall(
        r"^from sigchain import \((.*?)\)", quick, flags=re.M | re.S)
        for name in re.findall(r"\w+", block)}
    # runs: what the command line calls; the calibration routines; and the
    # stage registry's entry, one stage applied by kind
    runs = set(re.findall(r"\bscn\.([A-Za-z]\w*)",
                          inspect.getsource(cli)))
    assert imported and runs
    entries = runs | set(calibration.ROUTINES) | {"apply_stage"}
    assert set(sigchain.__all__) == imported | entries
