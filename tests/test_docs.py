"""README claims checked against the code.

The README's code blocks are run by ``test_scenario.TestReadme``; these
tests hold its impairment catalog to the stage registry, its mode table to
the mode rows, its calibration table to the routine signatures and its
command-line examples to the argument parser."""
import inspect
import json
import re
from pathlib import Path

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
