"""README claims checked against the code.

The README's code blocks are run by ``test_scenario.TestReadme``; these
tests hold its impairment catalog to the stage registry and its calibration
table to the routine registry."""
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
    from sigchain.calibration import ROUTINES

    table, routine = {}, None
    for name, key, default in re.findall(
            r"^\| (?:`(\w+)` )?\| `(\w+)` \| ([^|]*?) \|",
            _section("Calibration routines"), flags=re.M):
        routine = name or routine
        table.setdefault(routine, {})[key] = default
    assert table == {
        name: {row.config.get(p, p): (json.dumps(row.defaults[p])
                                      if p in row.defaults else "required")
               for p in row.keys}
        for name, row in ROUTINES.items()}
