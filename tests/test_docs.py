"""README claims checked against the code.

The README's code blocks are run by ``test_scenario.TestReadme``; these
tests hold its impairment catalog to the stage registry."""
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
