"""README's configuration table and export list name what the code has."""

import re
from pathlib import Path

import swarmpatrol
from swarmpatrol import harness

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _between(start: str, end: str) -> str:
    """The README text from the first `start` up to the next `end`."""
    head = README.index(start)
    return README[head : README.index(end, head)]


def test_readme_config_table_lists_the_config_keys():
    table = _between("## Configuration", "\n## ")
    assert re.findall(r"^\| `(\w+)` +\|", table, re.M) == list(harness._CONFIG_KEYS)


def test_readme_export_list_names_the_package_exports():
    paragraph = _between("The package exports", "Each module lists")
    assert sorted(re.findall(r"`(\w+)`", paragraph)) == sorted(swarmpatrol.__all__)
