"""README's library example, CSV column lists and dependency floors,
checked against the code, pyproject.toml and CI."""

import re
import tomllib
from pathlib import Path

import pytest

from graf.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def test_library_example_runs():
    section = README.read_text(encoding="utf-8").split("## Library example", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(block, f"{README}:library example", "exec"), {})


def _documented_columns(heading: str) -> list[str]:
    """The column list README gives after ``heading``: the first code span
    of that paragraph, then any ``<e>``/``<d>`` name patterns, filled in
    with eps 0.1 and delta 0.3."""
    paragraph = README.read_text(encoding="utf-8").split(heading, 1)[1].split("\n\n", 1)[0]
    spans = re.findall(r"`([^`]*)`", paragraph)
    columns = [name.strip() for name in spans[0].split(",")]
    patterns = [span for span in spans[1:] if re.fullmatch(r"\w+<[ed]>", span)]
    return columns + [p.replace("<e>", "0.1").replace("<d>", "0.3") for p in patterns]


_RATIO = "**`ratio-table` / `estimate --format csv` columns**:"


@pytest.mark.parametrize(
    "heading, argv",
    [
        (_RATIO, ["ratio-table", "--n-list", "2", "--reps", "2", "--seed", "0", "--workers", "1"]),
        (_RATIO, ["estimate", "--n", "2", "--reps", "2", "--seed", "0", "--workers", "1",
                  "--format", "csv"]),
        ("**`nearmax` columns**:", ["nearmax", "--n", "3", "--eps", "0.2", "--reps", "2",
                                    "--seed", "0", "--m-reps", "2", "--workers", "1"]),
        ("**`bounds` columns**:", ["bounds", "--n-list", "3", "--eps", "0.1",
                                   "--delta", "0.3"]),
    ],
    ids=["ratio-table", "estimate-csv", "nearmax", "bounds"],
)
def test_csv_header_matches_readme(capsys, heading, argv):
    assert main(argv) == 0
    header = capsys.readouterr().out.split("\n", 1)[0]
    assert header.split(",") == _documented_columns(heading)


def test_dependency_floors_are_the_ci_pins():
    # graf._scipy loads compiled files by module name, so the floors are
    # the releases CI runs, and README's install section names them.
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    floors = dict(re.fullmatch(r"(\w+)>=([\d.]+)", dep).groups() for dep in project["dependencies"])
    ci = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    pins = dict(re.findall(r"\b(numpy|scipy)==([\d.]+)", ci))
    python = re.search(r'python-version: "([\d.]+)"', ci).group(1)
    assert floors == pins and project["requires-python"] == f">={python}"
    section = README.read_text(encoding="utf-8").split("## Install and test", 1)[1]
    install = " ".join(section.split("```", 1)[0].split())
    for name, version in [("Python", python), *pins.items()]:
        assert f"{name} {version} or later" in install
