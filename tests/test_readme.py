"""README's library example and CSV column lists, checked against the code."""

import re
from pathlib import Path

import pytest

from graf.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


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
