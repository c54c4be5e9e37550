import pathlib
import re

from relaxsolve import parse_bench_plan, parse_problem_spec
from relaxsolve.bench import CSV_HEADER

README = pathlib.Path(__file__).parents[1] / "README.md"


def _file_format_blocks():
    """The fenced code blocks of README's "File formats" section."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## File formats\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^```\n(.*?)^```$", section, re.M | re.S)


def test_readme_file_format_examples_parse():
    # Every block is a spec, a plan or the CSV header, and each example
    # reads as shown.
    blocks = _file_format_blocks()
    specs = [b for b in blocks if b.startswith("id=")]
    plans = [b for b in blocks if b.startswith("problems=")]
    assert sorted(blocks) == sorted(specs + plans + [CSV_HEADER + "\n"])
    assert [parse_problem_spec(b).id for b in specs] == ["P5", "custom"]
    assert [[p.id for p in parse_bench_plan(b).problems] for b in plans] == [
        ["P1", "P2", "P6"], ["custom"],
    ]
