"""The package root exports exactly the library surface the README documents."""

import re
from pathlib import Path

import syllab

README = Path(__file__).parent.parent / "README.md"


def test_all_matches_readme():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library quick start"):text.index("## Command line")]
    documented = re.findall(r"^- `(\w+)", section, re.MULTILINE)
    assert sorted(syllab.__all__) == sorted(documented)
    assert all(hasattr(syllab, name) for name in documented)
