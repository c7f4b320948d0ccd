"""The README documents exactly the package root's exports and each subcommand's options."""

import re
from pathlib import Path

import syllab
from syllab.cli import _build_parser

README = Path(__file__).parent.parent / "README.md"


def test_all_matches_readme():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library quick start"):text.index("## Command line")]
    documented = re.findall(r"^- `(\w+)", section, re.MULTILINE)
    assert sorted(syllab.__all__) == sorted(documented)
    assert all(hasattr(syllab, name) for name in documented)


def test_subcommand_options_match_readme():
    text = README.read_text(encoding="utf-8")
    start = text.index("## Command line")
    section = text[start:text.index("```bash", start)]
    documented = {command: re.findall(r"`(--[\w-]+)`", options)
                  for command, options in re.findall(r"^- `(\w+)`: (.*)$", section,
                                                     re.MULTILINE)}
    _, by_name = _build_parser()
    parsed = {command: [option for action in sub._actions
                        for option in action.option_strings
                        if option not in ("-h", "--help")]
              for command, sub in by_name.items()}
    assert documented == parsed
