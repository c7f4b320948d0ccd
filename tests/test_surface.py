"""The README documents exactly the package root's exports and each subcommand's options."""

import ast
import re
from pathlib import Path

import syllab
from syllab.cli import _build_parser

README = Path(__file__).parent.parent / "README.md"
PACKAGE = Path(syllab.__file__).parent


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


def test_modules_use_every_name_they_import():
    # the package root imports names only to export them
    unused = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {alias.asname or alias.name.split(".")[0]
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    for alias in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        if imported - used:
            unused[path.name] = sorted(imported - used)
    assert unused == {}
