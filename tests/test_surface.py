"""The README documents exactly the package root's exports and each subcommand's options;
the modules that `--lang` reaches know the same languages."""

import ast
import re
import sys
from pathlib import Path

import syllab
from syllab import sonority, textnorm
from syllab.align import DTW_CELL_BUDGET
from syllab.cli import _build_parser
from syllab.lexicon import G2P_OUTPUT_LIMIT, G2P_TIMEOUT_LIMIT, FallbackConfig
from syllab.pipeline import ANALYSIS_CHUNK, RECORD_FLAGS, RECORD_METHODS

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


def test_record_vocabulary_matches_readme():
    text = README.read_text(encoding="utf-8")
    listed = {kind: re.findall(r"`([\w-]+)`", values) for kind, values in
              re.findall(r"^- record (methods|flags): (.*)$", text, re.MULTILINE)}
    assert listed == {"methods": list(RECORD_METHODS), "flags": sorted(RECORD_FLAGS)}


def test_readme_numbers_match_the_constants():
    text = " ".join(README.read_text(encoding="utf-8").split())

    def number(pattern: str) -> list[int]:
        return [int(n) for n in re.search(pattern, text).groups()]

    timeout = FallbackConfig("g2p").timeout
    assert number(r"a chunk of (\d+) of its distinct words") == [ANALYSIS_CHUNK]
    [exponent] = number(r"more than 10\^(\d+) cells")
    assert 10 ** exponent == DTW_CELL_BUDGET
    assert number(r"The timeout \((\d+) s\) applies") == [timeout]
    assert number(r"a budget of (\d+) timeouts of wall time \((\d+) s\)") == [
        G2P_TIMEOUT_LIMIT, G2P_TIMEOUT_LIMIT * timeout]
    assert number(r"may print (\d+) KiB of stdout per word") == [G2P_OUTPUT_LIMIT / 1024]


def test_languages_agree_across_modules():
    # `--lang` picks numeral rules, vowel letters and letter classes alike
    assert set(textnorm._NUM_RULES) == set(sonority.VOWEL_LETTERS) \
        == set(sonority._LETTER_CLASSES)


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


def _opens_for_reading(call: ast.Call) -> bool:
    """Whether `call` may read a file: a `read_text` or `read_bytes` call, or
    an `open` call whose mode is not a constant holding w, a or x."""
    func = call.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    if name in ("read_text", "read_bytes"):
        return True
    if name != "open":
        return False
    mode = call.args[1] if len(call.args) > 1 else next(
        (kw.value for kw in call.keywords if kw.arg == "mode"), None)
    return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                and set(mode.value) & set("wax"))


def test_only_errors_module_opens_files_for_reading():
    # errors.read_lines is the one reader: it decodes and splits every input
    readers = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        lines = [node.lineno for node in ast.walk(tree)
                 if isinstance(node, ast.Call) and _opens_for_reading(node)]
        if lines:
            readers[path.name] = lines
    assert list(readers) == ["errors.py"], readers


def test_src_imports_only_the_standard_library():
    # numpy may be installed, but the package runs on the standard library alone
    outside = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            roots = {name.split(".")[0] for name in names}
            if roots - sys.stdlib_module_names:
                outside[path.name] = sorted(roots - sys.stdlib_module_names)
    assert outside == {}
