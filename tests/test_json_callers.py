"""Only `textio` parses JSON in src/widir: every other module reads it through `textio.load_json`."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "widir"
PARSERS = {"load", "loads"}


def json_parse_calls(source: str) -> list[str]:
    """Where `source` reaches `json.load` or `json.loads`, as `line: name`.

    Counts an attribute of the module under any alias (`import json as j`)
    and a by-name import (`from json import loads`).
    """
    tree = ast.parse(source)
    aliases = {a.asname or a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for a in node.names if a.name == "json"}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "json":
            found += [(node.lineno, a.name) for a in node.names if a.name in PARSERS]
        elif (isinstance(node, ast.Attribute) and node.attr in PARSERS
              and isinstance(node.value, ast.Name) and node.value.id in aliases):
            found.append((node.lineno, node.attr))
    return [f"{line}: json.{name}" for line, name in sorted(found)]


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "textio.py"), ids=lambda p: p.name)
def test_module_parses_no_json_itself(path):
    assert json_parse_calls(path.read_text(encoding="utf-8")) == []


def test_checker_finds_json_parsing():
    source = (
        "import json\n"
        "import json as j\n"
        "from json import loads, dumps\n"
        "json.dump({}, fh)\n"
        "doc = json.load(fh)\n"
        "parse = j.loads\n"
        "text = json.dumps(doc)\n"
    )
    assert json_parse_calls(source) == ["3: json.loads", "5: json.load", "6: json.loads"]
