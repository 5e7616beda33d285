"""Every module-level function and class in src/widir, and every method and property
of its classes, has a caller outside tests/.

A name that only tests reference is an oracle and belongs under tests/.
A reference from src/widir, outside the name's own definition, or from
benchmarks/ counts as a caller. Dunder methods are exempt: the runtime calls
them, not a name in the code.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]


def references(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """The names `tree` reads as a name or an attribute, outside the subtree `skip`."""
    found: set[str] = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return found


def definitions(tree: ast.Module):
    """(qualified name, node) of each module-level function and class of `tree`, each
    class followed by its methods and properties that are not dunders."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, (*functions, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, functions) and not (item.name.startswith("__") and item.name.endswith("__")):
                    yield f"{node.name}.{item.name}", item


def without_callers(modules: dict[str, str], callers: list[str]) -> list[str]:
    """The definitions of `modules` (name -> source) that no code references: not the
    other modules, not the rest of their own module, not `callers`."""
    trees = {name: ast.parse(source) for name, source in modules.items()}
    outside = set().union(*(references(ast.parse(source)) for source in callers))
    missing = []
    for module, tree in trees.items():
        others = set().union(*(references(t) for m, t in trees.items() if m != module))
        for qualname, node in definitions(tree):
            if node.name not in outside | others | references(tree, skip=node):
                missing.append(f"{module}.{qualname}")
    return missing


def test_every_src_function_and_class_has_a_caller_outside_tests():
    modules = {p.stem: p.read_text(encoding="utf-8") for p in sorted((ROOT / "src" / "widir").glob("*.py"))}
    benchmarks = [p.read_text(encoding="utf-8") for p in sorted((ROOT / "benchmarks").glob("*.py"))]
    assert without_callers(modules, benchmarks) == []


def test_checker_finds_names_without_callers():
    modules = {
        "a": "def used():\n    pass\n\ndef recursive(n):\n    return recursive(n - 1)\n\nclass Oracle:\n    pass\n"
             "\nclass Store:\n    def __len__(self):\n        return 0\n\n    def put(self):\n        pass\n\n"
             "    def days(self):\n        return self.days()\n\n    @property\n    def size(self):\n        return 0\n\n"
             "    def data_received(self, data):\n        pass\n",
        "b": "from .a import Store, used\n\ndef main():\n    used()\n    Store().put()\n\nmain()\n\n"
             "def by_bench():\n    pass\n",
    }
    assert without_callers(modules, ["import b\nb.by_bench()\n"]) == [
        "a.recursive", "a.Oracle", "a.Store.days", "a.Store.size", "a.Store.data_received",
    ]
