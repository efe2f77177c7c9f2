"""Every public module-level name in the package is read by the package.

A public function, class or constant that no code in src/ reads is either
dead or kept only for tests; either way it is a second path to keep in
step.  Names are matched by identifier, across all modules: a read is a
load of the name, an attribute of that name, or an import of it.
Docstrings and comments are not code and do not count.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "srsqueeze"

def _public_definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                            ast.Name):
            names = [node.target.id]
        else:
            continue
        yield from (n for n in names if not n.startswith("_"))


def _reads(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def unread_public_names(src=SRC):
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(src.glob("*.py"))}
    read = {name for tree in trees.values() for name in _reads(tree)}
    return sorted(f"{mod}.{name}" for mod, tree in trees.items()
                  for name in _public_definitions(tree) if name not in read)


def test_every_public_name_is_read_in_src():
    assert unread_public_names() == []


def test_guard_sees_an_unread_name(tmp_path):
    # positive control: a public function nothing calls, beside one that a
    # docstring mentions and one that code reads
    (tmp_path / "mod.py").write_text(
        '"""Mentions orphan in prose."""\n'
        "LIMIT = 3\n"
        "def orphan():\n    pass\n"
        "def used():\n    return LIMIT\n"
        "x = used()\n", encoding="utf-8")
    assert unread_public_names(tmp_path) == ["mod.orphan", "mod.x"]
