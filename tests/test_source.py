"""Source-level checks over src/lossguard: no unused import, no dead top-level code,
no reach into another module's private names, no float bytes."""

import ast
from pathlib import Path

import lossguard

SRC = Path(lossguard.__file__).parent
TREES = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}


def _used_names(tree: ast.AST) -> set[str]:
    """Every name the module reads, as a bare name or as an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_no_module_has_an_unused_import():
    unused = []
    for name, tree in TREES.items():
        if name == "__init__.py":  # it imports to re-export
            continue
        used = _used_names(tree)
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__":
                bound = [(a.asname or a.name).split(".")[0] for a in node.names]
                unused += [f"{name}: {b}" for b in bound if b not in used]
    assert unused == []


def test_every_top_level_definition_has_a_caller_in_src_or_is_exported():
    used = set().union(*map(_used_names, TREES.values()))
    imported = {a.name for tree in TREES.values() for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for a in node.names}
    dead = [
        f"{name}: {node.name}"
        for name, tree in TREES.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name not in used | imported | set(lossguard.__all__)
    ]
    assert dead == []


def test_no_module_reads_another_modules_private_names():
    modules = {Path(name).stem for name in TREES}
    reads = []
    for name, tree in TREES.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id in modules and node.attr.startswith("_") and not node.attr.startswith("__"):
                    reads.append(f"{name}: {node.value.id}.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("lossguard"):
                reads += [f"{name}: {node.module}.{a.name}" for a in node.names if a.name.startswith("_")]
    assert reads == []


def test_no_module_turns_floats_into_bytes():
    # blocks are shared by np.array_equal over a handful of candidates, never looked up by their bytes
    calls = [
        f"{name}: line {node.lineno}"
        for name, tree in TREES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "tobytes"
    ]
    assert calls == []
