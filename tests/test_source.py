"""Checks on the package source itself."""

import ast
import contextlib
import io
import pathlib
import re

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "strengthvote"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
TRACER = SRC.parent.parent / "perfbench" / "tracer.py"


def _exempt(lines: list[str], node: ast.AST) -> bool:
    """Whether an import statement carries ``# noqa: F401`` on any of its lines."""
    return any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno])


def _unused_imports(path: pathlib.Path) -> list[str]:
    """Names a module imports and never references, except on import lines
    that carry ``# noqa: F401``."""
    text = path.read_text()
    lines = text.splitlines()
    tree = ast.parse(text)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if _exempt(lines, node):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used:
                unused.append(f"{path.name}:{node.lineno}: {name}")
    return unused


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert _unused_imports(path) == []


def _traced_attributes() -> set[tuple[str, str]]:
    """The (module, attribute) of every literal entry in perfbench/tracer.py's
    SPANS and COUNTERS, read from its source without importing it."""
    tree = ast.parse(TRACER.read_text())
    pairs = set()
    for node in tree.body:
        if not (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) in ("SPANS", "COUNTERS") for t in node.targets)):
            continue
        for entry in ast.walk(node.value):
            if isinstance(entry, ast.Tuple) and len(entry.elts) >= 2 and all(
                    isinstance(e, ast.Constant) and isinstance(e.value, str)
                    for e in entry.elts[:2]):
                pairs.add((entry.elts[0].value, entry.elts[1].value))
    return pairs


def test_every_exempt_import_is_one_the_tracer_patches():
    """``# noqa: F401`` exempts only names the tracer patches in that module:
    an import kept for nothing else is reported."""
    traced = _traced_attributes()
    stray = []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        lines = text.splitlines()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and _exempt(lines, node):
                stray += [f"{path.name}:{node.lineno}: {alias.asname or alias.name}"
                          for alias in node.names
                          if (path.stem, alias.asname or alias.name) not in traced]
    assert stray == []


def _referenced_names(tree: ast.AST) -> set[str]:
    """Every name a module looks up, reads as an attribute or imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.split(".")[-1] for alias in node.names)
    return names


def test_every_public_function_has_a_caller_or_is_documented():
    """A public module-level def or class that no module uses must be named in
    the README; otherwise nothing but the tests would reach it."""
    trees = {path.name: ast.parse(path.read_text()) for path in MODULES}
    used = set().union(*map(_referenced_names, trees.values()))
    readme = (SRC.parent.parent / "README.md").read_text()
    unreached = [
        f"{name}:{node.lineno}: {node.name}"
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in used
        and not re.search(rf"\b{re.escape(node.name)}\b", readme)
    ]
    assert unreached == []


def _public_members(node: ast.ClassDef) -> set[str]:
    """The public fields (names annotated or assigned in the class body) and
    methods of a class."""
    names = {member.name for member in node.body if isinstance(member, ast.FunctionDef)}
    for member in node.body:
        if isinstance(member, ast.AnnAssign):
            names.add(getattr(member.target, "id", ""))
        elif isinstance(member, ast.Assign):
            names.update(getattr(target, "id", "") for target in member.targets)
    return {name for name in names if name and not name.startswith("_")}


def _unreached_members(trees: dict[str, ast.AST], readme: str) -> list[str]:
    """The public methods and properties of public classes that neither a
    module nor the README reaches. A member is reached by a use of its name
    or by the README naming it; but when another public class has a field or
    member of the same name, a use cannot tell the two apart, so only the
    README naming it as ``Class.member`` reaches it."""
    used = set().union(*map(_referenced_names, trees.values()))
    classes = [(name, node) for name, tree in trees.items() for node in tree.body
               if isinstance(node, ast.ClassDef) and not node.name.startswith("_")]
    owners = {}
    for _, node in classes:
        for member in _public_members(node):
            owners.setdefault(member, set()).add(node.name)

    def reached(cls: str, member: str) -> bool:
        if owners[member] - {cls}:
            return bool(re.search(rf"\b{re.escape(cls)}\.{re.escape(member)}\b", readme))
        return member in used or bool(re.search(rf"\b{re.escape(member)}\b", readme))

    return [f"{name}:{member.lineno}: {node.name}.{member.name}"
            for name, node in classes
            for member in node.body
            if isinstance(member, ast.FunctionDef) and not member.name.startswith("_")
            and not reached(node.name, member.name)]


def test_every_public_member_has_a_caller_or_is_documented():
    """A public method or property of a public class that nothing reaches
    (_unreached_members) must go; otherwise only the tests would reach it."""
    trees = {path.name: ast.parse(path.read_text()) for path in MODULES}
    readme = (SRC.parent.parent / "README.md").read_text()
    assert _unreached_members(trees, readme) == []


def test_a_member_that_shares_its_name_needs_its_class_in_the_readme():
    tree = ast.parse("class Scheme:\n"
                     "    def tau(self): ...\n"
                     "class Rule:\n"
                     "    tau: float\n"
                     "def use(rule):\n"
                     "    return rule.tau\n")
    assert _unreached_members({"m.py": tree}, "") == ["m.py:2: Scheme.tau"]
    assert _unreached_members({"m.py": tree}, "`tau`") == ["m.py:2: Scheme.tau"]
    assert _unreached_members({"m.py": tree}, "`Scheme.tau`") == []


def test_every_private_function_has_a_caller_or_is_traced():
    """A private module-level def or class that no module uses must be an
    attribute the tracer patches; otherwise only the tests reach it, and it
    belongs in them."""
    trees = {path: ast.parse(path.read_text()) for path in MODULES}
    used = set().union(*map(_referenced_names, trees.values()))
    traced = _traced_attributes()
    unreached = [
        f"{path.name}:{node.lineno}: {node.name}"
        for path, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and node.name not in used
        and (path.stem, node.name) not in traced
    ]
    assert unreached == []


def test_every_readme_python_example_runs():
    """Each fenced python block of the README runs without an error."""
    readme = (SRC.parent.parent / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.M | re.S)
    assert blocks
    for block in blocks:
        with contextlib.redirect_stdout(io.StringIO()) as out:
            exec(compile(block, "README.md", "exec"), {})
        assert out.getvalue()
