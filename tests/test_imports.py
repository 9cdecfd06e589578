"""Every module uses each name it imports and imports it once, the
package imports its own modules by relative paths only, no package
module imports a sibling's private name, no package module
catches a broad exception, the package has one frontier loop and one
ball builder, which is also its one class-placement loop, only wp and
cli name the verdict classes, and the package defines no public name
that only the tests read.

Package __init__ files re-export names and are left out.  A name counts
as used when it appears as an identifier anywhere in the module, which
includes annotations and attribute bases.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted(p for p in (ROOT / "src" / "ormkit").glob("*.py")
                 if p.name != "__init__.py")
MODULES = sorted(PACKAGE + list((ROOT / "tests").glob("*.py")))


def unused_imports(source: str) -> list[str]:
    """Imported names never read, and imports in the module body that
    repeat an earlier one there: the same name bound to the same
    target.  An import inside a function, or of a submodule beside its
    package, is no repeat."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    found = [f"line {line}: {name}" for name, line in sorted(imported.items())
             if name not in used]
    seen: dict[tuple, int] = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            keys = [(a.asname or a.name.split(".")[0], a.name)
                    for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            keys = [(a.asname or a.name, node.level, node.module, a.name)
                    for a in node.names]
        else:
            continue
        for key in keys:
            if key in seen:
                found.append(f"line {node.lineno}: {key[0]} repeats "
                             f"line {seen[key]}")
            else:
                seen[key] = node.lineno
    return found


def test_unused_imports_flags_a_repeat_in_the_module_body():
    assert unused_imports("import re\nimport os\nimport re\n"
                          "re, os\n") == ["line 3: re repeats line 1"]
    assert unused_imports("from a import b as c\nfrom a import b as c\n"
                          "c\n") == ["line 2: c repeats line 1"]
    legitimate = [
        # a function imports what the module body imports
        "import ormkit.cli as cli\n\ndef f():\n"
        "    import ormkit.cli as cli\n    return cli\n\ncli, f\n",
        # a package beside its submodule
        "import importlib\nimport importlib.util\nimportlib\n",
        # one name from two targets
        "from a import b\nfrom c import b\nb\n",
    ]
    assert [unused_imports(source) for source in legitimate] == [[], [], []]


@pytest.mark.parametrize("path", MODULES,
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def private_sibling_imports(source: str) -> list[str]:
    """Underscore names imported from another module of the package."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = "." * node.level + (node.module or "")
        if not (node.level or module.split(".")[0] == "ormkit"):
            continue
        found += [f"line {node.lineno}: {module}.{alias.name}"
                  for alias in node.names if alias.name.startswith("_")]
    return found


@pytest.mark.parametrize("path", PACKAGE,
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_no_private_sibling_imports(path):
    assert private_sibling_imports(path.read_text()) == []


def absolute_package_imports(source: str) -> list[str]:
    """Imports that name the package ormkit instead of a relative path."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module or ""]
        else:
            continue
        found += [f"line {node.lineno}: {name}" for name in names
                  if name.split(".")[0] == "ormkit"]
    return found


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "ormkit").glob("*.py")),
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_package_imports_itself_relatively(path):
    # scripts/phases.py --against-src imports a second tree's package
    # under another name, which only relative imports follow
    assert absolute_package_imports(path.read_text()) == []


BROAD = {"ValueError", "Exception", "BaseException"}


def broad_excepts(source: str) -> list[str]:
    """Except clauses that catch a bare ValueError or Exception, or
    everything.  A check that does not apply raises PreconditionError,
    so a broad catch can only hide a defect."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if node.type is None:
            found.append(f"line {node.lineno}: bare except")
            continue
        types = (node.type.elts if isinstance(node.type, ast.Tuple)
                 else [node.type])
        found += [f"line {node.lineno}: {t.id}" for t in types
                  if isinstance(t, ast.Name) and t.id in BROAD]
    return found


@pytest.mark.parametrize("path", PACKAGE,
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_no_broad_excepts(path):
    assert broad_excepts(path.read_text()) == []


def call_sites(source: str, name: str) -> list[tuple[str | None, int]]:
    """(innermost enclosing function, line) of each call of name, as a
    bare name or as an attribute."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Call):
            f = node.func
            if (isinstance(f, ast.Attribute) and f.attr == name
                    or isinstance(f, ast.Name) and f.id == name):
                found.append((func, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(source), None)
    return found


def heappop_sites(source: str) -> list[str]:
    """Calls of heapq.heappop, under either spelling."""
    return [f"line {line}" for _, line in call_sites(source, "heappop")]


def test_one_frontier_loop():
    """Every closure search in the package runs in one engine, so the
    package pops a frontier heap in one place."""
    sites = [f"{p.name} {line}"
             for p in sorted((ROOT / "src" / "ormkit").glob("*.py"))
             for line in heappop_sites(p.read_text())]
    assert len(sites) == 1, sites


def test_one_ball_builder():
    """Every ball is built by one breadth-first loop, the one place in
    cayley that asks whether the rule is complete and the one that
    places a class; only PsiWellDefined still groups every word of the
    ball, through enumerate_classes, which reads them along the ball's
    edges."""
    cayley = (ROOT / "src" / "ormkit" / "cayley.py").read_text()
    assert len(call_sites(cayley, "is_complete")) == 1
    sites = [(p.name, func) for p in PACKAGE
             for func, _ in call_sites(p.read_text(), "enumerate_classes")]
    assert sites == [("cayley.py", "_check_psi_well_defined")]
    sites = [(p.name, func) for p in PACKAGE
             for func, _ in call_sites(p.read_text(), "_locate")]
    assert sites == [("cayley.py", "_ball")]
    assert ("enumerate_classes" in
            [func for func, _ in call_sites(cayley, "_ball")])


def test_only_wp_and_cli_name_the_verdict_classes():
    """wp makes verdicts and cli renders them; every other module reads
    a verdict's congruent, so it neither imports nor names a verdict
    class."""
    verdicts = {"Equal", "Distinct", "Unknown"}
    naming = [p.name for p in PACKAGE
              if referenced_names(p.read_text()) & verdicts]
    assert [name for name in naming if name not in ("wp.py", "cli.py")] == []


def public_definitions(source: str) -> list[str]:
    """Public names that a module defines at its top level."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [name for name in names if not name.startswith("_")]


def referenced_names(source: str) -> set[str]:
    """Every identifier a module reads, imports or looks up as an attribute."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
    return found


def test_library_keeps_only_what_it_runs():
    """Every public top-level name of the package is exported from
    ormkit or read somewhere besides its definition: in the package, a
    script or the benchmark.  A name that only the tests call is not
    library code."""
    users = [*(ROOT / "src" / "ormkit").glob("*.py"),
             *(ROOT / "scripts").glob("*.py"),
             *(ROOT / "perfbench").glob("*.py")]
    read = set().union(*(referenced_names(p.read_text()) for p in users))
    unread = [f"{p.stem}.{name}" for p in PACKAGE
              for name in public_definitions(p.read_text())
              if name not in read]
    assert unread == []
