"""Every top-level function and method of ``madpde`` is reached from the
package itself or from the benchmark (``perfbench/``), not only from tests.

A definition counts as reached when its name appears anywhere in those
sources other than as its own definition: as a name, an attribute, an
imported name or a string (``perfbench/spans.py`` wraps functions by their
names).  The match is by name alone, so a method that shares its name with
a numpy one reads as reached; the check catches what nothing names at all.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "madpde"

# kept on purpose although only tests call them
ALLOWED = {
    # references that tests compare the production jets against
    "diffcore.jet_add", "diffcore.jet_sub", "diffcore.jet_mul", "diffcore.jet_sin",
    # the iterations-to-accuracy metric, pending its caller in the
    # reproduction study (ROADMAP direction 1)
    "benchviz.ConvergenceRecord.first_iteration_reaching",
}


def _benchmark_sources():
    return [p for p in sorted((ROOT / "perfbench").glob("*.py"))
            if not p.name.startswith("test_")]


def _definitions(tree: ast.Module, module: str):
    """(qualified name, name) of the module's functions and its classes'
    methods, dunders left out."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, functions):
            yield f"{module}.{node.name}", node.name
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, functions) and not (
                        item.name.startswith("__") and item.name.endswith("__")):
                    yield f"{module}.{node.name}.{item.name}", item.name


def _names_used(tree: ast.Module) -> set:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.add(node.value)
    return used


def unreached(package, others=()) -> list:
    """Qualified names of the definitions in the ``package`` files that
    neither they nor the ``others`` name, the allowed ones included."""
    package = {p: ast.parse(p.read_text(), str(p)) for p in package}
    others = [ast.parse(p.read_text(), str(p)) for p in others]
    used = set().union(*map(_names_used, [*package.values(), *others]))
    return sorted(q for p, tree in package.items()
                  for q, name in _definitions(tree, p.stem)
                  if name not in used)


def test_only_the_allowed_definitions_are_unreached():
    # and every allowed one still is, so the list cannot go stale
    assert unreached(sorted(PACKAGE.glob("*.py")),
                     _benchmark_sources()) == sorted(ALLOWED)


def test_a_definition_only_tests_call_is_caught(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text("class A:\n    def kept(self):\n        pass\n\n"
                      "    def dropped(self):\n        pass\n\n\n"
                      "def run():\n    A().kept()\n\n\n"
                      "def only_a_test_calls_this():\n    pass\n\n\nrun()\n")
    assert unreached([module]) == ["mod.A.dropped", "mod.only_a_test_calls_this"]
