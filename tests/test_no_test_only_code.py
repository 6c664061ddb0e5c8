"""Every top-level function and method of ``madpde`` is reached from the
package itself or from the benchmark (``perfbench/``), not only from tests,
and so is every parameter with a default.

A definition counts as reached when its name appears anywhere in those
sources other than as its own definition: as a name, an attribute, an
imported name or a string (``perfbench/spans.py`` wraps functions by their
names).  The match is by name alone, so a method that shares its name with
a numpy one reads as reached; the check catches what nothing names at all.

A defaulted parameter counts as set when some call to its function's name
in those sources passes it: by keyword, by position, or through ``*args``
or ``**kwargs``.  The match is again by name alone.
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

# kept on purpose although only tests set them
ALLOWED_PARAMETERS = {
    # tests refine the oracles against themselves: a smaller CFL safety
    # factor, and more Crank-Nicolson substeps per output interval
    "oracles.burgers_solve(safety)",
    "oracles.burgers_solve_cn(substeps_per_interval)",
    # bounds the work of a blow-up, so that it raises OracleError rather
    # than running on; a test lowers it to reach that error quickly
    "oracles.burgers_solve(max_steps)",
}


def _benchmark_sources():
    return [p for p in sorted((ROOT / "perfbench").glob("*.py"))
            if not p.name.startswith("test_")]


def _definitions(tree: ast.Module, module: str):
    """(qualified name, node) of the module's functions and its classes'
    methods, dunders left out."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, functions):
            yield f"{module}.{node.name}", node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, functions) and not (
                        item.name.startswith("__") and item.name.endswith("__")):
                    yield f"{module}.{node.name}.{item.name}", item


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


def _parse(paths):
    return {p: ast.parse(p.read_text(), str(p)) for p in paths}


def unreached(package, others=()) -> list:
    """Qualified names of the definitions in the ``package`` files that
    neither they nor the ``others`` name, the allowed ones included."""
    package = _parse(package)
    used = set().union(*map(_names_used, [*package.values(), *_parse(others).values()]))
    return sorted(q for p, tree in package.items()
                  for q, node in _definitions(tree, p.stem)
                  if node.name not in used)


def _defaulted(node, qualified: str):
    """(name, position) of each parameter of ``node`` with a default; the
    position counts the caller's positional arguments and is None for a
    keyword-only parameter."""
    args = node.args
    positional = [*args.posonlyargs, *args.args]
    if qualified.count(".") == 2 and not any(
            isinstance(d, ast.Name) and d.id == "staticmethod"
            for d in node.decorator_list):
        positional = positional[1:]  # self or cls
    first = len(positional) - len(args.defaults)
    for i, a in enumerate(positional[first:], first):
        yield a.arg, i
    for a, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield a.arg, None


def _passes(call: ast.Call, name: str, position) -> bool:
    if any(k.arg in (name, None) for k in call.keywords):  # None: **kwargs
        return True
    if position is None:
        return False
    for i, a in enumerate(call.args):
        if isinstance(a, ast.Starred) or i == position:
            return True
    return False


def unset_parameters(package, others=()) -> list:
    """``module.function(parameter)`` for each defaulted parameter of the
    ``package`` definitions that no call in the ``package`` or ``others``
    files passes, the allowed ones included."""
    package = _parse(package)
    calls = {}
    for tree in [*package.values(), *_parse(others).values()]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                callee = getattr(node.func, "id", getattr(node.func, "attr", None))
                calls.setdefault(callee, []).append(node)
    return sorted(f"{q}({name})" for p, tree in package.items()
                  for q, node in _definitions(tree, p.stem)
                  for name, position in _defaulted(node, q)
                  if not any(_passes(c, name, position)
                             for c in calls.get(node.name, ())))


def test_only_the_allowed_definitions_are_unreached():
    # and every allowed one still is, so the list cannot go stale
    assert unreached(sorted(PACKAGE.glob("*.py")),
                     _benchmark_sources()) == sorted(ALLOWED)


def test_only_the_allowed_parameters_are_unset():
    # and every allowed one still is, so the list cannot go stale
    assert unset_parameters(sorted(PACKAGE.glob("*.py")),
                            _benchmark_sources()) == sorted(ALLOWED_PARAMETERS)


def test_a_definition_only_tests_call_is_caught(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text("class A:\n    def kept(self):\n        pass\n\n"
                      "    def dropped(self):\n        pass\n\n\n"
                      "def run():\n    A().kept()\n\n\n"
                      "def only_a_test_calls_this():\n    pass\n\n\nrun()\n")
    assert unreached([module]) == ["mod.A.dropped", "mod.only_a_test_calls_this"]


def test_a_parameter_only_tests_set_is_caught(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "class A:\n"
        "    def m(self, a, b=1, c=2, *, d=3, e=4):\n        pass\n\n"
        "    @staticmethod\n"
        "    def s(a=1, b=2):\n        pass\n\n\n"
        "def f(a, b=1, c=2, *, d=3):\n    pass\n\n\n"
        "def g(a=1, b=2):\n    pass\n\n\n"
        "def h(a=1, *, b=2):\n    pass\n\n\n"
        "def never_called(a=1):\n    pass\n\n\n"
        "def run(*args, **kwargs):\n"
        "    A().m(0, 1, e=5)\n"
        "    A.s(1)\n"
        "    f(0, d=4)\n"
        "    g(*args)\n"
        "    h(**kwargs)\n")
    assert unset_parameters([module]) == [
        "mod.A.m(c)", "mod.A.m(d)", "mod.A.s(b)", "mod.f(b)", "mod.f(c)",
        "mod.never_called(a)"]
