"""The benchmark under bench/ reaches into stabvax by name: the tracer wraps
functions listed in its tables, and the checks and the runner call module
attributes. These tests read the benchmark's source (without importing or
changing it) and check that every such name still resolves."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

from stabvax import allocator, cli

BENCH = Path(__file__).resolve().parents[1] / "bench"


def parse(name):
    return ast.parse((BENCH / name).read_text())


def table(tree, name):
    """(module, function) pairs: the first two strings of each row of a
    module-level tuple table."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return [tuple(elt.value for elt in row.elts[:2])
                    for row in node.value.elts]
    raise AssertionError(f"no table {name}")


def dotted_uses(tree):
    """Every attribute chain rooted at a stabvax module the file imports with
    `from stabvax import ...`, as (module, attribute path)."""
    modules = {alias.asname or alias.name
               for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "stabvax"
               for alias in node.names}
    uses = set()
    for node in ast.walk(tree):
        path = []
        while isinstance(node, ast.Attribute):
            path.insert(0, node.attr)
            node = node.value
        if path and isinstance(node, ast.Name) and node.id in modules:
            uses.add((node.id, tuple(path)))
    return uses


def resolve(module, path):
    obj = importlib.import_module(f"stabvax.{module}")
    for attr in path:
        obj = getattr(obj, attr)
    return obj


@pytest.mark.parametrize("name", ["PUBLIC", "RHS_FACTORIES"])
def test_traced_tables_resolve(name):
    for module, function in table(parse("tracing.py"), name):
        assert callable(resolve(module, (function,))), (module, function)


@pytest.mark.parametrize("source", sorted(p.name for p in BENCH.glob("*.py")))
def test_attributes_the_benchmark_uses_resolve(source):
    for module, path in dotted_uses(parse(source)):
        resolve(module, path)


def test_named_hooks_are_covered():
    uses = dotted_uses(parse("tracing.py")) | dotted_uses(parse("checks.py"))
    for expected in [("dynamics", ("Trajectory", "to_csv")),
                     ("policies", ("DosePlanner", "__init__")),
                     ("bubar", ("bubar_certificate",)),
                     ("bubar", ("us_like_instance",)),
                     ("model", ("check_decay_certificate",))]:
        assert expected in uses


def constant(tree, name):
    """The value of a module-level assignment of a literal."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no constant {name}")


def test_expected_policy_rows_are_the_cli_defaults():
    # the benchmark's checks fail an op whose summary.csv rows differ from
    # these names, so a renamed preset would show only as wrong outputs
    tree = parse("workloads.py")
    for name, model in (("SEIR_POLICIES", "bubar"),
                        ("COVID_POLICIES", "covid")):
        assert constant(tree, name) == tuple(
            cli._policy_specs({"model": model})[0])


def test_bisection_budget_stays_fifth_positional():
    # the tracer reads the budget of a traced bisection from args[4]
    params = list(inspect.signature(
        allocator.max_decay_binary_search).parameters)
    assert params[4] == "budget"
