"""Checks on the source tree: the pcring names the benchmark reaches into,
imports that no code in ``src/pcring`` uses, the one module that picks a
product's dtype, and the snippets of the seeded faults."""

import ast
import importlib.util
import json
from pathlib import Path

import pytest

import pcring
import pcring.cli

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
MODULES = sorted((ROOT / "src" / "pcring").glob("*.py"))
NOT_LINALG = [p for p in MODULES if p.name != "linalg.py"]


def load_tracing():
    # Executed from its file and never installed, so nothing is patched.
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def dotted(node: ast.expr) -> tuple[str, ...] | None:
    if isinstance(node, ast.Name):
        return (node.id,)
    if isinstance(node, ast.Attribute):
        owner = dotted(node.value)
        return None if owner is None else owner + (node.attr,)
    return None


class TestBenchmarkNames:
    def test_traced_names_resolve(self):
        tracing = load_tracing()
        for span, (module, attr) in tracing.MODULE_FUNCTIONS.items():
            assert callable(getattr(getattr(pcring, module), attr, None)), span
        for span, (module, cls, attr) in tracing.METHODS.items():
            owner = getattr(getattr(pcring, module), cls)
            assert callable(getattr(owner, attr, None)), span

    def test_runner_names_resolve(self):
        tree = ast.parse((PERFBENCH / "run.py").read_text(encoding="utf-8"))
        # The in-process pass reads pcring.cli as `cli`; the CLI command is a
        # program text that imports from pcring.cli.
        cli_names = {node.attr for node in ast.walk(tree)
                     if isinstance(node, ast.Attribute) and dotted(node.value) == ("cli",)}
        instance_names = {node.attr for node in ast.walk(tree)
                          if isinstance(node, ast.Attribute)
                          and dotted(node.value) == ("pcring", "instances")}
        command = next(node.value.value for node in tree.body
                       if isinstance(node, ast.Assign) and dotted(node.targets[0]) == ("CLI",))
        for node in ast.walk(ast.parse(command)):
            if isinstance(node, ast.ImportFrom) and node.module == "pcring.cli":
                cli_names |= {alias.name for alias in node.names}
        assert {"AnalysisRequest", "main", "parse_input", "run"} <= cli_names
        assert "uq_sl2" in instance_names
        for name in cli_names:
            assert hasattr(pcring.cli, name), f"cli.{name}"
        for name in instance_names:
            assert hasattr(pcring.instances, name), f"instances.{name}"


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads; names in ``__all__`` count
    as read."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and dotted(node.targets[0]) == ("__all__",):
            used |= set(ast.literal_eval(node.value))
    return sorted(imported - used)


class TestImports:
    def test_checker_finds_an_unused_import(self):
        source = ("from __future__ import annotations\nimport math\n"
                  "from dataclasses import dataclass, field\nfrom os import sep\n"
                  "__all__ = ['sep']\nx = math.pi\n")
        assert unused_imports(source) == ["dataclass", "field"]

    @pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
    def test_no_unused_imports(self, path):
        assert unused_imports(path.read_text(encoding="utf-8")) == []


def references(source: str, name: str) -> bool:
    """Whether code (not a string) in source names ``name``: as a name, an
    attribute or an import."""
    return any(isinstance(node, ast.Name) and node.id == name
               or isinstance(node, ast.Attribute) and node.attr == name
               or isinstance(node, ast.alias) and name in (node.name, node.asname)
               for node in ast.walk(ast.parse(source)))


class TestExactProducts:
    def test_checker_finds_a_reference(self):
        assert references("from .linalg import exact_dtype as pick\n", "exact_dtype")
        assert references("x = linalg.exact_dtype(1, 2, 3)\n", "exact_dtype")
        assert not references('"""linalg.exact_dtype picks it."""\n', "exact_dtype")

    @pytest.mark.parametrize("path", NOT_LINALG, ids=[p.name for p in NOT_LINALG])
    def test_only_linalg_picks_a_product_dtype(self, path):
        # Every integer product goes through linalg.exact_matmul, which
        # alone chooses its tier.
        assert not references(path.read_text(encoding="utf-8"), "exact_dtype")

    @pytest.mark.parametrize("path", NOT_LINALG, ids=[p.name for p in NOT_LINALG])
    def test_only_linalg_bounds_an_integer_tier(self, path):
        # Bounds on integer magnitudes pick a tier; only linalg takes them.
        assert not references(path.read_text(encoding="utf-8"), "max_abs")


SEEDED_FAULTS = json.loads((ROOT / ".github" / "scripts" / "seeded_faults.json")
                           .read_text(encoding="utf-8"))


@pytest.mark.parametrize("fault", SEEDED_FAULTS, ids=[f["fault"] for f in SEEDED_FAULTS])
def test_seeded_fault_applies_to_todays_source(fault):
    # ``.github/scripts/seeded_faults.py`` replaces the snippet in a copy of
    # src and tests and runs the named tests there; a change to the snippet
    # updates its entry.
    assert fault["file"].split("/")[0] in ("src", "tests")
    assert (ROOT / fault["file"]).read_text(encoding="utf-8").count(fault["snippet"]) == 1
    assert fault["replacement"] != fault["snippet"]
    for test in fault["tests"]:
        # A parametrized id names its function before the "[".
        path, *names = test.partition("[")[0].split("::")
        assert names and f"def {names[-1]}(" in (ROOT / path).read_text(encoding="utf-8"), test
