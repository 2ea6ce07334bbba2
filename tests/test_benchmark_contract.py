"""The benchmark under perfbench/ reaches into the library by name: the
tracer rebinds (module, attribute) targets and the workloads call
``toricpos.<name>``. A rename or deletion in the library must fail here,
not first when the benchmark runs."""

import ast
import importlib
import importlib.util
from pathlib import Path

import toricpos

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_targets_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    for module_name, attr in tracer.TARGETS:
        obj = importlib.import_module(module_name)
        for part in attr.split("."):
            assert hasattr(obj, part), (module_name, attr)
            obj = getattr(obj, part)
        assert callable(obj), (module_name, attr)


def test_workload_library_names_exist():
    tree = ast.parse((PERFBENCH / "workloads.py").read_text(encoding="utf-8"))
    used = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "toricpos"
    }
    assert used
    missing = sorted(name for name in used if not hasattr(toricpos, name))
    assert not missing, missing
