"""The benchmark under perfbench/ reaches into the library by name: the
tracer rebinds (module, attribute) targets, a method in its class's own
``__dict__``, the workloads call ``toricpos.<name>``, and the gate check
rewrites result records with ``dataclasses.replace``. A rename, a deletion,
a method moved to a base class or a change of record type in the library
must fail here, not first when the benchmark runs."""

import ast
import dataclasses
import importlib
import importlib.util
from pathlib import Path

import toricpos

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_tracer_targets_resolve():
    tracer = _tracer_module()
    assert tracer.TARGETS
    for module_name, attr in tracer.TARGETS:
        module = importlib.import_module(module_name)
        if "." in attr:  # Tracer.install reads a method from cls.__dict__
            cls_name, meth = attr.split(".")
            target = vars(getattr(module, cls_name)).get(meth)
        else:
            target = getattr(module, attr, None)
        assert callable(target), (module_name, attr)


def test_the_tracer_records_one_span_per_fan_build(p2):
    tracer = _tracer_module()
    post_init = vars(toricpos.Fan)["__post_init__"]
    recorder = tracer.Tracer()
    recorder.install()
    try:
        toricpos.Fan(p2.rank, p2.rays, p2.max_cones)
    finally:
        recorder.uninstall()
    assert [span[0] for span in recorder.spans].count("fan.Fan.build") == 1
    assert vars(toricpos.Fan)["__post_init__"] is post_init


def test_gate_check_can_replace_fields_of_the_result_records(totaro, totaro_L):
    # perfbench/gate_check.py injects wrong answers with dataclasses.replace;
    # these records must stay dataclasses until that script changes
    qample = toricpos.decide_qample(totaro_L, 1)
    table = toricpos.cohomology_dims(totaro_L)
    scan = toricpos.check_mode_agreement(totaro_L, 1, multiples=(1, 2), twists=1)["scan"]
    flipped = dataclasses.replace(qample, verdict=not qample.verdict)
    assert flipped.verdict != qample.verdict and flipped.certificate == qample.certificate
    bumped = dataclasses.replace(table, dims=(table.dims[0] + 1, *table.dims[1:]))
    assert bumped.dims[0] == table.dims[0] + 1 and bumped.dims[1:] == table.dims[1:]
    swapped = dataclasses.replace(scan, obstructed=not scan.obstructed)
    assert swapped.obstructed != scan.obstructed and swapped.nonvanishing == scan.nonvanishing


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
