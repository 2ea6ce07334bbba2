"""Golden snapshots of the CLI reports on the built-in workspaces.

Every case's JSON report (without --timings) must match its file under
``tests/golden/`` byte for byte: verdicts, certificates (epsilon, direction,
subset), witness weights and chamber labels. After a deliberate change to a
report, re-record with ``PYTHONPATH=src python -m tests.test_golden_cli``.
"""

from pathlib import Path

from .conftest import run_cli

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "validate-p1": ["validate", "-w", "p1"],
    "validate-p2": ["validate", "-w", "p2"],
    "validate-p1xp1": ["validate", "-w", "p1xp1"],
    "validate-totaro-x": ["validate", "-w", "totaro-x"],
    "classify-totaro-L": ["classify", "-w", "totaro-x", "-d", "L"],
    "classify-totaro-minus-H": ["classify", "-w", "totaro-x", "-d", "-H"],
    "classify-p1xp1-F1-F2": ["classify", "-w", "p1xp1", "-d", "F1-F2"],
    "cohomology-p2-minus-4H": ["cohomology", "-w", "p2", "--divisor=-4H", "--weights"],
    "cohomology-totaro-L": ["cohomology", "-w", "totaro-x", "-d", "L", "--weights"],
    "cohomology-totaro-minus-L": ["cohomology", "-w", "totaro-x", "--divisor=-L", "--weights"],
    "cohomology-p1xp1": ["cohomology", "-w", "p1xp1", "--divisor=-2F1+3F2", "--weights"],
    "qample-q0-totaro-L": ["qample", "-w", "totaro-x", "-d", "L", "--q", "0", "--mode", "both"],
    "qample-q0-p1xp1": ["qample", "-w", "p1xp1", "-d", "F1-F2", "--q", "0", "--mode", "both"],
    "qample-q0-p2": ["qample", "-w", "p2", "--divisor=-H", "--q", "0", "--mode", "both"],
    "qample-q1-totaro-L": ["qample", "-w", "totaro-x", "-d", "L", "--q", "1", "--mode", "both"],
    "qample-q1-totaro-a": [
        "qample", "-w", "totaro-x", "--divisor=-2F1+3F2+F3+2F5-3F6", "--q", "1", "--mode", "both",
    ],
    "qample-q1-totaro-b": [
        "qample", "-w", "totaro-x", "--divisor=-2F1+F2+F3-2F4-F5+F6", "--q", "1", "--mode", "both",
    ],
    "qample-q2-totaro-L": ["qample", "-w", "totaro-x", "-d", "L", "--q", "2", "--mode", "both"],
    "qample-q2-totaro-a": [
        "qample", "-w", "totaro-x", "--divisor=-2F1-F3+F4-F5-2F6", "--q", "2", "--mode", "both",
    ],
    "qample-q2-totaro-minus-H": [
        "qample", "-w", "totaro-x", "--divisor=-H", "--q", "2", "--mode", "both",
    ],
    "qample-scan-q1-totaro-L": ["qample", "-w", "totaro-x", "-d", "L", "--q", "1", "--mode", "scan"],
    "qample-scan-q2-totaro-L": ["qample", "-w", "totaro-x", "-d", "L", "--q", "2", "--mode", "scan"],
    "qnef-q0-totaro-L": ["qnef", "-w", "totaro-x", "-d", "L", "--q", "0"],
    "qnef-q1-totaro-L": ["qnef", "-w", "totaro-x", "-d", "L", "--q", "1"],
    "qnef-q1-totaro-minus-H": ["qnef", "-w", "totaro-x", "--divisor=-H", "--q", "1"],
    "baselocus-stable-totaro-L": ["baselocus", "-w", "totaro-x", "-d", "L", "--kind", "stable"],
    "baselocus-stable-totaro-F1+F2": [
        "baselocus", "-w", "totaro-x", "-d", "F1+F2", "--kind", "stable",
    ],
    "baselocus-augmented-totaro-L": [
        "baselocus", "-w", "totaro-x", "-d", "L", "--kind", "augmented",
    ],
    "baselocus-augmented-totaro-F1+F2": [
        "baselocus", "-w", "totaro-x", "-d", "F1+F2", "--kind", "augmented",
    ],
    "baselocus-augmented-totaro-H": [
        "baselocus", "-w", "totaro-x", "-d", "H", "--kind", "augmented",
    ],
    "baselocus-bs-totaro-F1+F2": ["baselocus", "-w", "totaro-x", "-d", "F1+F2", "--kind", "bs"],
    "restrict-totaro-L-f1": ["restrict", "-w", "totaro-x", "-d", "L", "-c", "f1"],
    "restrict-totaro-L-f1f3": ["restrict", "-w", "totaro-x", "-d", "L", "-c", "f1,f3"],
    "restrict-totaro-minus-H-f3f4": ["restrict", "-w", "totaro-x", "--divisor=-H", "-c", "f3,f4"],
    "connectivity-totaro-F1+F2": ["connectivity", "-w", "totaro-x", "-d", "F1+F2"],
    "connectivity-totaro-F3+F4": ["connectivity", "-w", "totaro-x", "-d", "F3+F4"],
    "chambers-totaro-H-L": [
        "chambers", "-w", "totaro-x", "--dir1", "H", "--dir2", "L", "--resolution", "2",
    ],
    "chambers-p1xp1": ["chambers", "-w", "p1xp1", "--dir1", "F1", "--dir2", "F2", "--resolution", "2"],
    "replicate-paper": ["replicate-paper"],
}


def _run(argv):
    result = run_cli(*argv)
    assert result.exit_code == 0, (argv, result.output)
    return result.output


def test_cli_reports_match_golden_snapshots():
    mismatched = [
        name
        for name, argv in CASES.items()
        if _run(argv) != (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
    ]
    assert not mismatched, f"reports differ from tests/golden/: {mismatched}"


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        (GOLDEN / f"{name}.json").write_text(_run(argv), encoding="utf-8")
