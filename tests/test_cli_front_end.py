"""The command line's token rules and process contract.

These pin how ``toricpos.cli.main`` reads its arguments, what it exits
with, and that the benchmark's child entry runs it as a fresh process.
"""

import json
import os
import subprocess
import sys

import pytest

from toricpos import __version__
from toricpos.cli import main

from .conftest import run_cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ENTRY = os.path.join(ROOT, "perfbench", "cli_entry.py")

CHAMBERS = ("chambers", "-w", "totaro-x", "--dir2", "H", "--resolution", "1")


@pytest.mark.parametrize(
    "argv, joined",
    [
        (("classify", "-w", "totaro-x", "-d", "-H"), ("classify", "-w", "totaro-x", "--divisor=-H")),
        (("classify", "-w", "totaro-x", "--divisor", "-H"),
         ("classify", "-w", "totaro-x", "--divisor=-H")),
        (("classify", "-w", "totaro-x", "-d", "-2H+F1"),
         ("classify", "-w", "totaro-x", "--divisor=-2H+F1")),
        ((*CHAMBERS, "--dir1", "-L"), (*CHAMBERS, "--dir1=-L")),
    ],
)
def test_a_value_option_takes_the_next_token_verbatim(argv, joined):
    result = run_cli(*argv)
    assert result.exit_code == 0, result.output
    assert result.output == run_cli(*joined).output


def test_a_negative_q_reaches_the_library():
    result = run_cli("qnef", "-w", "p2", "-d", "H", "--q", "-1")
    assert result.exit_code == 2
    assert json.loads(result.output)["error"]["kind"] == "input"


def test_version():
    assert run_cli("--version") == (0, f"toricpos, version {__version__}\n")


def test_main_reads_sys_argv_without_arguments(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["toricpos", "--version"])
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 0
    assert capsys.readouterr().out == f"toricpos, version {__version__}\n"


@pytest.mark.parametrize(
    "argv",
    [
        (),
        ("frobnicate",),
        ("classify", "-w", "p2"),
        ("qnef", "-w", "p2", "-d", "H", "--q", "x"),
        ("qample", "-w", "p2", "-d", "H", "--q", "0", "--mode", "bogus"),
        ("baselocus", "-w", "p2", "-d", "H", "--kind", "bogus"),
        ("chambers", "-w", "p2", "--dir1", "H", "--dir2", "F2", "--res", "2"),
        ("classify", "-w", "p2", "-d"),
        ("classify", "-w", "p2", "-d", "H", "-h"),
    ],
    ids=["no-command", "unknown-command", "missing-divisor", "q-not-int", "bad-mode",
         "bad-kind", "abbreviated-option", "missing-value", "no-short-help"],
)
def test_usage_errors_exit_2_without_a_traceback(argv, capsys):
    # an exception other than SystemExit would escape run_cli
    result = run_cli(*argv)
    assert result.exit_code == 2
    assert result.output == ""
    assert "Traceback" not in capsys.readouterr().err


def _entry(*argv):
    return subprocess.run([sys.executable, ENTRY, *argv], capture_output=True, text=True,
                          cwd=ROOT, timeout=60)


def test_the_bench_child_entry_keeps_every_exit_code():
    ok = _entry("classify", "-w", "p2", "-d", "H")
    assert ok.returncode == 0, ok.stderr
    assert json.loads(ok.stdout)["result"]["ample"] is True
    assert _entry("qnef", "-w", "p2", "-d", "H", "--q", "5").returncode == 2
    # ROADMAP item 1's live false consistency failure
    live = _entry("qample", "-w", "totaro-x", "-d", "3F1+3F2-3F3+2F4+F5+F6", "--q", "1",
                  "--mode", "both")
    assert live.returncode == 3, live.stdout
    assert json.loads(live.stdout)["error"]["kind"] == "internal-consistency"


# a 168 KB report: more than a pipe and the reader's buffer hold, so the
# process is still writing when a reader that took one line leaves
LARGE_REPORT = ("chambers", "-w", "p1xp1", "--dir1", "F1", "--dir2", "F2", "--resolution", "16")


def _closed_pipe_run(argv, lines):
    """(exit code, stderr) of the entry on argv, its stdout a pipe whose
    reader takes ``lines`` lines and closes."""
    child = subprocess.Popen([sys.executable, ENTRY, *argv], stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, text=True, cwd=ROOT)
    for _ in range(lines):
        assert child.stdout.readline() == "{\n"
    child.stdout.close()
    err = child.stderr.read()
    return child.wait(timeout=60), err


def test_a_closed_pipe_ends_the_run_quietly_with_its_exit_code():
    # the report, and an input error (exit 2) whose reader left before it
    for argv, lines, code in ((LARGE_REPORT, 1, 0), (("qnef", "-w", "p2", "-d", "H", "--q", "5"), 0, 2)):
        assert _closed_pipe_run(argv, lines) == (code, ""), argv


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
def test_a_failed_report_write_exits_2_with_one_line_on_stderr():
    for argv in (LARGE_REPORT, ("validate", "-w", "p2"), ("qnef", "-w", "p2", "-d", "H", "--q", "5"),
                 ("--help",)):
        with open("/dev/full", "w") as full:
            out = subprocess.run([sys.executable, ENTRY, *argv], stdout=full, stderr=subprocess.PIPE,
                                 text=True, cwd=ROOT, timeout=60)
        assert out.returncode == 2, argv
        assert out.stderr.startswith("error: cannot write to stdout: ") and \
            out.stderr.count("\n") == 1, out.stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
def test_an_unwritable_stderr_keeps_exit_code_2():
    # a failed report write, and a usage error, whose stderr line cannot be
    # written either
    for argv, stdout in ((("validate", "-w", "p2"), "/dev/full"), (("nosuch",), os.devnull)):
        with open(stdout, "w") as out, open("/dev/full", "w") as full:
            code = subprocess.run([sys.executable, ENTRY, *argv], stdout=out, stderr=full, cwd=ROOT,
                                  timeout=60).returncode
        assert code == 2, argv


def test_a_report_that_reaches_stdout_is_the_golden_one():
    out = _entry("validate", "-w", "p2")
    golden = os.path.join(ROOT, "tests", "golden", "validate-p2.json")
    with open(golden, encoding="utf-8") as fh:
        assert (out.returncode, out.stderr, out.stdout) == (0, "", fh.read())


def test_the_cli_imports_no_click():
    code = "import sys, toricpos.cli; print('click' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
                         env={**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")})
    assert out.stdout.strip() == "False", out.stderr


def test_the_cli_import_defines_only_the_gate_records_as_dataclasses():
    # every CLI command is a fresh process that pays for each dataclass it
    # decorates; only the records perfbench/gate_check.py rewrites with
    # dataclasses.replace stay dataclasses
    code = (
        "import dataclasses, sys, toricpos.cli\n"
        "print(sorted(v.__name__ for m, mod in list(sys.modules.items())\n"
        "             if m.split('.')[0] == 'toricpos' for v in vars(mod).values()\n"
        "             if isinstance(v, type) and v.__module__ == m and dataclasses.is_dataclass(v)))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
                         env={**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")})
    assert out.stdout.strip() == "['CohomologyTable', 'QAmpleResult', 'ScanResult']", out.stderr
