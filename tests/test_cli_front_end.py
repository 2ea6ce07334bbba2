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


def test_the_cli_imports_no_click():
    code = "import sys, toricpos.cli; print('click' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
                         env={**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")})
    assert out.stdout.strip() == "False", out.stderr
