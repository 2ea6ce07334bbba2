"""scripts/bench_pair.py reports a failed benchmark run instead of hiding it."""

import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pair.py"


def test_a_failed_run_prints_its_argv_and_stderr_tail(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location("bench_pair", SCRIPT)
    bench_pair = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pair)
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(
        "import sys\n"
        "for i in range(30):\n"
        "    print(f'line {i}', file=sys.stderr)\n"
        "sys.exit(3)\n",
        encoding="utf-8",
    )
    with pytest.raises(SystemExit) as exc:
        bench_pair.run_once(str(tmp_path), "scan-oracle", 71, 1.0, 0)
    message = str(exc.value.code)
    assert message.startswith(f"error: exit 3 from {sys.executable} ")
    assert "--workload scan-oracle --seed 71" in message
    lines = message.splitlines()[1:]
    assert lines == [f"line {i}" for i in range(10, 30)]
    assert capsys.readouterr().out == ""
