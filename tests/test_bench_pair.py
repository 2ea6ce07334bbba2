"""scripts/bench_pair.py reports a failed benchmark run instead of hiding it,
and applies the gain and no-regression rules to the runs it made."""

import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pair.py"


@pytest.fixture(scope="module")
def bench_pair():
    spec = importlib.util.spec_from_file_location("bench_pair", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_failed_run_prints_its_argv_and_stderr_tail(bench_pair, tmp_path, capsys):
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


BASE = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.1]  # quartiles 9.925, 10.1


@pytest.mark.parametrize("direction", ["higher", "lower"])
def test_gain_rule_needs_nine_wins_and_a_median_gap_above_the_base_spread(bench_pair, direction):
    sign = 1 if direction == "higher" else -1
    clear = [b + sign * 1.0 for b in BASE]
    result = bench_pair.compare(BASE, clear, direction, 0.25)
    assert result["change_wins"] == "10/10" and result["gain_rule"] and result["within_bound"]
    # nine wins still count; eight do not
    nine = [*clear[:9], BASE[9]]  # a tie wins for neither side
    assert bench_pair.compare(BASE, nine, direction, 0.25)["gain_rule"]
    eight = [*clear[:8], BASE[8] - sign, BASE[9]]
    assert bench_pair.compare(BASE, eight, direction, 0.25)["change_wins"] == "8/10"
    assert not bench_pair.compare(BASE, eight, direction, 0.25)["gain_rule"]
    # every pair won, but by less than the base's quartile spread of 0.175
    slight = [b + sign * 0.1 for b in BASE]
    result = bench_pair.compare(BASE, slight, direction, 0.25)
    assert result["change_wins"] == "10/10" and not result["gain_rule"]


@pytest.mark.parametrize("direction", ["higher", "lower"])
def test_within_bound_reads_the_change_median_against_the_metric_bound(bench_pair, direction):
    sign = 1 if direction == "higher" else -1
    # the base median is 10.0: a bound of 0.25 allows the change 2.5 worse
    near = [b - sign * 2.4 for b in BASE]
    far = [b - sign * 2.6 for b in BASE]
    assert bench_pair.compare(BASE, near, direction, 0.25)["within_bound"]
    result = bench_pair.compare(BASE, far, direction, 0.25)
    assert not result["within_bound"] and not result["gain_rule"]
    assert bench_pair.compare(BASE, far, direction, 0.3)["within_bound"]
