import json

import pytest
from click.testing import CliRunner

from toricpos import (
    ModeDisagreement,
    NoStabilizationDetected,
    UnboundedRegion,
    WorkspaceError,
    load_workspace,
    parse_workspace,
    serialize_workspace,
)
from toricpos.cli import main
from toricpos.workspace import BUILTIN_WORKSPACES


def test_builtin_workspaces_load():
    for name in ("p1", "p2", "p1xp1", "totaro-x"):
        ws = load_workspace(name)
        assert ws.fan.properties.complete
        assert "H" in ws.divisors


def test_totaro_workspace_contents():
    ws = load_workspace("totaro-x")
    assert len(ws.fan.rays) == 6
    assert len(ws.fan.max_cones) == 8
    assert set(ws.divisors) == {"F1", "F2", "F3", "F4", "F5", "F6", "H", "L"}
    assert ws.divisors["L"].coeffs == (3, 3, -1, -1, -1, -1)
    assert ws.sign_convention == "paper"


def test_roundtrip_is_identity():
    for name in BUILTIN_WORKSPACES:
        ws = load_workspace(name)
        text = serialize_workspace(ws)
        again = parse_workspace(text)
        assert serialize_workspace(again) == text


def test_parse_reuses_a_known_fan_only_when_the_fan_block_matches():
    ws = load_workspace("totaro-x")
    text = serialize_workspace(ws)
    assert parse_workspace(text, known_fan=ws.fan).fan is ws.fan
    data = json.loads(text)
    data["name"] = "renamed"
    again = parse_workspace(json.dumps(data), known_fan=ws.fan)
    assert again.fan is not ws.fan and again.fan.name == "renamed"
    data = json.loads(text)
    data["fan"]["max_cones"][3] = [0, 3, 5]
    with pytest.raises(WorkspaceError, match="not simplicial"):
        parse_workspace(json.dumps(data), known_fan=ws.fan)


def test_divisor_vector_length_mismatch_rejected():
    data = json.loads(serialize_workspace(load_workspace("totaro-x")))
    data["divisors"]["bad"] = [1, 2, 3, 4, 5]
    with pytest.raises(WorkspaceError, match="6 coefficients"):
        parse_workspace(json.dumps(data))


def test_unknown_fields_rejected():
    data = json.loads(serialize_workspace(load_workspace("p1")))
    data["surprise"] = 1
    with pytest.raises(WorkspaceError, match="unknown field"):
        parse_workspace(json.dumps(data))
    data = json.loads(serialize_workspace(load_workspace("p1")))
    data["fan"]["extra"] = []
    with pytest.raises(WorkspaceError, match="unknown field"):
        parse_workspace(json.dumps(data))


def test_degenerate_fan_rejected_with_reason():
    data = json.loads(serialize_workspace(load_workspace("totaro-x")))
    data["fan"]["max_cones"][3] = [0, 3, 5]  # the degenerate printed triple
    with pytest.raises(WorkspaceError, match="not simplicial"):
        parse_workspace(json.dumps(data))


def test_divisor_expressions():
    ws = load_workspace("totaro-x")
    assert ws.divisor("L").coeffs == (3, 3, -1, -1, -1, -1)
    assert ws.divisor("-L").coeffs == (-3, -3, 1, 1, 1, 1)
    assert ws.divisor("F1+F2").coeffs == (1, 1, 0, 0, 0, 0)
    assert ws.divisor("2L - 3H").coeffs == (3, 3, -5, -5, -5, -5)
    assert ws.divisor("1/2H").coeffs[0].denominator == 2
    with pytest.raises(WorkspaceError, match="unknown divisor"):
        ws.divisor("Q")
    with pytest.raises(WorkspaceError):
        ws.divisor("L L")


def run_cli(*args):
    return CliRunner().invoke(main, list(args))


def test_cli_validate():
    result = run_cli("validate", "-w", "totaro-x")
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["result"]["smooth"] is True
    assert payload["result"]["picard_rank"] == 3
    assert payload["sign_convention"] == "paper"


def test_cli_cohomology_matches_serre_value():
    result = run_cli("cohomology", "-w", "p2", "--divisor=-4H")
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["result"]["dims"] == [0, 0, 3]


def test_cli_qample_certificate():
    result = run_cli("qample", "-w", "totaro-x", "-d", "L", "--q", "1")
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["result"]["verdict"] is False
    assert payload["result"]["certificate"]["subset"] == ["f3", "f4", "f5", "f6"]


def test_cli_qample_both_modes(monkeypatch):
    import toricpos.cli
    import toricpos.positivity

    decide = toricpos.positivity.decide_qample
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return decide(*args, **kwargs)

    monkeypatch.setattr(toricpos.cli, "decide_qample", counting)
    monkeypatch.setattr(toricpos.positivity, "decide_qample", counting)
    result = run_cli("qample", "-w", "totaro-x", "-d", "L", "--q", "1", "--mode", "both")
    assert result.exit_code == 0
    assert len(calls) == 1  # the verdict comes from the mode agreement check
    payload = json.loads(result.output)
    assert payload["result"]["scan"]["obstructed_pattern"] is True
    assert payload["result"]["scan"]["realized"] == [1, 1, 2]


def test_cli_connectivity():
    result = run_cli("connectivity", "-w", "totaro-x", "-d", "F1+F2")
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["result"]["applies"] is True
    assert payload["result"]["conclusion"] == "not 1-ample"


def test_cli_restrict():
    result = run_cli("restrict", "-w", "totaro-x", "-d", "L", "-c", "f1")
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["result"]["class"] == [1, -5]
    assert payload["result"]["witness_m"] == [0, 0, -3]
    assert payload["result"]["negative_restriction_big"] is False


def test_cli_qnef():
    result = run_cli("qnef", "-w", "totaro-x", "-d", "L", "--q", "1")
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["result"]["verdict"] is True
    assert payload["result"]["scope"] == "torus-invariant"


def test_cli_baselocus():
    result = run_cli("baselocus", "-w", "totaro-x", "-d", "H", "--kind", "stable")
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["result"]["empty"] is True


def test_cli_chambers_with_plot(tmp_path):
    plot = tmp_path / "chambers.svg"
    result = run_cli(
        "chambers", "-w", "totaro-x", "--dir1", "H", "--dir2", "L",
        "--resolution", "1", "--emit-plot", str(plot),
    )
    assert result.exit_code == 0
    payload = json.loads(result.output)
    samples = {tuple(s["coords"]): s for s in payload["result"]["samples"]}
    assert samples[(1, 0)]["smallest_q"] == 0
    assert samples[(0, 1)]["smallest_q"] == 2
    assert samples[(-1, 0)]["smallest_q"] == 3
    assert samples[(0, 1)]["pseudoeffective"] is False
    assert plot.exists() and plot.read_text().startswith("<svg")


def test_cli_reports_are_byte_stable():
    first = run_cli("classify", "-w", "totaro-x", "-d", "L")
    second = run_cli("classify", "-w", "totaro-x", "-d", "L")
    assert first.output == second.output


def test_cli_timings_flag_is_marked_unstable():
    result = run_cli("classify", "-w", "totaro-x", "-d", "L", "--timings")
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["timings"]["byte_stable"] is False
    assert payload["timings"]["wall_seconds"] >= 0


def test_cli_input_error_exit_code(tmp_path):
    result = run_cli("validate", "-w", "no-such-workspace")
    assert result.exit_code == 2
    result = run_cli("cohomology", "-w", "totaro-x", "-d", "UNKNOWN")
    assert result.exit_code == 2
    unused_ray = tmp_path / "unused-ray.json"
    data = json.loads(serialize_workspace(load_workspace("p2")))
    data["fan"]["rays"].append([1, 1])
    data["divisors"] = {"H": [1, 0, 0, 0], "G": [0, 0, 0, 1]}
    unused_ray.write_text(json.dumps(data))
    not_utf8 = tmp_path / "not-utf8.json"
    not_utf8.write_bytes(b"\xff\xfe{")
    no_dir_plot = tmp_path / "missing" / "plot.svg"
    point = tmp_path / "point.json"
    data["fan"] = {"lattice_rank": 0, "rays": [], "max_cones": [[]], "complete": True}
    data["divisors"] = {"Z": []}
    point.write_text(json.dumps(data))
    named = {
        "restrict": ["f3", "f5"],
        "replicate-paper": ["unknown divisor 'L'"],
        str(unused_ray): ["lies in no maximal cone"],
        str(not_utf8): [str(not_utf8), "UTF-8"],
        str(no_dir_plot): [str(no_dir_plot)],
        str(point): ["rank >= 1"],
    }
    for args in (
        ("qnef", "-w", "p2", "-d", "H", "--q", "5"),
        ("qnef", "-w", "p2", "-d", "H", "--q", "-1"),
        ("qample", "-w", "p2", "-d", "H", "--q", "-1"),
        ("qample", "-w", "p2", "-d", "H", "--q", "-1", "--mode", "scan"),
        ("restrict", "-w", "totaro-x", "-d", "L", "-c", "f3,f5"),
        ("replicate-paper", "-w", "p2"),
        ("qample", "-w", "p2", "-d", "H", "--q", "0", "--mode", "both", "--scan-max-n", "0"),
        ("qample", "-w", "p2", "-d", "H", "--q", "0", "--mode", "scan", "--scan-twists", "0"),
        ("chambers", "-w", "p2", "--dir1", "H", "--dir2", "H", "--resolution", "-1"),
        ("validate", "-w", str(unused_ray)),
        ("qample", "-w", str(unused_ray), "-d", "H", "--q", "0"),
        ("validate", "-w", str(not_utf8)),
        ("chambers", "-w", "p2", "--dir1", "H", "--dir2", "F2", "--resolution", "0",
         "--emit-plot", str(no_dir_plot)),
        ("cohomology", "-w", str(point), "-d", "Z"),
        ("qample", "-w", str(point), "-d", "Z", "--q", "0"),
    ):
        result = run_cli(*args)
        assert result.exit_code == 2, (args, result.output)
        error = json.loads(result.output)["error"]
        assert error["kind"] == "input"
        parts = [part for arg in args for part in named.get(arg, ())]
        assert all(part in error["message"] for part in parts), error


def test_cli_chambers_rejects_a_bad_plot_path_before_the_scan(monkeypatch, tmp_path):
    import toricpos.cli

    def no_scan(*args, **kwargs):
        raise AssertionError("the scan ran before the plot path was checked")

    monkeypatch.setattr(toricpos.cli, "chamber_scan", no_scan)
    plot = tmp_path / "missing" / "plot.svg"
    result = run_cli("chambers", "-w", "p2", "--dir1", "H", "--dir2", "F2", "--emit-plot", str(plot))
    assert result.exit_code == 2, result.output
    error = json.loads(result.output)["error"]
    assert error["kind"] == "input" and str(plot) in error["message"], error


def test_cli_replicate_paper_mismatch_exits_1_after_the_report(monkeypatch):
    import toricpos.cli

    monkeypatch.setattr(toricpos.cli, "picard_rank", lambda fan: 4)
    result = run_cli("replicate-paper")
    assert result.exit_code == 1
    payload = json.loads(result.output)
    assert payload["result"]["all_pass"] is False
    failed = [c["name"] for c in payload["result"]["checks"] if not c["pass"]]
    assert failed == ["picard rank"]


def test_cli_replicate_paper_never_builds_cone_flags(monkeypatch):
    import toricpos.cli

    def unused(divisor):
        raise AssertionError("replicate-paper needs single flags, not ConeFlags")

    monkeypatch.setattr(toricpos.cli, "classify_cones", unused)
    result = run_cli("replicate-paper")
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["result"]["all_pass"] is True


@pytest.mark.parametrize("error", [ModeDisagreement, UnboundedRegion])
def test_cli_internal_errors_exit_3(monkeypatch, error):
    import toricpos.cli

    def broken(divisor):
        raise error("forced")

    monkeypatch.setattr(toricpos.cli, "classify_cones", broken)
    result = run_cli("classify", "-w", "totaro-x", "-d", "L")
    assert result.exit_code == 3
    assert json.loads(result.output)["error"] == {"kind": "internal-consistency", "message": "forced"}


def test_cli_mode_disagreement_prints_report_coefficients():
    result = run_cli(
        "qample", "-w", "totaro-x", "-d", "3F1+3F2-3F3+2F4+F5+F6", "--q", "1", "--mode", "both"
    )
    assert result.exit_code == 3
    error = json.loads(result.output)["error"]
    assert error["kind"] == "internal-consistency"
    assert "[3, 3, -3, 2, 1, 1]" in error["message"]
    assert "Fraction" not in error["message"]


def test_cli_no_stabilization_names_the_horizon(monkeypatch):
    import toricpos.cli

    def unstable(divisor, horizon):
        raise NoStabilizationDetected(horizon, [(1, ((0,),))])

    monkeypatch.setattr(toricpos.cli, "stable_base_locus", unstable)
    result = run_cli("baselocus", "-w", "totaro-x", "-d", "L", "--kind", "stable", "--horizon", "2")
    assert result.exit_code == 2
    assert json.loads(result.output)["error"] == {
        "kind": "input",
        "message": "no stabilization within horizon 2; partial chain [(1, ((0,),))] (raise --horizon)",
    }


def test_cli_validate_roundtrip_goes_through_the_parser(monkeypatch):
    import toricpos.cli

    assert json.loads(run_cli("validate", "-w", "p2").output)["result"]["roundtrip"] is True

    def lossy_parse(text, **kwargs):
        data = json.loads(text)
        data["divisors"].pop("H")
        return parse_workspace(json.dumps(data), **kwargs)

    monkeypatch.setattr(toricpos.cli, "parse_workspace", lossy_parse)
    result = run_cli("validate", "-w", "p2")
    assert result.exit_code == 0
    assert json.loads(result.output)["result"]["roundtrip"] is False


def test_cli_validate_builds_the_fan_once(monkeypatch):
    import toricpos.fan

    builds = []
    check = toricpos.fan._check_structure

    def counting_check(fan):
        builds.append(fan)
        check(fan)

    monkeypatch.setattr(toricpos.fan, "_check_structure", counting_check)
    result = run_cli("validate", "-w", "totaro-x")
    assert json.loads(result.output)["result"]["roundtrip"] is True
    assert len(builds) == 1


def test_cli_replicate_paper_passes_within_a_minute():
    import time

    start = time.monotonic()
    result = run_cli("replicate-paper")
    elapsed = time.monotonic() - start
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["result"]["all_pass"] is True
    assert len(payload["result"]["checks"]) >= 20
    assert elapsed < 60
