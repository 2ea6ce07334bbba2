"""scripts/scale_bench.py times ``Fan(...)``, ``bad_subsets`` and four exact
base loci on P1^k and a seeded GL(k,Z) image of it, and ``Fan(...)`` on both
less a cone, and reads the share of gapless bad-subset plans."""

import importlib.util
import json
import random
from pathlib import Path

from .oracles import reference_det

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "scale_bench.py"


def load_script():
    spec = importlib.util.spec_from_file_location("scale_bench", SCRIPT)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


def test_scale_bench_images_are_in_gl_k_z():
    bench = load_script()
    rng = random.Random(bench.SEED)
    for k in range(2, 7):
        for _ in range(50):
            matrix = bench.unimodular(rng, k)
            assert abs(reference_det(matrix)) == 1, matrix


def test_scale_bench_times_p1_cubed_and_its_image(capsys):
    bench = load_script()
    report = bench.main(["--k", "3"])
    assert json.loads(capsys.readouterr().out) == report
    assert [row["fan"] for row in report["rows"]] == \
        ["P1^3", "GL.P1^3", "P1^3 less a cone", "GL.P1^3 less a cone"]
    complete, not_complete = report["rows"][:2], report["rows"][2:]
    # in standard coordinates every bad-subset plan is gapless
    assert complete[0]["gapless_share"] == 1, complete[0]
    for row in complete:
        # P1^3's subset index: the empty set, and {e_i, -e_i} in each factor
        # with every union of them
        assert (row["rays"], row["max_cones"], row["bad_subsets"]) == (6, 8, 8), row
        assert 0 <= row["gapless_share"] <= 1, row
        # -K is ample: B and B+ are empty; the first prime divisor is nef
        # but not big: B is empty and B+ is everything, the cone ()
        assert row["loci"] == [[], [], [], [[]]], row
        assert row["fan_s"] > 0 and row["bad_subsets_s"] > 0, row
        assert row["loci_cold_s"] > 0 and row["loci_s"] > 0, row
    for row in not_complete:
        assert (row["rays"], row["max_cones"]) == (6, 7), row
        assert row["bad_subsets"] is row["gapless_share"] is row["loci"] is None, row
        assert row["bad_subsets_s"] is row["loci_cold_s"] is row["loci_s"] is None, row
        assert row["fan_s"] > 0, row
