"""scripts/region_bench.py replays a scan's regions and counts its caches, then
times the counts of cohomology's weight regions."""

import importlib.util
from pathlib import Path

from toricpos import load_workspace
from toricpos.cohomology import bad_subsets

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "region_bench.py"


def load_script():
    spec = importlib.util.spec_from_file_location("region_bench", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_replay_builds_one_plan_per_distinct_normals():
    bench = load_script()
    regions = bench.scan_regions(seed=5, classes=2)
    totals, caches = bench.replay(regions, repeat=2)
    keys = {(r.dim, tuple(u for u, _ in r.strict), tuple(u for u, _ in r.weak)) for r in regions}
    # each scan region is bounded, so a query looks up its plan exactly once
    assert caches["plan"].misses == len(keys)
    assert caches["plan"].hits + caches["plan"].misses == 2 * len(regions)
    assert sum(count for count, _ in totals.values()) == len(regions)
    assert totals["hit"][0] and totals["empty over Q"][0]


def test_report_names_every_kind_and_cache(capsys):
    load_script().main(["--seed", "5", "--classes", "2", "--repeat", "1"])
    out = capsys.readouterr().out.splitlines()
    assert "from 2 classes on totaro-x (seed 5)" in out[0]
    assert [line.split()[0] for line in out[1:]] == [
        "kind", "empty", "hit", "empty", "plan", "projection", "count", "weights"]
    assert out[-2].split()[1:] == ["regions", "us/region", "parents", "children/parent", "blocks/region"]
    regions, _, parents, per_parent, per_region = out[-1].split()[1:]
    assert int(regions) == 2 * 8 and int(parents) > 0
    assert float(per_parent) >= 1 and 0 < float(per_region) <= round(int(parents) / int(regions), 1)


def test_count_replay_walks_every_bad_subset_region():
    bench = load_script()
    regions = bench.count_regions(seed=5, classes=2)
    spent, parents, children, blocks = bench.count_replay(regions, repeat=1)
    # cohomology_dims counts the region of every bad subset of every degree
    assert len(regions) == 2 * sum(map(len, bad_subsets(load_workspace("totaro-x").fan)))
    assert spent > 0 and 0 < blocks <= parents <= children
