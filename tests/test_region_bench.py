"""scripts/region_bench.py records and replays a mode check's region
queries, the scan's window queries split into level-0 rejections, level-0
yes answers on gapless plans and dives,
and counts the plans and projections the replay builds, its plans' levels
and the dives that fell back to the walk, then times the counts of
cohomology's weight regions on four fans, per region and per parent."""

import importlib.util
from pathlib import Path

import toricpos.polyhedra as polyhedra
from toricpos.cohomology import bad_subsets
from toricpos.polyhedra import Plan, Twists, _closure_rhs, _plan_of, _range

from .conftest import gap_regions

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "region_bench.py"


def load_script():
    spec = importlib.util.spec_from_file_location("region_bench", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_replay_builds_each_recorded_plan_once(monkeypatch):
    bench = load_script()
    built, project = [], polyhedra._projection
    with monkeypatch.context() as m:
        m.setattr(polyhedra, "_projection", lambda *args: built.append(args) or project(*args))
        queries = bench.scan_queries(seed=5, classes=2)
    totals, plans, projections = bench.replay(queries, repeat=2)
    # a query looks up no plan: the replay builds each recorded plan once,
    # and makes the projections the mode checks made on a fresh fan
    assert plans == len({id(bench.plan_of(asked)) for _, asked, _ in queries})
    assert projections == len(built) > 0
    assert sum(count for count, _, _ in totals.values()) == len(queries)
    assert all(count for kind, (count, _, _) in totals.items() if kind != "dive"), totals
    # each kind is timed per replay, the first (cold) apart from the later
    assert all(len(ns) == 2 and min(ns) > 0 for count, ns, _ in totals.values() if count), totals
    # every scan query is counted once, as a rejection, a yes at level 0 or
    # a dive; totaro-x's bad-subset plans are all gapless, so none dives
    with monkeypatch.context() as m:
        asked = []
        has_point = Twists.has_point
        m.setattr(Twists, "has_point", lambda *args: asked.append(args) or has_point(*args))
        bench.scan_queries(seed=5, classes=2)
    rejected, gapless = totals["reject"], totals["gapless"]
    assert rejected[0] + gapless[0] == len(asked) and totals["dive"] == [0, [0, 0], 0]
    assert rejected[2] == 0 < gapless[2] == gapless[0]  # the scan finds points in some regions, not all
    assert all(bench.plan_of(asked).gapless for kind, asked, _ in queries if kind == "gapless")
    # a dive reads the walk only where it stops at an integer gap, a level
    # whose nonempty range holds no integer; the slivers (``gap_regions``),
    # not gapless, dive and stop at one on regions with and without a
    # point, asked as a window's twist (1, 0)
    slivers = [("dive", Twists(_plan_of(p), _closure_rhs(p), [0] * len(p.weak)), (1, 0))
               for p, _ in gap_regions()]
    assert not any(asked.plan.gapless for _, asked, _ in slivers)
    count, _, yes = bench.replay(slivers, repeat=1)[0]["dive"]
    stops, last = [], []
    integers, blocks = polyhedra._integers, Plan.blocks

    def reading(level, rest):
        last[:] = [(level, rest)]
        return integers(level, rest)

    def stopping(plan, b, *start):  # has_point hands the walk its start
        stops.extend(last if start else ())
        return blocks(plan, b, *start)

    monkeypatch.setattr(polyhedra, "_integers", reading)
    monkeypatch.setattr(Plan, "blocks", stopping)
    walked, held = bench.fallbacks(queries + slivers)
    assert walked == len(stops) and 0 < held < walked < count and yes > held, (walked, held, yes)
    for level, rest in stops:
        (lo_num, lo_den), (up_num, up_den) = _range(level, rest)
        assert -(-lo_num // lo_den) > up_num // up_den, (level, rest)


def test_report_names_every_kind_and_count(capsys):
    bench = load_script()
    for repeat in (1, 2):
        bench.main(["--seed", "5", "--classes", "2", "--repeat", str(repeat)])
        out = capsys.readouterr().out.splitlines()
        assert "from 2 classes on totaro-x (seed 5)" in out[0]
        assert [line.split()[0] for line in out[1:]] == [
            "kind", "reject", "gapless", "dive", "face", "joint", "witness", "plans", "projections", "count",
            *bench.COUNT_FANS]
        assert out[1].split() == [
            "kind", "queries", "first_us/q", "warm_us/q", "yes", "fallback", "level_rows", "max_level"]
        for line in out[2:8]:  # one replay has no warm figure
            kind, count, first, warm, yes, fallback, rows, largest = line.split()
            if kind == "dive":  # totaro-x's plans are gapless: no scan query dives
                assert line.split()[1:] == ["0", "-", "-", "0", "0/0", "0", "0"], line
                continue
            assert float(first) > 0 and (warm == "-" if repeat == 1 else float(warm) > 0), line
            assert int(rows) >= int(largest) > 0, line
            assert kind != "reject" or int(yes) == 0, line
            assert kind != "gapless" or int(yes) == int(count) > 0, line
            assert fallback == "-", line
        assert out[-5].split()[1:] == [
            "regions", "us/region", "us/parent", "parents", "children/parent", "|a|>1_share", "blocks/region"]
        # each class counts the region of every bad subset: 8 on totaro-x and
        # its GL(3,Z) image, 2 on P(1,1,2) and 16 on P1^4. Every parent of
        # P(1,1,2) has a term with |a| > 1, as has every parent the seed
        # reaches on the image, and none of totaro-x or P1^4
        shares = []
        for line, subsets in zip(out[-4:], (8, 2, 16, 8)):
            regions, us_region, us_parent, parents, per_parent, share, per_region = line.split()[1:]
            assert int(regions) == 2 * subsets and int(parents) > 0 and 0 <= float(share) <= 1
            assert float(us_region) > 0 and float(us_parent) > 0, line
            assert float(per_parent) >= 1 and 0 < float(per_region) <= round(int(parents) / int(regions), 1)
            shares.append(float(share))
        assert shares == [0, 1, 0, 1], shares


def test_count_replay_walks_every_bad_subset_region():
    bench = load_script()
    for name in bench.COUNT_FANS:
        queries = bench.count_queries(seed=5, classes=2, fan_name=name)
        spent, parents, children, wide, blocks = bench.count_replay(queries, repeat=1)
        # cohomology_dims counts the region of every bad subset of every degree
        assert len(queries) == 2 * sum(map(len, bad_subsets(bench.count_fan(name)))), name
        assert spent > 0 and 0 < blocks <= parents <= children and 0 <= wide <= parents, name
