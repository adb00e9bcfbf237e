"""Acceptance suite: one pass/fail line per criterion, printed unbuffered.

Frozen regression bounds (measured once on the fixed seed sets below and
pinned): ALPHA_CEILING for the point-decomposition constant and RATIO_FLOOR
for the planar schedule duration/load ratio.
"""

import json
import math
import random
import sys
import time

import pytest

from coverplex import cli, jsonio
from coverplex.cover import (CoverPreconditionError, compute_cover,
                             decompose_points, decompose_translates)
from coverplex.generate import gen_planar, gen_points, gen_rsc, polygon
from coverplex.levelcurve import (LevelCurve, WedgeFrame, canonical_positions,
                                  position_index_ranges)
from coverplex.planar import planar_load, plan_schedule, verify_planar
from coverplex.rsc import (coverage_profile, duration, greedy_schedule, load)
from coverplex.verify import rsc_opt_bruteforce, verify_coloring
from reference import dominance_loads

ALPHA_CEILING = 512.0   # max k/T over the criterion-8 seed set
RATIO_FLOOR = 0.00099   # min M_achieved/L over the criterion-10 seed set

POLY_NAMES = ("triangle", "square", "hexagon")


_CAPS = None


@pytest.fixture(autouse=True)
def _expose_capsys(capsys):
    global _CAPS
    _CAPS = capsys
    yield
    _CAPS = None


def report(num, label, ok, extra=""):
    line = "%s criterion %d (%s)%s" % ("PASS" if ok else "FAIL", num, label,
                                       " " + extra if extra else "")
    with _CAPS.disabled():
        print(line, file=sys.stdout, flush=True)
    assert ok, line


def _criterion1_instances():
    for seed in range(10000):
        yield seed, gen_rsc(seed, n=1 + seed % 50, m=1 + seed % 40,
                            d_max=1 + seed % 8)


def _criterion2_instances():
    for seed in range(2000):
        yield seed, gen_rsc(100000 + seed, n=1 + seed % 6, m=1 + seed % 6,
                            d_max=1 + seed % 3)


def test_criterion_1_greedy_load_factor():
    t0 = time.time()
    bad = []
    for seed, inst in _criterion1_instances():
        sched = greedy_schedule(inst)
        _, L = load(inst)
        if duration(sched, inst) < L // 5:
            bad.append(seed)
    elapsed = time.time() - t0
    ok = not bad and elapsed < 30
    report(1, "schedule lasts at least load/5", ok,
           "10000 instances in %.1fs" % elapsed)


def test_criterion_2_greedy_vs_exact_optimum():
    t0 = time.time()
    bad = []
    for seed, inst in _criterion2_instances():
        opt = rsc_opt_bruteforce(inst)
        _, L = load(inst)
        got = duration(greedy_schedule(inst), inst)
        if got < math.ceil(opt / 5) or opt > L:
            bad.append(seed)
    elapsed = time.time() - t0
    ok = not bad and elapsed < 60
    report(2, "within factor 5 of brute-force optimum", ok,
           "2000 instances in %.1fs" % elapsed)


def test_criterion_3_coverage_bound():
    worst = 0
    for gen in (_criterion1_instances, _criterion2_instances):
        for seed, inst in gen():
            prof = coverage_profile(greedy_schedule(inst), inst)
            worst = max(worst, max((max(row) for row in prof), default=0))
    report(3, "at most 5 sensors active anywhere", worst <= 5,
           "max coverage %d" % worst)


def test_criterion_4_nested_ranges_sequential():
    bad = []
    for seed, inst in _criterion1_instances():
        sched = greedy_schedule(inst)
        assigned = [(s, sched.start[s.id]) for s in inst.sensors
                    if s.id in sched.start]
        for (u, tu) in assigned:
            for (v, tv) in assigned:
                if u.id != v.id and v.l <= u.l and u.r <= v.r \
                        and (v.l < u.l or u.r < v.r) and tu < tv + v.d:
                    bad.append((seed, u.id, v.id))
        if bad:
            break
    report(4, "nested ranges scheduled sequentially", not bad,
           str(bad[:1]) if bad else "")


def test_criterion_5_stopped_load_bound():
    bad = []
    for seed in range(1000):
        inst = gen_rsc(200000 + seed, n=1 + seed % 40, m=1 + seed % 30,
                       d_max=1 + seed % 8)
        _, L = load(inst)
        d_max = max(s.d for s in inst.sensors)
        for t in {1, L // 10, L // 5}:
            if t < 1:
                continue
            sched = greedy_schedule(inst, stop_at=t)
            for x in range(1, inst.m + 1):
                live = sum(s.d for s in inst.sensors
                           if s.id in sched.start and s.l <= x <= s.r)
                if live > 5 * (t + d_max):
                    bad.append((seed, t, x))
        if bad:
            break
    report(5, "stopped runs assign bounded load", not bad,
           str(bad[:1]) if bad else "")


def test_criterion_6_level_curve_load_window():
    bad = []
    for seed in range(200):
        rng = random.Random(300000 + seed)
        size = 10 + seed % 51
        Y = [(rng.randint(0, 50), rng.randint(0, 50)) for _ in range(size)]
        poly = polygon(POLY_NAMES[seed % 3])
        for i in range(poly.n):
            frame = WedgeFrame(poly, i)
            items = frame.items(Y)
            for r in {1, size // 2, size}:
                if r < 1:
                    continue
                curve = LevelCurve(frame, r, items)
                positions = canonical_positions(curve, items)
                loads = dominance_loads(positions, items)
                if not all(r <= ld <= r + 1 for ld in loads):
                    bad.append((seed, i, r))
        if bad:
            break
    report(6, "curve positions hold load in [r, r+1]", not bad,
           str(bad[:1]) if bad else "")


def test_criterion_7_curve_coloring_contract():
    done = 0
    seed = 0
    bad = []
    while done < 500 and seed < 2000:
        rng = random.Random(400000 + seed)
        seed += 1
        size = 20 + seed % 21
        Y = [(rng.randint(0, 40), rng.randint(0, 40)) for _ in range(size)]
        poly = polygon(POLY_NAMES[seed % 3])
        r = 4 + seed % 9
        t = r // 2
        frame = WedgeFrame(poly, seed % poly.n)
        items = frame.items(Y)
        curve = LevelCurve(frame, r, items)
        try:
            colors = compute_cover(position_index_ranges(curve, items),
                                   items, t)
        except CoverPreconditionError:
            continue
        done += 1
        positions, ranges = position_index_ranges(curve, items)
        for idx in range(len(positions)):
            present = set()
            count = 0
            for (_, _, pid, _w) in items:
                rg = ranges[pid]
                if rg is None or not rg[0] <= idx <= rg[1]:
                    continue
                c = colors.get(pid)
                if c is not None:
                    present.add(c)
                    count += 1
            if not present >= set(range(1, t + 1)) or count > 2 * t:
                bad.append((seed - 1, idx))
        if bad:
            break
    report(7, "curve coloring: all t colors, at most 2t colored",
           not bad and done == 500,
           "%d instances%s" % (done, " " + str(bad[:1]) if bad else ""))


def _criterion8_runs():
    for seed in range(100):
        poly = polygon(POLY_NAMES[seed % 3])
        k = 256 * poly.n
        pts = gen_points(seed, size=k + k // 8, span=60)
        yield seed, poly, pts, k


def test_criterion_8_decomposition_end_to_end():
    bad = []
    worst_alpha = 0.0
    for seed, poly, pts, k in _criterion8_runs():
        asg, trace = decompose_points(poly, pts, k)
        rep = verify_coloring(poly, pts, asg, k)
        if not (rep.ok() and asg.T >= 1 and rep.alpha <= ALPHA_CEILING):
            bad.append(seed)
            break
        worst_alpha = max(worst_alpha, rep.alpha)
    report(8, "decomposition verified, alpha within frozen ceiling",
           not bad, "max alpha %.1f <= %.1f" % (worst_alpha, ALPHA_CEILING))


def test_criterion_9_iteration_load_decay():
    bad = []
    for seed, poly, pts, k in _criterion8_runs():
        _, trace = decompose_points(poly, pts, k)
        n = poly.n
        recs = trace.records
        for a, b in zip(recs, recs[1:]):
            if a.L >= 64 * n and b.L * 5 * n < a.L:
                bad.append((seed, a.i, a.L, b.L))
        if bad:
            break
    report(9, "uncolored load decays by at most 5n per iteration",
           not bad, str(bad[:1]) if bad else "")


def test_criterion_10_planar_schedule():
    threshold = 64 * 3 * 16  # vertices * grid factor for the triangle
    bad = []
    min_ratio = None
    t0 = time.time()
    for seed in range(200):
        inst = gen_planar(seed, n_sensors=2600, d_max=7, spread=2,
                          universe_size=5)
        _, L = planar_load(inst)
        if L < threshold:
            bad.append((seed, "below threshold", L))
            break
        sched = plan_schedule(inst)
        rep = verify_planar(inst, sched)
        if not (rep.ok() and rep.stats["M_achieved"] >= 1
                and rep.ratio >= RATIO_FLOOR):
            bad.append((seed, rep.stats, rep.ratio))
            break
        if min_ratio is None or rep.ratio < min_ratio:
            min_ratio = rep.ratio
    elapsed = time.time() - t0

    # unit-duration instances agree with the translate-decomposition count
    for seed in (300, 301, 302):
        inst = gen_planar(seed, n_sensors=11000, d_max=1, spread=2,
                          universe_size=4)
        _, L = planar_load(inst)
        sched = plan_schedule(inst)
        rep = verify_planar(inst, sched)
        centers = [s.center for s in inst.sensors]
        classes, info = decompose_translates(inst.polygon, centers,
                                             max(L, 1))
        T = info.get("T", len(classes))
        if abs(rep.stats["M_achieved"] - T) > 1:
            bad.append((seed, "cross-check", rep.stats["M_achieved"], T))
    report(10, "planar schedules verified, ratio above frozen floor",
           not bad, "min ratio %.5f >= %.5f, 200 instances in %.0fs"
           % (min_ratio or 0.0, RATIO_FLOOR, elapsed)
           if not bad else str(bad[:1]))


def test_criterion_11_byte_determinism(tmp_path, capsys):
    rsc_doc = tmp_path / "rsc.json"
    pts_doc = tmp_path / "pts.json"
    planar_doc = tmp_path / "planar.json"
    tiny_doc = tmp_path / "tiny.json"

    def run(argv):
        code = cli.main(argv)
        out = capsys.readouterr().out
        return code, out

    # fixed inputs produced once
    run(["gen", "rsc", "--seed", "1", "--n", "15", "--m", "10",
         "--out", str(rsc_doc)])
    run(["gen", "rsc", "--seed", "2", "--n", "6", "--m", "6",
         "--d-max", "3", "--out", str(tiny_doc)])
    run(["gen", "points", "--seed", "1", "--size", "80", "--span", "30",
         "--k", "12", "--out", str(pts_doc)])
    run(["gen", "planar", "--seed", "1", "--n", "150",
         "--out", str(planar_doc)])
    _, sched_out = run(["rsc", "solve", "--in", str(rsc_doc)])
    both_rsc = tmp_path / "both_rsc.json"
    both_rsc.write_text(jsonio.dumps(
        {"instance": json.loads(rsc_doc.read_text()),
         "schedule": json.loads(sched_out)}))
    _, plan_out = run(["plan", "solve", "--in", str(planar_doc)])
    both_plan = tmp_path / "both_plan.json"
    both_plan.write_text(jsonio.dumps(
        {"instance": json.loads(planar_doc.read_text()),
         "schedule": json.loads(plan_out)}))
    _, col_out = run(["decomp", "points", "--in", str(pts_doc)])
    col_doc = tmp_path / "col.json"
    col_doc.write_text(jsonio.dumps(
        json.loads(pts_doc.read_text()) | json.loads(col_out)))
    tr_doc = tmp_path / "tr.json"
    tr_doc.write_text(jsonio.dumps(
        {"polygon": json.loads(pts_doc.read_text())["polygon"],
         "centers": [[10, 10]] * 200, "k": 100}))

    commands = [
        ["gen", "rsc", "--seed", "3"],
        ["gen", "points", "--seed", "3"],
        ["gen", "planar", "--seed", "3"],
        ["rsc", "solve", "--in", str(rsc_doc)],
        ["rsc", "verify", "--in", str(both_rsc)],
        ["rsc", "oracle", "--in", str(tiny_doc)],
        ["decomp", "points", "--in", str(pts_doc)],
        ["decomp", "translates", "--in", str(tr_doc)],
        ["decomp", "verify", "--in", str(col_doc)],
        ["plan", "solve", "--in", str(planar_doc)],
        ["plan", "verify", "--in", str(both_plan)],
        ["plot", "curve", "--in", str(pts_doc)],
        ["plot", "curve", "--in", str(pts_doc), "--format", "json"],
        ["plot", "coloring", "--in", str(col_doc)],
        ["plot", "schedule", "--in", str(both_rsc)],
    ]
    bad = []
    for argv in commands:
        first = run(argv)
        second = run(argv)
        if first != second:
            bad.append(argv)
    report(11, "every subcommand byte-deterministic", not bad,
           "%d subcommands" % len(commands) if not bad else str(bad[:1]))
