import argparse
import copy
import errno
import gc
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import reference
from coverplex import cli, jsonio
from coverplex.cover import decompose_points
from coverplex.generate import (POLYGONS, gen_planar, gen_rsc, gen_points,
                                polygon)
from coverplex.planar import plan_schedule
from coverplex.rsc import Schedule, Sensor, greedy_schedule


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_num_round_trip():
    for v in (0, 7, -3, Fraction(8, 3), Fraction(-4, 3), Fraction(5, 1)):
        back = jsonio.num_from_json(json.loads(json.dumps(
            jsonio.num_to_json(v))))
        assert back == v
    assert jsonio.num_to_json(Fraction(6, 2)) == 3  # integral stays int


def test_polygon_round_trip():
    poly = polygon("hexagon")
    back = jsonio.polygon_from_json(jsonio.polygon_to_json(poly))
    assert back.vertices == poly.vertices


def test_rsc_instance_round_trip():
    inst = gen_rsc(4, n=12, m=9, d_max=5)
    back = jsonio.rsc_instance_from_json(jsonio.rsc_instance_to_json(inst))
    assert back.m == inst.m and back.sensors == inst.sensors


GOOD_ROW = {"id": 0, "l": 1, "r": 2, "d": 3}


@pytest.mark.parametrize("doc", [
    {"m": 3, "sensors": [GOOD_ROW, {"id": 1, "l": 1, "r": 3, "d": 1}]},
    {"m": 3, "sensors": []},
    *({"m": 3, "sensors": [GOOD_ROW, row]}
      for row in (5, None, "row", [0, 1, 2, 3], 2.5, True,
                  {"l": 1, "r": 2, "d": 3}, {"id": 1, "l": 1, "r": 2},
                  {"id": 1, "l": True, "r": 2, "d": 3},
                  {"id": 1, "l": 1, "r": 2.0, "d": 3},
                  {"id": 1, "l": 1, "r": "2", "d": 3},
                  {"id": "1", "l": 1, "r": 2, "d": False},
                  {"id": 1, "l": 1, "r": 2, "d": 0},
                  {"id": 0, "l": 1, "r": 2, "d": 3},
                  {"id": 1, "l": 2, "r": 4, "d": 3})),
    {"m": 3, "sensors": "ab"}, {"m": 3, "sensors": 7}, {"m": 3},
    {"sensors": [GOOD_ROW]}, {"m": 2.0, "sensors": [GOOD_ROW]},
    {"m": True, "sensors": []}, {"m": 0, "sensors": []}, [GOOD_ROW]])
def test_rsc_instance_reader_matches_field_by_field_reader(doc):
    """The reader builds its rows at C speed, and every document gives the
    instance or the error message of a reader that takes one field at a
    time."""
    try:
        want = reference.rsc_instance_from_json(doc)
    except jsonio.InputError as exc:
        with pytest.raises(jsonio.InputError) as got:
            jsonio.rsc_instance_from_json(doc)
        assert str(got.value) == str(exc)
    else:
        got = jsonio.rsc_instance_from_json(doc)
        assert (got.m, got.sensors) == (want.m, want.sensors)
        assert all(type(s) is Sensor for s in got.sensors)


def test_schedule_round_trip():
    sched = greedy_schedule(gen_rsc(4, n=12, m=9, d_max=5))
    back = jsonio.schedule_from_json(jsonio.schedule_to_json(sched))
    assert back.start == sched.start


def test_planar_instance_round_trip():
    inst = gen_planar(2, n_sensors=15)
    doc = jsonio.planar_instance_to_json(inst)
    back = jsonio.planar_instance_from_json(doc)
    assert back.sensors == inst.sensors
    assert back.universe == inst.universe
    assert back.polygon.vertices == inst.polygon.vertices


# scalars that dumps writes, with the text that templates and separators
# could confuse: brackets, %, ",\n", quotes, escapes and non-ASCII
JSON_TEXT = st.text(st.sampled_from('[]{}%s,\n"\\ \x00a\xe9\u20ac\U0001f600'),
                    max_size=6)
JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-10**40, 10**40), st.floats(),
    st.fractions(max_denominator=40),
    st.integers(-9, 9).map(lambda n: Fraction(n, 1)), JSON_TEXT)
JSON_KEYS = st.one_of(JSON_TEXT, st.integers(-10**20, 10**20), st.floats(),
                      st.booleans(), st.none())


def _key_kind(k):
    """Keys of one kind sort together: strs, None, or numbers and bools."""
    return isinstance(k, str), k is None


@st.composite
def json_tables(draw):
    """Rows of one shape, dicts with str keys or lists, each column scalars
    (any mix, or only bools and None) or lists of one length; some have one
    ragged row."""
    columns = draw(st.lists(st.one_of(
        st.sampled_from([JSON_SCALARS, st.booleans() | st.none()]),
        st.integers(0, 2).map(lambda w: st.lists(JSON_SCALARS, min_size=w,
                                                 max_size=w))), max_size=3))
    rows = draw(st.lists(st.tuples(*columns), min_size=1, max_size=5))
    if draw(st.booleans()):
        keys = draw(st.lists(JSON_TEXT, min_size=len(columns),
                             max_size=len(columns), unique=True))
        rows = [dict(zip(keys, row)) for row in rows]
    else:
        rows = [draw(st.sampled_from([list, tuple]))(row) for row in rows]
    if draw(st.booleans()):
        j = draw(st.integers(0, len(rows) - 1))
        if isinstance(rows[j], dict):
            rows[j] = dict(rows[j])
            if rows[j] and draw(st.booleans()):  # one size, another key
                del rows[j][min(rows[j])]
            rows[j]["%ragged"] = draw(JSON_SCALARS)
        else:
            rows[j] = list(rows[j])[:-1] or [[draw(JSON_SCALARS)]]
    return rows


JSON_VALUES = st.recursive(
    JSON_SCALARS | json_tables(),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.lists(inner, max_size=3).map(tuple),
        json_tables(),
        JSON_KEYS.flatmap(lambda k: st.dictionaries(
            st.just(k) | JSON_KEYS.filter(
                lambda j: _key_kind(j) == _key_kind(k)),
            inner, min_size=1, max_size=4))),
    max_leaves=12)


def _dumps_or_error(dumps, value):
    try:
        return dumps(value)
    except Exception as exc:
        return type(exc)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(value=json_tables() | JSON_VALUES)
def test_dumps_byte_stable(value):
    """dumps writes what the stdlib's indenting encoder writes, and reads
    back to the same bytes."""
    doc = {"b": 2, "a": [1, "8/3"], "c": {"y": 0, "x": 1}}
    assert jsonio.dumps(doc) == jsonio.dumps(json.loads(jsonio.dumps(doc)))
    assert jsonio.dumps(doc).endswith("\n")
    assert _dumps_or_error(jsonio.dumps, value) == _dumps_or_error(
        reference.dumps, value)


@pytest.mark.parametrize("value", [
    {"a": {1, 2}}, [[1, 2], [3, {4}]], [{"x": 1}, {"x": {1}}],
    {1: 0, "a": 1}, {1: [0], "a": [1]}, {None: 0, 0: [[1]]},
    {(1, 2): 0}, {Fraction(1, 3): [0]}])
def test_dumps_raises_as_reference(value):
    """A set value and keys of mixed or unsupported types raise the
    exception type that the stdlib's encoder raises."""
    with pytest.raises(TypeError):
        reference.dumps(value)
    with pytest.raises(TypeError):
        jsonio.dumps(value)


def test_rsc_verify_lists_closing_semantics_not_run(tmp_path, capsys):
    """A schedule document holds no event log, so the replay is not run
    and is named under not_run; the verdict of the other checks stands."""
    inst = gen_rsc(3, n=10, m=8, d_max=4)
    sched = greedy_schedule(inst)
    assert sched.start
    path = tmp_path / "both.json"
    path.write_text(jsonio.dumps(
        {"instance": jsonio.rsc_instance_to_json(inst),
         "schedule": jsonio.schedule_to_json(sched)}))
    code, out, _ = run(["rsc", "verify", "--in", str(path)], capsys)
    rep = json.loads(out)
    assert code == 0 and all(c["pass"] for c in rep["checks"])
    assert rep["not_run"] == ["closing-semantics"]
    assert "closing-semantics" not in [c["name"] for c in rep["checks"]]


def test_gen_and_solve_pipeline(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    code, out, _ = run(["gen", "rsc", "--seed", "5", "--n", "15", "--m",
                        "10", "--out", str(inst_path)], capsys)
    assert code == 0
    code, out, _ = run(["rsc", "solve", "--in", str(inst_path)], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["M"] >= doc["L"] // 5
    combined = tmp_path / "both.json"
    combined.write_text(jsonio.dumps(
        {"instance": json.loads(inst_path.read_text()),
         "schedule": doc}))
    code, out, _ = run(["rsc", "verify", "--in", str(combined)], capsys)
    assert code == 0
    rep = json.loads(out)
    assert all(c["pass"] for c in rep["checks"])


def test_rsc_oracle_cli(tmp_path, capsys):
    inst_path = tmp_path / "tiny.json"
    code, _, _ = run(["gen", "rsc", "--seed", "1", "--n", "6", "--m", "6",
                      "--out", str(inst_path)], capsys)
    assert code == 0
    code, out, _ = run(["rsc", "oracle", "--in", str(inst_path)], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] and doc["OPT"] <= doc["L"]


def test_decomp_points_and_verify_cli(tmp_path, capsys):
    inst_path = tmp_path / "pts.json"
    code, _, _ = run(["gen", "points", "--seed", "2", "--size", "450",
                      "--span", "40", "--k", "400",
                      "--out", str(inst_path)], capsys)
    assert code == 0
    code, out, _ = run(["decomp", "points", "--in", str(inst_path)], capsys)
    assert code == 0
    coloring = json.loads(out)
    assert coloring["T"] >= 1
    merged = json.loads(inst_path.read_text()) | coloring
    both = tmp_path / "verify.json"
    both.write_text(jsonio.dumps(merged))
    code, out, _ = run(["decomp", "verify", "--in", str(both)], capsys)
    assert code == 0

    # corrupting the coloring flips the exit code to 1
    broken = dict(merged)
    broken["colors"] = [None if c == 1 else c for c in merged["colors"]]
    both.write_text(jsonio.dumps(broken))
    code, out, _ = run(["decomp", "verify", "--in", str(both)], capsys)
    assert code == 1


def test_decomp_translates_cli(tmp_path, capsys):
    doc = {"polygon": jsonio.polygon_to_json(polygon("triangle")),
           "centers": [[10, 10]] * 700, "k": 640}
    p = tmp_path / "tr.json"
    p.write_text(jsonio.dumps(doc))
    code, out, _ = run(["decomp", "translates", "--in", str(p)], capsys)
    assert code == 0
    res = json.loads(out)
    flat = sorted(i for cls in res["classes"] for i in cls)
    assert flat == list(range(700))


def test_plan_solve_and_verify_cli(tmp_path, capsys):
    inst_path = tmp_path / "planar.json"
    code, _, _ = run(["gen", "planar", "--seed", "3", "--n", "200",
                      "--out", str(inst_path)], capsys)
    assert code == 0
    code, out, _ = run(["plan", "solve", "--in", str(inst_path)], capsys)
    assert code == 0
    sched = json.loads(out)
    both = tmp_path / "pv.json"
    both.write_text(jsonio.dumps(
        {"instance": json.loads(inst_path.read_text()), "schedule": sched}))
    code, out, _ = run(["plan", "verify", "--in", str(both)], capsys)
    assert code == 0
    rep = json.loads(out)
    assert "M_achieved" in rep and "L" in rep


def test_rsc_huge_duration_solve_and_verify(tmp_path, capsys):
    """Cost follows sensors and ranges, not duration values: d = 10**12
    solves and verifies at once."""
    d = 10 ** 12
    inst = {"m": 3, "sensors": [{"id": 0, "l": 1, "r": 3, "d": d}]}
    t0 = time.perf_counter()
    p = tmp_path / "inst.json"
    p.write_text(jsonio.dumps(inst))
    code, out, _ = run(["rsc", "solve", "--in", str(p)], capsys)
    assert code == 0
    sched = json.loads(out)
    assert sched == {"assignments": [{"id": 0, "t": 1}], "M": d, "L": d}
    p.write_text(jsonio.dumps({"instance": inst, "schedule": sched}))
    code, out, _ = run(["rsc", "verify", "--in", str(p)], capsys)
    assert code == 0 and json.loads(out)["ratio"] == 1.0
    assert time.perf_counter() - t0 < 1.0


def test_rsc_huge_universe_solve_and_verify(tmp_path, capsys):
    """Cost follows the sensor endpoints, not the value of m: m = 10**30
    gives the output of the same sensors on the smallest m that keeps
    their order, and rsc oracle refuses it; no traceback."""
    def inst(m):
        return {"m": m, "sensors": [
            {"id": 0, "l": 1, "r": m, "d": 2}, {"id": 1, "l": 1, "r": 5,
                                                "d": 3},
            {"id": 2, "l": 4, "r": m, "d": 1}, {"id": 3, "l": 7, "r": 7,
                                                "d": 4},
            {"id": 4, "l": 2, "r": 6, "d": 2}]}

    p = tmp_path / "doc.json"

    def outputs(m):
        outs = []
        for stop_at in ([], ["--stop-at", "1"]):
            p.write_text(jsonio.dumps(inst(m)))
            code, out, err = run(["rsc", "solve", "--in", str(p), *stop_at],
                                 capsys)
            assert code == 0 and not err
            sched = json.loads(out)
            stacked = dict(sched, assignments=[{"id": i, "t": 1}
                                               for i in range(5)])
            for schedule in (sched, stacked):
                p.write_text(jsonio.dumps({"instance": inst(m),
                                           "schedule": schedule}))
                outs.append((out, run(["rsc", "verify", "--in", str(p),
                                       *stop_at], capsys)))
        return outs

    huge = outputs(10 ** 30)
    assert huge == outputs(8)
    assert [json.loads(out)["L"] for out, _ in huge] == [3, 3, 3, 3]
    assert [code for _, (code, _, _) in huge] == [0, 1, 0, 1]
    p.write_text(jsonio.dumps(inst(10 ** 30)))
    code, _, err = run(["rsc", "oracle", "--in", str(p)], capsys)
    assert code == 2 and err.startswith("error: ") and err.count("\n") == 1


def test_malformed_json_exit_2(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{ this is not json")
    code, _, err = run(["rsc", "solve", "--in", str(p)], capsys)
    assert code == 2
    assert "line" in err and "column" in err


def test_unreadable_json_exit_2(tmp_path, capsys):
    p = tmp_path / "bad.json"
    for raw in (b'{"m": ' + b"1" * 5000 + b', "sensors": []}', b"\xff{}"):
        p.write_bytes(raw)
        code, _, err = run(["rsc", "solve", "--in", str(p)], capsys)
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1, err


def test_semantically_invalid_exit_2(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text(jsonio.dumps({"m": 3, "sensors": [
        {"id": 0, "l": 1, "r": 9, "d": 1}]}))
    code, _, err = run(["rsc", "solve", "--in", str(p)], capsys)
    assert code == 2
    assert "error:" in err


def test_cli_byte_determinism(tmp_path, capsys):
    outs = []
    for _ in range(2):
        code, out, _ = run(["gen", "planar", "--seed", "9", "--n", "80"],
                           capsys)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_plot_svg_outputs(tmp_path, capsys):
    pts_path = tmp_path / "pts.json"
    run(["gen", "points", "--seed", "4", "--size", "40", "--span", "20",
         "--k", "10", "--out", str(pts_path)], capsys)
    code, svg, _ = run(["plot", "curve", "--in", str(pts_path)], capsys)
    assert code == 0
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
    code, svg2, _ = run(["plot", "curve", "--in", str(pts_path)], capsys)
    assert svg == svg2
    # json format variant
    code, out, _ = run(["plot", "curve", "--in", str(pts_path),
                        "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert "chain" in doc and "head" in doc and "tail" in doc


def test_plot_schedule_svg(tmp_path, capsys):
    inst = gen_rsc(8, n=10, m=8, d_max=4)
    sched = greedy_schedule(inst)
    p = tmp_path / "s.json"
    p.write_text(jsonio.dumps(
        {"instance": jsonio.rsc_instance_to_json(inst),
         "schedule": jsonio.schedule_to_json(sched)}))
    code, svg, _ = run(["plot", "schedule", "--in", str(p)], capsys)
    assert code == 0
    assert "<svg" in svg and "</svg>" in svg


def test_plot_coloring_svg(tmp_path, capsys):
    pts = gen_points(5, size=60, span=20)
    from coverplex.cover import decompose_points
    asg, _ = decompose_points(polygon("triangle"), pts, 10)
    doc = {"points": [jsonio.point_to_json(q) for q in pts]}
    doc |= jsonio.coloring_to_json(asg, len(pts))
    p = tmp_path / "c.json"
    p.write_text(jsonio.dumps(doc))
    code, svg, _ = run(["plot", "coloring", "--in", str(p)], capsys)
    assert code == 0
    assert "<svg" in svg


def test_num_from_json_accepts_only_exact_forms():
    assert jsonio.num_from_json("-21/6") == Fraction(-7, 2)
    assert jsonio.num_from_json(-4) == -4
    for bad in (1.5, True, None, [1], "1/0", "3", "1.5/2", " 1/2", "1/-2",
                "0x1/2", "x", "1" * 5000 + "/1"):
        with pytest.raises(jsonio.InputError):
            jsonio.num_from_json(bad)


def _planar_doc():
    return jsonio.planar_instance_to_json(gen_planar(2, n_sensors=15))


def _with(doc, path, value):
    """Copy of a JSON document with the value at `path` replaced."""
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def _rsc_doc():
    return jsonio.rsc_instance_to_json(gen_rsc(4, n=12, m=9, d_max=5))


def _rsc_both():
    inst = gen_rsc(4, n=12, m=9, d_max=5)
    return {"instance": jsonio.rsc_instance_to_json(inst),
            "schedule": jsonio.schedule_to_json(greedy_schedule(inst))}


def _plan_both():
    return {"instance": _planar_doc(),
            "schedule": {"assignments": [{"id": 0, "t": 1}],
                         "trivial": False}}


def _points_doc():
    return jsonio.decomp_instance_to_json(polygon("triangle"),
                                          gen_points(1, size=30, span=10), 6)


def _coloring_doc():
    return dict(_points_doc(), colors=[1] * 30, T=1)


def _vacuous_coloring_doc():
    """T = 0 with every color null: passes as vacuous at a valid level."""
    return dict(_points_doc(), colors=[None] * 30, T=0)


def _translates_doc():
    return {"polygon": _points_doc()["polygon"], "centers": [[1, 1]] * 5,
            "k": 3}


BAD_NUMBERS = [
    (["plan", "solve"], _planar_doc, ("sensors", 0, "center"), ["1/0", 1]),
    (["plan", "solve"], _planar_doc, ("sensors", 0, "center"), [1.5, 2]),
    (["plan", "solve"], _planar_doc, ("sensors", 0, "center"), [True, 2]),
    (["plan", "solve"], _planar_doc, ("sensors", 0, "center"), ["1.5/2", 2]),
    (["plan", "solve"], _planar_doc, ("sensors", 0, "d"), 1.5),
    (["plan", "solve"], _planar_doc, ("sensors", 0, "id"), True),
    (["plan", "solve"], _planar_doc, ("universe", 0), [10, "x"]),
    (["plan", "solve"], _planar_doc, ("polygon", "vertices", 1), ["4/0", 0]),
    (["plan", "verify"], _plan_both, ("schedule", "assignments", 0, "t"),
     "x"),
    (["plan", "verify"], _plan_both, ("schedule", "assignments", 0, "t"),
     1.0),
    (["plan", "verify"], _plan_both, ("schedule", "assignments", 0, "id"),
     "0"),
    (["rsc", "solve"], _rsc_doc, ("sensors", 0, "d"), 1.5),
    (["rsc", "solve"], _rsc_doc, ("sensors", 5, "d"), True),
    (["rsc", "solve"], _rsc_doc, ("sensors", 0, "l"), "1"),
    (["rsc", "solve"], _rsc_doc, ("sensors", 0, "id"), None),
    (["rsc", "solve"], _rsc_doc, ("m",), True),
    (["rsc", "verify"], _rsc_both, ("schedule", "assignments", 0, "t"), 2.0),
    (["decomp", "points"], _points_doc, ("k",), 6.0),
    (["decomp", "points"], _points_doc, ("k",), "6"),
    (["decomp", "points"], _points_doc, ("points", 0), [0.5, 1]),
    (["decomp", "verify"], _coloring_doc, ("T",), 1.5),
    (["decomp", "verify"], _coloring_doc, ("colors", 0), 1.0),
    (["decomp", "verify"], _coloring_doc, ("colors", 0), -1),
    (["decomp", "verify"], _coloring_doc, ("colors", 0), 0),
    (["decomp", "verify"], _coloring_doc, ("T",), -1),
    (["decomp", "translates"], _translates_doc, ("k",), False),
    (["decomp", "translates"], _translates_doc, ("centers", 0), [1, "1/0"]),
    # exact, but beyond the floats an SVG is drawn in
    (["plot", "coloring"], _coloring_doc, ("points", 0), [10 ** 400, 0]),
    (["plot", "curve"], _points_doc, ("points", 0), [10 ** 400, 0]),
    (["plot", "schedule"], _rsc_both, ("instance", "sensors", 0, "d"),
     10 ** 400),
]


@pytest.mark.parametrize(
    "argv, make, path, value", BAD_NUMBERS,
    ids=["%s:%s=%s" % ("-".join(argv), ".".join(map(str, path)),
                       json.dumps(value))
         for argv, _, path, value in BAD_NUMBERS])
def test_inexact_or_mistyped_numbers_exit_2(tmp_path, capsys, argv, make,
                                            path, value):
    _check_exit_2(tmp_path, capsys, argv, make, path, value)


def _check_exit_2(tmp_path, capsys, argv, make, path, value):
    """The command succeeds or fails verification on make()'s document, and
    exits 2 with a one-line error once `path` holds `value`."""
    good = tmp_path / "good.json"
    good.write_text(jsonio.dumps(make()))
    code, _, _ = run(argv + ["--in", str(good), "--out", str(tmp_path / "o")],
                     capsys)
    assert code in (0, 1)
    bad = tmp_path / "bad.json"
    bad.write_text(jsonio.dumps(_with(make(), path, value)))
    code, out, err = run(argv + ["--in", str(bad)], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err


# _points_doc has 30 unit-weight points: levels 0 and 31 have no curve
LEVEL_ERRORS = [
    (["decomp", "verify"], _coloring_doc, ("k",), 0),
    (["decomp", "verify"], _coloring_doc, ("k",), 31),
    (["decomp", "verify"], _vacuous_coloring_doc, ("k",), 0),
    (["decomp", "verify"], _vacuous_coloring_doc, ("k",), 31),
    (["decomp", "translates"], _translates_doc, ("k",), 0),
    (["plot", "curve"], _points_doc, ("r",), 0),
    (["plot", "curve"], _points_doc, ("r",), 31),
]


@pytest.mark.parametrize(
    "argv, make, path, value", LEVEL_ERRORS,
    ids=["%s:%s=%s%s" % ("-".join(argv), ".".join(path), value,
                         ",T=0" if make is _vacuous_coloring_doc else "")
         for argv, make, path, value in LEVEL_ERRORS])
def test_level_out_of_range_exit_2(tmp_path, capsys, argv, make, path,
                                   value):
    _check_exit_2(tmp_path, capsys, argv, make, path, value)


@pytest.mark.parametrize("colors", [[1], [1, 2], [1, 1, 1], []],
                         ids=["1", "1,2", "1,1,1", "empty"])
@pytest.mark.parametrize("argv", [["decomp", "verify"], ["plot", "coloring"]],
                         ids=["decomp-verify", "plot-coloring"])
def test_colors_not_one_per_point_exit_2(tmp_path, capsys, argv, colors):
    # one point: every entry past the first would name a point that does
    # not exist
    doc = dict(jsonio.decomp_instance_to_json(polygon("triangle"),
                                              [(1, 1)], 1),
               colors=colors, T=1)
    p = tmp_path / "in.json"
    p.write_text(jsonio.dumps(doc))
    code, out, err = run(argv + ["--in", str(p)], capsys)
    if len(colors) == 1:
        assert code == 0 and not err
        return
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err


READER_ERRORS = [
    (["decomp", "translates"],
     {k: v for k, v in _translates_doc().items() if k != "centers"},
     "bad decomposition instance: 'centers'"),
    (["decomp", "translates"], _with(_translates_doc(), ("centers", 0),
                                     [1.5, 1]),
     "bad decomposition instance: number must be an integer or a \"p/q\" "
     "string with q != 0, got 1.5"),
    (["decomp", "verify"], dict(_coloring_doc(), colors=[1] * 29),
     "bad coloring: 29 colors for 30 points"),
    (["plot", "coloring"], dict(_coloring_doc(), colors=[1] * 29),
     "bad coloring: 29 colors for 30 points"),
    (["plot", "coloring"],
     {k: v for k, v in _coloring_doc().items() if k != "points"},
     "bad coloring: 'points'"),
    (["plot", "coloring"], dict(_coloring_doc(), points=5),
     "bad coloring: points must be a list, got int"),
    (["plot", "coloring"], _with(_coloring_doc(), ("points", 0), [1]),
     "bad coloring: point must be a [x, y] pair, got [1]"),
    (["plot", "coloring"], _with(_coloring_doc(), ("points", 0), [1.5, 1]),
     "bad coloring: number must be an integer or a \"p/q\" string with "
     "q != 0, got 1.5"),
]


@pytest.mark.parametrize("argv, doc, message", READER_ERRORS,
                         ids=["translates-no-centers",
                              "translates-float-center",
                              "verify-colors-short", "plot-colors-short",
                              "plot-no-points", "plot-points-not-list",
                              "plot-short-pair", "plot-float-point"])
def test_reader_error_names_the_reader(tmp_path, capsys, argv, doc, message):
    p = tmp_path / "in.json"
    p.write_text(jsonio.dumps(doc))
    code, out, err = run(argv + ["--in", str(p)], capsys)
    assert (code, out, err) == (2, "", "error: %s\n" % message)


# a list field holding an empty string or an empty object once read as an
# empty list and gave a result
NOT_LISTS = [
    (argv, make, path, prefix, value)
    for argv, make, path, prefix in [
        (["rsc", "solve"], _rsc_doc, ("sensors",), "bad scheduling instance"),
        (["rsc", "oracle"], _rsc_doc, ("sensors",),
         "bad scheduling instance"),
        (["rsc", "verify"], _rsc_both, ("schedule", "assignments"),
         "bad schedule"),
        (["plan", "solve"], _planar_doc, ("sensors",), "bad planar instance"),
        (["plan", "solve"], _planar_doc, ("universe",),
         "bad planar instance"),
        (["plan", "verify"], _plan_both, ("schedule", "assignments"),
         "bad planar schedule"),
        (["decomp", "points"], _points_doc, ("points",),
         "bad decomposition instance"),
        (["decomp", "translates"], _translates_doc, ("centers",),
         "bad decomposition instance"),
        (["decomp", "verify"], _coloring_doc, ("colors",), "bad coloring"),
        (["plot", "coloring"], _coloring_doc, ("points",), "bad coloring"),
        (["plot", "coloring"], _coloring_doc, ("colors",), "bad coloring")]
    for value in ("", {})]


@pytest.mark.parametrize(
    "argv, make, path, prefix, value", NOT_LISTS,
    ids=["%s:%s=%s" % ("-".join(argv), ".".join(path), json.dumps(value))
         for argv, _, path, _, value in NOT_LISTS])
def test_list_field_not_a_list_exit_2(tmp_path, capsys, argv, make, path,
                                      prefix, value):
    p = tmp_path / "in.json"
    p.write_text(jsonio.dumps(_with(make(), path, value)))
    code, out, err = run(argv + ["--in", str(p)], capsys)
    assert (code, out, err) == (2, "", "error: %s: %s must be a list, got %s\n"
                                % (prefix, path[-1], type(value).__name__))


def test_rational_center_accepted(tmp_path, capsys):
    doc = _with(_planar_doc(), ("sensors", 0, "center"), ["21/2", "-3/1"])
    p = tmp_path / "in.json"
    p.write_text(jsonio.dumps(doc))
    code, out, _ = run(["plan", "solve", "--in", str(p)], capsys)
    assert code == 0
    p.write_text(jsonio.dumps({"instance": doc, "schedule": json.loads(out)}))
    code, out, _ = run(["plan", "verify", "--in", str(p)], capsys)
    assert code == 0 and json.loads(out)["L"] >= 1


@pytest.mark.parametrize("points, apex_u, apex_v", [
    ([[2, "12/2"], [7, "21/2"], [9, "1/2"]], [24, 5], [6, 0]),
    ([[1, "1/3"], ["5/3", 2], [3, "1/3"]], ["4/3", 5], [2, 0]),
    ([[1, 0], ["4/2", 1], [0, 3]], [0, 5], [-2, 0]),
    ([["12/2", 0], [1, "4/2"], [0, 3]], [0, 5], [-2, 0]),
], ids=["integral-apex", "rational-apex", "int-beside-fraction-x",
        "int-beside-fraction-xy"])
def test_decomp_verify_failing_rational_coloring(tmp_path, capsys, points,
                                                 apex_u, apex_v):
    # color 1 is on one point, so the wedge at the square's vertex 0 just
    # beyond that point's u, open below, misses it but holds point 1 or 2;
    # the apex's sheared coordinates are written exactly: integers, or
    # "p/q" strings.  "4/2" reads as Fraction(2, 1) beside plain ints
    doc = {"polygon": {"vertices": [[0, 0], [2, 0], [2, 2], [0, 2]]},
           "points": points, "k": 1, "colors": [1, 2, None], "T": 2}
    p = tmp_path / "in.json"
    p.write_text(jsonio.dumps(doc))
    code, out, err = run(["decomp", "verify", "--in", str(p)], capsys)
    assert code == 1 and not err
    assert json.loads(out)["checks"][0]["witness"] == {
        "i": 0, "color": 1, "apex_u": apex_u, "apex_v": apex_v}


@st.composite
def rational_colorings(draw):
    """A named polygon, a few points with "p/q" coordinates (denominators
    1 to 9), a level up to one past their count, a vertex, and a partial
    coloring with T in 0..3."""
    poly = polygon(draw(st.sampled_from(sorted(POLYGONS))))
    coord = st.fractions(min_value=-20, max_value=20, max_denominator=9)
    points = draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=8))
    T = draw(st.integers(0, 3))
    colors = draw(st.lists(st.none() | st.integers(1, T + 1),
                           min_size=len(points), max_size=len(points)))
    return dict(jsonio.decomp_instance_to_json(
        poly, points, draw(st.integers(1, len(points) + 1))),
        i=draw(st.integers(0, poly.n - 1)), colors=colors, T=T)


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=rational_colorings())
def test_rational_documents_never_raise(tmp_path, capsys, doc):
    p = tmp_path / "in.json"
    p.write_text(jsonio.dumps(doc))
    for argv in (["decomp", "points"], ["decomp", "verify"],
                 ["plot", "curve", "--format", "json"],
                 ["plot", "coloring"]):
        code, out, err = run(argv + ["--in", str(p)], capsys)
        assert code in (0, 1, 2), argv
        if code == 2:
            assert out == "" and err.startswith("error: ")
            assert err.count("\n") == 1, err
        elif argv[1] == "coloring":
            assert out.startswith("<svg")
        else:
            json.loads(out)


# a schedule that is not an object is an input error for both readers
NOT_OBJECTS = [
    (argv, make, ("schedule",), value)
    for argv, make in ((["plan", "verify"], _plan_both),
                       (["rsc", "verify"], _rsc_both))
    for value in (None, [], -1, "x", True)]


@pytest.mark.parametrize(
    "argv, make, path, value", NOT_OBJECTS,
    ids=["%s:schedule=%s" % ("-".join(argv), json.dumps(value))
         for argv, _, _, value in NOT_OBJECTS])
def test_schedule_not_an_object_exit_2(tmp_path, capsys, argv, make, path,
                                       value):
    _check_exit_2(tmp_path, capsys, argv, make, path, value)


# sensor 0 named twice; were the last start kept, every check would pass
TWICE = [{"id": 0, "t": 4}, {"id": 0, "t": 1}, {"id": 1, "t": 4}]
RSC_TWICE = {"instance": {"m": 2, "sensors": [
    {"id": 0, "l": 1, "r": 2, "d": 3}, {"id": 1, "l": 1, "r": 2, "d": 3}]},
    "schedule": {"assignments": TWICE}}


@pytest.mark.parametrize("argv, doc, prefix", [
    (["rsc", "verify"], RSC_TWICE, "bad schedule"),
    (["plot", "schedule"], RSC_TWICE, "bad schedule"),
    (["plan", "verify"], _with(_plan_both(), ("schedule", "assignments"),
                               TWICE), "bad planar schedule")],
    ids=["rsc-verify", "plot-schedule", "plan-verify"])
def test_sensor_assigned_twice_exit_2(tmp_path, capsys, argv, doc, prefix):
    p = tmp_path / "twice.json"
    p.write_text(jsonio.dumps(doc))
    code, out, err = run(argv + ["--in", str(p)], capsys)
    assert (code, out) == (2, "")
    assert err == "error: %s: sensor 0 assigned twice\n" % prefix


@pytest.mark.parametrize("value", ["false", "true", [1], {"x": 1}, 0, 1,
                                   None])
def test_planar_trivial_must_be_a_boolean(tmp_path, capsys, value):
    """trivial is a JSON boolean or absent (false); nothing else is read as
    one."""
    _check_exit_2(tmp_path, capsys, ["plan", "verify"], _plan_both,
                  ("schedule", "trivial"), value)
    for trivial in (True, False, "absent"):
        doc = _plan_both()
        doc["schedule"]["trivial"] = trivial
        if trivial == "absent":
            del doc["schedule"]["trivial"]
        p = tmp_path / "ok.json"
        p.write_text(jsonio.dumps(doc))
        assert run(["plan", "verify", "--in", str(p)], capsys)[0] in (0, 1)


def test_rsc_oracle_huge_load_exit_2(tmp_path, capsys):
    """The oracle's bitmasks grow with L, so a huge load is refused."""
    doc = {"m": 2, "sensors": [{"id": 0, "l": 1, "r": 2, "d": 10 ** 30}]}
    p = tmp_path / "inst.json"
    p.write_text(jsonio.dumps(doc))
    code, out, err = run(["rsc", "oracle", "--in", str(p)], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_rsc_oracle_huge_duration_beside_small_load(tmp_path, capsys):
    """A duration far above L acts as L in the oracle's search, so its
    bitmasks stay as small as the load."""
    doc = {"m": 2, "sensors": [{"id": 0, "l": 1, "r": 1, "d": 1},
                               {"id": 1, "l": 2, "r": 2, "d": 10 ** 30}]}
    p = tmp_path / "inst.json"
    p.write_text(jsonio.dumps(doc))
    code, out, err = run(["rsc", "oracle", "--in", str(p)], capsys)
    assert (code, err) == (0, "")
    assert json.loads(out) == {"OPT": 1, "M": 1, "L": 1, "pass": True}


@pytest.mark.parametrize("argv", [
    ["gen", "rsc", "--m", "0"],
    ["gen", "rsc", "--m", "-1"],
    ["gen", "rsc", "--d-max", "0"],
    ["gen", "points", "--span", "-1"],
    ["gen", "planar", "--d-max", "0"],
    ["gen", "planar", "--spread", "-1"],
    ["gen", "rsc", "--n", "-1"],
    ["gen", "planar", "--n", "-2"],
    ["gen", "planar", "--universe", "-1"],
    ["gen", "points", "--size", "-3"],
    ["gen", "points", "--k", "0"],
], ids=" ".join)
def test_generator_flag_out_of_range_exit_2(capsys, argv):
    # the one-line error names the flag
    code, out, err = run(argv, capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: %s " % argv[2]), err
    assert err.count("\n") == 1, err


@pytest.mark.parametrize("stop_at", [0, -2])
@pytest.mark.parametrize("command", ["solve", "verify"])
def test_rsc_stop_at_below_one_exit_2(tmp_path, capsys, command, stop_at):
    """The greedy tests its stop only after a pick, so a stop below 1 would
    still assign one sensor, and the verifier would pass that schedule."""
    inst = gen_rsc(0, n=30, m=6)
    one = greedy_schedule(inst, stop_at=0)
    assert len(one.start) == 1
    doc = jsonio.rsc_instance_to_json(inst)
    if command == "verify":
        doc = {"instance": doc, "schedule": jsonio.schedule_to_json(one)}
    p = tmp_path / "doc.json"
    p.write_text(jsonio.dumps(doc))
    code, out, err = run(["rsc", command, "--in", str(p), "--stop-at",
                          str(stop_at)], capsys)
    assert (code, out) == (2, "")
    assert err == "error: --stop-at must be at least 1, got %d\n" % stop_at


@pytest.mark.parametrize("fmt", ["svg", "json"])
@pytest.mark.parametrize("i", [3, -1], ids=["n", "-1"])
def test_plot_curve_vertex_out_of_range_exit_2(tmp_path, capsys, fmt, i):
    # the triangle's vertices are 0..2; no index wraps to another vertex
    bad = tmp_path / "bad.json"
    bad.write_text(jsonio.dumps(dict(_points_doc(), i=i)))
    code, out, err = run(["plot", "curve", "--in", str(bad), "--format",
                          fmt], capsys)
    assert code == 2 and out == ""
    assert err == "error: i must be a vertex index 0..2, got %d\n" % i, err


def test_decomp_verify_cost_ignores_value_of_T(tmp_path, capsys):
    """Colors 1..T are scanned upward until the first missing one, so a
    huge T fails at once, with the witness of T = points + 1."""
    doc = _coloring_doc()
    p = tmp_path / "col.json"
    reports = []
    for T in (len(doc["points"]) + 1, 10 ** 30):
        p.write_text(jsonio.dumps(dict(doc, T=T)))
        t0 = time.perf_counter()
        code, out, _ = run(["decomp", "verify", "--in", str(p)], capsys)
        assert code == 1 and time.perf_counter() - t0 < 1.0
        reports.append(json.loads(out)["checks"])
    assert reports[0] == reports[1]
    assert reports[0][0]["witness"]["color"] == 2


# the flags each subcommand declares, besides -h
FLAGS = {
    ("rsc", "solve"): {"--in", "--out", "--stop-at"},
    ("rsc", "verify"): {"--in", "--out", "--stop-at"},
    ("rsc", "oracle"): {"--in", "--out"},
    ("decomp", "points"): {"--in", "--out"},
    ("decomp", "translates"): {"--in", "--out"},
    ("decomp", "verify"): {"--in", "--out"},
    ("plan", "solve"): {"--in", "--out"},
    ("plan", "verify"): {"--in", "--out"},
    ("gen", "rsc"): {"--out", "--seed", "--n", "--m", "--d-max", "--family"},
    ("gen", "points"): {"--out", "--seed", "--size", "--span", "--k",
                        "--poly"},
    ("gen", "planar"): {"--out", "--seed", "--n", "--d-max", "--spread",
                        "--universe", "--poly"},
    ("plot", "curve"): {"--in", "--out", "--format"},
    ("plot", "coloring"): {"--in", "--out"},
    ("plot", "schedule"): {"--in", "--out"},
}


def _subparsers(parser):
    action = next(a for a in parser._actions
                  if isinstance(a, argparse._SubParsersAction))
    return action.choices


def test_each_subcommand_declares_only_the_flags_it_reads():
    declared = {}
    for group, gp in _subparsers(cli.build_parser()).items():
        for name, p in _subparsers(gp).items():
            declared[group, name] = {opt for a in p._actions
                                     for opt in a.option_strings
                                     if opt.startswith("--")} - {"--help"}
    assert declared == FLAGS
    assert sum(map(len, FLAGS.values())) == 44


@pytest.mark.parametrize("argv", [
    ["decomp", "points", "--seed", "5"],
    ["decomp", "points", "--stop-at", "3"],
    ["decomp", "points", "--format", "svg"],
    ["gen", "rsc", "--in", "x.json"],
    ["plan", "solve", "--stop-at", "3"],
    ["plot", "coloring", "--format", "json"],
    ["rsc", "oracle", "--stop-at", "3"],
], ids="-".join)
def test_undeclared_flag_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_readme_library_example_runs():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


# a valid value for each flag, and values that some flags refuse
FLAG_VALUES = {"--in": "in.json", "--out": "out.json", "--stop-at": "3",
               "--seed": "5", "--n": "10", "--m": "4", "--d-max": "3",
               "--family": "nested", "--size": "5", "--span": "9",
               "--k": "7", "--poly": "square", "--spread": "2",
               "--universe": "4", "--format": "json"}
BAD_VALUES = ["x", "1.5", "-1", "", "bogus"]


def _argv_corpus(group, command, flags):
    """(argv, whether it is valid) for one subcommand."""
    head = [group, command]
    every = [word for flag in sorted(flags)
             for word in (flag, FLAG_VALUES[flag])]
    yield head, True
    yield head + every, True
    yield head + every + every[:2], True
    for flag in sorted(flags):
        value = FLAG_VALUES[flag]
        yield head + [flag, value], True
        yield head + [flag + "=" + value], True
        yield head + [flag[:4], value], True
        yield head + [flag], False
        yield head + [flag, value, "-h"], False
        for bad in BAD_VALUES:
            yield head + [flag, bad], None
    for tail in (["--bogus"], ["extra"], ["-h"], ["--help"], ["--h"],
                 ["--in", "-h"], ["--", "x"], ["--"], ["--s", "1"],
                 ["--seed", "1"], ["--stop-at", "1"], ["--in"]):
        yield head + tail, None


def _parse_outcome(parse, argv, capsys):
    try:
        args = vars(parse(argv))
        result = {k: v for k, v in args.items()
                  if k not in ("group", "command")}
    except SystemExit as exc:
        result = exc.code
    out = capsys.readouterr()
    return result, out.out, out.err


@pytest.mark.parametrize("key", sorted(FLAGS), ids="-".join)
def test_one_command_parser_matches_full_parser(key, capsys, monkeypatch):
    """main parses a command line with its subcommand's parser alone, and
    only leftover arguments with the whole parser: the arguments, exit
    code, usage, help and error text are those of build_parser(), and a
    valid command line never builds the whole parser."""
    calls = []
    whole = cli.build_parser
    monkeypatch.setattr(cli, "build_parser",
                        lambda: calls.append(1) or whole())
    for argv, valid in _argv_corpus(*key, FLAGS[key]):
        calls.clear()
        got = _parse_outcome(cli._parse_args, argv, capsys)
        if valid:
            assert not calls and type(got[0]) is dict, argv
        want = _parse_outcome(whole().parse_args, argv, capsys)
        assert got == want, argv


def _paths(node, path=()):
    """Every path into a JSON document, the root's () first."""
    yield path
    if isinstance(node, dict):
        for key in sorted(node):
            yield from _paths(node[key], path + (key,))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from _paths(child, path + (i,))


def _tiny_rsc_doc():
    return jsonio.rsc_instance_to_json(gen_rsc(6, n=6, m=6, d_max=4))


def _tiny_rsc_both():
    inst = gen_rsc(6, n=6, m=6, d_max=4)
    return {"instance": jsonio.rsc_instance_to_json(inst),
            "schedule": jsonio.schedule_to_json(greedy_schedule(inst))}


def _tiny_points_doc():
    return jsonio.decomp_instance_to_json(polygon("triangle"),
                                          gen_points(1, size=6, span=10), 3)


def _tiny_coloring_doc():
    return dict(_tiny_points_doc(), colors=[1, 2, 1, 2, 1, 2], T=2)


FUZZ_TARGETS = [(["plan", "solve"], _planar_doc),
                (["plan", "verify"], _plan_both),
                (["decomp", "points"], _points_doc),
                (["decomp", "verify"], _coloring_doc),
                (["decomp", "translates"], _translates_doc),
                (["rsc", "solve"], _tiny_rsc_doc),
                (["rsc", "verify"], _tiny_rsc_both),
                (["rsc", "oracle"], _tiny_rsc_doc),
                (["plot", "curve"], _tiny_points_doc),
                (["plot", "coloring"], _tiny_coloring_doc),
                (["plot", "schedule"], _tiny_rsc_both)]


FUZZ_VALUES = [None, True, False, "x", "1/2", "-3/1", 1.5, [], {}, [1],
               0, -1, 10 ** 30, -10 ** 30, 10 ** 400]


@st.composite
def mutated_documents(draw):
    """A valid input of one of `plan solve|verify`, `decomp
    points|verify|translates`, `rsc solve|verify|oracle` and `plot
    curve|coloring|schedule`, with one to three mutations at random
    paths: a value of another type, a negated or zeroed number, a huge
    integer, or a removed key or list element."""
    argv, make = draw(st.sampled_from(FUZZ_TARGETS))
    doc = json.loads(json.dumps(make()))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        value = copy.deepcopy(draw(st.sampled_from(FUZZ_VALUES)))
        if not path:
            doc = value
            break
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        old = parent[path[-1]]
        how = draw(st.sampled_from(["value", "sign", "drop"]))
        if how == "drop":
            del parent[path[-1]]
        elif how == "sign" and type(old) is int:
            parent[path[-1]] = draw(st.sampled_from(
                [-old, 0, old * 10 ** 30, old * 10 ** 400]))
        else:
            parent[path[-1]] = value
    return argv, doc


@settings(max_examples=500, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=mutated_documents())
def test_mutated_documents_exit_cleanly(tmp_path, capsys, case):
    # a result (0), a failed check (1) or a one-line input error (2),
    # never an uncaught exception
    argv, doc = case
    p = tmp_path / "in.json"
    p.write_text(json.dumps(doc))
    code, out, err = run(argv + ["--in", str(p)], capsys)
    assert code in (0, 1, 2), (argv, doc)
    if code == 2:
        assert out == "" and err.startswith("error: ")
        assert err.count("\n") == 1, err
    elif argv[0] == "plot":
        assert out.startswith("<svg") and out.rstrip().endswith("</svg>")
    else:
        json.loads(out)


@pytest.mark.parametrize("argv, make, path", [
    (["decomp", "points"], _points_doc, ("points", 0)),
    (["decomp", "translates"], _translates_doc, ("centers", 0)),
    (["plan", "solve"], _planar_doc, ("sensors", 0, "center")),
], ids=["decomp-points", "decomp-translates", "plan-solve"])
def test_coordinate_beyond_floats_solves(tmp_path, capsys, argv, make, path):
    # exact ints throughout: no key or walk coordinate meets a float
    p = tmp_path / "in.json"
    p.write_text(json.dumps(_with(make(), path, [10 ** 400, -10 ** 400])))
    code, out, err = run(argv + ["--in", str(p)], capsys)
    assert (code, err) == (0, "")
    json.loads(out)


# -- the collector pause ----------------------------------------------------

_FAILING_COLORING = {"polygon": {"vertices": [[0, 0], [2, 0], [2, 2], [0, 2]]},
                     "points": [[2, 6], [7, 10], [9, 1]], "k": 1,
                     "colors": [1, 2, None], "T": 2}


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize("argv, doc, want", [
    (["gen", "rsc", "--n", "3"], None, 0),
    (["decomp", "verify"], _FAILING_COLORING, 1),
    (["rsc", "solve"], "{ this is not json", 2),
    (["rsc", "solve", "--bogus"], None, ("exit", 2)),
    (["rsc", "solve", "-h"], None, ("exit", 0)),
], ids=["return-0", "return-1", "return-2", "usage-error", "help"])
def test_main_leaves_the_collector_as_it_found_it(
        tmp_path, capsys, monkeypatch, enabled, argv, doc, want):
    # main pauses the collector through the whole command, the write too,
    # and on every way out enables it again only if it was enabled
    if doc is not None:
        p = tmp_path / "in.json"
        p.write_text(doc if isinstance(doc, str) else jsonio.dumps(doc))
        argv = argv + ["--in", str(p)]
    during = []
    real_write = cli._write

    def write(args, text):
        during.append(gc.isenabled())
        real_write(args, text)

    monkeypatch.setattr(cli, "_write", write)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        try:
            got = cli.main(argv)
        except SystemExit as exc:
            got = ("exit", exc.code)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    capsys.readouterr()
    assert got == want
    assert during == ([False] if want in (0, 1) else [])


def _command_inputs(scale):
    """For every subcommand in cli.COMMANDS, its flags and the document
    it reads (None for a generator), at a size that grows with scale.
    The oracle refuses more than 8 sensors, so its size is 4 or 8."""
    inst = gen_rsc(5, n=40 * scale, m=40 * scale)
    rsc_both = {"instance": jsonio.rsc_instance_to_json(inst),
                "schedule": jsonio.schedule_to_json(greedy_schedule(inst))}
    poly = polygon("triangle")
    points = gen_points(1, size=120 * scale, span=20)
    points_doc = jsonio.decomp_instance_to_json(poly, points, 96)
    asg, trace = decompose_points(poly, points, 96)
    coloring = points_doc | jsonio.coloring_to_json(asg, len(points), trace)
    planar = gen_planar(2, n_sensors=60 * scale)
    n = str(20 * scale)
    return {
        ("rsc", "solve"): ([], rsc_both["instance"]),
        ("rsc", "verify"): ([], rsc_both),
        ("rsc", "oracle"): ([], jsonio.rsc_instance_to_json(gen_rsc(
            5, n=4 * min(scale, 2), m=4 * min(scale, 2), d_max=4))),
        ("decomp", "points"): ([], points_doc),
        ("decomp", "translates"): ([], {"polygon": points_doc["polygon"],
                                        "centers": points_doc["points"],
                                        "k": 8}),
        ("decomp", "verify"): ([], coloring),
        ("plan", "solve"): ([], jsonio.planar_instance_to_json(planar)),
        ("plan", "verify"): ([], {
            "instance": jsonio.planar_instance_to_json(planar),
            "schedule": jsonio.planar_schedule_to_json(
                plan_schedule(planar))}),
        ("gen", "rsc"): (["--n", n, "--m", n], None),
        ("gen", "points"): (["--size", n], None),
        ("gen", "planar"): (["--n", n], None),
        ("plot", "curve"): ([], points_doc),
        ("plot", "coloring"): ([], coloring),
        ("plot", "schedule"): ([], rsc_both),
    }


# Measured: 22 to 47 objects per command (the one-command parser's own
# cycles: 42 and 47 for the generators, whose parsers declare more
# flags), the same at 1x and 10x.  The bound leaves 17 over the largest.
CYCLIC_GARBAGE_BOUND = 64


def test_paused_commands_leave_no_growing_cyclic_garbage(tmp_path):
    # with the collector paused, what a command leaves for it is the
    # parser's few cycles: reference counting frees the rest, so the pause
    # holds no memory that grows with the input
    found = {}
    for scale in (1, 10):
        inputs = _command_inputs(scale)
        assert sorted(inputs) == sorted(
            (group, name) for group, commands in cli.COMMANDS.items()
            for name in commands)
        for (group, name), (flags, doc) in inputs.items():
            argv = [group, name, *flags, "--out", str(tmp_path / "out")]
            if doc is not None:
                (tmp_path / "in").write_text(jsonio.dumps(doc))
                argv += ["--in", str(tmp_path / "in")]
            was = gc.isenabled()
            gc.collect()
            gc.disable()
            try:
                assert cli.main(argv) == 0, argv
                found.setdefault((group, name), []).append(gc.collect())
            finally:
                if was:
                    gc.enable()
    for key, (small, large) in found.items():
        assert small == large <= CYCLIC_GARBAGE_BOUND, (key, small, large)


def test_module_entry_point_matches_main(tmp_path, capsys):
    # python -m coverplex.cli, in a process of its own, writes main's bytes
    # and turns a malformed document into one error line, no traceback
    src = str(Path(cli.__file__).resolve().parents[1])
    doc = tmp_path / "in.json"
    doc.write_text(jsonio.dumps(jsonio.rsc_instance_to_json(
        gen_rsc(3, n=30, m=30))))
    bad = tmp_path / "bad.json"
    bad.write_text('{"m": 3, "sensors": [')

    def entry(path):
        return subprocess.run(
            [sys.executable, "-m", "coverplex.cli", "rsc", "solve",
             "--in", str(path)], capture_output=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=src))

    code, out, err = run(["rsc", "solve", "--in", str(doc)], capsys)
    proc = entry(doc)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        code, out.encode(), err.encode()) and code == 0
    proc = entry(bad)
    assert proc.returncode == 2 and proc.stdout == b""
    assert proc.stderr.startswith(b"error: ")
    assert proc.stderr.count(b"\n") == 1, proc.stderr
    assert b"Traceback" not in proc.stderr


# every turn strictly left, but the edges turn around twice
PENTAGRAM = [[0, 0], [5, 3], [-1, 3], [4, 0], [2, 5]]
POLYGON_READERS = [
    (["decomp", "points"], _points_doc, ("polygon", "vertices")),
    (["decomp", "translates"], _translates_doc, ("polygon", "vertices")),
    (["decomp", "verify"], _coloring_doc, ("polygon", "vertices")),
    (["plan", "solve"], _planar_doc, ("polygon", "vertices")),
    (["plan", "verify"], _plan_both, ("instance", "polygon", "vertices")),
    (["plot", "curve"], _points_doc, ("polygon", "vertices")),
]


@pytest.mark.parametrize(
    "argv, make, path", POLYGON_READERS,
    ids=["-".join(argv) for argv, _, _ in POLYGON_READERS])
def test_star_polygon_exit_2(tmp_path, capsys, argv, make, path):
    _check_exit_2(tmp_path, capsys, argv, make, path, PENTAGRAM)


def _one_error_line(code, out, err):
    return (code == 2 and out == "" and err.startswith("error: ")
            and err.count("\n") == 1 and "Traceback" not in err)


@pytest.mark.parametrize("text", [
    "[" * 200000 + "]" * 200000,
    '{"a": ' * 100000 + "1" + "}" * 100000,
    '{"m": 3, "sensors": ' + "[" * 100000 + "]" * 100000 + "}",
], ids=["arrays", "objects", "inside-a-document"])
def test_deeply_nested_json_exit_2(tmp_path, capsys, text):
    p = tmp_path / "deep.json"
    p.write_text(text)
    readers = [[group, name] for group, commands in cli.COMMANDS.items()
               for name, (_, flags) in commands.items()
               if any("--in" in names for names, _ in flags)]
    assert len(readers) == 11
    for argv in readers:
        result = run(argv + ["--in", str(p)], capsys)
        assert _one_error_line(*result), (argv, result)


def test_unwritable_output_exit_2(tmp_path, capsys):
    # every subcommand writes --out, after its work succeeds on good input
    (tmp_path / "dir").mkdir()
    for (group, name), (flags, doc) in _command_inputs(1).items():
        argv = [group, name, *flags]
        if doc is not None:
            (tmp_path / "in").write_text(jsonio.dumps(doc))
            argv += ["--in", str(tmp_path / "in")]
        for out in (tmp_path / "missing" / "out.json", tmp_path / "dir"):
            result = run(argv + ["--out", str(out)], capsys)
            assert _one_error_line(*result), (argv, out, result)
            assert str(out) in result[2]
    assert not (tmp_path / "missing").exists()
    assert list((tmp_path / "dir").iterdir()) == []


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="no /dev/full device")
def test_full_stdout_exit_2(tmp_path):
    # a failed write to stdout, in the command's write or in the exit
    # flush of a small output, is one error line and exit 2; stdout is
    # block-buffered, as by default, so some output waits for that flush
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    inputs = _command_inputs(1)
    for key, extra in ((("rsc", "solve"), []), (("plot", "schedule"), []),
                       (("gen", "rsc"), ["--n", "3", "--m", "3"]),
                       (("gen", "rsc"), ["--n", "3000"])):
        flags, doc = inputs[key]
        argv = [*key, *flags, *extra]
        if doc is not None:
            (tmp_path / "in").write_text(jsonio.dumps(doc))
            argv += ["--in", str(tmp_path / "in")]
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "coverplex.cli", *argv], stdout=full,
                stderr=subprocess.PIPE, timeout=60,
                env=dict(env, PYTHONPATH=src))
        err = proc.stderr.decode()
        assert _one_error_line(proc.returncode, "", err), (argv, err)
        assert "[Errno %d]" % errno.ENOSPC in err, (argv, err)
