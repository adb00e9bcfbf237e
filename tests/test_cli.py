import json
import time
from fractions import Fraction

import pytest

from coverplex import cli, jsonio
from coverplex.generate import gen_planar, gen_rsc, gen_points, polygon
from coverplex.rsc import Schedule, greedy_schedule


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


def test_dumps_byte_stable():
    doc = {"b": 2, "a": [1, "8/3"], "c": {"y": 0, "x": 1}}
    assert jsonio.dumps(doc) == jsonio.dumps(json.loads(jsonio.dumps(doc)))
    assert jsonio.dumps(doc).endswith("\n")


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


def test_rational_center_accepted(tmp_path, capsys):
    doc = _with(_planar_doc(), ("sensors", 0, "center"), ["21/2", "-3/1"])
    p = tmp_path / "in.json"
    p.write_text(jsonio.dumps(doc))
    code, out, _ = run(["plan", "solve", "--in", str(p)], capsys)
    assert code == 0
    p.write_text(jsonio.dumps({"instance": doc, "schedule": json.loads(out)}))
    code, out, _ = run(["plan", "verify", "--in", str(p)], capsys)
    assert code == 0 and json.loads(out)["L"] >= 1
