"""Golden digests: sha256 of the CLI output on small fixed seeds.

A change that alters any of these outputs must update the digest here and
name the output change in CHANGES.md.
"""

import hashlib
import random

import pytest

from coverplex import cli, cover, jsonio, planar, rsc
from coverplex.generate import gen_planar, gen_points, gen_rsc, polygon

POLY_NAMES = ("triangle", "square", "hexagon")


def _points(seed):
    """Criterion-8 family: k = 256n, k + k/8 points over a 60 square."""
    poly = polygon(POLY_NAMES[seed % 3])
    k = 256 * poly.n
    pts = gen_points(seed, size=k + k // 8, span=60)
    return jsonio.decomp_instance_to_json(poly, pts, k)


def _small_points():
    """Below the 64n threshold: T = 0 and every record has t = 0."""
    return jsonio.decomp_instance_to_json(
        polygon("triangle"), gen_points(4, size=200, span=80), 100)


def _planar(seed, n):
    return jsonio.planar_instance_to_json(
        gen_planar(seed, n_sensors=n, d_max=7, spread=2, universe_size=5))


def _unit_centers(seed, k):
    inst = gen_planar(seed, n_sensors=1500, d_max=1, spread=2,
                      universe_size=4)
    return {"polygon": jsonio.polygon_to_json(inst.polygon),
            "centers": [jsonio.point_to_json(s.center)
                        for s in inst.sensors],
            "k": k}


def _heavy_centers():
    """8,000 triangle translates on a 2 x 2 cluster at k = 7,200: one cell
    with T = 2, so the classes path runs (classes of 7,981 and 19)."""
    rng = random.Random(5)
    centers = [(10 + rng.randint(0, 1), 10 + rng.randint(0, 1))
               for _ in range(8000)]
    return {"polygon": jsonio.polygon_to_json(polygon("triangle")),
            "centers": [jsonio.point_to_json(c) for c in centers],
            "k": 7200}


def _spread_centers():
    """Unit-duration centers over spread 8 at k = 600: 36 cells, 3 of them
    skipped as lighter than k_cell."""
    inst = gen_planar(3, n_sensors=3000, d_max=1, spread=8, universe_size=4)
    return {"polygon": jsonio.polygon_to_json(inst.polygon),
            "centers": [jsonio.point_to_json(s.center)
                        for s in inst.sensors],
            "k": 600}


def _rsc(seed, n, m, d_max):
    return jsonio.rsc_instance_to_json(gen_rsc(seed, n=n, m=m, d_max=d_max))


def _rsc_both(seed, n, m, d_max, stop_at=None, all_at_1=False):
    """{instance, schedule} with the greedy's schedule, as `rsc solve` writes
    it, or with every sensor started at t = 1 (a failing schedule)."""
    inst = gen_rsc(seed, n=n, m=m, d_max=d_max)
    if all_at_1:
        sched = rsc.Schedule(start={s.id: 1 for s in inst.sensors})
    else:
        sched = rsc.greedy_schedule(inst, stop_at=stop_at)
    return {"instance": jsonio.rsc_instance_to_json(inst),
            "schedule": jsonio.schedule_to_json(
                sched, M=rsc.duration(sched, inst), L=rsc.load(inst)[1])}


def _curve(name, seed, k, **where):
    """A small point set with the level-r curve fields of `plot curve`."""
    return dict(jsonio.decomp_instance_to_json(
        polygon(name), gen_points(seed, size=40, span=20), k), **where)


def _colored(T_extra=0, drop=None):
    """A decomposition with T >= 1 merged into its instance, as `decomp
    verify` and `plot coloring` read it; `drop` uncolors one color and
    `T_extra` claims colors that no point has."""
    poly, pts, k = polygon("triangle"), gen_points(2, size=450, span=40), 400
    asg, _ = cover.decompose_points(poly, pts, k)
    doc = jsonio.decomp_instance_to_json(poly, pts, k)
    doc |= jsonio.coloring_to_json(asg, len(pts))
    doc["colors"] = [None if c == drop else c for c in doc["colors"]]
    doc["T"] += T_extra
    return doc


def _rsc_scheduled(seed, n, m, d_max):
    inst = gen_rsc(seed, n=n, m=m, d_max=d_max)
    return {"instance": jsonio.rsc_instance_to_json(inst),
            "schedule": jsonio.schedule_to_json(rsc.greedy_schedule(inst))}


def _plan_both(seed, n, all_at_1=False):
    inst = gen_planar(seed, n_sensors=n, d_max=7, spread=2, universe_size=5)
    if all_at_1:
        sched = planar.PlanarSchedule(start={s.id: 1 for s in inst.sensors})
    else:
        sched = planar.plan_schedule(inst)
    return {"instance": jsonio.planar_instance_to_json(inst),
            "schedule": jsonio.planar_schedule_to_json(sched)}


# rsc-dense parameters, one rsc-long-style instance (durations up to 20,000)
# and one stopped run
DENSE = (2000, 100, 8)
LONG = (60, 10, 20000)

CASES = {
    "decomp-points-0": (
        ["decomp", "points"], lambda: _points(0),
        "2cc7f10daa1476b865dd6ff0ded7697715f766803453eeaa91c6840d98204e25"),
    "decomp-points-1": (
        ["decomp", "points"], lambda: _points(1),
        "21eb324e662b1a866b7347c61b9a4c597371db435cfe3b44ab2d9da0d4c6e325"),
    "decomp-points-2": (
        ["decomp", "points"], lambda: _points(2),
        "5e11c6b6068b1851fd65b908dc1968515c44254839f48fc33feac0a14f5154f8"),
    "decomp-points-below-threshold": (
        ["decomp", "points"], _small_points,
        "64b9cc43cf5ba7971abb99b840ddf81583734052bf86845cd254cb9c81141c51"),
    "plan-solve-0": (
        ["plan", "solve"], lambda: _planar(0, 2600),
        "5e9cfcad0c67803771e9a8e461e9e46a101c08bcabbcd35b0f93a2b851d6250c"),
    "plan-solve-1-small": (
        ["plan", "solve"], lambda: _planar(1, 400),
        "240d1e985da2f8de595f1bdab58712600f313914a35ba6ab190ea242d3ae725a"),
    "decomp-translates-20-300": (
        ["decomp", "translates"], lambda: _unit_centers(20, 300),
        "bebef89b66becf07405f82ee0ca7161a8f5263a70b1e07417c4f0d1565f36450"),
    "decomp-translates-20-1200": (
        ["decomp", "translates"], lambda: _unit_centers(20, 1200),
        "729c69bf1da6eb71831c431248fa048d347f234fa145ff50bb52101420271b84"),
    "decomp-translates-21-300": (
        ["decomp", "translates"], lambda: _unit_centers(21, 300),
        "b2b3ace3c3f71e4730a172bc6e928d33e7d160be4643fa3f3c7f7590fa960fbb"),
    "decomp-translates-21-1200": (
        ["decomp", "translates"], lambda: _unit_centers(21, 1200),
        "086d1a3d620289b0fa3c24dbdbcf20ae6086bbafb270f3a3da3e026f3703edd5"),
    "decomp-translates-heavy-7200": (
        ["decomp", "translates"], _heavy_centers,
        "a66c58b314f1abc4cbd19e7ecbca0031c3dac9199f8ee870c92b2f2b62602d5f"),
    "decomp-translates-spread-600": (
        ["decomp", "translates"], _spread_centers,
        "fd20af9c92fe090b082afc4f09db5c113bd3846badea0ededfdaed26cbbb9053"),
    "rsc-solve-dense-0": (
        ["rsc", "solve"], lambda: _rsc(0, *DENSE),
        "31962ac028b50a49c400af6ef1be2fbc2785c95b05a95bc7e5c9693d0a27df3e"),
    "rsc-solve-dense-1": (
        ["rsc", "solve"], lambda: _rsc(1, *DENSE),
        "29cfba25b654f4841dd824d59235a8d484785deaf692e4fed9fc612a0e044d30"),
    "rsc-solve-long-0": (
        ["rsc", "solve"], lambda: _rsc(0, *LONG),
        "f0fe1cf527964b05d2cf82c7d5b7bd4475fe101453711c7909fb3a635e8d0ae1"),
    "rsc-solve-dense-0-stop-at-20": (
        ["rsc", "solve", "--stop-at", "20"], lambda: _rsc(0, *DENSE),
        "4bac19f35d55cb6aa6caa0dda4a3278b4451b9659bb4cb5da398e5b115fa5838"),
    "rsc-verify-dense-0": (
        ["rsc", "verify"], lambda: _rsc_both(0, *DENSE),
        "816115b302552c0747f8f5eb2237fc80e3db394194640d1e88259e213c9025db"),
    "rsc-verify-dense-1": (
        ["rsc", "verify"], lambda: _rsc_both(1, *DENSE),
        "816115b302552c0747f8f5eb2237fc80e3db394194640d1e88259e213c9025db"),
    "rsc-verify-long-0": (
        ["rsc", "verify"], lambda: _rsc_both(0, *LONG),
        "816115b302552c0747f8f5eb2237fc80e3db394194640d1e88259e213c9025db"),
    "rsc-verify-dense-0-stop-at-20": (
        ["rsc", "verify", "--stop-at", "20"],
        lambda: _rsc_both(0, *DENSE, stop_at=20),
        "91133e1f1fad578cbe774c902bb2388f914a8a876ab9c613b6d3d55c106fc777"),
    "rsc-verify-dense-0-all-at-1": (
        ["rsc", "verify"], lambda: _rsc_both(0, *DENSE, all_at_1=True),
        "362d4ca8657408851dde80d223019a7da4fd7e5a255dab576f9c855aec5d3e7f"),
    "rsc-verify-long-0-all-at-1": (
        ["rsc", "verify"], lambda: _rsc_both(0, *LONG, all_at_1=True),
        "b851faf9e124b503f773dad09a9988266fd64011df100fd3a0d515f1a0f71252"),
    # generators write their instance without reading one (make is None)
    "gen-rsc-7": (
        ["gen", "rsc", "--seed", "7", "--n", "20", "--m", "15"], None,
        "2dea8b9d08663e8a571be2b5120082a1d22070bbbc2852c0dad1957041598027"),
    "gen-rsc-nested-3": (
        ["gen", "rsc", "--seed", "3", "--family", "nested", "--d-max", "9"],
        None,
        "7cc6141c2d4f8013788f7c1fdb1f4ee7a499eccdc28dcef71468cec19e282d6b"),
    "gen-points-1-square": (
        ["gen", "points", "--seed", "1", "--size", "80", "--span", "30",
         "--k", "12", "--poly", "square"], None,
        "988f4dbdd508483c4792cd9da1a265080dd86c1ce99de64fa811bb276eac0c6f"),
    "gen-planar-9": (
        ["gen", "planar", "--seed", "9", "--n", "80"], None,
        "358f5f57614f2571b3c480b6b42435aef5098e60b6b03a709a2d6de7e9767920"),
    "gen-planar-4-hexagon": (
        ["gen", "planar", "--seed", "4", "--n", "50", "--d-max", "6",
         "--spread", "3", "--universe", "7", "--poly", "hexagon"], None,
        "495bd9a43879315a96d709d5d48cb425a4731a6b4b1188fc2ab93dee315a22e6"),
    # a few hundred records each: the tables that jsonio.dumps writes
    "gen-rsc-11-300": (
        ["gen", "rsc", "--seed", "11", "--n", "300", "--m", "60",
         "--d-max", "9"], None,
        "2ed53df8f2c7c2446bef2b5eabe32e0fe151237271afa5879cfa45c82b4a5518"),
    "gen-rsc-nested-12-300": (
        ["gen", "rsc", "--seed", "12", "--n", "300", "--m", "400",
         "--d-max", "20", "--family", "nested"], None,
        "f927a484ad4539c83da891f9f419dc7ce2a2c72c0cb7520024569b61f9ac45a8"),
    "gen-points-13-300-hexagon": (
        ["gen", "points", "--seed", "13", "--size", "300", "--span", "50",
         "--k", "120", "--poly", "hexagon"], None,
        "9c24d4dc7d9cc17a849418bec5491f2cb6c006c4438935100249f1feb795c015"),
    "gen-planar-14-300-square": (
        ["gen", "planar", "--seed", "14", "--n", "300", "--d-max", "8",
         "--spread", "4", "--universe", "40", "--poly", "square"], None,
        "0826776cbf1320f318c44db04cb5e4246d467cbd2dc2d04244bf743345a59fcb"),
    "plot-curve-svg": (
        ["plot", "curve"], lambda: _curve("triangle", 4, 10),
        "cc87fe1608c991aed32c88a1f28bb53f446ca91ca13e6ea31078014a3b290f91"),
    "plot-curve-json": (
        ["plot", "curve", "--format", "json"],
        lambda: _curve("triangle", 4, 10),
        "b7adf02c8209e14c5d5e1de12d8d62e58ce75d9c4359385651027e3f838e6775"),
    "plot-curve-svg-hexagon-i2-r5": (
        ["plot", "curve", "--format", "svg"],
        lambda: _curve("hexagon", 6, 30, i=2, r=5),
        "972b638f0d3f3bcc3403373568ec42536ce02f7634442881b89cd5895299877d"),
    "plot-curve-json-hexagon-i2-r5": (
        ["plot", "curve", "--format", "json"],
        lambda: _curve("hexagon", 6, 30, i=2, r=5),
        "22bbb0b6503c6d47490b028a3e0d95dddd740bde78669066a127d70fea5d4938"),
    "plot-coloring": (
        ["plot", "coloring"], _colored,
        "73a05f18948ed1fb7cffcdcb62a61883f27d96edb10c2e492450324418f6a21d"),
    "plot-schedule": (
        ["plot", "schedule"], lambda: _rsc_scheduled(8, 10, 8, 4),
        "af3432a19bce647fdef5b98d3fe5a01309d23221f2dc2be8b87b9ecd2b8be71e"),
    "rsc-oracle-1": (
        ["rsc", "oracle"], lambda: _rsc(1, 6, 6, 5),
        "264dc8864614e35c5f8ca5303be4845a938ebd160f62422a7fa191f28762b1ea"),
    "rsc-oracle-5": (
        ["rsc", "oracle"], lambda: _rsc(5, 7, 5, 4),
        "1030f96a11c5c7a01e2ab4dc9dec1856c730ff9489035cfad9ec9be5d1d8fd52"),
    "decomp-verify": (
        ["decomp", "verify"], _colored,
        "e411a20f03cd8f2351a1437b239c4d1b6529f5ea701533a8ba12b0562cee8c74"),
    "decomp-verify-color-1-dropped": (
        ["decomp", "verify"], lambda: _colored(drop=1),
        "ae7f82fbf762a1250c6f0c96f096f89696f7d00b1e2bd40445208c1e503cbbcd"),
    "decomp-verify-T-plus-2": (
        ["decomp", "verify"], lambda: _colored(T_extra=2),
        "6cf1dcdeeb25d8e3c8ffcef5e39df6ebf5240d8f87f085d6908e1f33ca904dee"),
    "plan-verify-1-small": (
        ["plan", "verify"], lambda: _plan_both(1, 400),
        "513fc8514de152a668c7cfef822ff4c3af4c56640a4c58c4ddeb57586c2fbf9f"),
    "plan-verify-1-small-all-at-1": (
        ["plan", "verify"], lambda: _plan_both(1, 400, all_at_1=True),
        "2b87df308a287761e0a53078c88b3f35507a0556aa109646786611b0a80b2aed"),
}


# outputs that fail verification (exit 1) with witnesses in the digest
FAILING = {"rsc-verify-dense-0-all-at-1", "rsc-verify-long-0-all-at-1",
           "decomp-verify-color-1-dropped", "decomp-verify-T-plus-2"}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_digest(name, tmp_path, capsys):
    argv, make, digest = CASES[name]
    if make is not None:
        path = tmp_path / "in.json"
        path.write_text(jsonio.dumps(make()))
        argv = argv + ["--in", str(path)]
    code = cli.main(argv)
    out = capsys.readouterr().out
    assert code == (1 if name in FAILING else 0)
    assert hashlib.sha256(out.encode()).hexdigest() == digest
