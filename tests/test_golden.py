"""Golden digests: sha256 of the CLI output on small fixed seeds.

A change that alters any of these outputs must update the digest here and
name the output change in CHANGES.md.
"""

import hashlib

import pytest

from coverplex import cli, jsonio
from coverplex import rsc
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
        "a16c58d5cd01cb861c2b3cefa45b098167a3db5a664d798c483e1a31f769f87c"),
    "rsc-verify-dense-1": (
        ["rsc", "verify"], lambda: _rsc_both(1, *DENSE),
        "a16c58d5cd01cb861c2b3cefa45b098167a3db5a664d798c483e1a31f769f87c"),
    "rsc-verify-long-0": (
        ["rsc", "verify"], lambda: _rsc_both(0, *LONG),
        "a16c58d5cd01cb861c2b3cefa45b098167a3db5a664d798c483e1a31f769f87c"),
    "rsc-verify-dense-0-stop-at-20": (
        ["rsc", "verify", "--stop-at", "20"],
        lambda: _rsc_both(0, *DENSE, stop_at=20),
        "138e23fd2cafd4bac4bc0f83226d0452e4b0d7c65a3839a30fd4713646963a31"),
    "rsc-verify-dense-0-all-at-1": (
        ["rsc", "verify"], lambda: _rsc_both(0, *DENSE, all_at_1=True),
        "6bbbd9ab6971de2d33276fd8a2b830e65513a29b66a3df7af6abc293b71908f3"),
    "rsc-verify-long-0-all-at-1": (
        ["rsc", "verify"], lambda: _rsc_both(0, *LONG, all_at_1=True),
        "42f4a262cfaed71499f2e1048f9bed1769087fdf15c4ae23313abc5ee4ecfe9d"),
}


# schedules that fail verification (exit 1) with witnesses in the digest
FAILING = {"rsc-verify-dense-0-all-at-1", "rsc-verify-long-0-all-at-1"}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_digest(name, tmp_path, capsys):
    argv, make, digest = CASES[name]
    path = tmp_path / "in.json"
    path.write_text(jsonio.dumps(make()))
    code = cli.main(argv + ["--in", str(path)])
    out = capsys.readouterr().out
    assert code == (1 if name in FAILING else 0)
    assert hashlib.sha256(out.encode()).hexdigest() == digest
