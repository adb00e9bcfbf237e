"""Reference oracles shared by the tests: plain formulas that the library's
fast paths are checked against."""

from bisect import bisect_left

from coverplex.levelcurve import _Fenwick


def dominance_loads(positions, items):
    """Load (weight of dominating points) at each position, via one sweep.

    positions: list of ((u),(v)) pairs; items: (U, V, pid, w).  Returns a
    list parallel to positions.
    """
    vs = sorted(it[1] for it in items)
    fw = _Fenwick(len(vs))
    by_u = sorted(range(len(items)), key=lambda k: items[k][0], reverse=True)
    order = sorted(range(len(positions)), key=lambda k: positions[k][0],
                   reverse=True)
    loads = [0] * len(positions)
    ptr = 0
    total = 0
    for k in order:
        u, v = positions[k]
        while ptr < len(by_u) and items[by_u[ptr]][0] >= u:
            it = items[by_u[ptr]]
            fw.add(bisect_left(vs, it[1]), it[3])
            total += it[3]
            ptr += 1
        lo_rank = bisect_left(vs, v)
        loads[k] = total - fw.prefix(lo_rank)
    return loads
