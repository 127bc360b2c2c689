"""Lattice construction, validation, path metrics (with an independent
cycle-enumeration oracle) and field masks."""

import itertools
import math
from collections import deque

import numpy as np
import pytest

import surfcode as sc
from surfcode.lattice import (LatticeError, _hop_crosses_ray,
                              _shortest_enclosing_loop, _vortex_graph,
                              build_lattice, cell_parity, field_mask,
                              path_metrics, region_sites)


def test_torus_4x4_counts():
    lat = build_lattice(4, 4, "torus")
    assert lat.n_sites == 16
    even = [p for p in lat.plaquettes if p.parity == 0]
    odd = [p for p in lat.plaquettes if p.parity == 1]
    assert len(even) == 8 and len(odd) == 8
    assert all(len(p.sites) == 4 for p in lat.plaquettes)


def test_open_one_cell_hole_example():
    lat = build_lattice(6, 6, "open", [sc.HoleSpec(2, 3, 2, 3)])
    assert lat.n_sites == 36         # punctures remove no spins
    assert len(lat.holes) == 1
    dropped_cells = {p.cell for p in lat.plaquettes}
    assert (2, 3) not in dropped_cells


def test_two_holes_ordered_and_disjoint():
    lat = build_lattice(4, 5, "open", [sc.HoleSpec(1, 1, 2, 1),
                                       sc.HoleSpec(1, 3, 2, 3)])
    assert len(lat.holes) == 2
    assert lat.holes[0].y0 < lat.holes[1].y0
    s0 = set()
    for c in lat.holes[0].cells:
        s0.update(lat.cell_sites(*c))
    s1 = set()
    for c in lat.holes[1].cells:
        s1.update(lat.cell_sites(*c))
    assert not (s0 & s1)


def test_rejections():
    with pytest.raises(LatticeError):
        build_lattice(3, 4, "open")                        # too small
    with pytest.raises(LatticeError):
        build_lattice(4, 4, "torus", [sc.HoleSpec(1, 1, 1, 2)])
    with pytest.raises(LatticeError):                      # outside grid
        build_lattice(4, 4, "open", [sc.HoleSpec(2, 1, 3, 1)])
    with pytest.raises(LatticeError):                      # overlapping
        build_lattice(6, 6, "open", [sc.HoleSpec(1, 1, 1, 2),
                                     sc.HoleSpec(2, 1, 2, 2)])
    with pytest.raises(LatticeError):                      # 3-cell rectangle
        build_lattice(6, 6, "open", [sc.HoleSpec(1, 1, 3, 1)])
    with pytest.raises(LatticeError):                      # Z-cell puncture
        build_lattice(4, 4, "open", [sc.HoleSpec(1, 1, 1, 1)])
    with pytest.raises(LatticeError):                      # mixed chain
        build_lattice(6, 6, "open", [sc.HoleSpec(1, 1, 1, 2),
                                     sc.HoleSpec(3, 1, 4, 1)])


def test_parity_two_coloring_proper():
    lat = build_lattice(6, 5, "open")
    cells = {p.cell for p in lat.plaquettes if not p.boundary_reduced}
    for (a, b) in cells:
        for da, db in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            nb = (a + da, b + db)
            if nb in cells:
                assert cell_parity(a, b) != cell_parity(*nb)


def test_boundary_reduced_weights():
    lat = build_lattice(5, 4, "open")
    ws = sorted({len(p.sites) for p in lat.plaquettes if p.boundary_reduced})
    assert set(ws) <= {1, 2}
    assert 2 in ws


# -- path metrics oracle ------------------------------------------------------


def _oracle_vortex_graph(lat):
    nodes = [(a, b)
             for a in range(-1, lat.width)
             for b in range(-1, lat.height)
             if (a + b) % 2 == 0]
    nodeset = set(nodes)
    edges = {}
    for (a, b) in nodes:
        for da, db in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            w = (a + da, b + db)
            if w in nodeset:
                sx, sy = max(a, w[0]), max(b, w[1])
                if 0 <= sx < lat.width and 0 <= sy < lat.height:
                    edges.setdefault((a, b), []).append(w)
    return nodes, edges


def _winding(cycle, origin):
    """Total angle of the closed polygon through the cell centres around
    the origin cell centre, in turns."""
    cx, cy = origin[0] + 0.5, origin[1] + 0.5
    total = 0.0
    pts = [(a + 0.5, b + 0.5) for (a, b) in cycle]
    for i in range(len(pts)):
        x1, y1 = pts[i][0] - cx, pts[i][1] - cy
        x2, y2 = pts[(i + 1) % len(pts)][0] - cx, pts[(i + 1) % len(pts)][1] - cy
        total += math.atan2(x1 * y2 - y1 * x2, x1 * x2 + y1 * y2)
    return round(total / (2 * math.pi))


def _oracle_min_enclosing(lat, origins, max_len=10):
    """Brute-force DFS over closed walks up to max_len, keeping those
    with odd winding around every origin."""
    nodes, edges = _oracle_vortex_graph(lat)
    best = None

    def dfs(start, path):
        nonlocal best
        v = path[-1]
        if best is not None and len(path) >= best:
            return
        for w in edges.get(v, []):
            if w == start and len(path) >= 3:
                if all(_winding(path, o) % 2 == 1 for o in origins):
                    if best is None or len(path) < best:
                        best = len(path)
            if len(path) < max_len and w != start:
                dfs(start, path + [w])

    for s in nodes:
        dfs(s, [s])
    return best


def test_vortex_loop_matches_oracle_one_hole(one_hole_lattice):
    lat = one_hole_lattice
    m = path_metrics(lat)
    _, od = lat.hole_even_odd(0)
    oracle = _oracle_min_enclosing(lat, [od], max_len=6)
    assert m.vortex_loop[0] == oracle == 4


def test_vortex_loop_matches_oracle_puncture(puncture_lattice):
    m = path_metrics(puncture_lattice)
    _, od = puncture_lattice.hole_even_odd(0)
    oracle = _oracle_min_enclosing(puncture_lattice, [od], max_len=6)
    assert m.vortex_loop[0] == oracle == 4


def test_pair_loop_matches_oracle(two_hole_lattice):
    lat = two_hole_lattice
    m = path_metrics(lat)
    _, o1 = lat.hole_even_odd(0)
    _, o2 = lat.hole_even_odd(1)
    oracle = _oracle_min_enclosing(lat, [o1, o2], max_len=9)
    assert m.vortex_pair[(0, 1)] == oracle == 8
    assert m.vortex_pair[(0, 1)] >= max(m.vortex_loop)


def _exhaustive_enclosing_loop(lat, origins):
    """The sheeted breadth-first search started from every node, with the
    ray crossings tested on every hop."""
    nodes, adj = _vortex_graph(lat)
    full = (1 << len(origins)) - 1
    best = None
    for start in nodes:
        dist = {(start, 0): 0}
        q = deque([(start, 0)])
        while q:
            v, sheet = q.popleft()
            d = dist[(v, sheet)]
            if best is not None and d >= best:
                continue
            for w in adj[v]:
                ns = sheet
                for i, o in enumerate(origins):
                    if _hop_crosses_ray(v, w, o):
                        ns ^= 1 << i
                key = (w, ns)
                if key not in dist:
                    dist[key] = d + 1
                    q.append(key)
        key = (start, full)
        if key in dist and (best is None or dist[key] < best):
            best = dist[key]
    return best


def _random_holed_lattices(seed, count):
    """Valid open lattices with one to three random holes."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        w, h = (int(v) for v in rng.integers(4, 9, size=2))
        nh = int(rng.integers(1, 4))
        if nh == 1:
            dx, dy = ((0, 0), (1, 0), (0, 1))[rng.integers(3)]
            ys = [int(rng.integers(0, h - 1 - dy))]
            xs = [int(rng.integers(0, w - 1 - dx))]
        else:
            dx, dy = ((1, 0), (0, 1))[rng.integers(2)]
            if dx:   # horizontal dominoes stacked south to north
                xs = [int(rng.integers(0, w - 2))] * nh
                ys = sorted(rng.choice(h - 1, nh, replace=False).tolist())
            else:    # vertical dominoes listed west to east
                ys = [int(rng.integers(0, h - 2))] * nh
                xs = sorted(rng.choice(w - 1, nh, replace=False).tolist())
        holes = [sc.HoleSpec(x, y, x + dx, y + dy) for x, y in zip(xs, ys)]
        try:
            out.append(build_lattice(w, h, "open", holes))
        except LatticeError:
            continue
    return out


def test_enclosing_loop_search_matches_exhaustive_search(
        one_hole_lattice, two_hole_lattice, puncture_lattice):
    n = 8
    register = build_lattice(4, 2 * n + 1, "open",
                             [sc.HoleSpec(1, y, 2, y)
                              for y in range(1, 2 * n, 2)])
    lattices = [one_hole_lattice, two_hole_lattice, puncture_lattice,
                register] + _random_holed_lattices(5, 12)
    for lat in lattices:
        odd = [lat.hole_even_odd(l)[1] for l in range(len(lat.holes))]
        subsets = [s for r in (1, 2, 3)
                   for s in itertools.combinations(odd, r)]
        if lat is register:     # the singles, and the pairs of a chain
            subsets = [s for s in subsets if len(s) == 1] + \
                [(a, b) for a, b in zip(odd, odd[1:])]
        for origins in subsets:
            want = _exhaustive_enclosing_loop(lat, list(origins))
            assert want is not None
            assert len(_shortest_enclosing_loop(lat, list(origins))) == want


def test_pair_loop_sites(two_hole_lattice):
    """The pair annulus lists one site per hop of the shortest loop around
    both holes.  Adjacent dominoes' 8-hop loop is the union of their
    annuli; a longer one leaves it (12 hops 4 cells apart), and its sigma^x product (sites
    crossed an odd number of times) commutes with every stabilizer, as a
    closed vortex loop does."""
    register = build_lattice(4, 17, "open", [sc.HoleSpec(1, y, 2, y)
                                             for y in range(1, 16, 2)])
    separated = build_lattice(4, 10, "open", [sc.HoleSpec(1, 1, 2, 1),
                                              sc.HoleSpec(1, 5, 2, 5)])
    for lat in [two_hole_lattice, register, separated,
                *_random_holed_lattices(5, 12)]:
        m = path_metrics(lat)
        for l in range(len(lat.holes) - 1):
            loop = region_sites(lat, {"type": "annulus", "from": l,
                                      "to": l + 1})
            assert len(loop) == m.vortex_pair[(l, l + 1)]
            union = set().union(*(region_sites(lat, {"type": "annulus",
                                                     "hole": j})
                                  for j in (l, l + 1)))
            if len(loop) == 8:
                assert loop == sorted(union)
            else:
                assert not set(loop) <= union
            odd = [s for s in set(loop) if loop.count(s) % 2]
            x_loop = sc.PauliString.x_on(lat.n_sites, odd)
            assert all(sc.commutes(x_loop, p) for p in lat.stabilizers())
    assert len(region_sites(separated, {"type": "annulus", "from": 0,
                                        "to": 1})) == 12


def test_fermion_metrics(one_hole_lattice, two_hole_lattice):
    m1 = path_metrics(one_hole_lattice)
    assert m1.fermion_boundary == (2,)     # hole column 1, port at the edge
    m2 = path_metrics(two_hole_lattice)
    assert m2.fermion_boundary == (2, 4)
    assert m2.fermion_pair[(0, 1)] == 2


def test_fermion_string_operator_length(one_hole_lattice):
    # metric equals the support of the validated flip string
    pair = sc.logical_pair(one_hole_lattice, 0)
    m = path_metrics(one_hole_lattice)
    assert pair.tau_x.weight == m.fermion_boundary[0]


def test_metrics_translation_invariance():
    base = build_lattice(6, 6, "open", [sc.HoleSpec(1, 1, 1, 2)])
    shifted = build_lattice(6, 6, "open", [sc.HoleSpec(3, 1, 3, 2)])
    up = build_lattice(6, 6, "open", [sc.HoleSpec(1, 2, 1, 3)])
    mb, ms, mu = (path_metrics(x) for x in (base, shifted, up))
    assert mb.vortex_loop == ms.vortex_loop == mu.vortex_loop
    # vertical shift keeps the distance to the left port
    assert mb.fermion_boundary == mu.fermion_boundary


def test_transposed_chains_share_one_string_line():
    # a west-east chain of vertical dominoes and its mirror image in the
    # diagonal, a south-north chain of horizontal ones
    v = build_lattice(8, 5, "open", [sc.HoleSpec(x, 1, x, 2) for x in (1, 3, 5)])
    h = build_lattice(5, 8, "open", [sc.HoleSpec(1, y, 2, y) for y in (1, 3, 5)])
    assert h.port == v.port[::-1] == (1, -1)
    regions = [{"type": "corridor", "hole": l} for l in range(3)]
    regions += [{"type": "corridor", "from": l, "to": m}
                for l, m in ((0, 1), (2, 1), (0, 2))]
    for region in regions:
        mirrored = [(s % v.width) * h.width + s // v.width
                    for s in region_sites(v, region)]
        assert sorted(region_sites(h, region)) == sorted(mirrored)
    assert path_metrics(h).fermion_boundary == path_metrics(v).fermion_boundary


@pytest.mark.parametrize("w,hgt,holes,message", [
    (8, 6, [(3, 1, 3, 2), (1, 1, 1, 2)], "west to east"),
    (8, 6, [(1, 1, 1, 2), (3, 2, 3, 3)], "one row band"),
    (6, 8, [(1, 3, 2, 3), (1, 1, 2, 1)], "south to north"),
    (6, 8, [(1, 1, 2, 1), (2, 3, 3, 3)], "one column band"),
])
def test_chain_band_and_order_rejections(w, hgt, holes, message):
    with pytest.raises(LatticeError, match=message):
        build_lattice(w, hgt, "open", [sc.HoleSpec(*c) for c in holes])


def test_metrics_require_holes():
    lat = build_lattice(4, 4, "torus")
    with pytest.raises(LatticeError):
        path_metrics(lat)
    lat = build_lattice(4, 4, "open")
    with pytest.raises(LatticeError):
        path_metrics(lat)


# -- field masks ---------------------------------------------------------------


def test_field_mask_uniform(one_hole_lattice):
    m = field_mask(one_hole_lattice, {"type": "all"}, (0.1, 0, 0))
    assert np.allclose(m.values[:, 0], 0.1)
    assert np.allclose(m.values[:, 1:], 0.0)


def test_field_mask_annulus(one_hole_lattice):
    lat = one_hole_lattice
    m = field_mask(lat, {"type": "annulus", "hole": 0}, (0, 0.1, 0))
    sites = m.nonzero_sites()
    _, od = lat.hole_even_odd(0)
    assert sorted(sites) == sorted(lat.cell_sites(*od))
    assert np.allclose(m.values[sites, 1], 0.1)


def test_field_mask_shadow_complement(one_hole_lattice):
    lat = one_hole_lattice
    rect = {"x0": 0, "y0": 0, "x1": 1, "y1": 1}
    m = field_mask(lat, {"type": "complement", "rects": [rect]},
                   (0.05, 0, 0))
    for x in range(2):
        for y in range(2):
            assert m.values[lat.site(x, y), 0] == 0.0
    assert m.values[lat.site(3, 3), 0] == 0.05


def test_field_mask_unknown_hole(one_hole_lattice):
    with pytest.raises(LatticeError):
        field_mask(one_hole_lattice, {"type": "annulus", "hole": 5},
                   (0, 0.1, 0))


def test_field_mask_sites_are_active(one_hole_lattice):
    lat = one_hole_lattice
    for region in ({"type": "all"}, {"type": "annulus", "hole": 0},
                   {"type": "corridor", "hole": 0}):
        for s in region_sites(lat, region):
            assert 0 <= s < lat.n_sites


def test_sites_region_keeps_the_listed_sites(one_hole_lattice):
    """A "sites" region is its list as given, and the field lands only
    there; a site outside the lattice is refused by name."""
    lat = one_hole_lattice
    region = {"type": "sites", "sites": [7, 2, np.int64(11)]}
    assert region_sites(lat, region) == [7, 2, 11]
    m = field_mask(lat, region, (0, 0, 0.1))
    assert np.flatnonzero(m.values[:, 2]).tolist() == [2, 7, 11]
    for s in (-1, lat.n_sites):
        with pytest.raises(LatticeError, match=f"site {s} outside lattice"):
            region_sites(lat, {"type": "sites", "sites": [0, s]})


def test_config_round_trip(two_hole_lattice):
    cfg = two_hole_lattice.to_config()
    lat2, mask = sc.lattice_from_config(cfg)
    assert lat2.holes == two_hole_lattice.holes
    assert np.allclose(mask.values, 0.0)
