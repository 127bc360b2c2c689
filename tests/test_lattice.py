"""Lattice construction, validation, path metrics (with an independent
cycle-enumeration oracle) and field masks."""

import itertools
import math
import re
from collections import Counter, deque

import numpy as np
import pytest

import surfcode as sc
from surfcode.lattice import (FieldMask, LatticeError, build_lattice,
                              cell_parity, field_mask, path_metrics,
                              region_sites)


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


def _crosses_ray(v, w, origin):
    """Does the straight hop between cell centres v and w cross the
    vertical ray x = a0 + 1, y > b0 + 0.5 up from the centre of origin
    (a0, b0)?  It crosses that line at the hop's midpoint."""
    (a1, b1), (a2, b2), (a0, b0) = v, w, origin
    return min(a1, a2) == a0 and (b1 + b2 + 1) / 2 > b0 + 0.5


def _exhaustive_enclosing_loop(lat, origins):
    """The sheeted breadth-first search started from every node, with the
    ray crossings tested on every hop."""
    nodes, adj = _oracle_vortex_graph(lat)
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
            for w in adj.get(v, []):
                ns = sheet
                for i, o in enumerate(origins):
                    if _crosses_ray(v, w, o):
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


def _along(lat, l):
    """Band coordinate of hole l's odd cell along its chain."""
    odd = lat.hole_even_odd(l)[1]
    return odd[1] if lat.holes[l].kind == "domino-h" else odd[0]


def test_enclosing_loop_search_matches_exhaustive_search(two_hole_lattice):
    """Every pair of holes, adjacent in the chain or not, with even and
    odd distances along the band: the pair annulus has the length of the
    exhaustive search's shortest loop, 2 (u_m - u_l) + 4."""
    register = build_lattice(4, 17, "open", [sc.HoleSpec(1, y, 2, y)
                                             for y in range(1, 16, 2)])
    chains = [lat for lat in _random_holed_lattices(7, 200)
              if len(lat.holes) > 1]
    assert len(chains) >= 100
    cases = set()
    for lat in [two_hole_lattice, register, *chains]:
        for l, m in itertools.combinations(range(len(lat.holes)), 2):
            loop = region_sites(lat, {"type": "annulus", "from": l, "to": m})
            want = _exhaustive_enclosing_loop(
                lat, [lat.hole_even_odd(k)[1] for k in (l, m)])
            d = _along(lat, m) - _along(lat, l)
            assert len(loop) == want == 2 * d + 4
            cases.add((m - l > 1, d % 2))
    assert cases == {(False, 0), (False, 1), (True, 0), (True, 1)}


def _is_closed_walk_around(lat, loop, origins):
    """Do the loop's hops, each site joining the two even cells it is a
    corner of, form one closed walk with odd winding around each origin?"""
    hops = []
    for s in loop:
        x, y = s % lat.width, s // lat.width
        hops.append(((x - 1, y - 1), (x, y)) if (x + y) % 2 == 0
                    else ((x, y - 1), (x - 1, y)))
    degree = Counter(v for hop in hops for v in hop)
    reached, todo = set(), [hops[0][0]]
    while todo:
        v = todo.pop()
        if v not in reached:
            reached.add(v)
            todo += [w for hop in hops if v in hop for w in hop]
    return (all(k % 2 == 0 for k in degree.values())
            and reached == set(degree)
            and all(sum(_crosses_ray(v, w, o) for v, w in hops) % 2 == 1
                    for o in origins))


def test_pair_loop_sites(two_hole_lattice):
    """The pair annulus lists one site per hop of a shortest loop around
    both holes, for every pair and either order of ``from`` and ``to``,
    and its hops close one walk with odd winding around both.  Adjacent
    dominoes' 8-hop loop is the union of their annuli; a longer one
    leaves it (12 hops 4 cells apart), and its sigma^x product (sites
    crossed an odd number of times) commutes with every stabilizer, as a
    closed vortex loop does."""
    register = build_lattice(4, 17, "open", [sc.HoleSpec(1, y, 2, y)
                                             for y in range(1, 16, 2)])
    separated = build_lattice(4, 10, "open", [sc.HoleSpec(1, 1, 2, 1),
                                              sc.HoleSpec(1, 5, 2, 5)])
    for lat in [two_hole_lattice, register, separated,
                *_random_holed_lattices(5, 12)]:
        m = path_metrics(lat)
        for l, k in itertools.combinations(range(len(lat.holes)), 2):
            loop = region_sites(lat, {"type": "annulus", "from": l, "to": k})
            assert loop == region_sites(lat, {"type": "annulus", "from": k,
                                              "to": l})
            if k == l + 1:
                assert len(loop) == m.vortex_pair[(l, k)]
            union = set().union(*(region_sites(lat, {"type": "annulus",
                                                     "hole": j})
                                  for j in (l, k)))
            if len(loop) == 8:
                assert loop == sorted(union)
            else:
                assert not set(loop) <= union
            assert _is_closed_walk_around(
                lat, loop, [lat.hole_even_odd(j)[1] for j in (l, k)])
            odd = [s for s in set(loop) if loop.count(s) % 2]
            x_loop = sc.PauliString.x_on(lat.n_sites, odd)
            assert all(sc.commutes(x_loop, p) for p in lat.stabilizers())
    assert len(region_sites(separated, {"type": "annulus", "from": 0,
                                        "to": 1})) == 12


def test_pair_annulus_sites_are_pinned(two_hole_lattice):
    """The sorted pair-annulus lists, recorded before the hop table was
    built lazily: the README two-hole lattice, a pair 4 cells apart (12
    hops, sites 14 and 18 crossed twice) and the 8-qubit
    register, whose every pair loop is the README one shifted by l rows
    of 8 sites."""
    def pair_loops(lat):
        return [region_sites(lat, {"type": "annulus", "from": l, "to": l + 1})
                for l in range(len(lat.holes) - 1)]

    readme = [6, 7, 10, 11, 14, 15, 18, 19]
    separated = build_lattice(4, 10, "open", [sc.HoleSpec(1, 1, 2, 1),
                                              sc.HoleSpec(1, 5, 2, 5)])
    register = build_lattice(4, 17, "open", [sc.HoleSpec(1, y, 2, y)
                                             for y in range(1, 16, 2)])
    assert pair_loops(two_hole_lattice) == [readme]
    assert pair_loops(separated) == [[6, 7, 10, 11, 14, 14, 18, 18,
                                      22, 23, 26, 27]]
    assert pair_loops(register) == [[s + 8 * l for s in readme]
                                    for l in range(7)]


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
], ids=["west-to-east", "row-band", "south-to-north", "column-band"])
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
    same = field_mask(one_hole_lattice, {"type": "all"},
                      (np.float64(0.1), np.int64(0), np.float32(0)))
    assert np.array_equal(same.values, m.values)


def test_field_mask_annulus(one_hole_lattice):
    lat = one_hole_lattice
    m = field_mask(lat, {"type": "annulus", "hole": 0}, (0, 0.1, 0))
    sites = np.flatnonzero(np.any(m.values, axis=1))
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


@pytest.mark.parametrize("site", [1.7, 2.0, True, np.float64(3.0), "4", None])
def test_sites_region_refuses_a_site_that_is_not_an_integer(
        one_hole_lattice, site):
    """A float was truncated (1.7 put the field on site 1) and True read
    as site 1; both are refused by name."""
    with pytest.raises(LatticeError, match="is not an integer"):
        region_sites(one_hole_lattice, {"type": "sites", "sites": [0, site]})
    cfg = {"width": 4, "height": 4, "boundary": "open",
           "holes": [{"x0": 1, "y0": 1, "x1": 1, "y1": 2}],
           "fields": [{"region": {"type": "sites", "sites": [site]},
                       "hz": 0.1}]}
    with pytest.raises(LatticeError, match="is not an integer"):
        sc.lattice_from_config(cfg)


@pytest.mark.parametrize("hole", [True, False, 1.0, np.float64(0.0), "1",
                                  None])
@pytest.mark.parametrize("key", ["hole", "from", "to"])
def test_region_refuses_a_hole_that_is_not_an_integer(two_hole_lattice, key,
                                                      hole):
    """True read as hole 1 and False as hole 0, so {"from": False, "to":
    True} was the pair 0-1; 1.0, "1" and None escaped as a raw
    TypeError.  Each is refused by name, and numpy integers are holes."""
    ends, valid = {"hole": ({}, 0), "from": ({"to": 1}, 0),
                   "to": ({"from": 0}, 1)}[key]
    for kind in ("annulus", "corridor"):
        with pytest.raises(LatticeError, match=f"^hole {re.escape(repr(hole))}"
                                               f" is not an integer$"):
            region_sites(two_hole_lattice, {"type": kind, key: hole, **ends})
        region = {"type": kind, **ends}
        assert region_sites(two_hole_lattice,
                            {**region, key: np.int64(valid)}) == \
            region_sites(two_hole_lattice, {**region, key: valid})


def _one_hole_config(**changes):
    cfg = {"width": 4, "height": 4, "boundary": "open",
           "holes": [{"x0": 1, "y0": 1, "x1": 1, "y1": 2}]}
    return {**cfg, **changes}


@pytest.mark.parametrize("field, message", [
    ({"region": {"type": "all"}, "hq": 0.1},
     "field 0 has unknown keys ['hq']; a field entry takes region, hx, hy "
     "and hz"),
    ({"hx": 0.1}, "field 0 lacks 'region'"),
    ({"region": {"type": "all"}, "hx": True},
     "field component hx True is not a number"),
    ({"region": {"type": "all"}, "hz": "0.1"},
     "field component hz '0.1' is not a number"),
    ({"region": {"type": "all"}, "hx": None},
     "field component hx None is not a number"),
    (3, "field 0 3 is not a dict")])
def test_config_refuses_a_field_entry_it_cannot_read(field, message):
    """A misspelled component ("hq") applied zero field without a word,
    and a missing region escaped as a raw KeyError; true applied a field
    of 1.0, "0.1" one of 0.1, and null and an entry that is not a dict
    escaped as raw TypeErrors."""
    with pytest.raises(LatticeError, match=f"^{re.escape(message)}$"):
        sc.lattice_from_config(_one_hole_config(fields=[field]))


@pytest.mark.parametrize("region, message", [
    ({"hole": 0}, "region {'hole': 0} lacks 'type'"),
    ({"type": "sites"}, "region {'type': 'sites'} lacks 'sites'"),
    ({"type": "complement"}, "region {'type': 'complement'} lacks 'rects'"),
    ({"type": "annulus"}, "region {'type': 'annulus'} lacks 'from'"),
    ({"type": "corridor", "from": 0},
     "region {'type': 'corridor', 'from': 0} lacks 'to'"),
    ("all", "region 'all' is not a dict"),
    ({"type": "sites", "sites": 3}, "region sites 3 is not a list"),
    ({"type": "complement", "rects": 3}, "region rects 3 is not a list"),
    ({"type": "complement", "rects": [3]}, "rect 0 3 is not a dict")])
def test_region_refuses_a_malformed_spec(two_hole_lattice, region, message):
    """A missing key escaped as a raw KeyError, and a string, a number
    for a list and a number for a rect as raw TypeErrors; each is
    refused by name."""
    with pytest.raises(LatticeError, match=f"^{re.escape(message)}$"):
        region_sites(two_hole_lattice, region)


@pytest.mark.parametrize("value", [True, 4.0, np.float64(4.0), "4", None])
@pytest.mark.parametrize("key", ["width", "height"])
def test_config_refuses_a_size_that_is_not_an_integer(key, value):
    """4.0 escaped as a raw TypeError; numpy integers are sizes."""
    with pytest.raises(LatticeError, match=f"^config {key} "
                                           f"{re.escape(repr(value))} is not "
                                           f"an integer$"):
        sc.lattice_from_config(_one_hole_config(**{key: value}))
    cfg = _one_hole_config()
    del cfg[key]
    with pytest.raises(LatticeError, match=f"^config lacks '{key}'$"):
        sc.lattice_from_config(cfg)
    lat, _ = sc.lattice_from_config(_one_hole_config(**{key: np.int64(4)}))
    assert lat == sc.lattice_from_config(_one_hole_config())[0]


@pytest.mark.parametrize("value", [True, 1.0, np.float64(1.0), "1", None])
@pytest.mark.parametrize("key", ["x0", "y0", "x1", "y1"])
def test_config_refuses_a_hole_corner_that_is_not_an_integer(key, value):
    """{"x0": true} read as x0 = 1 and 1.0 escaped as a raw TypeError;
    numpy integers are corners."""
    hole = {"x0": 1, "y0": 1, "x1": 1, "y1": 2}
    with pytest.raises(LatticeError, match=f"^hole 0 {key} "
                                           f"{re.escape(repr(value))} is not "
                                           f"an integer$"):
        sc.lattice_from_config(_one_hole_config(holes=[{**hole,
                                                        key: value}]))
    with pytest.raises(LatticeError, match=f"^hole 0 lacks '{key}'$"):
        sc.lattice_from_config(_one_hole_config(holes=[
            {k: v for k, v in hole.items() if k != key}]))
    lat, _ = sc.lattice_from_config(_one_hole_config(holes=[
        {**hole, key: np.int64(hole[key])}]))
    assert lat == sc.lattice_from_config(_one_hole_config())[0]


@pytest.mark.parametrize("value", [True, 1.5, np.float64(1.0), "1", None])
@pytest.mark.parametrize("key", ["x0", "y0", "x1", "y1"])
def test_complement_refuses_a_rect_corner_that_is_not_an_integer(
        one_hole_lattice, key, value):
    """{"x0": true} read as x0 = 1, 1.5 escaped as a raw TypeError and a
    missing corner as a raw KeyError; numpy integers are corners."""
    rect = {"x0": 0, "y0": 0, "x1": 1, "y1": 1}
    with pytest.raises(LatticeError, match=f"^rect 0 {key} "
                                           f"{re.escape(repr(value))} is not "
                                           f"an integer$"):
        region_sites(one_hole_lattice, {"type": "complement",
                                        "rects": [{**rect, key: value}]})
    with pytest.raises(LatticeError, match=f"^rect 0 lacks '{key}'$"):
        region_sites(one_hole_lattice, {"type": "complement", "rects": [
            {k: v for k, v in rect.items() if k != key}]})
    assert region_sites(one_hole_lattice, {
        "type": "complement", "rects": [{**rect, key: np.int64(rect[key])}]}) \
        == region_sites(one_hole_lattice, {"type": "complement",
                                           "rects": [rect]})


def test_config_round_trip(two_hole_lattice):
    cfg = {"width": 4, "height": 5, "boundary": "open",
           "holes": [{"x0": 1, "y0": 1, "x1": 2, "y1": 1},
                     {"x0": 1, "y0": 3, "x1": 2, "y1": 3}]}
    lat2, mask = sc.lattice_from_config(cfg)
    assert lat2.holes == two_hole_lattice.holes
    assert np.allclose(mask.values, 0.0)


def _open(holes=()):
    return build_lattice(5, 5, "open", holes)


@pytest.mark.parametrize("call, message", [
    (lambda: sc.HoleSpec(2, 1, 1, 1),
     "empty hole rectangle HoleSpec(x0=2, y0=1, x1=1, y1=1)"),
    (lambda: _open().site(5, 0), "site (5,0) outside lattice"),
    (lambda: region_sites(_open([sc.HoleSpec(1, 2, 1, 2)]),
                          {"type": "corridor", "hole": 0}),
     "puncture holes carry no fermion string"),
    (lambda: build_lattice(4, 4, "mobius"), "unknown boundary 'mobius'"),
    (lambda: FieldMask(np.zeros((25, 2))),
     "field mask must have shape (n_sites, 3)"),
    (lambda: FieldMask(np.full((25, 3), np.inf)), "field mask must be finite"),
    (lambda: region_sites(_open(), {"type": "disc"}),
     "unknown region type 'disc'"),
    (lambda: region_sites(_open([sc.HoleSpec(1, 1, 2, 1)]),
                          {"type": "corridor", "from": 0, "to": 0}),
     "a pair region needs two different holes, got from = to = 0"),
    (lambda: region_sites(_open([sc.HoleSpec(1, 1, 2, 1)]),
                          {"type": "annulus", "from": 0, "to": 0}),
     "a pair region needs two different holes, got from = to = 0"),
    (lambda: sc.lattice_from_config(_one_hole_config(holes=[3])),
     "hole 0 3 is not a dict"),
    (lambda: sc.lattice_from_config(_one_hole_config(holes=3)),
     "config holes 3 is not a list"),
    (lambda: sc.lattice_from_config(_one_hole_config(fields={
        "region": {"type": "all"}})),
     "config fields {'region': {'type': 'all'}} is not a list"),
    (lambda: sc.lattice_from_config(3), "config 3 is not a dict"),
], ids=["empty-hole", "site", "puncture-string", "boundary", "mask-shape",
        "mask-finite", "region-type", "pair-corridor", "pair-annulus",
        "config-hole", "config-holes", "config-fields", "config"])
def test_each_check_refuses_with_its_reason(call, message):
    """Each input is refused by name.  Of the config containers, "holes":
    [3] and 3 escaped as raw TypeErrors, a config that is not a dict as
    an AttributeError, and a dict given as "fields" read as field 0 with
    unknown keys, one per letter of "region"."""
    with pytest.raises(LatticeError, match=f"^{re.escape(message)}$"):
        call()
