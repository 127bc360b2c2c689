"""Planar spin lattice with checkerboard plaquettes, hole punctures and
boundary-reduced stabilizers.

Geometry
--------
Spins sit on the sites (x, y) of a width x height grid, site index
``y*width + x``.  The plaquette cell (a, b) has corner sites (a, b),
(a+1, b), (a, b+1), (a+1, b+1); its parity is (a+b) mod 2.  Even cells
carry Z-type stabilizers (product of sigma^z on the corners), odd cells
X-type.  Diagonal neighbours share one site and equal parity, edge
neighbours share two sites and opposite parity, so everything commutes.

On an open boundary the interior cells alone would leave a large edge
degeneracy, so every even-parity virtual cell of the surrounding ring
is added as a boundary-reduced stabilizer (weight 2 on the edges,
weight 1 at the corners).  The resulting hole-free lattice has a unique
gapped ground state; this is validated by the degeneracy tests, not
assumed.

Holes
-----
A hole is a puncture: its plaquette stabilizers are dropped from the
group while all spins stay.  Supported shapes (cell rectangles):

* 1x2 / 2x1 domino: one Z cell and one X cell are dropped and their
  product is kept as a single fermion-parity stabilizer.  The hole then
  carries exactly one logical qubit whose label is the sigma^z loop
  around the dropped Z cell and whose flip operator is a straight
  sigma^y string running to a boundary *port* (one ring stabilizer
  excluded next to the first hole).  The string terminates there
  because both virtual cells at the port are absent from the group.
* 1x1 single cell: must be an X cell; the label is the sigma^x loop on
  its corners and the flip operator is a straight sigma^z string to the
  boundary (no port needed).

Rectangles of these sizes contain no strictly interior sites, so no
spins are removed: every one of the ``n_sites`` spins stays.
Multi-hole chains require same-orientation dominoes on a common band
(vertical dominoes along a row, listed west to east, or horizontal ones
along a column, south to north); pair couplings run along the
shared-corner line.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .pauli import PauliString, multiply


class LatticeError(ValueError):
    pass


OPEN = "open"
TORUS = "torus"

Cell = tuple[int, int]


def cell_parity(a: int, b: int) -> int:
    return (a + b) % 2


def _cell_sites(width: int, height: int, boundary: str,
                a: int, b: int) -> tuple[int, ...]:
    """Corner sites of cell (a, b), wrapped on a torus, else clipped."""
    out = []
    for dx in (0, 1):
        for dy in (0, 1):
            x, y = a + dx, b + dy
            if boundary == TORUS:
                out.append((y % height) * width + (x % width))
            elif 0 <= x < width and 0 <= y < height:
                out.append(y * width + x)
    return tuple(out)


@dataclass(frozen=True)
class HoleSpec:
    """Cell rectangle {x0..x1} x {y0..y1} of dropped plaquettes."""

    x0: int
    y0: int
    x1: int
    y1: int

    def __post_init__(self):
        if self.x1 < self.x0 or self.y1 < self.y0:
            raise LatticeError(f"empty hole rectangle {self}")

    @property
    def cells(self) -> tuple[Cell, ...]:
        return tuple((a, b)
                     for b in range(self.y0, self.y1 + 1)
                     for a in range(self.x0, self.x1 + 1))

    @property
    def shape(self) -> tuple[int, int]:
        return (self.x1 - self.x0 + 1, self.y1 - self.y0 + 1)

    @property
    def kind(self) -> str:
        kinds = {(1, 1): "puncture", (1, 2): "domino-v",
                 (2, 1): "domino-h"}
        if self.shape not in kinds:
            raise LatticeError(
                f"unsupported hole rectangle {self.shape}; holes are a "
                f"single X plaquette or a two-plaquette domino")
        return kinds[self.shape]


@dataclass(frozen=True)
class Plaquette:
    cell: Cell
    parity: int                  # 0 = even (Z type), 1 = odd (X type)
    sites: tuple[int, ...]
    boundary_reduced: bool = False


@dataclass(frozen=True)
class HoledLattice:
    width: int
    height: int
    boundary: str
    holes: tuple[HoleSpec, ...]
    plaquettes: tuple[Plaquette, ...]
    composite_stabilizers: tuple[PauliString, ...]
    port: Optional[Cell]         # excluded ring cell, None without domino holes
    torus_form: str = ""         # 'checkerboard' or 'corner' (torus only)

    # -- basic site helpers -------------------------------------------

    @property
    def n_sites(self) -> int:
        return self.width * self.height

    def site(self, x: int, y: int) -> int:
        if not (0 <= x < self.width and 0 <= y < self.height):
            raise LatticeError(f"site ({x},{y}) outside lattice")
        return y * self.width + x

    def cell_sites(self, a: int, b: int) -> tuple[int, ...]:
        return _cell_sites(self.width, self.height, self.boundary, a, b)

    # -- stabilizers ----------------------------------------------------

    def _plaquette_string(self, p: Plaquette) -> PauliString:
        if self.boundary == TORUS and self.torus_form == "corner":
            return _corner_form_string(self, p.cell)
        if p.parity == 0:
            return PauliString.z_on(self.n_sites, p.sites)
        return PauliString.x_on(self.n_sites, p.sites)

    def stabilizers(self) -> list[PauliString]:
        """Full generator list: plaquettes, boundary reductions, composites."""
        out = [self._plaquette_string(p) for p in self.plaquettes]
        out.extend(self.composite_stabilizers)
        return out

    def hole_even_odd(self, l: int) -> tuple[Optional[Cell], Optional[Cell]]:
        """(even cell, odd cell) of hole l; a puncture has no even cell."""
        return _even_odd(self.holes[l])

    # -- logical operators -----------------------------------------------

    def logical_operators(self, l: int) -> tuple[PauliString, PauliString]:
        """(tau_z, tau_x) of hole ``l``; validated by pauli.logical_pair."""
        if not 0 <= l < len(self.holes):
            raise LatticeError(f"no hole {l}")
        hole = self.holes[l]
        ev, od = self.hole_even_odd(l)
        n = self.n_sites
        if hole.kind == "puncture":
            # label: the dropped X plaquette itself
            tau_z = PauliString.x_on(n, self.cell_sites(*od))
            # flip: straight sigma^z string from the puncture to the
            # bottom edge (charge path; ends are invisible to the group)
            a, b = od
            col = a + 1
            tau_x = PauliString.z_on(n, [self.site(col, y) for y in range(b + 1)])
            return tau_z, tau_x
        # domino: label = sigma^z loop on the dropped Z cell
        tau_z = PauliString.z_on(n, self.cell_sites(*ev))
        tau_x = PauliString.y_on(n, self._line_sites(-1, l))
        return tau_z, tau_x

    def _line_sites(self, p: int, q: int) -> list[int]:
        """Sites of the shared-corner line from position p to q > p, a
        position being a hole index or -1 for the port: the straight
        sigma^y string between two holes, or from the port to a hole."""
        flip, _, across = _band(self.holes[0])
        lo = -1 if p < 0 else _band(self.holes[p])[1]
        return [self.site(*_xy(flip, u, across + 1))
                for u in range(lo + 1, _band(self.holes[q])[1] + 1)]

    # -- config round trip -------------------------------------------------

    def to_config(self) -> dict:
        return {
            "width": self.width,
            "height": self.height,
            "boundary": self.boundary,
            "holes": [{"x0": h.x0, "y0": h.y0, "x1": h.x1, "y1": h.y1}
                      for h in self.holes],
        }


def _corner_form_string(lat: HoledLattice, cell: Cell) -> PauliString:
    """Commuting plaquette operator for tori that admit no checkerboard:
    X on the base and far corner, Y on the two side corners.  The exact
    product of the four factors carries phase power 2 (two Y factors);
    keeping it makes the term set frustration free on odd tori."""
    s00, s01, s10, s11 = lat.cell_sites(*cell)
    n = lat.n_sites
    return multiply(PauliString.x_on(n, (s00, s11)),
                    PauliString.y_on(n, (s10, s01)))


def _even_odd(h: HoleSpec) -> tuple[Optional[Cell], Optional[Cell]]:
    """(even cell, odd cell) of a hole; a puncture has no even cell."""
    by_parity = {cell_parity(*c): c for c in h.cells}
    return by_parity.get(0), by_parity.get(1)


def _band(h: HoleSpec) -> tuple[bool, int, int]:
    """(flip, along, across) of a domino.  Vertical dominoes chain west to
    east along a row band, horizontal ones south to north along a column
    band; ``flip`` swaps x and y so that both read as the vertical case,
    with ``along`` and ``across`` the hole's lower cell coordinates."""
    if h.kind == "domino-v":
        return False, h.x0, h.y0
    if h.kind == "domino-h":
        return True, h.y0, h.x0
    raise LatticeError("puncture holes carry no fermion string")


def _xy(flip: bool, u: int, v: int) -> tuple[int, int]:
    """(x, y) of band coordinates (along u, across v)."""
    return (v, u) if flip else (u, v)


def _validate_holes(width: int, height: int,
                    holes: Sequence[HoleSpec]) -> None:
    amax, bmax = width - 2, height - 2
    for i, h in enumerate(holes):
        if h.kind == "puncture" and cell_parity(h.x0, h.y0) == 0:
            raise LatticeError(
                f"hole {i}: a single-plaquette hole must sit on an X "
                f"(odd-parity) cell to carry a logical qubit")
        if not (0 <= h.x0 and h.x1 <= amax and 0 <= h.y0 and h.y1 <= bmax):
            raise LatticeError(f"hole {i} extends beyond the plaquette grid")
    corners = [{(a + dx, b + dy) for a, b in h.cells
                for dx in (0, 1) for dy in (0, 1)} for h in holes]
    for i in range(len(holes)):
        for j in range(i + 1, len(holes)):
            if corners[i] & corners[j]:
                raise LatticeError(f"holes {i} and {j} overlap")
    if len(holes) > 1:
        if {h.kind for h in holes} not in ({"domino-v"}, {"domino-h"}):
            raise LatticeError(
                "multi-hole lattices require same-orientation domino holes")
        flip, _, across = _band(holes[0])
        along = [_band(h)[1] for h in holes]
        if any(_band(h)[2] != across for h in holes):
            raise LatticeError("domino chain must share one "
                               f"{('row', 'column')[flip]} band")
        if any(a >= b for a, b in zip(along, along[1:])):
            raise LatticeError("holes must be listed "
                               f"{('west to east', 'south to north')[flip]}")


def _port_cell(holes: Sequence[HoleSpec]) -> Optional[Cell]:
    dominoes = [h for h in holes if h.kind.startswith("domino")]
    if not dominoes:
        return None
    flip, _, across = _band(dominoes[0])
    return _xy(flip, -1, across | 1)


def build_lattice(width: int, height: int, boundary: str,
                  holes: Iterable[HoleSpec] = ()) -> HoledLattice:
    """Construct the lattice with plaquette list and hole data.

    Plaquette ordering is deterministic: interior cells by (b, a), then
    ring reductions by (b, a); parity colouring is fixed by the cell's
    lower-left coordinate sum.
    """
    if width < 4 or height < 4:
        if boundary == TORUS and width >= 3 and height >= 3:
            pass  # small tori are useful and well defined
        else:
            raise LatticeError("lattice too small; need width, height >= 4")
    if boundary not in (OPEN, TORUS):
        raise LatticeError(f"unknown boundary {boundary!r}")
    holes = tuple(holes)
    if boundary == TORUS and holes:
        raise LatticeError("holes require an open boundary")

    if boundary == TORUS:
        form = "checkerboard" if width % 2 == 0 and height % 2 == 0 else "corner"
        plaqs = []
        for b in range(height):
            for a in range(width):
                plaqs.append(Plaquette((a, b), cell_parity(a, b),
                                       _cell_sites(width, height, TORUS, a, b)))
        return HoledLattice(width, height, boundary, (), tuple(plaqs), (),
                            None, form)

    _validate_holes(width, height, holes)
    dropped = set()
    for h in holes:
        dropped.update(h.cells)
    port = _port_cell(holes)

    def corners(a: int, b: int) -> tuple[int, ...]:
        return _cell_sites(width, height, OPEN, a, b)

    plaqs = []
    for b in range(height - 1):
        for a in range(width - 1):
            if (a, b) in dropped:
                continue
            plaqs.append(Plaquette((a, b), cell_parity(a, b), corners(a, b)))
    for b in range(-1, height):
        for a in range(-1, width):
            if 0 <= a < width - 1 and 0 <= b < height - 1:
                continue
            if cell_parity(a, b) != 0:
                continue
            if port is not None and (a, b) == port:
                continue
            plaqs.append(Plaquette((a, b), 0, corners(a, b),
                                   boundary_reduced=True))

    composites = []
    n = width * height
    for h in holes:
        if h.kind == "puncture":
            continue
        ev, od = _even_odd(h)
        composites.append(multiply(PauliString.z_on(n, corners(*ev)),
                                   PauliString.x_on(n, corners(*od))))

    return HoledLattice(width, height, OPEN, holes, tuple(plaqs),
                        tuple(composites), port)


# ---------------------------------------------------------------------------
# path metrics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PathMetrics:
    """Hop counts of the shortest quasiparticle tunneling paths.

    vortex_loop[l]      loop length around hole l on the vortex graph
    fermion_boundary[l] straight fermion string, hole l to the port
                        (None for single-plaquette holes, whose flip
                        string is charge-flavoured)
    vortex_pair[(l,m)]  loop length enclosing holes l and m together
    fermion_pair[(l,m)] straight fermion string between holes l and m
    """

    vortex_loop: tuple[int, ...]
    fermion_boundary: tuple[Optional[int], ...]
    vortex_pair: dict
    fermion_pair: dict


def _vortex_graph(lat: HoledLattice):
    """Even-cell diagonal hopping graph, including the virtual ring.

    Nodes are even-parity cells (a, b) with a in [-1, width-1],
    b in [-1, height-1]; a diagonal hop exists iff the shared corner
    site lies in the lattice.
    """
    nodes = []
    for a in range(-1, lat.width):
        for b in range(-1, lat.height):
            if cell_parity(a, b) == 0:
                nodes.append((a, b))
    nodeset = set(nodes)
    adj = {v: [] for v in nodes}
    for (a, b) in nodes:
        for da, db in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            w = (a + da, b + db)
            if w not in nodeset:
                continue
            # shared corner site of the diagonal pair
            sx = max(a, w[0])
            sy = max(b, w[1])
            if 0 <= sx < lat.width and 0 <= sy < lat.height:
                adj[(a, b)].append(w)
    return nodes, adj


def _hop_crosses_ray(c1: Cell, c2: Cell, origin: Cell) -> bool:
    """Does the diagonal hop c1->c2 cross the upward ray from the centre
    of ``origin``?  Cell centres sit at (a+0.5, b+0.5); the ray is the
    vertical line x = a0+1 restricted to y > b0+0.5."""
    a0, b0 = origin
    west = c1 if c1[0] < c2[0] else c2
    if west[0] != a0:
        return False
    ymid = (c1[1] + c2[1] + 1) / 2.0
    return ymid > b0 + 0.5


def _shortest_enclosing_loop(lat: HoledLattice,
                             origins: Sequence[Cell]) -> list[int]:
    """Sites of a shortest closed walk on the vortex graph with odd
    winding around every cell in ``origins``, one per hop (the corner
    the hop's two cells share), so a site crossed twice is listed twice.

    The searches run on sheeted copies, where a hop across an origin's
    ray flips that origin's sheet bit.  Of the shortest walks they take
    the one least in the summed squared distance of its sites from the
    nearest origin centre, so two adjacent dominoes get their two
    annuli.  The walk crosses every origin's ray, so the searches start
    only at the west ends of the hops across the ray with fewest; one
    that beats the best walk so far rebuilds it from parent links."""
    import heapq

    def hop(v: Cell, w: Cell) -> tuple:
        x, y = max(v[0], w[0]), max(v[1], w[1])     # the shared corner
        return (w, sum(1 << i for i, o in enumerate(origins)
                       if _hop_crosses_ray(v, w, o)), lat.site(x, y),
                min((2 * (x - a) - 1) ** 2 + (2 * (y - b) - 1) ** 2
                    for a, b in origins))

    nodes, adj = _vortex_graph(lat)
    hops = {v: [hop(v, w) for w in adj[v]] for v in nodes}
    full = (1 << len(origins)) - 1
    ray_ends = [[v for v in nodes if any(f >> i & 1 and w[0] > v[0]
                                         for w, f, *_ in hops[v])]
                for i in range(len(origins))]
    best, walk = (float("inf"),), None
    for start in min(ray_ends, key=len):
        parents: dict = {}          # settled node -> (parent node, site)
        heap = [((0, 0), (start, 0), None)]
        while heap and heap[0][0] < best:
            (d, c), node, link = heapq.heappop(heap)
            if node in parents:
                continue
            parents[node] = link
            if node == (start, full):
                best, walk = (d, c), []
                while parents[node] is not None:
                    node, site = parents[node]
                    walk.append(site)
                break
            for w, f, site, cost in hops[node[0]]:
                key = (w, node[1] ^ f)
                if key not in parents:
                    heapq.heappush(heap, ((d + 1, c + cost), key,
                                          (node, site)))
    if walk is None:
        raise LatticeError("no enclosing vortex loop exists")
    return walk[::-1]


def path_metrics(lat: HoledLattice) -> PathMetrics:
    """Shortest-path lengths on the quasiparticle hopping graphs: the
    number of sites on each path's ``region_sites`` list."""
    if lat.boundary == TORUS or not lat.holes:
        raise LatticeError("path metrics need an open lattice with holes")
    n = len(lat.holes)

    def length(kind: str, **ends) -> int:
        return len(region_sites(lat, {"type": kind, **ends}))

    pairs = {(l, l + 1): {"from": l, "to": l + 1} for l in range(n - 1)}
    return PathMetrics(
        tuple(length("annulus", hole=l) for l in range(n)),
        tuple(None if h.kind == "puncture" else length("corridor", hole=l)
              for l, h in enumerate(lat.holes)),
        {p: length("annulus", **e) for p, e in pairs.items()},
        {p: length("corridor", **e) for p, e in pairs.items()})


# ---------------------------------------------------------------------------
# field regions and masks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FieldMask:
    """Per-site (hx, hy, hz) field strengths; shape (n_sites, 3)."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2 or v.shape[1] != 3:
            raise LatticeError("field mask must have shape (n_sites, 3)")
        if not np.all(np.isfinite(v)):
            raise LatticeError("field mask must be finite")
        object.__setattr__(self, "values", v)

    @staticmethod
    def zeros(lat: HoledLattice) -> "FieldMask":
        return FieldMask(np.zeros((lat.n_sites, 3)))

    def __add__(self, other: "FieldMask") -> "FieldMask":
        return FieldMask(self.values + other.values)

    def on(self, lat: HoledLattice) -> np.ndarray:
        """The values, checked to hold one row per site of ``lat``."""
        if len(self.values) != lat.n_sites:
            raise LatticeError(f"field mask has {len(self.values)} rows; "
                               f"the lattice has {lat.n_sites} sites")
        return self.values

    def nonzero_sites(self) -> list[int]:
        return [int(i) for i in np.nonzero(np.any(self.values != 0, axis=1))[0]]


def _region_hole(lat: HoledLattice, l: int) -> int:
    if not 0 <= l < len(lat.holes):
        raise LatticeError(f"region references unknown hole {l}")
    return l


def region_sites(lat: HoledLattice, region) -> list[int]:
    """Resolve a region spec to a site list.

    Region specs (dicts, JSON friendly):
      {"type": "all"}
      {"type": "annulus", "hole": l}          vortex loop around hole l
      {"type": "annulus", "from": l, "to": m} vortex loop around l and m
      {"type": "corridor", "hole": l}         fermion string, hole l to port
      {"type": "corridor", "from": l, "to": m}
      {"type": "sites", "sites": [...]}
      {"type": "complement", "rects": [{x0,y0,x1,y1}, ...]}   shadow-free area
    """
    kind = region["type"]
    if kind == "all":
        return list(range(lat.n_sites))
    if kind == "annulus":
        if "hole" in region:    # a shortest loop around one cell is its corners
            _, od = lat.hole_even_odd(_region_hole(lat, region["hole"]))
            return sorted(lat.cell_sites(*od))
        return sorted(_shortest_enclosing_loop(
            lat, [lat.hole_even_odd(_region_hole(lat, region[k]))[1]
                  for k in ("from", "to")]))
    if kind == "corridor":
        if "hole" in region:
            return sorted(lat._line_sites(-1, _region_hole(lat, region["hole"])))
        return lat._line_sites(*sorted(_region_hole(lat, region[k])
                                       for k in ("from", "to")))
    if kind == "sites":
        out = []
        for s in region["sites"]:
            if not 0 <= s < lat.n_sites:
                raise LatticeError(f"site {s} outside lattice")
            out.append(int(s))
        return out
    if kind == "complement":
        shadow = set()
        for r in region["rects"]:
            for x in range(r["x0"], r["x1"] + 1):
                for y in range(r["y0"], r["y1"] + 1):
                    if 0 <= x < lat.width and 0 <= y < lat.height:
                        shadow.add(lat.site(x, y))
        return [s for s in range(lat.n_sites) if s not in shadow]
    raise LatticeError(f"unknown region type {kind!r}")


def field_mask(lat: HoledLattice, region, h_vector) -> FieldMask:
    """Uniform field ``h_vector = (hx, hy, hz)`` on a region, zero elsewhere."""
    hx, hy, hz = (float(v) for v in h_vector)
    vals = np.zeros((lat.n_sites, 3))
    for s in region_sites(lat, region):
        vals[s] = (hx, hy, hz)
    return FieldMask(vals)


# ---------------------------------------------------------------------------
# config file I/O
# ---------------------------------------------------------------------------


def lattice_from_config(cfg: dict) -> tuple[HoledLattice, FieldMask]:
    """Build lattice and summed field mask from a config dict
    {width, height, boundary, holes: [{x0,y0,x1,y1}], fields: [...]}
    where each field entry is {region: <spec>, hx, hy, hz}."""
    holes = [HoleSpec(h["x0"], h["y0"], h["x1"], h["y1"])
             for h in cfg.get("holes", [])]
    lat = build_lattice(cfg["width"], cfg["height"],
                        cfg.get("boundary", OPEN), holes)
    mask = FieldMask.zeros(lat)
    for f in cfg.get("fields", []):
        mask = mask + field_mask(lat, f["region"],
                                 (f.get("hx", 0.0), f.get("hy", 0.0),
                                  f.get("hz", 0.0)))
    return lat, mask


def load_config(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)
