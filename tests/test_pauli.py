"""Pauli algebra against an independent dense-matrix oracle, plus the
stabilizer rank / degeneracy / logical-operator checks."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import surfcode as sc
from surfcode.lattice import HoledLattice
from surfcode.pauli import (PauliError, PauliString, commutes, eliminate,
                            multiply, rank_gf2)

I2 = np.eye(2)
MX = np.array([[0, 1], [1, 0]], dtype=complex)
MY = np.array([[0, -1j], [1j, 0]], dtype=complex)
MZ = np.array([[1, 0], [0, -1]], dtype=complex)


def dense(p: PauliString) -> np.ndarray:
    """Oracle: matrix built directly from the masks, site 0 = least
    significant qubit (kron'ed last)."""
    out = np.array([[1.0 + 0j]])
    for j in range(p.n - 1, -1, -1):
        m = I2.copy().astype(complex)
        if (p.x >> j) & 1:
            m = m @ MX
        if (p.z >> j) & 1:
            m = m @ MZ
        out = np.kron(out, m)
    return p.phase * out


def random_pauli(rng, n):
    return PauliString(n, int(rng.integers(0, 2 ** n)),
                       int(rng.integers(0, 2 ** n)), int(rng.integers(0, 4)))


def test_single_site_table():
    # X0 * Z0 = -i Y0
    p = multiply(PauliString.sx(1, 0), PauliString.sz(1, 0))
    assert np.allclose(dense(p), -1j * MY)
    assert p.site_label(0) == "Y"
    # Z X = +i Y
    q = multiply(PauliString.sz(1, 0), PauliString.sx(1, 0))
    assert np.allclose(dense(q), 1j * MY)
    # sigma^y as stored
    assert np.allclose(dense(PauliString.sy(1, 0)), MY)


def test_multiply_matches_matrix_oracle():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(1, 4))
        p, q = random_pauli(rng, n), random_pauli(rng, n)
        assert np.allclose(dense(multiply(p, q)), dense(p) @ dense(q))


def test_hermitian_involution():
    rng = np.random.default_rng(5)
    for _ in range(100):
        n = int(rng.integers(1, 4))
        p = random_pauli(rng, n)
        if not p.is_hermitian():
            continue
        sq = multiply(p, p)
        assert sq.is_identity_mask and sq.k == 0


def test_commutes_matches_matrix_oracle():
    rng = np.random.default_rng(21)
    for _ in range(200):
        n = int(rng.integers(1, 4))
        p, q = random_pauli(rng, n), random_pauli(rng, n)
        comm = dense(p) @ dense(q) - dense(q) @ dense(p)
        assert commutes(p, q) == np.allclose(comm, 0)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6), st.data())
def test_multiply_associative(n, data):
    bits = st.integers(0, 2 ** n - 1)
    trip = [PauliString(n, data.draw(bits), data.draw(bits),
                        data.draw(st.integers(0, 3))) for _ in range(3)]
    a, b, c = trip
    lhs = multiply(multiply(a, b), c)
    rhs = multiply(a, multiply(b, c))
    assert (lhs.x, lhs.z, lhs.k) == (rhs.x, rhs.z, rhs.k)


def test_mismatched_lengths_rejected():
    with pytest.raises(PauliError):
        multiply(PauliString.sx(2, 0), PauliString.sx(3, 0))
    with pytest.raises(PauliError):
        commutes(PauliString.sx(2, 0), PauliString.sx(3, 0))


def test_identity_commutes_with_everything():
    rng = np.random.default_rng(3)
    ident = PauliString.identity(5)
    for _ in range(50):
        assert commutes(random_pauli(rng, 5), ident)


def test_stabilizer_squares_to_one(one_hole_lattice):
    for s in one_hole_lattice.stabilizers():
        sq = multiply(s, s)
        assert sq.is_identity_mask and sq.k == 0


def test_rank_gf2_simple():
    n = 4
    rows = [PauliString.sz(n, 0), PauliString.sz(n, 1),
            multiply(PauliString.sz(n, 0), PauliString.sz(n, 1))]
    assert rank_gf2(rows) == 2
    assert rank_gf2(rows[:2]) == rank_gf2(rows)


def test_all_generators_commute(one_hole_lattice, two_hole_lattice,
                                puncture_lattice):
    for lat in (one_hole_lattice, two_hole_lattice, puncture_lattice):
        gens = lat.stabilizers()
        assert all(commutes(a, b) for a in gens for b in gens)
        sc.ground_degeneracy(lat)  # raises on a non-commuting pair


def test_ground_degeneracy_rejects_anticommuting_generators():
    class Frustrated:
        n_sites = 2

        def stabilizers(self):
            return [PauliString.sx(2, 0), PauliString.sz(2, 0)]
    with pytest.raises(PauliError, match="generators 0 and 1"):
        sc.ground_degeneracy(Frustrated())


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6), st.data())
def test_eliminate_against_span_enumeration(n, data):
    """Rank, span membership and the echelon form of ``eliminate`` on up
    to 8 random strings, against the span enumerated by brute force."""
    bits = st.integers(0, 2 ** n - 1)
    strings = data.draw(st.lists(
        st.builds(PauliString, st.just(n), bits, bits, st.integers(0, 3)),
        max_size=8))
    span = {0}
    for s in strings:
        span |= {v ^ ((s.x << n) | s.z) for v in span}
    assert 2 ** rank_gf2(strings) == len(span)
    probe = PauliString(n, data.draw(bits), data.draw(bits))
    in_span = ((probe.x << n) | probe.z) in span
    assert (rank_gf2(strings + [probe]) == rank_gf2(strings)) == in_span

    pivots, zero = eliminate([[(s.x << n) | s.z, s] for s in strings], 2 * n)
    assert len(pivots) + len(zero) == len(strings)
    bits_seen = [bit for bit, _ in pivots]
    assert bits_seen == sorted(bits_seen, reverse=True)
    for bit, (mask, p) in pivots:
        assert mask.bit_length() == bit + 1
        assert all(not m >> bit & 1 for b, (m, _) in pivots if b != bit)
    for mask, p in [row for _, row in pivots] + zero:
        assert (p.x << n) | p.z == mask
    assert all(mask == 0 for mask, _ in zero)


@pytest.mark.parametrize("w,h,boundary,holes,q", [
    (4, 4, "torus", [], 4),
    (4, 3, "torus", [], 2),
    (3, 4, "torus", [], 2),
    (3, 3, "torus", [], 2),
    (6, 4, "torus", [], 4),
    (4, 4, "open", [], 1),
    (6, 6, "open", [], 1),
    (4, 4, "open", [sc.HoleSpec(1, 1, 1, 2)], 2),
    (4, 4, "open", [sc.HoleSpec(2, 1, 2, 1)], 2),
    (4, 5, "open", [sc.HoleSpec(1, 1, 2, 1), sc.HoleSpec(1, 3, 2, 3)], 4),
    (4, 7, "open", [sc.HoleSpec(1, 1, 2, 1), sc.HoleSpec(1, 3, 2, 3),
                    sc.HoleSpec(1, 5, 2, 5)], 8),
    (6, 6, "open", [sc.HoleSpec(2, 3, 2, 3)], 2),
])
def test_ground_degeneracy(w, h, boundary, holes, q):
    lat = sc.build_lattice(w, h, boundary, holes)
    assert sc.ground_degeneracy(lat) == q


def test_logical_pair_invariants(one_hole_lattice, two_hole_lattice,
                                 puncture_lattice):
    # construction is validated inside logical_pair; re-check the core
    # relations explicitly here
    for lat in (one_hole_lattice, two_hole_lattice, puncture_lattice):
        gens = lat.stabilizers()
        for l in range(len(lat.holes)):
            pair = sc.logical_pair(lat, l)
            assert all(commutes(g, pair.tau_z) for g in gens)
            assert all(commutes(g, pair.tau_x) for g in gens)
            assert not commutes(pair.tau_z, pair.tau_x)
            for op in (pair.tau_z, pair.tau_x):
                sq = multiply(op, op)
                assert sq.is_identity_mask and sq.k == 0


def test_logical_pair_weight_four_label(one_hole_lattice, puncture_lattice):
    # the flux label of a minimal hole is a weight-4 loop
    assert sc.logical_pair(one_hole_lattice, 0).tau_z.weight == 4
    assert sc.logical_pair(puncture_lattice, 0).tau_z.weight == 4


def test_logical_pair_missing_hole(one_hole_lattice):
    with pytest.raises(Exception):
        one_hole_lattice.logical_operators(3)


def test_logical_pair_runs_no_elimination(two_hole_lattice, puncture_lattice,
                                          monkeypatch):
    """With ``eliminate`` refusing to run, logical_pair still validates the
    register's 8 holes and the puncture, and still refuses products of
    generators handed out as a logical: by bilinearity such a product
    commutes with its partner."""
    def refuse(*args):
        raise AssertionError("logical_pair ran a GF(2) elimination")

    register = sc.build_lattice(4, 17, "open", [sc.HoleSpec(1, y, 2, y)
                                                for y in range(1, 16, 2)])
    monkeypatch.setattr(sc.pauli, "eliminate", refuse)
    for lat in (register, puncture_lattice):
        for l in range(len(lat.holes)):
            pair = sc.logical_pair(lat, l)
            assert not commutes(pair.tau_z, pair.tau_x)
    lat, real = two_hole_lattice, HoledLattice.logical_operators
    gens, rng = lat.stabilizers(), np.random.default_rng(5)
    tz, _ = real(lat, 0)
    for _ in range(20):
        prod = PauliString.identity(lat.n_sites)
        for i in np.flatnonzero(rng.integers(0, 2, len(gens))):
            prod = multiply(prod, gens[i])
        monkeypatch.setattr(HoledLattice, "logical_operators",
                            lambda self, l: (tz, prod) if l == 0
                            else real(self, l))
        with pytest.raises(PauliError,
                           match="tau_z and tau_x of hole 0 commute"):
            sc.logical_pair(lat, 0)


def _anticommuting_site(lat):
    """A one-site Pauli that anticommutes with the first stabilizer."""
    g, n = lat.stabilizers()[0], lat.n_sites
    s = (g.x | g.z).bit_length() - 1
    return PauliString.sz(n, s) if g.x >> s & 1 else PauliString.sx(n, s)


@pytest.mark.parametrize("case, match", [
    ("site", "tau_z of hole 0 anticommutes with stabilizer 0"),
    ("phase", "tau_z of hole 0 is not hermitian"),
    ("stabilizer", "tau_z and tau_x of hole 0 commute"),
    ("same", "tau_z and tau_x of hole 0 commute"),
    ("other-hole", "logicals of holes 0 and 1 fail to commute"),
], ids=["site", "phase", "stabilizer", "same", "other-hole"])
def test_logical_pair_rejects_bad_logicals(two_hole_lattice, monkeypatch,
                                           case, match):
    """Each check of logical_pair fires on logicals that break it, as a
    lattice handing out wrong operators would: a hermitian Pauli string
    squares to +1, so no separate square check is needed."""
    lat, real = two_hole_lattice, HoledLattice.logical_operators
    tz, tx = real(lat, 0)
    bad = {"site": {0: (_anticommuting_site(lat), tx)},
           "phase": {0: (PauliString(tz.n, tz.x, tz.z, tz.k + 1), tx)},
           "stabilizer": {0: (tz, lat.stabilizers()[0])},
           "same": {0: (tz, tz)},
           "other-hole": {1: (tx, tz)}}[case]
    monkeypatch.setattr(HoledLattice, "logical_operators",
                        lambda self, l: bad.get(l) or real(self, l))
    with pytest.raises(PauliError, match=match):
        sc.logical_pair(lat, 0)


@pytest.mark.parametrize("x, z", [(0b100, 0), (0, 0b1000)], ids=["x", "z"])
def test_each_check_refuses_with_its_reason(x, z):
    with pytest.raises(PauliError,
                       match=f"^{re.escape('mask exceeds site count')}$"):
        PauliString(2, x, z)
