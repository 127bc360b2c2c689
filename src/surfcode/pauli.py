"""Pauli-string algebra and stabilizer linear algebra over GF(2).

A Pauli string on n sites is stored as a pair of bitmasks plus a phase
power:

    P = i^k * (prod_j X_j^{x_j}) * (prod_j Z_j^{z_j})

with ``x``, ``z`` arbitrary-precision integers (bit j = site j) and
``k`` taken mod 4.  On a computational basis state ``|s>`` this acts as

    P|s> = i^k * (-1)^{popcount(z & s)} |s XOR x>

Products track the phase exactly; commutation is the usual symplectic
form and ignores phases.  ``eliminate`` is the package's one GF(2)
Gauss-Jordan routine, on rows led by python-integer masks: ranks and
span checks run it on the (x|z) masks, and ``spectra`` runs it to find
and taper the conserved symmetries of a Hamiltonian.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence


class PauliError(ValueError):
    pass


def _popcount(v: int) -> int:
    return bin(v).count("1")


def _mask(sites: Iterable[int]) -> int:
    return sum(1 << s for s in set(sites))


@dataclass(frozen=True)
class PauliString:
    """Signed product of single-site Pauli factors over ``n`` sites."""

    n: int
    x: int
    z: int
    k: int = 0  # phase = i**k

    def __post_init__(self):
        if self.x >> self.n or self.z >> self.n:
            raise PauliError("mask exceeds site count")
        object.__setattr__(self, "k", self.k % 4)

    # -- constructors ------------------------------------------------

    @staticmethod
    def identity(n: int) -> "PauliString":
        return PauliString(n, 0, 0, 0)

    @staticmethod
    def sx(n: int, site: int) -> "PauliString":
        return PauliString(n, 1 << site, 0, 0)

    @staticmethod
    def sz(n: int, site: int) -> "PauliString":
        return PauliString(n, 0, 1 << site, 0)

    @staticmethod
    def sy(n: int, site: int) -> "PauliString":
        # sigma^y = i * X * Z
        return PauliString(n, 1 << site, 1 << site, 1)

    @staticmethod
    def x_on(n: int, sites: Iterable[int]) -> "PauliString":
        return PauliString(n, _mask(sites), 0, 0)

    @staticmethod
    def z_on(n: int, sites: Iterable[int]) -> "PauliString":
        return PauliString(n, 0, _mask(sites), 0)

    @staticmethod
    def y_on(n: int, sites: Iterable[int]) -> "PauliString":
        m = _mask(sites)
        return PauliString(n, m, m, _popcount(m))

    # -- properties ---------------------------------------------------

    @property
    def phase(self) -> complex:
        return (1, 1j, -1, -1j)[self.k]

    @property
    def weight(self) -> int:
        return _popcount(self.x | self.z)

    @property
    def is_identity_mask(self) -> bool:
        return self.x == 0 and self.z == 0

    def is_hermitian(self) -> bool:
        # P+ = i^{-k} (-1)^{x.z} X^x Z^z ; hermitian iff k + popcount(x&z) even
        return (self.k + _popcount(self.x & self.z)) % 2 == 0

    def site_label(self, j: int) -> str:
        xb = (self.x >> j) & 1
        zb = (self.z >> j) & 1
        return ("I", "X", "Z", "Y")[xb + 2 * zb]

    def __str__(self) -> str:
        pre = {0: "+", 1: "+i", 2: "-", 3: "-i"}[self.k]
        body = "".join(self.site_label(j) for j in range(self.n))
        return pre + body


def multiply(p: PauliString, q: PauliString) -> PauliString:
    """Exact operator product ``p @ q`` (p applied after q)."""
    if p.n != q.n:
        raise PauliError(f"mask lengths differ: {p.n} != {q.n}")
    # move Z^{z_p} past X^{x_q}: one (-1) per overlapping site
    k = p.k + q.k + 2 * _popcount(p.z & q.x)
    return PauliString(p.n, p.x ^ q.x, p.z ^ q.z, k % 4)


def commutes(p: PauliString, q: PauliString) -> bool:
    """True iff the symplectic form <p,q> = x_p.z_q + z_p.x_q is even."""
    if p.n != q.n:
        raise PauliError(f"mask lengths differ: {p.n} != {q.n}")
    return (_popcount(p.x & q.z) + _popcount(p.z & q.x)) % 2 == 0


def eliminate(rows: list[list], nbits: int):
    """Gauss-Jordan elimination over GF(2) of rows [mask, ...], highest
    bit first; later entries are XORed along, or multiplied if Pauli
    strings.  Returns the (pivot bit, row) pairs in reduced row echelon
    form and the rows eliminated to a zero mask."""
    rows = list(rows)
    done: list[tuple[int, list]] = []
    for bit in reversed(range(nbits)):
        hit = next((r for r in rows if r[0] >> bit & 1), None)
        if hit is None:
            continue
        rows.remove(hit)
        for r in rows + [r for _, r in done]:
            if r[0] >> bit & 1:
                r[:] = [multiply(a, b) if isinstance(a, PauliString) else a ^ b
                        for a, b in zip(r, hit)]
        done.append((bit, hit))
    return done, rows


def _pivots(strings: Sequence[PauliString]) -> list[tuple[int, list]]:
    """Pivot rows of the symplectic (x|z) masks of ``strings``."""
    n = strings[0].n if strings else 0
    return eliminate([[(s.x << n) | s.z] for s in strings], 2 * n)[0]


def _in_span(pivots: list[tuple[int, list]], p: PauliString) -> bool:
    """True iff ``p``'s (x|z) mask reduces to zero against ``pivots``."""
    v = (p.x << p.n) | p.z
    for bit, (m,) in pivots:
        if v >> bit & 1:
            v ^= m
    return v == 0


def rank_gf2(strings: Sequence[PauliString]) -> int:
    """GF(2) row rank of the symplectic (x|z) representation."""
    return len(_pivots(strings))


def in_span_gf2(strings: Sequence[PauliString], p: PauliString) -> bool:
    """True iff ``p``'s masks lie in the GF(2) span of ``strings``."""
    return _in_span(_pivots(strings), p)


def ground_degeneracy(lat) -> int:
    """Ground-space dimension 2^(n_sites - rank) of a built lattice whose
    generators must commute pairwise."""
    gens = lat.stabilizers()
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            if not commutes(gens[i], gens[j]):
                raise PauliError(f"generators {i} and {j} do not commute")
    return 2 ** (lat.n_sites - rank_gf2(gens))


@dataclass(frozen=True)
class LogicalPair:
    """Conjugate logical operators of one hole."""

    hole: int
    tau_z: PauliString
    tau_x: PauliString


def logical_pair(lat, l: int) -> LogicalPair:
    """Validated logical operator pair for hole ``l`` (0-based).

    tau_z is the flux-label loop of the hole, tau_x the string that
    flips it by transporting a quasiparticle to the boundary port.
    Both are checked against the full generator list rather than
    assumed from their construction.
    """
    tz, tx = lat.logical_operators(l)
    gens = lat.stabilizers()
    pivots = _pivots(gens)
    for name, op in (("tau_z", tz), ("tau_x", tx)):
        for i, gp in enumerate(gens):
            if not commutes(gp, op):
                raise PauliError(
                    f"{name} of hole {l} anticommutes with stabilizer {i}")
        if not op.is_hermitian():     # hence it also squares to +1
            raise PauliError(f"{name} of hole {l} is not hermitian")
        if _in_span(pivots, op):
            raise PauliError(f"{name} of hole {l} lies in the stabilizer group")
    if commutes(tz, tx):
        raise PauliError(f"tau_z and tau_x of hole {l} commute")
    # different holes' logicals must commute pairwise
    for m in range(len(lat.holes)):
        if m == l:
            continue
        oz, ox = lat.logical_operators(m)
        for a in (tz, tx):
            for b in (oz, ox):
                if not commutes(a, b):
                    raise PauliError(
                        f"logicals of holes {l} and {m} fail to commute")
    return LogicalPair(l, tz, tx)
