import json

import numpy as np
import pytest

import surfcode as sc
from surfcode import spectra

_RECORD = {"test": None, "calls": 0}     # the running test for --record-levels


def pytest_addoption(parser):
    parser.addoption(
        "--record-levels", metavar="PATH", default=None,
        help="write one JSON line per lowest_eigs call to PATH: test id, "
             "call index, n, norm bound, eigenvalues, sector labels, "
             "residual norms, the state columns applied and the sectors "
             "and floors solved")


def pytest_configure(config):
    """With --record-levels, wrap ``spectra._sector_eigs``, which every
    ``lowest_eigs`` call passes through with its solve context (or an
    older checkout's ``_Sectors``) first, so two checkouts' solver paths
    can be compared level by level.  ``applications`` counts the state
    columns that ``spectra._Apply`` applied during the call, a vector as
    one; dense sectors and floors apply none, so ``sectors`` (the
    sectors solved) and ``floors`` (the floor-cache entries added) record
    the search's work on every path."""
    path = config.getoption("--record-levels")
    if not path:
        return
    out, inner = open(path, "w"), spectra._sector_eigs
    config.add_cleanup(out.close)
    applied, apply = [0], spectra._Apply.__call__

    def counted(op, v):
        applied[0] += np.shape(v)[1] if np.ndim(v) > 1 else 1
        return apply(op, v)

    def recorded(solve, *args, **kwargs):
        H = getattr(solve, "taper", solve).H
        line = {"test": _RECORD["test"], "call": _RECORD["calls"], "n": H.n,
                "norm_bound": H.norm_bound}
        _RECORD["calls"] += 1
        before, floors = applied[0], len(solve.floors)
        try:
            got = inner(solve, *args, **kwargs)
        except Exception as err:
            line["error"] = type(err).__name__
            raise
        else:
            line.update(eigenvalues=[float(v) for v in got.eigenvalues],
                        labels=[int(t) for t in got.labels],
                        residual_norms=[float(r)
                                        for r in got.residual_norms],
                        sectors=len(got.sector_dims))
        finally:
            line.update(applications=applied[0] - before,
                        floors=len(solve.floors) - floors)
            out.write(json.dumps(line) + "\n")
        return got

    spectra._sector_eigs = recorded
    spectra._Apply.__call__ = counted


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item):
    _RECORD.update(test=item.nodeid, calls=0)
    yield


@pytest.fixture(scope="session")
def one_hole_lattice():
    """16 spins, one vertical domino hole, port on the left edge."""
    return sc.build_lattice(4, 4, "open", [sc.HoleSpec(1, 1, 1, 2)])


@pytest.fixture(scope="session")
def two_hole_lattice():
    """20 spins, two horizontal dominoes stacked along a column."""
    return sc.build_lattice(4, 5, "open", [sc.HoleSpec(1, 1, 2, 1),
                                           sc.HoleSpec(1, 3, 2, 3)])


@pytest.fixture(scope="session")
def puncture_lattice():
    """16 spins, one single-plaquette (X cell) hole, no port."""
    return sc.build_lattice(4, 4, "open", [sc.HoleSpec(2, 1, 2, 1)])


@pytest.fixture(scope="session")
def ground_spectrum_one_hole(one_hole_lattice):
    H = sc.assemble(one_hole_lattice, 1.0)
    return sc.lowest_eigs(H, 3, tol=1e-9)
