import json

import pytest

import surfcode as sc
from surfcode import spectra

_RECORD = {"test": None, "calls": 0}     # the running test for --record-levels


def pytest_addoption(parser):
    parser.addoption(
        "--record-levels", metavar="PATH", default=None,
        help="write one JSON line per lowest_eigs call to PATH: test id, "
             "call index, n, norm bound, eigenvalues, sector labels and "
             "residual norms")


def pytest_configure(config):
    """With --record-levels, wrap ``spectra._sector_eigs``, which every
    ``lowest_eigs`` call passes through, so two checkouts' solver paths
    can be compared level by level (a ``Spectrum``, or an older tuple
    that starts with the eigenvalues and the labels and records no
    residuals)."""
    path = config.getoption("--record-levels")
    if not path:
        return
    out, inner = open(path, "w"), spectra._sector_eigs
    config.add_cleanup(out.close)

    def recorded(*args, **kwargs):
        H = getattr(args[0], "H", args[0])    # the sectors, or H itself
        line = {"test": _RECORD["test"], "call": _RECORD["calls"], "n": H.n,
                "norm_bound": H.norm_bound}
        _RECORD["calls"] += 1
        try:
            got = inner(*args, **kwargs)
        except Exception as err:
            line["error"] = type(err).__name__
            raise
        else:
            vals, labels = ((got.eigenvalues, got.labels)
                            if hasattr(got, "labels") else got[:2])
            line.update(eigenvalues=[float(v) for v in vals],
                        labels=[int(t) for t in labels])
            if hasattr(got, "residual_norms"):
                line["residual_norms"] = [float(r)
                                          for r in got.residual_norms]
        finally:
            out.write(json.dumps(line) + "\n")
        return got

    spectra._sector_eigs = recorded


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
