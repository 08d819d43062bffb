import os

import pytest

from qglue import derive_constants, solve_orbit
from qglue.gluing import EndData, GluingConfig, Perturbation, build_approximate


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")


@pytest.fixture(scope="session", autouse=True)
def src_on_subprocess_path():
    """Let the `python -m qglue.cli` subprocesses of the CLI tests import
    this checkout's package when it is not installed; pyproject.toml puts
    src on the path of the test process only."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.pathsep.join(
            p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
        yield


@pytest.fixture(scope="session")
def consts5():
    return derive_constants(5)


@pytest.fixture(scope="session")
def orbit_cache():
    cache = {}

    def get(eps, n=5):
        key = (n, round(float(eps), 12))
        if key not in cache:
            cache[key] = solve_orbit(n, eps)
        return cache[key]

    return get


@pytest.fixture(scope="session")
def orbit05(orbit_cache):
    return orbit_cache(0.5)


@pytest.fixture(scope="session")
def sweep_orbits(orbit_cache, consts5):
    return [orbit_cache(e) for e in (0.3, 0.5, 0.7, consts5.epsBar)]


def make_config(orbit, m=2, pert1=(), pert2=(), T01=0.0, T02=0.0):
    eps = orbit.eps
    return GluingConfig(
        EndData(eps=eps, T0=T01,
                perturbation=tuple(Perturbation(*p) for p in pert1)),
        EndData(eps=eps, T0=T02,
                perturbation=tuple(Perturbation(*p) for p in pert2)),
        m=m, orbit=orbit)


@pytest.fixture(scope="session")
def reference_config(orbit05):
    """The reference perturbed gluing: mode-0 tail A=1e-3 at rate 2, m=2."""
    return make_config(orbit05, m=2, pert1=((0, 1e-3, 2.0),))


@pytest.fixture(scope="session")
def reference_approx(reference_config):
    return build_approximate(reference_config, grid_per_period=64)
