"""Fixtures shared by test modules."""

import pytest

from triheat import flow, shapes
from triheat.spherical import GridSpec


@pytest.fixture(scope="session")
def converged_l16_run():
    """The L=16 run from the mode (2, 0, 1e-2) to its limit sphere: t_end
    1, cadence 50, stopping once sup |A*| falls below 1e-7. Its tests only
    read it."""
    st = shapes.perturbed_sphere_state(GridSpec.for_bandlimit(16), 1.0, [(2, 0, 1e-2)])
    return flow.run(st, 1.0, stop_ao_inf=1e-7, cadence=50)
