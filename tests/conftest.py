import numpy as np
import pytest
from hypothesis import settings

# Property tests solve PDEs and write files, so one example can outlast
# hypothesis's default 200 ms deadline on a loaded machine; each test's
# @settings sets only its example count on top of this profile.
settings.register_profile("npde", deadline=None)
settings.load_profile("npde")


@pytest.fixture(scope="session")
def np_pad():
    """np_pad(field, bc): one ghost cell per side per axis by numpy's own np.pad
    modes, the reference the package's one ghost rule is checked against."""
    modes = {"periodic": "wrap", "mirror": "reflect", "extend": "edge"}

    def reference(field, bc):
        if bc.kind == "dirichlet":
            return np.pad(field, 1, mode="constant", constant_values=bc.value)
        return np.pad(field, 1, mode=modes[bc.kind])

    return reference
