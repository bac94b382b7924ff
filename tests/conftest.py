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


@pytest.fixture(scope="session")
def correlate_2d():
    """correlate_2d(padded, taps): the general 3x3 correlation over padded's last
    two axes, leading axes riding along, the reference the package's one 2D
    Laplacian, the separable _laplacian_2d, is checked against."""

    def reference(padded, taps):
        n0, n1 = padded.shape[-2] - 2, padded.shape[-1] - 2
        out = np.zeros(padded.shape[:-2] + (n0, n1))
        for i in range(3):
            for j in range(3):
                w = taps[i, j]
                if w != 0.0:
                    out += w * padded[..., i:i + n0, j:j + n1]
        return out

    return reference
