import numpy as np
import pytest

from modlab.grid import Field, make_grid
from modlab.propagator import extension_values


@pytest.fixture
def grid1d():
    return make_grid(1, 256, 64 * np.pi)


@pytest.fixture
def wide1d():
    # wide band: spectral tails of unit Gaussians sit below 1e-12
    return make_grid(1, 1024, 64 * np.pi)


@pytest.fixture
def grid3d():
    return make_grid(3, 16, 8 * np.pi)


def gaussian_field(grid, width=1.0, amplitude=1.0):
    r_sq = sum(x**2 for x in grid.coords())
    return Field(grid, amplitude * np.exp(-r_sq / (2.0 * width**2)).astype(complex))


def complex_noise(grid, seed):
    rng = np.random.default_rng(seed)
    return Field(
        grid, rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    )


def direct_ball_norm(profile, pts, w, R, p, spu):
    """L^p norm of Ef over the midpoint mesh of B_{d+1}(0, R), summed from
    ``extension_values`` on the masked mesh, one time row at a time."""
    d = pts.shape[1]
    m = int(np.ceil(2 * R * spu))
    step = 2 * R / m
    axis = -R + step * (np.arange(m) + 0.5)
    xs = np.stack([a.ravel() for a in np.meshgrid(*[axis] * d, indexing="ij")], -1)
    total = 0.0
    for t in axis:
        keep = t**2 + np.sum(xs**2, axis=1) <= R**2
        if keep.any():
            vals = extension_values(profile, pts, w, [t], xs[keep])
            total += np.sum(np.abs(vals) ** p)
    return (step ** (d + 1) * total) ** (1.0 / p)
