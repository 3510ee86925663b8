import numpy as np
import pytest

from modlab.grid import Field, inverse, make_grid
from tests.oracles import extension_values


def unreached(breach):
    """A stand-in for a kernel that a test patches out because it must not
    be reached: it takes any arguments and fails naming ``breach``."""

    def stand_in(*args, **kwargs):
        pytest.fail(breach)

    return stand_in


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


@pytest.fixture
def nan_tail_norm(monkeypatch):
    """Every tail norm the large-data certificate measures on an iterate
    reads NaN; the cutoff search on u0 and the total norms are untouched."""
    import modlab.solver as solver
    from modlab.grid import Trajectory

    multiply, sup = solver.fourier_multiply, solver._sup_m42

    def tail_marker(u, multiplier):
        return "tail" if isinstance(u, Trajectory) else multiply(u, multiplier)

    def nan_on_marker(path, spec, window):
        return float("nan") if isinstance(path, str) else sup(path, spec, window)

    monkeypatch.setattr(solver, "fourier_multiply", tail_marker)
    monkeypatch.setattr(solver, "_sup_m42", nan_on_marker)


def gaussian_field(grid, width=1.0, amplitude=1.0):
    r_sq = sum(x**2 for x in grid.coords())
    return Field(grid, amplitude * np.exp(-r_sq / (2.0 * width**2)).astype(complex))


def complex_noise(grid, seed):
    rng = np.random.default_rng(seed)
    return Field(
        grid, rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    )


def bandlimited(grid, center, halfwidth, seed):
    """Random spectrum on the ball |xi - center| < halfwidth."""
    rng = np.random.default_rng(seed)
    coeffs = np.zeros(grid.shape, dtype=complex)
    dist = sum((xi - c) ** 2 for xi, c in zip(grid.freqs(), np.atleast_1d(center)))
    mask = dist < halfwidth**2
    count = int(mask.sum())
    coeffs[mask] = rng.standard_normal(count) + 1j * rng.standard_normal(count)
    return Field(grid, inverse(grid, coeffs))


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
