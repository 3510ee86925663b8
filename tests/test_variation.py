from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from modlab.grid import Field, Trajectory, lp_norm, make_grid
from modlab.variation import (
    duality_pairing,
    make_atom,
    up_norm_upper,
    vp_norm,
    vp_norm_bruteforce,
)
from tests.conftest import complex_noise, gaussian_field
from tests.oracles import up_norm_lower

UNIT_GRID = make_grid(1, 8, 1.0)  # volume one: the L^2 norm of a constant is |c|
L2 = partial(lp_norm, p=2.0)


def path_of(times, fields):
    return Trajectory(fields[0].grid, times, np.stack([f.values for f in fields]))


def step_of(partition, pieces):
    """The step function pieces[k] on [partition[k], partition[k+1]), 0 from
    partition[-1] on, unnormalized."""
    grid = pieces[0].grid
    return path_of(partition, tuple(pieces) + (Field(grid, np.zeros(grid.shape, complex)),))


def pieces_of(step):
    """The pieces of a step function, its last node (the terminal 0) left out."""
    return [f for _, f in step][:-1]


def scalar_path(values, times=None):
    fields = [Field(UNIT_GRID, np.full(UNIT_GRID.shape, v, dtype=complex)) for v in values]
    if times is None:
        times = tuple(float(j) for j in range(len(values)))
    return path_of(times, fields)


class TestVpNorm:
    def test_constant_path_is_zero(self):
        assert vp_norm(scalar_path([2.0, 2.0, 2.0]), 2.0, L2) == 0.0

    def test_alternating_path(self):
        # brute force over all 2^4 subsequences gives sqrt(3)
        assert vp_norm(scalar_path([1, 0, 1, 0]), 2.0, L2) == pytest.approx(np.sqrt(3))

    def test_monotone_path_single_jump_dominates(self):
        assert vp_norm(scalar_path([0, 1, 2, 3]), 2.0, L2) == pytest.approx(3.0)

    def test_terminal_zero_convention_adds_last_jump(self):
        path = scalar_path([2.0, 2.0])
        assert vp_norm(path, 2.0, L2, terminal_zero=True) == pytest.approx(2.0)

    def test_p_below_one_rejected(self):
        with pytest.raises(ValueError):
            vp_norm(scalar_path([0, 1]), 0.5, L2)

    @pytest.mark.parametrize("p", [np.inf, np.nan])
    def test_non_finite_p_rejected(self, p):
        path = scalar_path([0, 3])
        phi = Field(UNIT_GRID, np.full(UNIT_GRID.shape, 3.0 + 0j))
        for call in (
            lambda: vp_norm(path, p, L2),
            lambda: vp_norm_bruteforce(path, p, L2),
            lambda: make_atom((0.0, 1.0), (phi,), p, L2),
            lambda: up_norm_upper(path, p, L2),
            lambda: up_norm_lower(path, p, [path], L2),
        ):
            with pytest.raises(ValueError, match="p"):
                call()

    def test_power_sum_overflow_raises(self):
        # 3^(1e308) is past the float range: the sums overflow, not round to inf
        path = scalar_path([0, 3])
        phi = Field(UNIT_GRID, np.full(UNIT_GRID.shape, 3.0 + 0j))
        for call in (
            lambda: vp_norm(path, 1e308, L2),
            lambda: vp_norm_bruteforce(path, 1e308, L2),
            lambda: make_atom((0.0, 1.0), (phi,), 1e308, L2),
        ):
            with pytest.raises(OverflowError):
                call()

    def test_single_node_rejected(self):
        with pytest.raises(ValueError, match="two nodes"):
            vp_norm(scalar_path([1.0]), 2.0, L2)

    @given(seed=st.integers(0, 500), p=st.sampled_from([1.0, 2.0, 3.5]),
           terminal=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_dp_matches_bruteforce(self, seed, p, terminal):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 13))
        vals = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        path = scalar_path(list(vals))
        a = vp_norm(path, p, L2, terminal)
        b = vp_norm_bruteforce(path, p, L2, terminal)
        assert a == pytest.approx(b, rel=1e-12, abs=1e-12)

    def test_bruteforce_oracle_measures_its_own_increments(self, monkeypatch):
        # a fault in the table of the dynamic program must show against the
        # oracle, not cancel out of the comparison
        import modlab.variation as variation

        table = variation._increment_table

        def scaled(*args):
            dist, node = table(*args)
            return 1.01 * dist, node

        monkeypatch.setattr(variation, "_increment_table", scaled)
        path = scalar_path([0.0, 1.0, 3.0, 2.0])
        a = vp_norm(path, 2.0, L2)
        b = vp_norm_bruteforce(path, 2.0, L2)
        assert a != b
        assert a == pytest.approx(1.01 * b, rel=1e-12)

    def test_node_norms_evaluated_only_with_terminal_zero(self):
        # 8 nodes: 28 increments each for the dynamic program and the oracle,
        # plus 8 node norms each only when the terminal 0 reads them
        calls = []

        def counting(f):
            calls.append(f)
            return L2(f)

        path = scalar_path([float(j) for j in range(8)])
        for terminal, expected in ((False, 56), (True, 72)):
            calls.clear()
            vp_norm(path, 2.0, counting, terminal)
            vp_norm_bruteforce(path, 2.0, counting, terminal)
            assert len(calls) == expected

    @given(seed=st.integers(0, 200))
    @settings(max_examples=20, deadline=None)
    def test_monotone_nonincreasing_in_p(self, seed):
        rng = np.random.default_rng(seed)
        vals = rng.standard_normal(7)
        path = scalar_path(list(vals))
        norms = [vp_norm(path, p, L2) for p in (1.0, 2.0, 4.0, 8.0)]
        for a, b in zip(norms, norms[1:]):
            assert b <= a + 1e-12

    def test_perturbation_of_constant_path_triangle(self, grid1d):
        # the profile path of a free trajectory is constant; perturbing its
        # nodes moves the V^2 norm by at most twice the perturbations' sum
        f = gaussian_field(grid1d)
        ts = tuple(np.linspace(0, 1, 5))
        eps = [1e-3 * complex_noise(grid1d, 40 + j) for j in range(5)]
        base = vp_norm(path_of(ts, (f,) * 5), 2.0, L2, terminal_zero=True)
        bumped = vp_norm(path_of(ts, tuple(f + e for e in eps)), 2.0, L2, terminal_zero=True)
        budget = sum(L2(e) for e in eps)
        assert abs(bumped - base) <= 2.0 * budget + 1e-12


class TestAtoms:
    def test_single_piece_normalized(self):
        phi = Field(UNIT_GRID, np.full(UNIT_GRID.shape, 2.0 + 0j))
        atom = make_atom((0.0, 1.0), (phi,), 2.0, L2)
        assert L2(atom[0][1]) == pytest.approx(1.0)
        assert np.array_equal(atom.times, [0.0, 1.0])
        assert np.all(atom.values[-1] == 0.0)

    def test_two_equal_pieces(self):
        phi = Field(UNIT_GRID, np.full(UNIT_GRID.shape, 3.0 + 0j))
        atom = make_atom((0.0, 1.0, 2.0), (phi, phi), 2.0, L2)
        for piece in pieces_of(atom):
            assert L2(piece) == pytest.approx(2.0**-0.5)

    def test_all_zero_rejected(self):
        zero = Field(UNIT_GRID, np.zeros(UNIT_GRID.shape, complex))
        with pytest.raises(ValueError, match="zero"):
            make_atom((0.0, 1.0), (zero,), 2.0, L2)

    def test_step_path_sees_final_jump(self):
        rng = np.random.default_rng(3)
        pieces = tuple(
            Field(UNIT_GRID, np.full(UNIT_GRID.shape, v, dtype=complex))
            for v in rng.standard_normal(3)
        )
        atom = make_atom((0.0, 1.0, 2.0, 3.0), pieces, 2.0, L2)
        v = vp_norm(atom, 2.0, L2)
        assert v >= L2(pieces_of(atom)[-1]) - 1e-12

    def test_upper_bound_of_atom_is_one(self):
        phi = Field(UNIT_GRID, np.full(UNIT_GRID.shape, 0.7 + 0.2j))
        atom = make_atom((0.0, 1.0, 2.0), (phi, 2 * phi), 4.0, L2)
        assert up_norm_upper(atom, 4.0, L2) == pytest.approx(1.0)

    def test_upper_bound_scales(self):
        phi = Field(UNIT_GRID, np.full(UNIT_GRID.shape, 1.0 + 0j))
        atom = make_atom((0.0, 1.0, 2.0), (phi, phi), 2.0, L2)
        lam = 3.7
        scaled = Trajectory(UNIT_GRID, atom.times, lam * atom.values)
        assert up_norm_upper(scaled, 2.0, L2) == pytest.approx(lam)

    def test_concatenation_two_sided_bounds(self):
        rng = np.random.default_rng(9)
        mk = lambda v: Field(UNIT_GRID, np.full(UNIT_GRID.shape, v, dtype=complex))
        a1 = make_atom((0.0, 1.0), (mk(1.0),), 2.0, L2)
        a2 = make_atom((2.0, 3.0), (mk(1.0 + 1j),), 2.0, L2)
        lam1, lam2 = 2.0, 3.0
        combined = step_of(
            (0.0, 1.0, 2.0, 3.0),
            (lam1 * a1[0][1], mk(0.0), lam2 * a2[0][1]),
        )
        bound = up_norm_upper(combined, 2.0, L2)
        assert bound <= lam1 + lam2 + 1e-12
        assert bound >= (lam1**2 + lam2**2) ** 0.5 - 1e-12

    def test_atom_vp_bounded_by_embedding_constant(self):
        # U^p into V^p on atoms: the step path of a normalized atom has
        # p-variation at most 2^{1/p} * C with C = 2 recorded
        rng = np.random.default_rng(12)
        for p in (2.0, 4.0):
            for trial in range(20):
                k = int(rng.integers(1, 6))
                pieces = tuple(
                    Field(UNIT_GRID, rng.standard_normal(UNIT_GRID.shape)
                          + 1j * rng.standard_normal(UNIT_GRID.shape))
                    for _ in range(k)
                )
                atom = make_atom(tuple(float(j) for j in range(k + 1)), pieces, p, L2)
                v = vp_norm(atom, p, L2, terminal_zero=True)
                assert v <= 2.0 ** (1.0 / p) * up_norm_upper(atom, p, L2) * 2.0 + 1e-12

    def test_duality_lower_bound_stays_below_upper(self):
        rng = np.random.default_rng(4)
        pieces = tuple(
            Field(UNIT_GRID, rng.standard_normal(UNIT_GRID.shape) + 0j) for _ in range(3)
        )
        step = step_of((0.0, 1.0, 2.0, 3.0), pieces)
        duals = [scalar_path(list(rng.standard_normal(4)), times=(0.0, 1.0, 2.0, 3.0))
                 for _ in range(10)]
        lower = up_norm_lower(step, 2.0, duals, L2)
        assert 0.0 < lower <= up_norm_upper(step, 2.0, L2) + 1e-9


def step_function_pairing(partition, pieces, v):
    """B(u, v) as the former StepFunction type computed it: one jump of the
    zero-padded pieces per partition point, paired with v there."""
    grid = pieces[0].grid
    zero = Field(grid, np.zeros(grid.shape, complex))
    padded = (zero,) + tuple(pieces) + (zero,)
    total = 0.0 + 0.0j
    for k, t in enumerate(partition):
        jump = padded[k + 1] - padded[k]
        g = v[v.node_index(t)][1]
        total -= complex(grid.cell * np.sum(jump.values * np.conj(g.values)))
    return total


class TestDuality:
    @pytest.mark.parametrize("grid", [UNIT_GRID, make_grid(2, 8, 2.0)], ids=["d1", "d2"])
    def test_pairing_equals_step_function_formula_exactly(self, grid):
        rng = np.random.default_rng(21)
        mk = lambda: Field(grid, rng.standard_normal(grid.shape)
                           + 1j * rng.standard_normal(grid.shape))
        for p in (1.0, 2.0, 3.0, 4.0):
            for k in range(1, 6):
                partition = tuple(np.cumsum(rng.uniform(0.1, 1.0, k + 1)))
                pieces = tuple(mk() for _ in range(k))
                atom = make_atom(partition, pieces, p, L2)
                lam = sum(L2(phi) ** p for phi in pieces) ** (1.0 / p)
                normalized = tuple((1.0 / lam) * phi for phi in pieces)
                for (_, got), want in zip(atom, normalized):
                    assert np.array_equal(got.values, want.values)
                # v has a node between every two of the partition and one after
                mids = [t + 0.05 for t in partition]
                times = np.sort(np.concatenate([partition, mids]))
                v = path_of(times, tuple(mk() for _ in times))
                assert duality_pairing(atom, v) == step_function_pairing(partition, normalized, v)

    def test_zero_path(self):
        phi = Field(UNIT_GRID, np.full(UNIT_GRID.shape, 1.0 + 0j))
        atom = make_atom((0.0, 1.0, 2.0), (phi, 2 * phi), 2.0, L2)
        v = scalar_path([0.0, 0.0, 0.0], times=(0.0, 1.0, 2.0))
        assert duality_pairing(atom, v) == 0.0

    def test_constant_dual_telescopes_to_zero(self):
        phi = Field(UNIT_GRID, np.full(UNIT_GRID.shape, 2.0 - 1j))
        atom = make_atom((0.0, 1.0), (phi,), 2.0, L2)
        v = scalar_path([0.7, 0.7], times=(0.0, 1.0))
        assert abs(duality_pairing(atom, v)) <= 1e-14

    def test_missing_node_rejected(self):
        phi = Field(UNIT_GRID, np.full(UNIT_GRID.shape, 1.0 + 0j))
        atom = make_atom((0.0, 0.5, 1.0), (phi, phi), 2.0, L2)
        v = scalar_path([1.0, 2.0], times=(0.0, 1.0))
        with pytest.raises(ValueError, match="node"):
            duality_pairing(atom, v)

    def test_sesquilinearity(self):
        rng = np.random.default_rng(6)
        mk = lambda: Field(UNIT_GRID, rng.standard_normal(UNIT_GRID.shape)
                           + 1j * rng.standard_normal(UNIT_GRID.shape))
        pieces = (mk(), mk())
        step = step_of((0.0, 1.0, 2.0), pieces)
        v = path_of((0.0, 1.0, 2.0), (mk(), mk(), mk()))
        z = 1.3 - 0.4j
        scaled_u = Trajectory(UNIT_GRID, step.times, z * step.values)
        assert duality_pairing(scaled_u, v) == pytest.approx(z * duality_pairing(step, v))
        scaled_v = Trajectory(UNIT_GRID, v.times, z * v.values)
        assert duality_pairing(step, scaled_v) == pytest.approx(
            np.conj(z) * duality_pairing(step, v)
        )

    @given(seed=st.integers(0, 300), p=st.sampled_from([2.0, 4.0]))
    @settings(max_examples=40, deadline=None)
    def test_holder_inequality_on_atoms(self, seed, p):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 5))
        mk = lambda: Field(UNIT_GRID, rng.standard_normal(UNIT_GRID.shape)
                           + 1j * rng.standard_normal(UNIT_GRID.shape))
        partition = tuple(np.sort(rng.uniform(0, 1, k + 1)) + np.arange(k + 1) * 0.01)
        atom = make_atom(partition, tuple(mk() for _ in range(k)), p, L2)
        v = path_of(partition, tuple(mk() for _ in range(k + 1)))
        q = p / (p - 1.0)
        assert abs(duality_pairing(atom, v)) <= 1.0001 * vp_norm(v, q, L2)

