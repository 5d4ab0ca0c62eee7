import math

import numpy as np
import pytest

from fqbarrier.models import conditional_cdf_exact
from fqbarrier.quant_pricer import forward_induction
from fqbarrier.transitions import (
    TransitionMatrix,
    cell_boundaries,
    dump_transitions,
    transition_matrix,
)
from tests.conftest import BS07, PCEV07

# frozen lognormal/Gaussian CDF evaluations at the single midpoint 100
EXACT_ROW = [0.25252566906, 0.74747433094]
EULER_ROW = [0.249002865868, 0.750997134132]


class TestCellBoundaries:
    def test_single_point(self):
        b = cell_boundaries([100.0])
        assert b[0] == 0.0 and math.isinf(b[1])

    def test_two_points(self):
        assert cell_boundaries([90.0, 110.0]).tolist()[:2] == [0.0, 100.0]

    def test_three_points(self):
        b = cell_boundaries([80.0, 100.0, 120.0])
        assert b.tolist()[:3] == [0.0, 90.0, 110.0]
        assert math.isinf(b[3])

    def test_ties_give_zero_width_cells(self):
        b = cell_boundaries([100.0, 100.0, 100.0])
        assert b.tolist()[:3] == [0.0, 100.0, 100.0]

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            cell_boundaries([])


class TestTransitionMatrix:
    def test_degenerate_single_cell(self):
        tm = transition_matrix(BS07, [100.0], [105.0], 0.1)
        assert tm.entries.tolist() == [[1.0]]

    def test_exact_mode_frozen_row(self):
        tm = transition_matrix(BS07, [100.0], [90.0, 110.0], 0.1, cdf_mode="exact")
        assert tm.entries[0] == pytest.approx(EXACT_ROW, abs=1e-9)

    def test_euler_mode_frozen_row(self):
        tm = transition_matrix(BS07, [100.0], [90.0, 110.0], 0.1, cdf_mode="euler")
        assert tm.entries[0] == pytest.approx(EULER_ROW, abs=1e-9)

    def test_rows_renormalized_exactly(self, quant_pipeline):
        _, mats = quant_pipeline(BS07, 10)
        for tm in mats:
            assert np.max(np.abs(tm.entries.sum(axis=1) - 1.0)) < 1e-10
            assert np.all(tm.entries >= 0.0)

    def test_prenormalization_deficit_small_in_exact_mode(self, quant_pipeline):
        grid, _ = quant_pipeline(BS07, 10)
        dt = 0.1
        for k in (1, 5, 10):
            gp, gn = grid.grids[k - 1], grid.grids[k]
            inner = 0.5 * (gn[:-1] + gn[1:])
            cum = conditional_cdf_exact(BS07, inner[None, :], gp[:, None], dt)
            raw = np.diff(np.concatenate([np.zeros((966, 1)), cum, np.ones((966, 1))], axis=1), axis=1)
            assert np.max(np.abs(raw.sum(axis=1) - 1.0)) < 1e-6

    def test_rows_stochastically_ordered_in_exact_mode(self, quant_pipeline):
        grid, mats = quant_pipeline(BS07, 10)
        cdf = np.cumsum(mats[5].entries, axis=1)
        # larger starting point pushes mass to higher cells at every cut
        assert np.all(cdf[1:, :] <= cdf[:-1, :] + 1e-12)

    def test_exact_mode_rejected_for_pcev(self):
        with pytest.raises(ValueError):
            transition_matrix(PCEV07, [100.0], [90.0, 110.0], 0.1, cdf_mode="exact")

    def test_euler_mode_default_for_pcev(self, quant_pipeline):
        _, mats = quant_pipeline(PCEV07, 10)
        assert np.max(np.abs(mats[0].entries.sum(axis=1) - 1.0)) < 1e-10

    def test_rectangular_grids_supported(self):
        tm = transition_matrix(BS07, [100.0, 101.0], [90.0, 100.0, 110.0], 0.1)
        assert tm.entries.shape == (2, 3)
        assert np.max(np.abs(tm.entries.sum(axis=1) - 1.0)) < 1e-12

    def test_input_validation(self):
        with pytest.raises(ValueError):
            transition_matrix(BS07, [100.0], [90.0, 110.0], 0.0)
        with pytest.raises(ValueError):
            transition_matrix(BS07, [100.0], [110.0], 0.1, cdf_mode="magic")


def _marginals(mats, x0_cell=0):
    """Weight vector at every date of the chain started in ``x0_cell``: e0 P1 ... Pk."""
    w = np.zeros(mats[0].entries.shape[0])
    w[x0_cell] = 1.0
    out = [w]
    for tm in mats:
        out.append(out[-1] @ tm.entries)
    return out


class TestChainMarginals:
    def test_single_step_frozen(self):
        grids = [np.array([100.0, 100.0]), np.array([90.0, 110.0])]
        mats = [transition_matrix(BS07, grids[0], grids[1], 0.1, cdf_mode="exact", step=1)]
        w = _marginals(mats)
        assert w[0].tolist() == [1.0, 0.0]
        assert w[1] == pytest.approx(EXACT_ROW, abs=1e-9)
        assert forward_induction(tm.entries for tm in mats).tolist() == w[1].tolist()

    def test_identity_matrices_keep_mass_fixed(self):
        mats = [TransitionMatrix(k, np.eye(2)) for k in (1, 2, 3)]
        for wk in _marginals(mats, x0_cell=1):
            assert wk.tolist() == [0.0, 1.0]
        assert forward_induction(tm.entries for tm in mats).tolist() == [1.0, 0.0]

    def test_marginal_masses_are_probabilities(self, quant_pipeline):
        grid, mats = quant_pipeline(BS07, 10)
        for wk in _marginals(mats):
            assert abs(wk.sum() - 1.0) < 1e-10

    def test_pushforward_mean_tracks_forward_price(self, quant_pipeline):
        grid, mats = quant_pipeline(BS07, 10)
        w = forward_induction(tm.entries for tm in mats)
        mean = float(w @ grid.grids[-1])
        forward = 100.0 * math.exp(0.15)
        assert abs(mean - forward) / forward < 0.02

    def test_dimension_mismatch(self):
        mats = [TransitionMatrix(1, np.eye(2)), TransitionMatrix(2, np.eye(3))]
        with pytest.raises(ValueError):
            forward_induction(tm.entries for tm in mats)


class TestDump:
    def test_csv_rows(self, tmp_path):
        tm = transition_matrix(BS07, [100.0], [90.0, 110.0], 0.1, step=1)
        out = tmp_path / "p.csv"
        dump_transitions([tm], out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "k,i,j,p"
        assert len(lines) == 3
