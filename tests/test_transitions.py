import csv
import io
import math
import tracemalloc

import numpy as np
import pytest

from fqbarrier.models import BlackScholes, one_step_law
from fqbarrier.brownian import brownian_product_quantizer
from fqbarrier.price_grid import quantize_price_process
from fqbarrier.quant_pricer import forward_induction
from scipy.special import ndtr

from fqbarrier.transitions import (
    _LOWER_CUT,
    _UPPER_CUT,
    TransitionMatrix,
    dump_transitions,
    mass_cells,
    transition_block,
    transition_matrices,
    transition_steps,
)
from tests.conftest import BS07, PCEV07, euler_law, full_matrix

# frozen lognormal/Gaussian CDF evaluations at the single midpoint 100
EXACT_ROW = [0.25252566906, 0.74747433094]
EULER_ROW = [0.249002865868, 0.750997134132]


# a volatile model whose one-step Euler law puts 7.5% of its mass below 0
WILD = BlackScholes(r=0.15, sigma=0.8, x0=100.0)
SOURCES = np.array([20.0, 100.0])
WILD_LAW = euler_law(WILD, SOURCES, 1.0)


def _euler_cdf(z):
    """Euler CDF at the scalar ``z`` from each of SOURCES over one unit step."""
    return WILD_LAW.cdf(z)[:, 0]


class TestCellBoundaries:
    """Cell edges as ``transition_block`` applies them: midpoints inside, the outer cells unbounded."""

    def test_single_point(self):
        block = transition_block(WILD_LAW, [100.0], 0, 1)
        assert block.tolist() == [[1.0], [1.0]]

    def test_two_points(self):
        # the bottom cell takes the mass below 0 too: its edge is -inf, not 0
        assert np.all(_euler_cdf(0.0) > 0.0)
        block = transition_block(WILD_LAW, [90.0, 110.0], 0, 2)
        assert np.array_equal(block[:, 0], _euler_cdf(100.0))
        assert np.array_equal(block[:, 1], 1.0 - _euler_cdf(100.0))

    def test_three_points(self):
        grid = [80.0, 100.0, 120.0]
        block = transition_block(WILD_LAW, grid, 0, 3)
        assert np.array_equal(block[:, 0], _euler_cdf(90.0))
        assert np.array_equal(block[:, 1], _euler_cdf(110.0) - _euler_cdf(90.0))
        assert np.array_equal(block[:, 2], 1.0 - _euler_cdf(110.0))
        for lo in range(3):
            edge = transition_block(WILD_LAW, grid, lo, lo + 1)
            assert np.array_equal(edge[:, 0], block[:, lo])

    def test_ties_give_zero_width_cells(self):
        block = transition_block(WILD_LAW, [100.0, 100.0, 100.0], 0, 3)
        assert np.array_equal(block[:, 0], _euler_cdf(100.0))
        assert block[:, 1].tolist() == [0.0, 0.0]
        assert np.array_equal(block[:, 2], 1.0 - _euler_cdf(100.0))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            transition_block(WILD_LAW, [], 0, 0)


class TestTransitionMatrix:
    def test_degenerate_single_cell(self):
        assert full_matrix(BS07, [100.0], [105.0], 0.1).tolist() == [[1.0]]

    def test_exact_mode_frozen_row(self):
        assert full_matrix(BS07, [100.0], [90.0, 110.0], 0.1)[0] == pytest.approx(EXACT_ROW, abs=1e-9)

    def test_euler_mode_frozen_row(self):
        row = transition_block(euler_law(BS07, [100.0], 0.1), [90.0, 110.0], 0, 2)[0]
        assert row == pytest.approx(EULER_ROW, abs=1e-9)

    def test_rows_renormalized_exactly(self, quant_pipeline):
        _, mats = quant_pipeline(BS07, 10)
        for tm in mats:
            assert np.max(np.abs(tm.entries.sum(axis=1) - 1.0)) < 1e-10
            assert np.all(tm.entries >= 0.0)

    def test_prenormalization_deficit_small_in_exact_mode(self, quant_grid):
        grid = quant_grid(BS07, 10)
        dt = 0.1
        for k in (1, 5, 10):
            gp, gn = grid.grids[k - 1], grid.grids[k]
            inner = 0.5 * (gn[:-1] + gn[1:])
            cum = one_step_law(BS07, gp, dt).cdf(inner)
            raw = np.diff(np.concatenate([np.zeros((966, 1)), cum, np.ones((966, 1))], axis=1), axis=1)
            assert np.max(np.abs(raw.sum(axis=1) - 1.0)) < 1e-6

    def test_rows_stochastically_ordered_in_exact_mode(self, quant_pipeline):
        grid, mats = quant_pipeline(BS07, 10)
        cdf = np.cumsum(mats[5].entries, axis=1)
        # larger starting point pushes mass to higher cells at every cut
        assert np.all(cdf[1:, :] <= cdf[:-1, :] + 1e-12)

    def test_euler_mode_default_for_pcev(self, quant_pipeline):
        grid, mats = quant_pipeline(PCEV07, 10)
        assert np.max(np.abs(mats[0].entries.sum(axis=1) - 1.0)) < 1e-10
        gp, gn = grid.grids[4], grid.grids[5]
        default = full_matrix(PCEV07, gp, gn, 0.1)
        assert np.array_equal(default, transition_block(euler_law(PCEV07, gp, 0.1), gn, 0, gn.size))
        assert np.array_equal(default, mats[4].entries)

    def test_rectangular_grids_supported(self):
        p = full_matrix(BS07, [100.0, 101.0], [90.0, 100.0, 110.0], 0.1)
        assert p.shape == (2, 3)
        assert np.max(np.abs(p.sum(axis=1) - 1.0)) < 1e-12

    def test_input_validation(self):
        with pytest.raises(ValueError):
            full_matrix(BS07, [100.0], [90.0, 110.0], 0.0)


class TestTransitionBlock:
    @pytest.mark.parametrize("model", [BS07, PCEV07], ids=["bs-exact", "pcev-euler"])
    def test_block_is_exact_slice_of_full_matrix(self, quant_pipeline, model):
        grid, mats = quant_pipeline(model, 10)
        gp, gn = grid.grids[4], grid.grids[5]
        d = gn.size
        law = one_step_law(model, gp, 0.1)
        for lo, hi in ((0, d), (0, 1), (0, 400), (300, d), (d - 1, d), (200, 700), (0, 0), (d, d)):
            block = transition_block(one_step_law(model, gp[10:20], 0.1), gn, lo, hi)
            assert np.array_equal(block, mats[4].entries[10:20, lo:hi]), (lo, hi)
            assert np.array_equal(transition_block(law, gn, lo, hi, slice(10, 20)), block), (lo, hi)

    def test_single_source_point_is_one_row(self):
        block = transition_block(one_step_law(BS07, [100.0], 0.1), [90.0, 100.0, 110.0], 1, 3)
        full = full_matrix(BS07, [100.0], [90.0, 100.0, 110.0], 0.1)
        assert block.shape == (1, 2)
        assert np.array_equal(block, full[:, 1:])

    def test_rejects_bad_range(self):
        for lo, hi in ((-1, 1), (2, 1), (0, 3)):
            with pytest.raises(ValueError):
                transition_block(one_step_law(BS07, [100.0], 0.1), [90.0, 110.0], lo, hi)


class TestMassCells:
    def test_ndtr_is_exactly_one_from_the_upper_cut_on(self):
        z = np.concatenate([np.linspace(_UPPER_CUT, 40.0, 200001), [np.inf]])
        assert np.all(ndtr(z) == 1.0)
        # the cut keeps a margin above the last argument that rounds below 1.0
        assert ndtr(8.29) < 1.0 and ndtr(_UPPER_CUT - 0.2) == 1.0
        assert 0.0 < ndtr(_LOWER_CUT) < 1.2e-19

    @pytest.mark.parametrize(
        "model,law_of",
        [(BS07, one_step_law), (BS07, euler_law), (PCEV07, one_step_law),
         (BlackScholes(0.15, 0.0, 100.0), one_step_law)],
        ids=["bs-exact", "bs-euler", "pcev-euler", "bs-sigma0"],
    )
    @pytest.mark.parametrize("n_steps", [10, 80])
    def test_cells_outside_hold_no_mass(self, quant_grid, model, law_of, n_steps):
        """Beyond hi_i every probability is 0 bit for bit; below lo_i they sum to at most ndtr(-9)."""
        grid = quant_grid(model, n_steps)
        dt = 1.0 / n_steps
        for k in (1, n_steps // 2, n_steps):
            gp, gn = grid.grids[k - 1], grid.grids[k]
            law = law_of(model, gp, dt)
            p = transition_block(law, gn, 0, gn.size)
            lo, hi = mass_cells(law, gn)
            cols = np.arange(gn.size)
            assert np.all(p[cols >= hi[:, None]] == 0.0)
            assert np.all(np.where(cols < lo[:, None], p, 0.0).sum(axis=1) <= 1.2e-19)
            assert np.all(lo < hi)
            if getattr(model, "sigma", None) == 0.0:
                assert np.all(hi - lo == 1)

    def test_degenerate_law_takes_the_cell_of_its_point(self):
        frozen = BlackScholes(0.0, 0.0, 100.0)
        points = [90.0, 100.0, 110.0]  # x0 lies on no edge; 95 and 105 are edges
        for x, cell in ((94.0, 0), (95.0, 0), (95.5, 1), (105.0, 1), (106.0, 2)):
            lo, hi = mass_cells(one_step_law(frozen, [x], 0.1), points)
            assert (lo[0], hi[0]) == (cell, cell + 1), x
            assert full_matrix(frozen, [x], points, 0.1)[0, cell] == 1.0


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
        mats = [TransitionMatrix(1, full_matrix(BS07, grids[0], grids[1], 0.1))]
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
        out = tmp_path / "p.csv"
        dump_transitions([(1, full_matrix(BS07, [100.0], [90.0, 110.0], 0.1))], out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "k,i,j,p"
        assert len(lines) == 3

    def test_streamed_dump_matches_the_matrix_list(self, tmp_path):
        """The dump of the step generator is byte for byte the CSV of every full matrix, in step order."""
        grid = quantize_price_process(BS07, brownian_product_quantizer(60, 1.0), 3)
        out = tmp_path / "p.csv"
        dump_transitions(transition_steps(BS07, grid), out)
        expected = io.StringIO(newline="")
        writer = csv.writer(expected)
        writer.writerow(["k", "i", "j", "p"])
        for tm in transition_matrices(BS07, grid):
            for i, row in enumerate(tm.entries):
                writer.writerows([tm.step, i, j, f"{v:.17g}"] for j, v in enumerate(row))
        assert out.read_bytes() == expected.getvalue().encode()

    def test_streamed_dump_memory_does_not_grow_with_steps(self, tmp_path):
        quantizer = brownian_product_quantizer(60, 1.0)
        peaks = {}
        for n in (2, 8):
            grid = quantize_price_process(PCEV07, quantizer, n)
            tracemalloc.start()
            try:
                dump_transitions(transition_steps(PCEV07, grid), tmp_path / f"p{n}.csv")
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        d = quantizer.n_paths
        assert peaks[8] <= peaks[2] + 8 * d * d
