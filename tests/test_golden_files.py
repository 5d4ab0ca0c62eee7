"""Every text file the package writes, byte for byte against files written by an earlier release.

The files in ``tests/golden`` were written by the hand-formatted writers
that numpy's ``savetxt`` replaced; any drift of a format, a digit or a
line end fails here.  To capture them again on purpose, run
``python -m tests.test_golden_files DIR`` and copy DIR over ``tests/golden``.
"""

import dataclasses
import pathlib
import sys

import numpy as np
import pytest

from fqbarrier.brownian import brownian_product_quantizer, build_product_quantizer, save_paths
from fqbarrier.gaussian import load_quantizer, optimal_normal_quantizer, save_quantizer
from fqbarrier.models import BlackScholes
from fqbarrier.price_grid import dump_grids, quantize_price_process
from fqbarrier.tables import run_table, write_table_csv
from fqbarrier.transitions import dump_transitions, transition_steps

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"


def _quantizer(n):
    return lambda path: save_quantizer(optimal_normal_quantizer(n), path)


def _grid():
    return quantize_price_process(BlackScholes(0.15, 0.07, 100.0), brownian_product_quantizer(6, 1.0), 3)


def _table(precision):
    def write(path):
        rows = run_table(1, budget=12, mc_paths=1000)
        # the timing column is the one value that changes from run to run
        rows = [dataclasses.replace(row, qep_seconds=(i + 1) / 3) for i, row in enumerate(rows)]
        write_table_csv(rows, path, precision)

    return write


WRITERS = {
    "quantizer_1.txt": _quantizer(1),
    "quantizer_2.txt": _quantizer(2),
    "quantizer_9.txt": _quantizer(9),
    "paths_3x2_h0.7.txt": lambda path: save_paths(build_product_quantizer((3, 2), 0.7), path),
    "grids_bs_n3_b6.csv": lambda path: dump_grids(_grid(), path),
    "transitions_bs_n3_b6.csv": lambda path: dump_transitions(
        transition_steps(BlackScholes(0.15, 0.07, 100.0), _grid()), path),
    "table1_short.csv": _table("short"),
    "table1_full.csv": _table("full"),
}


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_file_is_byte_identical(tmp_path, name):
    WRITERS[name](tmp_path / name)
    assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("n", [1, 2, 9])
def test_load_quantizer_round_trips_by_hex(n):
    q = optimal_normal_quantizer(n)
    loaded = load_quantizer(GOLDEN / f"quantizer_{n}.txt")
    assert loaded.n_levels == n
    for name in ("points", "weights"):
        assert [v.hex() for v in getattr(loaded, name).tolist()] == [v.hex() for v in getattr(q, name).tolist()]
    assert float(loaded.distortion).hex() == float(q.distortion).hex()


if __name__ == "__main__":
    out = pathlib.Path(sys.argv[1])
    out.mkdir(parents=True, exist_ok=True)
    for name, write in WRITERS.items():
        write(out / name)
