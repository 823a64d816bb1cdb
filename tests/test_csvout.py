import csv
import io

import numpy as np
import pytest

from crraport import csvout
from crraport.csvout import write_csv


def _csv_module_bytes(header, columns) -> str:
    # An array column's cells are its .tolist() values.
    columns = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns]
    fh = io.StringIO()
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(zip(*columns, strict=True))
    return fh.getvalue()


def _write_csv_bytes(header, columns) -> str:
    fh = io.StringIO()
    write_csv(fh, header, columns)
    return fh.getvalue()


class TestWriteCsv:
    ADVERSARIAL = [
        -0.0, float("nan"), float("inf"), -float("inf"), 1e16, 5e-324, None, 0, -7, 2**70, True, False,
        "a,b", 'say "hi"', "two\nlines", "", "plain", np.float64(0.1), np.int64(3), 0.1 + 0.2,
    ]

    @pytest.mark.parametrize("n_rows", [1, 19])
    def test_adversarial_cells_match_the_csv_module(self, n_rows):
        rng = np.random.default_rng(n_rows)
        cells = self.ADVERSARIAL
        columns = [
            [cells[i] for i in rng.integers(0, len(cells), n_rows)],  # mixed types
            [cells[i % len(cells)] for i in range(n_rows)],
            rng.standard_normal(n_rows),
            [-0.0] * n_rows,
            np.arange(n_rows),
            [None] * n_rows,
            ["x,y" if i % 2 else "x" for i in range(n_rows)],
        ]
        header = ["mixed", "cycle", "float", "neg_zero", "int", "none", 'text, "quoted"']
        assert _write_csv_bytes(header, columns) == _csv_module_bytes(header, columns)

    def test_one_column_and_header_only_tables(self):
        for header, columns in (
            (["only"], [["", None, "a", 1.5, '"']]),
            ([""], [[None]]),
            (["k", "gamma", "code"], [[], [], []]),
            (["k"], [[]]),
            ([], []),
        ):
            assert _write_csv_bytes(header, columns) == _csv_module_bytes(header, columns), header

    def test_tables_around_the_chunk_size(self):
        chunk = csvout.CHUNK_ROWS
        rng = np.random.default_rng(5)
        for n_rows in (chunk - 1, chunk, chunk + 1, 2 * chunk + 1):
            columns = [
                rng.integers(0, 50, n_rows),
                rng.standard_normal(n_rows),
                [None if i % 3 else "c,d" for i in range(n_rows)],
            ]
            header = ["k", "value", "code"]
            assert _write_csv_bytes(header, columns) == _csv_module_bytes(header, columns), n_rows

    def test_repeated_ints_and_signed_zeros_match_the_csv_module(self):
        # Int columns of few distinct values, negative and beyond 64 bits,
        # across chunk boundaries; float columns where 0.0 and -0.0,
        # equal as keys, must keep their own text; and float64 and int64
        # arrays of edge values, one a strided view, written as their
        # .tolist() values.
        n_rows = 2 * csvout.CHUNK_ROWS + 3
        rng = np.random.default_rng(9)
        ints = [0, 1, -1, 7, -42, 2**63, -(2**63) - 1, 2**70, -(10**30)]
        floats64 = np.array([-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1e16, 0.1 + 0.2])
        ints64 = np.array([0, 1, -1, 2**63 - 1, -(2**63 - 1), -(2**63), 42], dtype=np.int64)
        columns = [
            [ints[i] for i in rng.integers(0, len(ints), n_rows)],
            [-3] * n_rows,
            [i // 100 - 2 for i in range(n_rows)],
            [(0.0, -0.0)[i] for i in rng.integers(0, 2, n_rows)],
            [-0.0 if i % 3 else 0.0 for i in range(n_rows)],
            floats64[rng.integers(0, floats64.size, n_rows)],
            ints64[rng.integers(0, ints64.size, n_rows)],
            np.full(n_rows, -3, dtype=np.int64),
            rng.standard_normal((n_rows, 2)).T[1],
        ]
        header = ["ints", "one_int", "runs", "zeros", "zeros_cycle", "float64", "int64", "one_int64", "strided"]
        assert _write_csv_bytes(header, columns) == _csv_module_bytes(header, columns)

    def test_unequal_columns_rejected(self):
        with pytest.raises(ValueError, match="equal lengths"):
            _write_csv_bytes(["a", "b"], [[1, 2], [1]])
        with pytest.raises(ValueError, match="equal lengths"):
            _write_csv_bytes(["a", "b"], [np.arange(2), np.zeros(1)])
        with pytest.raises(ValueError):
            _csv_module_bytes(["a", "b"], [[1, 2], [1]])
