import json

import numpy as np
import pytest

from ddcap import enumerate_family, intensity_grid, random_signal
from ddcap import formats
from ddcap.formats import (
    read_experiment_json,
    read_intensity_csv,
    read_signal_json,
    signal_from_dict,
    write_csv,
    write_family_json,
    write_intensity_csv,
    write_report_json,
    write_signal_json,
)


def test_signal_json_roundtrip_is_bit_exact(tmp_path, rng):
    sig = random_signal(7, B=2.5, seed=5)
    path = tmp_path / "sig.json"
    write_signal_json(path, sig)
    back = read_signal_json(path)
    assert back.M == sig.M and back.B == sig.B
    assert np.array_equal(back.samples, sig.samples)


def test_signal_json_schema(tmp_path):
    sig = random_signal(3, seed=1)
    path = tmp_path / "sig.json"
    write_signal_json(path, sig)
    data = json.loads(path.read_text())
    assert set(data) == {"M", "B", "samples"}
    assert data["M"] == 3
    assert all(len(pair) == 2 for pair in data["samples"])


def test_malformed_signal_rejected():
    with pytest.raises(ValueError, match="malformed"):
        signal_from_dict({"M": 2, "samples": [[0, 0]]})


def test_intensity_csv_roundtrip_is_bit_exact(tmp_path, rng):
    grid = intensity_grid(random_signal(5, seed=2), oversample=4)
    path = tmp_path / "intensity.csv"
    write_intensity_csv(path, grid)
    text = path.read_text().splitlines()
    assert text[0] == "t,intensity"
    assert len(text) == 1 + len(grid.values)
    back = read_intensity_csv(path)
    assert np.array_equal(back.values, grid.values)  # 17 significant digits round-trip
    assert back.rate == pytest.approx(grid.rate, rel=1e-15)


@pytest.mark.parametrize("rows", [0, 1, formats._CSV_BLOCK_ROWS, 2 * formats._CSV_BLOCK_ROWS + 1])
def test_csv_rows_match_a_row_by_row_writer(tmp_path, rows):
    rng = np.random.default_rng(rows)
    columns = [rng.standard_normal(rows) * 10.0 ** rng.integers(-320, 300, rows) for _ in range(3)]
    for column, value in zip(columns, (-0.0, np.inf, np.nan)):
        column[rows // 2 :: 97] = value
    path = tmp_path / "table.csv"
    write_csv(path, "a,b,c", columns)
    expected = "a,b,c\n" + "".join(f"{a:.17g},{b:.17g},{c:.17g}\n" for a, b, c in zip(*columns))
    assert path.read_text() == expected


def test_intensity_csv_rejects_nonuniform_grid(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,intensity\n0.0,1.0\n0.1,1.0\n0.3,1.0\n")
    with pytest.raises(ValueError, match="uniform"):
        read_intensity_csv(path)


def test_intensity_csv_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time,power\n0.0,1.0\n")
    with pytest.raises(ValueError, match="header"):
        read_intensity_csv(path)


def test_family_json_schema(tmp_path):
    fam = enumerate_family(random_signal(4, seed=3))
    path = tmp_path / "family.json"
    write_family_json(path, fam)
    data = json.loads(path.read_text())
    assert set(data) == {"base", "zeros", "on_circle", "members"}
    assert len(data["zeros"]) == 3
    assert len(data["on_circle"]) == 3
    assert [m["mask"] for m in data["members"]] == sorted(m["mask"] for m in data["members"])
    member = signal_from_dict(data["members"][0]["signal"])
    assert member.M == 4


def test_writers_are_deterministic(tmp_path):
    sig = random_signal(4, seed=9)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    write_signal_json(p1, sig)
    write_signal_json(p2, sig)
    assert p1.read_bytes() == p2.read_bytes()

    grid = intensity_grid(sig, 4)
    c1, c2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_intensity_csv(c1, grid)
    write_intensity_csv(c2, grid)
    assert c1.read_bytes() == c2.read_bytes()


def test_report_json_handles_numpy_scalars(tmp_path):
    path = tmp_path / "report.json"
    write_report_json(path, {"value": np.float64(1.5), "count": np.int64(3)})
    assert json.loads(path.read_text()) == {"value": 1.5, "count": 3}


def test_experiment_spec_validation(tmp_path):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({"receiver": "coherent", "input": {"model": "gaussian"}}))
    with pytest.raises(ValueError, match="missing"):
        read_experiment_json(path)
    path.write_text(
        json.dumps(
            {
                "receiver": "coherent",
                "input": {"model": "gaussian"},
                "snr_db": 10.0,
                "seed": 1,
                "n_samples": 1000,
            }
        )
    )
    spec = read_experiment_json(path)
    assert spec["receiver"] == "coherent"
