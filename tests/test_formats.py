import hashlib
import json

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings, strategies as st

from ddcap import (
    EqualIntensityFamily,
    PeriodicSignal,
    embed_finite_support,
    enumerate_family,
    intensity_grid,
    random_signal,
)
from ddcap import formats
from ddcap.cli import main
from ddcap.formats import (
    read_experiment_json,
    read_intensity_csv,
    read_signal_json,
    signal_from_dict,
    signal_to_dict,
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


def family_dict(fam):
    """The family as the dict whose sorted-key ``json.dumps`` the family JSON is."""
    zs = fam.zeroset
    M, B = fam.base.M, fam.base.B
    pairs = np.stack([fam.samples.real, fam.samples.imag], axis=-1).tolist()  # (members, M, 2)
    return {
        "base": signal_to_dict(fam.base),
        "zeros": [[float(z.real), float(z.imag)] for z in zs.zeros],
        "on_circle": [bool(b) for b in zs.on_circle],
        "members": [
            {"mask": mask, "signal": {"M": M, "B": B, "samples": samples}}
            for mask, samples in zip(fam.masks, pairs)
        ],
    }


def assert_same_family_text(got, expected):
    # member by member: pytest would diff the one-line texts character by character
    assert got.split('{"mask": ') == expected.split('{"mask": ')


@st.composite
def family_inputs(draw):
    M = draw(st.integers(1, 10))
    B = draw(st.sampled_from([1, 3, 0.75, 2.5e9]))
    if M >= 4 and draw(st.booleans()):  # on-circle zeros from the zero guard samples
        payload = random_signal(draw(st.integers(1, M // 4)), seed=draw(st.integers(0, 99))).samples
        samples = embed_finite_support(payload, M).samples
    else:
        samples = random_signal(M, seed=draw(st.integers(0, 2**32 - 1))).samples
    exponent = draw(st.integers(-1000, 1000))
    return PeriodicSignal(M, B, np.ldexp(samples.view(np.float64), exponent).view(np.complex128))


@settings(max_examples=60, deadline=None)
@given(sig=family_inputs())
@example(sig=PeriodicSignal(1, 1, [0.5 - 2j]))  # no zeros, one member
@example(sig=embed_finite_support([1.0, -0.5j], 8, B=2))
def test_family_json_is_the_sorted_json_of_its_dict(tmp_path_factory, sig):
    fam = enumerate_family(sig)
    path = tmp_path_factory.mktemp("family") / "family.json"
    write_family_json(path, fam)
    assert_same_family_text(path.read_text(), json.dumps(family_dict(fam), sort_keys=True) + "\n")


def test_family_json_refuses_non_finite_samples(tmp_path):
    fam = enumerate_family(random_signal(3, seed=1))
    samples = fam.samples.copy()
    samples[1, 2] = complex(np.inf, 0.0)
    hand_built = EqualIntensityFamily(fam.base, fam.zeroset, fam.masks, samples)
    with pytest.raises(ValueError, match="finite"):
        write_family_json(tmp_path / "family.json", hand_built)


# SHA-256 of ``ddcap enumerate`` output, fixed so that no writer change
# drifts from the published bytes unnoticed
@pytest.mark.parametrize(
    "M, size, digest",
    [
        (10, 254595, "9cd96bf12c116111db3183ca274eb15a709e45c1e593a1128c186299370f51b0"),
        (1, 230, "fe3cf18dc311584169fa8ef65dcb0c039cd5d00fbf544c680c3118e0ef65d409"),
    ],
)
def test_enumerate_output_is_pinned(tmp_path, M, size, digest):
    write_signal_json(tmp_path / "sig.json", random_signal(M, seed=5))
    args = ["enumerate", "--input", str(tmp_path / "sig.json"), "--output", str(tmp_path / "family.json")]
    result = CliRunner().invoke(main, args, catch_exceptions=False)
    assert result.exit_code == 0, result.output
    data = (tmp_path / "family.json").read_bytes()
    assert (len(data), hashlib.sha256(data).hexdigest()) == (size, digest)


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
