import hashlib
import json
import math
import re
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ddcap import (
    EqualIntensityFamily,
    PeriodicSignal,
    SampledIntensity,
    embed_finite_support,
    enumerate_family,
    intensity_grid,
    random_signal,
)
from ddcap import formats
from ddcap.formats import (
    read_experiment_json,
    read_intensity_csv,
    read_signal_json,
    signal_from_dict,
    signal_to_dict,
    write_csv,
    write_family_json,
    write_intensity_csv,
    write_signal_json,
)

from conftest import invoke


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


# fields that make a signal record malformed: samples that are not pairs of
# numbers, an M that is not an integral number or a B that is no number.
# Neither M nor B is taken from a string or a bool, nor a fractional M cut
# to an integer
MALFORMED_SIGNAL_FIELDS = [
    {"samples": [["1", "0"]]},
    {"samples": [[1, "0"]]},
    {"samples": [[None, 0]]},
    {"samples": [[2**70, None]]},
    {"samples": [[10**30, "1"]]},  # an object array: ints beyond 64 bits and a string
    {"samples": [[1, 0], [1]]},
    {"samples": [[1, 0, 2]]},
    {"samples": [[[1, 0]]]},
    {"samples": []},
    {"samples": {"re": 1, "im": 0}},
    {"samples": "1,0"},
    {"samples": [[1e308, 10**400]]},  # beyond the float range
    {"M": 3.7, "samples": [[1, 0], [0, 1], [1, 1]]},
    {"M": math.inf},
    {"M": "1"},
    {"M": True},
    {"M": None},
    {"B": "1"},
    {"B": True},
    {"B": [1.0]},
    {"B": 10**400},
]


@pytest.mark.parametrize("fields", MALFORMED_SIGNAL_FIELDS)
def test_malformed_signal_record_exits_2_with_one_line(tmp_path, fields):
    record = {"M": 1, "B": 1.0, "samples": [[1, 0]], **fields}
    with pytest.raises(ValueError, match="^malformed signal record: "):
        signal_from_dict(record)
    path = tmp_path / "sig.json"
    path.write_text(json.dumps(record))
    result = invoke(["enumerate", "--input", str(path), "--output", str(tmp_path / "family.json")])
    assert result.exit_code == 2, result.output
    assert len(result.stderr.splitlines()) == 1
    assert result.stderr.startswith(f"error: cannot read signal JSON {path}: malformed signal record: ")
    assert not (tmp_path / "family.json").exists()


def test_signal_M_may_be_an_integral_float():
    sig = signal_from_dict({"M": 3.0, "B": 2, "samples": [[1, 0], [0, 1], [1, 1]]})
    assert (type(sig.M), sig.M, type(sig.B), sig.B) == (int, 3, float, 2.0)


def test_signal_samples_take_ints_and_bools_as_complex_does():
    samples = [[1, 0], [True, -2**70], [-0.0, 2**64], [0.5, False]]
    sig = signal_from_dict({"M": 4, "B": 1.0, "samples": samples})
    expected = np.array([complex(re, im) for re, im in samples])
    assert sig.samples.view(np.uint64).tolist() == expected.view(np.uint64).tolist()


def test_signal_to_dict_writes_each_sample_as_two_floats():
    sig = PeriodicSignal(3, 1.0, [1 + 0j, complex(-0.0, 5e-324), complex(1e308, -0.0)])
    samples = signal_to_dict(sig)["samples"]
    assert samples == [[float(s.real), float(s.imag)] for s in sig.samples]
    assert [type(x) for pair in samples for x in pair] == [float] * 6
    assert json.dumps(samples) == "[[1.0, 0.0], [-0.0, 5e-324], [1e+308, -0.0]]"


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


def read_intensity_csv_by_row(path) -> SampledIntensity:
    """The row-by-row reader that ``read_intensity_csv`` replaced: the oracle
    for every file both accept."""
    with open(path) as fh:
        header = fh.readline().strip()
        if header.split(",")[:2] != ["t", "intensity"]:
            raise ValueError(f"expected header 't,intensity', got {header!r}")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    if len(rows) < 2:
        raise ValueError("intensity CSV needs at least two rows")
    if any(len(r) < 2 for r in rows):
        raise ValueError("every intensity CSV row needs a time and an intensity")
    t = np.array([float(r[0]) for r in rows])
    vals = np.array([float(r[1]) for r in rows])
    dt = np.diff(t)
    rate = 1.0 / float(dt[0]) if dt[0] > 0 else 0.0
    if not 0.0 < rate < np.inf:
        raise ValueError("intensity grid times must increase by a positive, finite step")
    if not np.all(np.abs(dt - dt[0]) <= 1e-9 * dt[0]):
        raise ValueError("intensity grid must be uniform")
    return SampledIntensity(rate=rate, values=vals)


_PADDING = st.sampled_from(["", " ", "\t", " \t ", "\x0b", "\xa0"])


@st.composite
def intensity_csv_texts(draw):
    """A well-formed intensity CSV, written in the ways a hand-made one may
    be: any float notation, padding around fields, CRLF, blank and
    whitespace-only lines, extra columns and trailing commas."""
    n = draw(st.integers(2, 40))
    step = math.ldexp(1.0, draw(st.integers(-40, 20)))  # k * step is exact: a uniform grid
    start = draw(st.sampled_from([0.0, -0.0, step, -3 * step]))
    values = draw(st.lists(
        st.floats(0.0, 1e300) | st.floats(0.0, 2.3e-308) | st.sampled_from([0.0, -0.0, 5e-324, 1.7e308]),
        min_size=n, max_size=n,
    ))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    lines = ["t,intensity" + draw(st.sampled_from(["", ",extra", ","]))]
    for k, value in enumerate(values):
        fields = [
            draw(st.sampled_from(["%r", "%.17g", "%.17e", "%.17E", "%+.20g"])) % x
            for x in (start + k * step, value)
        ]
        fields += draw(st.lists(st.sampled_from(["", "x", "1e999", "nan", "-", " 7 "]), max_size=2))
        padded = [draw(_PADDING) + field + draw(_PADDING) for field in fields]
        lines += draw(st.lists(st.sampled_from(["", " ", "\t", " \t  "]), max_size=2))
        lines.append(",".join(padded))
    return newline.join(lines) + draw(st.sampled_from(["", newline, newline + "  " + newline]))


@settings(max_examples=100, deadline=None)
@given(text=intensity_csv_texts())
@example(text="t,intensity\n0,1\n0.5,2\n")
@example(text="t,intensity\r\n\t-0 ,\t-0e0,\r\n\r\n 1E-3, 4.9e-324 \r\n  \r\n2e-3,1.5e+300,7,")
def test_intensity_csv_reads_as_the_row_by_row_reader(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("csv") / "i.csv"
    path.write_bytes(text.encode())
    expected = read_intensity_csv_by_row(path)
    got = read_intensity_csv(path)
    assert got.rate == expected.rate
    assert got.values.dtype == np.float64
    assert got.values.view(np.uint64).tolist() == expected.values.view(np.uint64).tolist()


# name, file text, a part of the message: each raises ValueError and makes
# ``ddcap minphase`` exit 2 with one line
MALFORMED_INTENSITY_CSVS = [
    ("row-without-comma", "t,intensity\n0,1\n0.5\n", "column"),
    ("empty-field", "t,intensity\n0,1\n0.5,\n", "could not convert string ''"),
    ("text", "t,intensity\n0,1\n0.5,one\n", "could not convert string 'one'"),
    ("one-row", "t,intensity\n0,1\n", "at least two rows"),
    ("nan-value", "t,intensity\n0,1\n0.5,nan\n", "finite"),
    ("inf-value", "t,intensity\n0,1\n0.5,inf\n", "finite"),
    ("nan-time", "t,intensity\nnan,1\n0.5,1\n", "positive, finite step"),
    ("inf-times", "t,intensity\ninf,1\ninf,1\n", "positive, finite step"),
    ("step-overflows", "t,intensity\n-1e308,1\n1e308,1\n", "positive, finite step"),
    ("wrong-header", "time,power\n0,1\n0.5,1\n", "header"),
    ("non-uniform-grid", "t,intensity\n0,1\n0.1,1\n0.3,1\n", "uniform"),
    ("header-alone", "t,intensity\n", "at least two rows"),
    ("whitespace-body", "t,intensity\n \n\t\r\n\n", "at least two rows"),
    ("empty-file", "", "header"),
    # float() reads 1_0 as 10; no ddcap writer groups digits
    ("underscore-digits", "t,intensity\n0,1_0\n0.5,1\n", "could not convert string '1_0'"),
]


@pytest.mark.parametrize("text, message", [case[1:] for case in MALFORMED_INTENSITY_CSVS],
                         ids=[case[0] for case in MALFORMED_INTENSITY_CSVS])
def test_malformed_intensity_csv_raises_value_error(tmp_path, text, message):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy warning on the way to the refusal
        with pytest.raises(ValueError, match=re.escape(message)):
            read_intensity_csv(path)


@pytest.mark.parametrize("text", [case[1] for case in MALFORMED_INTENSITY_CSVS],
                         ids=[case[0] for case in MALFORMED_INTENSITY_CSVS])
def test_malformed_intensity_csv_exits_2_with_one_line(tmp_path, text):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    args = ["minphase", "--input", str(path), "--M", "4", "--output", str(tmp_path / "o.json")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = invoke(args)
    assert result.exit_code == 2, result.output
    assert len(result.stderr.splitlines()) == 1
    assert result.stderr.startswith(f"error: cannot read intensity CSV {path}: ")
    assert not (tmp_path / "o.json").exists()


def test_intensity_csv_is_read_in_bounded_memory(tmp_path):
    # the row-by-row reader held a list of strings and two lists of floats
    # per row: 84 MiB here
    grid = intensity_grid(random_signal(256, seed=1), 1024)
    path = tmp_path / "i.csv"
    write_intensity_csv(path, grid)
    columns_bytes = 2 * grid.values.nbytes  # 4 MiB
    tracemalloc.start()
    try:
        back = read_intensity_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(back.values) == 1 << 18
    assert np.array_equal(back.values, grid.values)
    assert peak <= 8 * columns_bytes, f"{peak / 2**20:.1f} MiB"


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
# drifts from the published bytes unnoticed.  M=10 was re-pinned when the
# members came to be built as the samples times all-pass factors: their
# bits moved in the last places
@pytest.mark.parametrize(
    "M, size, digest",
    [
        (10, 254537, "154437356eb7390ef9c57d21f39fc0dee0bd3618a24adb0799d6cbb3d18e5cab"),
        (1, 230, "fe3cf18dc311584169fa8ef65dcb0c039cd5d00fbf544c680c3118e0ef65d409"),
    ],
)
def test_enumerate_output_is_pinned(tmp_path, M, size, digest):
    write_signal_json(tmp_path / "sig.json", random_signal(M, seed=5))
    args = ["enumerate", "--input", str(tmp_path / "sig.json"), "--output", str(tmp_path / "family.json")]
    result = invoke(args)
    assert result.exit_code == 0, result.output
    data = (tmp_path / "family.json").read_bytes()
    assert (len(data), hashlib.sha256(data).hexdigest()) == (size, digest)


# SHA-256 of ``ddcap mi`` and ``ddcap counting`` reports, fixed as the
# enumerate output is; the coherent Gaussian report carries the closed form.
# The direct QPSK report was re-pinned when the mixture came to run over
# distinct noiseless outputs: its std_error moved by 1 ulp.  The 8PSK M=3
# and BPSK M=9 counting reports, the benchmark's alphabets with the most
# phase rotations per field, were pinned while every row's intensity was
# still clustered
@pytest.mark.parametrize(
    "args, size, digest",
    [
        (["mi", "--receiver", "coherent", "--input-model", "gaussian", "--M", "1"],
         321, "a9c2aece6961d6878316b5451627ca7d117d75c3d2509f5f88eed74745d146ab"),
        (["mi", "--receiver", "direct", "--input-model", "qpsk", "--M", "2"],
         311, "d335c389f93858c44b664d3516c3462d18b67962fab331c2a74e436bd3861506"),
        (["counting", "--constellation", "qpsk", "--M", "3"],
         235, "a28ea8da0beabdcfdcc773e375035a230f36774419601e3b5b721b5bd8a844a4"),
        (["counting", "--constellation", "8psk", "--M", "3"],
         236, "837e9983fb5d06586af9b12a1c3aa9f832bf5b8f7eeb86428feb7f0a6c978553"),
        (["counting", "--constellation", "bpsk", "--M", "9"],
         239, "c9003ea8584bf4071e47d2b0b66dae8809277db300b74897fa04f2c615a2f20e"),
    ],
    ids=["mi-coherent-gaussian", "mi-direct-qpsk", "counting-qpsk", "counting-8psk", "counting-bpsk"],
)
def test_report_output_is_pinned(tmp_path, args, size, digest):
    if args[0] == "mi":
        args = args + ["--n-samples", "2000", "--seed", "5", "--snr-db", "10"]
    result = invoke(args + ["--output", str(tmp_path / "report.json")])
    assert result.exit_code == 0, result.output
    data = (tmp_path / "report.json").read_bytes()
    assert (len(data), hashlib.sha256(data).hexdigest()) == (size, digest)


# SHA-256 of ``ddcap mi`` reports over alphabets of one noiseless output,
# pinned while they were still drawn: answered without drawing, they keep
# every byte.  The first two are the benchmark's mc requests at mix seed 1
@pytest.mark.parametrize(
    "args, size, digest",
    [
        (["--receiver", "intensity", "--input-model", "qpsk", "--M", "2", "--n-samples", "100000",
          "--snr-db", "10.0", "--seed", "648359026"],
         293, "62ab6f22457556e8ec4b91cdbf4ef41934c753fe2f0dca1225cc8a4d8067e6bf"),
        (["--receiver", "direct", "--input-model", "bpsk", "--M", "2", "--n-samples", "50000",
          "--snr-db", "20.0", "--seed", "1962133766"],
         290, "1ec1464a41859005b54cf662b0befd722280e7a9baacaec1b445a45ec8e67bd7"),
        (["--receiver", "intensity", "--input-model", "8psk", "--M", "3", "--n-samples", "20000",
          "--snr-db", "10", "--seed", "5"],
         284, "98ee096f79376b4c28e05fd8e542f8b8a823674a6084545376fb2f3d9d7b0412"),
    ],
    ids=["mi-intensity-qpsk", "mi-direct-bpsk", "mi-intensity-8psk"],
)
def test_single_output_report_is_pinned(tmp_path, args, size, digest):
    threads = threading.active_count()
    result = invoke(["mi", *args, "--output", str(tmp_path / "report.json")])
    assert result.exit_code == 0, result.output
    assert threading.active_count() == threads
    data = (tmp_path / "report.json").read_bytes()
    assert (len(data), hashlib.sha256(data).hexdigest()) == (size, digest)


# SHA-256 of the CSVs ``ddcap figure2`` and ``ddcap simulate`` write, whose
# dense grids all come from signals.field_grid.  figure2 was re-pinned with
# the enumerate output above, as it plots a family's members
@pytest.mark.parametrize(
    "args, size, digest",
    [
        (["figure2", "--seed", "7"],
         96427, "b8f79d6c2b39f4dc18f2871fc860be77a1ae8d531deb25fe40f4ef890aa34248"),
        (["simulate", "--receiver", "grid", "--snr-db", "20", "--seed", "3"],
         1205, "8e4bfb33bc8b7dd4ed1c3ed402655f124cc3ff9dbad69a43a2a0b9b81e11c812"),
        (["simulate", "--receiver", "direct", "--snr-db", "20", "--seed", "3"],
         287, "20178a6e513f13f79e26b0d46858046caf6e3b8e733d5d8cd0816a1dadd27e0e"),
    ],
    ids=["figure2", "simulate-grid", "simulate-direct"],
)
def test_grid_csv_output_is_pinned(tmp_path, args, size, digest):
    if args[0] == "simulate":
        write_signal_json(tmp_path / "sig.json", random_signal(6, seed=1))
        args = args + ["--input", str(tmp_path / "sig.json")]
    result = invoke(args + ["--output", str(tmp_path / "out.csv")])
    assert result.exit_code == 0, result.output
    data = (tmp_path / "out.csv").read_bytes()
    assert (len(data), hashlib.sha256(data).hexdigest()) == (size, digest)


# SHA-256 of noisy ``ddcap simulate`` output on random_signal(M, seed=3) at
# seed 5: the in-band noise draws, which the Monte-Carlo estimator shares,
# keep every byte
@pytest.mark.parametrize(
    "receiver, snr_db, M, size, digest",
    [
        ("coherent", "10", 1, 75, "ff04d9315efe138f1f276788a547833c6616b2d73008846eb0e40baf349b224b"),
        ("coherent", "10", 4, 205, "70538a640fddba413901435361b233a4121a6ff81211826e009fb8e6ce5ed9db"),
        ("coherent", "10", 16, 728, "afddf4c025002c277dfa420270535afbaa5c372a23946fd572a3147e1de9d8b3"),
        ("grid", "30", 1, 204, "9254fe048aeceb022c0ced697c22e13023a03d734814fbca5aef1f9c37325c77"),
        ("grid", "30", 4, 789, "ab3683ded295caf38e70519111c350401b7b39f83afc66c62fa917ee3e09a412"),
        ("grid", "30", 16, 3187, "23d9e8b2f968bb68ef73100a66135776fa619098b8ea6c10fd4c5826d7663b26"),
    ],
)
def test_noisy_simulate_output_is_pinned(tmp_path, receiver, snr_db, M, size, digest):
    write_signal_json(tmp_path / "sig.json", random_signal(M, seed=3))
    out = tmp_path / "out"
    result = invoke(["simulate", "--input", str(tmp_path / "sig.json"), "--receiver", receiver,
                     "--snr-db", snr_db, "--seed", "5", "--output", str(out)])
    assert result.exit_code == 0, result.output
    data = out.read_bytes()
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


@pytest.mark.parametrize("args", [
    ["mi", "--n-samples", "100"],
    ["mi", "--receiver", "direct", "--input-model", "qpsk", "--M", "2", "--n-samples", "100"],
    ["counting", "--M", "3"],
    ["counting", "--M", "1"],
])
def test_reports_hold_plain_python_values(monkeypatch, args):
    # the report writer has no fallback for numpy scalars: the commands hand it none
    payloads = []
    monkeypatch.setattr("ddcap.cli.write_report_json", lambda path, report: payloads.append(report))
    result = invoke(args + ["--output", "unused.json"])
    assert result.exit_code == 0, result.output
    [payload] = payloads
    assert {type(value) for value in payload.values()} <= {bool, int, float, str, type(None)}


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
