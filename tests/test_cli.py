import json
import math
import subprocess
import sys

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings, strategies as st

import ddcap.cli
from ddcap import (
    InvariantViolation,
    PeriodicSignal,
    SampledIntensity,
    enumerate_family,
    intensity_grid,
    periodic_hilbert,
    phase_distance,
    random_signal,
    samples_to_spectrum,
    signal_from_zeros,
)
from ddcap.cli import main
from ddcap.formats import read_intensity_csv, read_signal_json, write_intensity_csv, write_signal_json
from ddcap.signals import FIELD_GRID_CAP


@pytest.fixture
def runner():
    return CliRunner()


def run_ok(runner, args):
    result = runner.invoke(main, args, catch_exceptions=False)
    assert result.exit_code == 0, result.output
    return result


def assert_clean_exit(result, summary):
    """Exit 0 with the summary line, or 2, 3 or 4 with one ``error:`` line."""
    assert result.exit_code in (0, 2, 3, 4), repr(result.exception)
    assert "Traceback" not in result.output
    if result.exit_code:
        assert [line.startswith("error:") for line in result.stderr.splitlines()] == [True]
    else:
        assert result.stdout.startswith(summary) and result.stderr == ""


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Input files shared by the hypothesis tests, which cannot take tmp_path."""
    path = tmp_path_factory.mktemp("inputs")
    for M in (1, 5, 16):
        write_signal_json(path / f"sig{M}.json", random_signal(M, seed=M))
    write_signal_json(path / "zero.json", PeriodicSignal(M=3, B=1.0, samples=np.zeros(3)))
    write_intensity_csv(path / "i4.csv", intensity_grid(random_signal(4, seed=1), 8))
    write_intensity_csv(path / "i16.csv", intensity_grid(random_signal(16, seed=2), 4))
    write_intensity_csv(path / "zero.csv", SampledIntensity(rate=8.0, values=np.zeros(32)))
    (path / "bad.csv").write_text("t,intensity\n0,1\n0.5,nan\n")
    return path


# scipy costs about a third of a second and 23 MiB at every start: only the
# noisy chain_bound_check imports it, so no command loads it
_SCIPY_FREE_RUN = """
import os
import sys
import ddcap.cli
from ddcap import chain_bound_check, enumerate_family, random_signal
from ddcap.formats import write_signal_json

def scipy_loaded():
    return sorted(name for name in sys.modules if name.partition(".")[0] == "scipy")

print(scipy_loaded())
os.chdir(sys.argv[1])
write_signal_json("sig.json", random_signal(4, seed=3))
for args in (
    ["simulate", "--input", "sig.json", "--receiver", "grid", "--snr-db", "30", "--output", "i.csv"],
    ["simulate", "--input", "sig.json", "--receiver", "coherent", "--snr-db", "10", "--output", "c.json"],
    ["simulate", "--input", "sig.json", "--receiver", "direct", "--output", "d.csv"],
    ["minphase", "--input", "i.csv", "--M", "4", "--output", "m.json"],
    ["enumerate", "--input", "sig.json", "--output", "f.json"],
    ["figure2", "--output", "fig.csv"],
    ["mi", "--n-samples", "1000"],
    ["mi", "--input-model", "qpsk", "--M", "2", "--n-samples", "1000"],
    ["mi", "--receiver", "intensity", "--n-samples", "1000"],
    ["mi", "--receiver", "direct", "--input-model", "qpsk", "--M", "2", "--n-samples", "1000"],
    ["counting", "--constellation", "qpsk", "--M", "4"],
    ["counting", "--constellation", "bpsk", "--M", "9"],
):
    ddcap.cli.main(args, standalone_mode=False)
print(chain_bound_check(enumerate_family(random_signal(4, seed=3)).signals).gap)
print(scipy_loaded())
"""


def test_commands_without_scipy_kernels_leave_it_unloaded(tmp_path):
    result = subprocess.run([sys.executable, "-c", _SCIPY_FREE_RUN, str(tmp_path)],
                            capture_output=True, text=True, check=True)
    lines = result.stdout.splitlines()
    # a line after the import, twelve summaries, the chain-bound gap, a line after the runs
    assert len(lines) == 15
    assert lines[0] == lines[-1] == "[]"


class TestEnumerate:
    def test_happy_path_summary_and_file(self, runner, tmp_path):
        sig_path, fam_path = tmp_path / "sig.json", tmp_path / "family.json"
        write_signal_json(sig_path, random_signal(4, seed=3))
        result = run_ok(runner, ["enumerate", "--input", str(sig_path), "--output", str(fam_path)])
        assert result.output.strip() == "members=8 zeros_on_circle=0"
        data = json.loads(fam_path.read_text())
        assert len(data["members"]) == 8

    def test_m1_single_member(self, runner, tmp_path):
        sig_path, fam_path = tmp_path / "sig.json", tmp_path / "family.json"
        write_signal_json(sig_path, random_signal(1, seed=1))
        result = run_ok(runner, ["enumerate", "--input", str(sig_path), "--output", str(fam_path)])
        assert result.output.strip() == "members=1 zeros_on_circle=0"

    def test_forced_on_circle_zero(self, runner, tmp_path):
        sig_path, fam_path = tmp_path / "sig.json", tmp_path / "family.json"
        sig = signal_from_zeros([np.exp(0.7j), 0.5 - 0.2j, 1.9 + 0.4j], M=4)
        write_signal_json(sig_path, sig)
        result = run_ok(runner, ["enumerate", "--input", str(sig_path), "--output", str(fam_path)])
        assert result.output.strip() == "members=4 zeros_on_circle=1"

    def test_parse_failure_exits_2(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        result = runner.invoke(main, ["enumerate", "--input", str(bad), "--output", str(tmp_path / "o.json")])
        assert result.exit_code == 2

    def test_missing_file_exits_2(self, runner, tmp_path):
        result = runner.invoke(
            main, ["enumerate", "--input", str(tmp_path / "nope.json"), "--output", str(tmp_path / "o.json")]
        )
        assert result.exit_code == 2

    def test_cap_exits_3(self, runner, tmp_path):
        sig_path = tmp_path / "sig.json"
        write_signal_json(sig_path, random_signal(10, seed=2))
        result = runner.invoke(
            main,
            ["enumerate", "--input", str(sig_path), "--output", str(tmp_path / "o.json"), "--max-flips", "3"],
        )
        assert result.exit_code == 3


    @pytest.mark.parametrize("bandwidth", [math.inf, -math.inf, math.nan])
    def test_nonfinite_bandwidth_exits_2(self, runner, tmp_path, bandwidth):
        # json writes these as Infinity and NaN, which its reader accepts
        sig_path = tmp_path / "sig.json"
        sig_path.write_text(json.dumps({"M": 2, "B": bandwidth, "samples": [[1.0, 0.0], [0.5, 0.25]]}))
        result = runner.invoke(main, ["enumerate", "--input", str(sig_path), "--output", str(tmp_path / "o.json")])
        assert result.exit_code == 2
        assert result.stderr.splitlines() == [
            f"error: cannot read signal JSON {sig_path}: malformed signal record: B must be finite and positive"
        ]
        assert not (tmp_path / "o.json").exists()

    # families hold at most 2^(M-1) = 32 members; the flip cap is checked
    # before any member is built
    @settings(max_examples=100, deadline=None)
    @given(
        samples=st.lists(st.tuples(st.floats(-10.0, 10.0) | st.floats(), st.floats(-10.0, 10.0) | st.floats()),
                         min_size=1, max_size=6),
        bandwidth=st.floats(1e-3, 1e3) | st.floats(),
        max_flips=st.integers(-(2**64), 40) | st.integers(2**40, 2**200),
    )
    @example([(0.0, 0.0)] * 3, 1.0, 20)  # the zero signal
    @example([(1.0, 0.0), (math.nan, 0.0)], 1.0, 20)
    @example([(1e308, -1e308), (1e308, 1e308), (-1e308, 0.0)], 1.0, 20)  # power overflows
    @example([(5e-324, 0.0), (0.0, -5e-324), (5e-324, 5e-324)], 1.0, 20)  # subnormal
    @example([(1e-300, 0.0), (5e-324, 0.0), (0.0, -1e-310)], 1.0, 20)  # normal peak, subnormal rest
    @example([(1.0, 0.0), (0.5, 0.25)], math.inf, 20)
    @example([(1.0, 0.0), (0.5, 0.25), (-0.3, 0.1)], 1.0, 2**200)
    def test_extreme_arguments_exit_cleanly(self, inputs, samples, bandwidth, max_flips):
        sig_path = inputs / "enumerate.json"
        sig_path.write_text(json.dumps({"M": len(samples), "B": bandwidth, "samples": samples}))
        args = ["enumerate", "--input", str(sig_path), "--output", str(inputs / "out"), "--max-flips", str(max_flips)]
        assert_clean_exit(CliRunner().invoke(main, args), "members=")

    def test_subnormal_samples_exit_3_naming_their_scale(self, runner, tmp_path):
        sig_path = tmp_path / "sig.json"
        sig_path.write_text(json.dumps({"M": 3, "B": 1.0, "samples": [[5e-324, 0], [0, -5e-324], [5e-324, 5e-324]]}))
        result = runner.invoke(main, ["enumerate", "--input", str(sig_path), "--output", str(tmp_path / "o.json")])
        assert result.exit_code == 3
        assert result.stderr.startswith("error: samples peak at 4.94e-324, below the smallest normal float64")

    def test_huge_samples_enumerate_with_their_intensity(self, runner, tmp_path):
        # their spectrum overflowed before the samples were scaled to about 1
        sig_path, fam_path = tmp_path / "sig.json", tmp_path / "family.json"
        samples = [[1e308, -1e308], [1e308, 1e308], [-1e308, 0.0]]
        sig_path.write_text(json.dumps({"M": 3, "B": 1.0, "samples": samples}))
        run_ok(runner, ["enumerate", "--input", str(sig_path), "--output", str(fam_path)])
        members = [m["signal"]["samples"] for m in json.loads(fam_path.read_text())["members"]]
        moduli = np.hypot(*np.moveaxis(np.array(members), -1, 0))
        assert len(members) == 4
        np.testing.assert_allclose(moduli, np.broadcast_to(np.hypot(*np.array(samples).T), moduli.shape), rtol=1e-8)


class TestRefusals:
    @pytest.mark.parametrize("args, message", [
        (["counting", "--M", "-2"], "M must be at least 1"),
        (["counting", "--M", "0"], "M must be at least 1"),
        (["counting", "--M", "100000"], "waveforms exceed the enumeration cap 16384"),
        (["enumerate", "--max-flips", "-1"], "max_flips must be at least 0"),
        (["mi", "--n-samples", "100000000000"], "n_samples=100000000000"),
        # the square-law densities cancel catastrophically above 100 dB
        (["mi", "--receiver", "intensity", "--input-model", "gaussian", "--snr-db", "300"],
         "above 1e+10 (100 dB)"),
        (["mi", "--receiver", "direct", "--input-model", "qpsk", "--M", "2", "--snr-db", "300"],
         "above 1e+10 (100 dB)"),
        (["minphase", "--M", "0"], "M must be at least 1"),
        (["minphase", "--M", "4", "--tol", "nan"], "tol must be finite and positive"),
        (["minphase", "--M", "4", "--tol", "inf"], "tol must be finite and positive"),
        (["minphase", "--M", "4", "--tol", "0"], "tol must be finite and positive"),
        (["minphase", "--M", "4", "--tol", "-1"], "tol must be finite and positive"),
    ])
    def test_out_of_range_argument_exits_3_with_one_line(self, runner, tmp_path, monkeypatch, args, message):
        if args[0] == "enumerate":
            write_signal_json(tmp_path / "sig.json", random_signal(4, seed=1))
            args = args + ["--input", str(tmp_path / "sig.json"), "--output", str(tmp_path / "o.json")]
        if args[0] == "minphase":
            write_intensity_csv(tmp_path / "i.csv", intensity_grid(random_signal(4, seed=1), 8))
            args = args + ["--input", str(tmp_path / "i.csv"), "--output", str(tmp_path / "o.json")]

        def no_draws(*_, **__):
            raise AssertionError("random draws were made for a refused request")

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        result = runner.invoke(main, args, catch_exceptions=False)
        assert result.exit_code == 3
        assert [line.startswith("error:") for line in result.stderr.splitlines()] == [True]
        assert message in result.stderr
        assert "Traceback" not in result.stderr


class TestFigure2:
    def test_seeded_run_shape_and_determinism(self, runner, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run_ok(runner, ["figure2", "--seed", "7", "--output", str(out1)])
        run_ok(runner, ["figure2", "--seed", "7", "--output", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()
        lines = out1.read_text().splitlines()
        assert lines[0] == "t,intensity," + ",".join(f"phase_{j}" for j in range(8))
        assert len(lines) == 1 + 512

    def test_phase_columns_are_distinct_and_intensity_shared(self, runner, tmp_path):
        out = tmp_path / "fig.csv"
        run_ok(runner, ["figure2", "--seed", "7", "--output", str(out)])
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        phases = rows[:, 2:]
        for i in range(8):
            for j in range(i + 1, 8):
                spread = np.ptp(phases[:, i] - phases[:, j])
                assert spread > 1e-3  # differ by more than a constant

    def test_min_vs_max_phase_matches_hilbert_relation(self, runner, tmp_path):
        # phi_min(t) - phi_max(t) + 2 H[log sqrt I](t) - d*Omega*t must be a
        # constant; identify the min/max-phase columns from the recomputed family
        out = tmp_path / "fig.csv"
        run_ok(runner, ["figure2", "--seed", "7", "--output", str(out)])
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        t, intensity, phases = rows[:, 0], rows[:, 1], rows[:, 2:]

        sig = random_signal(4, seed=7)
        fam = enumerate_family(sig)
        zs = fam.zeroset
        d = len(zs.zeros)
        min_mask = sum(1 << i for i in range(d) if zs.inside[i])
        max_mask = sum(1 << i for i in range(d) if not zs.inside[i] and not zs.on_circle[i])
        masks = [m for m, _ in fam.members]
        col_min, col_max = masks.index(min_mask), masks.index(max_mask)

        u = 0.5 * np.log(intensity)
        omega = samples_to_spectrum(sig).omega
        combo = phases[:, col_min] - phases[:, col_max] + 2 * periodic_hilbert(u) - d * omega * t
        assert np.max(np.abs(combo - combo.mean())) < 1e-6

    def test_degenerate_input_exits_3(self, runner, tmp_path):
        sig_path = tmp_path / "sig.json"
        write_signal_json(sig_path, signal_from_zeros([np.exp(0.3j), 0.5, 2.0], M=4))
        result = runner.invoke(
            main, ["figure2", "--input", str(sig_path), "--output", str(tmp_path / "o.csv")]
        )
        assert result.exit_code == 3
        assert "re-seed" in result.output or "reseed" in result.output

    def test_time_column_at_the_largest_bandwidths(self, runner, tmp_path):
        # 128 * B overflows at B=1e308: the times divide by 128, then by B
        out = tmp_path / "fig.csv"
        run_ok(runner, ["figure2", "--B", "1e308", "--output", str(out)])
        t = np.loadtxt(out, delimiter=",", skiprows=1)[:, 0]
        assert np.all(np.isfinite(t)) and np.all(np.diff(t) > 0)
        assert t[-1] == 511 / 128 / 1e308

    @settings(max_examples=100, deadline=None)
    @given(bandwidth=st.floats(1e-3, 1e3) | st.floats(), seed=st.integers(-(2**64), 2**256))
    @example(0.0, 0)
    @example(-1.0, 0)
    @example(math.inf, 0)
    @example(math.nan, 0)
    @example(1e-308, 0)  # a period beyond the float range
    @example(1.0, -1)
    def test_extreme_arguments_exit_cleanly(self, inputs, bandwidth, seed):
        args = ["figure2", "--output", str(inputs / "out"), "--B", repr(bandwidth), "--seed", str(seed)]
        assert_clean_exit(CliRunner().invoke(main, args), "members=")

    def test_wrong_m_exits_3(self, runner, tmp_path):
        sig_path = tmp_path / "sig.json"
        write_signal_json(sig_path, random_signal(6, seed=1))
        result = runner.invoke(
            main, ["figure2", "--input", str(sig_path), "--output", str(tmp_path / "o.csv")]
        )
        assert result.exit_code == 3


class TestMinphase:
    def test_roundtrip_on_all_outside_signal(self, runner, tmp_path):
        rng = np.random.default_rng(4)
        zeros = rng.uniform(1.5, 3.0, 5) * np.exp(2j * np.pi * rng.uniform(size=5))
        sig = signal_from_zeros(zeros, M=6)
        sig_path = tmp_path / "sig.json"
        csv_path = tmp_path / "intensity.csv"
        out_path = tmp_path / "recon.json"
        write_signal_json(sig_path, sig)
        run_ok(runner, ["simulate", "--input", str(sig_path), "--receiver", "grid",
                        "--oversample", "8", "--output", str(csv_path)])
        result = run_ok(runner, ["minphase", "--input", str(csv_path), "--M", "6",
                                 "--output", str(out_path)])
        assert "residual=" in result.output and "regularized=false" in result.output
        recon = read_signal_json(out_path)
        assert phase_distance(sig, recon) < 1e-6 * sig.power()

    @settings(max_examples=100, deadline=None)
    @given(
        name=st.sampled_from(["i4.csv", "i16.csv", "zero.csv", "bad.csv"]),
        m_dof=st.integers(1, 40) | st.integers(-(2**64), 0) | st.integers(2**40, 2**200),
        tol=st.floats(1e-12, 1e-2) | st.floats(),
    )
    def test_extreme_arguments_exit_cleanly(self, inputs, name, m_dof, tol):
        args = ["minphase", "--input", str(inputs / name), "--output", str(inputs / "out"),
                "--M", str(m_dof), "--tol", repr(tol)]
        assert_clean_exit(CliRunner().invoke(main, args), "residual=")

    def test_bad_csv_exits_2(self, runner, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("wrong,header\n1,2\n")
        result = runner.invoke(
            main, ["minphase", "--input", str(bad), "--M", "4", "--output", str(tmp_path / "o.json")]
        )
        assert result.exit_code == 2


class TestMi:
    def test_report_fields_and_determinism(self, runner, tmp_path):
        r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
        args = ["mi", "--receiver", "coherent", "--input-model", "gaussian",
                "--snr-db", "10", "--seed", "5", "--n-samples", "2000"]
        run_ok(runner, args + ["--output", str(r1)])
        run_ok(runner, args + ["--output", str(r2)])
        assert r1.read_bytes() == r2.read_bytes()
        data = json.loads(r1.read_text())
        assert {"bits_per_dof", "std_error", "method", "bound_direction", "version"} <= set(data)
        assert data["method"] == "monte_carlo"

    def test_experiment_spec_file(self, runner, tmp_path):
        spec_path = tmp_path / "exp.json"
        spec_path.write_text(
            json.dumps(
                {
                    "receiver": "intensity",
                    "input": {"model": "gaussian"},
                    "snr_db": 20.0,
                    "seed": 3,
                    "n_samples": 2000,
                }
            )
        )
        result = run_ok(runner, ["mi", "--spec", str(spec_path)])
        assert "bits_per_dof=" in result.output

    @pytest.mark.parametrize("flags, spec", [
        (["--M", "0"], None),
        (["--M", "-1"], None),
        (["--snr-db", "inf"], None),
        (["--snr-db", "nan"], None),
        ([], {"input": ["qpsk"]}),
        ([], {"snr_db": "x"}),
        ([], {"receiver": "homodyne"}),
        ([], {"seed": 1.5}),
        # minphase reads an intensity CSV: a row without a comma, a repeated time
        pytest.param(["minphase"], "t,intensity\n0\n0.5\n", id="csv-row-without-comma"),
        pytest.param(["minphase"], "t,intensity\n0,1\n0,1\n", id="csv-repeated-time"),
    ])
    def test_malformed_input_exits_with_one_line(self, runner, tmp_path, flags, spec):
        args = ["mi", "--n-samples", "100", *flags]
        if flags == ["minphase"]:
            (tmp_path / "i.csv").write_text(spec)
            args = [*flags, "--input", str(tmp_path / "i.csv"), "--M", "4",
                    "--output", str(tmp_path / "o.json")]
        elif spec is not None:
            fields = {"receiver": "coherent", "input": "qpsk", "snr_db": 10.0, "seed": 1,
                      "n_samples": 100, **spec}
            spec_path = tmp_path / "exp.json"
            spec_path.write_text(json.dumps(fields))
            args += ["--spec", str(spec_path)]
        result = runner.invoke(main, args, catch_exceptions=False)
        assert result.exit_code in ((2,) if flags == ["minphase"] else (2, 3))
        assert [line.startswith("error:") for line in result.stderr.splitlines()] == [True]
        assert "Traceback" not in result.stderr
        assert "nan" not in result.stdout

    # n_samples and M stay small enough to run in well under a second, or
    # are so large that the draw budget refuses them before any draw
    @settings(max_examples=100, deadline=None)
    @given(
        receiver=st.sampled_from(ddcap.cli.MI_RECEIVERS),
        model=st.sampled_from(["gaussian", "bpsk", "qpsk", "8psk"]),
        m_dof=st.integers(1, 6) | st.integers(-(2**64), 0) | st.integers(2**40, 2**200),
        n_samples=st.integers(2, 10**4) | st.integers(-(2**64), 1) | st.integers(2**40, 2**200),
        snr_db=st.floats(-60.0, 60.0) | st.floats(-3200.0, 3200.0) | st.floats(),
        seed=st.integers(-(2**64), 2**256),
    )
    # the noise variance overflows, or the densities do
    @example("coherent", "gaussian", 2, 300, -3100.0, 1)
    @example("intensity", "qpsk", 1, 300, -3080.0, 1)
    @example("intensity", "gaussian", 3, 300, 3075.0, 1)
    @example("direct", "qpsk", 3, 300, -3100.0, 1)
    def test_extreme_arguments_exit_cleanly(self, receiver, model, m_dof, n_samples, snr_db, seed):
        args = ["mi", "--receiver", receiver, "--input-model", model, "--M", str(m_dof),
                "--n-samples", str(n_samples), "--snr-db", repr(snr_db), "--seed", str(seed)]
        assert_clean_exit(CliRunner().invoke(main, args), "bits_per_dof=")

    def test_direct_gaussian_exits_3(self, runner):
        result = CliRunner().invoke(
            main, ["mi", "--receiver", "direct", "--input-model", "gaussian", "--n-samples", "100"]
        )
        assert result.exit_code == 3


class TestCounting:
    def test_qpsk_m2(self, runner, tmp_path):
        out = tmp_path / "counting.json"
        result = run_ok(runner, ["counting", "--constellation", "qpsk", "--M", "2",
                                 "--output", str(out)])
        assert "max_fiber=2" in result.output
        data = json.loads(out.read_text())
        assert data["gap_bits"] <= data["gap_bound_bits"]

    def test_unknown_constellation_exits_3(self, runner):
        result = CliRunner().invoke(main, ["counting", "--constellation", "512apsk"])
        assert result.exit_code == 3

    def test_invariant_violation_exits_4_with_one_line(self, runner, monkeypatch):
        def violated(*_, **__):
            raise InvariantViolation("counting bound violated: gap 3.5 > 1 bits")

        monkeypatch.setattr(ddcap.cli, "counting_entropy", violated)
        result = runner.invoke(main, ["counting", "--M", "2"], catch_exceptions=False)
        assert result.exit_code == 4
        assert result.stderr.splitlines() == ["error: counting bound violated: gap 3.5 > 1 bits"]
        assert "Traceback" not in result.output

    # alphabets above COUNTING_CAP are refused before anything is enumerated
    @settings(max_examples=100, deadline=None)
    @given(
        constellation=st.sampled_from(["bpsk", "qpsk", "8psk", "QPSK", "", "16qam"]) | st.text(max_size=6),
        m_dof=st.integers(-(2**64), 16) | st.integers(2**40, 2**200),
    )
    def test_extreme_arguments_exit_cleanly(self, constellation, m_dof):
        args = ["counting", "--constellation", constellation, "--M", str(m_dof)]
        assert_clean_exit(CliRunner().invoke(main, args), "n_distinct=")

    def test_alphabet_above_the_cap_exits_3(self, runner):
        result = runner.invoke(main, ["counting", "--constellation", "8psk", "--M", "5"])
        assert result.exit_code == 3
        assert result.stderr.splitlines() == ["error: 32768 waveforms exceed the enumeration cap 16384"]


class TestSimulate:
    def test_coherent_roundtrips_signal_json(self, runner, tmp_path):
        sig = random_signal(5, seed=11)
        sig_path, out_path = tmp_path / "in.json", tmp_path / "out.json"
        write_signal_json(sig_path, sig)
        run_ok(runner, ["simulate", "--input", str(sig_path), "--receiver", "coherent",
                        "--output", str(out_path)])
        noiseless = read_signal_json(out_path)
        assert np.array_equal(noiseless.samples, sig.samples)  # no --snr-db: noiseless

    def test_direct_and_intensity_rates(self, runner, tmp_path):
        sig = random_signal(5, seed=11)
        sig_path = tmp_path / "in.json"
        write_signal_json(sig_path, sig)
        direct_path = tmp_path / "direct.csv"
        run_ok(runner, ["simulate", "--input", str(sig_path), "--receiver", "direct",
                        "--snr-db", "15", "--seed", "2", "--output", str(direct_path)])
        direct = read_intensity_csv(direct_path)
        assert len(direct.values) == 10 and direct.rate == pytest.approx(2.0)
        int_path = tmp_path / "int.csv"
        run_ok(runner, ["simulate", "--input", str(sig_path), "--receiver", "intensity",
                        "--snr-db", "15", "--seed", "2", "--output", str(int_path)])
        chan = read_intensity_csv(int_path)
        assert len(chan.values) == 5 and chan.rate == pytest.approx(1.0)
        # intensity channel output is the even half of the direct output
        assert np.allclose(chan.values, direct.values[::2], atol=1e-12)

    def test_direct_is_the_grid_at_oversample_2(self, runner, tmp_path):
        sig_path = tmp_path / "in.json"
        write_signal_json(sig_path, random_signal(6, seed=4))
        outs = []
        for name, flags in (("direct.csv", ["--receiver", "direct"]),
                            ("grid.csv", ["--receiver", "grid", "--oversample", "2"])):
            out = tmp_path / name
            run_ok(runner, ["simulate", "--input", str(sig_path), *flags, "--snr-db", "12",
                            "--seed", "3", "--output", str(out)])
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    # grids stay small, or above FIELD_GRID_CAP, which is refused before any allocation
    @settings(max_examples=100, deadline=None)
    @given(
        name=st.sampled_from(["sig1.json", "sig5.json", "sig16.json", "zero.json"]),
        receiver=st.sampled_from(["coherent", "direct", "intensity", "grid"]),
        snr_db=st.none() | st.floats(-60.0, 60.0) | st.floats(-3200.0, 3200.0) | st.floats(),
        seed=st.integers(-(2**64), 2**256),
        oversample=st.integers(-(2**64), 64) | st.integers(FIELD_GRID_CAP + 1, 2**200),
    )
    @example("sig5.json", "coherent", -3084.0, 0, 0)  # the noise variance overflows
    def test_extreme_arguments_exit_cleanly(self, inputs, name, receiver, snr_db, seed, oversample):
        args = ["simulate", "--input", str(inputs / name), "--output", str(inputs / "out"),
                "--receiver", receiver, "--seed", str(seed), "--oversample", str(oversample)]
        if snr_db is not None:
            args += ["--snr-db", repr(snr_db)]
        assert_clean_exit(CliRunner().invoke(main, args), "receiver=")

    def test_noise_is_seeded(self, runner, tmp_path):
        sig_path = tmp_path / "in.json"
        write_signal_json(sig_path, random_signal(4, seed=0))
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            run_ok(runner, ["simulate", "--input", str(sig_path), "--receiver", "coherent",
                            "--snr-db", "10", "--seed", "9", "--output", str(out)])
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
