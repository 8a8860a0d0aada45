import json

import numpy as np
import pytest
from click.testing import CliRunner

import ddcap.cli
from ddcap import (
    InvariantViolation,
    enumerate_family,
    periodic_hilbert,
    phase_distance,
    random_signal,
    samples_to_spectrum,
    signal_from_zeros,
)
from ddcap.cli import main
from ddcap.formats import read_intensity_csv, read_signal_json, write_signal_json


@pytest.fixture
def runner():
    return CliRunner()


def run_ok(runner, args):
    result = runner.invoke(main, args, catch_exceptions=False)
    assert result.exit_code == 0, result.output
    return result


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


class TestRefusals:
    @pytest.mark.parametrize("args, message", [
        (["counting", "--M", "-2"], "M must be at least 1"),
        (["counting", "--M", "0"], "M must be at least 1"),
        (["counting", "--M", "100000"], "waveforms exceed the enumeration cap 16384"),
        (["enumerate", "--max-flips", "-1"], "max_flips must be at least 0"),
        (["mi", "--n-samples", "100000000000"], "n_samples=100000000000"),
    ])
    def test_out_of_range_argument_exits_3_with_one_line(self, runner, tmp_path, monkeypatch, args, message):
        if args[0] == "enumerate":
            write_signal_json(tmp_path / "sig.json", random_signal(4, seed=1))
            args = args + ["--input", str(tmp_path / "sig.json"), "--output", str(tmp_path / "o.json")]

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
    ])
    def test_malformed_input_exits_with_one_line(self, runner, tmp_path, flags, spec):
        args = ["mi", "--n-samples", "100", *flags]
        if spec is not None:
            fields = {"receiver": "coherent", "input": "qpsk", "snr_db": 10.0, "seed": 1,
                      "n_samples": 100, **spec}
            spec_path = tmp_path / "exp.json"
            spec_path.write_text(json.dumps(fields))
            args += ["--spec", str(spec_path)]
        result = runner.invoke(main, args, catch_exceptions=False)
        assert result.exit_code in (2, 3)
        assert [line.startswith("error:") for line in result.stderr.splitlines()] == [True]
        assert "Traceback" not in result.stderr
        assert "nan" not in result.stdout

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
