import os
from dataclasses import replace

import numpy as np
import pytest

from spincluster import cli, protocol
from spincluster.cli import EXIT_CHECK_FAILED, EXIT_OK, EXIT_USAGE, main
from spincluster.noise import OUNoise
from spincluster.presets import (
    PRESET_DIR_ENV, load_preset, load_presets, preset_names, spin_params,
)
from spincluster.protocol import run
from spincluster.synthesis import serialize_sequence


class TestPresets:
    def test_names_include_known_systems(self):
        names = preset_names()
        for expected in ("siv29", "siv", "snv", "gev", "nv", "qd"):
            assert expected in names
        assert "schema" not in names

    def test_working_point_values(self):
        d = load_preset("siv29")
        assert d["a_par_hz"] == 70e6
        assert d["bx_t"] == 0.6 and d["bz_t"] == 0.6
        assert d["gamma_n_hz_per_t"] == -8.465e6
        assert d["tau_s"] == 1.7e-9
        assert d["eta_combined"] == 0.85

    def test_spin_params(self):
        p = spin_params("siv29")
        assert p.a_par == 70e6
        assert p.b_field == (0.6, 0.0, 0.6)
        assert p.lambda_so == 50e9

    def test_unknown_preset(self):
        with pytest.raises(KeyError):
            load_preset("carbon13")
        with pytest.raises(KeyError):
            load_preset("schema")

    def test_env_override(self, tmp_path, monkeypatch):
        (tmp_path / "presets.ini").write_text(
            "[schema]\nversion = 1\n\n[custom]\na_par_hz = 1e6\n"
            "bx_t = 0.1\nbz_t = 0.2\n"
        )
        monkeypatch.setenv(PRESET_DIR_ENV, str(tmp_path))
        assert preset_names() == ["custom"]
        p = spin_params("custom")
        assert p.a_par == 1e6 and p.b_field == (0.1, 0.0, 0.2)

    def test_schema_version_check(self, tmp_path, monkeypatch):
        (tmp_path / "presets.ini").write_text("[schema]\nversion = 99\n")
        monkeypatch.setenv(PRESET_DIR_ENV, str(tmp_path))
        with pytest.raises(ValueError):
            load_presets()


class TestCLI:
    def test_unknown_preset_exit_code(self, tmp_path):
        rc = main(["synthesize", "--target", "cz", "--preset", "nope",
                   "--output", str(tmp_path / "x.ddseq")])
        assert rc == EXIT_USAGE

    def test_unknown_target_exit_code(self, tmp_path):
        rc = main(["synthesize", "--target", "toffoli",
                   "--output", str(tmp_path / "x.ddseq")])
        assert rc == EXIT_USAGE

    def test_synthesize_without_unit_counts_exit_code(self, tmp_path, capsys):
        # --max-k 1 leaves no even unit count to search
        out = tmp_path / "cz.ddseq"
        rc = main(["synthesize", "--target", "cz", "--max-k", "1",
                   "--output", str(out)])
        assert rc == EXIT_USAGE
        assert "unit counts" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("restarts", ["0", "-1"])
    def test_synthesize_without_restarts_exit_code(self, tmp_path, capsys, restarts):
        out = tmp_path / "cz.ddseq"
        rc = main(["synthesize", "--target", "cz", "--restarts", restarts,
                   "--output", str(out)])
        assert rc == EXIT_USAGE
        assert "restarts" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv,named", [
        pytest.param(argv, named, id=" ".join(argv)) for argv, named in [
            (["rate", "--duration", "0"], "duration"),
            (["rate", "--eta-combined", "1.5"], "eta_combined"),
            (["figure", "fig3c", "--tau-min", "0"], "--tau-min"),
            (["figure", "fig3c", "--tau-max", "nan"], "--tau-max"),
            (["figure", "fig3c", "--omega-min=-1e7"], "--omega-min"),
            (["figure", "fig3c", "--omega-max", "inf"], "--omega-max"),
            (["figure", "fig3b", "--trials", "1"], "trials"),
            (["run", "--t2", "1e-6", "--t2-star", "2e-6"], "T2"),
            (["run", "--t2", "0"], "--t2 "),
            (["run", "--ideal-gates", "--t2", "-5"], "--t2 "),
            (["run", "--ideal-gates", "--t2-star", "1e-6"], "--t2-star"),
            (["run", "--t2-star", "nan", "--trials", "10", "--n", "1"], "--t2-star"),
            (["run", "--t2-star=-1e-6"], "--t2-star"),
            (["rate", "--duration", "nan"], "--duration"),
            (["rate", "--duration", "inf"], "--duration"),
            (["rate", "--photons", "0"], "photons"),
            (["rate", "--photons", "-3"], "photons"),
            (["figure", "fig3a", "--t2-list", "-1"], "--t2-list"),
            (["figure", "fig3b", "--max-columns", "-1"], "--max-columns"),
            (["figure", "fig3b", "--max-columns", "0"], "--max-columns"),
            (["figure", "fig3c", "--grid", "-1"], "--grid"),
            (["figure", "fig3c", "--grid", "0"], "--grid"),
            (["synthesize", "--target", "cz", "--max-k", "1"], "--max-k"),
            # no Hamiltonian fields
            (["synthesize", "--target", "cz", "--preset", "snv"], "snv"),
            (["synthesize", "--target", "cz", "--duration-limit", "nan"], "duration_limit"),
        ]
    ])
    def test_bad_input_is_a_usage_error(self, tmp_path, capsys, argv, named):
        # every command reports a ValueError or KeyError on one stderr line
        # that names the parameter at fault, without a traceback, and leaves
        # its --output as it was
        missing, existing = tmp_path / "missing.csv", tmp_path / "existing.csv"
        existing.write_bytes(b"kept\n")
        for out in (missing, existing):
            assert main(argv + ["--output", str(out)]) == EXIT_USAGE
            err = capsys.readouterr().err
            assert err.startswith(f"{argv[0]}: ") and err.count("\n") == 1
            assert named in err and "Traceback" not in err
        assert not missing.exists()
        assert existing.read_bytes() == b"kept\n"

    def test_unknown_target_names_the_targets(self, capsys):
        assert main(["synthesize", "--target", "toffoli"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("synthesize: unknown target 'toffoli'") and "cz" in err

    def test_synthesize_below_threshold(self, tmp_path):
        # an unattainably tight threshold with a tiny search must report
        # failure through the exit code but still write the best sequence
        out = tmp_path / "swap.ddseq"
        rc = main(["synthesize", "--target", "swap", "--threshold", "0.9999999",
                   "--max-k", "2", "--restarts", "1",
                   "--output", str(out)])
        assert rc == EXIT_CHECK_FAILED
        assert "met_threshold 0" in out.read_text()

    def test_synthesize_to_stdout_writes_only_the_gate_file(self, monkeypatch, capsys):
        # the summary line goes to stderr, so `synthesize > gate.ddseq` stores
        # the gate file and nothing else
        reports, synthesize = [], cli.synthesize

        def recorded(*args, **kw):
            reports.append(synthesize(*args, **kw))
            return reports[-1]

        monkeypatch.setattr(cli, "synthesize", recorded)
        main(["synthesize", "--target", "cz", "--max-k", "4", "--restarts", "1"])
        out, err = capsys.readouterr()
        assert out == serialize_sequence(reports[0], spin_params("siv29"))
        assert err.startswith("target=cz k=")

    def test_run_ideal_gates(self, tmp_path):
        out = tmp_path / "run.csv"
        rc = main(["run", "--m", "2", "--n", "2", "--ideal-gates",
                   "--output", str(out)])
        assert rc == EXIT_OK
        text = out.read_text()
        lines = text.splitlines()
        assert lines[0].startswith("# spincluster ")
        assert lines[1].startswith("# config_hash=")
        assert lines[2].startswith("# seed=")
        header = lines[3].split(",")
        assert header[:4] == ["m", "n", "style", "fidelity"]
        row = lines[4].split(",")
        assert abs(float(row[3]) - 1.0) < 1e-9

    def test_run_past_the_dense_reach(self, capsys):
        # the dense 2x20 batch of 20 trajectories would take 20 * 2^42 * 16 B
        rc = main(["run", "--m", "2", "--n", "20", "--trials", "20"])
        assert rc == EXIT_OK
        row = capsys.readouterr().out.splitlines()[-1].split(",")
        assert row[:3] == ["2", "20", "lean"] and row[-1] == "20"
        assert 0.9 < float(row[3]) <= 1

    def test_noisy_run_needs_two_trials(self, tmp_path, capsys):
        out = tmp_path / "run.csv"
        rc = main(["run", "--trials", "1", "--output", str(out)])
        assert rc == EXIT_USAGE
        assert "at least 2 trials" in capsys.readouterr().err
        assert not out.exists()

    def test_run_refusal_is_a_usage_error(self, tmp_path, capsys, monkeypatch):
        # M = 8 at the default 2000 noisy trials needs a 2.1-GB boundary,
        # six of which are refused on a 7-GiB box before the engine starts,
        # and the CLI reports the refusal, not a traceback
        def no_allocation(*args):
            raise AssertionError("the engine ran")

        memory = {"SC_PHYS_PAGES": 7 * 2 ** 18, "SC_PAGE_SIZE": 4096}
        monkeypatch.setattr(protocol.os, "sysconf", memory.__getitem__)
        monkeypatch.setattr(protocol, "_gate_unitaries", no_allocation)
        out = tmp_path / "run.csv"
        rc = main(["run", "--m", "8", "--n", "1", "--style", "pedagogical",
                   "--output", str(out)])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("run: the boundary tensor needs ")
        assert "Traceback" not in err and not out.exists()

    def test_rate_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["rate", "--photons", "10", "--duration", "3e-6"]
        assert main(argv + ["--output", str(a)]) == EXIT_OK
        assert main(argv + ["--output", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()
        # the rate model draws nothing, so its header names no seed
        assert not any(line.startswith("# seed=") for line in a.read_text().splitlines())
        rate = float(a.read_text().splitlines()[-1].split(",")[-1])
        assert abs(rate - 0.85 ** 10 / 3e-6) < 1.0

    def test_rate_takes_no_seed(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["rate", "--seed", "3"])
        assert exit_.value.code == EXIT_USAGE
        assert "unrecognized arguments: --seed 3" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["fig3a", "--grid", "3"], ["fig3a", "--max-columns", "2"],
        ["fig3b", "--t2-list", "1e-6"], ["fig3b", "--tau-min", "1e-9"],
        ["fig3c", "--trials", "5"], ["fig3c", "--seed", "1"],
        ["rates", "--seed", "1"], ["rates", "--grid", "3"],
    ], ids=" ".join)
    def test_figure_takes_only_its_own_flags(self, capsys, argv):
        # a flag that another figure reads is refused, not dropped
        with pytest.raises(SystemExit) as exit_:
            main(["figure"] + argv)
        assert exit_.value.code == EXIT_USAGE
        assert f"unrecognized arguments: {' '.join(argv[1:])}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,draws", [
        pytest.param(argv, draws, id=argv[0]) for argv, draws in [
            (["fig3a", "--t2-list", "8e-6", "--trials", "2"], True),
            (["fig3b", "--trials", "2", "--max-columns", "1"], True),
            (["fig3c", "--grid", "2"], False),
            (["rates"], False),
        ]
    ])
    def test_figure_header_names_a_seed_only_if_it_draws(self, capsys, argv, draws):
        assert main(["figure"] + argv) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("# spincluster ") and lines[1].startswith("# config_hash=")
        assert (lines[2] == "# seed=0") == draws
        assert sum(line.startswith("#") for line in lines) == 2 + draws

    @staticmethod
    def _columns_and_rows(path):
        """The column row after a CSV's `#` header lines, and the lines after it."""
        lines = path.read_text().splitlines()
        i = next(i for i, line in enumerate(lines) if not line.startswith("#"))
        return lines[i], lines[i + 1:]

    def test_figure_emission_grid(self, tmp_path):
        out = tmp_path / "fig3c.csv"
        rc = main(["figure", "fig3c", "--grid", "6", "--output", str(out)])
        assert rc == EXIT_OK
        columns, lines = self._columns_and_rows(out)
        assert columns == "tau_s,delta_omega_rad_s,fidelity"
        rows = [line.split(",") for line in lines]
        assert len(rows) == 36
        fids = np.array([float(r[2]) for r in rows])
        assert np.all((fids >= np.sqrt(0.5) - 1e-9) & (fids <= 1.0))
        # along each tau row the fidelity decreases with the mismatch
        for i in range(6):
            row = fids[6 * i:6 * i + 6]
            assert np.all(np.diff(row) <= 1e-12)

    def test_figure_deterministic_bytes(self, tmp_path):
        # fig3a runs seeded noisy trajectories: one seed, the same CSV bytes
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["figure", "fig3a", "--trials", "50"]
        assert main(argv + ["--output", str(a)]) == EXIT_OK
        assert main(argv + ["--output", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_figure_rows_draw_their_own_seeds(self, capsys):
        # two rows at one T2: with one seed for both they would be the same
        assert main(["figure", "fig3a", "--t2-list", "8e-6", "8e-6", "--trials", "50"]) == EXIT_OK
        rows = capsys.readouterr().out.splitlines()[-2:]
        assert rows[0].split(",")[1] == rows[1].split(",")[1] == "8.000e-06"
        assert rows[0] != rows[1]

    def test_figure_rates(self, tmp_path):
        out = tmp_path / "rates.csv"
        assert main(["figure", "rates", "--output", str(out)]) == EXIT_OK
        columns, lines = self._columns_and_rows(out)
        assert columns == "photons,duration_s,rate_hz"
        ten = float(lines[0].split(",")[-1])
        hundred = float(lines[1].split(",")[-1])
        assert abs(ten - 65.6e3) < 1e3
        assert 1e-3 < hundred < 1e-2

    def test_verify_failure_injection(self, capsys, monkeypatch):
        # a huge bath strength must break the monotonicity check
        def strong_bath(t2_star, t2, seed=0):
            return OUNoise(b=1e9, tau_c=1e-3, seed=seed)

        monkeypatch.setattr(cli, "ou_from_coherence", strong_bath)
        rc = main(["verify", "--seed", "0"])
        assert rc == EXIT_CHECK_FAILED
        out = capsys.readouterr().out
        assert "FAIL protocol_noise_monotonicity" in out

    def test_verify_fails_a_miscalibrated_bath(self, capsys, monkeypatch):
        # tau_c from T2^3 b^2 / 6 in place of / 12 doubles it and halves the
        # echo's -ln F at T2, so the exact decays must catch the inverse
        def miscalibrated(t2_star, t2, seed=0):
            b = np.sqrt(2) / t2_star
            return OUNoise(b=b, tau_c=t2 ** 3 * b ** 2 / 6, seed=seed)

        monkeypatch.setattr(cli, "ou_from_coherence", miscalibrated)
        assert main(["verify", "--seed", "0"]) == EXIT_CHECK_FAILED
        assert "FAIL ou_coherence_calibration" in capsys.readouterr().out

    def test_verify_calibration_reads_no_seed(self, capsys):
        lines = []
        for seed in ("0", "7"):
            main(["verify", "--seed", seed])
            out = capsys.readouterr().out
            lines += [line for line in out.splitlines() if "ou_coherence_calibration" in line]
        assert len(lines) == 2 and lines[0] == lines[1]
        assert lines[0].startswith("PASS ") and "0.499001" in lines[0] and "0.488906" in lines[0]

    def test_verify_fails_a_seed_without_effect(self, capsys, monkeypatch):
        # runs that ignore their seed reproduce themselves trivially; the
        # check must see that the next seed gives the same F
        def seed_zero(spec, components=False):
            return run(replace(spec, seed=0), components)

        monkeypatch.setattr(cli, "run", seed_zero)
        assert main(["verify", "--seed", "0"]) == EXIT_CHECK_FAILED
        out = capsys.readouterr().out
        assert "FAIL seed_reproducibility" in out
        assert "PASS protocol_noise_monotonicity" in out
