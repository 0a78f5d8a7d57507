"""Config parsing diagnostics and the batch CLI exit-code contract."""

import numpy as np
import pytest

from qpmforge.cli import main
from qpmforge.config import ConfigError, default_config, parse_config

DEFAULTS_FILE = "configs/defaults.cfg"


def make_config(tmp_path, name="run.cfg", **overrides):
    """Resolved default config with dotted-key overrides, written to disk."""
    cfg = default_config()
    for dotted, value in overrides.items():
        section, key = dotted.split(".")
        if key not in cfg.sections[section]:
            raise KeyError(dotted)
        cfg.sections[section][key] = value
    path = tmp_path / name
    path.write_text(cfg.resolved_text())
    return str(path)


class TestParsing:
    def test_reference_file_matches_schema_defaults(self):
        cfg = parse_config(DEFAULTS_FILE)
        assert cfg.sections == default_config().sections

    def test_resolved_text_roundtrip(self, tmp_path):
        path = make_config(tmp_path, **{"grid.points": 256, "run.seed": 7})
        cfg = parse_config(path)
        assert cfg["grid"]["points"] == 256
        assert cfg["run"]["seed"] == 7
        again = tmp_path / "again.cfg"
        again.write_text(cfg.resolved_text())
        assert parse_config(again).sections == cfg.sections

    def test_integer_forms(self, tmp_path):
        path = tmp_path / "ints.cfg"
        path.write_text("[spectrometer]\nevents = 4.3e7\n[run]\nseed = 1_000\n")
        cfg = parse_config(path)
        assert cfg["spectrometer"]["events"] == 43_000_000
        assert cfg["run"]["seed"] == 1000

    def test_non_integral_int_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[grid]\npoints = 4.35e1\n")
        with pytest.raises(ConfigError, match="expected an integer"):
            parse_config(path)

    def test_bad_float_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[crystal]\nlength_m = tiny\n")
        with pytest.raises(ConfigError, match="expected a number"):
            parse_config(path)

    def test_bad_tuple_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[tomography]\nphases_rad = a,b\n")
        with pytest.raises(ConfigError, match="comma-separated numbers"):
            parse_config(path)

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "ok.cfg"
        path.write_text("# header\n\n[run]\nseed = 5  # inline\n")
        assert parse_config(path)["run"]["seed"] == 5

    @pytest.mark.parametrize(
        "body, lineno, message",
        [
            ("[crystal]\nwavelength_m = 1e-6\n", 2, "unknown key"),
            ("[crystal]\nlength_m = 0.02\nlength_m = 0.03\n", 3, "duplicate key"),
            ("[lasers]\n", 1, "unknown section"),
            ("[crystal\n", 1, "unterminated section"),
            ("[crystal]\nlength_m 0.02\n", 2, "expected 'key = value'"),
            ("seed = 3\n", 1, "outside any"),
            ("[run]\nthreads = 2\n", 2, "unknown key"),
        ],
    )
    def test_line_precise_diagnostics(self, tmp_path, body, lineno, message):
        path = tmp_path / "bad.cfg"
        path.write_text(body)
        with pytest.raises(ConfigError, match=message) as err:
            parse_config(path)
        assert f":{lineno}:" in str(err.value)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(tmp_path / "nope.cfg")


class TestValidation:
    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"crystal.source": "etched"}, "source"),
            ({"crystal.length_m": -1.0}, "length_m"),
            ({"crystal.pair_count": 0}, "pair_count"),
            ({"crystal.bin_spacing_hz": -1.0}, "bin_spacing_hz"),
            ({"grid.points": 1}, "grid points"),
            ({"hom.points": 1}, "hom points"),
            ({"hom.tau_max_s": -6e-12}, "tau_max_s > tau_min_s"),
            ({"spectrometer.events": -5}, "events"),
            ({"tomography.resamples": -1}, "resamples"),
        ],
    )
    def test_semantic_errors(self, tmp_path, overrides, message):
        path = make_config(tmp_path, **overrides)
        with pytest.raises(ConfigError, match=message):
            parse_config(path)

    def test_bin_purity_bounds_checked_on_use(self, tmp_path):
        cfg = parse_config(make_config(tmp_path, **{"crystal.bin_purity": 1.5}))
        with pytest.raises(ConfigError, match="bin_purity"):
            cfg.gvm_slope()


class TestBuilders:
    def test_peak_width_defaults_to_length_fraction(self):
        cfg = default_config()
        assert cfg.peak_width() == pytest.approx(cfg["crystal"]["length_m"] / 4.5)
        cfg.sections["crystal"]["peak_width_m"] = 1e-3
        assert cfg.peak_width() == 1e-3

    def test_comb_spec_wiring(self):
        cfg = default_config()
        comb = cfg.comb_spec()
        assert comb.pair_count == cfg["crystal"]["pair_count"]
        assert comb.center == pytest.approx(np.pi / cfg["crystal"]["domain_width_m"])
        expected = 4 * np.pi * cfg.gvm_slope() * cfg["crystal"]["bin_spacing_hz"]
        assert comb.spacing == pytest.approx(expected)

    def test_bin_values_broadcast_and_length(self):
        cfg = default_config()
        np.testing.assert_allclose(cfg.bin_values("phases_rad", 8), 0.0)
        cfg.sections["tomography"]["drift_rad"] = (0.1, 0.2, 0.3)
        with pytest.raises(ConfigError, match="1 or 8"):
            cfg.bin_values("drift_rad", 8)


FAST = {
    "crystal.length_m": 0.005,
    "grid.points": 128,
    "spectrometer.events": 50_000,
    "spectrometer.resamples": 10,
    "hom.counts_per_point": 500,
}


class TestCliExitCodes:
    def test_design_outputs_and_reproducibility(self, tmp_path):
        config = make_config(tmp_path, **FAST)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["design", "--config", config, "--out", str(out_a)]) == 0
        assert main(["design", "--config", config, "--out", str(out_b)]) == 0
        for name in ("domains.tsv", "pmf_curve.tsv", "report.txt", "manifest.txt"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
        manifest = (out_a / "manifest.txt").read_text()
        assert manifest.startswith("command = design\n")
        report = (out_a / "report.txt").read_text()
        assert "target_overlap" in report

    def test_simulate_reports_mode_content(self, tmp_path):
        config = make_config(tmp_path, **FAST)
        out = tmp_path / "sim"
        assert main(["simulate", "--config", config, "--out", str(out)]) == 0
        report = (out / "report.txt").read_text()
        assert "schmidt_number" in report
        assert "heralded_purity_proxy" in report
        assert (out / "jsa.csv").exists() and (out / "jsi.csv").exists()

    def test_hom_fit_and_seed_override(self, tmp_path):
        config = make_config(tmp_path, **FAST)
        out_a, out_b = tmp_path / "h1", tmp_path / "h2"
        assert main(["hom", "--config", config, "--out", str(out_a)]) == 0
        assert main(
            ["hom", "--config", config, "--out", str(out_b), "--seed", "9"]
        ) == 0
        assert (out_a / "fit.txt").exists()
        assert (out_a / "counts.tsv").read_bytes() != (out_b / "counts.tsv").read_bytes()
        assert (out_a / "curve.tsv").read_bytes() == (out_b / "curve.tsv").read_bytes()

    def test_tofs_pipeline(self, tmp_path):
        config = make_config(tmp_path, **FAST)
        out = tmp_path / "tofs"
        assert main(["tofs-sim", "--config", config, "--out", str(out)]) == 0
        assert main(["tofs-analyze", "--config", config, "--out", str(out)]) == 0
        report = (out / "report.txt").read_text()
        assert "total_events = 50000" in report
        assert "schmidt_number" in report
        assert (out / "marginals.tsv").exists()

    def test_bad_config_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[crystal]\nwavelength_m = 1e-6\n")
        code = main(["design", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_config_exits_2(self, tmp_path):
        missing = str(tmp_path / "absent.cfg")
        assert main(["design", "--config", missing, "--out", str(tmp_path / "o")]) == 2

    def test_bin_value_length_error_exits_2(self, tmp_path, capsys):
        config = make_config(
            tmp_path, **dict(FAST, **{"tomography.phases_rad": (0.1, 0.2, 0.3)})
        )
        code = main(["tomo-sim", "--config", config, "--out", str(tmp_path / "o")])
        assert code == 2
        assert "1 or 8" in capsys.readouterr().err

    def test_alias_overflow_exits_3(self, tmp_path, capsys):
        # doubling the fiber pushes the outer bins past the acquisition
        # window, which both simulators refuse
        config = make_config(
            tmp_path, **dict(FAST, **{"spectrometer.fiber_length_km": 40.0})
        )
        for command in ("tofs-sim", "tomo-sim"):
            code = main([command, "--config", config, "--out", str(tmp_path / "o")])
            assert code == 3, command
            assert "numeric failure" in capsys.readouterr().err

    def test_alias_limit_applies_to_the_source(self, tmp_path):
        # phases spread over +-0.7 rad make some SIC projections mostly
        # outer-bin light (5% aliased), but the source as a whole stays
        # under the 2% limit
        config = make_config(
            tmp_path,
            **dict(FAST, **{
                "tomography.events_per_projection": 10_000,
                "tomography.phases_rad": (-0.7, -0.5, -0.3, -0.1, 0.1, 0.3, 0.5, 0.7),
            }),
        )
        assert main(["tomo-sim", "--config", config, "--out", str(tmp_path / "o")]) == 0

    def test_tomo_fit_reports_configured_bins(self, tmp_path):
        config = make_config(
            tmp_path,
            **dict(FAST, **{
                "crystal.pair_count": 2,
                "tomography.events_per_projection": 20_000,
                "tomography.resamples": 10,
            }),
        )
        out = str(tmp_path / "tomo")
        assert main(["tomo-sim", "--config", config, "--out", out]) == 0
        assert main(["tomo-fit", "--config", config, "--out", out]) == 0
        rows = (tmp_path / "tomo" / "report.txt").read_text().splitlines()[1:]
        assert [int(row.split()[0]) for row in rows] == [-2, -1, 1, 2]

    def test_empty_counts_exit_3(self, tmp_path, capsys):
        config = make_config(tmp_path, **dict(FAST, **{"spectrometer.events": 0}))
        out = str(tmp_path / "tofs")
        assert main(["tofs-sim", "--config", config, "--out", out]) == 0
        assert main(["tofs-analyze", "--config", config, "--out", out]) == 3
        assert "numeric failure: count matrix is empty" in capsys.readouterr().err

    def test_heralded_fit_reports_configured_spacing(self, tmp_path):
        config = make_config(tmp_path, **dict(FAST, **{"crystal.bin_spacing_hz": 800e9}))
        out = tmp_path / "her"
        assert main(["heralded", "--config", config, "--out", str(out)]) == 0
        assert "delta_hz: 8.000000e+11" in (out / "fit.txt").read_text().splitlines()

    def test_argparse_contract(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2
        with pytest.raises(SystemExit) as err:
            main(["--help"])
        assert err.value.code == 0
