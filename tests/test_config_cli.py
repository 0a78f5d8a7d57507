"""Config parsing diagnostics and the batch CLI exit-code contract."""

import ast
import importlib
import inspect
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qpmforge
from qpmforge.analysis import schmidt_number, schmidt_number_std
from qpmforge.biphoton import C_LIGHT, build_jsi, load_jsa, load_jsi
from qpmforge.cli import main
from qpmforge.config import ConfigError, default_config, parse_config
from qpmforge.crystal import load_domains
from qpmforge.interference import load_curve
from qpmforge.measurement import load_counts, spectrum_projector
from qpmforge.tomography import load_tomography_bundle

DEFAULTS_FILE = "configs/defaults.cfg"
CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
STAGES = ("design", "simulate", "hom", "heralded", "tofs-sim", "tofs-analyze", "tomo-sim",
          "tomo-fit")


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
            # non-finite and overflowing numbers
            ("[grid]\npoints = inf\n", 2, "expected an integer"),
            ("[hom]\npoints = inf\n", 2, "expected an integer"),
            ("[hom]\ncounts_per_point = inf\n", 2, "expected an integer"),
            ("[spectrometer]\nevents = 1e400\n", 2, "expected an integer"),
            ("[spectrometer]\nevents = 1e19\n", 2, "64 bits"),
            ("[pump]\nwavelength_m = inf\n", 2, "finite number"),
            ("[crystal]\nlength_m = nan\n", 2, "finite number"),
            ("[tomography]\ngate_width_s = nan\n", 2, "finite number"),
            ("[tomography]\n\nphases_rad = 0.1,nan\n", 3, "finite numbers"),
            # the peak width is always length / 4.5
            ("[crystal]\nlength_m = 0.02\npeak_width_m = 0\n", 3, "unknown key"),
        ],
    )
    def test_line_precise_diagnostics(self, tmp_path, body, lineno, message):
        path = tmp_path / "bad.cfg"
        path.write_text(body)
        with pytest.raises(ConfigError, match=message) as err:
            parse_config(path)
        assert f":{lineno}:" in str(err.value)

    @pytest.mark.parametrize(
        "body, section, key, value",
        [
            # more significant digits than a double holds
            ("[run]\nseed = 12345678901234567\n", "run", "seed", 12345678901234567),
            ("[run]\nseed = +9_007_199_254_740_993\n", "run", "seed", 9007199254740993),
            ("[spectrometer]\nevents = 9223372036854775807\n", "spectrometer", "events",
             2**63 - 1),
        ],
    )
    def test_exact_integers(self, tmp_path, body, section, key, value):
        path = tmp_path / "ok.cfg"
        path.write_text(body)
        assert parse_config(path)[section][key] == value

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
            ({"tomography.gate_width_s": 0.0}, "gate_width_s"),
            ({"tomography.gate_width_s": -1.52e-9}, "gate_width_s"),
            ({"hom.counts_per_point": -1}, "counts_per_point"),
            ({"spectrometer.max_alias_fraction": -0.1}, "max_alias_fraction"),
            ({"spectrometer.max_alias_fraction": 1.5}, "max_alias_fraction"),
            ({"tomography.resamples": 1}, "tomography resamples"),
            ({"run.seed": -9_007_199_254_740_993}, "seed must be >= 0"),
        ],
    )
    def test_semantic_errors(self, tmp_path, overrides, message):
        path = make_config(tmp_path, **overrides)
        with pytest.raises(ConfigError, match=message):
            parse_config(path)

    def test_bin_purity_bounds_checked_on_use(self, tmp_path):
        with pytest.raises(ConfigError, match="bin_purity"):
            parse_config(make_config(tmp_path, **{"crystal.bin_purity": 1.5}))
        # a config mutated after parsing, as scripts/purity_scan.py does
        cfg = parse_config(make_config(tmp_path))
        cfg.sections["crystal"]["bin_purity"] = 1.5
        with pytest.raises(ConfigError, match="bin_purity"):
            cfg.gvm_slope()

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"spectrometer.window_s": 12.51e-9}, "integer number of time bins"),
            ({"crystal.bin_purity": 1.5}, "bin_purity"),
            ({"crystal.domain_width_m": 40e-3}, "domain_width_m must not exceed"),
            (
                {"crystal.domain_width_m": 40e-3, "crystal.source": "designed"},
                "domain_width_m must not exceed",
            ),
        ],
        ids=["window", "purity", "domain-width", "domain-width-designed"],
    )
    def test_device_the_stages_cannot_build_rejected(self, tmp_path, overrides, message):
        # each parsed once and failed only inside a stage, after doing work
        path = make_config(tmp_path, **overrides)
        with pytest.raises(ConfigError, match=message) as info:
            parse_config(path)
        assert str(info.value).startswith(f"{path}: ")
        out = tmp_path / "out"
        for stage in STAGES:
            assert main([stage, "--config", path, "--out", str(out)]) == 2, stage
        assert not out.exists()

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"tomography.drift_rad": (-0.1,)}, "[tomography] drift_rad must be >= 0"),
            ({"tomography.phases_rad": (0.0, 0.1, 0.2)}, "[tomography] phases_rad needs 1 or 8"),
        ],
        ids=["negative-drift", "three-phases"],
    )
    def test_bin_lists_rejected_at_parse(self, tmp_path, capsys, overrides, message):
        # each parsed once and failed only inside tomo-sim, after the
        # amplitude and the bin pass, leaving an empty --out behind
        path = make_config(tmp_path, **overrides)
        with pytest.raises(ConfigError, match=re.escape(message)) as info:
            parse_config(path)
        assert str(info.value).startswith(f"{path}: ")
        out = tmp_path / "out"
        assert main(["tomo-sim", "--config", path, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestBuilders:
    def test_peak_width_defaults_to_length_fraction(self):
        cfg = default_config()
        assert cfg.peak_width() == pytest.approx(cfg["crystal"]["length_m"] / 4.5)

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
        domains = load_domains(out_a / "domains.tsv")
        assert domains.total_length == pytest.approx(FAST["crystal.length_m"], rel=1e-12)

    def test_simulate_reports_mode_content(self, tmp_path):
        config = make_config(tmp_path, **FAST)
        out = tmp_path / "sim"
        assert main(["simulate", "--config", config, "--out", str(out)]) == 0
        report = (out / "report.txt").read_text()
        assert "schmidt_number" in report
        assert "heralded_purity_proxy" in report
        assert (out / "jsa.csv").exists() and (out / "jsi.csv").exists()
        nu0 = C_LIGHT / (2.0 * default_config()["pump"]["wavelength_m"])
        n = FAST["grid.points"]
        jsa = load_jsa(out / "jsa.csv")
        grid, _, center = load_jsi(out / "jsi.csv")
        for shape, got in ((jsa.grid.shape, jsa.center_frequency_hz), (grid.shape, center)):
            assert shape == (n, n)
            # the header keeps 12 significant digits
            assert got == pytest.approx(nu0, rel=1e-11)

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
        points = default_config()["hom"]["points"]
        for name in ("curve.tsv", "counts.tsv"):
            curve = load_curve(out_a / name)
            assert curve.kind == "two_photon"
            assert curve.delays.size == points

    def test_tofs_pipeline(self, tmp_path):
        config = make_config(tmp_path, **FAST)
        out = tmp_path / "tofs"
        assert main(["tofs-sim", "--config", config, "--out", str(out)]) == 0
        assert main(["tofs-analyze", "--config", config, "--out", str(out)]) == 0
        report = (out / "report.txt").read_text()
        assert "total_events = 50000" in report
        assert "schmidt_number" in report
        assert (out / "marginals.tsv").exists()

    def test_tofs_point_estimate_is_k_of_sqrt_counts(self, tmp_path):
        # the report holds K of sqrt(counts) and its delta-method std, and
        # no bootstrap lines
        config = make_config(tmp_path, **FAST)
        out = tmp_path / "tofs"
        assert main(["tofs-sim", "--config", config, "--out", str(out)]) == 0
        assert main(["tofs-analyze", "--config", config, "--out", str(out)]) == 0
        counts = load_counts(out / "counts.csv").values
        k = schmidt_number(np.sqrt(counts))
        lines = (out / "report.txt").read_text().splitlines()
        assert f"schmidt_number = {k:.6f}" in lines
        assert f"schmidt_number_std = {schmidt_number_std(counts):.6f}" in lines
        assert not [line for line in lines if line.startswith(("resamples", "schmidt_number_resampled"))]

    def test_negative_seed_refused_before_any_stage(self, tmp_path, capsys):
        # numpy's generators take no negative seed: the config's seed is
        # refused at parse, naming the file and the key, and --seed by the
        # same check, naming the option; no stage writes a file
        config = make_config(tmp_path, **FAST, **{"run.seed": -3})
        out = tmp_path / "out"
        for stage in STAGES:
            assert main([stage, "--config", config, "--out", str(out)]) == 2, stage
            assert f"{config}: [run] seed must be >= 0" in capsys.readouterr().err, stage
            assert not out.exists(), stage
        config = make_config(tmp_path, **FAST)
        for stage in STAGES:
            assert main([stage, "--config", config, "--out", str(out), "--seed", "-5"]) == 2
            assert "--seed must be >= 0" in capsys.readouterr().err, stage
            assert not out.exists(), stage

    def test_manifest_echoes_a_non_ascii_input(self, tmp_path):
        # the config is read as UTF-8, and its manifest echo is written so
        config = make_config(tmp_path, **FAST)
        assert main(["tofs-sim", "--config", config, "--out", str(tmp_path / "sim")]) == 0
        data = tmp_path / "spéctre"
        data.mkdir()
        os.replace(tmp_path / "sim" / "counts.csv", data / "counts.csv")
        cfg = parse_config(config)
        cfg.sections["run"]["input"] = str(data / "counts.csv")
        analyze = tmp_path / "analyze.cfg"
        analyze.write_text(cfg.resolved_text(), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["tofs-analyze", "--config", str(analyze), "--out", str(out)]) == 0
        manifest = (out / "manifest.txt").read_text(encoding="utf-8")
        assert f"input = {data / 'counts.csv'}\n" in manifest
        for name in ("marginals.tsv", "report.txt"):
            assert (out / name).read_bytes().isascii(), name

    def test_bad_config_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[crystal]\nwavelength_m = 1e-6\n")
        code = main(["design", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_too_few_hom_points_to_fit_rejected_at_parse(self, tmp_path, capsys):
        # sampled counts are fitted, and the fit needs ten delays; the config
        # is refused before any stage writes a file
        config = make_config(tmp_path, **{"hom.points": 5, "hom.counts_per_point": 100})
        with pytest.raises(ConfigError, match="hom points") as err:
            parse_config(config)
        assert config in str(err.value)
        for command in ("hom", "heralded"):
            out = tmp_path / command
            assert main([command, "--config", config, "--out", str(out)]) == 2
            message = capsys.readouterr().err
            assert "hom points" in message and config in message
            assert not out.exists()
        # without counts nothing is fitted, and five points stay legal
        parse_config(make_config(tmp_path, name="curve.cfg", **{"hom.points": 5}))

    def test_zero_bin_spacing_rejected_by_hom_stages(self, tmp_path, capsys):
        # the shipped single-pair config merges the pair at zero spacing:
        # the source and readout stages run on it, but no HOM curve has a
        # bin beat, and the error names the file and the key
        config = "configs/single_bin.cfg"
        parse_config(config)
        for command in ("hom", "heralded"):
            out = tmp_path / command
            assert main([command, "--config", config, "--out", str(out)]) == 2
            message = capsys.readouterr().err
            assert config in message and "[crystal] bin_spacing_hz" in message
            assert not out.exists()

    def test_zero_bin_spacing_rejected_by_tomography_stages(self, tmp_path, capsys):
        # the bin pass cut the one merged peak into halves labelled -1 and
        # +1, and tomo-fit gated both labels on the same cells
        config = "configs/single_bin.cfg"
        out = tmp_path / "tomo"
        for command in ("tomo-sim", "tomo-fit"):
            assert main([command, "--config", config, "--out", str(out)]) == 2, command
            message = capsys.readouterr().err
            assert config in message and "[crystal] bin_spacing_hz" in message
        assert not out.exists()
        # a directory that was there before the run is never removed
        out.mkdir()
        assert main(["tomo-sim", "--config", config, "--out", str(out)]) == 2
        assert out.is_dir()

    def test_gate_wider_than_the_bin_gap_rejected(self, tmp_path, capsys):
        # adjacent bins arrive 1.590 ns apart at the default spacing and
        # fiber, so a 1.7 ns gate takes in part of each neighbour's light
        config = make_config(
            tmp_path,
            **dict(FAST, **{
                "tomography.events_per_projection": 10_000,
                "tomography.gate_width_s": 1.7e-9,
            }),
        )
        out = tmp_path / "tomo"
        assert main(["tomo-sim", "--config", config, "--out", str(out)]) == 0
        assert main(["tomo-fit", "--config", config, "--out", str(out)]) == 2
        message = capsys.readouterr().err
        for named in (config, "[tomography] gate_width_s", "[crystal] bin_spacing_hz", "1.59e-09 s"):
            assert named in message
        assert not (out / "report.txt").exists()

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

    def test_numeric_failure_leaves_no_empty_out(self, tmp_path, capsys):
        # with no alias allowed the simulator refuses the source at exit 3,
        # and removes the output directory it created, as a refused run at
        # exit 2 does; a directory that was there before the run is kept
        config = make_config(
            tmp_path, **{"spectrometer.max_alias_fraction": 0.0, "grid.points": 128}
        )
        out = tmp_path / "tofs"
        assert main(["tofs-sim", "--config", config, "--out", str(out)]) == 3
        assert "numeric failure" in capsys.readouterr().err
        assert not out.exists()
        out.mkdir()
        assert main(["tofs-sim", "--config", config, "--out", str(out)]) == 3
        assert out.is_dir()

    def test_spectrum_wholly_outside_the_window_exits_3(self, tmp_path, capsys):
        # with any alias allowed and the window centred 56 nm off the band,
        # no light reaches the detectors: both simulators refuse at exit 3
        # with the one projector's message and leave no output directory
        config = make_config(
            tmp_path,
            **dict(FAST, **{"spectrometer.max_alias_fraction": 1.0,
                            "spectrometer.reference_wavelength_m": 1500e-9}),
        )
        for command in ("tofs-sim", "tomo-sim"):
            out = tmp_path / command
            assert main([command, "--config", config, "--out", str(out)]) == 3, command
            err = capsys.readouterr().err
            assert "numeric failure" in err and "maps outside the time window" in err, command
            assert not out.exists(), command

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
        spec = parse_config(config).spectrometer_spec()
        bundle = dict(load_tomography_bundle(tmp_path / "tomo" / "tomo"))
        for counts in bundle.values():
            assert counts.values.shape == (spec.n_bins, spec.n_bins)
            assert counts.spec.time_bin == pytest.approx(spec.time_bin, rel=1e-12)
            assert counts.spec.time_rate == pytest.approx(spec.time_rate, rel=1e-12)
            assert counts.spec.reference_wavelength == pytest.approx(
                spec.reference_wavelength, rel=1e-12
            )

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


class TestBandCenter:
    """tomo-sim projects, and tomo-fit gates, around the pump's band center."""

    DRIFTS = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.4)
    PHASE = 1.1

    @pytest.fixture(scope="class")
    def run(self, tmp_path_factory):
        # 777.6 nm puts the band center 0.5 nm off the spectrometer's
        # reference wavelength, about 200 ps of arrival time
        tmp = tmp_path_factory.mktemp("band_center")
        config = make_config(tmp, **{
            "pump.wavelength_m": 777.6e-9,
            "grid.points": 256,
            "tomography.events_per_projection": 100_000_000,
            "tomography.phases_rad": (self.PHASE,),
            "tomography.drift_rad": self.DRIFTS,
            "tomography.resamples": 10,
        })
        out = tmp / "tomo"
        assert main(["tomo-sim", "--config", config, "--out", str(out)]) == 0
        assert main(["tomo-fit", "--config", config, "--out", str(out)]) == 0
        return parse_config(config), out

    def test_tomography_counts_share_the_source_centroid(self, run):
        # summed over the 16 settings the counts sample the weight-mixed
        # bin images; their signal centroid must match the JSA's own
        # projection (the statistical error here is about 0.1 ps)
        cfg, out = run
        spec = cfg.spectrometer_spec()
        grid = cfg.frequency_grid()
        intensity, center, _ = build_jsi(cfg.comb_spec(), cfg.pump_spec(), cfg.dispersion_map(),
                                         grid)
        probs, _ = spectrum_projector(intensity, grid, spec, center)()
        summed = sum(counts.values for _, counts in load_tomography_bundle(out / "tomo"))

        def centroid(image):
            marginal = image.sum(axis=0)
            return marginal @ spec.time_centers / marginal.sum()

        assert centroid(probs) < -150e-12  # the source really sits off center
        assert abs(centroid(summed) - centroid(probs)) < 1e-12

    def test_fit_recovers_configured_states(self, run):
        _, out = run
        rows = (out / "report.txt").read_text().splitlines()[1:]
        coherence = np.abs(np.sinc(np.array(self.DRIFTS) / (2.0 * np.pi)))
        assert len(rows) == len(coherence)
        for row, c in zip(rows, coherence):
            fields = row.split()
            purity, fidelity, phase = float(fields[2]), float(fields[5]), float(fields[-1])
            assert purity == pytest.approx(0.5 * (1.0 + c * c), abs=4e-3), row
            assert fidelity == pytest.approx(0.5 * (1.0 + c), abs=3e-3), row
            assert phase == pytest.approx(self.PHASE, abs=3e-3), row


# every shipped config through every stage, at a small size: 2 where a
# stage refuses the device the file describes, 0 everywhere else; a new
# config needs its own row
SHIPPED_EXIT_CODES = {
    "defaults.cfg": dict.fromkeys(STAGES, 0),
    "designed_crystal.cfg": dict.fromkeys(STAGES, 0),
    "single_bin.cfg": {
        **dict.fromkeys(STAGES, 0),
        **dict.fromkeys(("hom", "heralded", "tomo-sim", "tomo-fit"), 2),
    },
}


@pytest.mark.parametrize("name", sorted(p.name for p in CONFIG_DIR.glob("*.cfg")))
def test_every_stage_on_shipped_config(tmp_path, capsys, name):
    cfg = parse_config(CONFIG_DIR / name)
    cfg.sections["grid"]["points"] = 128
    cfg.sections["spectrometer"]["events"] = 100_000
    cfg.sections["tomography"]["events_per_projection"] = 10_000
    cfg.sections["tomography"]["resamples"] = 0
    config = tmp_path / name
    config.write_text(cfg.resolved_text())
    out = str(tmp_path / "out")
    codes = {}
    for stage in STAGES:
        codes[stage] = main([stage, "--config", str(config), "--out", out])
        err = capsys.readouterr().err
        assert codes[stage] == 0 or str(config) in err, (stage, err)
    assert codes == SHIPPED_EXIT_CODES[name]


def _own_top_level_names(module) -> set[str]:
    """Names the module's own source binds at top level: defs, classes, assignments."""
    names = set()
    for node in ast.parse(Path(module.__file__).read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


@pytest.mark.parametrize(
    "module", [m.name for m in pkgutil.iter_modules(qpmforge.__path__)]
)
def test_public_names_resolve(module):
    # every export resolves and is defined by the module itself, once: a
    # name left in __all__ after its definition is deleted fails here even
    # while an import from another module still binds it
    mod = importlib.import_module(f"qpmforge.{module}")
    exported = list(getattr(mod, "__all__", ()))
    assert len(exported) == len(set(exported))
    assert not [name for name in exported if not hasattr(mod, name)]
    assert not sorted(set(exported) - _own_top_level_names(mod))


# every module but the command-line entry point and the empty defaults
# module is a library module with an __all__
LIBRARY_MODULES = sorted(
    {m.name for m in pkgutil.iter_modules(qpmforge.__path__)} - {"cli", "defaults"}
)


@pytest.mark.parametrize("module", LIBRARY_MODULES)
def test_all_lists_exactly_the_public_definitions(module):
    # a public function or class missing from __all__, or a function or
    # class exported that the module does not itself define, fails here
    mod = importlib.import_module(f"qpmforge.{module}")

    def is_definition(name):
        value = getattr(mod, name, None)
        return inspect.isfunction(value) or inspect.isclass(value)

    defined = {n for n in _own_top_level_names(mod) if not n.startswith("_") and is_definition(n)}
    exported = {name for name in mod.__all__ if is_definition(name)}
    assert sorted(exported ^ defined) == []


def test_package_exports_its_modules():
    submodules = {m.name for m in pkgutil.iter_modules(qpmforge.__path__)}
    assert set(qpmforge.__all__) <= submodules
    assert all(hasattr(qpmforge, name) for name in qpmforge.__all__)


def test_cli_import_leaves_scipy_out(tmp_path):
    """No CLI process loads scipy: not on import of qpmforge.cli, not in the
    HOM fits, and not in the spectrometer's jitter blur."""
    args = ["--config", make_config(tmp_path, **FAST), "--out", str(tmp_path)]
    code = "\n".join([
        "import sys, qpmforge.cli",
        "def scipy_modules():",
        "    return sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))",
        "print(scipy_modules())",
        "for stage in ('hom', 'heralded', 'tofs-sim', 'tomo-sim'):",
        f"    assert qpmforge.cli.main([stage, *{args!r}]) == 0",
        "    print(stage, scipy_modules())",
    ])
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.splitlines() == [
        "[]", "hom []", "heralded []", "tofs-sim []", "tomo-sim []",
    ]
    assert (tmp_path / "fit.txt").exists()
    assert (tmp_path / "counts.csv").exists() and (tmp_path / "tomo").is_dir()
