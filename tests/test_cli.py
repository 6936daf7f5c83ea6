import csv
import json
import math

import pytest

from skewlab import cli
from skewlab.cli import main
from skewlab.config import ExperimentConfig, build_family, build_skew_product
from skewlab.errors import ConfigError
from skewlab.fiber import (ConstantFamily, IdentityMap, LewowiczFamily, RotationFamily,
                           ScalarField, VectorField)


class TestConfig:
    def test_defaults_roundtrip(self):
        cfg = ExperimentConfig()
        again = ExperimentConfig.from_dict(cfg.to_dict())
        assert again == cfg
        assert ExperimentConfig.from_json(json.dumps(cfg.to_dict())) == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            ExperimentConfig.from_dict({"scenario": "certify", "bogus": 1})

    def test_nested_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            ExperimentConfig.from_dict({"quad": {"wat": 2}})

    def test_invalid_scenario(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"scenario": "frobnicate"})

    def test_tolerances_positive(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"tolerances": {"scan_tol": 0.0}})

    def test_budgets_capped(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"ergodic": {"n": 10**9}})
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"classify": {"K": 10**7}})

    def test_bad_json_diagnostic(self):
        with pytest.raises(ConfigError, match="line"):
            ExperimentConfig.from_json("{not json")

    @pytest.mark.parametrize("text", ['{"seed": 1, "seed": 2}',
                                      '{"quad": {"n_check": 50, "n_check": 60}}',
                                      '{"family": {"bumps": [{"inner": 0.1, "inner": 0.2}]}}'],
                             ids=["top", "nested", "in-list"])
    def test_repeated_key_rejected(self, text):
        # a dict cannot hold a repeated key, so only raw text can express it
        with pytest.raises(ConfigError, match="repeated key"):
            ExperimentConfig.from_json(text)

    def test_family_builders(self):
        # a constant map other than the identity is a field with no bumps
        for family, want in (({"kind": "identity"}, ConstantFamily(IdentityMap())),
                             ({"kind": "rotation_field", "base_value": [0.1, 0.2]},
                              RotationFamily(VectorField((0.1, 0.2)))),
                             ({"kind": "lewowicz_field", "base_value": [1.5]},
                              LewowiczFamily(ScalarField(1.5)))):
            fam = build_family(ExperimentConfig.from_dict({"family": family}).family)
            assert fam == want
            assert fam.base_lipschitz() == 0.0
        cfg = ExperimentConfig.from_dict({"family": {
            "kind": "rotation_field", "base_value": [0.0, 0.0],
            "bumps": [{"center": [0.3, 0.7], "inner": 0.05, "outer": 0.15,
                       "amplitude": [0.2, 0.0]}]}})
        assert isinstance(build_family(cfg.family), RotationFamily)

    def test_base_power(self):
        cfg = ExperimentConfig.from_dict({"base": {"power": 3}})
        sp = build_skew_product(cfg)
        assert sp.base.lambda_u == pytest.approx(((3 + 5**0.5) / 2) ** 3, rel=1e-12)


def run_cli(tmp_path, *args):
    return main(["--out", str(tmp_path), *args])


class TestScenarios:
    def test_certify(self, tmp_path):
        assert run_cli(tmp_path, "certify") == 0
        summary = json.loads((tmp_path / "certify_summary.json").read_text())
        assert summary["result"]["estimates"]["dominated"] is True
        assert (tmp_path / "certify.csv").read_text().startswith("lambda_s,")

    def test_holonomy(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "family": {"kind": "rotation_field",
                       "bumps": [{"center": [0.31, 0.64], "inner": 0.07,
                                  "outer": 0.22, "amplitude": [0.2, -0.1]}]},
            "quad": {"x": [0.13, 0.41]}}))
        assert run_cli(tmp_path, "--config", str(cfg), "holonomy") == 0
        summary = json.loads((tmp_path / "holonomy_summary.json").read_text())
        assert summary["result"]["truncation_n"] <= 40
        assert "cauchy_increment" in (tmp_path / "holonomy.csv").read_text()

    def test_sweep_reports_elliptic_window(self, tmp_path):
        assert run_cli(tmp_path, "sweep") == 0
        summary = json.loads((tmp_path / "sweep_summary.json").read_text())
        assert summary["result"]["elliptic_window"] == ["3/2", "3", "49/10"]

    @pytest.mark.parametrize("c", ["1e17", "1e200"])
    @pytest.mark.parametrize("scenario", ["certify", "sweep"])
    def test_huge_lewowicz_constant(self, tmp_path, scenario, c):
        # every sampled determinant rounds to 0, so L_minus is 0.0; at 1e200
        # the squared Jacobian entries would overflow unscaled
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"family": {"kind": "lewowicz_field", "base_value": [float(c)]},
                                   "sweep": {"c_values": [c]}}))
        assert run_cli(tmp_path, "--config", str(cfg), scenario) == 0
        with (tmp_path / f"{scenario}.csv").open() as fh:
            row, = csv.DictReader(fh)
        assert row["dominated"] == row["bunched"] == "false"
        assert math.isfinite(float(row["L_plus"]))

    def test_pbb(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"pbb": {"instances": 8}}))
        assert run_cli(tmp_path, "--config", str(cfg), "pbb") == 0
        summary = json.loads((tmp_path / "pbb_summary.json").read_text())
        assert summary["result"]["search_exhausted"] == 0
        assert summary["result"]["all_verified"] is True

    def test_ergodic_small(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"ergodic": {"n": 2000, "m_ics": 10}}))
        assert run_cli(tmp_path, "--config", str(cfg), "ergodic") == 0
        summary = json.loads((tmp_path / "ergodic_summary.json").read_text())
        assert summary["result"]["verdict"] == "NON-ERGODIC-LIKE"

    def test_classify_trivial_system(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"classify": {"n_seeds": 6, "K": 100,
                                                "word_length": 6}}))
        assert run_cli(tmp_path, "--config", str(cfg), "classify") == 0
        summary = json.loads((tmp_path / "classify_summary.json").read_text())
        assert summary["result"]["verdict_counts"] == {"Trivial": 6}
        header = (tmp_path / "classify.csv").read_text().splitlines()[0]
        assert header == "seed_u,seed_v,verdict,diameter,dim_estimate,n_points"

    def test_malformed_config_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"scenario\": ")
        assert main(["--config", str(bad), "--out", str(tmp_path), "certify"]) == 1
        assert "config error" in capsys.readouterr().err

    def test_unknown_key_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"nope": 1}))
        assert main(["--config", str(bad), "--out", str(tmp_path), "certify"]) == 1

    @pytest.mark.parametrize("scenario,bad", [
        ("holonomy", {"holonomy": {"kind": "sideways"}}),
        ("ergodic", {"seed": -1}),
        ("destroy", {"destroy": {"rng_seed": -1}}),
        ("ergodic", {"ergodic": {"observable": "nope"}}),
        ("destroy", {"destroy": {"epsilon": 0.0}}),
        ("sweep", {"sweep": {"grid_n": 8}}),
        # run by a scenario that ignores the value, so that a missing check
        # cannot start a sweep over grid_n^4 base-fiber pairs
        ("certify", {"sweep": {"grid_n": 513}}),
        ("certify", {"sweep": {"grid_n": 33}}),
        ("sweep", {"sweep": {"c_values": ["1/2", "one"]}}),
        ("classify", {"quad": {"search_radius": 0.0}}),
        ("classify", {"quad": {"n_check": -5}}),
        ("holonomy", {"quad": {"x": [0.1]}}),
        ("classify", {"classify": {"seed_region_half": [0.7, 0.7]}}),
        ("ergodic", {"ergodic": {"n": 2.5}}),
        ("classify", {"quad": {"max_denominator": 0}}),
        ("certify", {"base": {"matrix": [[1, 1], [0, 1]]}}),
        ("certify", {"base": {"matrix": [[2, 1], [1, 1.5]]}}),
        ("certify", {"base": {"matrix": [[2, 1], [1, True]]}}),
        ("certify", {"base": {"matrix": [[2, 1], [1, 1e30]]}}),
        ("certify", {"base": {"matrix": [[2, 1], [1, 10**30]]}}),
        ("holonomy", {"tolerances": {"holonomy_tol": math.inf}}),
        # family-c-* and family-vector-*: the constant of a Lewowicz map or of a
        # translation, given as its field's base_value
        ("certify", {"family": {"kind": "lewowicz_field", "base_value": [math.nan]}}),
        ("holonomy", {"holonomy": {"leaf_offset": "abc"}}),
        ("holonomy", {"holonomy": {"leaf_offset": math.inf}}),
        ("holonomy", {"holonomy": {"leaf_offset": 0.7}}),
        ("certify", {"family": {"kind": "rotation_field", "base_value": [0.3]}}),
        ("certify", {"family": {"kind": "rotation_field", "base_value": [0.1, 0.2, 0.3]}}),
        ("certify", {"family": {"kind": "lewowicz_field", "base_value": [1.0, 7.0]}}),
        # run by certify, which builds no quad, so that a missing cap cannot
        # start a candidate search that grows like max_denominator^3
        ("certify", {"quad": {"max_denominator": 101}}),
        ("certify", {"quad": {"n_check": 1001}}),
        ("certify", {"ergodic": {"m_ics": 10_001}}),
        ("pbb", {"pbb": {"max_jumps": 0}}),
        ("pbb", {"pbb": {"denominator": 1}}),
        ("pbb", {"pbb": {"epsilon": "0"}}),
        ("certify", {"pbb": {"max_jumps": 1001}}),
        ("certify", {"pbb": {"denominator": 1_000_001}}),
        ("sweep", {"sweep": {"c_values": ["1/2", "1e400"]}}),
        ("holonomy", {"tolerances": {"holonomy_tol": 10**400}}),
        ("certify", {"family": {"kind": "rotation_field", "base_value": [10**400, 0.1]}}),
        ("certify", {"family": {"kind": "rotation_field", "base_value": [0.1, False]}}),
        ("holonomy", {"quad": {"x": [True, 0.0]}}),
        ("certify", {"classify": {"seed_region_center": [True, 0.5]}}),
        ("certify", {"family": {"kind": "rotation_field",
                                "bumps": [{"center": [True, 0.5], "amplitude": [0.1, 0.0]}]}}),
        ("certify", {"family": {"kind": "rotation_field",
                                "bumps": [{"center": [0.5, 0.5], "amplitude": [True, 0.0]}]}}),
        # strings where numbers are expected: rejected, not parsed by float()
        ("holonomy", {"family": {"kind": "rotation_field", "base_value": ["nan", 0.1]}}),
        ("certify", {"family": {"kind": "rotation_field",
                                "bumps": [{"center": ["0.5", 0.5], "amplitude": [0.1, 0.0]}]}}),
        ("certify", {"family": {"kind": "rotation_field",
                                "bumps": [{"center": [0.5, 0.5], "amplitude": ["0.1", 0.0]}]}}),
        ("certify", {"family": {"kind": "lewowicz_field", "base_value": ["0.5"]}}),
        # retired: a translation by v is rotation_field with base_value
        # [v1, v2], and the Lewowicz map f_c lewowicz_field with base_value [c]
        ("certify", {"family": {"kind": "translation"}}),
        ("certify", {"family": {"kind": "lewowicz_constant"}}),
        ("certify", {"family": {"kind": "rotation_field", "vector": [0.1, 0.2]}}),
        ("certify", {"family": {"kind": "lewowicz_field", "c": 1.5}}),
    ], ids=["holonomy-kind", "seed", "rng-seed", "observable", "epsilon",
            "sweep-grid-small", "sweep-grid-large", "sweep-grid-memory", "c-values",
            "search-radius", "n-check", "quad-x", "seed-region-half", "ergodic-n-float",
            "max-denominator", "base-not-hyperbolic", "base-matrix-fraction",
            "base-matrix-bool", "base-matrix-overflow", "base-matrix-int64",
            "holonomy-tol-inf",
            "family-c-nan", "leaf-offset-str", "leaf-offset-inf", "leaf-offset-off-leaf",
            "base-value-short", "base-value-long", "base-value-scalar-pair",
            "max-denominator-large", "n-check-large", "m-ics-large", "pbb-max-jumps",
            "pbb-denominator", "pbb-epsilon", "pbb-max-jumps-large",
            "pbb-denominator-large", "c-values-overflow", "holonomy-tol-int-overflow",
            "family-vector-int-overflow", "base-value-bool",
            "quad-x-bool", "seed-region-center-bool",
            "bump-center-bool", "bump-amplitude-bool", "family-vector-nan-str",
            "bump-center-str", "bump-amplitude-str", "base-value-str",
            "retired-kind-translation", "retired-kind-lewowicz-constant",
            "retired-key-vector", "retired-key-c"])
    def test_bad_value_rejected_before_run(self, tmp_path, capsys, scenario, bad):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(bad))  # inf and nan become Infinity and NaN
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out), scenario]) == 1
        assert "config error:" in capsys.readouterr().err
        assert not out.exists()

    def test_seed_override_and_determinism(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"ergodic": {"n": 500, "m_ics": 5}}))
        out = tmp_path / "run"
        assert main(["--config", str(cfg), "--seed", "9", "--out", str(out),
                     "ergodic"]) == 0
        csv1 = (out / "ergodic.csv").read_bytes()
        s1 = json.loads((out / "ergodic_summary.json").read_text())
        assert main(["--config", str(cfg), "--seed", "9", "--out", str(out),
                     "ergodic"]) == 0
        assert (out / "ergodic.csv").read_bytes() == csv1
        s2 = json.loads((out / "ergodic_summary.json").read_text())
        s1.pop("wall_time_seconds"), s2.pop("wall_time_seconds")
        assert s1 == s2

    def test_summary_echoes_all_defaults(self, tmp_path):
        assert run_cli(tmp_path, "certify") == 0
        summary = json.loads((tmp_path / "certify_summary.json").read_text())
        assert summary["config"] == ExperimentConfig.from_dict(
            {"scenario": "certify", "out_dir": str(tmp_path)}).to_dict()
        assert "wall_time_seconds" in summary


class TestCommandLine:
    @pytest.fixture
    def ran(self, monkeypatch):
        """The configs main() hands to run_scenario, which does not run."""
        seen = []

        def fake_run(config):
            seen.append(config)
            return {"result": {}}

        monkeypatch.setattr(cli, "run_scenario", fake_run)
        return seen

    @staticmethod
    def shared_options(tmp_path, tag, instances, seed):
        cfg = tmp_path / f"{tag}.json"
        cfg.write_text(json.dumps({"pbb": {"instances": instances}}))
        return ["--config", str(cfg), "--seed", str(seed), "--out", str(tmp_path / tag)]

    @pytest.mark.parametrize("before", [True, False], ids=["before", "after"])
    def test_shared_options_reach_config(self, tmp_path, ran, before):
        opts = self.shared_options(tmp_path, "a", instances=3, seed=7)
        assert main([*opts, "pbb"] if before else ["pbb", *opts]) == 0
        (config,) = ran
        assert config.scenario == "pbb"
        assert config.pbb.instances == 3
        assert (config.seed, config.out_dir) == (7, str(tmp_path / "a"))

    def test_option_after_scenario_wins(self, tmp_path, ran):
        first = self.shared_options(tmp_path, "a", instances=3, seed=7)
        second = self.shared_options(tmp_path, "b", instances=4, seed=8)
        assert main([*first, "pbb", *second]) == 0
        (config,) = ran
        assert config.pbb.instances == 4
        assert (config.seed, config.out_dir) == (8, str(tmp_path / "b"))

    def test_option_position_does_not_change_output(self, tmp_path):
        out = tmp_path / "out"
        runs = []
        for argv in (["--out", str(out), "--seed", "3", "certify"],
                     ["certify", "--out", str(out), "--seed", "3"]):
            assert main(argv) == 0
            summary = json.loads((out / "certify_summary.json").read_text())
            summary.pop("wall_time_seconds")
            assert summary["config"]["seed"] == 3
            assert summary["config"]["out_dir"] == str(out)
            runs.append(((out / "certify.csv").read_bytes(), summary))
        assert runs[0] == runs[1]

    def test_writes_nothing_outside_out(self, tmp_path, monkeypatch):
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        out = tmp_path / "out"
        assert main(["--out", str(out), "certify"]) == 0
        assert list(cwd.iterdir()) == []
        assert sorted(p.name for p in out.iterdir()) == ["certify.csv",
                                                         "certify_summary.json"]

    def test_config_not_utf8_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "utf16.json"
        cfg.write_bytes(b"\xff\xfe\x00")
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out), "certify"]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("config error:")
        assert not out.exists()

    def test_unusable_out_exits_1(self, tmp_path, capsys):
        out = tmp_path / "a-file"
        out.write_text("kept\n")
        assert main(["--out", str(out), "certify"]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("output error:")
        assert out.read_text() == "kept\n"

    @pytest.mark.parametrize("argv", [[], ["certify", "--bogus"], ["classify", "--threads", "2"]],
                             ids=["no-scenario", "bad-option", "removed-threads-option"])
    def test_usage_error_exits_1(self, argv, capsys):
        assert main(argv) == 1
        assert "usage:" in capsys.readouterr().err
