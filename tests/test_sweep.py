"""The generic parameter-sweep utility."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments import ExperimentRunner
from repro.experiments.sweep import parse_values, run_sweep
from repro.experiments.runner import CONFIGURATIONS
from repro.transforms.pipeline import OptLevel


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner(kernels=["gemm", "trmm"])


class TestRunSweep:
    def test_bank_sweep_shape(self, runner):
        result = run_sweep("dl1_banks", [1, 4], runner=runner)
        assert set(result.series) == {"dl1_banks=1", "dl1_banks=4"}
        avg = result.averages()
        assert avg["dl1_banks=4"] < avg["dl1_banks=1"]

    def test_cpu_param_sweeps_baseline_too(self, runner):
        """A CPU-parameter sweep must compare against an SRAM baseline
        running the *same* core, so the overlap value largely cancels."""
        result = run_sweep(
            "cpu.load_use_overlap", [0.0, 1.5], runner=runner, config="vwb"
        )
        avg = result.averages()
        # With matched baselines the two penalties stay in the same band
        # (the overlap still shifts the residual exposure slightly).
        assert abs(avg["cpu.load_use_overlap=0.0"] - avg["cpu.load_use_overlap=1.5"]) < 20.0

    def test_string_values_coerced(self, runner):
        result = run_sweep("vwb_bits", ["1024", "2048"], runner=runner)
        assert "vwb_bits=1024" in result.series

    def test_bool_coercion(self, runner):
        values = parse_values("hw_prefetcher", ["true", "0"], CONFIGURATIONS["dropin"])
        assert values == [True, False]

    def test_notes_name_best_setting(self, runner):
        result = run_sweep("dl1_banks", [1, 4], runner=runner)
        assert any("best setting" in note for note in result.notes)

    def test_unknown_param_rejected(self, runner):
        with pytest.raises(ConfigurationError, match="unknown parameter"):
            run_sweep("warp_drive", [1], runner=runner)

    def test_unknown_cpu_param_rejected(self, runner):
        with pytest.raises(ConfigurationError, match="unknown CPU parameter"):
            run_sweep("cpu.warp", [1], runner=runner)

    def test_unknown_config_rejected(self, runner):
        with pytest.raises(ConfigurationError, match="configuration"):
            run_sweep("dl1_banks", [1], runner=runner, config="victim")

    def test_empty_values_rejected(self, runner):
        with pytest.raises(ConfigurationError, match="at least one"):
            run_sweep("dl1_banks", [], runner=runner)

    def test_level_parameter(self, runner):
        result = run_sweep("dl1_banks", [4], runner=runner, level=OptLevel.NONE)
        assert "none code" in result.title


class TestSweepCLI:
    def test_cli_sweep(self, capsys):
        from repro.cli import main

        assert main(
            ["sweep", "--param", "dl1_banks", "--values", "4", "--kernels", "gemm", "--no-bars"]
        ) == 0
        out = capsys.readouterr().out
        assert "dl1_banks=4" in out

    def test_cli_sweep_requires_param(self, capsys):
        from repro.cli import main

        assert main(["sweep", "--values", "4"]) == 2

    def test_cli_sweep_bad_param(self, capsys):
        from repro.cli import main

        # Unknown sweep parameter -> ConfigurationError -> usage exit code.
        assert main(["sweep", "--param", "bogus", "--values", "1", "--kernels", "gemm"]) == 2

    def test_cli_sweep_invalid_point_fails_once_with_its_own_error(self, capsys):
        from repro.cli import main

        # The bank count is rejected when the System is built: a plain run
        # reports that ConfigurationError once, with no retries.
        assert main(["sweep", "--param", "dl1_banks", "--values", "3", "--kernels", "gemm"]) == 2
        err = capsys.readouterr().err
        assert err == "error: dl1: bank count must be a power of two\n"
