"""Exit codes of the ``tall`` command line and the parameter reports."""

import pytest

from tall import cli
from tall.pipeline import StageDimensionError
from tall.tensor import ShapeError


def _raise(exc):
    def handler(args):
        raise exc
    return handler


class TestExitCodes:
    def test_stage_mismatch_is_a_checkpoint_error_naming_the_stage(
            self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "cmd_param_report", _raise(
            StageDimensionError(4, "loaded LM width 48 != config 96")))
        assert cli.main(["param-report", "--preset", "toy"]) == cli.EXIT_CHECKPOINT
        err = capsys.readouterr().err
        assert "checkpoint/config mismatch" in err
        assert "stage 4" in err

    def test_other_shape_error_has_its_own_code_and_message(
            self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "cmd_param_report", _raise(ShapeError(
            "sequence length 40 exceeds encoder.pos table (32 positions)")))
        assert cli.main(["param-report", "--preset", "toy"]) == cli.EXIT_SHAPE
        err = capsys.readouterr().err
        assert "shape error: sequence length 40" in err
        assert "checkpoint" not in err


@pytest.mark.parametrize("preset", ["bloomz", "qwen"])
def test_param_report_check_reproduces_published_numbers(preset, capsys):
    assert cli.main(["param-report", "--preset", preset, "--check"]) == cli.EXIT_OK
    assert "all published numbers reproduced exactly" in capsys.readouterr().out
