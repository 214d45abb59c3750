"""Tests for the command-line interface (fast paths only)."""

import pytest

from repro.cli import _build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            _build_parser().parse_args([])

    def test_exp2_source_choices(self):
        args = _build_parser().parse_args(["exp2", "mechanic"])
        assert args.source == "mechanic"
        with pytest.raises(SystemExit):
            _build_parser().parse_args(["exp2", "oem_final"])

    def test_folds_option(self):
        args = _build_parser().parse_args(["exp1", "--folds", "2"])
        assert args.folds == 2

    def test_experiments_have_no_workers_option(self):
        for argv in (["exp1", "--workers", "2"],
                     ["exp2", "mechanic", "--workers", "2"]):
            with pytest.raises(SystemExit):
                _build_parser().parse_args(argv)

    def test_serve_options(self):
        args = _build_parser().parse_args(["serve", "--port", "9999"])
        assert args.port == 9999


class TestStatsCommand:
    def test_stats_prints_paper_numbers(self, capsys):
        assert main(["stats"]) == 0
        output = capsys.readouterr().out
        assert "7500" in output
        assert "1271" in output
        assert "553" in output


class TestAnnotatorsCommand:
    def test_annotators_prints_both(self, capsys):
        assert main(["annotators"]) == 0
        output = capsys.readouterr().out
        assert "optimized" in output
        assert "legacy" in output
        assert "zero-concept bundles: 0/7500" in output
