"""Tests for the command-line interface and the reproduction report builder."""

from __future__ import annotations

import argparse

import pytest

from repro.analysis.reporting import ReproductionReport, build_construction_report
from repro.cli import build_parser, main


class TestReproductionReport:
    def test_manual_records_and_markdown(self):
        report = ReproductionReport()
        report.add("Thm. X", "ratio", 1.5, 1.5, True)
        report.add("Thm. Y", "ratio", 2.0, 2.5, False)
        assert not report.all_hold
        md = report.to_markdown()
        assert "Thm. X" in md
        assert md.count("|") > 10
        assert "NO" in md

    @pytest.mark.parametrize("alpha", [1.0, 2.0])
    def test_construction_report_all_hold(self, alpha):
        report = build_construction_report(alpha=alpha, gadget_size=6)
        assert report.records
        assert report.all_hold, report.to_markdown()

    def test_report_covers_all_main_constructions(self):
        report = build_construction_report(alpha=2.0, gadget_size=6)
        experiments = {r.experiment for r in report.records}
        assert {"Thm. 15 (Fig. 6)", "Thm. 19 (Fig. 10)", "Thm. 18 (Fig. 9)",
                "Thm. 8 (Fig. 3)", "Thm. 20 remark"} <= experiments


class TestCLI:
    def test_parser_requires_command(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args([])

    def test_table1_command(self, capsys):
        code = main(["table1", "--alpha", "1.0", "--gadget-size", "6"])
        out = capsys.readouterr().out
        assert code == 0
        assert "T-GNCG" in out

    def test_constructions_command(self, capsys):
        code = main(["constructions", "--alpha", "2.0", "--gadget-size", "6"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Thm. 15" in out

    def test_poa_command(self, capsys):
        code = main(
            ["poa", "--variant", "euclidean", "--n", "5", "--alpha", "1.0",
             "--instances", "1", "--samples", "2", "--seed", "3"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "bound respected  : True" in out

    def test_dynamics_command(self, capsys):
        code = main(
            ["dynamics", "--variant", "tree", "--n", "5", "--alpha", "1.0",
             "--instances", "1", "--runs", "2"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "convergence rate" in out

    def test_simulate_command(self, capsys):
        code = main(["simulate", "--variant", "euclidean", "--n", "6", "--alpha", "1.5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "cost ratio" in out

    def test_simulate_tree_variant(self, capsys):
        code = main(["simulate", "--variant", "tree", "--n", "6", "--alpha", "2.0", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "optimum cost" in out

    def test_batched_schedule_matches_sequential_output(self, capsys):
        """--schedule batched must print the exact same report as sequential."""
        outputs = {}
        for schedule in ("sequential", "batched"):
            code = main(
                ["simulate", "--variant", "metric", "--n", "6", "--alpha", "1.2",
                 "--seed", "2", "--schedule", schedule]
            )
            assert code == 0
            outputs[schedule] = capsys.readouterr().out
        assert outputs["sequential"] == outputs["batched"]

    def test_dynamics_command_batched(self, capsys):
        code = main(
            ["dynamics", "--variant", "euclidean", "--n", "5", "--alpha", "1.0",
             "--instances", "1", "--runs", "2", "--schedule", "batched"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "convergence rate" in out


class TestBackendFlags:
    def test_config_dump_includes_backend_fields(self, capsys):
        import json

        code = main(
            ["config", "dump", "--schedule", "batched", "--backend", "remote",
             "--endpoint", "127.0.0.1:7601", "--endpoint", "127.0.0.1:7602"]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["backend"] == "remote"
        assert data["endpoints"] == ["127.0.0.1:7601", "127.0.0.1:7602"]
        assert "buffering" not in data

    def test_remote_backend_without_endpoint_is_a_parse_error(self, capsys):
        with pytest.raises(SystemExit):
            main(["poa", "--variant", "euclidean", "--n", "5", "--backend", "remote"])
        assert "requires endpoints" in capsys.readouterr().err

    def test_worker_serve_parser(self):
        args = build_parser().parse_args(
            ["worker", "serve", "--host", "0.0.0.0", "--port", "7601"]
        )
        assert args.command == "worker"
        assert args.action == "serve"
        assert (args.host, args.port) == ("0.0.0.0", 7601)

    def test_simulate_remote_backend_matches_local_output(self, capsys):
        """--backend remote must print the exact same report as the default."""
        from repro.core.remote import local_workers

        base = ["simulate", "--variant", "metric", "--n", "6", "--alpha", "1.2",
                "--seed", "2", "--schedule", "batched"]
        assert main(base) == 0
        local_out = capsys.readouterr().out
        with local_workers(2) as endpoints:
            remote = base + ["--backend", "remote"]
            for endpoint in endpoints:
                remote += ["--endpoint", endpoint]
            assert main(remote) == 0
        assert capsys.readouterr().out == local_out


# The option surface (flag, dest, choices, type) every subcommand had while
# the config flags were declared by hand, including the retired ones.
_VARIANT = ("--variant", "variant",
            ("ncg", "one_two", "tree", "euclidean", "metric", "general"), None)
_PLACEMENT = {
    ("--workers", "workers", None, "int"),
    ("--backend", "backend", ("local", "remote"), None),
    ("--endpoint", "endpoints", None, None),
    ("--residual-encoding", "residual_encoding", ("dense", "delta"), None),
    ("--batch-timeout", "batch_timeout", None, "float"),
    ("--max-retries", "max_retries", None, "int"),
    ("--failover", "failover", ("ladder", "strict"), None),
    ("--auth-token", "auth_token", None, None),
    ("--checkpoint", "checkpoint_path", None, None),
    ("--checkpoint-every", "checkpoint_every", None, "int"),
    ("--breaker-trip-after", "breaker_trip_after", None, "int"),
    ("--breaker-base-delay", "breaker_base_delay", None, "float"),
    ("--breaker-max-delay", "breaker_max_delay", None, "float"),
    ("--breaker-jitter", "breaker_jitter", None, "float"),
}
_EXPERIMENT = _PLACEMENT | {
    ("--config", "config", None, None),
    ("--engine", "engine", ("incremental", "exact"), None),
    ("--schedule", "schedule", ("sequential", "batched"), None),
    ("--seed", "seed", None, "int"),
}
_GAME = {("--n", "n", None, "int"), ("--alpha", "alpha", None, "float"), _VARIANT}
_GADGET = {("--alpha", "alpha", None, "float"),
           ("--gadget-size", "gadget_size", None, "int")}
FORMER_SURFACE = {
    "table1": _GADGET,
    "constructions": _GADGET,
    "poa": _EXPERIMENT | _GAME | {("--instances", "instances", None, "int"),
                                  ("--samples", "samples", None, "int")},
    "dynamics": _EXPERIMENT | _GAME | {("--instances", "instances", None, "int"),
                                       ("--runs", "runs", None, "int")},
    "simulate": _EXPERIMENT | _GAME,
    "resume": _PLACEMENT | {("", "checkpoint_file", None, None),
                            ("--no-checkpoint", "no_checkpoint", None, None)},
    "config": set(),
    "config dump": _EXPERIMENT | {
        ("--buffering", "buffering", ("single", "double"), None),
        ("--response", "response", ("best", "greedy", "single"), None),
        ("--order", "order", ("round_robin", "random", "max_gain"), None),
        ("--max-rounds", "max_rounds", None, "int"),
        ("--max-candidates", "max_candidates", None, "int"),
        ("--repair-threshold", "repair_threshold", None, "float"),
    },
    "worker": set(),
    "worker serve": {
        ("--host", "host", None, None),
        ("--port", "port", None, "int"),
        ("--auth-token", "auth_token", None, None),
        ("--fault-plan", "fault_plan", None, None),
        ("--worker-index", "worker_index", None, "int"),
    },
    "chaos": _GAME | {
        ("--seed", "seed", None, "int"),
        ("--schedule", "schedule", ("sequential", "batched"), None),
        ("--preset", "preset", None, None),
        ("--plan", "plan", None, None),
    },
    "lint": {("", "paths", None, None), ("--json", "as_json", None, None),
             ("--root", "root", None, None)},
}
RETIRED_FLAGS = {
    "--buffering",
    "--breaker-trip-after",
    "--breaker-base-delay",
    "--breaker-max-delay",
    "--breaker-jitter",
}


def _subparsers(parser, prefix=()):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield " ".join(prefix + (name,)), sub
                yield from _subparsers(sub, prefix + (name,))


def _options(parser):
    return [
        action
        for action in parser._actions
        if not isinstance(action, (argparse._HelpAction, argparse._SubParsersAction))
    ]


class TestCLISurface:
    """Flags derived from the SimulationConfig field metadata."""

    def test_every_subcommand_keeps_its_options_minus_the_retired_flags(self):
        surface = {
            name: {
                (
                    " ".join(action.option_strings),
                    action.dest,
                    tuple(action.choices) if action.choices else None,
                    getattr(action.type, "__name__", None),
                )
                for action in _options(sub)
            }
            for name, sub in _subparsers(build_parser())
        }
        expected = {
            name: {option for option in options if option[0] not in RETIRED_FLAGS}
            for name, options in FORMER_SURFACE.items()
        }
        assert surface == expected

    def test_residual_encoding_is_declared_once(self):
        helps = []
        for _name, sub in _subparsers(build_parser()):
            flagged = [
                action
                for action in _options(sub)
                if "--residual-encoding" in action.option_strings
            ]
            assert len(flagged) <= 1
            helps.extend(action.help for action in flagged)
        assert len(helps) == 5  # poa, dynamics, simulate, resume, config dump
        assert len(set(helps)) == 1
