"""Tests for the ``python -m repro`` experiment runner."""

from __future__ import annotations

import pytest

from repro.experiments.cli import build_parser, main


class TestParser:
    def test_requires_an_experiment(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args([])

    def test_known_experiments_parse(self):
        parser = build_parser()
        for args in (
            ["table3", "--scale", "small"],
            ["figure3", "--fast", "--checkpoints", "5", "10"],
            ["figure5", "--phases", "3"],
            ["figure6", "--queries", "10", "20"],
            ["figure7", "--rows", "5000"],
            ["ablations", "--which", "penalty"],
        ):
            namespace = parser.parse_args(args)
            assert namespace.experiment == args[0]

    def test_unknown_experiment_rejected(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["figure99"])


class TestMain:
    def test_figure6_report(self, capsys):
        report = main(["figure6", "--queries", "10", "20"])
        assert "Figure 6" in report
        assert "analytic" in report
        captured = capsys.readouterr()
        assert "Figure 6" in captured.out

    def test_table3_report(self, monkeypatch):
        """``main`` wires the flags into ``run_table3`` and returns its
        rendered report; the experiment itself runs in
        ``test_experiments.py::TestExperimentRuns::test_table3``."""
        calls = []

        class _Result:
            def render(self) -> str:
                return "Table 3a ... Table 3b"

        def run_table3(**kwargs):
            calls.append(kwargs)
            return _Result()

        monkeypatch.setattr("repro.experiments.cli.run_table3", run_table3)
        report = main(["table3", "--scale", "small", "--rows", "5000"])
        assert calls == [{"scale": "small", "row_count": 5000}]
        assert report == "Table 3a ... Table 3b"


class TestServeCommands:
    def test_worker_and_serve_subcommands_parse(self):
        parser = build_parser()
        worker = parser.parse_args(
            ["worker", "--port", "9000", "--shard-id", "alpha"]
        )
        assert worker.experiment == "worker"
        assert worker.port == 9000
        serve = parser.parse_args(
            ["serve", "--worker", "a=127.0.0.1:9000", "--worker", "b=127.0.0.1:9001"]
        )
        assert serve.experiment == "serve"
        assert serve.worker == ["a=127.0.0.1:9000", "b=127.0.0.1:9001"]

    def test_worker_runs_bounded(self, capsys):
        report = main(["worker", "--shard-id", "smoke", "--run-seconds", "0.2"])
        assert report == "worker 'smoke' stopped"
        captured = capsys.readouterr()
        assert "worker 'smoke' serving on 127.0.0.1:" in captured.out

    def test_serve_dials_an_existing_worker(self, capsys):
        from repro.net import WorkerServer

        worker = WorkerServer(shard_id="ext")
        worker.start()
        try:
            report = main(
                [
                    "serve",
                    "--worker",
                    f"ext=127.0.0.1:{worker.port}",
                    "--run-seconds",
                    "0.2",
                ]
            )
            assert report == "gateway stopped (1 worker(s))"
            captured = capsys.readouterr()
            assert "gateway serving on 127.0.0.1:" in captured.out
        finally:
            worker.close()

    def test_malformed_worker_spec_rejected(self):
        from repro.exceptions import ExperimentError
        from repro.experiments.cli import _parse_worker_spec

        assert _parse_worker_spec("a=host:12") == ("a", ("host", 12))
        for spec in ("nohost", "a=hostonly", "a=host:nan", "=host:12"):
            with pytest.raises(ExperimentError, match="NAME=HOST:PORT"):
                _parse_worker_spec(spec)

    def test_serve_requires_workers(self):
        from repro.exceptions import ExperimentError

        with pytest.raises(ExperimentError, match="at least one"):
            main(["serve", "--run-seconds", "0.1"])


class TestSuperviseCommand:
    def test_supervise_subcommand_parses(self):
        parser = build_parser()
        namespace = parser.parse_args(
            [
                "supervise",
                "--checkpoint-dir",
                "/tmp/ckpts",
                "--workers",
                "3",
                "--max-restarts",
                "2",
                "--write-buffer",
                "0",
            ]
        )
        assert namespace.experiment == "supervise"
        assert namespace.checkpoint_dir == "/tmp/ckpts"
        assert namespace.workers == 3
        assert namespace.max_restarts == 2
        assert namespace.write_buffer == 0

    def test_supervise_requires_checkpoint_dir(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["supervise"])

    def test_supervise_requires_workers(self, tmp_path):
        from repro.exceptions import ExperimentError

        with pytest.raises(ExperimentError, match="at least one"):
            main(
                [
                    "supervise",
                    "--checkpoint-dir",
                    str(tmp_path / "ckpts"),
                    "--workers",
                    "0",
                    "--run-seconds",
                    "0.1",
                ]
            )

    def test_supervise_runs_bounded(self, capsys, tmp_path):
        checkpoint_dir = tmp_path / "ckpts"
        report = main(
            [
                "supervise",
                "--checkpoint-dir",
                str(checkpoint_dir),
                "--workers",
                "1",
                "--run-seconds",
                "1.0",
                "--health-interval",
                "0.2",
                "--poll-interval",
                "0.1",
            ]
        )
        assert report == "supervised fleet stopped (1 worker(s))"
        captured = capsys.readouterr()
        assert "supervised gateway on 127.0.0.1:" in captured.out
        assert checkpoint_dir.joinpath("worker-0").is_dir()
