"""Tests for the CLI."""

import pytest

from repro.cli import main


class TestRound:
    def test_lightsecagg_round(self, capsys):
        assert main(["round", "-n", "8", "-d", "64", "--drop", "2"]) == 0
        out = capsys.readouterr().out
        assert "aggregate correct: True" in out
        assert "recovery" in out

    def test_secagg_round(self, capsys):
        assert main(["round", "--protocol", "secagg", "-n", "5",
                     "-d", "32", "--drop", "1"]) == 0
        out = capsys.readouterr().out
        assert "aggregate correct: True" in out
        assert "server PRG elements" in out

    def test_secagg_plus_round(self, capsys):
        assert main(["round", "--protocol", "secagg+", "-n", "10",
                     "-d", "32"]) == 0
        assert "aggregate correct: True" in capsys.readouterr().out


class TestSimulate:
    def test_simulate(self, capsys):
        assert main(["simulate", "--protocol", "secagg", "-n", "100",
                     "-d", "100000", "-p", "0.3"]) == 0
        out = capsys.readouterr().out
        assert "recovery" in out and "total" in out


class TestReports:
    def test_gains(self, capsys):
        assert main(["gains", "-n", "100"]) == 0
        out = capsys.readouterr().out
        assert "cnn_femnist" in out and "x" in out

    def test_breakdown(self, capsys):
        assert main(["breakdown", "-n", "50"]) == 0
        out = capsys.readouterr().out
        assert "lightsecagg" in out and "p=0.5" in out

    def test_complexity(self, capsys):
        assert main(["complexity", "-n", "100", "-d", "10000"]) == 0
        out = capsys.readouterr().out
        assert "reconstruction_server" in out

    def test_storage(self, capsys):
        assert main(["storage", "-n", "15"]) == 0
        out = capsys.readouterr().out
        assert "randomness ratio" in out


class TestService:
    def test_service_background_sharded(self, capsys):
        assert main(["service", "-n", "8", "-d", "128", "-c", "2",
                     "-s", "2", "-r", "4", "--pool", "3", "--low-water", "1",
                     "--refill", "background", "--settle"]) == 0
        out = capsys.readouterr().out
        assert "rounds completed : 8" in out
        assert "online stalls    : 0" in out
        assert "background refills" in out

    def test_service_sync_stalls_and_json(self, capsys):
        import json

        assert main(["service", "-n", "8", "-d", "64", "-c", "1",
                     "-r", "7", "--pool", "3", "--refill", "sync",
                     "--json"]) == 0
        snap = json.loads(capsys.readouterr().out)
        assert snap["metrics"]["total_rounds"] == 7
        # Warm pool of 3 drains after round 3; round 4 and 7 stall.
        assert snap["metrics"]["total_stalls"] >= 1
        assert snap["refiller"] is None

    def test_service_buffer_suffix_follows_buffered_state(
        self, capsys, monkeypatch
    ):
        """A cohort with a buffered update or a drain behind it shows
        its buffer and drains; a cohort without either shows neither."""
        import numpy as np

        from repro.service import AggregationService

        sweep = AggregationService.run_synthetic

        def sweep_then_submit(svc, *args, **kwargs):
            results = sweep(svc, *args, **kwargs)
            svc.submit_update(1, 0, np.zeros(svc.config.model_dim))
            return results

        monkeypatch.setattr(
            AggregationService, "run_synthetic", sweep_then_submit
        )
        assert main(["service", "-n", "8", "-d", "64", "-c", "2",
                     "-r", "2", "--pool", "3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        [zero] = [line for line in lines if "cohort 0:" in line]
        [one] = [line for line in lines if "cohort 1:" in line]
        assert "buffer" not in zero and "drains" not in zero
        assert one.endswith("[buffer 1/8, 0 drains]")

    def test_service_rejects_bad_geometry(self):
        with pytest.raises(SystemExit):
            main(["service", "--refill", "eager"])

    def test_service_rejects_a_transport_that_is_not_a_lane(self):
        with pytest.raises(SystemExit):
            main(["service", "--transport", "shm"])

    def test_service_over_socket_worker(self, capsys):
        """End-to-end over TCP: an in-process worker host serves a
        --transport socket service run."""
        from repro.service import ShardWorkerServer

        with ShardWorkerServer() as server:
            assert main(["service", "-n", "8", "-d", "64", "-c", "2",
                         "-s", "2", "-r", "3", "--pool", "3",
                         "--low-water", "1", "--refill", "background",
                         "--transport", "socket",
                         "--connect", server.address]) == 0
        out = capsys.readouterr().out
        assert "rounds completed : 6" in out
        assert "transport socket" in out

    def test_service_socket_requires_connect(self):
        from repro.exceptions import ReproError

        with pytest.raises(ReproError, match="connect"):
            main(["service", "--transport", "socket"])


class TestShardWorker:
    def test_shard_worker_serves_until_max_seconds(self, capsys):
        assert main(["shard-worker", "--listen", "127.0.0.1:0",
                     "--max-seconds", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "listening on 127.0.0.1:" in out

    def test_shard_worker_rejects_bad_listen_address(self):
        with pytest.raises(SystemExit):
            main(["shard-worker", "--listen", "nowhere"])


class TestParser:
    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_protocol_rejected(self):
        with pytest.raises(SystemExit):
            main(["round", "--protocol", "turboagg"])
