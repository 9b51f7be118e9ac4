"""Smoke tests for the `python -m repro` command-line interface."""

import pytest

from repro.__main__ import main


class TestCli:
    def test_figures(self, capsys):
        assert main(["figures"]) == 0
        output = capsys.readouterr().out
        assert "Figure 1" in output
        assert "GRANTED" in output

    def test_demo(self, capsys):
        assert main(["demo"]) == 0
        output = capsys.readouterr().out
        assert "spyware mic attempt -> None" in output

    def test_usability(self, capsys):
        assert main(["usability", "--seed", "66"]) == 0
        output = capsys.readouterr().out
        assert "participants" in output

    def test_longterm_short(self, capsys):
        assert main(["longterm", "--days", "1"]) == 0
        output = capsys.readouterr().out
        assert "OVERHAUL" in output and "unprotected" in output

    def test_applicability(self, capsys):
        assert main(["applicability"]) == 0
        output = capsys.readouterr().out
        assert "applications exercised : 108" in output

    def test_table1_tiny(self, capsys):
        assert main(["table1", "--scale", "0.02", "--repeats", "2"]) == 0
        output = capsys.readouterr().out
        assert "Table I" in output
        assert "Pair range" in output and "us/op" in output
        for name in ("Device Access", "Clipboard", "Screen Capture", "Shared Memory", "Bonnie++"):
            assert name in output

    def test_trace(self, capsys):
        assert main(["trace"]) == 0
        output = capsys.readouterr().out
        # The acceptance criterion: one grant and one deny, each with its
        # full decision path reconstructed from the trace.
        assert "GRANTED microphone:/dev/mic0" in output
        assert "DENIED microphone:/dev/mic0" in output
        assert "HARDWARE button-release on window w1" in output
        assert "no authentic user input was ever delivered" in output

    def test_trace_tree_and_counters(self, capsys):
        assert main(["trace", "--tree", "--counters"]) == 0
        output = capsys.readouterr().out
        assert "monitor.decide" in output
        assert "netlink.to_kernel" in output
        assert "obs.spans" in output

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["no-such-command"])


class TestJsonFlags:
    """`--json` turns each study subcommand into a machine-readable feed."""

    def test_longterm_json(self, capsys):
        import json

        assert main(["longterm", "--days", "1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"protected", "unprotected"}
        assert payload["protected"]["legit_failures"] == 0
        assert payload["unprotected"]["total_stolen"] > 0

    def test_usability_json(self, capsys):
        import json

        assert main(["usability", "--seed", "66", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["participants"] == 46
        assert len(payload["outcomes"]) == 46
        assert payload["identical_experience"] == 46

    def test_table1_json(self, capsys):
        import json

        assert main(["table1", "--scale", "0.02", "--repeats", "3", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["table"] == "I"
        rows = payload["rows"]
        assert [row["name"] for row in rows] == [
            "Device Access", "Clipboard", "Screen Capture", "Shared Memory", "Bonnie++",
        ]
        for row in rows:
            assert set(row) == {
                "name", "operations", "pairs", "median_overhead_percent",
                "min_overhead_percent", "max_overhead_percent",
                "median_added_us_per_op", "paper_overhead_percent", "counters",
            }
            assert row["pairs"] == 3
            assert (row["min_overhead_percent"] <= row["median_overhead_percent"]
                    <= row["max_overhead_percent"])


class TestFleetCommand:
    def test_fleet_longterm_human_output(self, capsys):
        assert main([
            "fleet", "longterm", "--machines", "2", "--days", "1", "--workers", "1",
        ]) == 0
        output = capsys.readouterr().out
        assert "fleet 'longterm': population 2" in output
        assert "executed / resumed     : 2 / 0" in output

    def test_fleet_json_deterministic_across_workers(self, capsys):
        assert main([
            "fleet", "longterm", "--machines", "3", "--days", "1",
            "--workers", "1", "--seed", "8", "--json",
        ]) == 0
        serial = capsys.readouterr().out
        assert main([
            "fleet", "longterm", "--machines", "3", "--days", "1",
            "--workers", "2", "--seed", "8", "--json",
        ]) == 0
        pooled = capsys.readouterr().out
        assert serial == pooled

    def test_fleet_usability_users_flag(self, capsys):
        import json

        assert main([
            "fleet", "usability", "--users", "6", "--workers", "1", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["participants"] == 6

    def test_fleet_resume_flag(self, capsys, tmp_path):
        spool = str(tmp_path / "spool")
        assert main([
            "fleet", "longterm", "--machines", "2", "--days", "1",
            "--workers", "1", "--resume", spool,
        ]) == 0
        capsys.readouterr()
        assert main([
            "fleet", "longterm", "--machines", "2", "--days", "1",
            "--workers", "1", "--resume", spool,
        ]) == 0
        output = capsys.readouterr().out
        assert "executed / resumed     : 0 / 2" in output

    def test_fleet_unknown_study_rejected(self, capsys):
        assert main(["fleet", "nope"]) == 2
        assert "unknown study" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--timeout", "0"], "timeout_seconds must be > 0"),
            (["--timeout", "nan"], "timeout_seconds must be > 0"),
            (["--retries", "-1"], "max_retries must be >= 0"),
        ],
    )
    def test_fleet_bad_timeout_or_retries_exit_2(self, capsys, flags, message):
        argv = ["fleet", "synthetic", "--users", "8", "--workers", "2", *flags]
        assert main(argv) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--lease", "8"], ["--no-steal"]])
    def test_fleet_removed_dispatch_flags_rejected(self, capsys, flags):
        with pytest.raises(SystemExit) as exit_info:
            main(["fleet", "synthetic", "--users", "8", *flags])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_fleet_help_lists_registered_studies(self, capsys):
        from repro.fleet import study_names

        with pytest.raises(SystemExit) as exit_info:
            main(["fleet", "--help"])
        assert exit_info.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        assert f"study to shard ({', '.join(study_names())})" in text
        assert "lease" not in text

    def test_fleet_human_output_reports_dispatches(self, capsys):
        assert main([
            "fleet", "synthetic", "--users", "16", "--shard-size", "4",
            "--workers", "2",
        ]) == 0
        output = capsys.readouterr().out
        assert "dispatches             : 4" in output
        assert "steal" not in output

    def test_fleet_clustered_stragglers_json_identical_w4_and_w1(self, capsys):
        argv = [
            "fleet", "synthetic", "--users", "64", "--shard-size", "4",
            "--straggler-first", "8", "--straggler-ms", "20", "--json",
        ]
        assert main(argv + ["--workers", "1"]) == 0
        serial = capsys.readouterr().out
        assert main(argv + ["--workers", "4"]) == 0
        assert capsys.readouterr().out == serial


class TestRedteamCommand:
    def test_campaign_table(self, capsys):
        assert main([
            "redteam", "--families", "flood", "--trials", "2", "--no-baseline",
        ]) == 0
        output = capsys.readouterr().out
        assert "red-team campaign" in output
        assert "flood-sendevent" in output and "flood-xtest" in output
        assert "inside their verdict envelopes" in output

    def test_campaign_json_deterministic_across_workers(self, capsys):
        import json

        args = [
            "redteam", "--families", "ptrace", "--trials", "2",
            "--no-baseline", "--seed", "9", "--json",
        ]
        assert main(args + ["--workers", "1"]) == 0
        serial = capsys.readouterr().out
        assert main(args + ["--workers", "2"]) == 0
        assert serial == capsys.readouterr().out
        payload = json.loads(serial)
        names = [entry["scenario"] for entry in payload["scenarios"]]
        assert names == ["ptrace-inject-blessed", "ptrace-detach-race"]

    def test_sweep_delta_json(self, capsys):
        import json

        assert main(["redteam", "--sweep", "delta", "--trials", "3", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["parameter"] == "delta"
        assert len(payload["points"]) == len(payload["roc"])
        assert 0.0 <= payload["auc"] <= 1.0

    def test_sweep_visibility_human(self, capsys):
        assert main(["redteam", "--sweep", "visibility", "--trials", "3"]) == 0
        output = capsys.readouterr().out
        assert "visibility" in output and "AUC" in output

    def test_unknown_family_rejected(self, capsys):
        assert main(["redteam", "--families", "nope", "--trials", "1"]) == 2
        assert "nope" in capsys.readouterr().err


class TestServeCommand:
    def test_no_listener_rejected(self, capsys):
        assert main(["serve"]) == 2
        assert "--unix PATH and/or --tcp" in capsys.readouterr().err

    def test_malformed_tcp_rejected(self, capsys):
        assert main(["serve", "--tcp", "nonsense"]) == 2
        assert "HOST:PORT" in capsys.readouterr().err

    def test_serve_ready_line_and_sigterm_drain(self, tmp_path):
        """End to end: spawn the daemon, talk to it, SIGTERM it."""
        import os
        import signal
        import subprocess
        import sys

        socket_path = str(tmp_path / "cli.sock")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [os.path.abspath("src"), env.get("PYTHONPATH")])
        )
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--unix", socket_path],
            stdout=subprocess.PIPE,
            env=env,
            text=True,
        )
        try:
            ready = process.stdout.readline()
            assert "overhaul service ready" in ready
            assert f"unix:{socket_path}" in ready

            from repro.service.client import ServiceClient

            with ServiceClient(unix_path=socket_path) as client:
                assert client.ping() == {"pong": True, "version": 1}
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=15) == 0
            assert "overhaul service drained" in process.stdout.read()
        finally:
            if process.poll() is None:  # pragma: no cover - cleanup on failure
                process.kill()
            process.stdout.close()

    def test_shard_workers_take_max_tenants_per_worker(self, tmp_path):
        """``--max-tenants`` caps each worker's tenant table."""
        import os
        import signal
        import subprocess
        import sys

        from repro.service.client import ServiceClient, ServiceError
        from repro.service.snapshot import tenant_shard

        names = [f"t{i}" for i in range(64)]
        first, over = [name for name in names if tenant_shard(name, 2) == 0][:2]
        other = next(name for name in names if tenant_shard(name, 2) == 1)
        socket_path = str(tmp_path / "cli.sock")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [os.path.abspath("src"), env.get("PYTHONPATH")])
        )
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--unix", socket_path,
             "--shard-workers", "2", "--max-tenants", "1"],
            stdout=subprocess.PIPE,
            env=env,
            text=True,
        )
        try:
            assert "overhaul service ready" in process.stdout.readline()
            with ServiceClient(unix_path=socket_path, retry_attempts=0) as client:
                client.spawn(first, "alpha")
                with pytest.raises(ServiceError) as excinfo:
                    client.spawn(over, "alpha")
                assert excinfo.value.code == "TENANT_LIMIT"
                client.spawn(other, "alpha")  # the other worker has its own cap
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=15) == 0
        finally:
            if process.poll() is None:  # pragma: no cover - cleanup on failure
                process.kill()
            process.stdout.close()


class TestBrokenPipe:
    """Piping `--json` output into a closed reader must exit 141, quietly."""

    class _ClosedPipe:
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def flush(self):
            raise BrokenPipeError(32, "Broken pipe")

    def test_redteam_json_into_closed_pipe(self, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdout", self._ClosedPipe())
        assert main([
            "redteam", "--families", "flood", "--trials", "1",
            "--no-baseline", "--json",
        ]) == 141
        assert "pipe closed early" in capsys.readouterr().err

    def test_fleet_json_into_closed_pipe(self, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdout", self._ClosedPipe())
        assert main([
            "fleet", "usability", "--users", "2", "--workers", "1", "--json",
        ]) == 141
        assert "pipe closed early" in capsys.readouterr().err
