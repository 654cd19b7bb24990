"""Tests for the command-line interface."""

import pytest

from repro.cli import NETWORK_ALIASES, build_parser, main


class TestParser:
    def test_all_subcommands_present(self):
        parser = build_parser()
        text = parser.format_help()
        for command in ("fig2", "fig3", "ops", "fig6", "fig7", "fig8", "fig9", "fig10", "run", "sweep", "report"):
            assert command in text

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    @pytest.mark.parametrize("tiles", ["0", "-1"])
    @pytest.mark.parametrize(
        "command",
        [
            ["fig6"], ["fig7"], ["fig8"], ["fig9"], ["fig10"], ["report"],
            ["run", "Denoise"], ["sweep"], ["serve"], ["trace", "Denoise"],
        ],
        ids=lambda command: command[0],
    )
    def test_rejects_nonpositive_tiles_before_output(self, capsys, command, tiles):
        with pytest.raises(SystemExit) as exit_info:
            main([*command, "--tiles", tiles])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "tiles must be >= 1" in captured.err

    def test_network_aliases_cover_paper_networks(self):
        from repro.arch.presets import PAPER_NETWORKS

        assert set(NETWORK_ALIASES.values()) == set(PAPER_NETWORKS)


class TestCommands:
    def test_fig2_prints_breakdown(self, capsys):
        assert main(["fig2"]) == 0
        out = capsys.readouterr().out
        assert "Figure 2" in out
        assert "miscellaneous" in out

    def test_fig3_prints_savings(self, capsys):
        assert main(["fig3"]) == 0
        assert "compute_energy_savings" in capsys.readouterr().out

    def test_ops_prints_gap(self, capsys):
        assert main(["ops"]) == 0
        out = capsys.readouterr().out
        assert "add32" in out and "AES" in out

    def test_run_command(self, capsys):
        assert main(["run", "Denoise", "--tiles", "2", "--islands", "3"]) == 0
        out = capsys.readouterr().out
        assert "Denoise" in out
        assert "speedup" in out

    @pytest.mark.parametrize(
        "argv",
        [["run", "Denoise"], ["serve", "--no-cache"], ["trace", "Denoise"]],
        ids=["run", "serve", "trace"],
    )
    def test_run_rejects_unknown_network(self, capsys, argv):
        assert main([*argv, "--tiles", "2", "--network", "torus"]) == 1
        assert "unknown network" in capsys.readouterr().err

    def test_run_rejects_unknown_workload(self):
        with pytest.raises(SystemExit):
            main(["run", "Linpack"])

    def test_sweep_command_with_cache(self, capsys, tmp_path):
        argv = [
            "sweep",
            "--workloads", "Denoise",
            "--islands", "3",
            "--networks", "crossbar,ring2x32",
            "--tiles", "2",
            "--jobs", "1",
            "--cache-dir", str(tmp_path / "cache"),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "simulations run: 2/2" in out
        # Second invocation is served entirely from the persistent cache.
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "simulations run: 0/2" in out
        assert "2 hits" in out

    def test_sweep_no_cache_and_out(self, capsys, tmp_path):
        out_path = tmp_path / "results.json"
        assert main([
            "sweep",
            "--workloads", "Denoise",
            "--islands", "3",
            "--networks", "crossbar",
            "--tiles", "2",
            "--no-cache",
            "--out", str(out_path),
        ]) == 0
        assert out_path.exists()
        assert "cache:" not in capsys.readouterr().out

    def test_sweep_rejects_unknown_network(self, capsys):
        assert main(["sweep", "--networks", "torus", "--tiles", "2"]) == 1
        assert "unknown network" in capsys.readouterr().err

    def test_sweep_rejects_bad_islands(self, capsys):
        assert main(["sweep", "--islands", "three", "--tiles", "2"]) == 1
        assert "bad island count" in capsys.readouterr().err

    def test_serve_command(self, capsys, tmp_path):
        out_path = tmp_path / "serve.json"
        argv = [
            "serve",
            "--workloads", "Denoise",
            "--tenants", "2",
            "--tiles", "4",
            "--load", "0.5",
            "--duration", "200000",
            "--cache-dir", str(tmp_path / "cache"),
            "--out", str(out_path),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "closed-loop saturation" in out
        assert "always_hw" in out
        assert out_path.exists()
        from repro.serve import load_serve_results

        results = load_serve_results(str(out_path))
        assert len(results) == 1 and results[0].offered > 0
        # Second invocation hits the persistent serve cache and must
        # print the identical report.
        assert main(argv) == 0
        assert "always_hw" in capsys.readouterr().out

    def test_serve_compare_runs_all_policies(self, capsys):
        assert main([
            "serve",
            "--workloads", "Denoise",
            "--tenants", "2",
            "--tiles", "4",
            "--load", "0.4",
            "--duration", "150000",
            "--compare",
            "--no-cache",
        ]) == 0
        out = capsys.readouterr().out
        for policy in ("always_hw", "wait_threshold", "shed"):
            assert policy in out

    def test_serve_trace_arrivals(self, capsys, tmp_path):
        trace = tmp_path / "trace.txt"
        trace.write_text("\n".join(str(5000 * i) for i in range(1, 11)))
        assert main([
            "serve",
            "--workloads", "Denoise",
            "--tenants", "1",
            "--tiles", "4",
            "--arrival", "trace",
            "--trace-file", str(trace),
            "--duration", "200000",
            "--no-cache",
        ]) == 0
        assert "trace" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--tenants", "0"], "--tenants"),
            (["--duration", "-5"], "--duration"),
            (["--arrival", "trace"], "--trace-file"),
            (["--load", "0"], "--load"),
            (["--load", "-1"], "--load"),
            (["--rate", "-5"], "--rate"),
            (["--queue-bound", "0"], "queue bound"),
            (["--wait-bound", "-5"], "wait bound"),
            (["--duration", "nan"], "--duration"),
            (["--duration", "inf"], "--duration"),
            (["--load", "nan"], "--load"),
            (["--load", "inf"], "--load"),
            (["--rate", "nan"], "--rate"),
            (["--rate", "inf"], "--rate"),
            (["--wait-bound", "nan"], "wait bound"),
            (
                ["--arrival", "trace", "--trace-file", "/nonexistent/trace.txt"],
                "arrival trace",
            ),
        ],
        ids=[
            "no-tenants",
            "negative-duration",
            "trace-without-file",
            "zero-load",
            "negative-load",
            "negative-rate",
            "zero-queue-bound",
            "negative-wait-bound",
            "nan-duration",
            "inf-duration",
            "nan-load",
            "inf-load",
            "nan-rate",
            "inf-rate",
            "nan-wait-bound",
            "missing-trace-file",
        ],
    )
    def test_serve_rejects_bad_flags_before_probe(
        self, capsys, monkeypatch, flags, named
    ):
        import repro.serve

        def probe(*_args, **_kwargs):
            raise AssertionError("saturation probe ran before validation")

        monkeypatch.setattr(repro.serve, "estimate_saturation", probe)
        assert main(["serve", "--tiles", "4", "--no-cache", *flags]) == 1
        captured = capsys.readouterr()
        assert named in captured.err
        assert captured.out == ""

    def test_trace_rejects_negative_top_before_simulating(
        self, capsys, tmp_path
    ):
        out = tmp_path / "trace.json"
        argv = ["trace", "Denoise", "--tiles", "2", "--top", "-1", "--out", str(out)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert "--top" in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_trace_walks_the_span_dag_once(self, capsys, monkeypatch, tmp_path):
        # The run's own critical-path report is the one the CLI prints.
        import repro.obs
        import repro.obs.critpath as critpath

        calls = []
        real = critpath.analyze_critical_path

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        for module in (critpath, repro.obs):
            monkeypatch.setattr(module, "analyze_critical_path", counting)
        out = tmp_path / "trace.json"
        assert main(["trace", "Denoise", "--tiles", "2", "--out", str(out)]) == 0
        assert len(calls) == 1
        printed = capsys.readouterr().out
        assert "critical-path attribution:\nmakespan " in printed

    def test_fig7_columns_are_labelled_by_network_alias(self, capsys):
        assert main(["fig7", "--tiles", "1"]) == 0
        rows = [
            line.split()
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("  Denoise ")
        ]
        assert rows
        for row in rows:
            labels = [cell.split("=")[0] for cell in row[1:]]
            assert labels == ["ring1x16", "ring1x32", "ring2x32", "ring3x32"]
            assert len(set(labels)) == 4

    def test_fig10_small(self, capsys):
        assert main(["fig10", "--tiles", "2"]) == 0
        out = capsys.readouterr().out
        assert "Figure 10" in out
        assert "Segmentation" in out

    def test_report_simulates_each_point_once_and_prints_every_figure(
        self, capsys, monkeypatch
    ):
        from tests.test_dse_report import counting_run_workload

        fingerprints = counting_run_workload(monkeypatch)
        assert main(["report", "--tiles", "1"]) == 0
        together = capsys.readouterr().out
        # Figs. 6-10 cover 86 distinct points; each is simulated once.
        assert len(fingerprints) == len(set(fingerprints)) == 86

        separate = []
        for command in ("fig2", "fig3", "ops"):
            assert main([command]) == 0
            separate.append(capsys.readouterr().out + "\n")
        for command in ("fig6", "fig7", "fig8", "fig9", "fig10"):
            assert main([command, "--tiles", "1"]) == 0
            separate.append(capsys.readouterr().out + "\n")
        assert together == "".join(separate)
