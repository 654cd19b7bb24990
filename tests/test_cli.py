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

    def test_fig10_small(self, capsys):
        assert main(["fig10", "--tiles", "2"]) == 0
        out = capsys.readouterr().out
        assert "Figure 10" in out
        assert "Segmentation" in out
