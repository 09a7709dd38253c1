"""Command-line interface."""

import json

import numpy as np
import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.command == "simulate"
        assert args.v0 == 0.2
        assert args.ppc == 1000

    def test_invalid_choice_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--interpolation", "spline"])

    def test_reproduce_requires_artifact(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["reproduce"])


class TestSimulateCommand:
    def test_runs_and_reports_growth(self, capsys, tmp_path):
        out = tmp_path / "history.npz"
        code = main([
            "simulate", "--cells", "32", "--ppc", "40", "--steps", "20",
            "--vth", "0.01", "--out", str(out),
        ])
        assert code == 0
        text = capsys.readouterr().out
        assert "energy variation" in text
        assert "growth rate" in text
        assert out.exists()
        from repro.utils.io import load_npz_dict

        series = load_npz_dict(out)
        assert series["time"].shape == (21,)

    def test_stable_configuration_reported(self, capsys):
        code = main([
            "simulate", "--cells", "32", "--ppc", "40", "--steps", "5",
            "--v0", "0.4", "--vth", "0.0",
        ])
        assert code == 0
        assert "linearly stable" in capsys.readouterr().out


class TestSweepCommand:
    def _save_tiny_solver(self, tmp_path, n_cells=32):
        from repro.config import SimulationConfig
        from repro.dlpic import DLFieldSolver
        from repro.models.architectures import build_mlp
        from repro.phasespace.binning import PhaseSpaceGrid
        from repro.phasespace.normalization import MinMaxNormalizer

        config = SimulationConfig(n_cells=n_cells)
        grid = PhaseSpaceGrid(n_x=16, n_v=8, box_length=config.box_length)
        model = build_mlp(input_size=grid.size, output_size=n_cells, hidden_size=8, rng=0)
        solver = DLFieldSolver(
            model, grid, MinMaxNormalizer.from_dict({"minimum": 0.0, "maximum": 50.0})
        )
        return solver.save(tmp_path / "solver")

    def test_traditional_sweep_runs(self, capsys, tmp_path):
        out = tmp_path / "sweep.npz"
        code = main([
            "sweep", "--cells", "32", "--ppc", "20", "--steps", "4",
            "--v0", "0.2", "--runs", "2", "--out", str(out),
        ])
        assert code == 0
        assert "traditional solver" in capsys.readouterr().out
        assert out.exists()

    def test_dl_sweep_runs_from_saved_solver(self, capsys, tmp_path):
        model_dir = self._save_tiny_solver(tmp_path)
        out = tmp_path / "dl-sweep.npz"
        code = main([
            "sweep", "--cells", "32", "--ppc", "20", "--steps", "4",
            "--runs", "2", "--solver", "dl", "--model-dir", str(model_dir),
            "--out", str(out),
        ])
        assert code == 0
        assert "dl solver" in capsys.readouterr().out
        assert out.exists()
        from repro.utils.io import load_npz_dict

        series = load_npz_dict(out)
        assert series["mode1"].shape == (5, 2)

    def test_dl_sweep_requires_model_dir(self, capsys):
        code = main(["sweep", "--solver", "dl", "--steps", "1"])
        assert code == 2
        assert "--model-dir" in capsys.readouterr().err

    def test_dl_sweep_missing_model_dir_reports_cleanly(self, capsys, tmp_path):
        code = main([
            "sweep", "--solver", "dl", "--model-dir", str(tmp_path / "nope"),
            "--steps", "1",
        ])
        assert code == 2
        assert "cannot load a DL solver" in capsys.readouterr().err

    def test_dl_sweep_incompatible_solver_reports_cleanly(self, capsys, tmp_path):
        model_dir = self._save_tiny_solver(tmp_path, n_cells=32)
        code = main([
            "sweep", "--solver", "dl", "--model-dir", str(model_dir),
            "--cells", "16", "--ppc", "10", "--steps", "1",
        ])
        assert code == 2
        assert "incompatible" in capsys.readouterr().err


class TestVlasovSweep:
    def test_vlasov_sweep_runs(self, capsys, tmp_path):
        out = tmp_path / "vlasov-sweep.npz"
        code = main([
            "sweep", "--solver", "vlasov", "--cells", "32", "--nv", "48",
            "--steps", "4", "--vth", "0.03,0.05", "--runs", "1",
            "--out", str(out),
        ])
        assert code == 0
        text = capsys.readouterr().out
        assert "vlasov solver" in text
        assert "phase-space cells" in text
        assert out.exists()
        from repro.utils.io import load_npz_dict

        series = load_npz_dict(out)
        assert series["mode1"].shape == (5, 2)

    def test_vlasov_sweep_rejects_cold_beams(self, capsys):
        code = main([
            "sweep", "--solver", "vlasov", "--steps", "1", "--vth", "0.0",
        ])
        assert code == 2
        assert "vth > 0" in capsys.readouterr().err


class TestScenariosCommand:
    def test_lists_every_registered_scenario(self, capsys):
        from repro.pic.scenarios import available_scenarios

        code = main(["scenarios"])
        assert code == 0
        out = capsys.readouterr().out
        for name in available_scenarios():
            assert name in out
        assert "counter-streaming" in out  # the one-line docs ride along

    def test_marks_vlasov_capable_scenarios(self, capsys):
        from repro.pic.scenarios import available_distributions

        main(["scenarios"])
        out = capsys.readouterr().out
        assert out.count("pic+vlasov") == len(available_distributions())

    def test_lists_distribution_only_scenarios(self, capsys, monkeypatch):
        from repro.pic import scenarios

        def f0(config, x, v):
            """A distribution-only test entry."""

        monkeypatch.setitem(scenarios._DISTRIBUTIONS, "f0_only_test", f0)
        main(["scenarios"])
        out = capsys.readouterr().out
        assert "f0_only_test" in out
        assert "[vlasov    ]" in out
        assert "A distribution-only test entry." in out


class TestServeCommand:
    REQUEST = ('{"api_version": "v1", "config": {"scenario": "%s", '
               '"n_cells": 16, "particles_per_cell": 10, "n_steps": 3, '
               '"vth": 0.01, "seed": %d}, "id": "%s"}')

    def _write_requests(self, tmp_path, specs):
        path = tmp_path / "requests.jsonl"
        lines = ["# test requests"]
        lines += [self.REQUEST % (scenario, seed, rid) for scenario, seed, rid in specs]
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_serves_requests_and_writes_store_and_manifest(self, capsys, tmp_path):
        path = self._write_requests(tmp_path, [
            ("two_stream", 0, "a"),
            ("cold_beam", 1, "b"),
            ("two_stream", 0, "a-dup"),  # identical physics to "a"
        ])
        store = tmp_path / "store"
        manifest_path = tmp_path / "manifest.json"
        code = main([
            "serve", "--requests", str(path), "--store", str(store),
            "--manifest", str(manifest_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "served 3 requests" in out
        manifest = json.loads(manifest_path.read_text())
        entries = {e["id"]: e for e in manifest["requests"]}
        assert entries["a"]["status"] == "ok"
        assert entries["a"]["submit_status"] == "queued"
        assert entries["a-dup"]["status"] == "ok"
        assert entries["a-dup"]["submit_status"] in ("inflight", "cached")
        assert entries["a-dup"]["key"] == entries["a"]["key"]
        assert entries["a-dup"]["key"] == entries["a"]["key"]
        assert manifest["stats"]["executed_runs"] == 2
        # results are content-addressed npz files in the store directory
        for rid in ("a", "b"):
            assert (store / entries[rid]["file"]).exists()

    def test_second_invocation_served_from_disk_store(self, capsys, tmp_path):
        path = self._write_requests(tmp_path, [("two_stream", 0, "a")])
        store = tmp_path / "store"
        assert main(["serve", "--requests", str(path), "--store", str(store)]) == 0
        capsys.readouterr()
        assert main(["serve", "--requests", str(path), "--store", str(store)]) == 0
        out = capsys.readouterr().out
        assert "0 runs executed" in out
        assert "1 store hits" in out

    def test_bad_request_line_reports_cleanly(self, capsys, tmp_path):
        path = tmp_path / "requests.jsonl"
        path.write_text('{"api_version": "v1", "config": {"n_cells": 16}}\n'
                        '{"api_version": "v1", "config": {"nsteps": 3}}\n')
        code = main(["serve", "--requests", str(path)])
        assert code == 2
        assert "line 2" in capsys.readouterr().err

    def test_legacy_bare_config_line_reports_cleanly(self, capsys, tmp_path):
        path = tmp_path / "requests.jsonl"
        path.write_text('{"n_cells": 16, "id": "old-style"}\n')
        code = main(["serve", "--requests", str(path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "legacy bare-config" in err and "v1 envelope" in err

    def test_unknown_scenario_reports_cleanly(self, capsys, tmp_path):
        path = tmp_path / "requests.jsonl"
        path.write_text('{"api_version": "v1", "config": '
                        '{"scenario": "typo_scenario", "n_steps": 1}}\n')
        code = main(["serve", "--requests", str(path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown scenario" in err and "line 1" in err

    def test_wrong_typed_value_reports_cleanly(self, capsys, tmp_path):
        path = tmp_path / "requests.jsonl"
        path.write_text('{"api_version": "v1", "config": {"n_cells": "sixteen"}}\n')
        code = main(["serve", "--requests", str(path)])
        assert code == 2
        assert "line 1" in capsys.readouterr().err

    def test_missing_file_reports_cleanly(self, capsys, tmp_path):
        code = main(["serve", "--requests", str(tmp_path / "nope.jsonl")])
        assert code == 2
        assert "cannot read" in capsys.readouterr().err

    def test_duplicate_ids_rejected(self, capsys, tmp_path):
        path = self._write_requests(tmp_path, [("two_stream", 0, "a"),
                                               ("two_stream", 1, "a")])
        code = main(["serve", "--requests", str(path)])
        assert code == 2
        assert "duplicate request ids" in capsys.readouterr().err

    def test_vlasov_requests_served_without_model_dir(self, capsys, tmp_path):
        path = tmp_path / "requests.jsonl"
        path.write_text(
            '{"api_version": "v1", "id": "v-a", "config": {"solver": "vlasov", '
            '"n_cells": 16, "n_steps": 2, "vth": 0.03, "extra": {"n_v": 24}}}\n'
            '{"api_version": "v1", "id": "v-b", "config": {"solver": "vlasov", '
            '"n_cells": 16, "n_steps": 2, "vth": 0.05, '
            '"scenario": "landau_damping", "extra": {"n_v": 24}}}\n'
        )
        store = tmp_path / "store"
        manifest_path = tmp_path / "manifest.json"
        code = main([
            "serve", "--requests", str(path), "--store", str(store),
            "--manifest", str(manifest_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "vlasov" in out
        assert "1 engine batches" in out  # both coalesced into one engine
        manifest = json.loads(manifest_path.read_text())
        entries = {e["id"]: e for e in manifest["requests"]}
        for rid in ("v-a", "v-b"):
            assert entries[rid]["key"].startswith("vlasov-")
            assert (store / entries[rid]["file"]).exists()

    def test_dl_requests_require_model_dir(self, capsys, tmp_path):
        path = tmp_path / "requests.jsonl"
        path.write_text('{"api_version": "v1", "config": {"n_cells": 16, '
                        '"particles_per_cell": 10, "n_steps": 1, '
                        '"solver": "dl"}}\n')
        code = main(["serve", "--requests", str(path)])
        assert code == 2
        assert "--model-dir" in capsys.readouterr().err

    def test_stdin_stream(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr(
            "sys.stdin",
            io.StringIO('{"api_version": "v1", "config": {"n_cells": 16, '
                        '"particles_per_cell": 10, "n_steps": 2, '
                        '"vth": 0.01}}\n'),
        )
        code = main(["serve"])
        assert code == 0
        assert "served 1 requests" in capsys.readouterr().out

    def test_drain_rows_report_wall_clock(self, capsys, tmp_path):
        path = self._write_requests(tmp_path, [("two_stream", 0, "timed")])
        assert main(["serve", "--requests", str(path)]) == 0
        out = capsys.readouterr().out
        header, row = None, None
        for line in out.splitlines():
            if line.lstrip().startswith("id ") and "wall ms" in line:
                header = line
            if "timed" in line:
                row = line
        assert header is not None and row is not None
        # the wall-clock column holds a parseable millisecond figure
        assert float(row.split()[-1]) >= 0.0


class TestServeListenParsing:
    def test_listen_address_split(self):
        from repro.cli import _parse_listen_address

        assert _parse_listen_address("127.0.0.1:8787") == ("127.0.0.1", 8787)
        assert _parse_listen_address("0.0.0.0:0") == ("0.0.0.0", 0)
        for bad in ("8787", ":8787", "host:", "host:http", "host:70000"):
            with pytest.raises(ValueError, match="--listen"):
                _parse_listen_address(bad)

    def test_bad_listen_address_reports_cleanly(self, capsys):
        assert main(["serve", "--listen", "nocolon"]) == 2
        assert "--listen takes HOST:PORT" in capsys.readouterr().err
        assert main(["serve", "--listen", "127.0.0.1:port"]) == 2
        assert "integer" in capsys.readouterr().err

    def test_listen_defaults_parsed(self):
        args = build_parser().parse_args(
            ["serve", "--listen", "127.0.0.1:0", "--max-pending", "32",
             "--request-timeout", "1.5", "--max-connections", "64"])
        assert args.listen == "127.0.0.1:0"
        assert args.max_pending == 32
        assert args.request_timeout == 1.5
        assert args.max_connections == 64
        drain = build_parser().parse_args(["serve"])
        assert drain.listen is None
        assert drain.max_pending == 256
        assert drain.request_timeout is None
        assert drain.max_connections == 128


class TestCampaignCommand:
    def test_run_then_status_then_resume(self, capsys, tmp_path):
        campaign_dir = tmp_path / "camp"
        argv = ["campaign", "run", "--preset", "fast", "--dir",
                str(campaign_dir), "--shard-size", "2"]
        assert main(argv) == 0
        text = capsys.readouterr().out
        assert "[executed]" in text
        assert (campaign_dir / "manifest.json").exists()
        assert sorted(p.name for p in campaign_dir.glob("shard-*.npz")) == [
            "shard-00000.npz", "shard-00001.npz",
        ]

        assert main(["campaign", "status", "--preset", "fast", "--dir",
                     str(campaign_dir), "--shard-size", "2"]) == 0
        assert "2/2 shards intact" in capsys.readouterr().out

        assert main(["campaign", "resume", "--preset", "fast", "--dir",
                     str(campaign_dir), "--shard-size", "2"]) == 0
        text = capsys.readouterr().out
        assert "[verified]" in text
        assert "0 runs executed" in text

    def test_export_matches_dataset_command(self, capsys, tmp_path):
        """The streamed export equals the in-memory campaign harvest."""
        export = tmp_path / "campaign.npz"
        assert main(["campaign", "run", "--preset", "fast", "--dir",
                     str(tmp_path / "camp"), "--export", str(export)]) == 0
        from repro.datagen import fast_campaign, run_campaign
        from repro.datagen.dataset import FieldDataset

        a, b = FieldDataset.load(export), run_campaign(fast_campaign())
        assert np.array_equal(a.inputs, b.inputs)
        assert np.array_equal(a.targets, b.targets)
        assert np.array_equal(a.params, b.params)

    def test_mismatched_campaign_reports_cleanly(self, capsys, tmp_path):
        campaign_dir = tmp_path / "camp"
        assert main(["campaign", "run", "--preset", "fast", "--dir",
                     str(campaign_dir), "--shard-size", "2"]) == 0
        capsys.readouterr()
        code = main(["campaign", "run", "--preset", "fast", "--dir",
                     str(campaign_dir), "--shard-size", "3"])
        assert code == 2
        assert "different campaign" in capsys.readouterr().err


class TestModelsCommand:
    def _register(self, tmp_path):
        from repro.config import SimulationConfig
        from repro.dlpic import DLFieldSolver
        from repro.models.architectures import build_mlp
        from repro.phasespace.binning import PhaseSpaceGrid
        from repro.phasespace.normalization import MinMaxNormalizer
        from repro.registry import ModelRegistry

        config = SimulationConfig(n_cells=32)
        grid = PhaseSpaceGrid(n_x=16, n_v=8, box_length=config.box_length)
        model = build_mlp(input_size=grid.size, output_size=32, hidden_size=8, rng=0)
        solver = DLFieldSolver(
            model, grid, MinMaxNormalizer.from_dict({"minimum": 0.0, "maximum": 50.0})
        )
        root = tmp_path / "registry"
        return root, ModelRegistry(root).register(solver).fingerprint

    def test_list_show_verify(self, capsys, tmp_path):
        root, fingerprint = self._register(tmp_path)
        assert main(["models", "list", "--registry", str(root)]) == 0
        text = capsys.readouterr().out
        assert fingerprint[:16] in text
        assert "registry:" in text

        assert main(["models", "show", fingerprint[:8],
                     "--registry", str(root)]) == 0
        shown = json.loads(capsys.readouterr().out)
        assert shown["fingerprint"] == fingerprint

        assert main(["models", "verify", "--registry", str(root)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_verify_flags_corruption_and_gc_collects(self, capsys, tmp_path):
        root, fingerprint = self._register(tmp_path)
        weights = root / "models" / fingerprint / "model.npz"
        weights.write_bytes(weights.read_bytes()[:-20])
        assert main(["models", "verify", "--registry", str(root)]) == 1
        assert "CORRUPT" in capsys.readouterr().out
        assert main(["models", "gc", "--registry", str(root)]) == 0
        assert "collected 1" in capsys.readouterr().out
        assert main(["models", "list", "--registry", str(root)]) == 0
        assert "no models registered" in capsys.readouterr().out

    def test_empty_registry_and_missing_ref_report_cleanly(self, capsys, tmp_path):
        root = tmp_path / "registry"
        assert main(["models", "list", "--registry", str(root)]) == 0
        assert "no models registered" in capsys.readouterr().out
        assert main(["models", "show", "--registry", str(root)]) == 2
        assert "needs a fingerprint prefix" in capsys.readouterr().err
        assert main(["models", "show", "abcd", "--registry", str(root)]) == 2
        assert "no model" in capsys.readouterr().err


class TestTrainAndReproduce:
    @pytest.fixture(scope="class")
    def cache(self, tmp_path_factory):
        return str(tmp_path_factory.mktemp("cli-cache"))

    def test_train_fast(self, capsys, cache):
        code = main(["train", "--preset", "fast", "--no-cnn", "--cache", cache])
        assert code == 0
        assert "TABLE I" in capsys.readouterr().out

    def test_reproduce_fig4_from_cache(self, capsys, cache, tmp_path):
        out = tmp_path / "fig4.json"
        code = main([
            "reproduce", "fig4", "--preset", "fast", "--cache", cache,
            "--out", str(out),
        ])
        assert code == 0
        assert "gamma" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert payload["gamma_theory"] == pytest.approx(0.3536, rel=1e-3)

    def test_reproduce_table1_from_cache(self, capsys, cache):
        code = main(["reproduce", "table1", "--preset", "fast", "--cache", cache])
        assert code == 0
        assert "Mean Absolute Error" in capsys.readouterr().out


class TestTraceCommand:
    REQUEST = ('{"api_version": "v1", "config": {"scenario": "two_stream", '
               '"n_cells": 16, "particles_per_cell": 10, "n_steps": 3, '
               '"vth": 0.01, "seed": %d}, "id": "%s"}')

    def _traced_manifest(self, tmp_path):
        path = tmp_path / "requests.jsonl"
        path.write_text("\n".join(
            self.REQUEST % (seed, rid)
            for seed, rid in [(0, "a"), (1, "b")]
        ) + "\n")
        manifest = tmp_path / "manifest.json"
        assert main(["serve", "--requests", str(path), "--trace",
                     "--manifest", str(manifest)]) == 0
        return manifest

    def test_drain_manifest_records_traces(self, capsys, tmp_path):
        manifest_path = self._traced_manifest(tmp_path)
        capsys.readouterr()
        manifest = json.loads(manifest_path.read_text())
        assert len(manifest["traces"]) == 2
        for trace in manifest["traces"]:
            assert trace["complete"] is True
            assert trace["n_spans"] >= 1
        # Every request's timings name a recorded trace.
        recorded = {t["trace_id"] for t in manifest["traces"]}
        for entry in manifest["requests"]:
            assert entry["timings"]["trace_id"] in recorded

    def test_renders_waterfall_from_manifest(self, capsys, tmp_path):
        manifest_path = self._traced_manifest(tmp_path)
        capsys.readouterr()
        assert main(["trace", "--manifest", str(manifest_path)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("trace ")
        assert "client.request" in out
        assert "engine.steps" in out
        # A specific id renders too, and --json emits the raw payload.
        manifest = json.loads(manifest_path.read_text())
        trace_id = manifest["traces"][0]["trace_id"]
        assert main(["trace", trace_id, "--manifest", str(manifest_path)]) == 0
        assert trace_id in capsys.readouterr().out
        assert main(["trace", trace_id, "--json",
                     "--manifest", str(manifest_path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["trace_id"] == trace_id

    def test_unknown_trace_id_reports_cleanly(self, capsys, tmp_path):
        manifest_path = self._traced_manifest(tmp_path)
        capsys.readouterr()
        assert main(["trace", "nope", "--manifest", str(manifest_path)]) == 2
        assert "not in the manifest" in capsys.readouterr().err

    def test_untraced_manifest_reports_cleanly(self, capsys, tmp_path):
        manifest = tmp_path / "plain.json"
        manifest.write_text(json.dumps({"api_version": "v1", "requests": []}))
        assert main(["trace", "--manifest", str(manifest)]) == 2
        assert "no traces" in capsys.readouterr().err

    def test_url_and_manifest_are_exclusive(self, capsys, tmp_path):
        assert main(["trace", "--manifest", "x.json",
                     "--url", "http://127.0.0.1:1"]) == 2
        assert "not both" in capsys.readouterr().err

    def test_unreachable_server_reports_cleanly(self, capsys):
        import socket
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            free_port = probe.getsockname()[1]
        assert main(["trace", "--url", f"http://127.0.0.1:{free_port}"]) == 2
        assert "cannot fetch" in capsys.readouterr().err
