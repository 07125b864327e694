"""CLI smoke tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import main
from repro.matrices import generate, save_matrix, save_matrix_market
from tests.conftest import random_coo


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestCLI:
    def test_machines(self, capsys):
        code, out = run(capsys, "machines")
        assert code == 0
        for name in ["AMD X2", "Clovertown", "Niagara", "Cell Blade"]:
            assert name in out

    def test_suite(self, capsys):
        code, out = run(capsys, "suite", "--scale", "0.01")
        assert code == 0
        assert "Webbase" in out and "LP" in out

    def test_tune_suite_matrix(self, capsys):
        code, out = run(capsys, "tune", "Econom", "--scale", "0.02",
                        "--machine", "Clovertown", "--threads", "2")
        assert code == 0
        assert "simulated" in out and "Gflop/s" in out

    def test_tune_mtx_file(self, capsys, tmp_path):
        coo = random_coo(60, 60, 0.1, seed=1)
        path = tmp_path / "m.mtx"
        save_matrix_market(path, coo)
        code, out = run(capsys, "tune", str(path), "--threads", "1")
        assert code == 0
        assert "60x60" in out

    def test_sweep(self, capsys):
        code, out = run(capsys, "sweep", "QCD", "--scale", "0.02",
                        "--machine", "AMD X2")
        assert code == 0
        assert "1 Core - Naive" in out and "Dual Socket x 2 Core[*]" in out

    def test_sweep_prints_the_figure_bars(self, capsys):
        """Regression: the sweep placed its 2-thread point with the
        full-system NUMA policy across both sockets (5.104 Gflop/s)
        where Figure 1's socket bar packs both threads onto one
        (3.41)."""
        from repro.core import Role, SpmvEngine, role_point
        from repro.machines import get_machine

        code, out = run(capsys, "sweep", "FEM-Cant", "--scale", "0.1",
                        "--machine", "AMD X2")
        assert code == 0
        printed = {}
        for line in out.splitlines()[1:]:
            label, _, bar = line.partition(" | ")
            printed[label.strip()] = bar.split()[-2]
        machine = get_machine("AMD X2")
        lib = SpmvEngine(machine).simulate_ladder(
            generate("FEM-Cant", scale=0.1, seed=0)
        )
        assert printed == {k: f"{r.gflops:.3f}" for k, r in lib.items()}
        socket = role_point(machine, Role.SOCKET).label
        assert printed[socket] == "3.410"

    def test_compare(self, capsys):
        code, out = run(capsys, "compare", "Epidem", "--scale", "0.02")
        assert code == 0
        assert "Cell Blade" in out

    def test_info(self, capsys, tmp_path):
        coo = random_coo(30, 40, 0.1, seed=2)
        path = tmp_path / "m.npz"
        save_matrix(path, coo)
        code, out = run(capsys, "info", str(path))
        assert code == 0
        assert "30 x 40" in out

    def test_validate(self, capsys):
        code, out = run(capsys, "validate", "--scale", "0.01")
        assert code == 0
        assert "model/exact" in out

    def test_validate_rejects_cell(self, capsys):
        code = main(["validate", "--machine", "Cell (PS3)",
                     "--scale", "0.01"])
        assert code == 1

    def test_figures_from_cache(self, capsys, tmp_path):
        import json

        path = tmp_path / "PAPER.json"
        path.write_text(json.dumps({"scale": 0.02, "figure1": {
            "AMD X2": {"MatX": {"naive": 0.5, "full": 2.0}},
            "Niagara": {"MatY": {"naive": 0.1}},
        }}))
        code, out = run(capsys, "figures", str(path),
                        "--machine", "AMD X2")
        assert code == 0
        assert "MatX" in out and "median" in out and "MatY" not in out

    def test_figures_from_stamped_envelope(self, capsys):
        """The committed snapshot is the command's default input: it
        renders the machine's panel of ``snapshot["figure1"]``, not the
        envelope's other sections."""
        import json
        from pathlib import Path

        root = Path(__file__).parent.parent
        snapshot = root / "benchmarks" / "snapshots" / "PAPER.json"
        code, out = run(capsys, "figures", str(snapshot),
                        "--machine", "Cell Blade")
        assert code == 0
        panel = json.loads(snapshot.read_text())["figure1"]["Cell Blade"]
        assert "Figure 1 — Cell Blade" in out
        assert all(name in out for name in panel)
        assert "claims" not in out and "OSKI" not in out

    def test_figures_missing_cache(self, tmp_path, capsys):
        code = main(["figures", str(tmp_path / "nope.json")])
        assert code == 1
        assert "benchmarks/paper.py" in capsys.readouterr().err

    def test_stats(self, capsys):
        code, out = run(capsys, "stats", "dense2", "--scale", "0.05",
                        "--machine", "AMD X2")
        assert code == 0
        assert "bottleneck attribution" in out
        assert "mem%" in out and "comp%" in out and "lat%" in out
        assert "plan.blocks_created" in out

    def test_sweep_trace_writes_jsonl(self, capsys, tmp_path):
        from repro.observe.trace import get_span_sink, read_trace

        sink = get_span_sink()
        path = tmp_path / "t.jsonl"
        code, _ = run(capsys, "sweep", "dense2", "--scale", "0.05",
                      "--machine", "AMD X2", "--trace", str(path))
        assert code == 0
        events = read_trace(path)
        assert events, "trace file is empty"
        names = {e.name for e in events}
        assert "engine.plan" in names and "sim.memory" in names
        # The CLI puts the span sink back when the command exits.
        assert get_span_sink() is sink

    def test_trace_file_is_one_tree(self, capsys, tmp_path):
        from repro.observe.trace import read_trace

        path = tmp_path / "t.jsonl"
        code, _ = run(capsys, "--trace", str(path), "sweep", "dense2",
                      "--scale", "0.05", "--machine", "AMD X2")
        assert code == 0
        events = read_trace(path)
        assert len({e.trace_id for e in events}) == 1
        ids = {e.span_id for e in events}
        assert len(ids) == len(events)
        orphans = [e for e in events if e.parent_id not in ids]
        assert [e.name for e in orphans] == ["repro.sweep"]

    def test_trace_flag_before_subcommand(self, capsys, tmp_path):
        from repro.observe.trace import read_trace

        path = tmp_path / "pre.jsonl"
        code, _ = run(capsys, "--trace", str(path), "tune", "Dense",
                      "--scale", "0.02", "--threads", "1")
        assert code == 0
        assert {e.name for e in read_trace(path)} >= {"engine.plan"}

    def test_trace_chrome_export(self, capsys, tmp_path):
        import json

        path = tmp_path / "chrome.json"
        code, _ = run(capsys, "stats", "Dense", "--scale", "0.02",
                      "--trace-chrome", str(path))
        assert code == 0
        doc = json.loads(path.read_text())
        assert doc["traceEvents"]
        assert all(e["ph"] == "X" for e in doc["traceEvents"])

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

    def test_version_has_one_source(self):
        """pyproject.toml reads the package version from
        ``repro.__version__`` instead of repeating it."""
        from pathlib import Path

        tomllib = pytest.importorskip("tomllib")
        doc = tomllib.loads(
            (Path(__file__).parent.parent / "pyproject.toml").read_text()
        )
        assert "version" not in doc["project"]
        assert doc["project"]["dynamic"] == ["version"]
        assert doc["tool"]["setuptools"]["dynamic"]["version"] == {
            "attr": "repro.__version__"}

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestServeCLI:
    def test_tune_gzipped_mtx(self, capsys, tmp_path):
        coo = random_coo(60, 60, 0.1, seed=11)
        path = tmp_path / "m.mtx.gz"
        save_matrix_market(path, coo)
        code, out = run(capsys, "tune", str(path), "--threads", "1")
        assert code == 0
        assert "simulated" in out

    def test_plan_cache_inspect_empty(self, capsys, tmp_path):
        code, out = run(capsys, "plan-cache", "inspect",
                        "--dir", str(tmp_path / "none"))
        assert code == 0
        assert "no cached plans" in out

    def test_plan_cache_inspect_and_clear(self, capsys, tmp_path):
        from repro.machines import get_machine
        from repro.serve import MatrixRegistry, PlanCache

        cache_dir = tmp_path / "plans"
        reg = MatrixRegistry(get_machine("AMD X2"), n_threads=1,
                             plan_cache=PlanCache(cache_dir))
        reg.register(random_coo(80, 80, 0.05, seed=12))

        code, out = run(capsys, "plan-cache", "inspect",
                        "--dir", str(cache_dir))
        assert code == 0
        assert "AMD X2" in out and "yes" in out

        code, out = run(capsys, "plan-cache", "clear",
                        "--dir", str(cache_dir))
        assert code == 0
        assert "removed 1" in out

        code, out = run(capsys, "plan-cache", "inspect",
                        "--dir", str(cache_dir))
        assert "no cached plans" in out

    def test_serve_in_help(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "serve" in out and "plan-cache" in out


def _subparsers(parser):
    """name -> subparser of an argparse parser with subcommands."""
    import argparse

    action = next(a for a in parser._actions
                  if isinstance(a, argparse._SubParsersAction))
    return action.choices


class TestOneServerCommand:
    """``repro cluster node`` is ``repro serve`` under another port
    default: one flag declaration, one handler."""

    @staticmethod
    def _flags(sp):
        return {
            a.option_strings[0]: (tuple(a.option_strings), a.default,
                                  a.type, a.choices, a.nargs)
            for a in sp._actions if a.option_strings
        }

    def test_same_option_strings_apart_from_port_default(self):
        from repro.cli import build_parser

        subs = _subparsers(build_parser())
        serve, cluster = self._flags(subs["serve"]), \
            self._flags(subs["cluster"])
        # `cluster` also carries the router's flags; everything `serve`
        # accepts it accepts identically, except where --port starts.
        assert set(serve) <= set(cluster)
        assert serve.pop("--port")[1] == 8377
        assert cluster["--port"][1] == 0
        assert all(cluster[flag] == spec for flag, spec in serve.items())

    def test_same_handler(self, monkeypatch):
        from repro import cli

        assert cli._COMMANDS["serve"] is cli._cmd_serve
        seen = []
        monkeypatch.setattr(cli, "_cmd_serve",
                            lambda args: seen.append(vars(args)) or 0)
        shared = ["--threads", "1", "--capacity-mb", "64",
                  "--flush-deadline-ms", "1.5", "--workers", "2",
                  "--plan-mode", "tune", "--perf-watch",
                  "--profile-dir", "p"]
        assert main(["cluster", "node", *shared]) == 0
        (node,) = seen      # `cluster node` went through _cmd_serve
        served = vars(cli.build_parser().parse_args(["serve", *shared]))
        assert served.pop("port") == 8377 and node.pop("port") == 0
        assert served.pop("command") == "serve"
        assert node.pop("command") == "cluster"
        assert served["flush_deadline_ms"] == 1.5 and served["workers"] == 2
        # every value _cmd_serve reads arrives the same either way
        assert served == {k: node[k] for k in served}

    def test_cluster_bench_is_an_invalid_choice(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["cluster", "bench"])
        assert exc.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["predict", "bogus"])
    def test_plan_mode_choices(self, mode):
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--plan-mode", mode])
        assert exc.value.code == 2


class TestDocsNameTheCLI:
    def test_design_cli_row_lists_every_subcommand(self):
        """DESIGN.md's CLI row is the subcommand set, no more, no
        less (it listed a deleted command and missed a live one)."""
        import os
        import re

        from repro.cli import build_parser

        design = os.path.join(os.path.dirname(__file__), "..",
                              "DESIGN.md")
        with open(design) as fh:
            row = next(ln for ln in fh if ln.startswith("| CLI |"))
        listed = re.search(r"python -m repro \{([^}]*)\}", row).group(1)
        assert sorted(listed.split(",")) == \
            sorted(_subparsers(build_parser()))


class TestFetchCommands:
    """``repro trace`` / ``repro perf report`` fetch through the
    cluster client's ``http_fetch``; exit codes and stderr text are
    what they were with their own urlopen blocks."""

    @pytest.fixture
    def server(self):
        from repro.serve import ServeClient, start_server, stop_server

        client = ServeClient("AMD X2", n_threads=1)
        httpd = start_server(client)
        yield f"http://{httpd.address}"
        stop_server(httpd)
        client.close()

    @pytest.fixture
    def dead_url(self):
        import socket

        with socket.socket() as s:      # bound, never listening
            s.bind(("127.0.0.1", 0))
            yield f"http://127.0.0.1:{s.getsockname()[1]}"

    def test_trace_unknown_id(self, server, capsys):
        assert main(["trace", "feedbeef", "--url", server]) == 1
        err = capsys.readouterr().err
        assert err.startswith("server answered 404: {")
        assert "feedbeef" in err

    def test_trace_unreachable(self, dead_url, capsys):
        assert main(["trace", "abc", "--url", dead_url + "/"]) == 1
        assert capsys.readouterr().err.startswith(
            f"cannot reach {dead_url}/v1/debug/trace/abc: <urlopen error")

    def test_trace_needs_an_id(self, capsys):
        assert main(["trace"]) == 2

    def test_trace_slow_and_perf_report(self, server, capsys):
        code, out = run(capsys, "trace", "--slow", "--url", server)
        assert code == 0 and "no slow requests" in out
        code, out = run(capsys, "perf", "report", "--url", server)
        assert code == 0 and "perf_watch: False" in out

    def test_perf_report_unreachable(self, dead_url, capsys):
        assert main(["perf", "report", "--url", dead_url]) == 1
        assert capsys.readouterr().err.startswith(
            f"error: cannot fetch {dead_url}/v1/debug/perf: "
            f"<urlopen error")

    def test_perf_report_http_error(self, server, capsys):
        assert main(["perf", "report",
                     "--url", server + "/no-such-prefix"]) == 1
        assert capsys.readouterr().err.startswith(
            f"error: cannot fetch {server}/no-such-prefix/v1/debug/perf"
            f": HTTP Error 404")


class TestAutoplanCLI:
    def _seed_plan_cache(self, root, n_per_class=6):
        """Tuned envelopes over two well-separated feature clusters."""
        from repro.autoplan.features import FEATURE_VERSION
        from repro.core import SpmvEngine
        from repro.machines import get_machine
        from repro.serve import PlanCache

        rng = np.random.default_rng(0)
        cache = PlanCache(root)
        plan = SpmvEngine(get_machine("AMD X2")).plan(
            random_coo(40, 40, 0.1, seed=20), n_threads=1)
        for label, center in [("csr", 0.0), ("bcsr-2x2", 10.0)]:
            for i in range(n_per_class):
                cache.store(f"{label}{i}", plan, autoplan={
                    "source": "sweep", "label": label,
                    "fmt": f"{label}-x-16bit", "weight": 1.2,
                    "features": [float(center + rng.normal(scale=0.3))
                                 for _ in range(3)],
                    "feature_version": FEATURE_VERSION,
                })
        return cache

    def test_train_empty_corpus_fails(self, capsys, tmp_path):
        code = main(["autoplan", "train", "--dir", str(tmp_path)])
        assert code == 1

    def test_train_missing_paths_usage_error(self, capsys):
        code = main(["autoplan", "train"])
        assert code == 2

    def test_train_then_report(self, capsys, tmp_path):
        import json

        self._seed_plan_cache(tmp_path)
        code, out = run(capsys, "autoplan", "train",
                        "--dir", str(tmp_path))
        assert code == 0
        assert "trained on 12 sample(s)" in out
        assert (tmp_path / "autoplan_model.json").exists()

        code, out = run(capsys, "autoplan", "report",
                        "--dir", str(tmp_path), "--json")
        assert code == 0
        report = json.loads(out)
        assert report["n_samples"] == 12
        assert report["top1_label_accuracy"] is not None

    def test_predict_suite_matrix(self, capsys, tmp_path):
        # model trained on real features so the suite matrix is
        # in-distribution enough to produce a prediction line
        from repro.autoplan import AutoPlanner, TrainingSample, train_model
        from repro.autoplan.features import extract_features
        from repro.matrices import generate

        samples = [TrainingSample(
            features=tuple(extract_features(
                generate("FEM-Har", scale=0.02, seed=seed)).to_list()),
            label="bcsr-2x2", fmt="bcsr-2x2-16bit", weight=1.1,
        ) for seed in range(4)]
        train_model(samples, k=3).save(AutoPlanner(tmp_path).model_path)

        code, out = run(capsys, "autoplan", "predict", "FEM-Har",
                        "--dir", str(tmp_path), "--scale", "0.02")
        assert code == 0
        assert "prediction : bcsr-2x2" in out
        assert "plan       :" in out

    def test_predict_without_model_fails(self, capsys, tmp_path):
        code = main(["autoplan", "predict", "FEM-Har",
                     "--dir", str(tmp_path), "--scale", "0.02"])
        assert code == 1

    def test_plan_cache_clear_drops_training_data(self, capsys, tmp_path):
        self._seed_plan_cache(tmp_path)
        code, out = run(capsys, "plan-cache", "clear",
                        "--dir", str(tmp_path))
        assert code == 0 and "removed 12" in out
        assert main(["autoplan", "train", "--dir", str(tmp_path)]) == 1

    def test_serve_auto_without_plan_cache_is_usage_error(self, capsys):
        code = main(["serve", "--plan-mode", "auto", "--port", "0"])
        assert code == 2
        assert "plan_cache_dir" in capsys.readouterr().err
