"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestList:
    def test_lists_registry(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for exp_id in ("F1", "P4", "T1", "X1", "X2"):
            assert exp_id in out


class TestExperiment:
    def test_runs_known_experiment(self, capsys):
        assert main(["experiment", "F1"]) == 0
        assert "Figure 1" in capsys.readouterr().out

    def test_unknown_experiment_fails(self, capsys):
        assert main(["experiment", "ZZ"]) == 2
        assert "unknown experiment" in capsys.readouterr().err


class TestSimulate:
    def test_clean_run(self, capsys):
        code = main(
            ["simulate", "--topology", "line", "--n", "5",
             "--messages", "5", "--seed", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "delivered=5" in out
        assert "exactly once" in out

    def test_corrupted_run(self, capsys):
        code = main(
            ["simulate", "--topology", "ring", "--n", "6", "--messages", "6",
             "--corrupt", "worst", "--garbage", "0.5", "--seed", "2"]
        )
        assert code == 0
        assert "invalid_delivered=" in capsys.readouterr().out

    def test_watch_prints_component(self, capsys):
        code = main(
            ["simulate", "--topology", "line", "--n", "4", "--messages", "4",
             "--seed", "3", "--watch", "0", "--daemon", "round-robin"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "component:" in out

    def test_hotspot_workload(self, capsys):
        code = main(
            ["simulate", "--topology", "star", "--n", "5",
             "--workload", "hotspot", "--messages", "8", "--seed", "4"]
        )
        assert code == 0

    @pytest.mark.parametrize("daemon", ["synchronous", "central", "distributed"])
    def test_all_daemons(self, daemon, capsys):
        assert main(
            ["simulate", "--topology", "ring", "--n", "5", "--messages", "4",
             "--daemon", daemon, "--seed", "5"]
        ) == 0

    def test_grid_topology_args(self, capsys):
        assert main(
            ["simulate", "--topology", "grid", "--rows", "2", "--cols", "3",
             "--messages", "5", "--seed", "6"]
        ) == 0


class TestVerifyExhaustive:
    BASE = ["verify", "--topology", "line", "--n", "3", "--messages", "2"]

    def test_clean_instance_verifies(self, capsys):
        assert main(self.BASE) == 0
        out = capsys.readouterr().out
        assert "safety: states=" in out
        assert "verified: the instance is exhaustively safe" in out

    def test_reduction_line_reports_group_and_skips(self, capsys):
        assert main(self.BASE + ["--reduction", "full"]) == 0
        out = capsys.readouterr().out
        assert "reduction: full" in out
        assert "group=" in out

    def test_liveness_flag_reports_sccs(self, capsys):
        assert main(self.BASE + ["--liveness"]) == 0
        out = capsys.readouterr().out
        assert "liveness: states=" in out
        assert "livelocks=0" in out

    def test_truncated_search_exits_2(self, capsys):
        assert main(self.BASE + ["--max-states", "5"]) == 2
        err = capsys.readouterr().err
        assert "truncated" in err

    def test_rejected_configuration_exits_2(self, capsys):
        code = main(self.BASE + ["--engine", "deepcopy", "--reduction", "por"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_log_every_streams_progress(self, capsys):
        assert main(self.BASE + ["--log-every", "20"]) == 0
        err = capsys.readouterr().err
        assert "states=" in err and "rate=" in err

    def test_parallel_engine_jsonl_artifact(self, tmp_path, capsys):
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("parallel engine requires fork")
        from repro.obs import read_artifact

        path = tmp_path / "verify.jsonl"
        code = main(
            self.BASE
            + ["--engine", "parallel", "--workers", "2",
               "--jsonl", str(path)]
        )
        assert code == 0
        capsys.readouterr()
        art = read_artifact(path)
        assert art.name == "verify"
        assert art.meta["engine"] == "parallel"
        metrics = {r["metric"] for r in art.rows_of_kind("metric")}
        assert "verify_states_total" in metrics
        assert "verify_dedup_ratio" in metrics


class TestObservability:
    def _simulate_artifact(self, path, capsys):
        code = main(
            ["simulate", "--topology", "ring", "--n", "5", "--messages", "4",
             "--seed", "7", "--jsonl", str(path)]
        )
        assert code == 0
        capsys.readouterr()
        return path

    def test_simulate_jsonl_artifact(self, tmp_path, capsys):
        from repro.obs import read_artifact

        path = self._simulate_artifact(tmp_path / "sim.jsonl", capsys)
        art = read_artifact(path)
        kinds = art.kinds()
        assert kinds["metric"] > 0
        assert kinds["trace_event"] > 0
        assert art.meta["topology"] == "ring"

    def test_simulate_timeline_printed(self, capsys):
        code = main(
            ["simulate", "--topology", "ring", "--n", "5", "--messages", "4",
             "--seed", "7", "--timeline", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "uid 1" in out
        assert "generated" in out and "delivered" in out

    def test_experiment_jsonl_artifact(self, tmp_path, capsys):
        from repro.obs import read_artifact

        path = tmp_path / "p4.jsonl"
        assert main(["experiment", "P4", "--jsonl", str(path)]) == 0
        capsys.readouterr()
        art = read_artifact(path)
        assert art.name == "P4"
        assert art.rows_of_kind("table_row")

    def test_obs_summarize(self, tmp_path, capsys):
        path = self._simulate_artifact(tmp_path / "sim.jsonl", capsys)
        assert main(["obs", "summarize", str(path)]) == 0
        out = capsys.readouterr().out
        assert "metric" in out and "trace_event" in out

    def test_obs_diff_identical(self, tmp_path, capsys):
        path = self._simulate_artifact(tmp_path / "sim.jsonl", capsys)
        assert main(["obs", "diff", str(path), str(path)]) == 0
        assert "0 numeric differences" in capsys.readouterr().out

    def test_obs_rejects_invalid_artifact(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"no": "schema"}\n')
        assert main(["obs", "summarize", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_obs_missing_file(self, tmp_path, capsys):
        assert main(["obs", "summarize", str(tmp_path / "nope.jsonl")]) == 2

    def test_sweep_jsonl(self, tmp_path, capsys):
        import json

        from repro.obs import read_artifact

        specs = tmp_path / "specs.json"
        specs.write_text(json.dumps([
            {
                "label": "tiny",
                "topology": {"name": "ring", "kwargs": {"n": 4}},
                "workload": {"name": "uniform", "kwargs": {"count": 3, "seed": 1}},
                "seed": 1,
            },
        ]))
        out_path = tmp_path / "sweep.jsonl"
        assert main(
            ["sweep", str(specs), "--jsonl", str(out_path)]
        ) == 0
        capsys.readouterr()
        art = read_artifact(out_path)
        rows = art.rows_of_kind("sweep_row")
        assert len(rows) == 1
        assert rows[0]["label"] == "tiny"


class TestReadableErrors:
    """Every front door answers a bad input with ``error: ...`` and exit 2,
    never a traceback."""

    @staticmethod
    def _assert_readable(code, capsys, needle):
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:"), err
        assert needle in err
        assert "Traceback" not in err

    @staticmethod
    def _spec(**extra):
        spec = {"topology": {"name": "ring", "kwargs": {"n": 4}}}
        spec.update(extra)
        return spec

    def test_sweep_missing_file(self, tmp_path, capsys):
        code = main(["sweep", str(tmp_path / "nonexistent.json")])
        self._assert_readable(code, capsys, "cannot read specs")

    def test_sweep_non_json_file(self, tmp_path, capsys):
        path = tmp_path / "specs.json"
        path.write_text("not json at all")
        code = main(["sweep", str(path)])
        self._assert_readable(code, capsys, "not valid JSON")

    def test_sweep_unknown_spec_key(self, tmp_path, capsys):
        import json

        path = tmp_path / "specs.json"
        path.write_text(json.dumps([self._spec(bogus=1)]))
        code = main(["sweep", str(path)])
        self._assert_readable(code, capsys, "unknown key(s) ['bogus']")

    def test_sweep_unknown_spec_key_in_worker(self, tmp_path, capsys):
        import json

        path = tmp_path / "specs.json"
        path.write_text(json.dumps({"specs": [self._spec(), self._spec(bogus=1)]}))
        code = main(["sweep", str(path), "--workers", "2"])
        self._assert_readable(code, capsys, "unknown key(s) ['bogus']")

    def test_simulate_bad_topology(self, capsys):
        code = main(["simulate", "--topology", "ring", "--n", "2"])
        self._assert_readable(code, capsys, "at least 3 processors")

    def test_runtime_bad_topology(self, capsys):
        code = main(["runtime", "--topology", "ring", "--n", "1"])
        self._assert_readable(code, capsys, "at least 3 processors")

    def test_verify_bad_topology(self, capsys):
        code = main(["verify", "--topology", "ring", "--n", "2"])
        self._assert_readable(code, capsys, "at least 3 processors")

    def test_record_wrongly_typed_workload_kwargs(self, tmp_path, capsys):
        import json

        path = tmp_path / "spec.json"
        path.write_text(json.dumps(self._spec(
            workload={"name": "uniform", "kwargs": {"count": "many"}}
        )))
        code = main(["record", str(path), "-o", str(tmp_path / "rec.json")])
        self._assert_readable(code, capsys, "bad workload kwargs for 'uniform'")

    @pytest.mark.parametrize("fraction", ["1.5", "-0.5"])
    def test_simulate_garbage_fraction_out_of_range(self, fraction, capsys):
        code = main(["simulate", "--n", "4", "--garbage", fraction])
        self._assert_readable(code, capsys, "garbage.fraction")

    def test_record_garbage_fraction_out_of_range(self, tmp_path, capsys):
        import json

        path = tmp_path / "spec.json"
        path.write_text(json.dumps(self._spec(garbage={"fraction": 1.5})))
        code = main(["record", str(path), "-o", str(tmp_path / "rec.json")])
        self._assert_readable(code, capsys, "garbage.fraction")

    def test_scenario_sim_garbage_fraction_out_of_range(self, tmp_path, capsys):
        import json

        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "name": "bad-garbage",
            "topology": {"name": "ring", "kwargs": {"n": 4}},
            "workload": {"name": "uniform", "kwargs": {"count": 4}},
            "sim": {"garbage": {"fraction": -0.5}},
        }))
        code = main(["scenario", "run", str(path)])
        self._assert_readable(code, capsys, "garbage.fraction")


def _simulate_counts(out):
    line = next(l for l in out.splitlines() if l.startswith("steps="))
    return {k: int(v) for k, v in (kv.split("=") for kv in line.split())}


class TestFrontDoor:
    """The flag-driven commands describe the same run as a hand-written
    spec: ``simulate`` against ``record_run`` (and the counts the command
    printed before it ran through ``sim.spec``), ``runtime`` against the
    ``ClusterSpec`` it used to assemble field by field."""

    RING8 = {"name": "ring", "kwargs": {"n": 8}}

    SIMULATE = [
        (
            ["--n", "8", "--messages", "20", "--seed", "1",
             "--daemon", "synchronous"],
            {"topology": RING8, "seed": 1,
             "workload": {"name": "uniform", "kwargs": {"count": 20}},
             "daemon": {"name": "synchronous"}},
            (42, 41, 20, 20, 0),
        ),
        (
            ["--n", "8", "--messages", "20", "--seed", "2", "--daemon", "central"],
            {"topology": RING8, "seed": 2,
             "workload": {"name": "uniform", "kwargs": {"count": 20}},
             "daemon": {"name": "central"}},
            (183, 14, 20, 20, 0),
        ),
        (
            ["--n", "8", "--messages", "20", "--seed", "4",
             "--daemon", "round-robin"],
            {"topology": RING8, "seed": 4,
             "workload": {"name": "uniform", "kwargs": {"count": 20}},
             "daemon": {"name": "round_robin"}},
            (177, 37, 20, 20, 0),
        ),
        (
            ["--n", "6", "--messages", "6", "--corrupt", "worst",
             "--garbage", "0.5", "--seed", "2"],
            {"topology": {"name": "ring", "kwargs": {"n": 6}}, "seed": 2,
             "workload": {"name": "uniform", "kwargs": {"count": 6}},
             "routing": {"corruption": {"kind": "worst"}},
             "garbage": {"fraction": 0.5},
             "daemon": {"name": "distributed"}},
            (81, 25, 6, 6, 19),
        ),
        (
            ["--topology", "grid", "--rows", "3", "--cols", "3",
             "--messages", "15", "--corrupt", "random", "--seed", "5"],
            {"topology": {"name": "grid", "kwargs": {"rows": 3, "cols": 3}},
             "seed": 5,
             "workload": {"name": "uniform", "kwargs": {"count": 15}},
             "routing": {"corruption": {"kind": "random"}},
             "daemon": {"name": "distributed"}},
            (92, 24, 15, 15, 0),
        ),
        (
            ["--n", "8", "--workload", "hotspot", "--messages", "20",
             "--seed", "4", "--protocol", "ssmfp2"],
            {"topology": RING8, "seed": 4, "protocol": "ssmfp2",
             "workload": {"name": "hotspot",
                          "kwargs": {"dest": 0, "per_source": 2}},
             "daemon": {"name": "distributed"}},
            (87, 45, 14, 14, 0),
        ),
    ]

    @pytest.mark.parametrize(
        "flags,spec,expected", SIMULATE, ids=[" ".join(f) for f, _, _ in SIMULATE]
    )
    def test_simulate_matches_record_run(self, flags, spec, expected, capsys):
        from repro.sim.recording import record_run

        assert main(["simulate"] + flags) == 0
        got = _simulate_counts(capsys.readouterr().out)
        outcome = record_run(spec).outcome
        keys = ("steps", "rounds", "generated", "delivered", "invalid_delivered")
        assert tuple(got[k] for k in keys) == tuple(outcome[k] for k in keys)
        assert tuple(got[k] for k in keys) == expected

    @staticmethod
    def _cluster_spec(monkeypatch, flags):
        import repro.runtime

        seen = []

        def capture(spec):
            seen.append(spec)
            raise SystemExit(0)

        monkeypatch.setattr(repro.runtime, "run_cluster", capture)
        with pytest.raises(SystemExit):
            main(["runtime"] + flags)
        (spec,) = seen
        return spec

    @pytest.mark.parametrize(
        "flags,fields",
        [
            ([], {}),
            (["--protocol", "SSMFP", "--topology", "grid", "--rows", "2",
              "--cols", "3"],
             {"protocol": "SSMFP",
              "topology": {"name": "grid", "kwargs": {"rows": 2, "cols": 3}}}),
            (["--transport", "tcp", "--procs", "2", "--window", "4",
              "--max-batch", "8", "--deadline", "9", "--seed", "5"],
             {"transport": "tcp", "procs": 2, "window": 4, "max_batch": 8,
              "deadline": 9.0, "seed": 5}),
            (["--loss", "0.1", "--dup", "0.05", "--reorder", "0.02",
              "--latency-ms", "1:3", "--flap-period", "0.5",
              "--flap-down", "0.1"],
             {"netem": {"loss": 0.1, "dup": 0.05, "reorder": 0.02,
                        "latency": (0.001, 0.003), "flap_period": 0.5,
                        "flap_down": 0.1}}),
        ],
    )
    def test_runtime_cluster_spec_field_for_field(self, monkeypatch, flags, fields):
        from repro.runtime import ClusterSpec

        # The ClusterSpec the command assembled by hand before it ran
        # through ScenarioSpec + build_cluster_spec.
        expected = dict(
            topology=self.RING8, messages=200, seed=0, protocol="ssmfp",
            transport="local", procs=1, workload="uniform",
            netem={"loss": 0.0, "dup": 0.0, "reorder": 0.0}, deadline=60.0,
            port_base=0, window=32, max_batch=64,
        )
        expected.update(fields)
        assert self._cluster_spec(monkeypatch, flags) == ClusterSpec(**expected)

    def test_runtime_hotspot_counts_whole_batches(self, monkeypatch):
        from repro.runtime import ClusterSpec

        # --messages 200 on ring(8) is 28 messages from each of 7 sources.
        # The hand-built spec stored the request (200); the front door
        # stores the 196 messages the run generates.  Both build the same
        # submissions.
        got = self._cluster_spec(monkeypatch, ["--workload", "hotspot"])
        old = ClusterSpec(
            topology=self.RING8, messages=200, workload="hotspot",
            netem={"loss": 0.0, "dup": 0.0, "reorder": 0.0},
        )
        assert got == ClusterSpec(**{**old.__dict__, "messages": 196})
        assert got.build_submissions() == old.build_submissions()
