"""The ``python -m repro`` command-line interface."""

import json

import pytest

from repro.__main__ import build_parser, main


def test_policies_command(capsys):
    assert main(["policies"]) == 0
    out = capsys.readouterr().out
    for name in ("lru", "care", "mcare", "shippp", "hawkeye"):
        assert name in out


def test_workloads_command(capsys):
    assert main(["workloads"]) == 0
    out = capsys.readouterr().out
    assert "429.mcf" in out and "bfs-or" in out
    assert "26.28" in out      # Table VIII MPKI shown


def test_studycase_command(capsys):
    assert main(["studycase"]) == 0
    out = capsys.readouterr().out
    assert "7/3" in out
    assert "[10, 11, 12, 13, 14]" in out


def test_hwcost_command(capsys):
    assert main(["hwcost"]) == 0
    out = capsys.readouterr().out
    assert "26.64" in out and "6.76" in out


def test_run_command_spec(capsys):
    assert main(["run", "462.libquantum", "--policies", "lru", "care",
                 "--records", "1000"]) == 0
    out = capsys.readouterr().out
    assert "462.libquantum" in out
    assert "care" in out


def test_run_command_gap(capsys):
    assert main(["run", "bfs-or", "--policies", "lru",
                 "--records", "800", "--prefetch"]) == 0
    out = capsys.readouterr().out
    assert "bfs-or" in out and "prefetch=on" in out


def test_run_command_json(capsys):
    import json
    assert main(["run", "462.libquantum", "--policies", "lru",
                 "--records", "600", "--json", "--no-store"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload) == 1
    entry = payload[0]
    assert entry["spec"]["workload"] == "462.libquantum"
    assert entry["spec"]["policy"] == "lru"
    from repro.sim.stats import SimResult
    res = SimResult.from_dict(entry["result"])
    assert res.policy == "lru" and res.n_cores == 1


def test_sweep_list(capsys):
    assert main(["sweep", "--list"]) == 0
    out = capsys.readouterr().out
    assert "fig07" in out and "fig13" in out
    assert main(["sweep"]) == 0          # bare `sweep` also lists
    assert "fig07" in capsys.readouterr().out


def test_sweep_command_runs_and_reports(capsys, tmp_path):
    from repro.harness.store import (ResultStore, reset_default_store,
                                     set_default_store)
    from repro.harness.runner import clear_memo
    clear_memo()
    set_default_store(ResultStore(tmp_path))
    try:
        assert main(["sweep", "fig07", "--workloads", "1", "--records",
                     "200", "--workers", "1", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 7" in out and "429.mcf" in out
        assert "simulated" in out        # sweep stats line
        # fresh "process": memo dropped, second run is all store hits
        clear_memo()
        assert main(["sweep", "fig07", "--workloads", "1", "--records",
                     "200", "--workers", "1", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "6 store hits, 0 simulated" in out
    finally:
        clear_memo()
        reset_default_store()


def test_sweep_unknown_name(capsys):
    assert main(["sweep", "nope"]) == 2
    err = capsys.readouterr().err
    assert "unknown sweep 'nope'" in err and "available" in err


def test_run_rejects_zero_records(capsys):
    assert main(["run", "429.mcf", "--records", "0"]) == 2
    assert "must be >= 1" in capsys.readouterr().err


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_check_command_clean_file(capsys, tmp_path):
    clean = tmp_path / "clean.py"
    clean.write_text("def add(a, b):\n    return a + b\n")
    assert main(["check", str(clean)]) == 0
    assert "simsan: clean" in capsys.readouterr().out


def test_check_command_reports_findings(capsys, tmp_path):
    dirty = tmp_path / "dirty.py"
    dirty.write_text("def merge(dst, extras=[]):\n    dst.extend(extras)\n")
    assert main(["check", str(dirty)]) == 1
    out = capsys.readouterr().out
    assert "SS301" in out and "simsan: skip=" in out


def test_check_command_fix_hints(capsys, tmp_path):
    dirty = tmp_path / "dirty.py"
    dirty.write_text("def merge(dst, extras=[]):\n    dst.extend(extras)\n")
    assert main(["check", "--fix-hints", str(dirty)]) == 1
    assert "fix:" in capsys.readouterr().out


def test_check_command_syntax_error(capsys, tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("def broken(:\n")
    assert main(["check", str(bad)]) == 2
    assert "error" in capsys.readouterr().err


def test_check_command_list_rules(capsys):
    assert main(["check", "--list-rules"]) == 0
    out = capsys.readouterr().out
    assert "SS101" in out and "SS302" in out


def test_check_command_repo_tree_is_clean(capsys):
    from pathlib import Path
    src = Path(__file__).resolve().parent.parent / "src"
    assert main(["check", str(src)]) == 0


def test_check_flow_repo_tree_is_clean(capsys):
    from pathlib import Path
    src = Path(__file__).resolve().parent.parent / "src"
    assert main(["check", "--flow", str(src)]) == 0
    assert "clean (lint+flow)" in capsys.readouterr().out


def test_check_format_json(capsys, tmp_path):
    import json
    dirty = tmp_path / "dirty.py"
    dirty.write_text("def merge(dst, extras=[]):\n    dst.extend(extras)\n")
    assert main(["check", "--format", "json", str(dirty)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["version"] == "repro.simsan.findings/v1"
    assert payload["clean"] is False
    assert payload["findings"][0]["rule"] == "SS301"
    assert payload["findings"][0]["line"] == 1


def test_check_format_github_annotations(capsys, tmp_path):
    dirty = tmp_path / "dirty.py"
    dirty.write_text("def merge(dst, extras=[]):\n    dst.extend(extras)\n")
    assert main(["check", "--format", "github", str(dirty)]) == 1
    out = capsys.readouterr().out
    assert out.startswith("::error file=")
    assert f"file={dirty}" in out and "line=1" in out and "title=SS301" in out


def test_check_call_graph_export_json_and_dot(capsys, tmp_path):
    from pathlib import Path
    import json
    src = Path(__file__).resolve().parent.parent / "src"
    graph_json = tmp_path / "graph.json"
    assert main(["check", "--call-graph", str(graph_json), str(src)]) == 0
    payload = json.loads(graph_json.read_text())
    assert payload["schema"] == "repro.flow.call-graph/v1"
    assert any(n["hot"] for n in payload["nodes"])
    assert any(n["worker"] for n in payload["nodes"])
    graph_dot = tmp_path / "graph.dot"
    assert main(["check", "--call-graph", str(graph_dot), str(src)]) == 0
    assert graph_dot.read_text().startswith("digraph")


def test_check_flow_detects_seeded_unsafe_worker(capsys, tmp_path):
    # a stale suppression is the one flow/lint defect a standalone file
    # can carry (flow rules need the real manifests); SS303 must fire
    stale = tmp_path / "stale.py"
    stale.write_text("def add(a, b):\n"
                     "    return a + b   # simsan: skip=SS301\n")
    assert main(["check", str(stale)]) == 1
    assert "SS303" in capsys.readouterr().out


# ----------------------------------------------------------------------
# Fault tolerance: chaos sweeps, resume, fsck, incident reports
# ----------------------------------------------------------------------
@pytest.fixture
def sweep_env(tmp_path, monkeypatch):
    """Isolated store + memo + chaos env for supervised-CLI tests."""
    import os

    from repro.harness.runner import clear_memo
    from repro.harness.store import (ResultStore, reset_default_store,
                                     set_default_store)
    monkeypatch.delenv("REPRO_CHAOS", raising=False)
    clear_memo()
    store = ResultStore(tmp_path / "store")
    set_default_store(store)
    yield store
    # --chaos exports REPRO_CHAOS with a plain os.environ write, which
    # monkeypatch would faithfully *restore* on undo — pop it directly.
    os.environ.pop("REPRO_CHAOS", None)
    clear_memo()
    reset_default_store()


def test_sweep_chaos_fails_with_table_then_resumes(sweep_env, tmp_path,
                                                   capsys):
    import os
    manifest = str(tmp_path / "m.json")
    base = ["sweep", "fig07", "--workloads", "1", "--records", "200",
            "--workers", "1", "--quiet", "--manifest", manifest,
            "--obs-dir", str(tmp_path / "obs")]
    assert main(base + ["--chaos", "raise:11:1/3"]) == 3
    captured = capsys.readouterr()
    assert "Fig. 7" in captured.out          # healthy points finished
    assert "-" in captured.out               # failed cells render holes
    assert "point(s) failed" in captured.err
    assert "ChaosError" in captured.err
    assert "--resume" in captured.err

    # chaos off + --resume completes and matches a fault-free sweep
    # (plain pop: --chaos exported it with a raw os.environ write)
    os.environ.pop("REPRO_CHAOS", None)
    from repro.harness.runner import clear_memo
    clear_memo()
    assert main(base + ["--resume"]) == 0
    resumed = capsys.readouterr().out
    clear_memo()
    assert main(["sweep", "fig07", "--workloads", "1", "--records", "200",
                 "--workers", "1", "--quiet"]) == 0
    clean = capsys.readouterr().out

    def table_of(text):
        return [ln for ln in text.splitlines()
                if ln.startswith(("workload", "429.mcf", "GEOMEAN", "---"))]
    assert table_of(resumed) == table_of(clean)


def test_sweep_fail_fast_aborts(sweep_env, tmp_path, capsys):
    assert main(["sweep", "fig07", "--workloads", "1", "--records", "200",
                 "--workers", "1", "--quiet", "--fail-fast",
                 "--obs-dir", str(tmp_path / "obs"),
                 "--chaos", "raise:11:1/3"]) == 3
    captured = capsys.readouterr()
    assert "Fig. 7" not in captured.out      # aborted before the table
    assert "point(s) failed" in captured.err


def test_sweep_writes_incident_artifact(sweep_env, tmp_path, capsys):
    obs_dir = tmp_path / "obs"
    assert main(["sweep", "fig07", "--workloads", "1", "--records", "200",
                 "--workers", "1", "--quiet", "--obs-dir", str(obs_dir),
                 "--chaos", "raise:11:1/3"]) == 3
    capsys.readouterr()
    artifact = obs_dir / "sweep-fig07.incidents.json"
    assert artifact.is_file()
    payload = json.loads(artifact.read_text())
    assert payload["tag"] == "sweep-fig07"
    assert any(e["event"] == "failure" for e in payload["events"])

    # and `report --incidents` renders it as a markdown section
    assert main(["report", "--incidents", str(artifact)]) == 0
    out = capsys.readouterr().out
    assert "### Incidents (sweep-fig07)" in out
    assert "ChaosError" in out


def test_run_command_reports_failures(sweep_env, tmp_path, capsys):
    assert main(["run", "462.libquantum", "--policies", "lru",
                 "--records", "600", "--no-store", "--json",
                 "--obs-dir", str(tmp_path / "obs"),
                 "--chaos", "raise:0:1/1", "--retries", "1"]) == 3
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert payload[0]["result"] is None
    assert "ChaosError" in captured.err


def test_supervised_messages_name_their_command(sweep_env, tmp_path, capsys):
    obs_dir = tmp_path / "obs"
    assert main(["run", "462.libquantum", "--policies", "lru",
                 "--records", "600", "--no-store", "--json",
                 "--obs-dir", str(obs_dir),
                 "--chaos", "raise:0:1/1", "--retries", "1"]) == 3
    err = capsys.readouterr().err
    assert f"[run] 1 incident(s) -> {obs_dir}" in err
    assert "[sweep]" not in err


def test_run_interrupted_writes_incident_artifact(sweep_env, tmp_path,
                                                  capsys, monkeypatch):
    import os
    import signal

    import repro.harness
    real_run_many = repro.harness.run_many

    def interrupted_run_many(*args, **kwargs):
        os.kill(os.getpid(), signal.SIGINT)   # the supervisor's handler
        return real_run_many(*args, **kwargs)

    monkeypatch.setattr(repro.harness, "run_many", interrupted_run_many)
    obs_dir = tmp_path / "obs"
    assert main(["run", "462.libquantum", "--policies", "lru",
                 "--records", "600", "--no-store",
                 "--obs-dir", str(obs_dir)]) == 130
    assert "[run] interrupted" in capsys.readouterr().err
    artifact = obs_dir / "run-462.libquantum.incidents.json"
    events = json.loads(artifact.read_text())["events"]
    assert [e["event"] for e in events] == ["interrupt"]


def test_campaign_run_honours_observability_flags(sweep_env, tmp_path,
                                                  capsys):
    import os

    from repro.harness.campaign import CAMPAIGN_SCHEMA
    spec_file = tmp_path / "tiny.json"
    spec_file.write_text(json.dumps({
        "schema": CAMPAIGN_SCHEMA, "name": "tiny",
        "defaults": {"records": 200, "preset": "tiny"},
        "grids": [{"id": "g1", "suite": "spec", "workloads": ["429.mcf"],
                   "policies": ["lru"], "cores": [1]}]}))
    obs_dir = tmp_path / "obs"
    try:
        assert main(["campaign", "run", str(spec_file), "--quiet",
                     "--manifest", str(tmp_path / "tiny.manifest.json"),
                     "--obs-dir", str(obs_dir), "--metrics-interval", "500",
                     "--trace", "--trace-sample", "8"]) == 0
    finally:
        for var in ("REPRO_METRICS_INTERVAL", "REPRO_TRACE",
                    "REPRO_TRACE_SAMPLE", "REPRO_OBS_DIR"):
            os.environ.pop(var, None)
    err = capsys.readouterr().err
    assert "[campaign] observability on: store-cached points" in err
    assert list(obs_dir.rglob("*.metrics.json"))
    assert list(obs_dir.rglob("*.trace.json"))


def test_supervise_flag_validation(capsys):
    assert main(["sweep", "fig07", "--chaos", "explode:1"]) == 2
    assert "unknown chaos fault" in capsys.readouterr().err
    assert main(["sweep", "fig07", "--retries", "0"]) == 2
    assert "--retries" in capsys.readouterr().err
    assert main(["run", "429.mcf", "--timeout", "-1"]) == 2
    assert "--timeout" in capsys.readouterr().err


def test_run_with_checkpoint_flag_absorbs_preempt_chaos(sweep_env,
                                                        tmp_path, capsys):
    """--checkpoint + chaos preempt: every point is preempted mid-run,
    resumed from its save-state, and the output matches a clean run."""
    import os
    base = ["run", "462.libquantum", "--policies", "lru",
            "--records", "600", "--no-store", "--json",
            "--obs-dir", str(tmp_path / "obs")]
    assert main(base + ["--checkpoint", "1000",
                        "--chaos", "preempt:7:1/1"]) == 0
    chaotic = json.loads(capsys.readouterr().out)
    assert chaotic[0]["result"] is not None

    for var in ("REPRO_CHAOS", "REPRO_CKPT_DIR", "REPRO_CKPT_EVENTS",
                "REPRO_CKPT_SECS"):
        os.environ.pop(var, None)
    from repro.harness.runner import clear_memo
    clear_memo()
    assert main(base) == 0
    clean = json.loads(capsys.readouterr().out)
    assert chaotic == clean
    # the resumed point completed, so its save-state was cleaned up
    assert not list((tmp_path / "obs" / "ckpt").rglob("*.ckpt.gz"))


def test_store_fsck_validates_manifests(sweep_env, tmp_path, capsys):
    import os
    manifest = tmp_path / "m.manifest.json"
    assert main(["sweep", "fig07", "--workloads", "1", "--records", "200",
                 "--workers", "1", "--quiet",
                 "--manifest", str(manifest)]) == 0
    capsys.readouterr()
    assert main(["store", "fsck", "--manifests", str(manifest)]) == 0
    assert "manifests fsck:" in capsys.readouterr().out

    text = manifest.read_text()
    manifest.write_text(text[:len(text) // 2])
    assert main(["store", "fsck", "--manifests", str(manifest)]) == 1
    out = capsys.readouterr().out
    assert "1 quarantined" in out and "fresh ledger" in out
    assert (tmp_path / "quarantine" / manifest.name).is_file()
    assert main(["store", "fsck", "--manifests", str(manifest)]) == 0
    os.environ.pop("REPRO_CHAOS", None)


def test_store_fsck_command(sweep_env, capsys):
    assert main(["run", "462.libquantum", "--policies", "lru",
                 "--records", "600"]) == 0
    capsys.readouterr()
    assert main(["store"]) == 0               # bare `store` prints stats
    assert "entries:" in capsys.readouterr().out
    assert main(["store", "fsck"]) == 0       # clean store
    assert "0 quarantined" in capsys.readouterr().out

    [path] = list(sweep_env.entries())
    path.write_text("{broken json")
    assert main(["store", "fsck"]) == 1       # corrupt -> quarantine, exit 1
    out = capsys.readouterr().out
    assert "1 quarantined" in out and "re-simulates" in out
    assert main(["store", "fsck"]) == 0       # second pass is clean
