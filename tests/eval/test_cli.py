"""Tests for the experiment command line (python -m repro.eval)."""

import json

import pytest

from repro.eval.__main__ import main


def test_cli_table1(capsys):
    assert main(["table1", "--duration", "5"]) == 0
    out = capsys.readouterr().out
    assert "Avg. Power" in out
    assert "3L-MMD" in out


def test_cli_fig7(capsys):
    assert main(["fig7", "--duration", "5"]) == 0
    out = capsys.readouterr().out
    assert "reduction" in out
    assert "100 %" in out


def test_cli_net(capsys):
    assert main(["net", "--scenario", "drifting-wearables",
                 "--nodes", "8", "--duration", "6", "--workers", "2",
                 "--seed", "5"]) == 0
    out = capsys.readouterr().out
    assert "Network: drifting-wearables" in out
    assert "no sync" in out and "ftsp" in out
    assert "steady-state error reduced" in out
    assert "nodes/s" in out


def test_cli_net_suite_flags_build_heterogeneous_fleet(capsys):
    assert main(["net", "--suite-seed", "7", "--suite-count", "12",
                 "--policy", "balanced", "--nodes", "8",
                 "--duration", "4"]) == 0
    out = capsys.readouterr().out
    assert "Network: gen:drifting-wearables:7:12:balanced" in out
    assert "per-family breakdown" in out
    assert "per-policy breakdown" in out
    assert "balanced" in out


def test_cli_net_suite_artifacts_are_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["net", "--suite-seed", "7", "--suite-count", "12",
            "--policy", "balanced", "--nodes", "8", "--duration", "4",
            "--json"]
    assert main(argv + [str(a)]) == 0
    assert main(argv + [str(b), "--workers", "2"]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    payload = json.loads(a.read_text())
    assert payload["schema"] == "repro-net/2"
    assert len(payload["nodes"]) == 8
    assert all(node["token"] for node in payload["nodes"])


def test_cli_net_benchmark_artifact_keeps_v1_schema(tmp_path, capsys):
    path = tmp_path / "net.json"
    assert main(["net", "--scenario", "dense-ward", "--nodes", "4",
                 "--duration", "4", "--json", str(path)]) == 0
    capsys.readouterr()
    payload = json.loads(path.read_text())
    assert payload["schema"] == "repro-net/1"
    assert "families" not in payload


def test_cli_net_protocol_override(capsys):
    assert main(["net", "--scenario", "dense-ward", "--nodes", "4",
                 "--duration", "4", "--protocol", "ftsp"]) == 0
    assert "ftsp" in capsys.readouterr().out


def test_cli_rejects_unknown_experiment():
    with pytest.raises(SystemExit):
        main(["nonsense"])


def test_cli_rejects_unknown_scenario():
    with pytest.raises(SystemExit):
        main(["net", "--scenario", "mars-rover"])


def test_cli_sweep_list(capsys):
    assert main(["sweep", "--list"]) == 0
    out = capsys.readouterr().out
    assert "demo" in out and "fleet" in out


def test_cli_sweep_spec_file_with_artifacts(capsys, tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({
        "name": "cli-tiny",
        "runner": "app",
        "base": {"duration_s": 1.0},
        "axes": {"app": ["3L-MF"],
                 "mode": ["single-core", "multi-core"]},
    }))
    json_path = tmp_path / "BENCH_cli.json"
    csv_path = tmp_path / "cli.csv"
    assert main(["sweep", "--spec-file", str(spec_path),
                 "--cache-dir", str(tmp_path / "cache"),
                 "--json", str(json_path),
                 "--csv", str(csv_path)]) == 0
    out = capsys.readouterr().out
    assert "Sweep 'cli-tiny'" in out
    assert "cache: 0 hit(s), 2 miss(es)" in out
    payload = json.loads(json_path.read_text())
    assert payload["points"] == 2
    assert csv_path.exists()
    # warm re-run through the same cache directory hits every point
    assert main(["sweep", "--spec-file", str(spec_path),
                 "--cache-dir", str(tmp_path / "cache")]) == 0
    assert "cache: 2 hit(s), 0 miss(es)" in capsys.readouterr().out


def test_cli_sweep_builtin_demo_is_24_points():
    from repro.sweep import SPECS, expand

    assert len(expand(SPECS["demo"])) >= 24
    assert len(SPECS["demo"].axes) == 3


def test_cli_sweep_rejects_unknown_spec():
    with pytest.raises(SystemExit):
        main(["sweep", "--spec", "nonsense"])


def test_cli_gen_runs_suite_through_policies(capsys, tmp_path):
    json_path = tmp_path / "gen.json"
    assert main(["gen", "--seed", "7", "--count", "5",
                 "--duration", "1", "--json", str(json_path)]) == 0
    out = capsys.readouterr().out
    assert "Generated workloads: seed 7, 5 app(s) x 3 policy(ies)" in out
    assert "placements:" in out
    payload = json.loads(json_path.read_text())
    assert payload["schema"] == "repro-gen/1"
    assert payload["count"] == 5
    assert len(payload["records"]) == 15  # 5 apps x 3 policies
    assert len(payload["apps"]) == 5
    statuses = {record["status"] for record in payload["records"]}
    assert statuses <= {"ok", "repaired", "rejected"}


def test_cli_gen_policy_and_family_selection(capsys):
    assert main(["gen", "--seed", "3", "--count", "2", "--duration", "1",
                 "--families", "pipeline", "--policies", "paper",
                 "single-core"]) == 0
    out = capsys.readouterr().out
    assert "2 app(s) x 2 policy(ies)" in out
    assert "single-core" in out


def test_cli_gen_rejects_unknown_policy():
    with pytest.raises(SystemExit):
        main(["gen", "--policies", "nonsense"])


def test_cli_sweep_gen_spec_listed(capsys):
    assert main(["sweep", "--list"]) == 0
    out = capsys.readouterr().out
    assert "gen" in out and "search" in out


def test_cli_search_reports_gap_and_is_byte_identical(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["search", "--seed", "7", "--count", "3", "--iterations",
            "8", "--duration", "1", "--json"]
    assert main(argv + [str(a)]) == 0
    out = capsys.readouterr().out
    assert "Placement search: seed 7, 3 app(s)" in out
    assert "paper" in out and "gap%" in out
    assert main(argv + [str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    payload = json.loads(a.read_text())
    assert payload["schema"] == "repro-search/1"
    assert payload["count"] == 3
    assert len(payload["outcomes"]) == 3
    for outcome in payload["outcomes"]:
        if outcome["status"] != "rejected":
            assert outcome["gap"] >= 0.0
            assert outcome["best_cost"] <= \
                outcome["start_cost"] + 1e-9


def test_cli_search_algorithm_and_cost_selection(capsys):
    assert main(["search", "--seed", "3", "--count", "2",
                 "--iterations", "5", "--duration", "1",
                 "--families", "pipeline", "--algorithm", "greedy",
                 "--cost", "clock"]) == 0
    out = capsys.readouterr().out
    assert "greedy/clock" in out


def test_cli_search_rejects_unknown_algorithm():
    with pytest.raises(SystemExit):
        main(["search", "--algorithm", "nonsense"])


def test_cli_net_tiers_renders_hierarchy(capsys):
    assert main(["net", "--tiers", "tiers:ftsp@5x2/rbs@1x3:dense-ward",
                 "--duration", "2"]) == 0
    out = capsys.readouterr().out
    assert "Hierarchy: tiers:ftsp@5x2/rbs@1x3:dense-ward" in out
    assert "per-tier breakdown" in out
    assert "backbone" in out and "cluster" in out
    assert "waves: 1/1" in out


def test_cli_net_tiers_artifacts_are_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["net", "--tiers", "tiers:ftsp@5x2/rbs@1x3:dense-ward",
            "--duration", "2", "--json"]
    assert main(argv + [str(a)]) == 0
    assert main(argv + [str(b), "--workers", "2", "--wave", "1"]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    payload = json.loads(a.read_text())
    assert payload["schema"] == "repro-net/3"
    assert payload["n_nodes"] == 9
    assert len(payload["tiers"]) == 2
    assert "nodes" not in payload  # mega-fleets never hold per-node


def test_cli_net_tiers_interrupted_run_resumes(tmp_path, capsys):
    out_json = tmp_path / "net.json"
    argv = ["net", "--tiers", "tiers:rbs@1x3:dense-ward", "--duration",
            "2", "--wave", "1", "--checkpoint-dir",
            str(tmp_path / "ckpt"), "--json", str(out_json)]
    assert main(argv + ["--max-waves", "1"]) == 0
    out = capsys.readouterr().out
    assert "partial: 1/3 subtree(s) folded" in out
    assert not out_json.exists()  # incomplete runs write no artifact
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "resumed 1 subtree(s) from checkpoint" in out
    assert out_json.exists()
    # ... and the resumed artifact matches an uninterrupted one.
    cold = tmp_path / "cold.json"
    assert main(["net", "--tiers", "tiers:rbs@1x3:dense-ward",
                 "--duration", "2", "--json", str(cold)]) == 0
    capsys.readouterr()
    assert out_json.read_bytes() == cold.read_bytes()


def test_cli_net_tiers_conflicts_with_flat_flags():
    with pytest.raises(SystemExit):
        main(["net", "--tiers", "ward-campus", "--nodes", "4"])
    with pytest.raises(SystemExit):
        main(["net", "--tiers", "ward-campus", "--protocol", "ftsp"])
    with pytest.raises(SystemExit):
        main(["net", "--stream"])  # streaming flags need --tiers


def test_cli_net_tiers_rejects_unknown_preset(capsys):
    assert main(["net", "--tiers", "mars-campus"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(
        "python -m repro.eval: error: unknown hierarchy 'mars-campus'")
    assert err.count("\n") == 1  # one line, no traceback


def test_cli_sweep_missing_spec_file_exits_2(capsys):
    assert main(["sweep", "--spec-file", "/no/such/spec.json"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("python -m repro.eval: error: ")
    assert "/no/such/spec.json" in err
    assert err.count("\n") == 1


def test_cli_usage_errors_exit_2_with_metrics_active(capsys):
    # The --metrics wrapper must not turn usage errors back into
    # tracebacks (the collector is torn down on the error path).
    assert main(["net", "--tiers", "mars-campus", "--metrics"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(
        "python -m repro.eval: error: unknown hierarchy")
    from repro import obs
    assert obs.active() is None


def test_cli_cover_renders_coverage(capsys):
    assert main(["cover", "--budget", "12", "--saturation", "12",
                 "--duration", "0.5"]) == 0
    out = capsys.readouterr().out
    assert "Coverage fuzz: seed 7, 12/12 attempt(s)" in out
    assert "bins:" in out and "covered" in out
    assert "adversarial deep-chain:" in out
    assert "outcomes:" in out


def test_cli_cover_artifact_is_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["cover", "--budget", "16", "--saturation", "16",
            "--duration", "0.5", "--json"]
    assert main(argv + [str(a)]) == 0
    assert main(argv + [str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    payload = json.loads(a.read_text())
    assert payload["schema"] == "repro-cover/1"
    assert payload["covered"] == len(payload["bins"])
    assert payload["covered"] + len(payload["uncovered"]) == \
        payload["total_bins"]
    for entry in payload["bins"].values():
        assert entry["hits"] >= 1
        assert entry["first_token"]


def test_cli_cover_random_mode(capsys):
    assert main(["cover", "--random", "--budget", "8", "--saturation",
                 "8", "--duration", "0.5"]) == 0
    out = capsys.readouterr().out
    assert "Coverage random: seed 7, 8/8 attempt(s)" in out
