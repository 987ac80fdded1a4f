"""Tests for the command-line interface."""

from pathlib import Path

import pytest

from repro.cli import _parse_workload_params, build_parser, main

HELP_SNAPSHOTS = Path(__file__).resolve().parent.parent / "docs" / "cli"


def test_parse_workload_params():
    params = _parse_workload_params(["array_elements=256", "density=0.5", "name=web"])
    assert params == {"array_elements": 256, "density": 0.5, "name": "web"}
    with pytest.raises(SystemExit):
        _parse_workload_params(["oops"])


def test_parser_rejects_unknown_config():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["run", "--config", "XYZ"])
    args = parser.parse_args(["run", "--config", "ARF-addr", "--workload", "reduce"])
    assert args.config == "ARF-addr"
    args = parser.parse_args(["report", "--scale", "tiny"])
    assert args.scale == "tiny"


def test_cli_run_command(capsys):
    exit_code = main(["run", "--config", "ARF-tid", "--workload", "reduce",
                      "--threads", "2", "--param", "array_elements=256"])
    out = capsys.readouterr().out
    assert exit_code == 0
    assert "reduce on ARF-tid" in out
    assert "cycles" in out and "EDP" in out
    assert "flows verified" in out


def test_cli_run_baseline_config(capsys):
    exit_code = main(["run", "--config", "DRAM", "--workload", "reduce",
                      "--threads", "2", "--param", "array_elements=256"])
    assert exit_code == 0
    out = capsys.readouterr().out
    assert "update round-trip" not in out


def test_parser_report_and_prefetch_suite_options():
    parser = build_parser()
    args = parser.parse_args(["report", "--scale", "tiny", "--workers", "0",
                              "--cache-dir", "/tmp/x", "--no-cache"])
    assert args.workers == 0 and args.cache_dir == "/tmp/x" and args.no_cache
    args = parser.parse_args(["prefetch", "--figures", "speedup", "latency",
                              "--workloads", "mac"])
    assert args.figures == ["speedup", "latency"]
    assert args.workloads == ["mac"]
    with pytest.raises(SystemExit):
        parser.parse_args(["prefetch", "--figures", "figure-9000"])


def test_cli_prefetch_cold_then_warm(capsys, tmp_path):
    argv = ["prefetch", "--scale", "tiny", "--figures", "speedup",
            "--workloads", "mac", "--workers", "2", "--cache-dir", str(tmp_path)]
    assert main(argv) == 0
    cold = capsys.readouterr().out
    assert "simulated: 5" in cold and str(tmp_path) in cold

    assert main(argv) == 0
    warm = capsys.readouterr().out
    assert "loaded from cache: 5" in warm and "simulated: 0" in warm


def test_cli_prefetch_prune_garbage_collects(capsys, tmp_path):
    argv = ["prefetch", "--scale", "tiny", "--figures", "speedup",
            "--workloads", "mac", "--workers", "2", "--cache-dir", str(tmp_path)]
    assert main(argv) == 0
    capsys.readouterr()
    # Plant litter: an orphaned tmp file and a corrupt (= stale) entry.
    (tmp_path / f"dead.pkl.tmp{2**22 - 1}").write_bytes(b"partial")
    (tmp_path / "corrupt.pkl").write_bytes(b"junk")

    assert main(argv + ["--prune"]) == 0
    out = capsys.readouterr().out
    assert "removed 1 orphaned tmp files and 1 stale entries (5 kept)" in out
    assert "simulated: 0" in out              # pruning kept the live entries


def test_cli_prefetch_prune_requires_cache():
    with pytest.raises(SystemExit, match="^repro: --prune needs the persistent"):
        main(["prefetch", "--scale", "tiny", "--figures", "speedup",
              "--workloads", "mac", "--no-cache", "--prune"])


def test_cli_prefetch_no_cache_does_not_persist(capsys, tmp_path, monkeypatch):
    # Point the default cache location somewhere observable: --no-cache must
    # keep it untouched, not merely claim to.
    default_dir = tmp_path / "default-cache"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(default_dir))
    argv = ["prefetch", "--scale", "tiny", "--figures", "latency",
            "--workloads", "mac", "--no-cache"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "simulated: 3" in out
    assert "cache: disabled" in out
    assert not default_dir.exists()


def test_cli_config_names_are_normalized():
    parser = build_parser()
    # argparse choices used to reject spellings SystemKind.from_name accepts.
    for spelling in ("arf_tid", "ARF_TID", "arf-tid", "ARF-tid"):
        assert parser.parse_args(["run", "--config", spelling]).config == "ARF-tid"
    assert parser.parse_args(["run", "--config", "dram"]).config == "DRAM"
    with pytest.raises(SystemExit):
        parser.parse_args(["run", "--config", "arf"])


def test_cli_run_with_network_override(capsys):
    exit_code = main(["run", "--config", "arf_tid", "--workload", "reduce",
                      "--threads", "2", "--param", "array_elements=256",
                      "--topology", "mesh", "--num-cubes", "8"])
    assert exit_code == 0
    out = capsys.readouterr().out
    assert "reduce on ARF-tid@mesh8c4" in out
    assert "flows verified" in out


def test_cli_run_rejects_impossible_network(capsys):
    # A clean usage error (no traceback), carrying the builder's message.
    with pytest.raises(SystemExit, match="exactly 18 cubes"):
        main(["run", "--config", "HMC", "--workload", "reduce",
              "--num-cubes", "18"])


def test_cli_rejects_controllers_sharing_an_attach_cube(tmp_path):
    # Two controllers on one cube deadlock ARF-tid; the request is refused up
    # front with one usage line instead of ending with unfinished cores.
    for shape in (["--topology", "chain", "--num-cubes", "2"],
                  ["--topology", "mesh", "--num-cubes", "1"]):
        with pytest.raises(SystemExit, match=r"^repro: cannot attach 4 "
                                             r"controllers to \d cubes"):
            main(["run", "--config", "ARF-tid", "--workload", "reduce",
                  "--param", "array_elements=256"] + shape)
    with pytest.raises(SystemExit, match=r"^repro: cannot attach 4 controllers"):
        main(["sweep", "--scale", "tiny", "--topologies", "chain",
              "--num-cubes", "1", "--workloads", "mac",
              "--cache-dir", str(tmp_path)])
    assert list(tmp_path.glob("*.pkl")) == []


def test_cli_run_arf_tid_on_a_single_row_mesh():
    # A 1x3 mesh has two corners; its third controller now gets cube 1 of its
    # own instead of sharing a corner, and the run finishes.
    assert main(["run", "--config", "ARF-tid", "--workload", "reduce",
                 "--param", "array_elements=256", "--topology", "mesh",
                 "--num-cubes", "3", "--num-controllers", "3"]) == 0


def test_cli_rejects_controller_count_below_one(tmp_path):
    # Rejected by make_network_config like a bad bandwidth: a clean usage
    # error for run and for sweep planning (no cache entries written), not a
    # traceback from the nearest-port precompute.
    for count in ("0", "-3"):
        with pytest.raises(SystemExit, match=f"controller count must be >= 1, got {count}"):
            main(["run", "--config", "HMC", "--workload", "reduce",
                  "--num-controllers", count])
    with pytest.raises(SystemExit, match="controller count must be >= 1, got 0"):
        main(["sweep", "--scale", "tiny", "--topologies", "mesh",
              "--num-controllers", "0", "--workloads", "mac",
              "--cache-dir", str(tmp_path)])
    assert list(tmp_path.glob("*.pkl")) == []


def test_cli_run_rejects_more_threads_than_cores():
    for threads in ("64", "0"):
        with pytest.raises(SystemExit,
                           match=f"--threads must be between 1 and the 4 cores "
                                 f"of HMC, got {threads}"):
            main(["run", "--config", "HMC", "--workload", "reduce",
                  "--threads", threads])


def test_cli_run_rejects_non_positive_workload_size():
    with pytest.raises(SystemExit, match=r"^repro: num_elements must be positive"):
        main(["run", "--config", "HMC", "--workload", "reduce",
              "--param", "array_elements=0"])


def test_cli_run_rejects_non_integer_workload_parameters():
    with pytest.raises(SystemExit,
                       match=r"^repro: array_elements must be an integer, got 1\.5$"):
        main(["run", "--config", "HMC", "--workload", "reduce",
              "--param", "array_elements=1.5"])
    with pytest.raises(SystemExit, match=r"^repro: seed must be an integer, got 'abc'$"):
        main(["run", "--config", "HMC", "--workload", "reduce",
              "--param", "seed=abc"])


def test_cli_run_rejects_unknown_workload_parameter():
    with pytest.raises(SystemExit,
                       match=r"^repro: unknown parameter\(s\) 'bogus' for workload 'reduce'"):
        main(["run", "--config", "HMC", "--workload", "reduce",
              "--param", "array_elements=256", "--param", "bogus=3"])


def test_cli_sweep_parser_defaults():
    parser = build_parser()
    args = parser.parse_args(["sweep", "--scale", "tiny"])
    assert args.topologies == ["dragonfly", "mesh", "torus"]
    assert args.cube_counts == [16]
    assert args.configs == ["HMC", "ART", "ARF-tid", "ARF-addr"]
    args = parser.parse_args(["sweep", "--topologies", "mesh", "--num-cubes",
                              "8", "16", "--configs", "hmc", "arf_addr"])
    assert args.topologies == ["mesh"] and args.cube_counts == [8, 16]
    assert args.configs == ["HMC", "ARF-addr"]
    with pytest.raises(SystemExit):
        parser.parse_args(["sweep", "--topologies", "hypercube"])


def test_cli_sweep_cold_then_warm(capsys, tmp_path):
    argv = ["sweep", "--scale", "tiny", "--topologies", "mesh", "torus",
            "--configs", "HMC", "--workloads", "mac", "--workers", "2",
            "--cache-dir", str(tmp_path)]
    assert main(argv) == 0
    cold = capsys.readouterr().out
    # 1 DRAM baseline + 2 topologies x 1 scheme x 1 workload.
    assert "simulated: 3" in cold
    assert "mesh16c4" in cold and "torus16c4" in cold

    assert main(argv) == 0
    warm = capsys.readouterr().out
    assert "loaded from cache: 3" in warm and "simulated: 0" in warm


def test_cli_sweep_rejects_dram():
    with pytest.raises(SystemExit, match="^repro: --configs DRAM: "):
        main(["sweep", "--scale", "tiny", "--configs", "DRAM"])


def test_cli_sweep_rejects_impossible_shape_before_simulating(tmp_path):
    # 8 cubes cannot form a 4-controller dragonfly; the sweep must fail while
    # planning (no cache entries written), not mid-batch in a worker — and as
    # a clean usage error, not a traceback.
    with pytest.raises(SystemExit, match="exactly 8 cubes"):
        main(["sweep", "--scale", "tiny", "--topologies", "dragonfly",
              "--num-cubes", "8", "--workloads", "mac",
              "--cache-dir", str(tmp_path)])
    assert list(tmp_path.glob("*.pkl")) == []


def test_cli_sweep_deduplicates_repeated_operands(capsys, tmp_path):
    assert main(["sweep", "--scale", "tiny", "--topologies", "mesh", "mesh",
                 "--num-cubes", "16", "16", "--configs", "HMC", "hmc",
                 "--workloads", "mac", "--cache-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    # One mesh row per table (speedup, queue delay, per-workload), not two.
    assert out.count("mesh16c4") == 3
    assert "simulated: 2" in out        # 1 DRAM baseline + 1 mesh/HMC cell


def test_cli_run_rejects_network_flags_on_dram():
    with pytest.raises(SystemExit, match="DRAM baseline"):
        main(["run", "--config", "dram", "--workload", "reduce",
              "--topology", "mesh"])


def test_cli_network_detail_options_parse_everywhere():
    parser = build_parser()
    detail = ["--failure-rate", "10",
              "--failure-seed", "7", "--num-controllers", "2",
              "--link-bandwidth", "25"]
    for command in (["run"], ["report"], ["prefetch"]):
        args = parser.parse_args(command + detail)
        assert args.failure_rate == 10.0 and args.failure_seed == 7
        assert args.num_controllers == 2 and args.link_bandwidth == 25.0
        defaults = parser.parse_args(command)
        assert defaults.failure_rate is None
    # On sweep the controller/bandwidth flags are sweep *axes*: value lists.
    args = parser.parse_args(["sweep"] + detail + ["12.5"])
    assert args.failure_rate == 10.0 and args.failure_seed == 7
    assert args.controller_counts == [2]
    assert args.link_bandwidths == [25.0, 12.5]
    defaults = parser.parse_args(["sweep"])
    assert defaults.controller_counts is None and defaults.link_bandwidths is None
    # There is one routing table and no flag to pick another.
    with pytest.raises(SystemExit):
        parser.parse_args(["run", "--routing", "static"])


def test_cli_report_figures_subset_option():
    parser = build_parser()
    args = parser.parse_args(["report", "--figures", "degraded"])
    assert args.figures == ["degraded"]
    args = parser.parse_args(["report", "--figures", "speedup", "degraded"])
    assert args.figures == ["speedup", "degraded"]
    with pytest.raises(SystemExit):
        parser.parse_args(["report", "--figures", "figure-9000"])


def test_cli_run_degraded_mode(capsys):
    exit_code = main(["run", "--config", "arf_tid", "--workload", "mac",
                      "--threads", "2", "--param", "array_elements=256",
                      "--failure-rate", "10", "--failure-seed", "7"])
    assert exit_code == 0
    out = capsys.readouterr().out
    # The network fingerprint (failure process) joins the label...
    assert "ARF-tid@dragonfly16c4-f10s7" in out
    # ...and the degraded-mode rows render.
    assert "hops interrupted" in out
    assert "delivered traffic" in out
    assert "flows verified" in out


def test_cli_run_rejects_routing_flags_on_dram():
    with pytest.raises(SystemExit, match="DRAM baseline"):
        main(["run", "--config", "dram", "--workload", "reduce",
              "--failure-rate", "5"])


def test_cli_sweep_carries_routing_details(capsys, tmp_path):
    argv = ["sweep", "--scale", "tiny", "--topologies", "mesh",
            "--configs", "HMC", "--workloads", "mac", "--workers", "2",
            "--failure-rate", "2",
            "--failure-seed", "7", "--cache-dir", str(tmp_path)]
    assert main(argv) == 0
    out = capsys.readouterr().out
    # Every swept cell folds the failure fingerprint into its label (and
    # thus its cache key — degraded cells never collide with clean ones).
    assert "mesh16c4-f2s7" in out
    assert main(argv) == 0
    warm = capsys.readouterr().out
    assert "simulated: 0" in warm


@pytest.mark.parametrize("command", ["run", "report", "prefetch", "sweep"])
def test_help_matches_the_committed_snapshot(command, capsys, monkeypatch):
    # argparse wraps help to the terminal width; the snapshots pin 80 columns.
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--help"])
    assert exit_info.value.code == 0
    snapshot = HELP_SNAPSHOTS / f"{command}-help.txt"
    assert capsys.readouterr().out == snapshot.read_text(), (
        f"`repro {command} --help` drifted from {snapshot.name}; regenerate "
        f"with: COLUMNS=80 PYTHONPATH=src python -m repro {command} --help "
        f"> docs/cli/{command}-help.txt")
