"""CLI tests (argument handling plus one end-to-end table)."""

import json

import pytest

from repro.experiments.cli import _check_values, build_parser, main


class TestParser:
    def test_commands_accepted(self):
        parser = build_parser()
        for cmd in ("table1", "table2", "figure8", "figure9", "figure10",
                    "all", "suite", "stats", "trace", "lifecycle", "cache",
                    "runs"):
            assert parser.parse_args([cmd]).command == cmd
        # diff requires its two payload paths
        assert parser.parse_args(["diff", "a", "b"]).command == "diff"

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure11"])

    def test_flags(self):
        args = build_parser().parse_args(
            ["figure8", "--quick", "--seed", "9", "--json", "x.json"]
        )
        assert args.quick and args.seed == 9 and args.json == "x.json"

    def test_profiling_flags(self):
        args = build_parser().parse_args(
            ["trace", "--bench", "field", "--model", "cp_ap",
             "--out", "t.json", "--format", "jsonl",
             "--occupancy-interval", "64"]
        )
        assert args.bench == "field" and args.model == "cp_ap"
        assert args.out == "t.json" and args.trace_format == "jsonl"
        assert args.occupancy_interval == 64

    def test_sampling_flags(self):
        args = build_parser().parse_args(
            ["suite", "--sample", "--sample-interval", "40000",
             "--sample-detail", "2000", "--sample-warmup", "500",
             "--sample-error-budget", "0.05", "--sample-seed", "7"]
        )
        assert args.sample and args.sample_interval == 40000
        assert args.sample_detail == 2000 and args.sample_warmup == 500
        assert args.sample_error_budget == 0.05 and args.sample_seed == 7
        defaults = build_parser().parse_args(["suite"])
        assert not defaults.sample and defaults.sample_interval is None

    def test_sampling_plan_built_from_flags(self):
        from repro.experiments.cli import _sampling_plan

        args = build_parser().parse_args(
            ["suite", "--sample", "--sample-interval", "40000"])
        plan = _sampling_plan(args)
        assert plan.interval_length == 40000
        assert plan.detail_length == 2000  # SamplingPlan default preserved
        assert _sampling_plan(build_parser().parse_args(["suite"])) is None

    def test_sample_tuning_requires_sample(self):
        with pytest.raises(SystemExit):
            main(["suite", "--sample-interval", "40000"])

    def test_sample_conflicts_rejected(self):
        with pytest.raises(SystemExit):
            main(["suite", "--sample", "--verify"])
        with pytest.raises(SystemExit):
            main(["faults", "--sample"])
        with pytest.raises(SystemExit):
            main(["lifecycle", "--sample"])

    def test_invalid_sampling_plan_rejected(self):
        # detail longer than the interval violates SamplingPlan validation
        with pytest.raises(SystemExit):
            main(["suite", "--sample", "--sample-interval", "100",
                  "--sample-detail", "2000"])

    def test_bad_bench_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["stats", "--bench", "nosuch"])

    def test_parallel_and_cache_flags(self):
        args = build_parser().parse_args(
            ["suite", "--quick", "--jobs", "4", "--no-cache",
             "--cache-dir", "/tmp/c"]
        )
        assert args.jobs == 4 and args.no_cache
        assert args.cache_dir == "/tmp/c"
        assert build_parser().parse_args(["suite"]).jobs == 1

    def test_negative_jobs_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["suite", "--jobs", "-1"])

    def test_cache_subcommands(self):
        for action in ("stats", "clear"):
            args = build_parser().parse_args(["cache", action])
            assert args.command == "cache" and args.action == action
        assert build_parser().parse_args(["cache"]).action == "stats"

    def test_cache_action_only_valid_after_cache(self):
        with pytest.raises(SystemExit):
            main(["table1", "clear"])

    def test_lifecycle_flags(self):
        args = build_parser().parse_args(
            ["lifecycle", "--bench", "field", "--model", "hidisc",
             "--format", "kanata", "--out", "run.kanata",
             "--heartbeat", "5000", "--lifecycle-limit", "256",
             "--top", "5"]
        )
        assert args.command == "lifecycle" and args.trace_format == "kanata"
        assert args.out == "run.kanata" and args.heartbeat == 5000
        assert args.lifecycle_limit == 256 and args.top == 5
        # defaults: format resolved later (kanata), heartbeat/limit off
        args = build_parser().parse_args(["lifecycle"])
        assert args.trace_format is None and args.heartbeat == 0
        assert args.lifecycle_limit == 0 and args.top == 12

    def test_negative_heartbeat_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["lifecycle", "--heartbeat", "-1"])

    def test_kanata_format_only_for_lifecycle(self):
        with pytest.raises(SystemExit):
            main(["trace", "--format", "kanata"])

    def test_diff_positional_paths(self):
        args = build_parser().parse_args(["diff", "a.json", "b.json"])
        assert args.payload_a == "a.json" and args.payload_b == "b.json"

    def test_diff_requires_both_paths(self):
        for argv in (["diff"], ["diff", "a.json"]):
            with pytest.raises(SystemExit):
                main(argv)

    def test_runs_subcommands(self):
        for action in ("list", "show", "report"):
            args = build_parser().parse_args(["runs", action])
            assert args.command == "runs" and args.action == action
        # show/report take an optional run-id prefix
        args = build_parser().parse_args(["runs", "show", "18c2f"])
        assert args.action == "show" and args.prefix == "18c2f"
        assert build_parser().parse_args(["runs"]).action == "list"

    def test_runs_action_validated_in_main(self):
        with pytest.raises(SystemExit):
            main(["runs", "frobnicate"])
        with pytest.raises(SystemExit):
            main(["runs", "list", "someid"])

    def test_observability_flags(self):
        args = build_parser().parse_args(
            ["suite", "--orch-trace", "orch.json"])
        assert args.orch_trace == "orch.json"
        args = build_parser().parse_args(["runs", "list", "--limit", "5"])
        assert args.limit == 5
        assert build_parser().parse_args(["suite"]).orch_trace is None
        assert build_parser().parse_args(["runs"]).limit == 20

    def test_bad_limit_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["runs", "list", "--limit", "0"])


#: Every ``hidisc`` command line in .github/workflows/ci.yml, README.md,
#: EXPERIMENTS.md and the tests that spawn the CLI (job ids filled in).
PUBLIC_COMMAND_LINES = (
    "table1",
    "table1 --json /tmp/table1.json",
    "table2",
    "figure8",
    "figure9",
    "figure10",
    "figure8 --quick",
    "all",
    "all --json out.json",
    "all --json results/paper_scale.json",
    "all --quick --jobs 4",
    "all --jobs 0",
    "all --jobs 0 --verify --json out.json",
    "suite --quick --jobs 4",
    "suite --quick --jobs 0",
    "suite --sample",
    ("suite --quick --no-progress --jobs 2 --cache-dir /tmp/hidisc-cache "
     "--json /tmp/suite.json"),
    "suite --quick --no-progress --jobs 2 --cache-dir /tmp/hidisc-cache",
    ("suite --quick --no-progress --sample --cache-dir /tmp/hsmp --json "
     "/tmp/suite_sampled.json"),
    ("suite --quick --no-progress --sample --resume --cache-dir /tmp/hsmp "
     "--json /tmp/suite_resumed.json"),
    "suite --quick --no-progress --verify --jobs 2 --no-cache",
    ("suite --quick --no-progress --cache-dir /tmp/hc-kill --json "
     "/tmp/never.json"),
    ("suite --quick --no-progress --resume --cache-dir /tmp/hc-kill --json "
     "/tmp/resumed.json"),
    ("suite --quick --no-progress --jobs 2 --cache-dir /tmp/hl --orch-trace "
     "/tmp/orch-cold.json"),
    "suite --cache-dir /tmp/hc",
    "suite --quick --verify",
    "suite --quick --resume",
    "suite --quick --max-cycles 500000",
    "suite --quick --jobs 4 --orch-trace orch.json",
    "suite --quick",
    "suite --quick --resume --no-progress",
    "figure10 --jobs 4 --json /tmp/f10_full.json",
    "figure10 --jobs 4 --sample --json /tmp/f10_sampled.json",
    "figure10 --quick --jobs 2",
    "table2 --no-cache",
    "cache",
    "cache stats",
    "cache clear",
    "cache stats --cache-dir /tmp/hidisc-cache",
    "cache clear --cache-dir /tmp/hidisc-cache",
    "stats --quick --no-progress --bench field --model hidisc",
    "stats --quick --bench pointer --model hidisc",
    "stats --quick --bench pointer --json a.json",
    ("stats --bench raytrace --model hidisc --sample --sample-interval 4000 "
     "--sample-detail 1000 --sample-warmup 1000 --no-progress --json "
     "/tmp/samp_a.json"),
    ("trace --quick --no-progress --bench field --model hidisc --out "
     "/tmp/trace.json"),
    "trace --quick --bench pointer --out trace.json",
    "lifecycle --quick --bench pointer --out run.kanata",
    "lifecycle --quick --bench pointer --model hidisc --out run.kanata",
    ("lifecycle --quick --no-progress --bench field --model hidisc --out "
     "/tmp/a.kanata --json /tmp/a.json"),
    "lifecycle --quick --bench pointer --format chrome --out spans.json",
    "lifecycle --quick --bench pointer --format jsonl --out run.jsonl",
    "lifecycle --bench raytrace --lifecycle-limit 100000 --heartbeat 50000",
    "diff run_a.json run_b.json",
    "diff /tmp/samp_a.json /tmp/samp_b.json",
    "faults --quick",
    ("faults --quick --fault-seed 7 --fault-count 12 --fault-benches "
     "dm,raytrace"),
    ("faults --quick --no-progress --fault-benches dm,field --json "
     "/tmp/faults.json"),
    "bench",
    "bench --bench-filter timing",
    "runs list",
    "runs list --limit 5",
    "runs show",
    "runs show 18c2f",
    "runs report",
    "runs report 18c2f --json out.json",
    "runs list --cache-dir /tmp/hl",
    "runs show --cache-dir /tmp/hl",
    "runs report --cache-dir /tmp/hl",
    "fuzz --seed 2003 --runs 60 --no-progress --no-cache",
    "fuzz --seed 9000 --runs 40 --fuzz-size 40 --no-progress --no-cache",
    ("fuzz --seed 2003 --runs 12 --shrink --corpus /tmp/fuzz-corpus "
     "--inject-fault add-off-by-one --no-progress --no-cache --json "
     "/tmp/fuzz.json"),
    "fuzz --seed 2003 --runs 200",
    "fuzz --runs 50 --shrink --corpus corpus/",
    "fuzz --runs 12 --inject-fault add-off-by-one --shrink --corpus /tmp/c",
    "fuzz --runs 500 --fuzz-size 40",
    "serve --workers 2",
    "serve --workers 1 --lease-ttl 5 --retry-backoff 0.1",
    "serve --port 8213 --workers 1 --lease-ttl 5",
    "serve --port 0 --workers 1 --lease-ttl 1.5",
    "submit --quick --wait",
    "submit --benchmarks pointer,dm --modes superscalar,hidisc --quick",
    ("submit --benchmarks pointer --modes superscalar,hidisc --quick "
     "--cell-delay 0.5 --wait --no-progress"),
    ("submit --benchmarks pointer --modes superscalar,hidisc --quick --wait "
     "--no-progress"),
    "jobs",
    "jobs 18c2f --follow",
    "jobs top",
    "jobs top --iterations 2 --interval 0.2",
    "jobs trace 18c2f",
    "jobs trace 18c2f --out /tmp/job_trace.json",
    "cancel 18c2f",
)

#: Each flag's default (unchanged since the flat parser).
FLAG_DEFAULTS = {
    "json": None, "no_progress": False, "orch_trace": None,
    "cache_dir": None, "no_cache": False, "max_cycles": None,
    "seed": 2003, "quick": False, "jobs": 1, "resume": False,
    "verify": False, "sample": False, "sample_interval": None,
    "sample_detail": None, "sample_warmup": None,
    "sample_error_budget": None, "sample_seed": None,
    "bench": "pointer", "model": "hidisc", "occupancy_interval": 128,
    "heartbeat": 0, "lifecycle_limit": 0, "top": 12, "out": None,
    "trace_format": None, "fault_seed": 2003, "fault_count": 8,
    "fault_benches": None, "runs": 50, "fuzz_size": 24, "shrink": False,
    "corpus": None, "inject_fault": None, "host": "127.0.0.1",
    "port": 8203, "url": None, "workers": 2, "lease_ttl": 30.0,
    "max_depth": 64, "job_attempts": 3, "retry_backoff": 0.5,
    "drain_grace": 30.0, "benchmarks": None, "modes": None,
    "cell_delay": 0.0, "follow": False, "wait": False, "interval": 2.0,
    "iterations": 0, "limit": 20, "bench_filter": None, "bench_dir": None,
}

#: Per-command positionals, in order, with their defaults.
POSITIONALS = {
    "cache": {"action": "stats"},
    "runs": {"action": "list", "prefix": None},
    "diff": {"payload_a": None, "payload_b": None},
    "jobs": {"job": None, "trace_job": None},
    "cancel": {"job_id": None},
}

SWITCHES = {"--quick", "--no-progress", "--no-cache", "--verify",
            "--resume", "--sample", "--shrink", "--wait", "--follow"}


def _given(argv):
    """The values a command line spells out, read off its tokens."""
    def scalar(text):
        for convert in (int, float):
            try:
                return convert(text)
            except ValueError:
                pass
        return text

    tokens = list(argv[1:])
    positionals = iter(POSITIONALS.get(argv[0], {}))
    values = {}
    while tokens:
        token = tokens.pop(0)
        dest = ("trace_format" if token == "--format"
                else token[2:].replace("-", "_"))
        if token in SWITCHES:
            values[dest] = True
        elif token.startswith("--"):
            values[dest] = scalar(tokens.pop(0))
        else:
            values[next(positionals)] = token
    return values


class TestPublicSurface:
    @pytest.mark.parametrize("line", PUBLIC_COMMAND_LINES)
    def test_documented_command_line_parses_unchanged(self, line):
        argv = line.split()
        parser = build_parser()
        args = parser.parse_args(argv)
        _check_values(parser, args)
        parsed = {key: value for key, value in vars(args).items()
                  if key not in ("command", "handler", "ledger",
                                 "interruptible")}
        given = _given(argv)
        defaults = {**FLAG_DEFAULTS, **POSITIONALS.get(argv[0], {})}
        assert args.command == argv[0]
        assert set(given) <= set(parsed)
        assert parsed == {key: given.get(key, defaults[key])
                          for key in parsed}

    @pytest.mark.parametrize("line", [
        "table1 --lease-ttl 2",
        "suite --bench dm",
        "table1 --resume",
        "serve --no-cache",
        "trace --format kanata",
        "faults --sample",
        "stats --limit 3",
    ])
    def test_inapplicable_flag_exits_2(self, line, capsys):
        with pytest.raises(SystemExit) as exc:
            main(line.split())
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err


class TestExecution:
    def test_table1_runs(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out and "bimodal" in out

    def test_table1_json(self, capsys, tmp_path):
        # regression: --json used to be silently ignored for table1
        json_path = tmp_path / "t1.json"
        assert main(["table1", "--json", str(json_path)]) == 0
        capsys.readouterr()
        payload = json.loads(json_path.read_text())
        rows = payload["table1"]
        assert rows and all(len(row) == 2 for row in rows)
        assert any("bimodal" in str(v) for row in rows for v in row)

    def test_stats_quick(self, capsys, tmp_path):
        json_path = tmp_path / "stats.json"
        assert main(["stats", "--quick", "--no-progress", "--bench", "field",
                     "--model", "hidisc", "--json", str(json_path)]) == 0
        out = capsys.readouterr().out
        assert "CPI stack" in out and "components sum to cycles" in out
        payload = json.loads(json_path.read_text())["stats"]
        cycles = payload["cycles"]
        stacks = payload["cpi_stacks"]
        assert set(stacks) == {"CP", "AP", "CMP"}
        for stack in stacks.values():
            assert sum(stack.values()) == cycles
        assert payload["samples"], "sampler timeseries missing"

    def test_trace_quick(self, capsys, tmp_path):
        out_path = tmp_path / "trace.json"
        assert main(["trace", "--quick", "--no-progress", "--bench", "field",
                     "--model", "superscalar", "--out", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "trace written to" in out and "perfetto" in out
        doc = json.loads(out_path.read_text())
        events = doc["traceEvents"]
        assert any(e["ph"] == "X" for e in events)
        assert any(e["ph"] == "C" for e in events)

    def test_lifecycle_quick_kanata(self, capsys, tmp_path):
        out_path = tmp_path / "run.kanata"
        json_path = tmp_path / "life.json"
        assert main(["lifecycle", "--quick", "--no-progress",
                     "--bench", "field", "--model", "superscalar",
                     "--out", str(out_path), "--json", str(json_path),
                     "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "Konata" in out and "Critical-path attribution" in out
        lines = out_path.read_text().splitlines()
        assert lines[0] == "Kanata\t0004"
        assert all(l.split("\t", 1)[0] in
                   {"Kanata", "C=", "C", "I", "L", "S", "E", "R"}
                   for l in lines)
        payload = json.loads(json_path.read_text())["lifecycle"]
        assert payload["benchmark"] == "field"
        assert payload["captured"] == len(payload["records"])
        assert payload["dropped"] == 0
        assert len(payload["critical_path"]) <= 3

    def test_lifecycle_quick_jsonl_with_limit(self, capsys, tmp_path):
        out_path = tmp_path / "run.jsonl"
        assert main(["lifecycle", "--quick", "--no-progress",
                     "--bench", "field", "--model", "superscalar",
                     "--format", "jsonl", "--out", str(out_path),
                     "--lifecycle-limit", "64"]) == 0
        capsys.readouterr()
        rows = [json.loads(l) for l in
                out_path.read_text().splitlines() if l]
        assert rows, "JSONL stream is empty"
        # the stream got every commit even though the ring kept only 64
        assert len(rows) > 64
        assert all(r["fetch"] <= r["commit"] for r in rows)

    def test_cache_stats_and_clear(self, capsys, tmp_path):
        cache_dir = tmp_path / "cache"
        assert main(["cache", "--cache-dir", str(cache_dir)]) == 0
        out = capsys.readouterr().out
        assert "0 entries" in out

        # a cached compile shows up in stats, and clear removes it
        assert main(["stats", "--quick", "--no-progress", "--bench", "field",
                     "--model", "superscalar",
                     "--cache-dir", str(cache_dir)]) == 0
        capsys.readouterr()
        json_path = tmp_path / "cache.json"
        assert main(["cache", "stats", "--cache-dir", str(cache_dir),
                     "--json", str(json_path)]) == 0
        assert "1 entries" in capsys.readouterr().out
        assert json.loads(json_path.read_text())["cache"]["entries"] == 1
        assert main(["cache", "clear", "--cache-dir", str(cache_dir)]) == 0
        assert "1 entries removed" in capsys.readouterr().out
        assert main(["cache", "stats", "--cache-dir", str(cache_dir)]) == 0
        assert "0 entries" in capsys.readouterr().out

    def test_jobs_trace_unknown_job_exits_2(self, capsys, tmp_path):
        assert main(["jobs", "trace", "nosuch",
                     "--cache-dir", str(tmp_path)]) == 2
        assert "hidisc jobs: unknown job 'nosuch'" in capsys.readouterr().err

    def test_stats_reuses_cached_compile(self, capsys, tmp_path,
                                         monkeypatch):
        cache_dir = tmp_path / "cache"
        common = ["stats", "--quick", "--no-progress", "--bench", "field",
                  "--model", "superscalar", "--cache-dir", str(cache_dir)]
        assert main(common) == 0
        capsys.readouterr()

        import repro.experiments.runner as runner_mod

        def forbidden(workload, config, verify=True):
            raise AssertionError("prepare() called despite a warm cache")

        monkeypatch.setattr(runner_mod, "prepare", forbidden)
        assert main(common) == 0
        assert "CPI stack" in capsys.readouterr().out

    def test_figure10_quick_with_json(self, capsys, tmp_path, monkeypatch):
        # restrict the sweep via monkeypatching to keep this test fast
        import repro.experiments.cli as cli_mod

        original = cli_mod.figure10

        def tiny_figure10(config, quick, seed, progress, compiled=None,
                          **kwargs):
            return original(config, quick=quick, seed=seed,
                            benchmarks=("field",),
                            latencies=((12, 120),), progress=progress,
                            compiled=compiled, **kwargs)

        monkeypatch.setattr(cli_mod, "figure10", tiny_figure10)
        json_path = tmp_path / "out.json"
        assert main(["figure10", "--quick", "--no-progress",
                     "--json", str(json_path)]) == 0
        out = capsys.readouterr().out
        assert "Figure 10" in out
        payload = json.loads(json_path.read_text())
        assert "figure10" in payload
        assert payload["figure10"]["ipc"]["field"]["hidisc"][0] > 0
