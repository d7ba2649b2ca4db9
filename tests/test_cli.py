"""Tests for the command-line interface."""

import pytest

from repro.cli import _service_config, build_parser, main

PROGRAM = """
global @flag : i32 = 0
global @acc : i32 = 0
global @hits : i32 = 0

func @main() -> i32 {
entry:
  br %loop
loop:
  %i = phi i32 [0, %entry], [%i2, %latch]
  %f = load i32* @flag
  %c = icmp ne i32 %f, 0
  condbr i1 %c, %rare, %common
rare:
  store i32 1, i32* @hits
  br %join
common:
  br %join
join:
  %a = load i32* @acc
  %a2 = add i32 %a, %i
  store i32 %a2, i32* @acc
  br %latch
latch:
  %i2 = add i32 %i, 1
  %lc = icmp slt i32 %i2, 60
  condbr i1 %lc, %loop, %exit
exit:
  %r = load i32* @acc
  ret i32 %r
}
"""


@pytest.fixture
def program(tmp_path):
    path = tmp_path / "program.ir"
    path.write_text(PROGRAM)
    return str(path)


class TestRun:
    def test_executes_and_prints_result(self, program, capsys):
        assert main(["run", program]) == 0
        out = capsys.readouterr().out
        assert f"result: {sum(range(60))}" in out
        assert "instructions executed" in out


class TestFmt:
    def test_round_trips(self, program, capsys, tmp_path):
        assert main(["fmt", program]) == 0
        out = capsys.readouterr().out
        # The printed form must itself parse and verify.
        from repro.ir import parse_module, verify_module
        verify_module(parse_module(out))

    def test_bad_file_raises(self, tmp_path):
        bad = tmp_path / "bad.ir"
        bad.write_text("func @broken( {")
        with pytest.raises(Exception):
            main(["fmt", str(bad)])


class TestProfile:
    def test_reports_hot_loops_and_dead_blocks(self, program, capsys):
        assert main(["profile", program]) == 0
        out = capsys.readouterr().out
        assert "hot loops (1)" in out
        assert "@main:%loop" in out
        assert "profile-dead blocks in @main: %rare" in out
        assert "predictable loads" in out


class TestAnalyze:
    def test_scaf_coverage(self, program, capsys):
        assert main(["analyze", program]) == 0
        out = capsys.readouterr().out
        assert "%NoDep" in out
        assert "[scaf]" in out

    def test_system_selection(self, program, capsys):
        assert main(["analyze", program, "--system", "caf"]) == 0
        out = capsys.readouterr().out
        assert "[caf]" in out

    def test_deps_listing(self, program, capsys):
        assert main(["analyze", program, "--deps", "--all"]) == 0
        out = capsys.readouterr().out
        assert "[DEP" in out or "[removed" in out

    def test_scaf_beats_caf_here(self, program, capsys):
        main(["analyze", program, "--system", "caf"])
        caf_out = capsys.readouterr().out
        main(["analyze", program, "--system", "scaf"])
        scaf_out = capsys.readouterr().out

        def nodep(text):
            import re
            return float(re.search(r"%NoDep = ([\d.]+)", text).group(1))

        assert nodep(scaf_out) >= nodep(caf_out)

    def test_no_hot_loops_exit_code(self, tmp_path, capsys):
        trivial = tmp_path / "trivial.ir"
        trivial.write_text("""
func @main() -> i32 {
entry:
  ret i32 0
}
""")
        assert main(["analyze", str(trivial)]) == 1
        assert "no hot loops" in capsys.readouterr().out


# -- parser surface -----------------------------------------------------------

#: The three service commands, as parse_args argv prefixes.
SERVICE_COMMANDS = (["analyze", "f.ir"], ["batch"], ["serve"])

#: Defaults every service command shares (workers differs per command).
SERVICE_DEFAULTS = {
    "executor": "process", "cache_dir": None, "cache_l2": None,
    "timeout": None, "no_incremental": False, "prepared_cache_size": None,
    "no_cost_model": False, "trace": None, "trace_sample": 1,
    "no_compile": False,
}


class TestParserSurface:
    def test_service_flag_defaults(self):
        parser = build_parser()
        # Parse batch/serve first: their workers=4 default must not
        # leak into analyze, whose workers=None routes in-process.
        for argv, workers in ((["batch"], 4), (["serve"], 4),
                              (["analyze", "f.ir"], None)):
            args = parser.parse_args(argv)
            assert args.workers == workers, argv
            for dest, default in SERVICE_DEFAULTS.items():
                assert getattr(args, dest) == default, (argv, dest)

    @pytest.mark.parametrize("argv", SERVICE_COMMANDS)
    def test_service_flags_parse_alike(self, argv):
        args = build_parser().parse_args(argv + [
            "--workers", "2", "--executor", "thread", "--cache-dir", "d",
            "--cache-l2", "redis://h:1", "--timeout", "1.5",
            "--no-incremental", "--prepared-cache-size", "3",
            "--no-cost-model", "--trace", "t.json", "--trace-sample", "5",
            "--no-compile"])
        assert (args.workers, args.executor, args.cache_dir,
                args.cache_l2, args.timeout, args.no_incremental,
                args.prepared_cache_size, args.no_cost_model, args.trace,
                args.trace_sample, args.no_compile) == (
            2, "thread", "d", "redis://h:1", 1.5, True, 3, True,
            "t.json", 5, True)

    @pytest.mark.parametrize("argv", (["analyze", "f.ir"], ["batch"]))
    def test_queue_switch_is_gone(self, argv, capsys):
        """The work queue is the only fan-out: the old on/off switch
        (both its spellings) is now a usage error."""
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--queue"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            main(argv + ["--help"])
        assert "queue" not in capsys.readouterr().out

    def test_all_flag_on_analyze_batch_submit(self):
        parser = build_parser()
        for argv in (["analyze", "f.ir", "--all"], ["batch", "--all"],
                     ["submit", "--all"]):
            assert parser.parse_args(argv).all, argv

    def test_service_config_from_flags(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_L2", raising=False)
        parser = build_parser()
        config = _service_config(parser.parse_args(
            ["analyze", "f.ir", "--cache-dir", "d", "--timeout", "2",
             "--no-cost-model", "--no-incremental"]))
        assert config.workers == 4  # analyze: the service default
        assert config.cache_dir == "d"
        assert config.task_timeout_s == 2.0
        assert config.cost_model is False
        assert config.incremental is False
        serve = parser.parse_args(["serve", "--workers", "1",
                                   "--idle-ttl", "7"])
        config = _service_config(serve, idle_ttl_s=serve.idle_ttl)
        assert (config.workers, config.idle_ttl_s) == (1, 7.0)
