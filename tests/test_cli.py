import concurrent.futures
import contextlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fgkit.abelian as abelian
import fgkit.cli as cli
import fgkit.family as family
import fgkit.words as words
from fgkit.cli import main
from fgkit.family import FamilyParams, VerificationReport


GOLDEN = Path(__file__).with_name("golden")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def recording_pool(started, broken=None):
    """A stand-in for ``ProcessPoolExecutor`` that starts no process: it
    appends each pool's size to ``started`` and maps in process, or fails
    the way a pool whose worker died does: from ``map`` when ``broken`` is
    "map", or, as the real pool's ``map`` does once it has submitted every
    job, from the result iterator when ``broken`` is "results"."""

    class RecordingPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            if broken == "map":
                raise BrokenProcessPool("a worker process died")
            if broken == "results":
                return dead_results()
            return map(fn, jobs)

    def dead_results():
        raise BrokenProcessPool("a worker process died")
        yield  # a generator, so it raises when the first result is read

    return RecordingPool


def usable_cpus(monkeypatch, n):
    """Let the process use ``n`` CPUs: its affinity mask where the platform
    has one, else the machine's count; ``None`` is an unknown count on a
    platform with no mask."""
    if n is None:
        monkeypatch.delattr(cli.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
    else:
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def test_per_l_caches_hold_a_whole_l_list():
    # a sweep's --l-list holds at most this many values, and each l keeps
    # one closed-form and one shuffle verdict and one quotient order
    assert cli._MAX_LIST_VALUES == family._PER_L


class TestWordCommand:
    def test_reduce_to_identity(self, capsys):
        code, out, _ = run(capsys, "word", "reduce", "y1 y1^-1")
        assert code == 0
        assert out.strip() == "1"

    def test_canon_rotation_invariant(self, capsys):
        code_a, out_a, _ = run(capsys, "word", "canon", "y1 y2")
        code_b, out_b, _ = run(capsys, "word", "canon", "y2 y1")
        assert code_a == code_b == 0
        assert out_a == out_b

    def test_canon_unoriented_by_default(self, capsys):
        _, out_a, _ = run(capsys, "word", "canon", "y1 y2")
        _, out_b, _ = run(capsys, "word", "canon", "y2^-1 y1^-1")
        assert out_a == out_b

    def test_canon_oriented_flag(self, capsys):
        _, out_a, _ = run(capsys, "word", "canon", "--oriented", "y1 y2")
        _, out_b, _ = run(capsys, "word", "canon", "--oriented", "y2^-1 y1^-1")
        assert out_a != out_b

    def test_concat(self, capsys):
        code, out, _ = run(capsys, "word", "concat", "y1 y2 y3", "y3^-1 y2^-1")
        assert code == 0
        assert out.strip() == "y1"

    @pytest.mark.parametrize(
        "texts,expected", [(("1", "y1"), "y1"), (("y1", " 1 ", "y1"), "y1^2"), (("1", "1"), "1")]
    )
    def test_concat_identity_operands(self, capsys, texts, expected):
        code, out, _ = run(capsys, "word", "concat", *texts)
        assert (code, out) == (0, expected + "\n")

    def test_concat_total_is_bounded(self, capsys):
        # each operand is within the limit, their total is not
        code, out, err = run(capsys, "word", "concat", "y1^2097153", "y1^2097153")
        assert (code, out) == (2, "")
        assert err == "error: word spells 4194306 letters; the limit is 4194304\n"

    def test_invert(self, capsys):
        code, out, _ = run(capsys, "word", "invert", "y3^-3 y2^-5 y1^3")
        assert code == 0
        assert out.strip() == "y1^-3 y2^5 y3^3"

    def test_cyclic(self, capsys):
        code, out, _ = run(capsys, "word", "cyclic", "y1 y2 y1^-1")
        assert code == 0
        assert out.strip() == "y2"

    def test_custom_alphabet(self, capsys):
        code, out, _ = run(capsys, "word", "reduce", "a b b^-1", "--alphabet", "a,b")
        assert code == 0
        assert out.strip() == "a"

    def test_parse_error_names_token(self, capsys):
        code, _, err = run(capsys, "word", "reduce", "y1 bogus")
        assert code == 2
        assert "bogus" in err
        assert len(err.strip().splitlines()) == 1

    def test_concat_arity_checked(self, capsys):
        code, _, err = run(capsys, "word", "concat", "y1")
        assert code == 2
        assert err == "error: concat needs at least two words\n"

    def test_single_word_arity_checked(self, capsys):
        code, _, err = run(capsys, "word", "invert", "y1", "y2")
        assert code == 2
        assert err == "error: invert takes exactly one word\n"

    def test_bad_alphabet(self, capsys):
        code, _, err = run(capsys, "word", "reduce", "y1", "--alphabet", "a,a")
        assert code == 2

    def test_alphabet_rank_bound(self, capsys, monkeypatch):
        # the real bound, 557,055 names, does not fit in one argument
        monkeypatch.setattr(words, "_MAX_RANK", 2)
        code, out, _ = run(capsys, "word", "canon", "y2 y1^-1", "--alphabet", "y1,y2")
        assert (code, out) == (0, "y1 y2^-1\n")
        code, out, err = run(capsys, "word", "reduce", "y1", "--alphabet", "y1,y2,y3")
        assert (code, out) == (2, "")
        assert err == "error: alphabet has 3 generators; the limit is 2\n"


class TestVerifyCommand:
    def test_success_json(self, capsys):
        code, out, err = run(capsys, "verify", "--g", "2", "--l", "3")
        assert code == 0
        data = json.loads(out)
        assert data["schema"] == "fgkit-report/1"
        assert data["injective"] is True
        assert data["image_rank"] == 4
        assert data["quotient_order"] == 24
        assert "WARNING" in err  # quotient order differs from the reference value

    def test_odd_genus_is_usage_error(self, capsys):
        code, _, err = run(capsys, "verify", "--g", "3", "--l", "3")
        assert code == 2
        assert "g must be even" in err

    def test_small_l_is_usage_error(self, capsys):
        code, _, err = run(capsys, "verify", "--g", "2", "--l", "2")
        assert code == 2
        assert "l must be >= 3" in err

    def test_csv_format_is_the_sweeps_row(self, capsys):
        # the golden sweep's header and (2, 3) row, byte for byte; CSV
        # carries no timings, so none are stripped
        code, out, _ = run(capsys, "verify", "--g", "2", "--l", "3", "--format", "csv")
        golden = (GOLDEN / "sweep_default.csv").read_bytes().splitlines(keepends=True)
        assert code == 0
        assert golden[1].startswith(b"report,2,3,")
        assert out.encode() == golden[0] + golden[1]

    def test_table_format(self, capsys):
        code, out, _ = run(capsys, "verify", "--g", "2", "--l", "3", "--format", "table")
        assert code == 0
        assert out == (
            "  g   l  inj  rank  closed  ident  block  quotient   ref  match  pass\n"
            "---------------------------------------------------------------------\n"
            "  2   3  yes     4     yes    yes    yes        24    16     NO   yes\n"
        )

    def test_infinite_quotient_in_every_format(self, capsys, monkeypatch):
        real = cli.verify

        def infinite(params):
            report = real(params)
            report.quotient_order = abelian.INFINITE
            return report

        monkeypatch.setattr(cli, "verify", infinite)
        argv = ("verify", "--g", "2", "--l", "3", "--no-timings", "--format")
        code, out, _ = run(capsys, *argv, "table")
        assert code == 1
        assert out.splitlines()[2] == (
            "  2   3  yes     4     yes    yes    yes       INF    16     NO    NO"
        )
        assert run(capsys, *argv, "csv")[1].splitlines()[1].startswith(
            "report,2,3,True,4,True,True,True,INFINITE,16,False,False,"
        )
        assert json.loads(run(capsys, *argv, "json")[1])["quotient_order"] == "INFINITE"

    def test_math_failure_gives_exit_one(self, capsys, monkeypatch):
        real = cli.verify

        def failing(params):
            report = real(params)
            report.injective = False
            return report

        monkeypatch.setattr(cli, "verify", failing)
        code, out, _ = run(capsys, "verify", "--g", "2", "--l", "3")
        assert code == 1
        assert json.loads(out)["hard_pass"] is False

    def test_unwritable_out_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "missing" / "report.json"
        code, out, err = run(capsys, "verify", "--g", "2", "--l", "3", "--out", str(path))
        assert code == 2
        assert out == ""
        assert err.splitlines()[-1].startswith("error: ")
        assert "Traceback" not in err

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out, _ = run(capsys, "verify", "--g", "2", "--l", "3", "--out", str(path))
        assert code == 0
        assert out == ""
        assert json.loads(path.read_text())["params"] == {"g": 2, "l": 3}


class TestSweepCommand:
    def test_rows_and_distinctness(self, capsys):
        code, out, _ = run(
            capsys,
            "sweep", "--g-list", "2", "--l-list", "3,4,5", "--format", "table",
            "--no-timings",
        )
        assert code == 0
        lines = out.strip().splitlines()
        # header, separator, three report rows, one distinctness row
        assert len(lines) == 6
        assert lines[-1].startswith("distinctness g=2")

    def test_json_payload(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--g-list", "2", "--l-list", "3,4", "--no-timings"
        )
        assert code == 0
        data = json.loads(out)
        assert data["schema"] == "fgkit-report/1"
        assert data["ok"] is True
        assert [r["params"]["l"] for r in data["reports"]] == [3, 4]
        assert data["distinctness"][0]["distinct_unoriented"] is True
        assert data["distinctness"][0]["distinct_oriented"] is True
        assert "timings" not in data["reports"][0]

    def test_reports_sorted_by_g_then_l(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--g-list", "4,2", "--l-list", "4,3", "--no-timings"
        )
        assert code == 0
        data = json.loads(out)
        assert data["grid"] == {"g_values": [4, 2], "l_values": [4, 3]}
        assert [(r["params"]["g"], r["params"]["l"]) for r in data["reports"]] == [
            (2, 3), (2, 4), (4, 3), (4, 4)
        ]
        assert [(row["g"], row["l_values"]) for row in data["distinctness"]] == [
            (2, [3, 4]), (4, [3, 4])
        ]

    def test_parallel_output_is_byte_identical(self, capsys, tmp_path):
        serial = tmp_path / "serial.json"
        parallel = tmp_path / "parallel.json"
        code_a, _, _ = run(
            capsys, "sweep", "--g-list", "2", "--l-list", "3,4,5",
            "--no-timings", "--parallel", "1", "--out", str(serial),
        )
        code_b, _, _ = run(
            capsys, "sweep", "--g-list", "2", "--l-list", "3,4,5",
            "--no-timings", "--parallel", "8", "--out", str(parallel),
        )
        assert code_a == code_b == 0
        assert serial.read_bytes() == parallel.read_bytes()

    def test_parallel_is_clamped_to_the_jobs(self, capsys, monkeypatch):
        started = []
        monkeypatch.setattr(
            concurrent.futures, "ProcessPoolExecutor", recording_pool(started)
        )
        usable_cpus(monkeypatch, 8)
        argv = ("sweep", "--g-list", "2", "--l-list", "3,4", "--no-timings", "--parallel", "64")
        code, _, _ = run(capsys, *argv)
        assert code == 0
        assert started == [2]
        # one CPU (or an unknown count) means serial: no pool at all
        for cpus in (1, None):
            usable_cpus(monkeypatch, cpus)
            assert run(capsys, *argv)[0] == 0
        assert started == [2]

    def test_pool_counts_only_the_cpus_the_process_may_use(self, capsys, monkeypatch):
        # pinned to one CPU of eight (taskset -c 0): no pool, however many
        # workers are asked for
        started = []
        monkeypatch.setattr(
            concurrent.futures, "ProcessPoolExecutor", recording_pool(started)
        )
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 8)
        usable_cpus(monkeypatch, 1)
        argv = ("sweep", "--g-list", "2", "--l-list", "3,4", "--no-timings", "--parallel", "2")
        assert run(capsys, *argv)[0] == 0
        assert started == []
        # where the platform has no affinity mask, the machine's count
        monkeypatch.delattr(cli.os, "sched_getaffinity", raising=False)
        assert run(capsys, *argv)[0] == 0
        assert started == [2]

    def test_worker_crash_falls_back_to_serial(self, capsys, monkeypatch):
        argv = ("sweep", "--g-list", "2", "--l-list", "3,4", "--no-timings")
        code, serial_out, serial_err = run(capsys, *argv)
        assert code == 0
        usable_cpus(monkeypatch, 8)
        # the worker dies as map starts it, or, as with the real pool, while
        # the results are read
        for broken in ("map", "results"):
            started = []
            monkeypatch.setattr(
                concurrent.futures, "ProcessPoolExecutor", recording_pool(started, broken)
            )
            code, out, err = run(capsys, *argv, "--parallel", "2")
            assert code == 0
            assert started == [2]
            assert out == serial_out
            assert err == "note: falling back to serial execution (a worker process died)\n" + serial_err

    def test_pool_that_cannot_start_falls_back_to_serial(self, capsys, monkeypatch):
        argv = ("sweep", "--g-list", "2", "--l-list", "3,4", "--no-timings")
        code, serial_out, serial_err = run(capsys, *argv)
        assert code == 0

        def refuse(max_workers):
            raise PermissionError("no semaphores")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
        usable_cpus(monkeypatch, 8)
        code, out, err = run(capsys, *argv, "--parallel", "2")
        assert code == 0
        assert out == serial_out
        assert err == "note: falling back to serial execution (no semaphores)\n" + serial_err

    def test_a_jobs_os_error_surfaces_once(self, capsys, monkeypatch):
        # TimeoutError is an OSError, but the job raised it, not the pool
        verified = []

        def timing_out(params):
            verified.append((params.g, params.l))
            raise TimeoutError(f"g={params.g} l={params.l} timed out")

        started = []
        monkeypatch.setattr(cli, "verify", timing_out)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", recording_pool(started))
        usable_cpus(monkeypatch, 8)
        argv = ("sweep", "--g-list", "2", "--l-list", "3,4", "--no-timings", "--parallel", "2")
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert started == [2]
        assert out == ""
        assert err == "error: g=2 l=3 timed out\n"
        assert len(verified) == len(set(verified)) == 1

    @pytest.mark.parametrize("fmt", ["json", "csv", "table"])
    def test_default_grid_matches_golden(self, capsys, tmp_path, fmt):
        path = tmp_path / f"sweep.{fmt}"
        code, _, _ = run(
            capsys, "sweep", "--no-timings", "--format", fmt, "--out", str(path)
        )
        assert code == 0
        assert path.read_bytes() == (GOLDEN / f"sweep_default.{fmt}").read_bytes()

    @pytest.mark.parametrize("seed", ["0", "1"])
    def test_output_does_not_depend_on_string_hashing(self, seed):
        # words hash their str codes, and str hashes are salted per process
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONHASHSEED": seed}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "fgkit.cli", "sweep", "--no-timings", "--format", "json"],
            env=env, capture_output=True, check=True,
        )
        assert proc.stdout == (GOLDEN / "sweep_default.json").read_bytes()

    def test_range_syntax(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--g-list", "2", "--l-list", "3..5", "--no-timings"
        )
        assert code == 0
        assert [r["params"]["l"] for r in json.loads(out)["reports"]] == [3, 4, 5]

    def test_empty_l_list(self, capsys):
        code, _, err = run(capsys, "sweep", "--g-list", "2", "--l-list", "")
        assert code == 2
        assert "empty l list" in err

    def test_huge_range_refused_before_expansion(self, capsys):
        code, out, err = run(capsys, "sweep", "--g-list", "2", "--l-list", "3..10000000000")
        assert code == 2
        assert out == ""
        assert err == "error: l list has 9999999998 values; the limit is 4096\n"

    @pytest.mark.parametrize(
        "l_list,value", [("3,3", 3), ("3..5,4", 4), ("3..10000000000,5", 5), ("6,5..3,6", 6)]
    )
    def test_repeated_value_is_usage_error(self, capsys, l_list, value):
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "sweep", "--g-list", "2", "--l-list", l_list)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert out == ""
        assert err == f"error: l list repeats the value {value}\n"
        assert peak < 1 << 20  # no range was expanded

    def test_empty_range_repeats_nothing(self):
        assert cli._int_list("5..3,4,3", (), "l", distinct=True) == [4, 3]

    def test_list_bound_counts_every_chunk(self, monkeypatch):
        monkeypatch.setattr(cli, "_MAX_LIST_VALUES", 3)
        assert cli._int_list("3..4,9", (), "l") == [3, 4, 9]
        with pytest.raises(ValueError, match="4 values; the limit is 3"):
            cli._int_list("3..4,8,9", (), "l")

    def test_non_integer_grid_value(self, capsys):
        code, out, err = run(capsys, "sweep", "--g-list", "x", "--l-list", "3")
        assert code == 2
        assert out == ""
        assert err == "error: not an integer or a..b range: 'x'\n"

    def test_invalid_grid_value(self, capsys):
        code, _, err = run(capsys, "sweep", "--g-list", "2,3", "--l-list", "3")
        assert code == 2
        assert "g must be even" in err

    def test_csv_format(self, capsys):
        code, out, _ = run(
            capsys,
            "sweep", "--g-list", "2", "--l-list", "3,4", "--format", "csv",
            "--no-timings",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("kind,g,l,injective")
        assert len(lines) == 4  # header + 2 reports + 1 distinctness
        assert lines[1].startswith("report,2,3")
        assert lines[-1].startswith("distinctness,2,3;4")

    def test_grid_over_budget_is_refused_before_any_job(self, capsys, monkeypatch):
        def refuse(params):
            raise AssertionError("verify reached")

        monkeypatch.setattr(cli, "verify", refuse)
        evens = ",".join(str(g) for g in range(2, 317, 2))
        code, out, err = run(capsys, "sweep", "--g-list", evens, "--l-list", "3..12")
        assert code == 2
        assert out == ""
        assert err == "error: the grid's boundary images may have more than 16777216 letters\n"
        # checked before the points, so an odd g does not hide the size
        code, _, err = run(capsys, "sweep", "--g-list", "2..316", "--l-list", "3..12")
        assert code == 2
        assert err.startswith("error: the grid's boundary images")

    def test_grid_budget_stops_early_on_any_values(self, capsys, monkeypatch):
        # every point of this grid is invalid and its bound is negative, so
        # a plain sum would walk all 4096 x 4096 points
        calls = []
        real = cli._boundary_letters_bound

        def counting(g, l):
            calls.append((g, l))
            return real(g, l)

        monkeypatch.setattr(cli, "_boundary_letters_bound", counting)
        code, _, err = run(capsys, "sweep", "--g-list", "2..4097", "--l-list=-5000..-905")
        assert code == 2
        assert err == "error: the grid's boundary images may have more than 16777216 letters\n"
        assert len(calls) <= (1 << 24) // 88 + 2

    def test_grid_budget_is_inclusive(self, capsys, monkeypatch):
        # g = 2 at l = 3, 4: 88 + 92 letters
        monkeypatch.setattr(cli, "_MAX_GRID_LETTERS", 180)
        argv = ("sweep", "--g-list", "2", "--l-list", "3,4", "--no-timings")
        assert run(capsys, *argv)[0] == 0
        monkeypatch.setattr(cli, "_MAX_GRID_LETTERS", 179)
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert err == "error: the grid's boundary images may have more than 179 letters\n"

    def test_budget_admits_the_default_grid_and_a_genus_ladder(self):
        from fgkit.family import _boundary_letters_bound

        default = sum(_boundary_letters_bound(g, l) for g in (2, 4, 6, 8) for l in range(3, 13))
        ladder = sum(_boundary_letters_bound(g, 12) for g in range(2, 129, 2))
        assert (default, ladder) == (37000, 14934400)
        assert ladder <= cli._MAX_GRID_LETTERS

    def test_order_mismatch_is_one_warning_line(self, capsys):
        code, out, err = run(
            capsys, "sweep", "--g-list", "2,4", "--l-list", "3,4", "--no-timings"
        )
        assert code == 0
        assert err == (
            "WARNING: quotient order != reference closed form at 4 points, "
            "first g=2 l=3 (24 != 16); each is 12(l-1) != 4l+4, equal only at l = 2\n"
        )
        # the report bodies still carry each point's own warning
        warnings = [r["warnings"] for r in json.loads(out)["reports"]]
        assert warnings == [
            [f"quotient order {12 * (l - 1)} != reference closed form {4 * l + 4}"]
            for _ in (2, 4) for l in (3, 4)
        ]

    def test_other_warnings_stay_per_point(self, capsys, monkeypatch):
        real = cli.verify

        def changed(params):
            report = real(params)
            if params.l == 4:
                report.reference_order_match = True
                report.warnings = ["something else"]
            if params.l == 5:
                report.quotient_order = 7
            return report

        monkeypatch.setattr(cli, "verify", changed)
        code, _, err = run(
            capsys, "sweep", "--g-list", "2", "--l-list", "3,4,5", "--no-timings"
        )
        assert code == 0
        # not every mismatch is 12(l - 1), so no derivation is claimed
        assert err.splitlines() == [
            "WARNING: g=2 l=4: something else",
            "WARNING: quotient order != reference closed form at 2 points, "
            "first g=2 l=3 (24 != 16)",
        ]

    def test_failure_still_emits_report(self, capsys, monkeypatch):
        real = cli.verify

        def failing(params):
            report = real(params)
            if params.l == 4:
                report.closed_form_ok = False
            return report

        monkeypatch.setattr(cli, "verify", failing)
        code, out, _ = run(
            capsys, "sweep", "--g-list", "2", "--l-list", "3,4", "--no-timings"
        )
        assert code == 1
        data = json.loads(out)
        assert data["ok"] is False
        assert len(data["reports"]) == 2


class TestIdentitiesCommand:
    def test_trivial_bounds(self, capsys):
        code, out, _ = run(capsys, "identities", "--i-max", "0", "--j-max", "0", "--l-list", "3")
        assert code == 0
        assert out.startswith("OK")

    def test_zero_bound_names_the_grid(self, capsys):
        # with a zero bound the certificate is not reached, so the OK line
        # claims only the grid that was walked
        code, out, _ = run(capsys, "identities", "--i-max", "5", "--j-max", "0", "--l-list", "3")
        assert code == 0
        assert out == "OK: all identity branches hold for i<=5, j<=0, l in [3]\n"

    def test_default_grid(self, capsys):
        code, _, _ = run(capsys, "identities", "--i-max", "6", "--j-max", "6", "--l-list", "3..12")
        assert code == 0

    def test_negative_bound(self, capsys):
        code, _, err = run(capsys, "identities", "--i-max", "-1", "--j-max", "0")
        assert code == 2

    def test_small_l_rejected(self, capsys):
        code, _, err = run(capsys, "identities", "--l-list", "2")
        assert code == 2

    @pytest.mark.parametrize("l_list,values", [("3,3", [3, 3]), ("3..5,4", [3, 4, 5, 4])])
    def test_repeated_value_is_accepted(self, capsys, l_list, values):
        # identities compares nothing across l, so a repeat does no harm
        code, out, err = run(capsys, "identities", "--l-list", l_list)
        assert code == 0
        assert err == ""
        assert out == f"OK: all identity branches hold for all i, j >= 0, l in {values}\n"

    def test_huge_bound_is_free(self, capsys, monkeypatch):
        # the three equalities are products; a power would mean a walk
        def no_power(self, n):
            raise AssertionError("Word.__pow__ called")

        monkeypatch.setattr(words.Word, "__pow__", no_power)
        code, out, _ = run(
            capsys, "identities", "--i-max", "1000000000", "--j-max", "1000000000",
            "--l-list", "3..12",
        )
        assert code == 0
        assert out == (
            "OK: all identity branches hold for all i, j >= 0, "
            "l in [3, 4, 5, 6, 7, 8, 9, 10, 11, 12]\n"
        )

    @pytest.mark.parametrize("l", [4_194_299, 4_611_686_018_427_387_904])
    def test_huge_l_refused_before_building(self, capsys, l):
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "identities", "--l-list", str(l))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (2, "")
        assert err == (
            f"error: l={l}: the shuffle word v has {l + 6} letters; "
            "the limit is 4194304\n"
        )
        assert peak < 1 << 20  # v was not built

    def test_failure_reports_quadruple(self, capsys, monkeypatch):
        monkeypatch.setattr(
            cli, "first_shuffle_failure", lambda i, j, l: ("first:i>j", 2, 1)
        )
        code, out, _ = run(capsys, "identities", "--l-list", "3,4")
        assert code == 1
        assert "branch=first:i>j" in out
        assert "i=2" in out and "j=1" in out and "l=3" in out


class TestUsage:
    def test_unknown_command(self, capsys):
        assert main(["bogus"]) == 2

    def test_unknown_flag(self, capsys):
        assert main(["verify", "--g", "2", "--l", "3", "--bogus"]) == 2

    def test_missing_required(self, capsys):
        assert main(["verify", "--g", "2"]) == 2

    def test_seed_flag_removed(self, capsys):
        assert main(["verify", "--g", "2", "--l", "3", "--seed", "7"]) == 2
        assert main(["sweep", "--g-list", "2", "--l-list", "3", "--seed", "7"]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ("word", "reduce", "y1^1000000000000000000000000"),
            ("sweep", "--g-list", ""),
            ("sweep", "--g-list", "2", "--l-list", "3", "--parallel", "0"),
            ("identities", "--l-list", "2"),
            ("identities", "--i-max", "-1"),
            pytest.param(("word", "reduce", "y1^" + "9" * 5000), id="y1^<5000 nines>"),
            # refused by the predicted boundary size, before any word is built
            ("sweep", "--g-list", "2", "--l-list", "99999999999"),
            ("sweep", "--g-list", "2,318", "--l-list", "12"),
            ("verify", "--g", "100000000000", "--l", "3"),
            # each of these used to print a usage block as well
            ("bogus",),
            (),
            ("verify", "--g", "2"),
            ("verify", "--g", "x", "--l", "3"),
            ("sweep", "--format", "xml"),
            ("sweep", "--g-list"),
            ("word", "reduce"),
            # no option is abbreviated, and a flag takes no value
            ("verify", "--g", "2", "--l", "3", "--no-t"),
            ("verify", "--g", "2", "--l", "3", "--no-timings=1"),
            ("verify", "--g", "2", "--l", "3", "extra"),
            ("word", "bogus", "y1"),
            # an integer is signed ASCII digits, as a word's exponent is;
            # int() would take each of these
            ("verify", "--g", "٢", "--l", "3"),
            ("identities", "--i-max", "1_0"),
            ("identities", "--l-list", " ٣..٥"),
        ],
    )
    def test_usage_error_is_one_line(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ")

    def test_usage_error_names_the_fault(self, capsys):
        assert run(capsys, "sweep", "--format", "xml")[2] == (
            "error: --format must be one of json, csv, table, not 'xml'\n"
        )
        assert run(capsys, "verify", "--g", "2")[2] == "error: verify needs --l\n"
        assert run(capsys, "verify", "--g", "x", "--l", "3")[2] == (
            "error: --g: not an integer: 'x'\n"
        )
        assert run(capsys, "sweep", "--g-list")[2] == "error: --g-list needs a value\n"
        assert run(capsys, "verify", "--g", "2", "--l", "3", "--no-t")[2] == (
            "error: verify has no option --no-t\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [("--g=2", "--l=3"), ("--l", "3", "--g=2"), ("--g", "4", "--g=2", "--l", "3")],
    )
    def test_flag_equals_value(self, capsys, argv):
        # the last value of an option given twice wins
        code, out, _ = run(capsys, "verify", *argv, "--no-timings")
        assert code == 0
        assert json.loads(out)["params"] == {"g": 2, "l": 3}

    def test_value_may_start_with_a_dash(self, capsys):
        # the token after an option is its value, whatever it starts with
        code, _, err = run(capsys, "identities", "--i-max", "-1", "--j-max", "0")
        assert (code, err) == (2, "error: bounds must be >= 0\n")
        code, _, err = run(capsys, "word", "reduce", "y1", "--alphabet", "-h")
        assert code == 2
        assert err.startswith("error: ") and "generator" in err

    @pytest.mark.parametrize(
        "argv", [("--help",), ("-h",), ("sweep", "-h"), ("verify", "--g", "3", "--help")]
    )
    def test_help_names_every_command_and_flag(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        for command, (_, options) in cli._COMMANDS.items():
            assert command in out
            for flag in options:
                assert flag in out
        for op in cli._WORD_OPS:
            assert op in out


# A small vocabulary for fuzzing main(): every subcommand, flag and choice,
# small integers (so any genus stays <= 8 and each call is cheap), words,
# huge exponents and garbage.  --out is left out so that no example writes
# a file.
_FUZZ_COMMANDS = [
    ["word", op] for op in ("reduce", "invert", "concat", "cyclic", "canon")
] + [["verify"], ["sweep"], ["identities"], []]
_FUZZ_FLAGS = [
    "--g", "--l", "--g-list", "--l-list", "--parallel", "--i-max", "--j-max",
    "--format", "--alphabet", "--no-timings", "--oriented", "--help", "-h", "--bogus",
    "--g=2", "--l-list=3..5", "--",
]
_FUZZ_VALUES = [str(n) for n in range(-2, 9)] + [
    "json", "csv", "table", "2,4", "3..5", "5..3", "1..", "", "x", "-", "--",
    "a,a", "a,b", "1", "y1 y2^-1", "y3^3 y3^-3", "a b^2", "y9", "y1^",
    "y1^1000000000000000000000000", "y2^-99999999999999999999 y3",
]
_FUZZ_ARGS = st.lists(
    st.one_of(
        st.sampled_from(_FUZZ_VALUES).map(lambda v: [v]),
        st.sampled_from(_FUZZ_FLAGS).map(lambda f: [f]),
        st.tuples(st.sampled_from(_FUZZ_FLAGS), st.sampled_from(_FUZZ_VALUES)).map(list),
    ),
    max_size=4,
).map(lambda items: [token for item in items for token in item])


class TestFuzz:
    def test_main_exits_cleanly(self):
        @settings(max_examples=300, derandomize=True, deadline=None, database=None)
        @given(st.sampled_from(_FUZZ_COMMANDS), _FUZZ_ARGS)
        def check(command, rest):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([*command, *rest])
            assert code in (0, 1, 2)
            assert "Traceback" not in err.getvalue()

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(concurrent.futures, "ProcessPoolExecutor", recording_pool([]))
            check()
