"""Command-line surface: subcommand behaviour, output formats, exit codes."""

import subprocess
import sys

import pytest

from bsrsat.cli import main
from bsrsat.parser import parse_clause_set

SAT_TEXT = """mode bd
pred P : S^1 R^1
freeconst a
clause [x <= 0] [] -> [P(a, x)]
"""

UNSAT_TEXT = """mode bd
pred P : S^1 R^1
freeconst a
clause [] [] -> [P(a, x)]
clause [] [P(a, y)] -> []
"""

LIMIT_TEXT = """mode bd
pred P : S^1 R^1
freeconst a b c
clause [] [] -> [a ~ b]
clause [] [a ~ b] -> []
"""

UNGUARDED_TEXT = """mode bd
pred P : S^1 R^2
freeconst a
clause [x - y <= 1] [] -> [P(a, x, y)]
"""

LOCK_TA = """clocks x y
loc a init inv true
loc b inv true
trans a -> b guard x <= 0 reset {}
"""


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    paths = {}
    for name, text in [("sat.cl", SAT_TEXT), ("unsat.cl", UNSAT_TEXT),
                       ("limit.cl", LIMIT_TEXT), ("unguarded.cl", UNGUARDED_TEXT),
                       ("lock.ta", LOCK_TA), ("broken.cl", "mode bd\npred P :\n")]:
        p = d / name
        p.write_text(text, encoding="utf-8")
        paths[name] = str(p)
    return paths


def run_cli(capsys, *argv):
    rc = main(list(argv))
    out, err = capsys.readouterr()
    return rc, out, err


class TestDecideCommand:
    def test_sat_human(self, files, capsys):
        rc, out, _ = run_cli(capsys, "decide", files["sat.cl"])
        assert rc == 0
        assert out.startswith("status: SAT")
        assert "predicate table" in out

    def test_sat_structured(self, files, capsys):
        rc, out, _ = run_cli(capsys, "decide", files["sat.cl"],
                             "--output", "structured")
        assert rc == 0
        assert out.startswith("status: sat\n")
        assert "stat candidates:" in out
        assert any(line.startswith("model: P") for line in out.splitlines())

    def test_unsat_structured(self, files, capsys):
        rc, out, _ = run_cli(capsys, "decide", files["unsat.cl"],
                             "--output", "structured")
        assert rc == 0
        assert out.startswith("status: unsat")

    def test_candidate_limit_reports_error(self, files, capsys):
        rc, out, _ = run_cli(capsys, "decide", files["limit.cl"],
                             "--max-candidates", "1", "--output", "structured")
        assert rc == 1
        assert out.startswith("status: error")
        assert "stat candidates: 2" in out

    def test_zero_budgets_stop_at_the_first_need(self, files, capsys):
        rc, out, _ = run_cli(capsys, "decide", files["sat.cl"],
                             "--max-candidates", "0", "--output", "structured")
        assert rc == 1
        assert out.startswith("status: error\nerror: candidate limit exceeded (0)\n")
        assert "stat candidates: 1" in out
        rc, out, _ = run_cli(capsys, "decide", files["sat.cl"], "--naive",
                             "--atom-budget", "0", "--output", "structured")
        assert rc == 1
        assert out.startswith("status: error\nerror: naive oracle needs 1 atoms, budget 0\n")
        assert "stat candidates: 1" in out

    def test_naive_agrees(self, files, capsys):
        rc, fast, _ = run_cli(capsys, "decide", files["unsat.cl"],
                              "--output", "structured")
        assert rc == 0
        rc, slow, _ = run_cli(capsys, "decide", files["unsat.cl"],
                              "--naive", "--output", "structured")
        assert rc == 0
        assert fast.splitlines()[0] == slow.splitlines()[0]

    def test_parse_error_exit_code(self, files, capsys):
        rc, out, err = run_cli(capsys, "decide", files["broken.cl"])
        assert rc == 2 and out == ""
        assert err.startswith("parse error:")

    def test_missing_file_exit_code(self, files, capsys):
        rc, _, err = run_cli(capsys, "decide", files["sat.cl"] + ".nope")
        assert rc == 2
        assert err.startswith("error:")

    def test_guard_violation_exit_code(self, files, capsys):
        rc, _, err = run_cli(capsys, "decide", files["unguarded.cl"])
        assert rc == 2
        assert err.startswith("error:")


class TestNormalizeCommand:
    def test_output_reparses_and_decides(self, files, capsys):
        rc, out, _ = run_cli(capsys, "normalize", files["sat.cl"])
        assert rc == 0
        assert out.startswith("mode bd")
        reparsed = parse_clause_set(out)
        assert reparsed.mode == "bd"
        rc, verdict, _ = run_cli(capsys, "decide", files["sat.cl"],
                                 "--output", "structured")
        assert verdict.startswith("status: sat")


class TestRegionsCommand:
    @pytest.mark.parametrize("argv,count", [
        (("--mode", "slr", "--arity", "1", "--points", "0"), 3),
        (("--mode", "slr", "--arity", "2", "--points", "0,1"), 31),
        (("--mode", "bd", "--arity", "2", "--kappa", "1"), 61),
        (("--mode", "bd", "--arity", "2", "--kappa", "1", "--bounded"), 81),
    ])
    def test_structured_counts(self, capsys, argv, count):
        rc, out, _ = run_cli(capsys, "regions", *argv, "--output", "structured")
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == f"count: {count}"
        assert len([l for l in lines if l.startswith("class ")]) == count

    def test_human_header(self, capsys):
        rc, out, _ = run_cli(capsys, "regions", "--mode", "slr",
                             "--arity", "1", "--points", "0")
        assert rc == 0
        assert out.splitlines()[0] == "3 classes"
        assert "rep (-1)" in out


class TestTaCommands:
    def test_encode_reachability_relation(self, files, capsys):
        rc, out, _ = run_cli(capsys, "ta", "encode", files["lock.ta"])
        assert rc == 0
        assert out.startswith("mode folla")
        assert "Reach" in out

    def test_encode_goal_emits_difference_clauses(self, files, capsys):
        rc, out, _ = run_cli(capsys, "ta", "encode", files["lock.ta"],
                             "--goal", "b")
        assert rc == 0
        assert out.startswith("mode bd")
        assert parse_clause_set(out).mode == "bd"

    def test_reach_structured_backends_agree(self, files, capsys):
        rc, out, _ = run_cli(capsys, "ta", "reach", files["lock.ta"],
                             "--goal", "b", "--output", "structured")
        assert rc == 0
        lines = out.splitlines()
        assert "backend region: reachable" in lines
        assert "backend bsr: reachable" in lines
        assert "agree: true" in lines

    def test_reach_unreachable_goal(self, files, capsys):
        rc, out, _ = run_cli(capsys, "ta", "reach", files["lock.ta"],
                             "--goal", "b:x - y >= 1")
        assert rc == 0
        assert "unreachable (region+bsr" in out

    def test_reach_single_backend(self, files, capsys):
        rc, out, _ = run_cli(capsys, "ta", "reach", files["lock.ta"],
                             "--goal", "b", "--backend", "region")
        assert rc == 0
        assert "reachable (region," in out

    def test_reach_unknown_goal_location(self, files, capsys):
        rc, _, err = run_cli(capsys, "ta", "reach", files["lock.ta"],
                             "--goal", "nowhere")
        assert rc == 2
        assert "unknown goal location" in err


class TestRamseyDemo:
    def test_runs_and_verifies(self, capsys):
        rc, out, _ = run_cli(capsys, "ramsey", "demo", "--seed", "0")
        assert rc == 0
        assert out.count("verified: True") == 2
        assert "oracle queries:" in out
        assert "pattern 1/3" in out

    def test_deterministic(self, capsys):
        _, first, _ = run_cli(capsys, "ramsey", "demo", "--seed", "5")
        _, second, _ = run_cli(capsys, "ramsey", "demo", "--seed", "5")
        assert first == second


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["regions", "--arity", "1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ("regions", "--mode", "slr", "--arity", "1", "--points", "x"),
        ("regions", "--mode", "slr", "--arity", "1", "--points", "1/0"),
        ("regions", "--mode", "bd", "--arity", "-1"),
        ("regions", "--mode", "bd", "--arity", "1", "--kappa", "-1"),
        ("ta", "reach", "lock.ta", "--goal", "b", "--lam", "0"),
        ("ta", "encode", "lock.ta", "--goal", "b", "--lam", "0"),
        ("decide", "sat.cl", "--max-candidates", "-1"),
        ("decide", "sat.cl", "--naive", "--atom-budget", "-1"),
    ])
    def test_bad_numeric_argument(self, files, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main([files.get(a, a) for a in argv])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "error: argument --" in err

    @pytest.mark.parametrize("argv,flag", [
        (("--mode", "slr", "--bounded"), "--bounded"),
        (("--mode", "bd", "--points", "1,2"), "--points"),
    ])
    def test_flag_of_the_other_mode(self, capsys, argv, flag):
        with pytest.raises(SystemExit) as exc:
            main(["regions", "--arity", "1", *argv])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"error: argument {flag}: not allowed with --mode" in err


def test_module_entry_point(files):
    proc = subprocess.run(
        [sys.executable, "-m", "bsrsat", "decide", files["sat.cl"],
         "--output", "structured"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("status: sat")
