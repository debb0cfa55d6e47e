"""Command-line interface: subcommands, file formats, exit codes."""
from importlib import resources

import numpy as np
import pytest

from ctsched.cli import (EXIT_NUMERIC, EXIT_PARSE, EXIT_VALIDATION,
                         _hyperparams, main, make_parser, read_schedule,
                         write_schedule)
from ctsched.check import psem_optimal
from ctsched.learn import Hyperparams
from ctsched.model import CtmdpError


def _bundled(name: str) -> str:
    return resources.files("ctsched.data").joinpath(name).read_text()


@pytest.fixture
def paths(tmp_path):
    out = {}
    for name in ("mars.ctmdp", "riskreward.ctmdp", "fig1.hoa",
                 "riskreward.hoa"):
        f = tmp_path / name
        f.write_text(_bundled(name))
        out[name] = str(f)
    return out


def test_product_dump(paths, tmp_path, capsys):
    code = main(["product", "--model", paths["mars.ctmdp"],
                 "--automaton", paths["fig1.hoa"]])
    assert code == 0
    out = capsys.readouterr().out
    assert "# states: 7" in out
    assert "(z=2,q1)" in out and "(z=0,q1)" in out
    assert out.startswith("ctmdp")
    # --out writes the very bytes that stdout gets
    f = tmp_path / "product.ctmdp"
    code = main(["product", "--model", paths["mars.ctmdp"],
                 "--automaton", paths["fig1.hoa"], "--out", str(f)])
    assert code == 0
    assert capsys.readouterr().out == ""
    assert f.read_bytes() == out.encode()


def test_check_optimal_sat_writes_schedule(paths, tmp_path, capsys):
    sched_file = tmp_path / "sched.csv"
    code = main(["check", "--model", paths["mars.ctmdp"],
                 "--automaton", paths["fig1.hoa"],
                 "--objective", "sat", "--schedule-out", str(sched_file)])
    assert code == 0
    out = capsys.readouterr().out
    assert "# PSem(initial) = 1" in out
    assert sched_file.read_text().startswith("s,q,action,qnext\n")
    # evaluating the dumped schedule reproduces the optimum
    code = main(["check", "--model", paths["mars.ctmdp"],
                 "--automaton", paths["fig1.hoa"],
                 "--objective", "sat", "--schedule", str(sched_file)])
    assert code == 0
    assert "# PSem(initial) = 1" in capsys.readouterr().out


def test_check_exp_footer_and_values_csv(paths, tmp_path, capsys):
    values = tmp_path / "values.csv"
    code = main(["check", "--model", paths["riskreward.ctmdp"],
                 "--automaton", paths["riskreward.hoa"],
                 "--objective", "exp", "--out", str(values)])
    assert code == 0
    assert "# ESem(initial) = 0.9" in capsys.readouterr().out
    lines = values.read_text().strip().split("\n")
    assert lines[0] == "state,s,q,value"
    assert len(lines) == 9  # 8 product states plus the header
    # without --out the same bytes go to stdout, ahead of the footer
    code = main(["check", "--model", paths["riskreward.ctmdp"],
                 "--automaton", paths["riskreward.hoa"],
                 "--objective", "exp"])
    assert code == 0
    body, footer = capsys.readouterr().out.rsplit("# ESem", 1)
    assert footer.startswith("(initial) = 0.9")
    assert values.read_bytes() == body.encode()


def test_check_suboptimal_schedule_is_dominated(paths, mars, tmp_path, capsys):
    m, a, p = mars
    # always play b from zone 0: the run risks the hazardous zone
    aidx = {n: j for j, n in enumerate(p.ctmdp.action_names)}
    sidx = {n: i for i, n in enumerate(p.ctmdp.state_names)}
    import numpy as np
    from ctsched.product import schedule_from_ids
    sigma = np.array([p.ctmdp.enabled(s)[0] for s in range(p.num_states)])
    sigma[sidx["(z=0,q0)"]] = aidx["b>q0"]
    sigma[sidx["(z=0,q1)"]] = aidx["b>q0"]
    sched = schedule_from_ids(p, sigma)
    sched_file = tmp_path / "sub.csv"
    with open(sched_file, "w") as fh:
        write_schedule(m, sched, fh)
    code = main(["check", "--model", paths["mars.ctmdp"],
                 "--automaton", paths["fig1.hoa"],
                 "--objective", "sat", "--schedule", str(sched_file)])
    assert code == 0
    out = capsys.readouterr().out
    footer = [l for l in out.splitlines() if l.startswith("# PSem")][0]
    value = float(footer.split("=")[1])
    assert value <= psem_optimal(p).value
    assert value == pytest.approx(0.75, abs=1e-9)


def test_schedule_round_trip(paths, mars, tmp_path):
    m, a, p = mars
    opt = psem_optimal(p)
    f = tmp_path / "rt.csv"
    with open(f, "w") as fh:
        write_schedule(m, opt.schedule, fh)
    back = read_schedule(m, p, str(f))
    for pair, action in back.items():
        assert opt.schedule[pair] == action


def test_simulate_zero_steps_is_header_only(paths, capsys):
    code = main(["simulate", "--model", paths["mars.ctmdp"],
                 "--automaton", paths["fig1.hoa"], "--steps", "0"])
    assert code == 0
    assert capsys.readouterr().out == "step,state,action,next,dwell,reward\n"


def test_simulate_same_seed_is_byte_identical(paths, tmp_path):
    outs = []
    for name in ("a.csv", "b.csv"):
        f = tmp_path / name
        code = main(["simulate", "--model", paths["mars.ctmdp"],
                     "--automaton", paths["fig1.hoa"], "--steps", "200",
                     "--seed", "9", "--out", str(f)])
        assert code == 0
        outs.append(f.read_bytes())
    assert outs[0] == outs[1]
    f = tmp_path / "c.csv"
    main(["simulate", "--model", paths["mars.ctmdp"],
          "--automaton", paths["fig1.hoa"], "--steps", "200",
          "--seed", "10", "--out", str(f)])
    assert f.read_bytes() != outs[0]


def test_learn_emits_bench_row(paths, capsys):
    code = main(["learn", "--model", paths["mars.ctmdp"],
                 "--automaton", paths["fig1.hoa"], "--objective", "sat",
                 "--episodes", "300", "--ep-len", "50", "--runs", "1"])
    assert code == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0].startswith("Name,states,prod.")
    cells = lines[1].split(",")
    assert cells[0] == "mars" and cells[1] == "4" and cells[2] == "7"
    assert cells[3] == "1"  # exact satisfaction optimum


def test_malformed_model_exits_with_parse_code(tmp_path, paths, capsys):
    bad = tmp_path / "bad.ctmdp"
    bad.write_text("ctmdp\nmodule m\n  z : [0..1 init 0;\nendmodule\n")
    code = main(["check", "--model", str(bad),
                 "--automaton", paths["fig1.hoa"]])
    assert code == EXIT_PARSE
    assert "3:" in capsys.readouterr().err  # line number of the bad token



@pytest.mark.parametrize("start", ["-1", "x", "0 & 1"])
def test_bad_hoa_start_exits_with_parse_code(tmp_path, paths, capsys, start):
    # a start state that is not a natural number is one error line, not a
    # traceback from the product construction
    f = tmp_path / "bad.hoa"
    f.write_text(f"HOA: v1\nStates: 1\nStart: {start}\nAP: 0\n"
                 "Acceptance: 1 Inf(0)\n--BODY--\nState: 0\n[t] 0\n--END--\n")
    code = main(["check", "--model", paths["mars.ctmdp"],
                 "--automaton", str(f)])
    assert code == EXIT_PARSE
    err = capsys.readouterr().err
    assert err == (f"error: {f}: line 3: Start: expects a natural number, "
                   f"got '{start}'\n")


def _write_model(tmp_path, text):
    f = tmp_path / "bad.ctmdp"
    f.write_text(text)
    return f


@pytest.mark.parametrize("const, where", [
    ("const double r = 1/0;", "2:19: division by zero"),
    ("const double r = 1.2.3;", "2:21: expected ';', found '.3'"),
], ids=["division-by-zero", "malformed-number"])
def test_bad_expression_exits_with_parse_code(tmp_path, paths, capsys, const,
                                              where):
    f = _write_model(tmp_path, f"ctmdp\n{const}\nmodule m\n z : [0..1] init 0;\n"
                     "[a] true -> r : true;\nendmodule\n")
    code = main(["check", "--model", str(f), "--automaton", paths["fig1.hoa"]])
    assert code == EXIT_PARSE
    assert capsys.readouterr().err == f"error: {f}:{where}\n"


@pytest.mark.parametrize("text, where", [
    ("ctmdp\nconst double r = 1e400;\nmodule m\n z : [0..r] init 0;\n"
     "[a] true -> 1 : true;\nendmodule\n",
     "4:10: non-finite bound inf for variable 'z'"),
    ("ctmdp\nmodule m\n z : [0..1] init 0;\n"
     "[a] true -> 1 : (z'=1e400 - 1e400);\nendmodule\n",
     "4:1: update drives 'z' to nan, outside [0..1]"),
], ids=["inf-bound", "nan-update"])
def test_non_finite_value_exits_with_parse_code(tmp_path, paths, capsys, text,
                                                where):
    f = _write_model(tmp_path, text)
    code = main(["check", "--model", str(f), "--automaton", paths["fig1.hoa"]])
    assert code == EXIT_PARSE
    assert capsys.readouterr().err == f"error: {f}:{where}\n"


def test_state_without_actions_exits_with_parse_code(tmp_path, paths, capsys):
    f = _write_model(tmp_path, "ctmdp\nmodule m\n z : [0..1] init 0;\n"
                     "[a] z=0 -> 1 : (z'=1);\nendmodule\n")
    code = main(["check", "--model", str(f), "--automaton", paths["fig1.hoa"]])
    assert code == EXIT_PARSE
    assert capsys.readouterr().err == \
        f"error: {f}: state z=1: no enabled action\n"

def test_unknown_schedule_state_exits_with_validation_code(paths, tmp_path,
                                                           capsys):
    f = tmp_path / "sched.csv"
    f.write_text("s,q,action,qnext\n99,0,a,0\n")
    code = main(["check", "--model", paths["mars.ctmdp"],
                 "--automaton", paths["fig1.hoa"], "--schedule", str(f)])
    assert code == EXIT_VALIDATION
    assert "unknown product state" in capsys.readouterr().err


def test_disabled_schedule_choice_exits_with_validation_code(paths, tmp_path,
                                                             capsys):
    f = tmp_path / "sched.csv"
    f.write_text("s,q,action,qnext\n0,0,a,99\n")
    code = main(["check", "--model", paths["mars.ctmdp"],
                 "--automaton", paths["fig1.hoa"], "--schedule", str(f)])
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert f"{f}:2:" in err and "not enabled" in err


def test_repeated_schedule_state_exits_with_validation_code(paths, tmp_path,
                                                            capsys):
    # the first row alone gives PSem 1; a second row must not override it
    f = tmp_path / "sched.csv"
    f.write_text("s,q,action,qnext\n0,0,a,0\n0,0,b,0\n")
    code = main(["check", "--model", paths["mars.ctmdp"],
                 "--automaton", paths["fig1.hoa"], "--schedule", str(f)])
    assert code == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.err == \
        f"error: {f}:3: product state (0,0) is scheduled twice\n"
    assert captured.out == ""


@pytest.mark.parametrize("row", ["0,0,a,0,junk", "0,0,a", "0,0,a,x"])
def test_schedule_row_of_other_than_four_fields_is_malformed(paths, tmp_path,
                                                            row, capsys):
    f = tmp_path / "sched.csv"
    f.write_text(f"s,q,action,qnext\n{row}\n")
    code = main(["check", "--model", paths["mars.ctmdp"],
                 "--automaton", paths["fig1.hoa"], "--schedule", str(f)])
    assert code == EXIT_PARSE
    assert capsys.readouterr().err == f"error: {f}:2: malformed schedule row\n"


def test_simulate_negative_steps_exits_with_validation_code(paths, capsys):
    code = main(["simulate", "--model", paths["mars.ctmdp"],
                 "--automaton", paths["fig1.hoa"], "--steps", "-3"])
    assert code == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.err == "error: --steps must be non-negative, got -3\n"
    assert captured.out == ""


@pytest.mark.parametrize("command", ["learn", "bench"])
def test_runs_below_one_exits_with_validation_code(paths, command, capsys):
    argv = [command, "--runs", "0"]
    if command == "learn":
        argv += ["--model", paths["mars.ctmdp"], "--automaton", paths["fig1.hoa"]]
    code = main(argv)
    assert code == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert "--runs" in captured.err and captured.out == ""


@pytest.mark.parametrize("tol", ["nan", "-1"])
def test_bad_tol_exits_with_validation_code(paths, tol, capsys):
    # a NaN or negative tol would silently spend the whole episode budget
    code = main(["learn", "--model", paths["mars.ctmdp"],
                 "--automaton", paths["fig1.hoa"], "--tol", tol])
    assert code == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.err == f"error: tol must be non-negative, got {float(tol)}\n"
    assert captured.out == ""


@pytest.mark.parametrize("argv, bad", [
    (["simulate", "--seed", "-1"], "--seed must lie in [0, 2**32), got -1"),
    (["learn", "--seed", "-2"], "--seed must lie in [0, 2**32), got -2"),
    (["learn", "--seed", "4294967295", "--runs", "2"],
     "--seed + --runs - 1 must lie in [0, 2**32), got 4294967296"),
    (["bench", "--seed", "4294967294", "--runs", "3"],
     "--seed + --runs - 1 must lie in [0, 2**32), got 4294967296"),
])
def test_seed_outside_32_bits_exits_with_validation_code(paths, argv, bad,
                                                         capsys):
    if argv[0] != "bench":
        argv = argv + ["--model", paths["mars.ctmdp"],
                       "--automaton", paths["fig1.hoa"]]
    assert main(argv) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.err == f"error: {bad}\n" and captured.out == ""


def test_missing_file_exits_with_validation_code(paths, capsys):
    # the model and the automaton are read alike
    for missing, argv in (
            ("/nonexistent/x.ctmdp", ["--model", "/nonexistent/x.ctmdp",
                                      "--automaton", paths["fig1.hoa"]]),
            ("/nonexistent/x.hoa", ["--model", paths["mars.ctmdp"],
                                    "--automaton", "/nonexistent/x.hoa"])):
        code = main(["check"] + argv)
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err == \
            f"error: {missing}: No such file or directory\n"



@pytest.mark.parametrize("argv", [
    ["check", "--out"],
    ["check", "--schedule-out"],
    ["learn", "--episodes", "10", "--ep-len", "10", "--schedule-out"],
    ["simulate", "--steps", "3", "--out"],
    ["product", "--out"],
])
def test_unwritable_output_exits_with_validation_code(paths, tmp_path, argv,
                                                      capsys):
    # every output is opened alike, and a path it cannot open is named
    out = str(tmp_path / "missing" / "v.csv")
    code = main(argv + [out, "--model", paths["mars.ctmdp"],
                        "--automaton", paths["fig1.hoa"]])
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().err == \
        f"error: {out}: No such file or directory\n"

def test_schedule_out_is_opened_before_any_seed_trains(paths, tmp_path,
                                                      monkeypatch, capsys):
    def untrained(*args, **kwargs):
        raise AssertionError("the learner ran")

    monkeypatch.setattr("ctsched.cli.learn_sat", untrained)
    out = str(tmp_path / "missing" / "s.csv")
    code = main(["learn", "--model", paths["mars.ctmdp"],
                 "--automaton", paths["fig1.hoa"], "--schedule-out", out])
    assert code == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.err == f"error: {out}: No such file or directory\n"
    assert captured.out == ""


def test_check_opens_both_outputs_before_the_solve(paths, tmp_path,
                                                  monkeypatch, capsys):
    def unsolved(p):
        raise AssertionError("the checker ran")

    monkeypatch.setattr("ctsched.cli.psem_optimal", unsolved)
    values = tmp_path / "v.csv"
    out = str(tmp_path / "missing" / "s.csv")
    code = main(["check", "--model", paths["mars.ctmdp"],
                 "--automaton", paths["fig1.hoa"], "--out", str(values),
                 "--schedule-out", out])
    assert code == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.err == f"error: {out}: No such file or directory\n"
    assert captured.out == ""
    assert not values.exists()


def test_failed_check_keeps_and_finished_check_replaces_its_outputs(
        paths, tmp_path, monkeypatch, capsys):
    values, sched = tmp_path / "v.csv", tmp_path / "s.csv"
    for f in (values, sched):
        f.write_text("old contents\n")
    argv = ["check", "--model", paths["mars.ctmdp"], "--automaton",
            paths["fig1.hoa"], "--out", str(values), "--schedule-out",
            str(sched)]
    with monkeypatch.context() as patch:
        def failing(p):
            raise CtmdpError("checker failed")

        patch.setattr("ctsched.cli.psem_optimal", failing)
        assert main(argv) == EXIT_VALIDATION
    assert values.read_text() == sched.read_text() == "old contents\n"
    assert main(argv) == 0
    assert values.read_text().startswith("state,s,q,value\n")
    assert sched.read_text().startswith("s,q,action,qnext\n")
    assert "old contents" not in values.read_text() + sched.read_text()
    assert capsys.readouterr().out.startswith("# PSem(initial) = ")


def test_failed_learn_keeps_and_finished_learn_replaces_schedule_out(
        paths, tmp_path, monkeypatch, capsys):
    out = tmp_path / "s.csv"
    out.write_text("old contents\n")
    argv = ["learn", "--model", paths["mars.ctmdp"], "--automaton",
            paths["fig1.hoa"], "--episodes", "30", "--ep-len", "20",
            "--schedule-out", str(out)]
    with monkeypatch.context() as patch:
        def failing(*args, **kwargs):
            raise CtmdpError("learner failed")

        patch.setattr("ctsched.cli.learn_sat", failing)
        assert main(argv) == EXIT_VALIDATION
    assert out.read_text() == "old contents\n"
    assert main(argv) == 0
    assert out.read_text().startswith("s,q,action,qnext\n")
    assert "old contents" not in out.read_text()


@pytest.mark.parametrize("argv", [
    ["learn", "--model", "m.ctmdp", "--automaton", "a.hoa"], ["bench"]])
def test_learn_flag_defaults_are_the_hyperparams_defaults(argv):
    assert _hyperparams(make_parser().parse_args(argv)) == Hyperparams()


def test_non_convergence_exits_with_numeric_code(paths, monkeypatch, capsys):
    # riskreward's ESem needs a second round to confirm its first switch
    monkeypatch.setattr("ctsched.check._MAX_ROUNDS", 1)
    code = main(["check", "--model", paths["riskreward.ctmdp"],
                 "--automaton", paths["riskreward.hoa"], "--objective", "exp"])
    assert code == EXIT_NUMERIC
    lines = capsys.readouterr().err.strip().split("\n")
    assert len(lines) == 1
    assert lines[0].startswith("error: average-reward (")
    assert "stage) policy iteration did not converge: stopped at round 1" \
        in lines[0]


def test_singular_solve_exits_with_numeric_code(paths, monkeypatch, capsys):
    def singular(p):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr("ctsched.cli.esem_optimal", singular)
    code = main(["check", "--model", paths["riskreward.ctmdp"],
                 "--automaton", paths["riskreward.hoa"], "--objective", "exp"])
    assert code == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.strip().split("\n")
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "Singular matrix" in lines[0]
