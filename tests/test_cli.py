"""CLI subcommands: outputs, file formats, exit codes, determinism."""

import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import axkatz
from axkatz.cli import COMMANDS, build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_cli_exit(capsys, *argv):
    """run_cli for argv that argparse ends with SystemExit."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


def test_conjugate(capsys):
    code, out, _ = run_cli(capsys, "conjugate", "--parts", "3,2,2,1")
    assert code == 0
    assert json.loads(out) == [4, 3, 1]


def test_bound(capsys):
    code, out, _ = run_cli(capsys, "bound", "--p", "2", "--alpha", "2,1", "--targets", "1:1")
    assert code == 0
    data = json.loads(out)
    assert data["bound"] == 2 and data["case"] == "first"
    assert data["A"] == 4 and data["B"] == 1 and data["Abreve"] == 2


def test_bound_cw_instance(capsys):
    code, out, _ = run_cli(capsys, "bound", "--p", "2", "--alpha", "1,1,1", "--targets", "1:2")
    assert code == 0
    assert json.loads(out)["bound"] == 1


def test_bound_with_target_shape(capsys):
    code, out, _ = run_cli(
        capsys, "bound", "--p", "2", "--alpha", "2,2", "--target-shape", "4,2:3"
    )
    assert code == 0
    assert json.loads(out)["targets"] == [[2, 3], [1, 3]]


def test_vp(capsys):
    code, out, _ = run_cli(capsys, "vp", "--p", "2", "--alpha", "6,5,3,1", "--D", "18")
    assert code == 0
    data = json.loads(out)
    assert data["value"] == 6 and data["t"] == 9

    code, out, _ = run_cli(capsys, "vp", "--p", "2", "--alpha", "2,1", "--D", "0")
    assert json.loads(out)["value"] == 3

    code, out, _ = run_cli(capsys, "vp", "--p", "2", "--alpha", "2,1", "--D", "inf")
    assert json.loads(out)["value"] == 0


def test_nu_and_delta(capsys):
    code, out, _ = run_cli(capsys, "nu", "--p", "2", "--alpha", "2,1", "--n", "1,0")
    assert code == 0 and json.loads(out)["value"] == 2
    code, out, _ = run_cli(capsys, "nu", "--p", "2", "--alpha", "2,1", "--n", "4,0")
    assert json.loads(out)["value"] == "inf"
    # A negative coordinate is refused even after a pair that makes the sum vanish.
    for n in ("5,-1", "-1,5"):
        code, out, err = run_cli(capsys, "nu", "--p", "2", "--alpha", "2,1", f"--n={n}")
        assert code == 2 and out == "" and "n must be nonnegative, got -1" in err
    code, out, _ = run_cli(capsys, "delta", "--p", "2", "--alpha", "2,1", "--beta", "2")
    assert code == 0 and json.loads(out)["delta"] == 6


def test_fdeg_zeros_trace(tmp_path, capsys):
    table = {"domain": [4], "codomain": [2], "values": [[0], [1], [0], [1]]}
    path = tmp_path / "parity.json"
    path.write_text(json.dumps(table))

    code, out, _ = run_cli(capsys, "fdeg", "--map", str(path))
    assert code == 0 and json.loads(out)["fdeg"] == 1

    code, out, _ = run_cli(capsys, "zeros", "--maps", str(path))
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 2 and data["ord"]["2"] == 1

    # --domain is for an empty map list; one that is not the maps' domain is an error.
    code, out, _ = run_cli(capsys, "zeros", "--maps", str(path), "--domain", "4")
    assert code == 0 and json.loads(out) == data
    for domain in ("3", "2,2"):
        code, out, err = run_cli(capsys, "zeros", "--maps", str(path), "--domain", domain)
        assert code == 2 and out == "" and "domain" in err

    code, out, _ = run_cli(capsys, "trace", "--maps", str(path))
    assert code == 0
    data = json.loads(out)
    assert data["count_ord"] == data["integral_ord"] == 1


def test_verify_rejects_a_negative_sample_count(capsys):
    code, out, err = run_cli(
        capsys, "verify", "--p", "2", "--alpha", "2,1", "--targets", "1:1",
        "--mode", "sampled", "--seed", "1", "--samples", "-3",
    )
    assert code == 2 and out == ""
    assert "samples must be >= 0, got -3" in err


def test_trace_checks_a_large_beta_before_building_series(tmp_path, capsys):
    path = tmp_path / "parity.json"
    path.write_text(json.dumps({"domain": [4], "codomain": [2], "values": [[0], [1], [0], [1]]}))
    code, out, err = run_cli(capsys, "trace", "--maps", str(path), "--beta", "10000")
    assert code == 2 and out == ""
    assert "width 10001, past the enumeration limit 1000000" in err
    code, out, _ = run_cli(capsys, "trace", "--maps", str(path), "--beta", "1000")
    assert code == 0 and json.loads(out)["beta"] == 1000


def test_a_reader_closing_stdout_early_gets_no_traceback():
    # As in `axkatz polybound ... | head -1`: the pipe is closed before the
    # process writes, so its first write fails with EPIPE.
    src = os.path.dirname(os.path.dirname(axkatz.__file__))
    proc = subprocess.Popen(
        [sys.executable, "-m", "axkatz.cli", "polybound", "--m", "4", "--n", "10",
         "--degrees", "2"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": src},
    )
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == b""


def test_zeros_empty_system_with_domain(capsys):
    code, out, _ = run_cli(capsys, "zeros", "--maps", "", "--domain", "4,2")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 8 and data["ord"]["2"] == 3

    # |A| = 2^36: a mask of every point would take 8 GB.
    code, out, _ = run_cli(capsys, "zeros", "--maps", "", "--domain", ",".join(["2"] * 36))
    assert code == 0
    assert json.loads(out) == {"count": 2**36, "ord": {"2": 36}}

    code, _, err = run_cli(capsys, "zeros", "--maps", "")
    assert code == 2 and "domain" in err


def test_zeros_constant_map(tmp_path, capsys):
    table = {"domain": [4], "codomain": [2], "values": [[1], [1], [1], [1]]}
    path = tmp_path / "one.json"
    path.write_text(json.dumps(table))
    code, out, _ = run_cli(capsys, "zeros", "--maps", str(path))
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 0 and data["ord"]["2"] == "inf"


def test_verify_exit_codes(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--p", "2", "--alpha", "2,1", "--targets", "1:1",
        "--mode", "exhaustive",
    )
    assert code == 0
    data = json.loads(out)
    assert data["passed"] and data["bound"] == 2 and data["systems_tested"] == 6

    code, _, err = run_cli(
        capsys, "verify", "--p", "2", "--alpha", "2,1", "--targets", "1:1",
        "--mode", "sampled",
    )
    assert code == 2 and "seed" in err


def test_verify_bad_enum_limit_names_the_variable(capsys, monkeypatch):
    monkeypatch.setenv("AXKATZ_ENUM_LIMIT", "abc")
    code, out, err = run_cli(
        capsys, "verify", "--p", "2", "--alpha", "2,1", "--targets", "1:1",
        "--mode", "exhaustive",
    )
    assert code == 2 and out == ""
    assert "AXKATZ_ENUM_LIMIT" in err and "'abc'" in err


def test_scan_csv_and_json(capsys):
    code, out, _ = run_cli(
        capsys, "scan", "--p", "2", "--alphas", "2,1;1,1,1", "--targets", "1:1",
        "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "p,alpha,targets,A,B,Abreve,case,bound"
    assert len(lines) == 3

    code, out, _ = run_cli(
        capsys, "scan", "--p", "2,3", "--alphas", "2,1", "--targets", "1:1;1:2",
        "--format", "json",
    )
    rows = json.loads(out)
    assert len(rows) == 4
    assert {row["p"] for row in rows} == {2, 3}


def test_scan_limit(capsys):
    code, _, err = run_cli(
        capsys, "scan", "--p", "2", "--alphas", "1;2", "--targets", "1:1;1:2",
        "--limit", "3",
    )
    assert code == 2 and "limit" in err


def test_polybound(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "polybound", "--m", "4", "--n", "10", "--degrees", "2")
    assert code == 0
    data = json.loads(out)
    assert data["bounds"]["2"]["bound"] == 6

    system = {
        "modulus": 2,
        "nvars": 3,
        "polys": [[[1, [1, 1, 0]], [1, [0, 0, 1]]]],
        "degrees": [2],
    }
    path = tmp_path / "system.json"
    path.write_text(json.dumps(system))
    code, out, _ = run_cli(
        capsys, "polybound", "--m", "2", "--n", "3", "--degrees", "2", "--system", str(path)
    )
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 4 and data["ord"]["2"] == 2


def test_polybound_variable_count_is_capped(monkeypatch, capsys):
    # One partition row per variable: n past the enumeration limit is refused
    # before the partition is built.
    monkeypatch.setenv("AXKATZ_ENUM_LIMIT", "100")
    code, out, _ = run_cli(capsys, "polybound", "--m", "6", "--n", "100", "--degrees", "2")
    assert code == 0 and set(json.loads(out)["bounds"]) == {"2", "3"}
    code, _, err = run_cli(capsys, "polybound", "--m", "6", "--n", "101", "--degrees", "2")
    assert code == 2 and "101 variables exceed the enumeration limit 100" in err


def test_malformed_inputs_exit_2(tmp_path, capsys):
    code, _, err = run_cli(capsys, "bound", "--p", "2", "--alpha", "x", "--targets", "1:1")
    assert code == 2 and err

    code, _, err = run_cli(capsys, "bound", "--p", "2", "--alpha", "2,1")
    assert code == 2 and "target" in err

    code, _, err = run_cli(capsys, "bound", "--p", "2", "--alpha", "2,2", "--target-shape", "4,2:x")
    assert code == 2 and err == "error: target shapes must look like '4,2:3', got '4,2:x'\n"

    code, _, err = run_cli(capsys, "vp", "--p", "4", "--alpha", "2,1", "--D", "3")
    assert code == 2 and "prime" in err

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(capsys, "fdeg", "--map", str(bad))
    assert code == 2 and err

    missing = tmp_path / "missing.json"
    code, _, err = run_cli(capsys, "fdeg", "--map", str(missing))
    assert code == 2 and err

    truncated = tmp_path / "short.json"
    truncated.write_text(json.dumps({"domain": [4], "codomain": [2], "values": [[0]]}))
    code, _, err = run_cli(capsys, "fdeg", "--map", str(truncated))
    assert code == 2 and err

    boolean = tmp_path / "bool.json"
    boolean.write_text(json.dumps({"domain": [2], "codomain": [2], "values": [[True], [0]]}))
    code, out, err = run_cli(capsys, "fdeg", "--map", str(boolean))
    assert code == 2 and out == "" and "(True,) is not a reduced element of (2,)" in err


def test_outputs_are_deterministic(capsys):
    argv = ["bound", "--p", "3", "--alpha", "2,2,1", "--targets", "2:1,1:2"]
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second


def _python(*args):
    """Run a fresh interpreter on this package, failing the test past 10 s."""
    src = str(Path(axkatz.__file__).resolve().parent.parent)
    paths = [src, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=10
    )


def _cli_process(*argv):
    """Run the CLI in a fresh interpreter, failing the test past 10 s."""
    return _python("-m", "axkatz.cli", *argv)


CALCULUS, ORACLE = "axkatz.calculus", "axkatz.oracle"
# Valid calls of every command, each with the modules past the closed-form
# layer that it loads; {map} and {system} name files that _written writes.
COMMAND_CALLS = [
    (["bound", "--p", "2", "--alpha", "2,1", "--targets", "1:1", "--target-shape", "4,2:3"], set()),
    (["vp", "--p", "2", "--alpha", "6,5,3,1", "--D", "18"], set()),
    (["nu", "--p", "2", "--alpha", "2,1", "--n", "1,0"], set()),
    (["delta", "--p", "2", "--alpha", "2,1", "--beta", "2"], set()),
    (["conjugate", "--parts", "3,2,2,1"], set()),
    (["scan", "--p", "2,3", "--alphas", "2,1;1,1,1", "--targets", "1:1;1:2"], set()),
    (["scan", "--p", "2", "--alphas", "2,1", "--targets", "1:1", "--format", "csv"], set()),
    (["polybound", "--m", "4", "--n", "10", "--degrees", "2"], set()),
    (["fdeg", "--map", "{map}"], {CALCULUS}),
    (["zeros", "--maps", "{map},{map}"], {CALCULUS}),
    (["trace", "--maps", "{map}"], {CALCULUS, ORACLE}),
    (["verify", "--p", "2", "--alpha", "2,1", "--targets", "1:1"], {CALCULUS, ORACLE}),
    (["polybound", "--m", "2", "--n", "3", "--degrees", "2", "--system", "{system}"],
     {CALCULUS, ORACLE}),
]


def _written(argv, tmp_path):
    """argv with {map} and {system} replaced by files written under tmp_path."""
    files = {"map": tmp_path / "f.json", "system": tmp_path / "system.json"}
    table = {"domain": [4, 2], "codomain": [2], "values": [[0], [1]] * 4}
    system = {"modulus": 2, "nvars": 3, "polys": [[[1, [1, 1, 0]], [1, [0, 0, 1]]]],
              "degrees": [2]}
    files["map"].write_text(json.dumps(table))
    files["system"].write_text(json.dumps(system))
    return [arg.format(**files) for arg in argv]


_LOADED_AFTER_MAIN = """
import contextlib, io, json, sys
from axkatz.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps([code, sorted(name for name in sys.modules if name.startswith("axkatz"))]))
"""


@pytest.mark.parametrize(
    "argv, loads", COMMAND_CALLS, ids=[" ".join(argv) for argv, _ in COMMAND_CALLS]
)
def test_each_command_loads_only_the_modules_it_runs(argv, loads, tmp_path):
    done = _python("-c", _LOADED_AFTER_MAIN, *_written(argv, tmp_path))
    code, modules = json.loads(done.stdout)
    assert code == 0, done.stderr
    assert "axkatz.bounds" in modules
    assert {CALCULUS, ORACLE} & set(modules) == loads


def test_the_package_defers_calculus_and_oracle_to_first_use():
    names = "json.dumps(sorted(name for name in sys.modules if name.startswith('axkatz')))"
    done = _python("-c", f"import json, sys, axkatz; print({names})")
    assert CALCULUS not in done.stdout and ORACLE not in done.stdout, done.stderr

    # Any deferred name loads both modules, so a tracer installed after it finds both.
    for first_use in ("axkatz.FiniteMap", "axkatz.oracle.MAX_SYSTEMS"):
        done = _python("-c", f"import json, sys, axkatz; {first_use}; print({names})")
        assert CALCULUS in done.stdout and ORACLE in done.stdout, (first_use, done.stderr)

    check = """
import sys
from axkatz import *
import axkatz
missing = [name for name in axkatz.__all__ if name not in globals()]
assert not missing, missing
for name in axkatz.__all__:
    obj = globals()[name]
    assert getattr(sys.modules[obj.__module__], name) is obj, name
    assert getattr(axkatz, name) is obj, name
try:
    axkatz.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc)
else:
    raise AssertionError("no AttributeError")
assert set(axkatz.__all__) | {"calculus", "oracle"} <= set(dir(axkatz))
print("ok")
"""
    done = _python("-c", check)
    assert done.stdout == "ok\n", done.stderr

    done = _python("-c", "import axkatz; print(set(axkatz.__all__) <= set(dir(axkatz)))")
    assert done.stdout == "True\n", done.stderr


def test_start_up_loads_neither_dataclasses_nor_inspect():
    # The value types are frozen records, so no CLI process pays for
    # importing dataclasses and the inspect, ast, dis and tokenize it pulls in.
    done = _python(
        "-c",
        "import sys, axkatz.cli, axkatz.calculus, axkatz.oracle; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))",
    )
    assert done.stdout == "[]\n", done.stderr


def _parse_outcome(parser, argv, capsys):
    """(exit code or parsed options, stdout, stderr) of parsing argv."""
    try:
        outcome = vars(parser.parse_args(argv))
    except SystemExit as exc:
        outcome = exc.code
    captured = capsys.readouterr()
    return outcome, captured.out, captured.err


def test_the_one_command_parser_speaks_as_the_full_parser(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    first_calls = {argv[0]: argv for argv, _ in reversed(COMMAND_CALLS)}
    assert sorted(first_calls) == sorted(COMMANDS)
    for command, argv in first_calls.items():
        argv = _written(argv, tmp_path)
        for case in ([command, "--help"], [command], argv, [*argv, "extra"], [*argv, "-x"]):
            one = _parse_outcome(build_parser(command), case, capsys)
            assert one == _parse_outcome(build_parser(), case, capsys), case
            assert one[0] != 0 or one[1], case

    usage = "usage: axkatz [-h]\n              {" + ",".join(COMMANDS) + "}\n              ...\n"
    code, out, err = run_cli_exit(capsys, "--help")
    assert code == 0 and out.startswith(usage) and err == ""
    for name, (help_text, _, _) in COMMANDS.items():
        assert f"    {name} " in out and help_text in out
    code, out, err = run_cli_exit(capsys)
    assert (code, out) == (2, "")
    assert err == usage + "axkatz: error: the following arguments are required: command\n"
    code, out, err = run_cli_exit(capsys, "boun")
    assert (code, out) == (2, "")
    assert err.startswith(usage + "axkatz: error: argument command: invalid choice: 'boun'")
    code, out, err = run_cli_exit(capsys, "bound", "--p", "2", "--alpha", "1", "extra")
    assert (code, out) == (2, "")
    assert err == usage + "axkatz: error: unrecognized arguments: extra\n"


def test_polybound_with_a_mersenne_prime_modulus_finishes():
    done = _cli_process("polybound", "--m", str(2**61 - 1), "--n", "3", "--degrees", "2")
    assert done.returncode == 0, done.stderr
    assert list(json.loads(done.stdout)["bounds"]) == [str(2**61 - 1)]


def test_huge_target_exponent_exits_2_at_once():
    done = _cli_process("bound", "--p", "2", "--alpha", "1", "--targets", "1000000:1")
    assert done.returncode == 2
    assert done.stdout == ""
    assert f"more than {sys.get_int_max_str_digits()} digits" in done.stderr


def test_vp_refuses_an_unprintable_witness_before_computing_it():
    # With no budget the witness holds p^width - 1: width 10^6 exits 2 in
    # start-up time (the helper fails past 10 s), and the widest printable
    # width still prints.  A finite budget bounds every entry and prints.
    limit = sys.get_int_max_str_digits()
    widest = 1
    while 7 ** (widest + 1) <= 10**limit:
        widest += 1
    for alpha in ("1000000", "100000", str(widest + 1)):
        done = _cli_process("vp", "--p", "7", "--alpha", alpha, "--D", "inf")
        assert done.returncode == 2 and done.stdout == "", alpha
        assert f"more than {limit} digits" in done.stderr, alpha
    done = _cli_process("vp", "--p", "7", "--alpha", str(widest), "--D", "inf")
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["point"] == [7**widest - 1]
    done = _cli_process("vp", "--p", "7", "--alpha", "100000", "--D", "1" + "0" * (limit - 1))
    assert done.returncode == 0, done.stderr


def test_huge_alpha_parts_exit_2_at_once():
    too_long = f"more than {sys.get_int_max_str_digits()} digits"
    for argv, message in [
        (["bound", "--p", "7", "--alpha", "1000000", "--targets", "1:1"], too_long),
        (["scan", "--p", "7", "--alphas", "1000000", "--targets", "1:1"], too_long),
        (["delta", "--p", "7", "--alpha", "10000000", "--beta", "1"], too_long),
        (["verify", "--p", "7", "--alpha", "1000000", "--targets", "1:1"],
         "7^(7^1000000) tables exceed the exhaustive cap"),
        (["verify", "--p", "7", "--alpha", "1000000", "--targets", "1:1", "--mode", "sampled",
          "--seed", "1"], "group of order 7^1000000 exceeds the enumeration limit"),
        # One Ferrers column per unit of the largest part.
        (["conjugate", "--parts", "1000000000"],
         "largest part 1000000000 exceeds the enumeration limit 1000000"),
        (["vp", "--p", "2", "--alpha", "1000000000", "--D", "5"],
         "largest part 1000000000 exceeds the enumeration limit 1000000"),
    ]:
        done = _cli_process(*argv)
        assert done.returncode == 2, argv
        assert done.stdout == "", argv
        assert message in done.stderr, argv


def test_a_sample_count_past_the_system_cap_exits_2_at_once():
    done = _cli_process(
        "verify", "--p", "2", "--alpha", "1", "--targets", "1:1", "--mode", "sampled",
        "--seed", "1", "--samples", "1000000000",
    )
    assert done.returncode == 2 and done.stdout == ""
    assert "1000000000 sampled systems exceed 200000" in done.stderr


def test_verify_with_no_sample_on_a_big_domain(capsys):
    # No sample builds no table, so no cap applies: a part of 10^9 takes the
    # bound's digit check and exits 2 at once, and a part of 30 is a vacuous
    # pass without a bit mask of |A| = 7^30 bits.
    argv = ["verify", "--p", "7", "--targets", "1:1", "--mode", "sampled", "--seed", "1",
            "--samples", "0"]
    done = _cli_process(*argv, "--alpha", "1000000000")
    assert done.returncode == 2 and done.stdout == ""
    assert f"more than {sys.get_int_max_str_digits()} digits" in done.stderr
    code, out, _ = run_cli(capsys, *argv, "--alpha", "30")
    report = json.loads(out)
    assert code == 0 and report["vacuous"] and report["passed"]
    assert (report["systems_tested"], report["min_ord"]) == (0, None)


def test_fdeg_refuses_a_support_box_past_the_enumeration_limit(tmp_path, monkeypatch):
    # (Z/2)^4 -> Z/4: 16 entries, but a support box of 3^4 = 81 cells.  A
    # fresh process, since a box once built is kept with the pair's plan.
    domain, codomain = axkatz.AbelianShape((2,) * 4), axkatz.AbelianShape((4,))
    values = tuple(((3 * k + k // 5) % 4,) for k in range(16))
    f = axkatz.FiniteMap(domain, codomain, values)
    path = tmp_path / "f.json"
    path.write_text(json.dumps(f.to_json_dict()))
    monkeypatch.setenv("AXKATZ_ENUM_LIMIT", "80")
    done = _cli_process("fdeg", "--map", str(path))
    assert done.returncode == 2 and done.stdout == ""
    assert "support box of 81 cells exceeds the enumeration limit 80" in done.stderr
    # Splitting and assembling never read the box.
    assert axkatz.primary_assemble(domain, codomain, axkatz.primary_split(f)) == f
    monkeypatch.setenv("AXKATZ_ENUM_LIMIT", "81")
    done = _cli_process("fdeg", "--map", str(path))
    assert done.returncode == 0
    assert json.loads(done.stdout)["fdeg"] == axkatz.functional_degree(f).to_json()


def test_huge_alpha_parts_stay_fine_where_nothing_big_is_printed(capsys):
    code, out, _ = run_cli(capsys, "vp", "--p", "7", "--alpha", "1000000", "--D", "5")
    assert code == 0 and json.loads(out)["value"] == 1000000
    code, out, _ = run_cli(capsys, "nu", "--p", "7", "--alpha", "1000000", "--n", "1")
    assert code == 0 and json.loads(out)["value"] == 1000000


def test_exponent_past_float_range_exits_2(capsys):
    for argv in (
        ["bound", "--p", "2", "--alpha", "1", "--targets", f"{10**400}:1"],
        ["bound", "--p", "2", "--alpha", str(10**400), "--targets", "1:1"],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "", argv
        assert f"more than {sys.get_int_max_str_digits()} digits" in err, argv


def test_unprintable_results_exit_2_with_no_output(capsys):
    limit = sys.get_int_max_str_digits()
    # B = 2^14285 - 1 has 4301 digits: too long to print, though the
    # exponent passes the up-front check on p^(beta - 1).
    for argv in (
        ["bound", "--p", "2", "--alpha", "1", "--targets", "14285:1"],
        ["scan", "--p", "2", "--alphas", "1", "--targets", "1:1;14285:1", "--format", "csv"],
        ["verify", "--p", "7", "--alpha", "1", "--targets", "1:1,100000:1"],
        ["scan", "--p", "3", "--alphas", "1", "--targets", "1:1;100000:1"],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "", argv
        assert f"more than {limit} digits" in err, argv


def _ints(lo, hi, max_size=5):
    return st.lists(st.integers(lo, hi), max_size=max_size).map(
        lambda xs: ",".join(map(str, xs))
    )


_primes = st.sampled_from(["-1", "0", "1", "2", "3", "4", "7"])
_parts = _ints(-1, 8)
_target_pairs = st.lists(
    st.tuples(st.one_of(st.integers(-1, 4), st.integers(4000, 10**7)), st.integers(-1, 4)),
    min_size=1,
    max_size=3,
).map(lambda pairs: ",".join(f"{b}:{d}" for b, d in pairs))
_shape = st.tuples(_ints(-1, 9, 3), st.integers(-1, 3)).map(lambda fd: f"{fd[0]}:{fd[1]}")


@st.composite
def _argv(draw):
    def option(name, value):
        # "--name=value" lets values that start with "-" reach the parser.
        return [f"{name}={value}"] if draw(st.booleans()) else [name, value]

    command = draw(st.sampled_from(["bound", "vp", "nu", "conjugate", "polybound", "scan"]))
    if command == "conjugate":
        return [command, *option("--parts", draw(_parts))]
    if command == "polybound":
        return [
            command,
            *option("--m", str(draw(st.integers(-1, 10**20)))),
            *option("--n", str(draw(st.integers(-1, 6)))),
            *option("--degrees", draw(_ints(-1, 4, 3))),
        ]
    if command == "scan":

        def joined(items, sep):
            return draw(st.lists(items, min_size=1, max_size=2).map(sep.join))

        return [
            command,
            *option("--p", joined(_primes, ",")),
            *option("--alphas", joined(_parts, ";")),
            *option("--targets", joined(_target_pairs, ";")),
            *option("--format", draw(st.sampled_from(["json", "csv"]))),
        ]
    argv = [command, *option("--p", draw(_primes)), *option("--alpha", draw(_parts))]
    if command == "vp":
        budget = draw(st.one_of(st.integers(-1, 10**6).map(str), st.sampled_from(["inf", "x"])))
        argv += option("--D", budget)
    elif command == "nu":
        argv += option("--n", draw(_ints(-1, 300)))
    else:
        if draw(st.booleans()):
            argv += option("--targets", draw(_target_pairs))
        for shape in draw(st.lists(_shape, max_size=2)):
            argv += option("--target-shape", shape)
    return argv


@settings(max_examples=400, deadline=None)
@given(_argv())
@example(["bound", "--p", "0", "--alpha", "1", "--targets=-1:1"])
@example(["scan", "--p", "0", "--alphas", "1", "--targets=-1:1", "--format", "csv"])
@example(["bound", "--p", "2", "--alpha", "1", "--targets", "1000000:1"])
@example(["bound", "--p", "7", "--alpha", "1", "--targets", "10000000:1"])
@example(["scan", "--p", "2", "--alphas", "1", "--targets", "14285:1", "--format", "csv"])
@example(["bound", "--p", "7", "--alpha", "1000000", "--targets", "1:1"])
@example(["bound", "--p", "2", "--alpha", "1", "--targets", f"{10**400}:1"])
@example(["conjugate", "--parts", "1000000000"])
@example(["vp", "--p", "2", "--alpha", "1000000000", "--D", "5"])
def test_cli_fuzz_exit_codes_and_outputs(argv):
    _check_cli_contract(argv)


def _check_cli_contract(argv):
    """Exit code in {0, 1, 2}, no escaping exception, JSON or CSV on stdout at 0."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code
    assert code in (0, 1, 2), (argv, code)
    if code == 0:
        if "csv" in argv or "--format=csv" in argv:
            header, *rows = csv.reader(io.StringIO(out.getvalue()))
            assert header == ["p", "alpha", "targets", "A", "B", "Abreve", "case", "bound"]
            assert all(len(row) == len(header) and row[-1].isdigit() for row in rows)
        else:
            json.loads(out.getvalue())
    else:
        assert err.getvalue()


def _mostly_valid(valid, anything):
    """Draws from ``valid`` three times in four, so most examples reach the compute."""
    return st.sampled_from([valid, valid, valid, anything]).flatmap(lambda strategy: strategy)


_small_targets = _mostly_valid(
    st.lists(st.tuples(st.integers(1, 2), st.integers(1, 3)), min_size=1, max_size=2),
    st.lists(st.tuples(st.integers(-1, 2), st.integers(-1, 3)), min_size=1, max_size=2),
).map(lambda pairs: ",".join(f"{b}:{d}" for b, d in pairs))


@st.composite
def _verify_argv(draw):
    """verify on domains and caps small enough to keep each example in milliseconds."""
    def option(name, value):
        return [f"{name}={value}"] if draw(st.booleans()) else [name, value]

    parts = st.lists(st.integers(1, 2), min_size=1, max_size=3).map(
        lambda xs: ",".join(map(str, sorted(xs, reverse=True)))
    )
    argv = [
        "verify",
        # Only p in {2, 3} reaches the compute: (Z/49)^3 at p = 7 takes seconds.
        *option("--p", draw(_mostly_valid(st.sampled_from(["2", "3"]), st.sampled_from(["-1", "0", "1", "4"])))),
        *option("--alpha", draw(_mostly_valid(parts, _ints(-1, 2, 3)))),
    ]
    if draw(st.sampled_from([True, True, True, False])):
        argv += option("--targets", draw(_small_targets))
    else:
        argv += option("--target-shape", draw(_ints(-1, 4, 2).map(lambda f: f"{f}:1")))
    mode = draw(st.sampled_from(["exhaustive", "sampled"]))
    argv += option("--mode", mode)
    if mode == "sampled":
        if draw(st.sampled_from([True, True, True, False])):
            argv += option("--seed", str(draw(st.integers(0, 10**6))))
        # A quarter of the sample counts pass the system cap and exit 2 at once.
        small = _mostly_valid(st.integers(1, 4), st.integers(-1, 4))
        huge = st.integers(axkatz.oracle.MAX_SYSTEMS + 1, 10**12)
        argv += option("--samples", str(draw(_mostly_valid(small, huge))))
    else:
        argv += option("--cap", str(draw(_mostly_valid(st.integers(16, 300), st.integers(-1, 300)))))
    return argv


@settings(max_examples=120, deadline=None)
@given(_verify_argv())
@example(["verify", "--p", "2", "--alpha", "2,1", "--targets", "1:3", "--cap", "256"])
@example(["verify", "--p", "3", "--alpha", "1,1", "--targets", "1:2,2:1", "--mode", "sampled",
          "--seed", "4", "--samples", "3"])
@example(["verify", "--p", "7", "--alpha", "1000000000", "--targets", "1:1", "--mode", "sampled",
          "--seed", "1", "--samples", "0"])
@example(["verify", "--p", "7", "--alpha", "30", "--targets", "1:1", "--mode", "sampled",
          "--seed", "1", "--samples", "0"])
def test_cli_fuzz_verify(argv):
    _check_cli_contract(argv)


_table_json = st.one_of(
    st.fixed_dictionaries(
        {
            "domain": st.lists(st.integers(-1, 4), max_size=2),
            "codomain": st.lists(st.integers(-1, 4), max_size=2),
            "values": st.lists(
                st.lists(st.one_of(st.integers(-1, 4), st.booleans()), max_size=2), max_size=17
            ),
        }
    ).map(json.dumps),
    st.sampled_from(["{not json", "[]", '{"domain": 4}', '{"domain": [2], "codomain": [2]}']),
)


@st.composite
def _valid_table(draw, domain):
    """A well-formed table on the given small domain, so fdeg and zeros get
    past parsing and zeros meets systems of several maps."""
    codomain = draw(st.lists(st.integers(2, 6), min_size=1, max_size=2))
    order = math.prod(domain)
    values = [[draw(st.integers(0, m - 1)) for m in codomain] for _ in range(order)]
    return json.dumps({"domain": domain, "codomain": codomain, "values": values})


@pytest.fixture(scope="module")
def table_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("tables")


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_cli_fuzz_table_files(table_dir, data):
    # Factors up to 6 take in Z/6, whose Sylow components need CRT multipliers.
    domain = data.draw(st.lists(st.integers(2, 6), min_size=1, max_size=2))
    tables = data.draw(st.lists(st.one_of(_valid_table(domain), _table_json), max_size=3))
    paths = []
    for k, text in enumerate(tables):
        path = table_dir / f"table{k}.json"
        path.write_text(text)
        paths.append(str(path))
    if data.draw(st.booleans()):
        paths.append(str(table_dir / "missing.json"))
    command = data.draw(st.sampled_from(["fdeg", "zeros", "trace"]))
    if command == "fdeg" and paths:
        argv = ["fdeg", "--map", paths[0]]
    elif command == "trace":
        argv = ["trace", "--maps", ",".join(paths)]
        if data.draw(st.booleans()):
            # Small lift exponents, and ones whose indicator series is far
            # too wide to build.
            beta = data.draw(st.one_of(st.integers(-1, 4), st.integers(10**4, 10**30)))
            argv += ["--beta", str(beta)]
    else:
        argv = ["zeros", "--maps", ",".join(paths)]
        if data.draw(st.booleans()):
            argv += ["--domain", data.draw(_ints(-1, 4, 2))]
    _check_cli_contract(argv)
