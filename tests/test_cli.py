import json
import re

import numpy as np
import pytest

from sumcore import witness as witness_mod
from sumcore.cli import main, parse_model_arg, to_jsonable
from sumcore.model import ZWindow, CayleyGroup, build_model, cyclic_table, read_set_file


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def strip_wall_time(text):
    return re.sub(r'"wall_time_ms": [0-9.]+', '"wall_time_ms": 0', text)


class TestModelArg:
    def test_zwindow(self):
        m = parse_model_arg("zwindow:100:50")
        assert isinstance(m, ZWindow)
        assert m.carrier_size == 100

    def test_zmod(self):
        m = parse_model_arg("zmod:6")
        assert isinstance(m, CayleyGroup)
        assert m.op(5, 3) == 2

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_zmod_needs_a_positive_order(self, capsys, n):
        code, out = run_cli(capsys, "witness", "--model", f"zmod:{n}", "--set", "pow2",
                            "--k", "2")
        assert code == 2
        assert json.loads(out)["error"] == {
            "type": "BadBounds", "message": f"zmod:n needs n >= 1, got n={n}"}

    @pytest.mark.parametrize("n", [1, 2, 60])
    def test_zmod_is_known_to_be_a_group(self, n):
        # recorded at parse time: neither the table array nor Light's test is built
        m = parse_model_arg(f"zmod:{n}")
        assert m.is_group is True
        assert "_table_array" not in vars(m)
        assert CayleyGroup(cyclic_table(n)).is_group is True

    @pytest.mark.parametrize("n", [1, 2, 7, 60])
    def test_zmod_is_the_validated_cyclic_table(self, n):
        assert parse_model_arg(f"zmod:{n}") == build_model(
            {"kind": "cayley", "table": [list(r) for r in cyclic_table(n)]})

    @pytest.mark.parametrize("text", ["zwindow:1_000:500", "zwindow:+100:50",
                                      "zwindow:100: 50", "zmod:٣", "zmod:+6",
                                      "zmod:6.0", "zmod:", "zmod:6:2", "zwindow:100"])
    def test_sizes_are_ascii_decimals(self, capsys, text):
        code, out = run_cli(capsys, "witness", "--model", text, "--set", "pow2",
                            "--k", "2")
        assert code == 2
        assert json.loads(out)["error"] == {
            "type": "SumcoreError", "message": f"cannot parse model {text!r}"}

    def test_cayley_file(self, tmp_path):
        path = tmp_path / "table.json"
        path.write_text(json.dumps([[0, 1], [1, 0]]))
        m = parse_model_arg(f"cayley:{path}")
        assert isinstance(m, CayleyGroup)
        assert m.order == 2


class TestSubcommands:
    def test_witness_pow2_exit1(self, capsys):
        code, out = run_cli(capsys, "witness", "--model", "zwindow:65536:32768",
                            "--set", "pow2", "--k", "2", "--mode", "exact")
        assert code == 1
        rep = json.loads(out)
        assert rep["kind"] == "witness"
        assert rep["result"] == {"status": "not_found", "exhaustive": True}
        assert rep["certificate"] is None

    def test_translate_past_the_carrier_is_empty(self, capsys):
        code = main(["witness", "--model", "zwindow:64:32",
                     "--set", "translate(pow2,99999999999999999999)", "--k", "2"])
        out, err = capsys.readouterr()
        assert (code, err) == (1, "")
        assert json.loads(out)["result"] == {"status": "not_found", "exhaustive": True}

    def test_density_evens(self, capsys):
        code, out = run_cli(capsys, "density", "--model", "zwindow:100:50",
                            "--set", "multiples(2)", "--n", "10")
        assert code == 0
        rep = json.loads(out)
        assert rep["result"]["report"]["density"] == "1/2"

    def test_find_point_partition(self, capsys):
        code, out = run_cli(capsys, "find-point", "--model", "zwindow:100:50",
                            "--set", "multiples(10)", "--alpha", "1/2", "--N", "5")
        assert code == 1
        rep = json.loads(out)
        assert rep["result"]["status"] == "partition"
        assert rep["certificate"]["type"] == "PartitionCertificate"
        assert rep["verified"] is True

    def test_find_point_good(self, capsys):
        code, out = run_cli(capsys, "find-point", "--model", "zwindow:100:50",
                            "--set", "threshold(1)", "--alpha", "1/2", "--N", "8")
        assert code == 0
        rep = json.loads(out)
        assert rep["result"]["status"] == "good_point"
        assert rep["verified"] is True

    def test_ladder_report(self, capsys):
        code, out = run_cli(capsys, "ladder", "--model", "zwindow:256:128",
                            "--set", "threshold(64)", "--k-max", "4")
        assert code == 0
        rep = json.loads(out)
        assert rep["result"]["k"] == 4
        assert rep["result"]["lower_bound_only"] is False
        assert rep["verified"] is True

    def test_witness_found(self, capsys):
        code, out = run_cli(capsys, "witness", "--model", "zwindow:1024:512",
                            "--set", "multiples(3)", "--k", "4")
        assert code == 0
        rep = json.loads(out)
        assert rep["certificate"]["b"] == [0, 3, 6, 9]
        assert rep["verified"] is True

    def test_triangular(self, capsys):
        code, out = run_cli(capsys, "triangular", "--model", "zwindow:256:128",
                            "--set", "threshold(64)", "--m", "3")
        assert code == 0
        rep = json.loads(out)
        assert rep["certificate"]["b"] == [0, 1, 2]
        assert rep["certificate"]["c"] == [64, 65, 66]

    def test_upgrade(self, capsys):
        code, out = run_cli(capsys, "upgrade", "--model", "zwindow:400:200",
                            "--set", "multiples(2)",
                            "--b", "0,2,4,6,8,10,12,14",
                            "--c", "16,18,20,22,24,26,28,30")
        assert code == 0
        rep = json.loads(out)
        assert rep["result"]["tag"] == "square"
        assert rep["result"]["homogeneous_size"] == 8
        assert rep["verified"] is True

    def test_defwitness(self, capsys):
        code, out = run_cli(capsys, "defwitness", "--model", "zwindow:1024:512",
                            "--set", "multiples(3)", "--family", "aps",
                            "--n", "10", "--step-max", "16")
        assert code == 0
        rep = json.loads(out)
        assert rep["certificate"]["theta1"] == {
            "type": "FamilyDescriptor", "start": 0, "step": 3, "length": 10}

    def test_growth_csv(self, capsys):
        code, out = run_cli(capsys, "growth", "--model", "zwindow:4096:2048",
                            "--set", "pow2", "--k-max", "3", "--out", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "k,found,exhaustive"
        assert lines[1:] == ["1,1,1", "2,0,1", "3,0,1"]

    def test_density_schedule_csv(self, capsys):
        code, out = run_cli(capsys, "density", "--model", "zwindow:100:50",
                            "--set", "multiples(2)", "--schedule", "2,10",
                            "--out", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,best_start,count,density"
        assert lines[1] == "2,0,1,1/2"

    def test_syndetic(self, capsys):
        code, out = run_cli(capsys, "syndetic", "--model", "zmod:6",
                            "--set", "multiples(2)")
        assert code == 0
        rep = json.loads(out)
        assert rep["certificate"]["translates"] == [0, 1]
        assert rep["result"]["optimal"] is True

    def test_gen_list_and_rle(self, capsys, tmp_path):
        out_path = tmp_path / "a.set"
        code, _ = run_cli(capsys, "gen", "--model", "zwindow:64:32",
                          "--set", "pow2", "--output", str(out_path))
        assert code == 0
        members, _ = read_set_file(out_path)
        assert members == [1, 2, 4, 8, 16, 32]
        code, _ = run_cli(capsys, "gen", "--model", "zwindow:64:32",
                          "--set", "pow2", "--output", str(out_path),
                          "--format", "rle")
        assert code == 0
        members, size = read_set_file(out_path)
        assert members == [1, 2, 4, 8, 16, 32]
        assert size == 64

    @pytest.mark.parametrize("fmt", ["list", "rle"])
    def test_gen_stdout_is_the_set_file(self, capsys, tmp_path, fmt):
        out_path = tmp_path / "a.set"
        argv = ("gen", "--model", "zwindow:64:32", "--set", "union(pow2,threshold(60))",
                "--format", fmt)
        code, _ = run_cli(capsys, *argv, "--output", str(out_path))
        assert code == 0
        code, out = run_cli(capsys, *argv)
        assert code == 0
        assert out == out_path.read_text()
        assert read_set_file(out_path)[0] == [1, 2, 4, 8, 16, 32, 60, 61, 62, 63]

    def test_set_file_token_past_int_string_limit(self, capsys, tmp_path):
        # ASCII digits, so in the format, but too long for int(): an error
        # that names the file and the token's offset
        path = tmp_path / "a.set"
        path.write_bytes(b"5\n" + b"7" * 5000 + b"\n")
        code = main(["density", "--model", "zwindow:64:32", "--set", f"file({path})"])
        captured = capsys.readouterr()
        assert code == 2
        error = json.loads(captured.out)["error"]
        assert error["type"] == "SumcoreError"
        assert f"5000-digit token at offset 2 of {path}" in error["message"]
        assert captured.err == ""

    @pytest.mark.parametrize("flags", [
        ("witness", "--k", "\u0662"),               # Arabic-Indic two
        ("syndetic", "--core", "1_0,2_0"),
        ("syndetic", "--core", "10,20", "--shifts=-5,+5"),
        ("density", "--schedule", "2,1\u0660"),
        ("density", "--n", " 8"),
        ("witness", "--k", "2", "--budget", "1e3"),
        ("find-point", "--alpha", "1/2", "--N", "\uff18"),  # fullwidth eight
    ], ids=["k", "core", "shifts", "schedule", "n", "budget", "N"])
    def test_integer_flags_read_ascii_digits_only(self, capsys, flags):
        # every integer flag reads -?[0-9]+, as the model argument does
        command, *rest = flags
        code, out = run_cli(capsys, command, "--model", "zwindow:100:50",
                            "--set", "multiples(2)", *rest)
        assert code == 2
        error = json.loads(out)["error"]
        assert error["type"] == "SumcoreError"
        assert "is not an ASCII decimal integer" in error["message"]

    @pytest.mark.parametrize("alpha", ["\u0661/2", "1/\u0662", "\uff11/2", "1/0"],
                             ids=["arabic-indic-p", "arabic-indic-q", "fullwidth-p", "zero-q"])
    def test_alpha_reads_the_dsl_rational(self, capsys, alpha):
        # --alpha is the DSL's rational literal: ASCII digits and q != 0
        code, out = run_cli(capsys, "find-point", "--model", "zwindow:100:50",
                            "--set", "pow2", "--alpha", alpha, "--N", "5")
        assert code == 2
        assert json.loads(out)["error"]["type"] == "ParseError"

    @pytest.mark.parametrize("alpha", ["1/2", "0.5", "1"])
    def test_alpha_literals(self, capsys, alpha):
        code, out = run_cli(capsys, "find-point", "--model", "zwindow:100:50",
                            "--set", "threshold(1)", "--alpha", alpha, "--N", "8")
        assert code == 0
        rep = json.loads(out)
        assert rep["parameters"]["alpha"] == ("1/1" if alpha == "1" else "1/2")
        assert rep["result"]["status"] == "good_point"

    def test_deep_witness_found(self, capsys):
        # k = 1500 tree levels: deeper than the interpreter's recursion limit
        code, out = run_cli(capsys, "witness", "--model", "zwindow:4096:2048",
                            "--set", "threshold(0)", "--k", "1500")
        assert code == 0
        rep = json.loads(out)
        assert rep["result"] == {"status": "found", "k": 1500}
        assert rep["verified"] is True

    def test_internal_error_exits_2(self, capsys, monkeypatch):
        # a fault inside the library is an error, never a definite negative
        def fault(*args, **kwargs):
            raise RuntimeError("internal fault")

        monkeypatch.setattr(witness_mod, "find_square_witness", fault)
        code = main(["witness", "--model", "zwindow:100:50", "--set", "pow2",
                     "--k", "2"])
        captured = capsys.readouterr()
        assert code == 2
        assert json.loads(captured.out) == {
            "kind": "error",
            "error": {"type": "RuntimeError", "message": "internal fault"}}
        assert "Traceback" in captured.err

    def test_value_without_json_form_exits_2(self, capsys, monkeypatch):
        # a numpy scalar in a certificate is a fault, never its repr in a report
        def numpy_witness(*args, **kwargs):
            return witness_mod.SquareWitness((np.int64(0), np.int64(1)), (0, 1))

        monkeypatch.setattr(witness_mod, "find_square_witness", numpy_witness)
        code = main(["witness", "--model", "zwindow:100:50", "--set", "threshold(0)",
                     "--k", "2"])
        captured = capsys.readouterr()
        assert code == 2
        error = json.loads(captured.out)["error"]
        assert error["type"] == "TypeError"
        assert error["message"].startswith("no JSON form for int64 ")
        with pytest.raises(TypeError):
            to_jsonable({"x": np.int64(3)})

    def test_negative_shift_range(self, capsys):
        # "--shifts -5,5" would read -5,5 as an option flag
        code, out = run_cli(capsys, "syndetic", "--model", "zwindow:100:50",
                            "--set", "threshold(0)", "--core", "10,20",
                            "--shifts=-5,5")
        assert code == 0
        rep = json.loads(out)
        assert rep["parameters"]["shifts"] == [-5, 5]
        assert rep["result"]["status"] == "covered"

    def test_error_exit_code(self, capsys):
        code, out = run_cli(capsys, "density", "--model", "zwindow:100:50",
                            "--set", "bernoulli(0.5)")
        assert code == 2
        rep = json.loads(out)
        assert rep["kind"] == "error"
        assert rep["error"]["type"] == "ParseError"

    def test_cayley_cover_knobs_exit_2(self, capsys):
        for knob in (("--core", "1,3"), ("--shifts=0,3",)):
            code, out = run_cli(capsys, "syndetic", "--model", "zmod:6",
                                "--set", "multiples(2)", *knob)
            assert code == 2
            assert json.loads(out)["error"]["type"] == "BadCore"

    def test_huge_shift_range(self, capsys):
        code, out = run_cli(capsys, "syndetic", "--model", "zwindow:64:32",
                            "--set", "multiples(3)", "--core", "0,64",
                            "--shifts=-1000000000000,1000000000000", "--t-max", "3")
        assert code == 0
        assert json.loads(out)["result"] == {"status": "covered", "t": 3, "optimal": True}

    def test_non_integer_table_entry_exit_2(self, capsys, tmp_path):
        path = tmp_path / "table.json"
        path.write_text("[[0, 1.5], [1, 0]]")
        code, out = run_cli(capsys, "density", "--model", f"cayley:{path}",
                            "--set", "multiples(2)")
        assert code == 2
        assert json.loads(out)["error"]["type"] == "ElementOutOfRange"

    def test_table_not_a_list_exit_2(self, capsys, tmp_path):
        # a traceback on stderr through the internal-fault path before
        path = tmp_path / "table.json"
        path.write_text("5")
        code = main(["density", "--model", f"cayley:{path}", "--set", "multiples(2)"])
        out, err = capsys.readouterr()
        assert code == 2
        assert json.loads(out)["error"]["type"] == "BadBounds"
        assert err == ""

    def test_bad_model_exit_code(self, capsys):
        code, out = run_cli(capsys, "density", "--model", "zwindow:100:80",
                            "--set", "pow2", "--n", "4")
        assert code == 2
        assert json.loads(out)["error"]["type"] == "BadBounds"


# argv, its status, the exit code, and the subcommand's own options
RUNNER_CASES = [
    (("density", "--model", "zwindow:100:50", "--set", "multiples(2)", "--n", "10"),
     "computed", 0, {"n", "schedule"}),
    (("find-point", "--model", "zwindow:100:50", "--set", "threshold(1)",
      "--alpha", "1/2", "--N", "8"), "good_point", 0, {"interval", "alpha", "N"}),
    (("find-point", "--model", "zwindow:100:50", "--set", "multiples(10)",
      "--alpha", "1/2", "--N", "5"), "partition", 1, {"interval", "alpha", "N"}),
    (("ladder", "--model", "zwindow:256:128", "--set", "threshold(64)", "--k-max", "3"),
     "computed", 0, {"k_max", "budget"}),
    (("witness", "--model", "zwindow:1024:512", "--set", "multiples(3)", "--k", "4"),
     "found", 0, {"k", "mode", "budget"}),
    (("witness", "--model", "zwindow:4096:2048", "--set", "pow2", "--k", "2"),
     "not_found", 1, {"k", "mode", "budget"}),
    (("triangular", "--model", "zwindow:256:128", "--set", "threshold(64)", "--m", "3"),
     "found", 0, {"m", "scorer", "seed", "budget"}),
    (("triangular", "--model", "zwindow:64:32", "--set", "pow2", "--m", "3"),
     "not_found", 1, {"m", "scorer", "seed", "budget"}),
    (("upgrade", "--model", "zwindow:400:200", "--set", "multiples(2)",
      "--b", "0,2,4,6", "--c", "8,10,12,14"), "computed", 0, {"b", "c"}),
    (("defwitness", "--model", "zwindow:1024:512", "--set", "multiples(3)",
      "--family", "aps", "--n", "10", "--step-max", "8"),
     "found", 0, {"family", "n", "step_max", "budget"}),
    (("growth", "--model", "zwindow:256:128", "--set", "multiples(2)", "--k-max", "3"),
     "computed", 0, {"k_max", "mode", "budget"}),
    (("syndetic", "--model", "zmod:6", "--set", "multiples(2)"),
     "covered", 0, {"core", "shifts", "t_max", "mode"}),
    (("syndetic", "--model", "zmod:64", "--set", "multiples(4)", "--t-max", "3"),
     "infeasible", 1, {"core", "shifts", "t_max", "mode"}),
]


RUNNER_IDS = [f"{argv[0]}-{status}" for argv, status, _, _ in RUNNER_CASES]


class TestRunner:
    @pytest.mark.parametrize("case", RUNNER_CASES, ids=RUNNER_IDS)
    def test_exit_code_follows_status(self, capsys, case):
        argv, status, code, _ = case
        got, out = run_cli(capsys, *argv)
        assert json.loads(out)["result"]["status"] == status
        assert got == code

    @pytest.mark.parametrize("case", RUNNER_CASES, ids=RUNNER_IDS)
    def test_parameters_are_the_subcommand_options(self, capsys, case):
        argv, _, _, options = case
        _, out = run_cli(capsys, *argv)
        assert set(json.loads(out)["parameters"]) == {"model", "set"} | options

    def test_parameters_echo_parsed_options(self, capsys):
        _, out = run_cli(capsys, "syndetic", "--model", "zwindow:100:50",
                         "--set", "multiples(2)", "--core", "10,20", "--shifts=-5,5")
        assert json.loads(out)["parameters"]["core"] == [10, 20]
        assert json.loads(out)["parameters"]["shifts"] == [-5, 5]
        _, out = run_cli(capsys, "density", "--model", "zwindow:100:50",
                         "--set", "multiples(2)", "--schedule", "2,10")
        assert json.loads(out)["parameters"]["schedule"] == [2, 10]

    @pytest.mark.parametrize("argv", [
        ("syndetic", "--model", "zmod:6", "--set", "multiples(2)", "--budget", "1"),
        ("gen", "--model", "zwindow:64:32", "--set", "pow2", "--seed", "1"),
        ("density", "--model", "zwindow:100:50", "--set", "pow2", "--budget", "5"),
        ("witness", "--model", "zwindow:1024:512", "--set", "multiples(3)", "--k", "4",
         "--out", "csv"),
        ("witness", "--model", "zwindow:1024:512", "--set", "multiples(3)", "--k", "4",
         "--seed", "1"),
        ("upgrade", "--model", "zwindow:400:200", "--set", "multiples(2)",
         "--b", "0,2", "--c", "4,6", "--budget", "1"),
        ("find-point", "--model", "zwindow:100:50", "--set", "pow2", "--alpha", "1/2",
         "--N", "5", "--out", "csv"),
        ("gen", "--model", "zwindow:64:32", "--set", "pow2", "--out", "csv"),
        # intervals have step 1: that family never reads --step-max
        ("defwitness", "--model", "zwindow:64:32", "--set", "multiples(2)",
         "--family", "intervals", "--n", "2", "--step-max", "0"),
        # a schedule replaces --n, and only a schedule has csv rows
        ("density", "--model", "zwindow:100:50", "--set", "pow2", "--n", "5",
         "--schedule", "3,4"),
        ("density", "--model", "zwindow:100:50", "--set", "pow2", "--n", "5",
         "--out", "csv"),
        # the greedy spends no nodes
        ("witness", "--model", "zwindow:1024:512", "--set", "multiples(3)", "--k", "4",
         "--mode", "heuristic", "--budget", "0"),
        ("triangular", "--model", "zwindow:256:128", "--set", "threshold(64)", "--m", "3",
         "--scorer", "pool_size", "--budget", "5"),
        ("growth", "--model", "zwindow:256:128", "--set", "multiples(2)", "--k-max", "3",
         "--mode", "heuristic", "--budget", "5"),
    ], ids=lambda argv: f"{argv[0]}{argv[-2]}")
    def test_ignored_option_is_rejected(self, capsys, argv):
        # a usage error, as for any malformed argv; nothing is run
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("argv", [
        ("witness", "--model", "zwindow:1024:512", "--set", "multiples(3)", "--k", "4",
         "--budget", "-3"),
        ("growth", "--model", "zwindow:256:128", "--set", "multiples(2)", "--k-max", "3",
         "--budget", "-1"),
        ("syndetic", "--model", "zmod:6", "--set", "multiples(2)", "--t-max", "-1"),
        ("defwitness", "--model", "zwindow:64:32", "--set", "pow2", "--family", "aps",
         "--n", "2", "--step-max", "0"),
    ], ids=lambda argv: f"{argv[0]}{argv[-2]}")
    def test_negative_limit_is_an_error(self, capsys, argv):
        code, out = run_cli(capsys, *argv)
        assert code == 2
        assert json.loads(out)["error"]["type"] == "ValueError"


class TestReproducibility:
    CASES = [
        ("density", "--model", "zwindow:100:50", "--set", "multiples(2)",
         "--n", "10"),
        ("find-point", "--model", "zwindow:100:50", "--set", "multiples(10)",
         "--alpha", "1/2", "--N", "5"),
        ("ladder", "--model", "zwindow:256:128", "--set", "threshold(64)",
         "--k-max", "3"),
        ("witness", "--model", "zwindow:1024:512", "--set", "multiples(3)",
         "--k", "4"),
        ("growth", "--model", "zwindow:256:128", "--set", "multiples(2)",
         "--k-max", "3"),
        ("syndetic", "--model", "zmod:8", "--set", "explicit(0,4)"),
    ]

    @pytest.mark.parametrize("case", CASES, ids=lambda c: c[0])
    def test_reports_reproducible_across_thread_caps(self, capsys, case):
        # the search is single-threaded; the same argv is run twice
        _, first = run_cli(capsys, *case)
        _, second = run_cli(capsys, *case)
        assert strip_wall_time(first) == strip_wall_time(second)

    def test_random_scorer_follows_seed(self, capsys):
        case = ("triangular", "--model", "zwindow:4096:2048",
                "--set", "bernoulli(1/2,3)", "--m", "4", "--scorer", "random")
        _, one = run_cli(capsys, *case, "--seed", "1")
        _, again = run_cli(capsys, *case, "--seed", "1")
        _, other = run_cli(capsys, *case, "--seed", "99")
        assert strip_wall_time(one) == strip_wall_time(again)
        assert json.loads(one)["certificate"] != json.loads(other)["certificate"]
        assert json.loads(one)["verified"] is True
