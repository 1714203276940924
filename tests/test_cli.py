import io
import json

import pytest

from cherednik_kit.cli import build_parser, main


def run_cli(*argv):
    out = io.StringIO()
    parser = build_parser()
    args = parser.parse_args(list(argv))
    code = args.func(args, out)
    return code, out.getvalue()


class TestGoldenOutputs:
    def test_norm_min_column(self):
        code, out = run_cli("norm-min", "--r", "1", "--shape", "1,1")
        assert code == 0 and out == "2 * (1 + 2*c0)\n"

    def test_norm_min_row(self):
        code, out = run_cli("norm-min", "--r", "1", "--shape", "3")
        assert code == 0 and out == "6\n"

    def test_aspherical_list_json(self):
        code, out = run_cli("aspherical", "list", "--r", "2", "--n", "1", "--json")
        assert code == 0
        data = json.loads(out)
        assert data == [{
            "form": ["1", "0", "1", "-1"],
            "k": 1, "kind": "d", "l": 1, "m": 0,
        }]

    def test_core_quotient_decode(self):
        code, out = run_cli("core-quotient", "decode", "--r", "2", "--shape", "1,1")
        assert code == 0 and out == "a=0,0; quotient=1|\n"

    def test_order_compare(self):
        code, out = run_cli("order", "compare", "--r", "2", "--c0", "1",
                            "--d", "1,-1", "--a", "1|", "--b", "|1")
        assert code == 0
        assert out == ">=_c\nequiv: no\n"

    def test_order_compare_quotient_verdict(self):
        code, out = run_cli("order", "compare", "--r", "2", "--c0", "1",
                            "--d", "2,-2", "--a", "1|1", "--b", "|2")
        assert code == 0
        assert "quotient order:" in out

    def test_params_convert_gordon(self):
        code, out = run_cli("params", "convert", "--r", "2", "--c0", "1/2",
                            "--d", "1,-1", "--to", "gordon")
        assert code == 0 and out == "H = -1,1\nh = -1/2\n"

    def test_params_convert_hecke(self):
        code, out = run_cli("params", "convert", "--r", "1", "--c0", "1/2",
                            "--d", "0", "--to", "hecke")
        assert code == 0
        assert "q_exponent = -1/2" in out

    def test_spectrum_tsv(self):
        code, out = run_cli("spectrum", "--r", "1", "--shape", "1", "--mu", "3",
                            "--format", "tsv")
        assert code == 0
        assert out.splitlines()[0] == "i\tzeta_residue\tz_eigenvalue"
        assert out.splitlines()[1] == "1\t0\t4"

    def test_hook(self):
        code, out = run_cli("hook", "--r", "2", "--shape", "|1")
        assert code == 0
        assert out == ("hook: 1\nextra: 1 * (1 + d0 - d1)\n"
                       "minimal_norm: 1 * (1 + d0 - d1)\n")

    def test_norm_f_single_cell(self):
        code, out = run_cli("norm-f", "--r", "1", "--shape", "1", "--mu", "3")
        assert code == 0 and out == "6\n"

    def test_norm_g_column(self):
        code, out = run_cli("norm-g", "--r", "1", "--shape", "1,1",
                            "--values", "0/1")
        assert code == 0 and out == "2 * (1 + 2*c0)\n"

    def test_norm_g_rejects_bad_filling(self, capsys):
        assert main(["norm-g", "--r", "1", "--shape", "1,1", "--values", "0/0"]) == 1


class TestRoundTrips:
    def test_core_quotient_cli_roundtrip(self):
        _, decoded = run_cli("core-quotient", "decode", "--r", "3", "--shape", "4,2,1")
        a = decoded.split(";")[0].split("=")[1].strip()
        quotient = decoded.split("=")[2].strip()
        _, encoded = run_cli("core-quotient", "encode", "--r", "3",
                             "--a", a, "--quotient", quotient)
        assert encoded == "4,2,1\n"

    def test_partitions_count(self):
        code, out = run_cli("partitions", "--r", "2", "--n", "2")
        assert code == 0 and len(out.splitlines()) == 5

    def test_syt_listing(self):
        code, out = run_cli("syt", "--r", "2", "--shape", "1|1")
        assert code == 0 and out.splitlines() == ["1|2", "2|1"]


class TestDeterminism:
    def test_byte_identical_runs(self):
        a = run_cli("aspherical", "list", "--r", "3", "--n", "3", "--json")[1]
        b = run_cli("aspherical", "list", "--r", "3", "--n", "3", "--json")[1]
        assert a == b

    def test_oracle_verify_deterministic_without_timings(self):
        args = ("oracle", "verify", "--r", "1", "--n", "2", "--degree", "1",
                "--seed", "7", "--no-timings")
        a = run_cli(*args)
        b = run_cli(*args)
        assert a == b and a[0] == 0
        report = json.loads(a[1])
        assert report["schema"] == "cherednik-kit/1"
        assert report["ok"] is True
        assert all("seconds" not in c for c in report["checks"])

    def test_oracle_verify_env_seed(self, monkeypatch):
        monkeypatch.setenv("CHEREDNIK_SEED", "9")
        a = run_cli("oracle", "verify", "--r", "1", "--n", "2", "--degree", "1",
                    "--no-timings")
        b = run_cli("oracle", "verify", "--r", "1", "--n", "2", "--degree", "1",
                    "--seed", "9", "--no-timings")
        assert a == b


class TestErrorHandling:
    def test_domain_error_exit_code(self, capsys):
        assert main(["norm-min", "--r", "1", "--shape", "2,3"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            main(["norm-min"])
        assert exc.value.code == 2

    def test_shape_r_mismatch(self, capsys):
        assert main(["norm-min", "--r", "2", "--shape", "1,1"]) == 1

    def test_negative_degree_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["oracle", "verify", "--r", "1", "--n", "2", "--degree", "-1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("r, n, shape", [("1", "2", "3"), ("1", "3", "1,1"),
                                             ("2", "2", "2")])
    def test_oracle_verify_shape_mismatch_is_usage_error(self, r, n, shape, capsys):
        assert main(["oracle", "verify", "--r", r, "--n", n, "--shape", shape]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and repr(shape) in captured.err

    def test_zero_denominator_names_value(self, capsys):
        assert main(["params", "convert", "--r", "1", "--c0", "1/0", "--d", "0",
                     "--to", "gordon"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "'1/0'" in err

    @pytest.mark.parametrize("argv, code", [
        (["partitions", "--r", "1", "--n", "2"], 2),
        (["syt", "--r", "1", "--shape", "2"], 2),
        (["spectrum", "--r", "1", "--shape", "1", "--mu", "3"], 0),
        (["norm-f", "--r", "1", "--shape", "1", "--mu", "3"], 2),
        (["norm-g", "--r", "1", "--shape", "1,1", "--values", "0/1"], 2),
        (["norm-min", "--r", "1", "--shape", "2,1"], 2),
        (["hook", "--r", "1", "--shape", "2,1"], 2),
        (["aspherical", "list", "--r", "1", "--n", "2"], 0),
        (["aspherical", "test", "--r", "1", "--n", "2", "--c0", "1/3", "--d", "0"], 2),
        (["order", "compare", "--r", "1", "--c0", "1", "--d", "0", "--a", "1", "--b", "1"], 2),
        (["core-quotient", "decode", "--r", "2", "--shape", "1,1"], 2),
        (["oracle", "verify", "--r", "1", "--n", "2", "--degree", "1", "--no-timings"], 2),
        (["params", "convert", "--r", "1", "--c0", "1", "--d", "0", "--to", "gordon"], 2),
    ])
    def test_tsv_only_where_implemented(self, argv, code, capsys):
        try:
            got = main(argv + ["--format", "tsv"])
        except SystemExit as exc:
            got = exc.code
        assert got == code
        if code == 0:
            assert "\t" in capsys.readouterr().out

    def test_aspherical_test_negative_c0(self):
        code, out = run_cli("aspherical", "test", "--r", "1", "--n", "2",
                            "--c0=-1/2", "--d", "0")
        assert code == 0 and out.splitlines()[0] == "aspherical"

    def test_aspherical_not_member(self):
        code, out = run_cli("aspherical", "test", "--r", "1", "--n", "2",
                            "--c0", "1/3", "--d", "0")
        assert code == 0 and out == "not aspherical\n"


class TestJsonEnvelopes:
    def test_schema_version(self):
        code, out = run_cli("norm-min", "--r", "1", "--shape", "1,1",
                            "--format", "json")
        data = json.loads(out)
        assert data["schema"] == "cherednik-kit/1"
        assert data["result"] == "2 * (1 + 2*c0)"

    def test_empty_result_valid_json(self):
        code, out = run_cli("partitions", "--r", "1", "--n", "0", "--format", "json")
        data = json.loads(out)
        assert data["result"] == [""]


class TestHelp:
    def test_every_subcommand_has_help(self):
        parser = build_parser()
        subparsers = next(a for a in parser._actions
                          if isinstance(a, type(parser._subparsers._group_actions[0])))
        for name, sp in subparsers.choices.items():
            text = sp.format_help()
            assert text

    def test_flags_documented(self):
        parser = build_parser()
        help_text = parser.format_help()
        for cmd in ("partitions", "syt", "spectrum", "norm-f", "norm-g",
                    "norm-min", "hook", "aspherical", "order", "core-quotient",
                    "oracle", "params"):
            assert cmd in help_text
