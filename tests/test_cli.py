import hashlib
import io
import json
import math
import pathlib
import re
import shlex

import pytest

from cherednik_kit.cli import build_parser, main
from cherednik_kit.combinatorics import enumerate_multipartitions


def run_cli(*argv):
    out = io.StringIO()
    parser = build_parser()
    args = parser.parse_args(list(argv))
    code = args.func(args, out)
    return code, out.getvalue()


README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def readme_stated_outputs():
    """(argv, stdout) of each `cherednik-kit ...  # -> <text>` line in the
    README's `## Command line` code block."""
    section = README.read_text().split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [(shlex.split(command)[1:], text + "\n")
            for line in block.splitlines() if line.startswith("cherednik-kit ")
            for command, sep, text in [line.partition("# -> ")] if sep]


class TestGoldenOutputs:
    def test_readme_stated_outputs(self, capsys):
        cases = readme_stated_outputs()
        assert len(cases) >= 4
        for argv, expected in cases:
            code = main(argv)
            assert (code, capsys.readouterr().out) == (0, expected), argv

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

    @pytest.mark.parametrize("argv, expected", [
        (("core-quotient", "decode", "--r", "3", "--shape", "6,5,4,3,2,1"),
         "a=0,0,0; quotient=2,1|1|2,1\n"),
        (("core-quotient", "decode", "--r", "4", "--shape", "7,5,5,3,2,2,1,1"),
         "a=-1,0,1,0; quotient=1||1,1|1,1\n"),
        (("core-quotient", "encode", "--r", "3", "--a", "2,-1,-1", "--quotient", "2,1|1,1|3"),
         "10,7,6,2,2,1,1,1\n"),
        (("order", "compare", "--r", "2", "--c0", "1", "--d", "4,-4",
          "--a", "2,1|1,1", "--b", "1|3,1"),
         ">=_c\nequiv: no\nquotient order: >='_c\n"),
    ])
    def test_orders_pinned_text(self, argv, expected):
        assert run_cli(*argv) == (0, expected)

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

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_norm_f_prints_values_past_the_int_digit_limit(self, fmt, capsys):
        # 2000! has 5,736 digits, more than str() takes under Python's
        # default limit of 4,300; read back in chunks that int() takes
        assert main(["norm-f", "--r", "1", "--shape", "1", "--mu", "2000", "--format", fmt]) == 0
        out = capsys.readouterr().out
        digits = json.loads(out)["result"] if fmt == "json" else out.rstrip("\n")
        assert len(digits) == 5736 and digits.isdigit()
        value = 0
        for start in range(0, len(digits), 1000):
            chunk = digits[start:start + 1000]
            value = value * 10 ** len(chunk) + int(chunk)
        assert value == math.factorial(2000)

    def test_norm_g_column(self):
        code, out = run_cli("norm-g", "--r", "1", "--shape", "1,1",
                            "--values", "0/1")
        assert code == 0 and out == "2 * (1 + 2*c0)\n"

    # staircase(3, 48) of tests/test_norms.py: hundreds of rendered factors
    STAIRCASE_3_48 = "6,4,3,2,1|6,4,3,2,1|6,4,3,2,1"

    @pytest.mark.parametrize("argv, size, digest", [
        (("norm-min", "--r", "3", "--shape", STAIRCASE_3_48), 4883,
         "e382771f8da4aff5357fe39e49e2f10263e7cce2e2fc6d9eedef69f931d129d6"),
        (("hook", "--r", "3", "--shape", STAIRCASE_3_48), 9734,
         "870002cfa38aa87ed9112c5375100b9f33d55afe66d9896adceae04abe09d504"),
        (("norm-min", "--r", "3", "--shape", STAIRCASE_3_48, "--format", "json"), 4957,
         "b77c6f6f9c86e209e273472b05302c4dfe5eeed99e3099123b5b901583d691b6"),
        (("hook", "--r", "3", "--shape", STAIRCASE_3_48, "--format", "json"), 9834,
         "749f27d240703d90beccb9bdbab88438318a7de8e45b4e954f68688e2cf3dd17"),
        (("aspherical", "list", "--r", "2", "--n", "4", "--format", "json"), 3312,
         "0550fe60d967bdcfab769ebe9097ae6b77df197c390a6b104989e37c2ae617d7"),
        (("aspherical", "list", "--r", "4", "--n", "6", "--format", "json"), 44012,
         "4327f0c0855838d3f384f85624588bd6d8eb9e29a0cbe7b604600b68a2f0f7f6"),
        (("aspherical", "list", "--r", "3", "--n", "5", "--xi", "1,2", "--format", "tsv"), 2692,
         "df24c5243a5968fdbd0d312783f3b26ec53cf334d17394f6e62f172b13fdae3d"),
    ])
    def test_large_outputs_pinned_by_digest(self, argv, size, digest):
        code, out = run_cli(*argv)
        assert code == 0 and len(out) == size
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    # every pair of r-partitions of n, text and json, at a lattice point per r
    # (integer charges summing to zero: the quotient order is printed too) and
    # at two points whose charges and classes have denominators
    @pytest.mark.parametrize("r, n, c0, d, fmt, size, digest", [
        (1, 4, "1", "0", "text", 915,
         "ade2a67e3576f1c8d927b68316d72bdafee9fba814a53394b8098874da5e3c6c"),
        (1, 4, "1", "0", "json", 3865,
         "6e6cba4247bcd6f89ea6f708632eb97cf931a88e0a0a1e023d3b55721e05e215"),
        (1, 4, "1/2", "1/3", "text", 385,
         "85864e645877cfabfb2fb217eca0a36de80ae7b145d9b4f38b47b47ac68a412e"),
        (1, 4, "1/2", "1/3", "json", 3810,
         "bb3ef5c9c1ae28fde5a88573e32dd23caf246f0ca7473c6d494ed4f583e3a61d"),
        (1, 4, "7/3", "-2/5", "text", 371,
         "287d9baa8978a88bd9774bc867d31a9144d046b96fb39edc8cad3be4c9666151"),
        (1, 4, "7/3", "-2/5", "json", 3824,
         "9d6ba984db61310f6eb9ba14da49fe7cb0f7c162feffd375ea0ac33eda122d5b"),
        (2, 3, "1", "2,-2", "text", 3716,
         "9c8b05f8c9d688a8f2e75f871aa53bf05198483850d0e83970dfe5df2dfe6910"),
        (2, 3, "1", "2,-2", "json", 15664,
         "d7e7d105253e298ead8fb040fb91a4a0b58be7712fc04eb2240664fbd7c90bc3"),
        (2, 3, "1/2", "1,1", "text", 1552,
         "cf169c4b55d3913c42da30487e64ed4c84cf69c353fb9863493dd91dea2157dd"),
        (2, 3, "1/2", "1,1", "json", 15352,
         "c51d58090fa4ba71cf8c2a9143006fc1eebb4072d7a418e7fb108339bbce9ef4"),
        (2, 3, "2/3", "1/3,-2/5", "text", 1524,
         "e73ba951a1e6e80d53fc4cff8137cf33ba81f435a512e901af780f8dbc613156"),
        (2, 3, "2/3", "1/3,-2/5", "json", 15380,
         "6c6166ffda355925c00b4ea844c156b12f4c5e4d6cc04a788a8c5dc56e99848a"),
        (3, 2, "1", "3,0,-3", "text", 3009,
         "389b3be44072aa5e54857bf8b5c4776ee0df8567b107999031afe1405afd7122"),
        (3, 2, "1", "3,0,-3", "json", 12699,
         "648d38298da9fafdb6363a10cdc7e9280fa888a4d7c7b82af8d65bfff3e9602e"),
        (3, 2, "1/3", "1,1,0", "text", 1235,
         "05d9bb1adc36b47ba38796db0a08a76f6215db4813fe7a296101144a0ca34066"),
        (3, 2, "1/3", "1,1,0", "json", 12432,
         "29355d7309623a1abf47bd34ada4fe2fd5ca4a10d66085139dbbbb1018470845"),
        (3, 2, "3/4", "1/2,-1/3,1/5", "text", 1229,
         "5e5b587cae351c1539a32243667b468accac4495c108d02cc293d6dc75b4e326"),
        (3, 2, "3/4", "1/2,-1/3,1/5", "json", 12470,
         "fac92aef42cf721f7d40ec4d1d5b490c223d5938c19661822d59c421e7a0e8a8"),
    ])
    def test_order_compare_pinned_by_digest(self, r, n, c0, d, fmt, size, digest):
        parser = build_parser()
        out = io.StringIO()
        shapes = [shape.as_text() for shape in enumerate_multipartitions(r, n)]
        for a in shapes:
            for b in shapes:
                args = parser.parse_args(["order", "compare", "--r", str(r), f"--c0={c0}",
                                          f"--d={d}", f"--a={a}", f"--b={b}", "--format", fmt])
                assert args.func(args, out) == 0
        assert len(out.getvalue()) == size
        assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest

    @pytest.mark.parametrize("c0, message", [
        ("0", "error: c0 must be nonzero\n"),
        ("-1/2", "error: geq_c needs c0 > 0\n"),
    ])
    def test_order_compare_needs_positive_c0(self, capsys, c0, message):
        assert main(["order", "compare", "--r", "2", f"--c0={c0}", "--d=1,-1",
                     "--a=1|", "--b=|1"]) == 1
        assert capsys.readouterr() == ("", message)

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

    def test_partitions_with_a_thousand_components(self):
        # once a RecursionError: one nested generator per component
        code, out = run_cli("partitions", "--r", "1000", "--n", "1")
        assert code == 0 and len(out.splitlines()) == 1000

    def test_syt_listing(self):
        code, out = run_cli("syt", "--r", "2", "--shape", "1|1")
        assert code == 0 and out.splitlines() == ["1|2", "2|1"]


ORACLE_TEXT_SEED_7 = {
    (2, 2): """\
pass irrep relations and dimension count: sum dim^2 = 8
pass defining relations up to degree cap: 144 operator identities
pass y- and z-family commutativity: 36 commutators
pass contravariant form properties: symmetry, self-adjointness, W-invariance
pass z-matrix triangularity and diagonal: 72 columns triangular with predicted diagonal
pass eigenvector norms vs closed formula: 36 eigenvector norms match the closed formula
pass symmetrized minimal norms vs closed formula: 5 minimal symmetric norms match n! H E
pass intertwiner square, norm scaling, braid: 6 intertwiner identities
pass symmetrizer rational-function identity: 5 random evaluations equal n!
ok
""",
    (3, 2): """\
pass irrep relations and dimension count: sum dim^2 = 18
pass defining relations up to degree cap: 288 operator identities
pass y- and z-family commutativity: 72 commutators
pass contravariant form properties: symmetry, self-adjointness, W-invariance
pass z-matrix triangularity and diagonal: 144 columns triangular with predicted diagonal
pass eigenvector norms vs closed formula: 72 eigenvector norms match the closed formula
pass symmetrized minimal norms vs closed formula: 9 minimal symmetric norms match n! H E
pass intertwiner square, norm scaling, braid: 12 intertwiner identities
pass symmetrizer rational-function identity: 5 random evaluations equal n!
ok
""",
    (1, 3): """\
pass irrep relations and dimension count: sum dim^2 = 6
pass defining relations up to degree cap: 360 operator identities
pass y- and z-family commutativity: 120 commutators
pass contravariant form properties: symmetry, self-adjointness, W-invariance
pass z-matrix triangularity and diagonal: 120 columns triangular with predicted diagonal
pass eigenvector norms vs closed formula: 40 eigenvector norms match the closed formula
pass symmetrized minimal norms vs closed formula: 3 minimal symmetric norms match n! H E
pass intertwiner square, norm scaling, braid: 12 intertwiner identities
pass symmetrizer rational-function identity: 5 random evaluations equal n!
ok
""",
}


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

    @pytest.mark.parametrize("r, n", sorted(ORACLE_TEXT_SEED_7))
    def test_oracle_verify_text_is_pinned(self, r, n):
        # literal output, so that a change of the oracle's rng stream, check
        # order or counts shows up here and not only between two runs
        code, out = run_cli("oracle", "verify", "--r", str(r), "--n", str(n), "--degree", "2",
                            "--seed", "7", "--no-timings", "--format", "text")
        assert code == 0 and out == ORACLE_TEXT_SEED_7[r, n]

    @pytest.mark.parametrize("r, n, degree, size, digest", [
        (1, 4, 2, 1527, "ec6d49409bb093a1c636d8dc02caed01659fb17cff3caedc05cc5c6032a28cba"),
        (2, 3, 2, 1605, "559819b83512d03a4f653a2ac9cb0cc3f4a438740bd706731474b9ab20fa8062"),
        (2, 3, 3, 1606, "a5e8442c81d44fd05710d082e3eae0204d03ada0b3b3d5e79a9f67c3135e6400"),
        (4, 2, 2, 1694, "98c9832451c7bd2a6fa74bcc3a48e4314b52c8bf7b060868f6b96b57f970e8c3"),
        (3, 3, 2, 1789, "08f1aa4bd8d2da5f34399187e3b7dbdf7dbc148389556cb1e31f94c221588f39"),
    ])
    def test_oracle_verify_json_is_pinned_by_digest(self, r, n, degree, size, digest):
        # wider residue blocks than the text pins: a change of the rng stream,
        # or of which (mu, T) collide and redraw their point, shows up here
        code, out = run_cli("oracle", "verify", "--r", str(r), "--n", str(n),
                            "--degree", str(degree), "--seed", "7", "--no-timings")
        assert code == 0 and len(out) == size
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_oracle_verify_env_seed(self, monkeypatch):
        monkeypatch.setenv("CHEREDNIK_SEED", "9")
        a = run_cli("oracle", "verify", "--r", "1", "--n", "2", "--degree", "1",
                    "--no-timings")
        b = run_cli("oracle", "verify", "--r", "1", "--n", "2", "--degree", "1",
                    "--seed", "9", "--no-timings")
        assert a == b

    def test_oracle_verify_env_seed_not_an_integer(self, monkeypatch, capsys):
        # a usage error naming the variable, the exit code of `--seed abc`
        monkeypatch.setenv("CHEREDNIK_SEED", "abc")
        assert main(["oracle", "verify", "--r", "1", "--n", "2"]) == 2
        assert capsys.readouterr().err == "error: CHEREDNIK_SEED must be an integer, not 'abc'\n"


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

    @pytest.mark.parametrize("xi", ["5", "1,2,3", "a,b"])
    def test_malformed_xi_names_the_flag(self, xi, capsys):
        assert main(["aspherical", "list", "--r", "2", "--n", "2", "--xi", xi]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert "--xi" in captured.err and "'i,j'" in captured.err and repr(xi) in captured.err

    @pytest.mark.parametrize("argv, flag, text", [
        (["spectrum", "--r", "1", "--shape", "2", "--mu", "a,b"], "--mu", "a,b"),
        (["norm-f", "--r", "1", "--shape", "2", "--mu", "a,b"], "--mu", "a,b"),
        (["core-quotient", "encode", "--r", "2", "--a", "x,0", "--quotient", "1|"], "--a", "x,0"),
        (["syt", "--r", "1", "--shape", "a"], "--shape", "a"),
        (["norm-min", "--r", "2", "--shape", "2,1|x"], "--shape", "2,1|x"),
        (["norm-f", "--r", "1", "--shape", "2", "--mu", "0,0", "--tableau", "1,b"],
         "--tableau", "1,b"),
        (["norm-g", "--r", "1", "--shape", "1,1", "--values", "0/z"], "--values", "0/z"),
        (["core-quotient", "encode", "--r", "2", "--a", "0,0", "--quotient", "1|q"],
         "--quotient", "1|q"),
        (["core-quotient", "decode", "--r", "2", "--shape", "1,y"], "--shape", "1,y"),
        (["order", "compare", "--r", "1", "--c0", "1", "--d", "0", "--a", "w", "--b", "1"],
         "--a", "w"),
    ])
    def test_non_integer_list_names_the_flag(self, argv, flag, text, capsys):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert flag in captured.err and repr(text) in captured.err and "int()" not in captured.err
        assert "comma list" in captured.err

    @pytest.mark.parametrize("argv", [
        ["norm-f", "--r", "2", "--shape", "1|1", "--mu", "0,0", "--tableau", "1"],
        ["spectrum", "--r", "2", "--shape", "1|1", "--mu", "0,0", "--tableau", ""],
        ["norm-g", "--r", "2", "--shape", "1|1", "--values", "0"],
        ["norm-f", "--r", "1", "--shape", "2", "--mu", "1,1", "--tableau", "1,2|3"],
        ["norm-g", "--r", "1", "--shape", "1", "--values", "0|0"],
    ])
    def test_filling_with_wrong_component_count(self, argv, capsys):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "components" in captured.err

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

    @pytest.mark.parametrize("argv, flags", [
        (["spectrum", "--r", "1", "--shape", "2,1", "--mu", "0,1,0", "--tableau", "1,2/3",
          "--tableau-index", "1"], {"--tableau", "--tableau-index"}),
        (["norm-f", "--r", "1", "--shape", "2,1", "--mu", "0,1,0", "--tableau", "1,2/3",
          "--tableau-index", "0"], {"--tableau", "--tableau-index"}),
        (["aspherical", "list", "--r", "2", "--n", "1", "--json", "--format", "tsv"],
         {"--json", "--format"}),
        (["aspherical", "list", "--r", "2", "--n", "1", "--json", "--format", "text"],
         {"--json", "--format"}),
        (["aspherical", "list", "--r", "2", "--n", "3", "--p", "2", "--xi", "1,0"],
         {"--p", "--xi"}),
        (["core-quotient", "decode", "--r", "2", "--shape", "1,1", "--a", "5"],
         {"--shape", "--a"}),
        (["core-quotient", "decode", "--r", "2", "--shape", "1,1", "--quotient", "x"],
         {"--shape", "--quotient"}),
        (["core-quotient", "encode", "--r", "2", "--a", "0,0", "--quotient", "1|",
          "--shape", "1,1"], {"--shape", "--a"}),
    ])
    def test_ignored_flag_is_usage_error(self, argv, flags, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
        assert flags <= set(re.findall(r"--[a-z-]+", captured.err))

    @pytest.mark.parametrize("argv, flags", [
        (["core-quotient", "decode", "--r", "2"], {"--shape"}),
        (["core-quotient", "encode", "--r", "2", "--a", "0,0"], {"--a", "--quotient"}),
    ])
    def test_missing_required_flag_is_usage_error(self, argv, flags, capsys):
        # the flags argparse cannot require, as each action reads its own
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
        assert flags <= set(re.findall(r"--[a-z-]+", captured.err))

    def test_aspherical_list_json_agrees_with_format_json(self):
        code, out = run_cli("aspherical", "list", "--r", "2", "--n", "1", "--json",
                            "--format", "json")
        assert code == 0 and out == run_cli("aspherical", "list", "--r", "2", "--n", "1",
                                            "--json")[1]

    def test_aspherical_test_negative_c0(self):
        code, out = run_cli("aspherical", "test", "--r", "1", "--n", "2",
                            "--c0=-1/2", "--d", "0")
        assert code == 0 and out.splitlines()[0] == "aspherical"

    def test_negative_lists_attach_with_equals(self, capsys):
        assert main(["core-quotient", "encode", "--r", "2", "--a=-1,1", "--quotient", "|"]) == 0
        assert capsys.readouterr().out == "2,1\n"
        assert main(["order", "compare", "--r", "2", "--c0", "1", "--d=-1,1",
                     "--a", "1|", "--b", "|1"]) == 0
        # argparse reads a separate "-1,1" as a flag, so --a has no value
        with pytest.raises(SystemExit) as exc:
            main(["core-quotient", "encode", "--r", "2", "--a", "-1,1", "--quotient", "|"])
        assert exc.value.code == 2
        assert "argument --a: expected one argument" in capsys.readouterr().err

    def test_aspherical_not_member(self):
        code, out = run_cli("aspherical", "test", "--r", "1", "--n", "2",
                            "--c0", "1/3", "--d", "0")
        assert code == 0 and out == "not aspherical\n"


class TestJsonEnvelopes:
    @pytest.mark.parametrize("argv, command", [
        (["partitions", "--r", "1", "--n", "2"], "partitions"),
        (["syt", "--r", "2", "--shape", "1|1"], "syt"),
        (["spectrum", "--r", "1", "--shape", "1", "--mu", "3"], "spectrum"),
        (["norm-f", "--r", "1", "--shape", "1", "--mu", "3"], "norm-f"),
        (["norm-g", "--r", "1", "--shape", "1,1", "--values", "0/1"], "norm-g"),
        (["norm-min", "--r", "1", "--shape", "1,1"], "norm-min"),
        (["hook", "--r", "2", "--shape", "|1"], "hook"),
        (["aspherical", "test", "--r", "1", "--n", "2", "--c0", "1/3", "--d", "0"],
         "aspherical test"),
        (["order", "compare", "--r", "2", "--c0", "1", "--d", "1,-1", "--a", "1|", "--b", "|1"],
         "order compare"),
        (["core-quotient", "encode", "--r", "2", "--a", "0,0", "--quotient", "1|"],
         "core-quotient encode"),
        (["core-quotient", "decode", "--r", "2", "--shape", "1,1"], "core-quotient decode"),
        (["params", "convert", "--r", "2", "--c0", "1/2", "--d", "1,-1", "--to", "gordon"],
         "params convert"),
    ])
    def test_envelope_of_every_enveloped_command(self, argv, command):
        code, out = run_cli(*argv, "--format", "json")
        data = json.loads(out)
        assert code == 0 and set(data) == {"schema", "command", "result"}
        assert data["schema"] == "cherednik-kit/1" and data["command"] == command
        assert out == json.dumps(data, sort_keys=True, indent=2) + "\n"

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


# One valid invocation per leaf command (both aspherical list modes), as
# command words and flag values; the fuzz below breaks one value at a time.
LEAVES = [
    (["partitions"], {"--r": "2", "--n": "2"}),
    (["syt"], {"--r": "2", "--shape": "1|1"}),
    (["spectrum"], {"--r": "2", "--shape": "1|1", "--mu": "1,0", "--tableau-index": "1"}),
    (["norm-f"], {"--r": "2", "--shape": "1|1", "--mu": "1,0", "--tableau": "2|1"}),
    (["norm-g"], {"--r": "1", "--shape": "1,1", "--values": "0/1"}),
    (["norm-min"], {"--r": "2", "--shape": "1|1"}),
    (["hook"], {"--r": "2", "--shape": "|1"}),
    (["aspherical", "list"], {"--r": "2", "--n": "2", "--xi": "1,0"}),
    (["aspherical", "list"], {"--r": "2", "--n": "3", "--p": "2"}),
    (["aspherical", "test"], {"--r": "1", "--n": "2", "--c0": "1/3", "--d": "0"}),
    (["order", "compare"], {"--r": "2", "--c0": "1", "--d": "1,-1", "--a": "1|", "--b": "|1"}),
    (["core-quotient", "encode"], {"--r": "2", "--a": "0,0", "--quotient": "1|"}),
    (["core-quotient", "decode"], {"--r": "2", "--shape": "1,1"}),
    (["oracle", "verify"], {"--r": "1", "--n": "1", "--degree": "1", "--seed": "7",
                            "--shape": "1"}),
    (["params", "convert"], {"--r": "2", "--c0": "1/2", "--d": "1,-1", "--to": "gordon"}),
]
MALFORMED = {
    "--r": ["0", "-1", "x"],
    "--n": ["-1", "x"],
    "--c0": ["1/0", "a", "", "1/2/3"],
    "--d": ["1/0", "x", "0,0,0,0", ""],
    "--shape": ["a", "1|1|1|1", "2,3", "-1", "1/1", ""],
    "--mu": ["-1,0", "a", "0", "0,0,0", ""],
    "--tableau": ["1", "1|2|3", "x", "2,1", ""],
    "--tableau-index": ["-1", "99", "x"],
    "--values": ["0|0|0", "-1", "x", "0", ""],
    "--a": ["x", "0", "1|1|1", "-1", ""],
    "--b": ["x", "1|1|1", "2|"],
    "--quotient": ["1|1|1", "a", "2,3|", ""],
    "--xi": ["a", "1", "1,2,3", ""],
    "--p": ["0", "-1", "5", "x"],
    "--degree": ["-1", "x"],
    "--seed": ["x"],
    "--to": ["bogus"],
}


def _fuzz_argv(words, flags, flag=None, bad=None):
    return words + [f"{f}={bad if f == flag else v}" for f, v in flags.items()]


class TestFuzz:
    @pytest.mark.parametrize("argv", [_fuzz_argv(w, f) for w, f in LEAVES], ids=" ".join)
    def test_valid_invocations_succeed(self, argv, capsys):
        assert main(argv) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("argv", [
        _fuzz_argv(words, flags, flag, bad)
        for words, flags in LEAVES for flag in flags for bad in MALFORMED[flag]
    ], ids=" ".join)
    def test_malformed_value_ends_in_a_clean_exit(self, argv, capsys):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        assert code in (0, 1, 2)
        assert "Traceback" not in captured.err
        if code == 1:
            assert captured.out == ""
            assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")


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
