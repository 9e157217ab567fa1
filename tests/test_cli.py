import json
import os
from itertools import permutations
import subprocess
import sys

import pytest

import epsgrass
from epsgrass import cli
from epsgrass.cli import main
from epsgrass.comodule import InternalError


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_normalize(capsys):
    code, out, _ = run_cli(capsys, "normalize", "e2*e1")
    assert code == 0
    assert out.strip() == "([1] + [-1]*eps1*eps2) * e1*e2"


def test_normalize_json_agrees(capsys):
    code, text_out, _ = run_cli(capsys, "normalize", "[e1,e2]")
    code2, json_out, _ = run_cli(capsys, "normalize", "[e1,e2]", "--format", "json")
    assert code == code2 == 0
    payload = json.loads(json_out)
    assert payload["command"] == "normalize"
    assert payload["ring"] == "Z"
    assert payload["result"] == text_out.strip()


def test_normalize_accepts_vars():
    assert main(["normalize", "x1*x2 - x2*x1"]) == 0


def test_check_identity_positive(capsys):
    code, out, _ = run_cli(capsys, "check-identity", "[x1,[x2,x3]]", "--vars", "3")
    assert code == 0 and out.strip() == "identity"


def test_check_identity_negative(capsys):
    code, out, _ = run_cli(capsys, "check-identity", "x1*x2 - x2*x1", "--vars", "2")
    assert code == 1 and out.strip() == "not an identity"


def test_check_identity_consequence_suite(capsys):
    # consequences of the defining identity stay identities
    code, _, _ = run_cli(
        capsys, "check-identity", "[x1,x2]*[x3,x4] + [x1,x3]*[x2,x4]", "--vars", "4"
    )
    assert code == 0
    code, _, _ = run_cli(capsys, "check-identity", "[x1,x2]*[x2,x3]", "--vars", "3")
    assert code == 2  # not multilinear


def test_check_identity_usage_errors(capsys):
    code, _, err = run_cli(capsys, "check-identity", "x1*x1", "--vars", "1")
    assert code == 2
    code, _, err = run_cli(capsys, "check-identity", "x1 +", "--vars", "1")
    assert code == 2


def test_check_identity_of_trace_terms(capsys):
    # a Tr term that survives compilation is rejected, with or without
    # other errors in the tree; terms that cancel leave the polynomial
    # they sum to, as cancelling non-multilinear monomials do; and the
    # first bad leaf reports its own error
    assert run_cli(capsys, "check-identity", "x2 - [x1, Tr(x1)*x3]", "--vars", "3") == (
        2,
        "",
        "error: Tr(...) is only allowed in trace expressions\n",
    )
    cancelled = "[x1,[x2,x3]] + Tr(x1)*x2*x3 - Tr(x1)*x2*x3"
    assert run_cli(capsys, "check-identity", cancelled, "--vars", "3") == (0, "identity\n", "")
    assert run_cli(capsys, "check-identity", "x1*x2 + x1*x1 - x1*x1", "--vars", "2") == (
        1,
        "not an identity\n",
        "",
    )
    assert run_cli(capsys, "check-identity", "Tr(x1)*e1", "--vars", "1") == (
        2,
        "",
        "error: concrete generators are not allowed in variable polynomials\n",
    )


def test_comodule(capsys):
    code, out, _ = run_cli(capsys, "comodule", "--n", "3")
    assert code == 0
    assert "rank 4" in out and "free: yes" in out
    code, json_out, _ = run_cli(capsys, "comodule", "--n", "3", "--format", "json")
    payload = json.loads(json_out)
    assert payload["result"] == 4
    assert payload["details"]["free"] is True
    assert len(payload["details"]["basis"]) == 4


def test_comodule_beyond_the_sign_table(capsys):
    # arity 9 was out of reach while the certificate read all 9! sign rows
    code, out, _ = run_cli(capsys, "comodule", "--n", "9", "--ring", "mod:6")
    lines = out.splitlines()
    assert code == 0 and lines[:2] == ["rank 256", "free: yes"]
    assert len(lines) == 3 + 256 and lines[3] == "  x1*x2*x3*x4*x5*x6*x7*x8*x9"


def test_comodule_composite_modulus(capsys):
    code, out, _ = run_cli(capsys, "comodule", "--n", "4", "--ring", "mod:4")
    assert code == 0
    assert out.splitlines()[:2] == ["rank 8", "free: yes"]


def test_comodule_dump_matrix(capsys):
    code, out, _ = run_cli(capsys, "comodule", "--n", "2", "--dump-matrix")
    assert code == 0
    assert "# columns:" in out


@pytest.mark.parametrize("n", ["2", "3"])
def test_comodule_dump_matrix_json(capsys, n):
    code, out, _ = run_cli(capsys, "comodule", "--n", n, "--dump-matrix")
    assert code == 0
    lines = out.splitlines()
    dump = lines[lines.index("basis:") + 1 :]
    dump = dump[next(k for k, line in enumerate(dump) if not line.startswith("  ")) :]
    code, out, _ = run_cli(capsys, "comodule", "--n", n, "--dump-matrix", "--format", "json")
    assert code == 0
    dumped = json.loads(out)["details"]
    assert dumped.pop("matrix") == dump and dump[0].startswith("# columns:")
    code, out, _ = run_cli(capsys, "comodule", "--n", n, "--format", "json")
    assert code == 0 and json.loads(out)["details"] == dumped


def test_signs_table_golden(capsys):
    code, out, _ = run_cli(capsys, "signs", "--n", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "123: [1]"
    assert (
        lines[5]
        == "321: [1] + [-1]*eps1*eps2 + [-1]*eps1*eps3 + [-1]*eps2*eps3 + [1]*theta*eps1*eps2*eps3"
    )
    code, json_out, _ = run_cli(capsys, "signs", "--n", "3", "--format", "json")
    payload = json.loads(json_out)
    assert payload["result"][0] == {"sigma": [1, 2, 3], "esgn": "[1]"}


def test_idempotents_mod5(capsys):
    code, out, _ = run_cli(capsys, "idempotents", "--X", "2", "--ring", "mod:5")
    assert code == 0
    assert "complete system: yes" in out


def test_idempotents_capability_error(capsys):
    code, _, err = run_cli(capsys, "idempotents", "--X", "1", "--ring", "z")
    assert code == 3
    assert "capability" in err


def test_trace_check(capsys):
    code, out, _ = run_cli(capsys, "trace-check", "[x1,Tr([x2,x3])]")
    assert code == 0 and out.splitlines()[0] == "identity"
    code, out, _ = run_cli(capsys, "trace-check", "Tr(x1)*x2 - x2*Tr(x1)")
    assert code == 1 and out.splitlines()[0] == "not an identity"


def test_trace_witness(capsys):
    code, out, _ = run_cli(capsys, "trace-witness", "x1*x2 - x2*x1", "--max-n", "2")
    assert code == 0 and out.startswith("witness:")
    code, out, _ = run_cli(capsys, "trace-witness", "[x1,Tr([x2,x3])]")
    assert code == 1
    assert "no witness" in out


def test_trace_witness_seed_determinism(capsys):
    code1, out1, _ = run_cli(
        capsys, "trace-witness", "Tr(x1)*x2 - x2*Tr(x1)", "--seed", "5"
    )
    code2, out2, _ = run_cli(
        capsys, "trace-witness", "Tr(x1)*x2 - x2*Tr(x1)", "--seed", "5"
    )
    assert (code1, out1) == (code2, out2)


def test_truncated_flag(capsys):
    code, out, _ = run_cli(capsys, "normalize", "e1*e1", "--truncated")
    assert code == 0 and out.strip() == "(0)"
    code, out, _ = run_cli(capsys, "normalize", "e1*e1")
    assert out.strip() == "([1]) * e1^2"


def test_flags_belong_to_their_command(capsys):
    # --truncated is read by normalize alone, --seed by trace-witness alone
    for argv in (
        ("comodule", "--n", "3", "--truncated"),
        ("trace-check", "Tr(x1)", "--truncated"),
        ("normalize", "e1", "--seed", "1"),
        ("signs", "--n", "2", "--seed", "1"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and "unrecognized arguments" in err, argv


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_closed_output_pipe_exits_quietly(fmt):
    # the reader takes one line and closes the pipe, as ``| head -1``
    # does; the output (about 600 kB) is far larger than a pipe buffer,
    # so a later write meets the closed pipe
    src = os.path.dirname(os.path.dirname(epsgrass.__file__))
    proc = subprocess.Popen(
        [sys.executable, "-m", "epsgrass.cli", "signs", "--n", "6", "--format", fmt],
        env={**os.environ, "PYTHONPATH": src},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == cli.EXIT_PIPE
    assert first == (b"123456: [1]\n" if fmt == "text" else b"{\n")
    assert err == b""


def test_ring_flag(capsys):
    code, out, _ = run_cli(capsys, "normalize", "2*e1", "--ring", "mod:2")
    assert code == 0 and out.strip() == "(0)"


def test_bad_ring_spec(capsys):
    code, _, err = run_cli(capsys, "normalize", "e1", "--ring", "gf:4")
    assert code == 2


def test_exit_code_matrix(capsys):
    # one run per exit code
    assert main(["check-identity", "[x1,[x2,x3]]", "--vars", "3"]) == 0
    capsys.readouterr()
    assert main(["check-identity", "x1*x2", "--vars", "2"]) == 1
    capsys.readouterr()
    assert main(["normalize", "(("]) == 2
    capsys.readouterr()
    assert main(["idempotents", "--X", "1", "--ring", "mod:6"]) == 3
    capsys.readouterr()


def test_main_runs_several_commands_with_one_parser(capsys):
    # the parser is built once per process; runs in a row, with usage
    # errors between them, give the same output, errors and exit codes as
    # a parser built afresh
    assert cli.build_parser() is cli.build_parser()
    runs = [
        ["normalize", "e2*e1"],
        ["check-identity", "x1"],  # --vars missing: argparse exits 2
        ["check-identity", "[x1,[x2,x3]]", "--vars", "3", "--format", "json"],
        ["comodule", "--n", "0"],  # outside CLI_LIMITS
        ["no-such-command"],
        ["comodule", "--n", "3"],
        ["--help"],
        ["trace-check", "Tr(x1*x2) - Tr(x2*x1)"],  # not an identity: exits 1
    ]
    first = [run_cli(capsys, *argv) for argv in runs]
    assert [code for code, _, _ in first] == [0, 2, 0, 2, 2, 0, 0, 1]
    assert "the following arguments are required: --vars" in first[1][2]
    assert first[1][2].startswith("usage: epsgrass check-identity")
    assert [run_cli(capsys, *argv) for argv in runs] == first
    fresh = cli.build_parser.__wrapped__()
    for argv in (["check-identity", "x1"], ["no-such-command"], ["--help"]):
        with pytest.raises(SystemExit):
            fresh.parse_args(argv)
        out = capsys.readouterr()
        assert (out.out, out.err) == first[runs.index(argv)][1:]


def test_internal_error_exit_code(capsys, monkeypatch):
    def fail(exc):
        def raiser(*args, **kwargs):
            raise exc("certificate check failed")

        return raiser

    monkeypatch.setattr(cli, "comodule_rank", fail(InternalError))
    code, _, err = run_cli(capsys, "comodule", "--n", "3")
    assert code == 4 and err.startswith("internal error: certificate check failed")
    monkeypatch.setattr(cli, "trace_normalize", fail(InternalError))
    code, _, err = run_cli(capsys, "trace-check", "Tr(x1)")
    assert code == 4 and err.startswith("internal error: certificate check failed")


def test_no_unit_pivot_exits_4(capsys, monkeypatch):
    # a certificate without a unit pivot is an internal error, not bad input
    from epsgrass import comodule, supertrace
    from epsgrass.linalg import NoUnitPivot

    def no_unit_pivot(rows, ncols):
        raise NoUnitPivot("row 0 leaves a residue with no unit entry")

    # one spanning row with pivot 2 instead of 1
    sign_image = comodule.SpanningTerm.sign_image

    def doubled(term, coeff):
        image = sign_image(term, coeff)
        return image.scale_int(2) if term.tail == (1, 2) else image

    monkeypatch.setattr(comodule, "_ROWS_CACHE", {})
    monkeypatch.setattr(comodule, "_RANK_CACHE", {})
    monkeypatch.setattr(supertrace, "_BLOCK_CACHE", {})
    monkeypatch.setattr(comodule.SpanningTerm, "sign_image", doubled)
    monkeypatch.setattr(supertrace, "SmithSolver", no_unit_pivot)
    code, _, err = run_cli(capsys, "comodule", "--n", "3")
    assert code == 4
    assert err.startswith("internal error: spanning set at arity 3 is not certified free")
    code, _, err = run_cli(capsys, "trace-check", "Tr(x1*x2)")
    assert code == 4 and "is not unimodularly independent" in err


def test_no_witness_found_exits_1(capsys, monkeypatch):
    # a non-identity whose search finds nothing says so and exits 1
    from epsgrass import hull

    monkeypatch.setattr(hull, "witness_search", lambda f, max_n, seed: None)
    code, out, err = run_cli(capsys, "trace-witness", "x1*x2", "--max-n", "3")
    assert (code, out, err) == (1, "no witness found up to size 3\n", "")
    code, out, err = run_cli(capsys, "trace-witness", "x1*x2", "--max-n", "3", "--format", "json")
    assert (code, err) == (1, "")
    assert json.loads(out) == {
        "command": "trace-witness",
        "details": {"identity": False, "max_n": 3},
        "result": None,
        "ring": "Z",
    }


def test_a_nested_monomial_renders_as_it_reads(capsys):
    # an interior trace factor stays in the standard form, whose text
    # normalizes to itself
    code, out, _ = run_cli(capsys, "trace-check", "Tr(x1*Tr(x2)*x3)")
    assert (code, out) == (1, "not an identity\nstandard form: Tr(x1*Tr(x2)*x3)\n")
    text = out.splitlines()[1].removeprefix("standard form: ")
    assert run_cli(capsys, "trace-check", text)[1] == out


def test_signs_arity_bounds(capsys):
    for n in ("-1", "0", "9"):
        code, out, err = run_cli(capsys, "signs", "--n", n)
        assert code == 2 and out == "" and "arity must be between 1 and 8" in err
    code, out, _ = run_cli(capsys, "signs", "--n", "1")
    assert code == 0 and out == "1: [1]\n"


def fresh_python(*args, timeout=60):
    """Run the interpreter with ``args`` in a new process on this tree."""
    src = os.path.dirname(os.path.dirname(epsgrass.__file__))
    return subprocess.run(
        [sys.executable, *args],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def test_a_modulus_with_a_large_least_prime_factor_answers_at_once():
    # a --ring modulus is never asked whether it is prime: only GF() asks,
    # and it raises above the bound of rings._is_prime
    argv = ["-m", "epsgrass.cli", "normalize", "--ring", "mod:1000000000000000000000007", "e1"]
    done = fresh_python(*argv, timeout=10)
    assert (done.returncode, done.stdout, done.stderr) == (0, "([1]) * e1\n", "")


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_a_malformed_basis_term_exits_4(flags):
    # trace_normalize checks each basis term of its answer: a block whose
    # basis is patched with a term that is not standard, or with a
    # reducible monomial, is an internal error, under python -O too; so
    # is a term patched in after its block has answered
    code = (
        "from epsgrass import cli, supertrace\n"
        "from epsgrass.expr import compile_trace_poly, parse\n"
        "from epsgrass.rings import IntegerRing\n"
        "from epsgrass.supertrace import MonomialTerm, StandardTerm\n"
        "solve = supertrace._block_solver\n"
        "solve(frozenset(), frozenset({frozenset({1, 2})}))[0][0] = StandardTerm((), ((2, 1),), (), (), ())\n"
        "parts = frozenset({frozenset({1, 3}), frozenset({2})})\n"
        "solve(frozenset(), parts)[0][3] = MonomialTerm((('F', (('F', (2,)), 1, 3)),))\n"
        "print(cli.main(['trace-check', 'Tr(x1*x2)']), cli.main(['trace-check', 'Tr(x1*Tr(x2)*x3)']))\n"
        "f = compile_trace_poly(parse('Tr(x1*x2*x3)'), IntegerRing())\n"
        "first = supertrace.trace_normalize(f).render()\n"
        "solve(frozenset(), frozenset({frozenset({1, 2, 3})}))[0][0] = StandardTerm((), ((2, 3, 1),), (), (), ())\n"
        "print(first, cli.main(['trace-check', 'Tr(x1*x2*x3)']))\n"
    )
    done = fresh_python(*flags, "-c", code)
    assert (done.returncode, done.stdout) == (0, "4 4\nTr(x1*x2*x3) 4\n")
    assert done.stderr == (
        "internal error: basis term is not standard: trace word (2, 1) not cyclic-minimal\n"
        "internal error: basis monomial (('F', (('F', (2,)), 1, 3)),) is not irreducible\n"
        "internal error: basis term is not standard: trace word (2, 3, 1) not cyclic-minimal\n"
    )


def test_cli_import_leaves_numpy_out():
    done = fresh_python("-c", "import sys, epsgrass.cli\nprint('numpy' in sys.modules)\n")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


# Only a fresh process shows a broken deferred import: the other tests
# load hull and salg in this one.
def test_cli_import_leaves_hull_and_salg_out():
    code = (
        "import sys, epsgrass.cli\n"
        "print(sorted({'epsgrass.hull', 'epsgrass.salg'} & set(sys.modules)))\n"
        "from epsgrass import SAlgebra, SElem\n"
        "names = {}\n"
        "exec('from epsgrass import *', names)\n"
        "print(sorted(set(epsgrass.__all__) - set(names)), SAlgebra.__name__, SElem.__name__)\n"
    )
    done = fresh_python("-c", code)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n[] SAlgebra SElem\n"
    code = (
        "import sys, epsgrass.supertrace\n"
        "print(sorted({'epsgrass.hull', 'epsgrass.salg'} & set(sys.modules)))\n"
    )
    done = fresh_python("-c", code)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


@pytest.mark.parametrize(
    "argv, code, out, err",
    [
        (["idempotents", "--X", "2"], 3, "", "capability error: 2 is not invertible in Z\n"),
        (
            ["idempotents", "--X", "2", "--ring", "q"],
            0,
            "complete system: yes\nprojected commutation: yes\n",
            "",
        ),
        (
            ["trace-witness", "x1*x2"],
            0,
            "witness: matrix size 2; x1 -> (1) * E[1,2]; x2 -> (1) * E[2,1]\n",
            "",
        ),
        (
            ["trace-witness", "Tr(x1)*x2 - x2*Tr(x1)", "--max-n", "3"],
            0,
            "witness: matrix size 2; x1 -> (e1*e2) * E[2,2]; x2 -> (e2) * E[2,1]\n",
            "",
        ),
        (
            ["trace-witness", "Tr(x1)*x2 - x2*Tr(x1)", "--max-n", "3", "--format", "json"],
            0,
            '{\n  "command": "trace-witness",\n  "details": {\n    "nonzero": true,\n'
            '    "size": 2\n  },\n  "result": "matrix size 2; x1 -> (e1*e2) * E[2,2];'
            ' x2 -> (e2) * E[2,1]",\n  "ring": "Z"\n}\n',
            "",
        ),
    ],
)
def test_commands_that_load_hull_in_a_fresh_process(argv, code, out, err):
    done = fresh_python("-m", "epsgrass.cli", *argv)
    assert (done.returncode, done.stdout, done.stderr) == (code, out, err)


def test_grade_annotation_rejected(capsys):
    code, out, err = run_cli(capsys, "check-identity", "x1@{1}*x2", "--vars", "2")
    assert (code, out, err) == (2, "", "error: unknown symbol '@{1}*x2' at line 1, column 3\n")


def test_check_identity_json_agreement(capsys):
    code_t, out_t, _ = run_cli(capsys, "check-identity", "[x1,[x2,x3]]", "--vars", "3")
    code_j, out_j, _ = run_cli(
        capsys, "check-identity", "[x1,[x2,x3]]", "--vars", "3", "--format", "json"
    )
    payload = json.loads(out_j)
    assert code_t == code_j == 0
    assert payload["result"] is True
    assert (out_t.strip() == "identity") == payload["result"]


def test_trace_check_json_agreement(capsys):
    code_t, out_t, _ = run_cli(capsys, "trace-check", "Tr(x1)*x2 - x2*Tr(x1)")
    code_j, out_j, _ = run_cli(
        capsys, "trace-check", "Tr(x1)*x2 - x2*Tr(x1)", "--format", "json"
    )
    payload = json.loads(out_j)
    assert code_t == code_j == 1
    assert payload["result"] is False
    assert payload["details"]["standard_form"] in out_t


@pytest.mark.parametrize("text", ["2", "-3", "1", "-1"])
def test_trace_check_renders_a_constant_bare(capsys, text):
    # the constant term's body is empty and its coefficient prints alone
    # (2 printed as 2*1): the form is the input, which parses back to itself
    code, out, _ = run_cli(capsys, "trace-check", "--", text)
    assert code == 1 and out == f"not an identity\nstandard form: {text}\n"
    code, out, _ = run_cli(capsys, "trace-check", "--format", "json", "--", text)
    assert code == 1 and json.loads(out)["details"]["standard_form"] == text


def test_cli_limits(capsys):
    cases = [
        (("comodule", "--n"), ("0", "16"), "arity must be between 1 and 15"),
        (
            ("comodule", "--dump-matrix", "--n"),
            ("9", "12"),
            "arity with --dump-matrix must be between 1 and 8",
        ),
        (("idempotents", "--X"), ("-1", "7"), "--X must be between 0 and 6"),
        (
            ("trace-witness", "x1", "--max-n"),
            ("-5", "1", "7"),
            "--max-n must be between 2 and 6",
        ),
        (("check-identity", "0", "--vars"), ("-2", "0", "21"), "--vars must be between 1 and 20"),
    ]
    for argv, values, message in cases:
        for value in values:
            code, out, err = run_cli(capsys, *argv, value)
            assert code == 2 and out == "" and message in err, (argv, value)
    code, out, _ = run_cli(capsys, "idempotents", "--X", "0", "--ring", "q")
    assert code == 0 and out.startswith("complete system: yes")
    code, out, _ = run_cli(capsys, "check-identity", "0", "--vars", "1")
    assert code == 0 and out == "identity\n"


def test_trace_arity_bound(capsys):
    word7 = "Tr(" + "*".join(f"x{i}" for i in range(1, 8)) + ")"
    for command in ("trace-check", "trace-witness"):
        code, out, err = run_cli(capsys, command, word7)
        assert code == 2 and out == "", command
        assert "arity 7 exceeds the supported bound 6" in err, command
    assert run_cli(capsys, "trace-check", "Tr(x1*x2*x3*x4*x5*x6)")[0] == 1


def test_check_identity_of_long_sums(capsys):
    # s_7, the signed sum of the 5040 orderings of x1..x7, is not an
    # identity of the Grassmann algebra
    terms = []
    for p in permutations(range(1, 8)):
        inversions = sum(a > b for i, a in enumerate(p) for b in p[i + 1 :])
        terms.append(("- " if inversions % 2 else "+ ") + "*".join(f"x{i}" for i in p))
    s7 = " ".join(terms)[2:]
    assert run_cli(capsys, "check-identity", s7, "--vars", "7") == (1, "not an identity\n", "")
    long_sum = " + ".join(["[[x1,x2],x3]"] * 1200)
    assert run_cli(capsys, "check-identity", long_sum, "--vars", "3") == (0, "identity\n", "")


def test_expression_bounds_exit_2(capsys):
    from epsgrass.expr import MAX_INDEX, MAX_NESTING

    deep = "(" * MAX_NESTING + "e1" + ")" * MAX_NESTING
    assert run_cli(capsys, "normalize", deep) == (0, "([1]) * e1\n", "")
    code, out, err = run_cli(capsys, "normalize", f"({deep})")
    assert code == 2 and out == "" and err.startswith("error: more than")
    code, out, _ = run_cli(capsys, "normalize", f"eps{MAX_INDEX}")
    assert code == 0 and out == f"([1]*eps{MAX_INDEX})\n"
    for expr in (f"eps{MAX_INDEX + 1}", "eps100000000000", "(1 + eps100000)*e100000*e1 + x100000"):
        code, out, err = run_cli(capsys, "normalize", expr)
        assert code == 2 and out == "" and "is above" in err, expr
