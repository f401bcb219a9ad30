"""End-to-end tests for the cartensor command-line interface.

Everything goes through cli.main(argv) so the exit codes and the exact
stdout/stderr split are exercised the same way the console script uses them.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cartensor import cli, oracle, parser, reduce
from cartensor.cli import main
from cartensor.oracle import DEFAULT_SEED

CORPUS_ENTRIES = [(e["id"], e["expr"], e["note"])
                  for e in cli._load_corpus(cli._default_corpus_path())]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestReduce:
    def test_text_output(self, capsys):
        code, out, err = run(capsys, "reduce", "[Y[1](a) x Y[1](b)][0]")
        assert code == 0
        assert out.strip() == "sqrt(3)/(4*pi) * (a.b)"
        assert err == ""

    def test_latex_output(self, capsys):
        code, out, _ = run(capsys, "reduce", "[Y[1](a) x Y[1](b)][0]",
                           "--format", "latex")
        assert code == 0
        assert out.strip().endswith(r"\frac{\sqrt{3}}{4\pi}\, "
                                    r"(\hat{a}\cdot\hat{b})")

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "reduce", "[Y[1](a) x Y[1](b)][0]",
                           "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["schema"] == 1
        assert obj["rank"] == 0
        assert obj["terms"][0]["dots"] == [["a", "b", 1]]

    def test_semantic_error_exit_2(self, capsys):
        code, out, err = run(capsys, "reduce", "[Y[1](a) x Y[1](b)][3]")
        assert code == 2
        assert out == ""
        assert "triangle rule violated: cannot couple ranks (1,1) to 3" in err
        assert "^" in err

    def test_repeated_symbol_exit_2(self, capsys):
        code, _, err = run(capsys, "reduce", "[Y[1](a) x Y[1](a)][0]")
        assert code == 2
        assert "used more than once" in err

    def test_syntax_error_exit_2(self, capsys):
        code, _, err = run(capsys, "reduce", "Y[2]")
        assert code == 2
        assert err.splitlines()[0] == "error: expected '(' before the vector name"

    def test_big_entry_term_count(self, capsys):
        code, out, _ = run(capsys, "reduce",
                           "[[[Y[2](a) x Y[2](b)][2] x Y[2](c)][2] x "
                           "[Y[2](d) x Y[2](e)][2]][0]",
                           "--format", "json")
        assert code == 0
        assert len(json.loads(out)["terms"]) == 42

    def test_deep_nesting_exit_2(self, capsys):
        expr = "Y[0](v0)"
        for i in range(1, 1501):
            expr = f"[{expr} x Y[0](v{i})][0]"
        code, out, err = run(capsys, "reduce", expr)
        assert code == 2
        assert out == ""
        lines = err.splitlines()
        assert lines[0] == (f"error: couplings nested deeper than "
                            f"{parser.MAX_NESTING} levels")
        assert lines[2] == "  " + " " * parser.MAX_NESTING + "^"


@pytest.mark.parametrize("command", ["reduce", "verify"])
@pytest.mark.parametrize("degree", ["40", "99999999999999999999"])
def test_huge_leaf_degree_exit_2(capsys, command, degree):
    """A leaf whose harmonic tensor would not fit is a caret diagnostic, found
    without expanding anything."""
    source = f"[Y[1](b) x Y[{degree}](a)][{degree}]"
    code, out, err = run(capsys, command, source)
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert lines[0] == (f"error: harmonic degree {degree} too large: Y[{degree}] "
                        f"expands to more than {reduce.MAX_LEAF_TERMS} terms")
    assert lines[2] == "  " + " " * source.index("Y[" + degree) + "^" * len(f"Y[{degree}](a)")


@pytest.mark.parametrize("command", ["reduce", "verify"])
@pytest.mark.parametrize("degree", ["40", "99999999999999999999",
                                    pytest.param("9" * 5000, id="5000-nines")])
def test_huge_bare_leaf_exit_2(capsys, command, degree):
    code, out, err = run(capsys, command, f"Y[{degree}](a)")
    assert code == 2
    assert out == ""
    assert "too large" in err.splitlines()[0]


# One digit past the interpreter's default limit on int() of a string.
LONG_RANK = "1" * 4301


@pytest.mark.parametrize("command", ["reduce", "verify"])
def test_overlong_coupled_rank_exit_2(capsys, command):
    """An integer literal too long for int() is a caret diagnostic under the
    literal, not a traceback."""
    source = f"[Y[1](a) x Y[1](b)][{LONG_RANK}]"
    code, out, err = run(capsys, command, source)
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert lines[0] == "error: coupled rank too large: 4301 digits"
    assert lines[2] == "  " + " " * source.index(LONG_RANK) + "^" * len(LONG_RANK)


@pytest.mark.parametrize("command", ["reduce", "verify"])
@pytest.mark.parametrize("source", ["Y[３](a)", "Y[٢](a)",
                                    "[Y[1](a) x Y[1](b)][２]"],
                         ids=["fullwidth-degree", "arabic-indic-degree",
                              "fullwidth-rank"])
def test_non_ascii_digit_exit_2(capsys, command, source):
    """Only the ASCII digits 0-9 make an integer; any other Unicode decimal
    digit is a caret diagnostic under it, not a silently read number."""
    code, out, err = run(capsys, command, source)
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    digit = next(c for c in source if c.isdigit() and not c.isascii())
    assert lines[0] == f"error: unexpected character {digit!r}"
    assert lines[2] == "  " + " " * source.index(digit) + "^"


class TestVerify:
    def test_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "[Y[1](a) x Y[1](b)][0]",
                           "--samples", "20")
        assert code == 0
        rep = json.loads(out)
        assert rep["pass"] is True
        assert rep["max_abs_err"] <= 1e-10
        assert rep["samples"] == 20

    def test_rank_bearing_pass(self, capsys):
        code, out, _ = run(capsys, "verify",
                           "[Y[2](a) x [Y[1](c) x Y[1](d)][2]][0]",
                           "--samples", "20")
        assert code == 0
        assert json.loads(out)["pass"] is True

    def test_unreachable_tolerance_exit_1(self, capsys):
        code, out, _ = run(capsys, "verify", "[Y[1](a) x Y[1](b)][0]",
                           "--samples", "10", "--tol", "1e-30")
        assert code == 1
        assert json.loads(out)["pass"] is False

    def test_parse_error_exit_2(self, capsys):
        code, _, err = run(capsys, "verify", "Y[1](a) extra")
        assert code == 2
        assert "unexpected trailing input" in err


class TestSeedResolution:
    def test_default_seed(self, capsys, monkeypatch):
        monkeypatch.delenv("CARTENSOR_SEED", raising=False)
        _, out, _ = run(capsys, "verify", "[Y[1](a) x Y[1](b)][0]",
                        "--samples", "5")
        assert json.loads(out)["seed"] == DEFAULT_SEED

    def test_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("CARTENSOR_SEED", "4567")
        _, out, _ = run(capsys, "verify", "[Y[1](a) x Y[1](b)][0]",
                        "--samples", "5")
        assert json.loads(out)["seed"] == 4567

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("CARTENSOR_SEED", "4567")
        _, out, _ = run(capsys, "verify", "[Y[1](a) x Y[1](b)][0]",
                        "--samples", "5", "--seed", "123")
        assert json.loads(out)["seed"] == 123

    @pytest.mark.parametrize("argv,env", [
        (["verify", "[Y[1](a) x Y[1](b)][0]", "--seed", "-1"], None),
        (["corpus", "--check", "--seed", "-1"], None),
        (["verify", "[Y[1](a) x Y[1](b)][0]"], "-7"),
    ], ids=["verify-flag", "corpus-flag", "env"])
    def test_negative_seed_exit_2(self, capsys, monkeypatch, argv, env):
        if env is None:
            monkeypatch.delenv("CARTENSOR_SEED", raising=False)
        else:
            monkeypatch.setenv("CARTENSOR_SEED", env)
        code, out, err = run(capsys, *argv, "--samples", "5")
        assert code == 2
        assert out == ""
        assert "Traceback" not in err
        if env is None:
            assert "argument --seed: must be at least 0, got -1" in err
        else:
            assert err.strip() == ("error: CARTENSOR_SEED must be an integer >= 0, "
                                   "got '-7'")

    def test_invalid_env_exit_2(self, capsys, monkeypatch):
        monkeypatch.setenv("CARTENSOR_SEED", "notanumber")
        code, out, err = run(capsys, "verify", "[Y[1](a) x Y[1](b)][0]",
                             "--samples", "5")
        assert code == 2
        assert "CARTENSOR_SEED must be an integer" in err

    @pytest.mark.parametrize("env", ["5_000", " 5 ", "٣", "+5"],
                             ids=["underscore", "spaces", "arabic-indic",
                                  "plus"])
    def test_loose_integer_env_exit_2(self, capsys, monkeypatch, env):
        """Only an optional '-' and the ASCII digits 0-9 make a seed, as in the
        expression grammar; int() would read these as 5000, 5, 3 and 5."""
        monkeypatch.setenv("CARTENSOR_SEED", env)
        code, out, err = run(capsys, "verify", "[Y[1](a) x Y[1](b)][0]",
                             "--samples", "5")
        assert code == 2
        assert out == ""
        assert err.strip() == f"error: CARTENSOR_SEED must be an integer >= 0, got {env!r}"


class TestCorpus:
    def test_entry_table(self):
        assert len(CORPUS_ENTRIES) == 26
        assert [cid for cid, _, _ in CORPUS_ENTRIES] == \
            [f"A{i}" for i in range(1, 27)]
        by_id = {cid: expr for cid, expr, _ in CORPUS_ENTRIES}
        assert by_id["A3"] == "[Y[1](a) x [Y[1](b) x Y[2](c)][1]][0]"

    def test_check_bundled(self, capsys):
        code, out, _ = run(capsys, "corpus", "--check", "--samples", "5")
        assert code == 0
        assert out.strip() == "26/26 pass"

    def test_check_is_default_action(self, capsys):
        code, out, _ = run(capsys, "corpus", "--samples", "5")
        assert code == 0
        assert out.strip() == "26/26 pass"

    def test_regen_then_check(self, capsys, tmp_path):
        target = tmp_path / "corpus.jsonl"
        code, out, _ = run(capsys, "corpus", "--regen", "--file", str(target),
                           "--samples", "10")
        assert code == 0
        assert out.strip() == f"wrote 26 entries to {target}"
        lines = target.read_text().strip().splitlines()
        assert len(lines) == 26
        first = json.loads(lines[0])
        assert set(first) == {"id", "expr", "expected", "note"}
        code, out, _ = run(capsys, "corpus", "--check", "--file", str(target),
                           "--samples", "5")
        assert code == 0

    def test_regen_matches_bundled(self, capsys, tmp_path):
        target = tmp_path / "corpus.jsonl"
        run(capsys, "corpus", "--regen", "--file", str(target),
            "--samples", "5")
        bundled = cli._default_corpus_path().read_text()
        assert target.read_text() == bundled

    def test_check_detects_mismatch(self, capsys, tmp_path):
        target = tmp_path / "broken.jsonl"
        entries = [json.loads(line) for line in
                   cli._default_corpus_path().read_text().strip().splitlines()]
        entries[6]["expected"]["terms"][0]["coeff"][0]["num"] += 1
        assert entries[6]["id"] == "A7"
        target.write_text("\n".join(json.dumps(e) for e in entries) + "\n")
        code, out, _ = run(capsys, "corpus", "--check", "--file", str(target),
                           "--samples", "5")
        assert code == 1
        assert out.strip() == "25/26 pass, A7 mismatch"

    def test_check_classifies_parse_failure(self, capsys, tmp_path):
        target = tmp_path / "broken.jsonl"
        entries = [json.loads(line) for line in
                   cli._default_corpus_path().read_text().strip().splitlines()]
        entries[2]["expr"] = "Y[2]"
        target.write_text("\n".join(json.dumps(e) for e in entries) + "\n")
        code, out, err = run(capsys, "corpus", "--check", "--file", str(target),
                             "--samples", "5")
        assert code == 1
        assert out.strip() == "25/26 pass, A3 parse"
        assert "expected '('" in err

    def test_check_classifies_overlong_literal_as_parse(self, capsys, tmp_path):
        target = tmp_path / "long.jsonl"
        entry = {"id": "L1", "expr": f"[Y[1](a) x Y[1](b)][{LONG_RANK}]",
                 "expected": {}}
        target.write_text(json.dumps(entry) + "\n")
        code, out, err = run(capsys, "corpus", "--check", "--file", str(target),
                             "--samples", "5")
        assert code == 1
        assert out.strip() == "0/1 pass, L1 parse"
        assert err.startswith("error: coupled rank too large")

    def test_regen_and_check_conflict(self, capsys):
        code, _, err = run(capsys, "corpus", "--regen", "--check")
        assert code == 2
        assert "choose one of" in err

    @pytest.mark.parametrize("action", ["--check", "--regen"])
    def test_each_entry_reduced_once(self, capsys, tmp_path, monkeypatch,
                                     action):
        calls = []
        reduce_expr = cli.reduce_expr

        def counted(expr):
            calls.append(expr)
            return reduce_expr(expr)

        monkeypatch.setattr(cli, "reduce_expr", counted)
        monkeypatch.setattr(oracle, "reduce_expr", counted)
        argv = ["corpus", action, "--samples", "5"]
        if action == "--regen":
            argv += ["--file", str(tmp_path / "corpus.jsonl")]
        code, _, _ = run(capsys, *argv)
        assert code == 0
        assert len(calls) == len(CORPUS_ENTRIES)

    @pytest.mark.parametrize("bad_line,message", [
        ('{"id": "A1", "expr": ', "not JSON"),
        ("[" * 100000, "not JSON"),
        ("[1,2]", "not a JSON object"),
        ('{"id": "A1", "expr": "Y[1](a)", "note": ""}', "'expected' must be an object"),
    ], ids=["not-json", "nested-too-deep", "array", "no-expected"])
    def test_malformed_file_exit_2(self, capsys, tmp_path, bad_line, message):
        lines = cli._default_corpus_path().read_text().splitlines()
        lines[3] = bad_line
        target = tmp_path / "broken.jsonl"
        target.write_text("\n".join(lines) + "\n")
        code, out, err = run(capsys, "corpus", "--check", "--file", str(target))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: corpus file line 4: {message}")
        assert "Traceback" not in err

    @pytest.mark.parametrize("text", ["", "\n  \n\n"], ids=["empty", "blank-lines"])
    def test_file_without_entries_exit_2(self, capsys, tmp_path, text):
        target = tmp_path / "empty.jsonl"
        target.write_text(text)
        code, out, err = run(capsys, "corpus", "--file", str(target))
        assert code == 2
        assert out == ""
        assert err.startswith("error: corpus file has no entries")

    def test_missing_file_exit_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "corpus", "--check",
                           "--file", str(tmp_path / "nope.jsonl"))
        assert code == 2
        assert "cannot read corpus file" in err

    def test_unwritable_regen_file_exit_2(self, capsys, tmp_path):
        code, out, err = run(capsys, "corpus", "--regen", "--samples", "5",
                             "--file", str(tmp_path / "no-such-dir" / "x.jsonl"))
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot write corpus file: ")
        assert "Traceback" not in err


class TestUsage:
    def test_no_subcommand_exit_2(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_bad_format_choice_exit_2(self, capsys):
        assert main(["reduce", "Y[1](a)", "--format", "html"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("command", [["verify", "Y[1](a)"], ["corpus"]])
    @pytest.mark.parametrize("flag,value,message", [
        ("--samples", "0", "must be at least 1"),
        ("--samples", "-3", "must be at least 1"),
        ("--samples", "100000000000", "must be at most 10000"),
        ("--tol", "0", "must be greater than 0"),
        ("--tol", "nan", "must be greater than 0"),
        ("--tol", "inf", "must be finite"),
        ("--samples", "5_000", "invalid sample_count value: '5_000'"),
        ("--samples", " 5 ", "invalid sample_count value: ' 5 '"),
        ("--samples", "٣", "invalid sample_count value: '٣'"),
        ("--samples", "+5", "invalid sample_count value: '+5'"),
        ("--seed", "5_000", "invalid non_negative_int value: '5_000'"),
        ("--seed", " 5 ", "invalid non_negative_int value: ' 5 '"),
        ("--seed", "٣", "invalid non_negative_int value: '٣'"),
        ("--seed", "+5", "invalid non_negative_int value: '+5'"),
    ])
    def test_bad_numeric_flag_exit_2(self, capsys, command, flag, value,
                                     message):
        code, out, err = run(capsys, *command, f"{flag}={value}")
        assert code == 2
        assert out == ""
        assert f"argument {flag}: {message}" in err
        assert "Traceback" not in err


def test_python_dash_m_runs_the_cli():
    """``python -m cartensor`` works from a checkout without the script."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-m", "cartensor", "reduce", "Y[1](a)"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.splitlines()) == 1
    assert proc.stderr == ""
