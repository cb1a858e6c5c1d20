"""Command-line surface: output shapes, exit codes, determinism."""

import io
import json
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

import qheis
from qheis import cli
from qheis.cli import main
from qheis.errors import AlphabetError, DivisionByZero
from qheis.verify import MAX_K

README = Path(__file__).resolve().parent.parent / "README.md"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_cli_process(*argv, timeout=60, stdin=""):
    """The CLI in a fresh interpreter, so an escaping exception shows as a
    traceback on stderr."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(qheis.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "qheis.cli", *argv],
                          capture_output=True, text=True, env=env,
                          timeout=timeout, input=stdin)
    return proc.returncode, proc.stdout, proc.stderr


class TestNormalize:
    def test_power_identity_instance(self, capsys):
        code, out, _ = run_cli(capsys, "normalize", "--algebra", "gaddis",
                               "--expr", "y*x*x")
        assert code == 0
        assert out.strip() == "q^2*x^2*y + hbar*(q + p^-1)*x*z"

    def test_trace_goes_to_stderr(self, capsys):
        code, out, err = run_cli(capsys, "normalize", "--algebra", "gaddis",
                                 "--expr", "y*x*x", "--trace")
        assert code == 0
        assert out.strip() == "q^2*x^2*y + hbar*(q + p^-1)*x*z"
        assert "y_x" in err

    def test_latex(self, capsys):
        code, out, _ = run_cli(capsys, "normalize", "--algebra", "wess",
                               "--expr", "x*p", "--format", "latex")
        assert code == 0
        assert r"\hat{\Lambda}" in out

    def test_machine(self, capsys):
        code, out, _ = run_cli(capsys, "normalize", "--algebra", "classical",
                               "--expr", "p_1*x_1", "--format", "machine")
        assert code == 0
        assert json.loads(out)["format"] == "qheis-poly-v1"

    def test_parse_error_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "normalize", "--algebra", "gaddis",
                               "--expr", "y*(x")
        assert code == 2
        assert "parse error" in err

    def test_unknown_algebra(self, capsys):
        code, _, err = run_cli(capsys, "normalize", "--algebra", "nope",
                               "--expr", "x")
        assert code == 1

    def test_engine_error_exit_code(self, capsys):
        # the definitional variant of the four-generator algebra does not
        # orient; route it through a presentation file
        import qheis
        from qheis import save_presentation_file

        import tempfile, os
        with tempfile.TemporaryDirectory() as td:
            path = os.path.join(td, "def.qpres")
            save_presentation_file(
                qheis.catalog("schmudgen", variant="definition"), path)
            code, _, err = run_cli(capsys, "normalize", "--algebra", path,
                                   "--expr", "p*x")
        assert code == 3
        assert "engine error" in err

    def test_non_termination_prints_the_last_steps(self, capsys, tmp_path):
        # y*h*x -> y*x*h^2 -> y*h*x -> ... never ends under invlex
        path = tmp_path / "f.qpres"
        path.write_text("qheis-presentation 1\nname: f\norder: invlex\n"
                        "generator: x\ngenerator: h\ngenerator: y\n"
                        "relation: r1 : h*x - x*h*h\n"
                        "relation: r2 : y*x*h*h - y*h*x\n")
        code, out, err = run_cli(capsys, "normalize", "--algebra", str(path),
                                 "--expr", "y*h*x")
        assert (code, out) == (3, "")
        assert err == ("engine error: step limit 10000 exceeded\n"
                       "# r2 @ 0: y*h*x\n"
                       "# r1 @ 1: y*x*h^2\n"
                       "# r2 @ 0: y*h*x\n"
                       "# r1 @ 1: y*x*h^2\n"
                       "# r2 @ 0: y*h*x\n")

    @pytest.mark.parametrize("error", [DivisionByZero("inverse of zero"),
                                       AlphabetError("clashing alphabets")])
    def test_stray_engine_error(self, capsys, monkeypatch, error):
        # every QheisError that reaches main is reported by its category
        def fail(*_):
            raise error
        monkeypatch.setattr(cli, "_reduce", fail)
        code, out, err = run_cli(capsys, "normalize", "--algebra", "gaddis",
                                 "--expr", "y*x*x")
        assert (code, out, err) == (3, "", f"engine error: {error}\n")

    def test_determinism(self, capsys):
        _, out1, _ = run_cli(capsys, "normalize", "--algebra", "schmudgen",
                             "--expr", "p*x*p*x")
        _, out2, _ = run_cli(capsys, "normalize", "--algebra", "schmudgen",
                             "--expr", "p*x*p*x")
        assert out1 == out2

    def test_deep_nesting_is_parse_error(self):
        code, _, err = run_cli_process("normalize", "--algebra", "gaddis",
                                       "--expr", "(" * 3000 + "x" + ")" * 3000)
        assert code == 2
        assert "nested deeper than" in err
        assert "Traceback" not in err

    def test_huge_power_is_parse_error(self):
        code, _, err = run_cli_process("normalize", "--algebra", "gaddis",
                                       "--expr", "x^99999999999")
        assert code == 2
        assert "exceeds the limit" in err
        assert "Traceback" not in err

    def test_huge_coefficient_is_parse_error(self):
        t0 = time.perf_counter()
        code, _, err = run_cli_process("normalize", "--algebra", "gaddis",
                                       "--expr", "(q+1+hbar)^100")
        assert time.perf_counter() - t0 < 5.0
        assert code == 2
        assert "numerator terms exceeds the limit of 100000 terms" in err
        assert "Traceback" not in err

    def test_huge_sum_is_parse_error(self):
        t0 = time.perf_counter()
        code, _, err = run_cli_process("normalize", "--algebra", "gaddis",
                                       "--expr",
                                       "(q+1+hbar)^-40 + (q+2+hbar)^-40")
        assert time.perf_counter() - t0 < 5.0
        assert code == 2
        assert ("product at 15 of 861 and 861 denominator terms exceeds the "
                "limit of 100000 terms") in err
        assert "Traceback" not in err

    def test_exponent_limit_is_engine_error(self):
        code, out, err = run_cli_process("normalize", "--algebra", "gaddis",
                                         "--expr", "((q^10000)^10000)^10000*x")
        assert (code, out) == (3, "")
        assert err == ("engine error: exponent 400000000 of s is outside the "
                       "limit: exponents lie in [-2^28, 2^28)\n")

    def test_failing_division_of_a_large_power_ends(self):
        # q + 1 does not divide q^100000000: the exact division gives up at
        # its first quotient term, not after one step per degree
        code, out, err = run_cli_process(
            "normalize", "--algebra", "gaddis",
            "--expr", "(q^10000)^10000*(q+1)^-1*x", timeout=20)
        assert (code, out, err) == (0, "q^100000000*(q + 1)^-1*x\n", "")

    @pytest.mark.parametrize("expr, message", [
        ("1/0*x", "division by zero at 2"),
        ("q^(1/0)", "division by zero at 5"),
        ("1" * 5000 + "*x", "integer literal of 5000 digits at 0"),
        ("(x+y)^9*(x+y)^9", "exceeds the limit of 100000 terms"),
    ])
    def test_hostile_input_is_parse_error(self, expr, message):
        code, _, err = run_cli_process("normalize", "--algebra", "gaddis",
                                       "--expr", expr)
        assert code == 2
        assert message in err
        assert "Traceback" not in err


class TestCommutator:
    def test_canonical_pair(self, capsys):
        code, out, _ = run_cli(capsys, "commutator", "--algebra", "classical",
                               "--a", "x_1", "--b", "p_1")
        assert code == 0
        assert out.strip() == "i*hbar"


class TestVerify:
    def test_family_suite_green(self, capsys, tmp_path):
        report = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, "verify", "--suite", "gaddis",
                               "--k", "10", "--report", str(report))
        assert code == 0
        assert "gaddis-power-identities" in out
        payload = json.loads(report.read_text())
        assert payload["format"] == "qheis-verification-report-v1"

    def test_unknown_selection(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--suite", "nonexistent-id")
        assert code == 1

    @pytest.mark.parametrize("k", ["0", "-5"])
    def test_rejects_k_below_one(self, k):
        # k < 1 would leave the power-identity cases nothing to check
        code, out, err = run_cli_process("verify", "--k", k)
        assert code == 1
        assert "usage error" in err
        assert "Traceback" not in err
        assert "cases behaved as expected" not in out

    def test_rejects_k_above_limit(self, capsys):
        code, out, err = run_cli_process("verify", "--k", str(MAX_K + 1))
        assert code == 1
        assert f"at most {MAX_K}" in err
        assert "Traceback" not in err
        assert "cases behaved as expected" not in out
        code, _, _ = run_cli(capsys, "verify", "--suite", "wess-ore-x-p",
                             "--k", str(MAX_K))
        assert code == 0


class TestBadFiles:
    """A file the CLI cannot use ends in a documented exit code with a
    message, never in a traceback."""

    def test_directory_as_algebra(self, tmp_path):
        code, _, err = run_cli_process("normalize", "--algebra", str(tmp_path),
                                       "--expr", "x")
        assert code == 1
        assert "usage error" in err and "Traceback" not in err

    def test_presentation_not_utf8(self, tmp_path):
        path = tmp_path / "bad.qpres"
        path.write_bytes(b"\xff\xfe")
        code, _, err = run_cli_process("normalize", "--algebra", str(path),
                                       "--expr", "x")
        assert code == 2
        assert "not UTF-8" in err and "Traceback" not in err

    def test_reserved_generator_name(self, tmp_path):
        # saved, central hbar would load back as this generator
        path = tmp_path / "hbar.qpres"
        path.write_text("qheis-presentation 1\nname: r\ngenerator: x\n"
                        "generator: hbar\nrelation: c : hbar*x - x*hbar - hbar\n")
        code, _, err = run_cli_process("normalize", "--algebra", str(path),
                                       "--expr", "x")
        assert code == 2
        assert "generator name hbar is reserved" in err
        assert "Traceback" not in err

    def test_opaque_name_not_one_symbol(self, tmp_path):
        # no expression could reach the symbol 'D E'
        path = tmp_path / "opaque.qpres"
        path.write_text("qheis-presentation 1\nname: r\ngenerator: x\n"
                        "generator: y\nopaque: D E\nrelation: c : y*x - x*y\n")
        code, out, err = run_cli_process("confluence", "--algebra", str(path))
        assert code == 2 and out == ""
        assert "opaque name 'D E' is not one symbol" in err
        assert "Traceback" not in err

    def test_unwritable_report(self, tmp_path):
        report = tmp_path / "missing" / "r.json"
        code, out, err = run_cli_process("verify", "--suite", "wess-ore-x-p",
                                         "--report", str(report))
        assert code == 1
        assert "usage error" in err and "No such file" in err
        assert "Traceback" not in err
        assert "wess-ore-x-p" in out

    def test_repl_survives_a_bad_algebra(self, tmp_path):
        bad = tmp_path / "bad.qpres"
        bad.write_bytes(b"\xff\xfe")
        script = (f"algebra {tmp_path}\nalgebra {bad}\nalgebra gaddis\n"
                  "normalize y*x*x\nquit\n")
        code, out, err = run_cli_process("repl", stdin=script)
        assert code == 0
        assert "Traceback" not in err
        assert err.count("error:") == 2
        assert "q^2*x^2*y + hbar*(q + p^-1)*x*z" in out


class TestConfluence:
    def test_classical(self, capsys):
        code, out, _ = run_cli(capsys, "confluence", "--algebra", "classical")
        assert code == 0
        assert "classical: confluent (" in out

    def test_broken_variant_reports_pairs(self, capsys):
        import qheis
        from qheis import save_presentation_file
        import tempfile, os

        with tempfile.TemporaryDirectory() as td:
            path = os.path.join(td, "printed.qpres")
            save_presentation_file(
                qheis.catalog("gaddis", variant="printed"), path)
            code, out, _ = run_cli(capsys, "confluence", "--algebra", path)
        assert code == 4
        assert "unresolved" in out

    def test_long_self_overlap_not_confluent(self, capsys, tmp_path):
        path = tmp_path / "abba.qpres"
        path.write_text("qheis-presentation 1\nname: abba\ngenerator: a\n"
                        "generator: b\ngenerator: c\n"
                        "relation: r : a*b*b*a - c\n")
        code, out, _ = run_cli(capsys, "confluence", "--algebra", str(path))
        assert code == 4
        assert out.startswith("abba: NOT confluent (1 ambiguities checked)\n")
        assert "unresolved a*b*b*a*b*b*a via r / r" in out

    def test_generator_q_prints_the_central_q_as_s_squared(self, capsys,
                                                            tmp_path):
        # the words of the pair hold no q, but q is a generator of the file
        path = tmp_path / "qxy.qpres"
        path.write_text("qheis-presentation 1\nname: qxy\ngenerator: q\n"
                        "generator: x\ngenerator: y\n"
                        "relation: r1 : x*y - s^2\nrelation: r2 : y*x - 1\n")
        code, out, _ = run_cli(capsys, "confluence", "--algebra", str(path))
        assert code == 4
        assert out == ("qxy: NOT confluent (2 ambiguities checked)\n"
                       "unresolved x*y*x via r1 / r2\n"
                       "  left:  s^2*x\n"
                       "  right: x\n"
                       "unresolved y*x*y via r2 / r1\n"
                       "  left:  y\n"
                       "  right: s^2*y\n")


class TestNonConfluentNote:
    """normalize and commutator reduce by the presentation's own rules; when
    those are not confluent, one stderr line says the printed form may not
    be canonical, and stdout and the exit code are unchanged."""

    NOTE = ("note: the rules of gaddis_printed are not confluent; the "
            "printed form may not be canonical\n")

    @pytest.fixture
    def printed(self, tmp_path):
        path = tmp_path / "printed.qpres"
        qheis.save_presentation_file(
            qheis.catalog("gaddis", variant="printed"), str(path))
        return str(path)

    def test_normalize(self, capsys, printed):
        # completion derives z*z -> 0, which the printed rules miss
        code, out, err = run_cli(capsys, "normalize", "--algebra", printed,
                                 "--expr", "z*z")
        assert (code, out, err) == (0, "z^2\n", self.NOTE)
        code, out, _ = run_cli(capsys, "confluence", "--algebra", printed)
        assert code == 4 and "NOT confluent" in out

    def test_commutator_and_repl(self, capsys, monkeypatch, printed):
        code, out, err = run_cli(capsys, "commutator", "--algebra", printed,
                                 "--a", "z", "--b", "z")
        assert (code, out, err) == (0, "0\n", self.NOTE)
        monkeypatch.setattr(sys, "stdin", io.StringIO(
            f"algebra {printed}\nnormalize z*z\ncommutator z ; z\nquit\n"))
        assert main(["repl"]) == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines()[1:] == ["z^2", "0"]
        assert captured.err.count(self.NOTE) == 2

    ENDLESS = ("note: the rules of f have no confluence verdict (step limit "
               "10000 exceeded); the printed form may not be canonical\n")

    @pytest.fixture
    def endless(self, tmp_path):
        # x is a normal form, but a critical pair of r1 and r2 reduces
        # without end
        path = tmp_path / "f.qpres"
        path.write_text("qheis-presentation 1\nname: f\norder: invlex\n"
                        "generator: x\ngenerator: h\ngenerator: y\n"
                        "relation: r1 : h*x - x*h*h\n"
                        "relation: r2 : y*x*h*h - y*h*x\n")
        return str(path)

    def test_check_that_does_not_end(self, capsys, endless):
        code, out, err = run_cli(capsys, "normalize", "--algebra", endless,
                                 "--expr", "x")
        assert (code, out, err) == (0, "x\n", self.ENDLESS)

    def test_check_that_does_not_end_runs_once(self, capsys, monkeypatch,
                                               endless):
        # the check is deterministic: the presentation keeps the
        # NonTermination of the first command and raises it again
        calls = []
        check = qheis.families.check_confluence
        monkeypatch.setattr(qheis.families, "check_confluence",
                            lambda sysm: calls.append(sysm) or check(sysm))
        monkeypatch.setattr(sys, "stdin", io.StringIO(
            f"algebra {endless}\nnormalize x\nnormalize x*y\nquit\n"))
        assert main(["repl"]) == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines()[1:] == ["x", "x*y"]
        assert captured.err.count(self.ENDLESS) == 2
        assert len(calls) == 1

    def test_confluent_rules_print_no_note(self, capsys):
        code, out, err = run_cli(capsys, "normalize", "--algebra", "gaddis",
                                 "--expr", "z*z")
        assert (code, err) == (0, "")


class TestOre:
    def test_wess_table(self, capsys):
        code, out, _ = run_cli(capsys, "ore", "--algebra", "wess",
                               "--tower", "Lambda,p,x")
        assert code == 0
        assert "sigma_x(Lambda) = q*Lambda" in out
        assert "delta_x(p) = i*hbar*q^(-1/2)*Lambda" in out

    def test_generator_q_prints_the_central_q_as_s_squared(self, capsys,
                                                            tmp_path):
        # the table prints as normalize does: the central q of a file with
        # a generator q is s^2, which parses back as itself
        path = tmp_path / "qx.qpres"
        path.write_text("qheis-presentation 1\nname: qx\ngenerator: q\n"
                        "generator: x\nrelation: r : x*q - q*x - s^2\n")
        code, out, _ = run_cli(capsys, "ore", "--algebra", str(path),
                               "--tower", "q,x")
        assert code == 0
        assert out == ("qx: tower q < x\n"
                       "sigma_q(x) = x    delta_q(x) = -s^2\n"
                       "sigma_x(q) = q    delta_x(q) = s^2\n")
        code, out, _ = run_cli(capsys, "normalize", "--algebra", str(path),
                               "--expr", "x*q")
        assert (code, out) == (0, "q*x + s^2\n")

    def test_repeated_tower_entry_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "ore", "--algebra", "wess",
                               "--tower", "x,x")
        assert code == 1
        assert "lists x more than once" in err

    @pytest.mark.parametrize("tower", [",,", "x"])
    def test_short_tower_is_usage_error(self, capsys, tower):
        # a tower of one generator has no pairs: an empty table would pass
        # vacuously
        code, out, err = run_cli(capsys, "ore", "--algebra", "gaddis",
                                 "--tower", tower)
        assert code == 1 and out == ""
        assert "a tower needs at least two generators" in err


class TestFamilies:
    def test_listing(self, capsys):
        code, out, _ = run_cli(capsys, "families")
        assert code == 0
        for fam in ("classical", "wess", "schmudgen", "gaddis", "qhbar"):
            assert fam in out


class TestRepl:
    def test_scripted_session(self, capsys, monkeypatch):
        script = io.StringIO(
            "algebra gaddis\nnormalize y*x*x\ncommutator y ; x\nquit\n")
        monkeypatch.setattr(sys, "stdin", script)
        code = main(["repl"])
        out = capsys.readouterr().out
        assert code == 0
        assert "q^2*x^2*y + hbar*(q + p^-1)*x*z" in out
        # [y, x] = (q - 1) x y + hbar z after normalization
        assert "(q - 1)*x*y + hbar*z" in out

    @pytest.mark.parametrize("printed", [False, True])
    def test_trace_prints_as_normalize_trace(self, capsys, monkeypatch,
                                             tmp_path, printed):
        # the steps on stderr, then the note of the printed variant's rules,
        # then the result on stdout
        algebra = name = "gaddis"
        if printed:
            algebra, name = str(tmp_path / "p.qpres"), "gaddis_printed"
            qheis.save_presentation_file(
                qheis.catalog("gaddis", variant="printed"), algebra)
        code, out, err = run_cli(capsys, "normalize", "--algebra", algebra,
                                 "--expr", "y*x*x", "--trace")
        assert code == 0 and err.startswith("# y_x @ 0: q*x*y*x + ")
        assert ("\nnote: " in err) == printed
        monkeypatch.setattr(sys, "stdin", io.StringIO("trace y*x*x\nquit\n"))
        assert main(["repl", "--algebra", algebra]) == 0
        captured = capsys.readouterr()
        _banner, session = captured.err.split("\n", 1)
        assert session == f"[{name}] {err}[{name}] "
        assert captured.out == out

    def test_error_reports_as_the_one_shot_commands(self, tmp_path):
        # the step limit's last steps, then the session goes on
        path = tmp_path / "f.qpres"
        path.write_text("qheis-presentation 1\nname: f\norder: invlex\n"
                        "generator: x\ngenerator: h\ngenerator: y\n"
                        "relation: r1 : h*x - x*h*h\n"
                        "relation: r2 : y*x*h*h - y*h*x\n")
        script = (f"algebra {path}\nnormalize y*h*x\nnormalize y*(x\n"
                  "commutator x ; x\nquit\n")
        code, out, err = run_cli_process("repl", stdin=script)
        assert code == 0
        assert out == "algebra set to f\n0\n"
        assert "Traceback" not in err
        assert ("[f] engine error: step limit 10000 exceeded\n"
                "# r2 @ 0: y*h*x\n"
                "# r1 @ 1: y*x*h^2\n"
                "# r2 @ 0: y*h*x\n"
                "# r1 @ 1: y*x*h^2\n"
                "# r2 @ 0: y*h*x\n"
                "[f] parse error: ") in err


class TestReadme:
    def test_command_line_block(self, capsys, monkeypatch, tmp_path):
        """Each line of the README's "Command line" block exits 0, and a
        ``#`` line under a command is that command's output."""
        text = README.read_text(encoding="utf-8")
        block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1]
        block = block.split("```", 1)[0]
        commands = []
        for line in block.splitlines():
            if line.startswith("#"):
                commands[-1][1].append(line.lstrip("#").strip())
            elif line.strip():
                argv = shlex.split(line)
                assert argv[0] == "qheis"
                commands.append((argv[1:], []))
        assert len(commands) == 8
        monkeypatch.chdir(tmp_path)
        for argv, shown in commands:
            monkeypatch.setattr(sys, "stdin", io.StringIO(""))
            code, out, _ = run_cli(capsys, *argv)
            assert code == 0, argv
            assert out.splitlines()[:len(shown)] == shown, argv
        assert sum(bool(shown) for _, shown in commands) == 1
