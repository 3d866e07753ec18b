import hashlib
import io
import os
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ietlab import ParseError, format_quad, parse_quad, quad, radical, strip_decomposition
from ietlab import cli
from ietlab.cli import (_PARSERS, COMMANDS, CSV_HEADER, MAX_RADICAND, ExperimentConfig, main,
                        parse_config)

SRC = Path(__file__).resolve().parent.parent / "src"

SQRT2_CFG = """\
d = 2
sigma = 2 1
alpha = -1/1+1/1r, 2/1-1/1r
depth = 10
levels = 2
"""


def write_cfg(tmp_path, text=SQRT2_CFG, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run(command, cfg, out):
    return main([command, "--config", cfg, "--out", str(out)])


def test_parse_config_defaults():
    config = parse_config("")
    assert config == ExperimentConfig()
    assert config.depth == 10
    assert config.max_steps == 10**6
    assert config.levels is None
    assert config.y0 == quad(0)


def test_parse_config_full():
    config = parse_config(SQRT2_CFG + "y0 = 1/10\nside = left\nepsilon = 1/100\n"
                          "horizon = 3\nmax_steps = 500\nwindow_m = 2\nwindow_n = 7\n")
    assert config.d == 2
    assert config.sigma == (2, 1)
    assert config.alpha == (radical(2) - 1, 2 - radical(2))
    assert config.y0 == quad(Fraction(1, 10))
    assert config.side == "left"
    assert config.epsilon == Fraction(1, 100)
    assert (config.horizon, config.max_steps) == (3, 500)
    assert (config.window_m, config.window_n) == (2, 7)
    assert config.levels == 2


def test_parse_config_blank_lines_ignored():
    assert parse_config("\n\ndepth = 4\n\n").depth == 4


def test_parse_config_unknown_key():
    with pytest.raises(ParseError) as info:
        parse_config("depth = 4\nbogus = 1\n")
    assert (info.value.line, info.value.column) == (2, 1)


def test_parse_config_duplicate_key():
    with pytest.raises(ParseError) as info:
        parse_config("depth = 4\ndepth = 5\n")
    assert info.value.line == 2


def test_parse_config_missing_equals():
    with pytest.raises(ParseError) as info:
        parse_config("depth\n")
    assert (info.value.line, info.value.column) == (1, 1)


def test_parse_config_value_positions():
    with pytest.raises(ParseError) as info:
        parse_config("depth = four\n")
    assert (info.value.line, info.value.column) == (1, 9)
    with pytest.raises(ParseError) as info:
        parse_config("d = 2\nalpha = 1/2, oops\n")
    assert info.value.line == 2
    assert info.value.column == 14


def test_cli_epsilon_must_be_nonnegative(tmp_path, capsys):
    # a negative tolerance is a config error, exit code 4; 0 is allowed
    cfg = write_cfg(tmp_path, SQRT2_CFG + "epsilon = -1\n")
    assert run("cone", cfg, tmp_path / "out") == 4
    assert capsys.readouterr().err == "ietlab: config error: value -1 below minimum 0 (line 6, column 11)\n"
    assert parse_config("epsilon = 0\n").epsilon == 0


@pytest.mark.parametrize("command", ["orbit", "induce", "shrink", "cone", "towers", "measure"])
def test_cli_start_outside_the_domain_prints_one_text(tmp_path, capsys, command):
    # every command that walks y0 leaves the domain test to the walk kernel
    cfg = write_cfg(tmp_path, SQRT2_CFG + "y0 = 1\n")
    assert run(command, cfg, tmp_path / "out") == 2
    assert capsys.readouterr().err == "ietlab: OutOfDomain: 1/1 outside [0, 1/1)\n"


def test_parse_config_bad_side_and_epsilon():
    with pytest.raises(ParseError):
        parse_config("side = up\n")
    with pytest.raises(ParseError):
        parse_config("epsilon = 1r\n")
    with pytest.raises(ParseError):
        parse_config("depth = 0\n")


@pytest.mark.parametrize("text, message, line", [
    ("bogus = 1\nside = up\ndepth\n", "expected key=value", 3),
    ("side = up\nbogus = 1\ndepth = 2\ndepth = 3\n", "unknown key 'bogus'", 2),
    ("side = up\ndepth = 2\ndepth = 3\nbogus = 1\n", "duplicate key 'depth'", 3),
    ("side = up\ny0 = x\nepsilon = 1r\nwindow_n = 0\n", "value 0 below minimum 1", 4),
    ("side = up\ny0 = x\nepsilon = 1r\n", "radical term in '1r' but d is 0", 3),
    ("side = up\nd = 2\nalpha = 1\nsigma = 2 x\n", "invalid permutation '2 x'", 4),
    ("alpha = x\nd = x\n", "invalid integer 'x'", 2),
], ids=["equals-first", "unknown-key", "duplicate-key", "integers-before-epsilon",
        "epsilon-before-y0", "sigma-before-alpha", "d-before-alpha"])
def test_parse_config_error_precedence(text, message, line):
    with pytest.raises(ParseError) as info:
        parse_config(text)
    assert (str(info.value), info.value.line) == (message, line)


def test_readme_key_table_lists_config_fields():
    readme = (SRC.parent / "README.md").read_text()
    keys = re.findall(r"^\| `(\w+)`", readme, flags=re.M)
    names = [field.name for field in fields(ExperimentConfig)]
    assert sorted(keys) == sorted(names)
    assert sorted(_PARSERS) == sorted(names)


def test_cli_writes_csv_with_header(tmp_path):
    cfg = write_cfg(tmp_path)
    assert run("orbit", cfg, tmp_path / "out") == 0
    lines = (tmp_path / "out" / "orbit.csv").read_text().splitlines()
    assert lines[0] == ",".join(CSV_HEADER)
    assert lines[1].startswith("orbit_point,0,1,,0/1,")
    assert len(lines) == 12  # header + depth+1 points


def test_cli_reruns_are_byte_identical(tmp_path):
    cfg = write_cfg(tmp_path)
    for command in ("orbit", "induce", "strips", "bratteli", "render"):
        assert run(command, cfg, tmp_path / "a") == 0
        assert run(command, cfg, tmp_path / "b") == 0
    for artifact in sorted((tmp_path / "a").iterdir()):
        twin = tmp_path / "b" / artifact.name
        assert artifact.read_bytes() == twin.read_bytes()


def test_cli_csv_cells_reparse_exactly(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    for command in ("orbit", "induce", "shrink", "cone", "measure", "strips",
                    "towers", "group"):
        assert run(command, cfg, out) == 0
        for line in (out / f"{command}.csv").read_text().splitlines()[1:]:
            kind, _, _, _, exact, approx = line.split(",")
            if kind == "source" or not exact:
                continue
            value = parse_quad(exact, 2)
            assert str(value) == exact or exact == str(int(exact))


def test_cli_strips_reports_levels(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    assert run("strips", cfg, tmp_path / "out") == 0
    output = capsys.readouterr().out
    assert "level 1: K=5" in output
    assert "level 2: K=7" in output


def test_cli_strips_formats_each_orbit_point_once(tmp_path, monkeypatch):
    # floor_left and floor_right rows reuse each point's cells: at most one format per exponent
    # and one for the total
    formatted = []
    monkeypatch.setattr(cli, "format_quad", lambda x: formatted.append(x) or format_quad(x))
    cfg = write_cfg(tmp_path, SQRT2_CFG.replace("levels = 2", "levels = 8"))
    assert run("strips", cfg, tmp_path / "out") == 0
    T = cli._make_iet(parse_config(SQRT2_CFG))
    floors = [f for level in strip_decomposition(T, 8) for s in level.strips for f in s.floors]
    exponents = {f.left_exponent for f in floors} | {f.right_exponent for f in floors if f.right_exponent}
    assert len(formatted) == len(set(formatted)) <= len(exponents) + 1
    assert len(floors) > 2 * len(exponents)


def test_cli_render_writes_one_svg_per_level(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert run("render", cfg, out) == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == ["strips_level1.svg", "strips_level2.svg"]
    body = (out / "strips_level1.svg").read_text()
    assert body.startswith("<svg") and body.rstrip().endswith("</svg>")


def test_cli_bratteli_writes_dot(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert run("bratteli", cfg, out) == 0
    assert (out / "bratteli.dot").read_text().startswith("digraph bratteli {")
    assert (out / "bratteli.csv").exists()


def test_cli_group_includes_strip_matrices_when_levels_set(tmp_path):
    out = tmp_path / "out"
    assert run("group", write_cfg(tmp_path), out) == 0
    body = (out / "group.csv").read_text()
    assert "induction_chain" in body
    assert "strip_chain" in body
    assert "class_matrix_entry" in body
    # without a levels key only the induction side is reported
    plain = write_cfg(tmp_path, SQRT2_CFG.replace("levels = 2\n", ""), "plain.cfg")
    assert run("group", plain, tmp_path / "plain") == 0
    assert "strip_chain" not in (tmp_path / "plain" / "group.csv").read_text()


def test_cli_exit_code_parse_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "bogus = 1\n")
    assert run("orbit", cfg, tmp_path / "out") == 4
    assert "line 1" in capsys.readouterr().err


def test_cli_exit_code_missing_required_key(tmp_path):
    cfg = write_cfg(tmp_path, "depth = 3\n")
    assert run("orbit", cfg, tmp_path / "out") == 4


def test_cli_exit_code_domain_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "d = 2\nsigma = 1 2\nalpha = -1/1+1/1r, 2/1-1/1r\n")
    assert run("strips", cfg, tmp_path / "out") == 2
    assert "Reducible" in capsys.readouterr().err


def test_cli_exit_code_certify_unknown(tmp_path):
    cfg = write_cfg(tmp_path, SQRT2_CFG.replace("depth = 10", "depth = 3") + "horizon = 9\n")
    out = tmp_path / "out"
    assert run("certify", cfg, out) == 3
    assert "certified,,,,0,0" in (out / "certify.csv").read_text()


def test_cli_exit_code_missing_config(tmp_path):
    assert main(["orbit", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)]) == 2


def test_cli_idoc_reports_unverified_without_failing(tmp_path):
    cfg = write_cfg(tmp_path, "sigma = 2 1\nalpha = 1/3, 2/3\ndepth = 10\n")
    out = tmp_path / "out"
    assert run("idoc", cfg, out) == 0
    body = (out / "idoc.csv").read_text()
    assert "verified,,,,0,0" in body
    assert "witness_first" in body


def test_cli_profile_needs_only_sigma(tmp_path):
    cfg = write_cfg(tmp_path, "sigma = 3 1 4 2\n")
    out = tmp_path / "out"
    assert run("profile", cfg, out) == 0
    body = (out / "profile.csv").read_text()
    assert "genus,,,,2,2" in body
    assert run("lsigma", cfg, out) == 0


def test_cli_rejects_radicand_above_bound(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "sigma = 2 1\nd = 1000000000000000003\nalpha = 1r, 1\n")
    assert run("orbit", cfg, tmp_path / "out") == 4
    err = capsys.readouterr().err
    assert f"above maximum {MAX_RADICAND}" in err
    assert "(line 2, column 5)" in err
    assert parse_config(f"d = {MAX_RADICAND}\n").d == MAX_RADICAND


@pytest.mark.parametrize("text, position", [
    ("sigma = 2 1\nd = 2\nalpha = " + "1" * 5000 + ", 1\n", "(line 3, column 9)"),
    ("sigma = 2 1\nd = 2\nalpha = 1r, 1\ny0 = 1/" + "7" * 5000 + "\n", "(line 4, column 6)"),
    ("sigma = 2 1\nd = 2\nalpha = 1" + " " * 4000 + "x, 1\n", "(line 3, column 9)"),
    ("sigma = 2 1\nd = 2\nalpha = 1/" + " " * 4000 + "0, 1\n", "(line 3, column 9)"),
    ("sigma = 2 1\nd = 2\nalpha = 1r, 1\ndepth = 1" + " " * 4000 + "x\n", "(line 4, column 9)"),
    ("sigma = 2" + " " * 4000 + "x 1\nd = 2\nalpha = 1r, 1\n", "(line 1, column 9)"),
    ("sigma = 2 1\nd = 2\nalpha = 1r, 1\nside = l" + " " * 4000 + "eft\n", "(line 4, column 8)"),
    ("sigma = 2 1\nd = 2\nalpha = 1r, 1\nbo" + " " * 4000 + "gus = 1\n", "(line 4, column 1)"),
    ("sigma = 2 1\nd = 2\nalpha = 1r, 1\ndepth = -" + "1" * 4000 + "\n", "(line 4, column 9)"),
    ("sigma = 2 1\nd = " + "1" * 4000 + "\nalpha = 1r, 1\n", "(line 2, column 5)"),
], ids=["long-integer", "long-denominator", "whitespace-run", "whitespace-zero-denominator",
        "whitespace-depth", "whitespace-sigma", "whitespace-side", "whitespace-unknown-key",
        "long-negative-depth", "long-radicand"])
def test_cli_long_literals_exit_cleanly(tmp_path, capsys, text, position):
    assert run("orbit", write_cfg(tmp_path, text), tmp_path / "out") == 4
    err = capsys.readouterr().err
    assert position in err
    # the message quotes at most a short prefix of the value
    assert len(err) < 150


@pytest.mark.parametrize("line, message", [
    ("depth = 1_0", "invalid integer '1_0' (line 4, column 9)"),
    ("window_n = \u0661\u0662", "invalid integer '\u0661\u0662' (line 4, column 12)"),
    ("sigma = \uff12 \uff11", "invalid permutation '\uff12 \uff11' (line 4, column 9)"),
], ids=["underscore", "arabic-indic-digits", "fullwidth-digits"])
def test_cli_integers_take_ascii_digits_only(tmp_path, capsys, line, message):
    cfg = write_cfg(tmp_path, "d = 2\nalpha = 1r, 1\ny0 = 0\n" + line + "\n")
    assert run("orbit", cfg, tmp_path / "out") == 4
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command, text, error", [
    ("orbit", "sigma = " + " ".join(["1"] * 3000) + "\n", "InvalidPermutation"),
    ("profile", "sigma = " + " ".join(map(str, range(1, 3001))) + "\n", "Reducible"),
    ("strips", "sigma = " + " ".join(map(str, range(3000, 0, -1))) + "\nalpha = "
     + ", ".join(["1"] * 3000) + "\n", "ClosedTransversalRequired"),
], ids=["invalid", "reducible", "open-transversal"])
def test_cli_long_permutations_echo_a_prefix(tmp_path, capsys, command, text, error):
    assert run(command, write_cfg(tmp_path, text), tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"ietlab: {error}: ")
    assert len(err) < 150
    assert "Traceback" not in err


def test_cli_files_are_utf8_under_any_locale(tmp_path):
    # any read or write left to the locale's encoding raises here
    cfg = write_cfg(tmp_path)
    for command in ("orbit", "bratteli", "render"):
        result = subprocess.run(
            [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
             "-m", "ietlab.cli", command, "--config", cfg, "--out", str(tmp_path / "out")],
            env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True)
        assert result.returncode == 0, result.stderr


def _unreadable_config(tmp_path):
    path = tmp_path / "latin1.cfg"
    path.write_bytes(b"d = 2\xff\n")
    return str(path), tmp_path / "out"


def _out_is_a_file(tmp_path):
    (tmp_path / "taken").write_text("")
    return write_cfg(tmp_path), tmp_path / "taken"


def _csv_is_a_directory(tmp_path):
    (tmp_path / "out" / "orbit.csv").mkdir(parents=True)
    return write_cfg(tmp_path), tmp_path / "out"


@pytest.mark.parametrize("setup, message", [
    (_unreadable_config, "cannot read config"),
    (_out_is_a_file, "cannot write output"),
    (_csv_is_a_directory, "cannot write output"),
], ids=["config-not-utf8", "out-is-a-file", "csv-is-a-directory"])
def test_cli_file_errors_exit_cleanly(tmp_path, setup, message):
    cfg, out = setup(tmp_path)
    result = subprocess.run([sys.executable, "-m", "ietlab.cli", "orbit", "--config", cfg,
                             "--out", str(out)], env=dict(os.environ, PYTHONPATH=str(SRC)),
                            capture_output=True, text=True)
    assert result.returncode == 2
    assert message in result.stderr
    assert "Traceback" not in result.stderr


def test_cli_shrink_fails_fast_on_periodic_data(tmp_path, capsys):
    # every orbit of a rational rotation is periodic, so no return search can succeed
    cfg = write_cfg(tmp_path, "sigma = 2 1\nalpha = 1, 1\ndepth = 3\n")
    assert run("shrink", cfg, tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert "ReturnTimeExceeded" in err
    assert "beta(1) is periodic with period 2" in err


fuzz_numbers = st.one_of(
    st.sampled_from(["1", "1/2", "1r", "1/2+1/3r", "3-1r", "-1/4", "0", "x", "1/0",
                     "1" * 5000, "1/" + "7" * 5000, "1" + " " * 4000 + "x"]),
    st.builds(lambda p, q, r: f"{p}/{q}+{r}/{q}r", st.integers(-1, 9), st.integers(1, 9),
              st.integers(-1, 3)),
    st.builds(lambda p, q: f"{p}/{q}", st.integers(1, 9), st.integers(1, 9)),
)


@st.composite
def fuzz_configs(draw):
    """Config text that is mostly well formed, so that most draws reach the commands."""
    n = draw(st.integers(2, 4))
    sigma = draw(st.permutations(range(1, n + 1)) | st.lists(st.integers(0, 4), max_size=4))
    alpha = draw(st.lists(fuzz_numbers, min_size=n, max_size=n)
                 | st.lists(fuzz_numbers, min_size=1, max_size=4))
    d = draw(st.sampled_from([2, 5, 8, 12, 1000003, 0, 1, MAX_RADICAND, MAX_RADICAND + 1,
                              1000000000000000003, -1]))
    return (f"d = {d}\nsigma = {' '.join(map(str, sigma))}\nalpha = {', '.join(alpha)}\n"
            f"y0 = {draw(fuzz_numbers)}\nmax_steps = {draw(st.integers(1, 40))}\n"
            f"depth = {draw(st.integers(1, 3))}\nlevels = {draw(st.integers(1, 2))}\n"
            "window_n = 20\nhorizon = 2\n")


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(COMMANDS), fuzz_configs())
def test_cli_fuzz_exits_cleanly(command, text):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = f"{tmp}/fuzz.cfg"
        with open(cfg, "w") as stream:
            stream.write(text)
        err = io.StringIO()
        with redirect_stderr(err), redirect_stdout(io.StringIO()):
            code = main([command, "--config", cfg, "--out", f"{tmp}/out"])
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err.getvalue()


GOLDEN_CFG = """\
d = 5
sigma = 2 1
alpha = -1/2+1/2r, 3/2-1/2r
y0 = 1/10
depth = 8
levels = 3
window_n = 1000
"""

# A 4-interval map with a closed transversal, so the strip code sees n > 2.
FOUR_CFG = """\
d = 2
sigma = 3 1 4 2
alpha = -1/1+1/1r, 1/2, 2/1-1/1r, 1/3
y0 = 1/10
depth = 5
levels = 4
window_n = 300
"""

# Total length 1+sqrt(2): the only pinned drawing whose scale is irrational.
SILVER_CFG = """\
d = 2
sigma = 2 1
alpha = 0/1+1/1r, 1
depth = 5
levels = 3
"""

# Exit code and sha256 of every artifact and of stdout, per config and command.
GOLDEN_DIGESTS = {
    "four bratteli": (0, {
        "bratteli.csv": "ca87c5498772761e3e343bcbeb863f258d26e19dacb2ae8048ba6eb44632794f",
        "bratteli.dot": "fea43726fbf4951326623a1cb81ba68bf853cceeb81bd1d69f80c8dec3bbc954",
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    }),
    "four certify": (0, {
        "certify.csv": "0b5cee64d5d15cf23fde25561d600bc1c16e72b4972c7b8dd0782a3bb88f32e8",
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    }),
    "four cone": (0, {
        "cone.csv": "f707a84ced564a2f07e1eb574a48fc1ba76611a00f821e88ec4d0b92d3994563",
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    }),
    "four group": (0, {
        "group.csv": "bcfb96e6b5e5b1a4490ff64250fbf716a0faa6d7f6736a2c81c4b4eebf3253fd",
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    }),
    "four idoc": (0, {
        "idoc.csv": "35fc6c30beefc8179a499b8022618c9ae04fafa73e9705cce8adfa12594f2775",
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    }),
    "four induce": (0, {
        "induce.csv": "69ea607e5875a653c77e813ae9913a9d7b1c489b8ebb5134ec125bd985b36f67",
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    }),
    "four lsigma": (0, {
        "lsigma.csv": "a981e1b26ab9f095ed4c675ceaaeeb1bdbe70712abaff3fa5706ef2eee57d9f0",
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    }),
    "four measure": (0, {
        "measure.csv": "2460edafccf84e455e23065b4258962872efe08b2deb3b79f96619469fb87a3e",
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    }),
    "four orbit": (0, {
        "orbit.csv": "0d6d31162ca6cb39db4efcbe5805923eb523484c389fb7950bddfcdc339c5165",
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    }),
    "four profile": (0, {
        "profile.csv": "befb3dbc6b6a66f1731d4cf5392c5e1cbda65f0bdf53acbedfa412623f8c114d",
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    }),
    "four render": (0, {
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "strips_level1.svg": "048c02408cc71b016ea68971e4446311a9f5905cc3c132639e6278e76947d9d5",
        "strips_level2.svg": "7a2c849a2a144b053e00d38ceddaa8c5c68656a93c1ebee21b5e94add29872ae",
        "strips_level3.svg": "9b7083273e35b3a21c7b464a79c180f43ace0467b3099e576b5903e06316097f",
        "strips_level4.svg": "3665b6684f56989ff620466ee4ac085e4a566cf7386b25ce5e1f3c911962ad95",
    }),
    "four shrink": (0, {
        "shrink.csv": "34fd51cb4635cd4d2bb1f073dfab27573a36ccd7038819e1733aa90a46753941",
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    }),
    "four strips": (0, {
        "stdout": "9204a1d50ca799cfef371f8b4dd01a19ef0de295a0b333f38316d8fc4f4f1dfb",
        "strips.csv": "bf88e5104799591f26390aed52677257fae9a407ac42c63b43be241e45c7f2a4",
    }),
    "four towers": (0, {
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "towers.csv": "c1c690d4c2bcdfd072cebbf4ea403b2565dd12be3ec0c3b0c7b85d0cd885a89f",
    }),
    "golden bratteli": (0, {
        "bratteli.csv": "7446ef11e6042e7abdc1a9f0929e88d9edc19e2ab110bfd36975a193696964a6",
        "bratteli.dot": "ea0cd3ecb6cbdf01ccd0ad4c6c31efb73c6bec657b8dbf5df6d84a85a8d79214",
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    }),
    "golden certify": (0, {
        "certify.csv": "2505894f7a1d0bb392e572cb6bf0a68efa3b4374838437663e5fd11eea84c3ea",
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    }),
    "golden cone": (0, {
        "cone.csv": "f4b1cb959231b18997e12c57ebf14d0447bf43c71ae800600e0586832a656ca2",
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    }),
    "golden group": (0, {
        "group.csv": "87e2bce7080650f69824b89ccecd07a934d5431225de89e1d499cceebdd16f37",
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    }),
    "golden idoc": (0, {
        "idoc.csv": "9ca0155eb9055d3c331adbc23b2302099d3f8fc4ffd6ac1aa98e9bf93eaf2c59",
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    }),
    "golden induce": (0, {
        "induce.csv": "7b3496405ef80e698ee1e54ce682ad4342b8dc45d0a12c6f23c3163888ebc20c",
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    }),
    "golden lsigma": (0, {
        "lsigma.csv": "f3ebec37642de77b1a595e4989791a043f3e0de62c105fe4036c4ccaa23f1fbb",
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    }),
    "golden measure": (0, {
        "measure.csv": "eb8a7864153bd529f76df6d63b369cf965e9e20b2b5b3f80b98892759d7fc739",
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    }),
    "golden orbit": (0, {
        "orbit.csv": "2e20c517cc8b67991dd4eab17786498aa16825b03f7084c47f8ddb7a3177f408",
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    }),
    "golden profile": (0, {
        "profile.csv": "5d45c78816a063df35f27bb455dbb8350adac58696534a00303b197046ee7e52",
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    }),
    "golden render": (0, {
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "strips_level1.svg": "443f9d712bed01fab00b22bfaef5a05c4651196448eaaba347feba7f9b47d79f",
        "strips_level2.svg": "43d35193ea7e309f1e68ec17d7b97e728a4deceafa9cc35c514ffffe5eb751e9",
        "strips_level3.svg": "ae4f37cb56a7edeac04248efcd0cbac362e96a96ecdc5725d7a73d4a2cb0af33",
    }),
    "golden shrink": (0, {
        "shrink.csv": "ad6882fb384973c84844e8f706a35f1c9a25eaa36b5a5f2dd7a293a31159b658",
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    }),
    "golden strips": (0, {
        "stdout": "0ecf9f11aae4e46d8fcfe784d11829e81db69493da92e404f892283a680c300a",
        "strips.csv": "f81832dcfdb5a97bfae8ac0ca432ab65ca27d6bde5dcc12930f857eb6661e5e2",
    }),
    "golden towers": (0, {
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "towers.csv": "c45462d04e6030590db52643c57f4610b8f05ac8f6446b883065c4e54ba5843d",
    }),
    "silver bratteli": (0, {
        "bratteli.csv": "e03a46251f8c5e476d88398ed94b6d00d2f0ea318f995971379e2b373ca2bce7",
        "bratteli.dot": "a21115ef57e044f80e0fa70849ac343fae5efaf6647735a17d7b73c1b08c2d52",
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    }),
    "silver certify": (0, {
        "certify.csv": "35bc4e8a7cc9aa645e6866ec8caa691ba148d372cdc6f82a3d3d2241cc546fad",
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    }),
    "silver cone": (0, {
        "cone.csv": "0d8ac3423503075facc287cdb0c40a44c1f98304a077db1f2f83df81e22e04ff",
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    }),
    "silver group": (0, {
        "group.csv": "6d4e8408fce968f1143738136f8ecee28546b92da66369e208bdf23219d54cff",
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    }),
    "silver idoc": (0, {
        "idoc.csv": "35fc6c30beefc8179a499b8022618c9ae04fafa73e9705cce8adfa12594f2775",
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    }),
    "silver induce": (0, {
        "induce.csv": "5e92fa721a918e99d011095e59407648a961606072f782d32fb841badc5f890b",
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    }),
    "silver lsigma": (0, {
        "lsigma.csv": "f3ebec37642de77b1a595e4989791a043f3e0de62c105fe4036c4ccaa23f1fbb",
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    }),
    "silver measure": (0, {
        "measure.csv": "56e5c669e0f60bf5f2dc506367745fdd0a51d08a75373f2f352dd3825e3abb33",
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    }),
    "silver orbit": (0, {
        "orbit.csv": "be3b67214fd5b1a2b96b2c918c206b2acc487caab196416e64bbff76c5a64a50",
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    }),
    "silver profile": (0, {
        "profile.csv": "5d45c78816a063df35f27bb455dbb8350adac58696534a00303b197046ee7e52",
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    }),
    "silver render": (0, {
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "strips_level1.svg": "ea7ccc3faf4f317bea77f1349a8cd1e42fa60f8374d7f68b86bcac196f101f48",
        "strips_level2.svg": "6212125227a66df3ab7a1a836cc4570649a48366063cb118cce126942afa234d",
        "strips_level3.svg": "d3ad6f9b2e6c648790f0ab3fd1a9b87f649690e06ade597f9c0f41f4fe9bea29",
    }),
    "silver shrink": (0, {
        "shrink.csv": "8c0a14b17154cbe2996be65da145c02823862e23940d6cd787de4e7b34cd0a34",
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    }),
    "silver strips": (0, {
        "stdout": "73a9f399bc41c4de501317373bcc31adc7f28e23e8f78c9cffbeac1ab902fbaa",
        "strips.csv": "014aa85d1bfa51dae37b63b128752ea7c0d2a6ff25cff16180e10cc9062eebd3",
    }),
    "silver towers": (0, {
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "towers.csv": "9fe0b913ed06d274586ca2d7348a80cc9a2cd5a97e31968546eb5a60589b2979",
    }),
    "sqrt2 bratteli": (0, {
        "bratteli.csv": "827a09fdfb89f2fbc2411293f46ab32ea9a39360c3a7809b4a1fbc24dea9c7b3",
        "bratteli.dot": "c52c3bb8ca9c7a0652f7cd368f12993a839ecf691c01878b53d54b94e2c778c6",
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    }),
    "sqrt2 certify": (0, {
        "certify.csv": "bc998aa983df9a00a1a57b256119446f07a9995e3e5d319a0c0986c605e20cc2",
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    }),
    "sqrt2 cone": (0, {
        "cone.csv": "3619e3363f022b001f8ed8a95360807f9031da14e04fffdc63e8cb19c953751d",
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    }),
    "sqrt2 group": (0, {
        "group.csv": "8e641d9910bca38a5a4d1ac1e75b5038af9a3db266b2308942c75f20a761fe57",
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    }),
    "sqrt2 idoc": (0, {
        "idoc.csv": "2a38b7603ae385302971673f16449a2021a1a3ee061b6fdf2d4455876ea93414",
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    }),
    "sqrt2 induce": (0, {
        "induce.csv": "c1801c463c2351085ee087c7540b1e25df2a4fc5cc7437c5ded6b69e43781cdd",
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    }),
    "sqrt2 lsigma": (0, {
        "lsigma.csv": "f3ebec37642de77b1a595e4989791a043f3e0de62c105fe4036c4ccaa23f1fbb",
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    }),
    "sqrt2 measure": (0, {
        "measure.csv": "05d7efb55850f91f015c7ac126bb8b1b13b170b4777d41c67e8c8a581ca5ad5e",
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    }),
    "sqrt2 orbit": (0, {
        "orbit.csv": "2c74d94ea4ce9fdec62c1e4719274fed84d4e449c4cb4b47ffab859eb42713c8",
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    }),
    "sqrt2 profile": (0, {
        "profile.csv": "5d45c78816a063df35f27bb455dbb8350adac58696534a00303b197046ee7e52",
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    }),
    "sqrt2 render": (0, {
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "strips_level1.svg": "c1696d5ad07d606ce964574e018a4d026a3cc260213228c41c5b38b16a0220c8",
        "strips_level2.svg": "268567aeb439d7a5ac42e536f36d11c6799e7512e7544d0a91907cb16d2d5dca",
    }),
    "sqrt2 shrink": (0, {
        "shrink.csv": "15d92cca2e360a2b8512e0afb537c4d328b7d38014fddbed39767e7b648dea55",
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    }),
    "sqrt2 strips": (0, {
        "stdout": "9341701dbd0fbb34100c75c6b0ef3165d8d946770ebb1ea1461da81de5e003e1",
        "strips.csv": "06529a379820ccd9d9b5a24b65cc5d5fc8878e8148d72f6ac1667de99b1f1557",
    }),
    "sqrt2 towers": (0, {
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "towers.csv": "19dd9c1bb4ff627c686425d607c6b90408a640f7cf89cc5db74a2d30c1b28f28",
    }),
}


@pytest.mark.parametrize("name", ["sqrt2", "golden", "four", "silver"])
def test_cli_artifacts_match_pinned_digests(tmp_path, name):
    cfg = write_cfg(tmp_path, {"sqrt2": SQRT2_CFG, "golden": GOLDEN_CFG, "four": FOUR_CFG,
                               "silver": SILVER_CFG}[name])
    for command in COMMANDS:
        out = tmp_path / command
        printed = io.StringIO()
        with redirect_stdout(printed):
            code = run(command, cfg, out)
        digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                   for path in out.iterdir()}
        digests["stdout"] = hashlib.sha256(printed.getvalue().encode()).hexdigest()
        assert (code, digests) == GOLDEN_DIGESTS[f"{name} {command}"], command
