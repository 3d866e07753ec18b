import io
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ietlab import ParseError, parse_quad, quad, radical
from ietlab.cli import COMMANDS, CSV_HEADER, MAX_RADICAND, ExperimentConfig, main, parse_config

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


def test_parse_config_bad_side_and_epsilon():
    with pytest.raises(ParseError):
        parse_config("side = up\n")
    with pytest.raises(ParseError):
        parse_config("epsilon = 1r\n")
    with pytest.raises(ParseError):
        parse_config("depth = 0\n")


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


fuzz_numbers = st.one_of(
    st.sampled_from(["1", "1/2", "1r", "1/2+1/3r", "3-1r", "-1/4", "0", "x", "1/0"]),
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
