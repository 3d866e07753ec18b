"""Configuration-driven command line around the library pipeline.

Configs are plain ``key=value`` lines; values are integers, QuadReal text
forms, or comma-separated lists of those.  Every command writes a CSV table
with the fixed header ``kind,k,i,j,value_exact,value_approx`` into the
output directory; numeric cells carry the exact text form next to a
12-digit decimal approximation, so tables re-parse losslessly.  The
``bratteli`` command additionally writes a DOT file and ``render`` writes
one SVG per strip level.

Exit codes: 0 success, 2 domain errors, an unreadable config or an output
that cannot be written, 3 when a certificate comes back unknown, 4 config
parse errors.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from pathlib import Path
from typing import Any, Callable, Sequence

from . import ktheory, measures, suspension
from .errors import IetlabError, ParseError
from .exactnum import (QuadReal, _clipped, _integer_token, _quoted, format_quad, parse_quad,
                       quad, quad_approx)
from .iet import Iet, Permutation, _points, idoc_check, iet_new
from .induction import (DEFAULT_MAX_STEPS, InductionStep, basic_interval, induce,
                        shrink_sequence)
from .intmat import det
from .render import render_strip_level

APPROX_DIGITS = 12

CSV_HEADER = ("kind", "k", "i", "j", "value_exact", "value_approx")

# Largest accepted radicand: factoring it by trial division takes at most
# 10^6 steps, done once per radicand.
MAX_RADICAND = 10**12


@dataclass(frozen=True)
class ExperimentConfig:
    """Parsed configuration; optional keys keep None until a command needs them."""

    d: int = 0
    sigma: tuple[int, ...] | None = None
    alpha: tuple[QuadReal, ...] | None = None
    depth: int = 10
    horizon: int = 1
    epsilon: Fraction = measures.DEFAULT_CLUSTER_EPSILON
    max_steps: int = DEFAULT_MAX_STEPS
    y0: QuadReal = quad(0)
    side: str | None = None
    levels: int | None = None
    window_m: int = 0
    window_n: int = 10000


# A value parser takes the value text and the radicand parsed so far.  Its
# ParseError carries no line, and as column the offset within the value.
Parser = Callable[[str, int], object]


def _integer(minimum: int) -> Parser:
    def parse(value: str, d: int) -> int:
        try:
            parsed = _integer_token(value)
        except ValueError:
            raise ParseError(f"invalid integer {_quoted(value)}") from None
        if parsed < minimum:
            raise ParseError(f"value {_clipped(str(parsed))} below minimum {minimum}")
        return parsed
    return parse


def _radicand(value: str, d: int) -> int:
    parsed = _integer(0)(value, d)
    if parsed > MAX_RADICAND:
        raise ParseError(f"radicand {_clipped(str(parsed))} above maximum {MAX_RADICAND}")
    return parsed


def _sigma(value: str, d: int) -> tuple[int, ...]:
    try:
        return tuple(_integer_token(part) for part in value.split())
    except ValueError:
        raise ParseError(f"invalid permutation {_quoted(value)}") from None


def _alpha(value: str, d: int) -> tuple[QuadReal, ...]:
    lengths = []
    offset = 0
    for part in value.split(","):
        try:
            lengths.append(parse_quad(part.strip(), d))
        except ParseError as exc:
            raise ParseError(str(exc), column=offset + len(part) - len(part.lstrip())) from None
        offset += len(part) + 1
    return tuple(lengths)


def _epsilon(value: str, d: int) -> Fraction:
    # with d = 0 a radical term is a ParseError, so the value is rational
    parsed = parse_quad(value, 0).as_fraction()
    if parsed < 0:
        raise ParseError(f"value {_clipped(str(parsed))} below minimum 0")
    return parsed


def _side(value: str, d: int) -> str:
    if value not in ("left", "right"):
        raise ParseError(f"side must be left or right, not {_quoted(value)}")
    return value


# Every config key, in the order its value is parsed.
_PARSERS: dict[str, Parser] = {
    "d": _radicand,
    "sigma": _sigma,
    "alpha": _alpha,
    "depth": _integer(1),
    "horizon": _integer(1),
    "max_steps": _integer(1),
    "levels": _integer(1),
    "window_m": _integer(0),
    "window_n": _integer(1),
    "epsilon": _epsilon,
    "y0": parse_quad,
    "side": _side,
}


def parse_config(text: str) -> ExperimentConfig:
    """Parse the line-oriented config grammar, rejecting unknown and duplicate keys."""
    lines = []
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip()
        if line:
            if "=" not in line:
                raise ParseError("expected key=value", line=number, column=1)
            lines.append((number, line))
    seen: dict[str, tuple[str, int, int]] = {}
    for number, line in lines:
        key, _, rest = line.partition("=")
        key = key.strip()
        if key not in _PARSERS:
            raise ParseError(f"unknown key {_quoted(key)}", line=number, column=1)
        if key in seen:
            raise ParseError(f"duplicate key {key!r}", line=number, column=1)
        seen[key] = (rest.strip(), number, len(line) - len(rest.lstrip()) + 1)

    fields: dict[str, object] = {}
    for key, parse in _PARSERS.items():
        if key in seen:
            value, number, column = seen[key]
            try:
                fields[key] = parse(value, fields.get("d", 0))
            except ParseError as exc:
                raise ParseError(str(exc), line=number, column=column + exc.column) from None
    return ExperimentConfig(**fields)  # type: ignore[arg-type]


def _required(config: ExperimentConfig, key: str) -> Any:
    value = getattr(config, key)
    if value is None:
        raise ParseError(f"missing required key {key!r}")
    return value


def _make_iet(config: ExperimentConfig) -> Iet:
    return iet_new(Permutation(_required(config, "sigma")), list(_required(config, "alpha")))


Row = tuple[str, str, str, str, str, str]


def _row(kind: str, value: int | str | QuadReal | Fraction,
         k: object = "", i: object = "", j: object = "") -> Row:
    """One CSV row: an int fills both value cells, text only the exact one."""
    if isinstance(value, int):
        cells = (str(value), str(value))
    elif isinstance(value, str):
        cells = (value, "")
    else:
        cells = (format_quad(value), quad_approx(value, APPROX_DIGITS))
    return (kind, str(k), str(i), str(j), *cells)


def _matrix_rows(kind: str, matrix, k: object = "") -> list[Row]:
    return [
        _row(kind, matrix[i][j], k, i + 1, j + 1)
        for i in range(len(matrix))
        for j in range(len(matrix[0]))
    ]


def _cmd_orbit(config: ExperimentConfig, out: Path) -> tuple[list[Row], int]:
    T = _make_iet(config)
    orbit = islice(_points(T, config.y0), config.depth + 1)
    return [_row("orbit_point", x, k, i) for k, (i, x) in enumerate(orbit)], 0


def _cmd_idoc(config: ExperimentConfig, out: Path) -> tuple[list[Row], int]:
    T = _make_iet(config)
    result = idoc_check(T, config.depth)
    rows = [_row("verified", int(result.verified)), _row("depth", result.depth)]
    if result.witness is not None:
        (i1, k1), (i2, k2) = result.witness
        rows.append(_row("witness_first", k1, i=i1))
        rows.append(_row("witness_second", k2, i=i2))
    if result.reason:
        rows.append(_row("reason", result.reason))
    return rows, 0


def _chain(config: ExperimentConfig) -> list[InductionStep]:
    return shrink_sequence(_make_iet(config), config.y0, config.depth,
                           max_steps=config.max_steps, side=config.side)


def _window_of(T: Iet, config: ExperimentConfig):
    return basic_interval(T, T.interval_index(config.y0) - 1)


def _cmd_induce(config: ExperimentConfig, out: Path) -> tuple[list[Row], int]:
    T = _make_iet(config)
    step = induce(T, _window_of(T, config), max_steps=config.max_steps)
    rows = [
        _row("window_left", step.J.left),
        _row("window_right", step.J.right),
        _row("det", det(step.A)),
    ]
    rows += _matrix_rows("matrix_entry", step.A)
    rows += [_row("return_time", r, i=l + 1) for l, r in enumerate(step.return_times)]
    rows += [_row("sigma_prime", img, i=l + 1)
             for l, img in enumerate(step.induced.sigma.images)]
    for i in range(T.n):
        residual = T.alpha[i] - sum(
            (step.induced.alpha[j] * step.A[i][j] for j in range(T.n)), quad(0)
        )
        rows.append(_row("alpha_residual", residual, i=i + 1))
    return rows, 0


def _cmd_shrink(config: ExperimentConfig, out: Path) -> tuple[list[Row], int]:
    chain = _chain(config)
    rows: list[Row] = []
    for k, step in enumerate(chain):
        rows.append(_row("window_left", step.origin, k))
        rows.append(_row("window_right", step.origin + step.induced.total, k))
        rows += _matrix_rows("matrix_entry", step.A, k)
        rows += [_row("return_time", r, k, l + 1) for l, r in enumerate(step.return_times)]
    return rows, 0


def _cmd_cone(config: ExperimentConfig, out: Path) -> tuple[list[Row], int]:
    chain = _chain(config)
    cone = measures.cone_approx(chain, config.epsilon)
    rows = [_row("depth", cone.depth), _row("nu_estimate", cone.nu_estimate)]
    rows += _matrix_rows("product_entry", cone.product)
    for r, ray in enumerate(cone.rays):
        rows += [_row("ray_entry", value, "", r + 1, c + 1) for c, value in enumerate(ray)]
    for c, members in enumerate(cone.clusters):
        rows += [_row("cluster_member", member + 1, i=c + 1) for member in members]
    return rows, 0


def _cmd_measure(config: ExperimentConfig, out: Path) -> tuple[list[Row], int]:
    T = _make_iet(config)
    vector = measures.empirical_measure(T, config.y0, config.window_m, config.window_n)
    rows = [_row("raw", value, i=i + 1) for i, value in enumerate(vector.raw)]
    rows += [_row("normalized", value, i=i + 1)
             for i, value in enumerate(vector.normalized)]
    return rows, 0


def _cmd_certify(config: ExperimentConfig, out: Path) -> tuple[list[Row], int]:
    chain = _chain(config)
    certificate = measures.unique_ergodicity_certificate(chain, config.horizon)
    rows = [
        _row("certified", int(certificate.certified)),
        _row("required_blocks", certificate.required_blocks),
    ]
    for index, (start, end) in enumerate(certificate.block_ranges, start=1):
        rows.append(_row("block_start", start, i=index))
        rows.append(_row("block_end", end, i=index))
    return rows, 0 if certificate.certified else 3


def _cmd_profile(config: ExperimentConfig, out: Path) -> tuple[list[Row], int]:
    profile = suspension.singularity_profile(Permutation(_required(config, "sigma")))
    rows = [_row("sigma0", image, i=j) for j, image in enumerate(profile.sigma0)]
    rows.append(_row("N", profile.N))
    for c, cycle in enumerate(profile.cycles, start=1):
        rows += [_row("cycle_member", member, c, position + 1)
                 for position, member in enumerate(cycle)]
    for s, singularity in enumerate(profile.singularities, start=1):
        rows.append(_row("adjusted_length", singularity.adjusted_length, i=s))
        rows.append(_row("multiplicity", singularity.multiplicity, i=s))
        rows.append(_row("prongs", singularity.prongs, i=s))
    rows.append(_row("genus", profile.genus))
    rows.append(_row("closed_transversal", int(profile.closed_transversal)))
    rows += [_row("fake_saddle", j, i=index)
             for index, j in enumerate(profile.fake_saddles, start=1)]
    rows.append(_row("endpoints_share_cycle", int(profile.endpoints_share_cycle)))
    return rows, 0


def _strip_levels(config: ExperimentConfig) -> tuple[Iet, tuple[suspension.StripLevel, ...]]:
    T = _make_iet(config)
    levels = config.levels if config.levels is not None else 2
    return T, suspension.strip_decomposition(T, levels, max_steps=config.max_steps)


def _cmd_strips(config: ExperimentConfig, out: Path) -> tuple[list[Row], int]:
    T, levels = _strip_levels(config)
    rows: list[Row] = []
    # each orbit point's two cells by exponent, formatted once; the right edge's by None
    cells: dict[int | None, tuple[str, ...]] = {}
    for level in levels:
        print(f"level {level.level}: K={level.K}")
        rows.append(_row("K", level.K, level.level))
        rows.append(_row("raw_K", level.raw_K, level.level))
        for marker in level.markers:
            rows.append(_row("marker_exponent", marker.exponent,
                             level.level, marker.delta, marker.i))
        for marker in level.primed_markers:
            rows.append(_row("primed_marker_exponent", marker.exponent,
                             level.level, marker.delta, marker.i))
        for strip in level.strips:
            rows.append(_row("height", strip.height, level.level, strip.index))
            for position, floor in enumerate(strip.floors, start=1):
                for kind, key, value in (
                        ("floor_left", floor.left_exponent, floor.left),
                        ("floor_right", floor.right_exponent or None, floor.right)):
                    cells[key] = cells.get(key) or _row(kind, value)[4:]
                    rows.append((kind, str(level.level), str(strip.index), str(position), *cells[key]))
        if level.incidence_to_previous is not None:
            rows += _matrix_rows("incidence_entry", level.incidence_to_previous, level.level)
    return rows, 0


def _cmd_towers(config: ExperimentConfig, out: Path) -> tuple[list[Row], int]:
    T = _make_iet(config)
    partition = ktheory.towers(T, _window_of(T, config), max_steps=config.max_steps)
    rows: list[Row] = []
    for tower in partition.towers:
        rows.append(_row("height", tower.height, i=tower.index))
        rows.append(_row("base_left", tower.base_left, i=tower.index))
        rows.append(_row("base_right", tower.base_right, i=tower.index))
        for position, (left, right) in enumerate(tower.floors, start=1):
            rows.append(_row("floor_left", left, "", tower.index, position))
            rows.append(_row("floor_right", right, "", tower.index, position))
    return rows, 0


def _cmd_bratteli(config: ExperimentConfig, out: Path) -> tuple[list[Row], int]:
    chain = _chain(config)
    diagram = ktheory.bratteli(chain, max_steps=config.max_steps)
    (out / "bratteli.dot").write_text(ktheory.export_bratteli(diagram), encoding="utf-8")
    rows: list[Row] = []
    for k, matrix in enumerate(diagram.edges):
        rows += _matrix_rows("edge_entry", matrix, k)
    return rows, 0


def _cmd_group(config: ExperimentConfig, out: Path) -> tuple[list[Row], int]:
    chain = _chain(config)
    group = ktheory.dimension_group(chain=chain)
    rows = [
        _row("source", group.source),
        _row("rank", group.n),
        _row("depth", group.depth),
    ]
    for k, matrix in enumerate(group.matrices):
        rows += _matrix_rows("matrix_entry", matrix, k)
    if config.levels is not None:
        T, levels = _strip_levels(config)
        strip_group = ktheory.dimension_group(strips=levels)
        rows.append(_row("source", strip_group.source))
        rows.append(_row("depth", strip_group.depth))
        for k, matrix in enumerate(strip_group.matrices):
            rows += _matrix_rows("strip_matrix_entry", matrix, k)
        rows += _matrix_rows("class_matrix_entry", ktheory.strip_class_matrix(T, levels[0]))
    return rows, 0


def _cmd_lsigma(config: ExperimentConfig, out: Path) -> tuple[list[Row], int]:
    result = ktheory.l_sigma(Permutation(_required(config, "sigma")))
    rows = _matrix_rows("entry", result.matrix)
    rows.append(_row("det", result.det))
    rows.append(_row("invertible", int(result.invertible)))
    return rows, 0


def _cmd_render(config: ExperimentConfig, out: Path) -> tuple[list[Row], int]:
    T, levels = _strip_levels(config)
    for level in levels:
        svg = render_strip_level(T, level)
        (out / f"strips_level{level.level}.svg").write_text(svg, encoding="utf-8")
    return [], 0


_HANDLERS: dict[str, Callable[[ExperimentConfig, Path], tuple[list[Row], int]]] = {
    "orbit": _cmd_orbit,
    "idoc": _cmd_idoc,
    "induce": _cmd_induce,
    "shrink": _cmd_shrink,
    "cone": _cmd_cone,
    "measure": _cmd_measure,
    "certify": _cmd_certify,
    "profile": _cmd_profile,
    "strips": _cmd_strips,
    "towers": _cmd_towers,
    "bratteli": _cmd_bratteli,
    "group": _cmd_group,
    "lsigma": _cmd_lsigma,
    "render": _cmd_render,
}

COMMANDS = tuple(_HANDLERS)


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="ietlab",
        description="Exact interval-exchange experiments driven by config files.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="path to a key=value config file")
    parser.add_argument("--out", default=".", help="output directory for artifacts")
    args = parser.parse_args(argv)
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        print(f"ietlab: cannot read config: {exc}", file=sys.stderr)
        return 2
    out = Path(args.out)
    try:
        config = parse_config(text)
        out.mkdir(parents=True, exist_ok=True)
        rows, code = _HANDLERS[args.command](config, out)
        if args.command != "render":
            lines = [",".join(CSV_HEADER)] + [",".join(row) for row in rows]
            (out / f"{args.command}.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    except ParseError as exc:
        print(f"ietlab: config error: {exc} (line {exc.line}, column {exc.column})",
              file=sys.stderr)
        return 4
    except IetlabError as exc:
        print(f"ietlab: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"ietlab: cannot write output: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
