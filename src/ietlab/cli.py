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
from typing import Callable, Sequence

from . import ktheory, measures, suspension
from .errors import IetlabError, ParseError
from .exactnum import QuadReal, format_quad, parse_quad, quad, quad_approx
from .iet import Iet, Permutation, idoc_check, iet_new
from .induction import (DEFAULT_MAX_STEPS, InductionStep, basic_interval, induce,
                        shrink_sequence)
from .intmat import det
from .render import render_strip_level

APPROX_DIGITS = 12

KNOWN_KEYS = (
    "d", "sigma", "alpha", "depth", "horizon", "epsilon", "max_steps",
    "y0", "side", "levels", "window_m", "window_n",
)

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
    epsilon: Fraction | None = None
    max_steps: int = DEFAULT_MAX_STEPS
    y0: QuadReal = quad(0)
    side: str | None = None
    levels: int | None = None
    window_m: int = 0
    window_n: int = 10000


def _split_lines(text: str) -> list[tuple[int, str, int]]:
    """Return (line number, value text, value column) per key, keyed in order."""
    entries: list[tuple[int, str, int]] = []
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError("expected key=value", line=number, column=1)
        entries.append((number, line, line.index("=")))
    return entries


def _parse_int(value: str, minimum: int, line: int, column: int) -> int:
    try:
        parsed = int(value)
    except ValueError:
        raise ParseError(f"invalid integer {value!r}", line=line, column=column) from None
    if parsed < minimum:
        raise ParseError(f"value {parsed} below minimum {minimum}", line=line, column=column)
    return parsed


def _parse_quad_at(value: str, d: int, line: int, column: int) -> QuadReal:
    try:
        return parse_quad(value, d)
    except ParseError as exc:
        raise ParseError(str(exc), line=line, column=column) from None


def parse_config(text: str) -> ExperimentConfig:
    """Parse the line-oriented config grammar, rejecting unknown and duplicate keys."""
    seen: dict[str, tuple[str, int, int]] = {}
    for number, line, eq in _split_lines(text):
        key = line[:eq].strip()
        rest = line[eq + 1 :]
        value = rest.strip()
        column = eq + 2 + (len(rest) - len(rest.lstrip()))
        if key not in KNOWN_KEYS:
            raise ParseError(f"unknown key {key!r}", line=number, column=1)
        if key in seen:
            raise ParseError(f"duplicate key {key!r}", line=number, column=1)
        seen[key] = (value, number, column)

    fields: dict[str, object] = {}
    d = 0
    if "d" in seen:
        value, number, column = seen["d"]
        d = _parse_int(value, 0, number, column)
        if d > MAX_RADICAND:
            raise ParseError(f"radicand {d} above maximum {MAX_RADICAND}",
                             line=number, column=column)
        fields["d"] = d
    if "sigma" in seen:
        value, number, column = seen["sigma"]
        try:
            fields["sigma"] = tuple(int(part) for part in value.split())
        except ValueError:
            raise ParseError(f"invalid permutation {value!r}", line=number, column=column) from None
    if "alpha" in seen:
        value, number, column = seen["alpha"]
        lengths = []
        offset = 0
        for part in value.split(","):
            stripped = part.strip()
            start = column + offset + (len(part) - len(part.lstrip()))
            lengths.append(_parse_quad_at(stripped, d, number, start))
            offset += len(part) + 1
        fields["alpha"] = tuple(lengths)
    for key, minimum in (("depth", 1), ("horizon", 1), ("max_steps", 1),
                         ("levels", 1), ("window_m", 0), ("window_n", 1)):
        if key in seen:
            value, number, column = seen[key]
            fields[key] = _parse_int(value, minimum, number, column)
    if "epsilon" in seen:
        value, number, column = seen["epsilon"]
        parsed = _parse_quad_at(value, 0, number, column)
        if not parsed.is_rational:
            raise ParseError("epsilon must be rational", line=number, column=column)
        fields["epsilon"] = parsed.as_fraction()
    if "y0" in seen:
        value, number, column = seen["y0"]
        fields["y0"] = _parse_quad_at(value, d, number, column)
    if "side" in seen:
        value, number, column = seen["side"]
        if value not in ("left", "right"):
            raise ParseError(f"side must be left or right, not {value!r}", line=number, column=column)
        fields["side"] = value
    return ExperimentConfig(**fields)  # type: ignore[arg-type]


def _require(config: ExperimentConfig, key: str) -> None:
    if getattr(config, key) is None:
        raise ParseError(f"missing required key {key!r}", line=0, column=0)


def _make_iet(config: ExperimentConfig) -> Iet:
    _require(config, "sigma")
    _require(config, "alpha")
    assert config.sigma is not None and config.alpha is not None
    return iet_new(Permutation(config.sigma), list(config.alpha))


def _make_sigma(config: ExperimentConfig) -> Permutation:
    _require(config, "sigma")
    assert config.sigma is not None
    return Permutation(config.sigma)


Row = tuple[str, str, str, str, str, str]


def _q(x: QuadReal | Fraction) -> tuple[str, str]:
    return format_quad(x), quad_approx(x, APPROX_DIGITS)


def _row(kind: str, k: object = "", i: object = "", j: object = "",
         pair: tuple[str, str] = ("", "")) -> Row:
    return (kind, str(k), str(i), str(j), pair[0], pair[1])


def _int_row(kind: str, value: int, k: object = "", i: object = "", j: object = "") -> Row:
    return _row(kind, k, i, j, (str(value), str(value)))


def _text_row(kind: str, value: str, k: object = "", i: object = "") -> Row:
    return (kind, str(k), str(i), "", value, "")


def _matrix_rows(kind: str, matrix, k: object = "") -> list[Row]:
    return [
        _int_row(kind, matrix[i][j], k, i + 1, j + 1)
        for i in range(len(matrix))
        for j in range(len(matrix[0]))
    ]


def _cmd_orbit(config: ExperimentConfig, out: Path) -> tuple[list[Row], int]:
    T = _make_iet(config)
    orbit = islice(T.walk(config.y0), config.depth + 1)
    return [_row("orbit_point", k, i, "", _q(x)) for k, (i, x) in enumerate(orbit)], 0


def _cmd_idoc(config: ExperimentConfig, out: Path) -> tuple[list[Row], int]:
    T = _make_iet(config)
    result = idoc_check(T, config.depth)
    rows = [_int_row("verified", int(result.verified)), _int_row("depth", result.depth)]
    if result.witness is not None:
        (i1, k1), (i2, k2) = result.witness
        rows.append(_int_row("witness_first", k1, i=i1))
        rows.append(_int_row("witness_second", k2, i=i2))
    if result.reason:
        rows.append(_text_row("reason", result.reason))
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
        _row("window_left", pair=_q(step.J.left)),
        _row("window_right", pair=_q(step.J.right)),
        _int_row("det", det(step.A)),
    ]
    rows += _matrix_rows("matrix_entry", step.A)
    rows += [_int_row("return_time", r, i=l + 1) for l, r in enumerate(step.return_times)]
    rows += [_int_row("sigma_prime", img, i=l + 1)
             for l, img in enumerate(step.induced.sigma.images)]
    for i in range(T.n):
        residual = T.alpha[i] - sum(
            (step.induced.alpha[j] * step.A[i][j] for j in range(T.n)), quad(0)
        )
        rows.append(_row("alpha_residual", "", i + 1, "", _q(residual)))
    return rows, 0


def _cmd_shrink(config: ExperimentConfig, out: Path) -> tuple[list[Row], int]:
    chain = _chain(config)
    rows: list[Row] = []
    for k, step in enumerate(chain):
        rows.append(_row("window_left", k, pair=_q(step.origin)))
        rows.append(_row("window_right", k, pair=_q(step.origin + step.induced.total)))
        rows += _matrix_rows("matrix_entry", step.A, k)
        rows += [_int_row("return_time", r, k, l + 1) for l, r in enumerate(step.return_times)]
    return rows, 0


def _cmd_cone(config: ExperimentConfig, out: Path) -> tuple[list[Row], int]:
    chain = _chain(config)
    epsilon = config.epsilon if config.epsilon is not None else measures.DEFAULT_CLUSTER_EPSILON
    cone = measures.cone_approx(chain, epsilon)
    rows = [_int_row("depth", cone.depth), _int_row("nu_estimate", cone.nu_estimate)]
    rows += _matrix_rows("product_entry", cone.product)
    for r, ray in enumerate(cone.rays):
        rows += [_row("ray_entry", "", r + 1, c + 1, _q(value)) for c, value in enumerate(ray)]
    for c, members in enumerate(cone.clusters):
        rows += [_int_row("cluster_member", member + 1, i=c + 1) for member in members]
    return rows, 0


def _cmd_measure(config: ExperimentConfig, out: Path) -> tuple[list[Row], int]:
    T = _make_iet(config)
    vector = measures.empirical_measure(T, config.y0, config.window_m, config.window_n)
    rows = [_row("raw", "", i + 1, "", _q(value)) for i, value in enumerate(vector.raw)]
    rows += [_row("normalized", "", i + 1, "", _q(value))
             for i, value in enumerate(vector.normalized)]
    return rows, 0


def _cmd_certify(config: ExperimentConfig, out: Path) -> tuple[list[Row], int]:
    chain = _chain(config)
    certificate = measures.unique_ergodicity_certificate(chain, config.horizon)
    rows = [
        _int_row("certified", int(certificate.certified)),
        _int_row("required_blocks", certificate.required_blocks),
    ]
    for index, (start, end) in enumerate(certificate.block_ranges, start=1):
        rows.append(_int_row("block_start", start, i=index))
        rows.append(_int_row("block_end", end, i=index))
    return rows, 0 if certificate.certified else 3


def _cmd_profile(config: ExperimentConfig, out: Path) -> tuple[list[Row], int]:
    profile = suspension.singularity_profile(_make_sigma(config))
    rows = [_int_row("sigma0", image, i=j) for j, image in enumerate(profile.sigma0)]
    rows.append(_int_row("N", profile.N))
    for c, cycle in enumerate(profile.cycles, start=1):
        rows += [_int_row("cycle_member", member, c, position + 1)
                 for position, member in enumerate(cycle)]
    for s, singularity in enumerate(profile.singularities, start=1):
        rows.append(_int_row("adjusted_length", singularity.adjusted_length, i=s))
        rows.append(_int_row("multiplicity", singularity.multiplicity, i=s))
        rows.append(_int_row("prongs", singularity.prongs, i=s))
    for c, cycle in enumerate(profile.dropped_cycles, start=1):
        rows += [_int_row("dropped_cycle_member", member, c, position + 1)
                 for position, member in enumerate(cycle)]
    if profile.genus is not None:
        rows.append(_int_row("genus", profile.genus))
    rows.append(_int_row("closed_transversal", int(profile.closed_transversal)))
    rows += [_int_row("fake_saddle", j, i=index)
             for index, j in enumerate(profile.fake_saddles, start=1)]
    rows.append(_int_row("endpoints_share_cycle", int(profile.endpoints_share_cycle)))
    return rows, 0


def _strip_levels(config: ExperimentConfig) -> tuple[Iet, tuple[suspension.StripLevel, ...]]:
    T = _make_iet(config)
    levels = config.levels if config.levels is not None else 2
    return T, suspension.strip_decomposition(T, levels, max_steps=config.max_steps)


def _cmd_strips(config: ExperimentConfig, out: Path) -> tuple[list[Row], int]:
    T, levels = _strip_levels(config)
    rows: list[Row] = []
    for level in levels:
        print(f"level {level.level}: K={level.K}")
        rows.append(_int_row("K", level.K, level.level))
        rows.append(_int_row("raw_K", level.raw_K, level.level))
        for marker in level.markers:
            rows.append(_int_row("marker_exponent", marker.exponent,
                                 level.level, marker.delta, marker.i))
        for marker in level.primed_markers:
            rows.append(_int_row("primed_marker_exponent", marker.exponent,
                                 level.level, marker.delta, marker.i))
        for strip in level.strips:
            rows.append(_int_row("height", strip.height, level.level, strip.index))
            for position, floor in enumerate(strip.floors, start=1):
                rows.append(_row("floor_left", level.level, strip.index, position,
                                 _q(floor.left)))
                rows.append(_row("floor_right", level.level, strip.index, position,
                                 _q(floor.right)))
        if level.incidence_to_previous is not None:
            rows += _matrix_rows("incidence_entry", level.incidence_to_previous, level.level)
    return rows, 0


def _cmd_towers(config: ExperimentConfig, out: Path) -> tuple[list[Row], int]:
    T = _make_iet(config)
    partition = ktheory.towers(T, _window_of(T, config), max_steps=config.max_steps)
    rows: list[Row] = []
    for tower in partition.towers:
        rows.append(_int_row("height", tower.height, i=tower.index))
        rows.append(_row("base_left", "", tower.index, "", _q(tower.base_left)))
        rows.append(_row("base_right", "", tower.index, "", _q(tower.base_right)))
        for position, (left, right) in enumerate(tower.floors, start=1):
            rows.append(_row("floor_left", "", tower.index, position, _q(left)))
            rows.append(_row("floor_right", "", tower.index, position, _q(right)))
    return rows, 0


def _cmd_bratteli(config: ExperimentConfig, out: Path) -> tuple[list[Row], int]:
    chain = _chain(config)
    diagram = ktheory.bratteli(chain, max_steps=config.max_steps)
    (out / "bratteli.dot").write_text(ktheory.export_bratteli(diagram))
    rows: list[Row] = []
    for k, matrix in enumerate(diagram.edges):
        rows += _matrix_rows("edge_entry", matrix, k)
    return rows, 0


def _cmd_group(config: ExperimentConfig, out: Path) -> tuple[list[Row], int]:
    chain = _chain(config)
    group = ktheory.dimension_group(chain=chain)
    rows = [
        _text_row("source", group.source),
        _int_row("rank", group.n),
        _int_row("depth", group.depth),
    ]
    for k, matrix in enumerate(group.matrices):
        rows += _matrix_rows("matrix_entry", matrix, k)
    if config.levels is not None:
        T, levels = _strip_levels(config)
        strip_group = ktheory.dimension_group(strips=levels)
        rows.append(_text_row("source", strip_group.source))
        rows.append(_int_row("depth", strip_group.depth))
        for k, matrix in enumerate(strip_group.matrices):
            rows += _matrix_rows("strip_matrix_entry", matrix, k)
        rows += _matrix_rows("class_matrix_entry", ktheory.strip_class_matrix(T, levels[0]))
    return rows, 0


def _cmd_lsigma(config: ExperimentConfig, out: Path) -> tuple[list[Row], int]:
    result = ktheory.l_sigma(_make_sigma(config))
    rows = _matrix_rows("entry", result.matrix)
    rows.append(_int_row("det", result.det))
    rows.append(_int_row("invertible", int(result.invertible)))
    return rows, 0


def _cmd_render(config: ExperimentConfig, out: Path) -> tuple[list[Row], int]:
    T, levels = _strip_levels(config)
    for level in levels:
        (out / f"strips_level{level.level}.svg").write_text(render_strip_level(T, level))
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


def _write_csv(path: Path, rows: list[Row]) -> None:
    lines = [",".join(CSV_HEADER)] + [",".join(row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


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
        text = Path(args.config).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"ietlab: cannot read config: {exc}", file=sys.stderr)
        return 2
    out = Path(args.out)
    try:
        config = parse_config(text)
        out.mkdir(parents=True, exist_ok=True)
        rows, code = _HANDLERS[args.command](config, out)
        if args.command != "render":
            _write_csv(out / f"{args.command}.csv", rows)
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
