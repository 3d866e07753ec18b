"""The three benchmark workloads: stored input pools, set-up validation, jobs and their checks.

Every workload draws its inputs from a stored pool under ``reference/``.
Each pool entry holds the input as exact text and the output the seed code
gave for it: canonical exact text for library jobs, sha256 digests plus the
exit code for CLI jobs, or the class name of the domain error the input
raised.  ``make_reference.py`` built the pools.  The pool is cut into bands
of similar cost; one round of a run takes one seeded entry from every band
in a seeded order, so every round has the same mix of cheap and dear jobs
while the inputs themselves change with the seed.

Library functions are always looked up on the module at call time, so the
wrappers of a traced run see every call.
"""

from __future__ import annotations

import contextlib
import gzip
import hashlib
import io
import json
import random
import re
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
# IDOC depth used to validate every pool entry during set-up.
SETUP_IDOC_DEPTH = 10


@dataclass(frozen=True)
class Entry:
    """One pool entry: exact-text input, its band and its expected outcome."""

    id: int
    band: int
    input: dict
    outcome: str
    output: object


@dataclass
class Observed:
    """What one job did: its wall time and what it produced."""

    seconds: float
    outcome: str
    output: object
    bytes_written: int = 0
    exact: str = ""

    def matches(self, entry: Entry) -> bool:
        return self.outcome == entry.outcome and (
            self.outcome != "ok" or self.output == entry.output)


def load_pool(workload: str) -> list[Entry]:
    with gzip.open(REFERENCE_DIR / f"{workload}.json.gz", "rt") as stream:
        data = json.load(stream)
    return [Entry(e["id"], e["band"], e["input"], e["outcome"], e["output"])
            for e in data["entries"]]


def bands_of(pool: list[Entry]) -> list[list[Entry]]:
    bands: dict[int, list[Entry]] = {}
    for entry in pool:
        bands.setdefault(entry.band, []).append(entry)
    return [bands[b] for b in sorted(bands)]


class Rounds:
    """Seeded rounds: one entry from every band per round, in a seeded order.

    Each band is walked through a seeded permutation, so a run takes
    different entries of a band before it repeats one; that keeps the cost
    of a run close to the pool's, whichever entries the seed picks.
    """

    def __init__(self, workload: str, seed: int, pool: list[Entry]) -> None:
        self._rng = random.Random(f"{workload}/{seed}")
        self._orders = [self._rng.sample(band, len(band)) for band in bands_of(pool)]
        self._drawn: list[list[Entry]] = []

    def __getitem__(self, r: int) -> list[Entry]:
        while len(self._drawn) <= r:
            k = len(self._drawn)
            picks = [order[k % len(order)] for order in self._orders]
            self._rng.shuffle(picks)
            self._drawn.append(picks)
        return self._drawn[r]


# -- canonical text -------------------------------------------------------


def _mat(m) -> str:
    return "[" + "; ".join(" ".join(str(v) for v in row) for row in m) + "]"


def _ints(values) -> str:
    return " ".join(str(v) for v in values)


def _fracs(values) -> str:
    return " ".join(f"{v.numerator}/{v.denominator}" for v in values)


def _step_text(lib, k: int, step) -> list[str]:
    fq = lib.format_quad
    return [
        f"step {k} origin {fq(step.origin)} window {fq(step.J.left)} {fq(step.J.right)}",
        f"  A {_mat(step.A)} return {_ints(step.return_times)}",
        f"  sigma' {_ints(step.induced.sigma.images)}",
        f"  alpha' {', '.join(fq(a) for a in step.induced.alpha)}",
    ]


def _chain_text(lib, chain) -> list[str]:
    lines = []
    for k, step in enumerate(chain):
        lines += _step_text(lib, k, step)
    return lines


def _iet_from(lib, inp: dict):
    d = int(inp["d"])
    sigma = lib.Permutation(tuple(int(v) for v in inp["sigma"].split()))
    alpha = [lib.parse_quad(part.strip(), d) for part in inp["alpha"].split(",")]
    return lib.iet_new(sigma, alpha), d


_INT = re.compile(r"\d+")


def max_bits(text: str) -> int:
    """Largest bit length of any integer written in an exact text."""
    return max((int(m).bit_length() for m in _INT.findall(text)), default=0)


def _timed(fn):
    """Run fn, returning (seconds, outcome, result); domain errors become outcomes."""
    start = time.perf_counter()
    try:
        result = fn()
    except Exception as exc:  # the job boundary: any raise is compared with the reference
        return time.perf_counter() - start, type(exc).__name__, None
    return time.perf_counter() - start, "ok", result


# -- workloads ------------------------------------------------------------


class _MapWorkload:
    """A workload whose pool entries each carry one map as exact text."""

    def prepare(self, lib, pool: list[Entry], workdir: Path) -> None:
        """Parse every pool entry and check its map for IDOC (which covers irreducibility)."""
        for entry in pool:
            T, d = _iet_from(lib, entry.input)
            lib.parse_quad(entry.input["y0"], d)
            if not lib.idoc_check(T, SETUP_IDOC_DEPTH).verified:
                raise ValueError(f"pool entry {entry.id} fails IDOC")


class ChainRecount(_MapWorkload):
    """2-interval rotations over small square-free d (sqrt2 and golden among them).

    One job: ``shrink_sequence`` to depth 6-9 from a seeded y0, then
    ``bratteli``, ``cone_approx``, ``unique_ergodicity_certificate`` and
    ``dimension_group`` on that chain.  The bratteli recount walks every
    tower base under the original map, so its cost grows with depth; both
    depth and y0 vary because both move it.
    """

    name = "chain-recount"

    def job(self, lib, entry: Entry, workdir: Path) -> Observed:
        inp = entry.input

        def pipeline():
            T, d = _iet_from(lib, inp)
            chain = lib.shrink_sequence(T, lib.parse_quad(inp["y0"], d), inp["depth"])
            return (chain, lib.bratteli(chain), lib.cone_approx(chain),
                    lib.unique_ergodicity_certificate(chain, inp["blocks"]),
                    lib.dimension_group(chain=chain))

        seconds, outcome, result = _timed(pipeline)
        if outcome != "ok":
            return Observed(seconds, outcome, None)
        chain, diagram, cone, certificate, group = result
        lines = _chain_text(lib, chain)
        lines.append(f"bratteli levels {len(diagram.levels)} edges "
                     + " ".join(_mat(m) for m in diagram.edges))
        lines.append(f"cone depth {cone.depth} product {_mat(cone.product)} nu {cone.nu_estimate}")
        lines += [f"  ray {_fracs(ray)}" for ray in cone.rays]
        lines.append(f"  clusters {' | '.join(_ints(c) for c in cone.clusters)}")
        lines.append(f"certificate {int(certificate.certified)} required "
                     f"{certificate.required_blocks} ranges "
                     + " ".join(f"{a}-{b}" for a, b in certificate.block_ranges))
        lines.append(f"group {group.source} rank {group.n} depth {group.depth}")
        text = "\n".join(lines)
        return Observed(seconds, "ok", text, exact=text)


class RandomInduce(_MapWorkload):
    """Random irreducible IETs with 3-6 intervals; one in six has a 5-7 digit radicand.

    One job: ``induce`` on a basic interval, a ``shrink_sequence`` of depth
    2-4 and a short ``empirical_measure`` window, with a step budget of
    2000 per search.  This exercises the backward division-point search
    and the per-operation radicand normalisation, which makes the large-d
    jobs the tail.  No ktheory, suspension or rendering.
    """

    name = "random-induce"

    def job(self, lib, entry: Entry, workdir: Path) -> Observed:
        inp = entry.input

        def pipeline():
            T, d = _iet_from(lib, inp)
            y0 = lib.parse_quad(inp["y0"], d)
            step = lib.induce(T, lib.basic_interval(T, inp["basic"]), max_steps=inp["max_steps"])
            chain = lib.shrink_sequence(T, y0, inp["depth"], max_steps=inp["max_steps"])
            return step, chain, lib.empirical_measure(T, y0, 0, inp["window"])

        seconds, outcome, result = _timed(pipeline)
        if outcome != "ok":
            return Observed(seconds, outcome, None)
        step, chain, measure = result
        lines = ["induce"] + _step_text(lib, 0, step) + ["chain"] + _chain_text(lib, chain)
        lines.append(f"measure raw {_fracs(measure.raw)}")
        lines.append(f"measure normalized {_fracs(measure.normalized)}")
        text = "\n".join(lines)
        return Observed(seconds, "ok", text, exact=text)


class CliSuite:
    """All 14 commands through ``ietlab.cli.main`` on three fixed maps, one command per job.

    The maps are sqrt2, golden and the 4-interval closed-transversal map
    ``sigma = 3 1 4 2``; strip levels are 8, depth is 5 and the seeded
    window stays small, so the weight sits in suspension, rendering and
    decimal formatting rather than in the map walks.  Every artifact is checked by
    sha256, with the exit code and the printed output.
    """

    name = "cli-suite"

    def _config_path(self, workdir: Path, entry: Entry) -> Path:
        return workdir / "configs" / f"{entry.input['config']}-{entry.input['variant']}.cfg"

    def prepare(self, lib, pool: list[Entry], workdir: Path) -> None:
        """Write every config file once, parse it and check its map for IDOC."""
        (workdir / "configs").mkdir(parents=True, exist_ok=True)
        written = set()
        for entry in pool:
            path = self._config_path(workdir, entry)
            if path in written:
                continue
            written.add(path)
            path.write_text(entry.input["text"])
            config = lib.cli.parse_config(entry.input["text"])
            T = lib.iet_new(lib.Permutation(config.sigma), list(config.alpha))
            if not lib.idoc_check(T, SETUP_IDOC_DEPTH).verified:
                raise ValueError(f"config {path.name} fails IDOC")

    def job(self, lib, entry: Entry, workdir: Path) -> Observed:
        out = workdir / "out"
        shutil.rmtree(out, ignore_errors=True)
        argv = [entry.input["command"], "--config", str(self._config_path(workdir, entry)),
                "--out", str(out)]
        printed, errors = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(printed), contextlib.redirect_stderr(errors):
            seconds, outcome, code = _timed(lambda: lib.cli.main(argv))
        if outcome != "ok":
            return Observed(seconds, outcome, None)
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.exists() else {}
        output = {
            "exit": code,
            "stdout": hashlib.sha256(printed.getvalue().encode()).hexdigest(),
            "files": {name: hashlib.sha256(data).hexdigest() for name, data in files.items()},
        }
        exact = "\n".join(line.split(",")[4] for name, data in files.items()
                          if name.endswith(".csv") for line in data.decode().splitlines()[1:])
        return Observed(seconds, "ok", output, sum(len(d) for d in files.values()), exact)


WORKLOADS = {w.name: w for w in (ChainRecount(), RandomInduce(), CliSuite())}


def large_d(entry: Entry) -> bool:
    """True when the entry's radicand has five digits or more."""
    if "d" in entry.input:
        return int(entry.input["d"]) >= 10 ** 4
    match = re.search(r"^d\s*=\s*(\d+)", entry.input["text"], re.M)
    return bool(match) and int(match.group(1)) >= 10 ** 4
