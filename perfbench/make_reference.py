"""Build the stored input pools and their reference outputs.

    python3 perfbench/make_reference.py [--workload NAME]

Generates each workload's pool of inputs from fixed generator seeds, runs
every input through the workload's job on the code in ``src/``, and writes
``perfbench/reference/<workload>.json.gz`` with the input text, the outcome
(``ok`` or the class of the domain error raised), the canonical output and
the cost band.  Bands split the pool into groups of similar cost on the
machine that built it.

The references are the seed code's outputs.  Regenerating them on changed
code would hide any change in output, so rebuild them only together with a
change to the benchmark itself.
"""

from __future__ import annotations

import argparse
import gzip
import json
import platform
import random
import shutil
import sys
import time
from fractions import Fraction
from math import isqrt
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import ietlab  # noqa: E402
import ietlab.cli  # noqa: E402
from workloads import REFERENCE_DIR, WORKLOADS, Entry  # noqa: E402

POOL_SIZE = 120
COST_BANDS = 15

CLI_CONFIGS = {
    "sqrt2": (2, "2 1", "-1/1+1/1r, 2/1-1/1r", Fraction(1)),
    "golden": (5, "2 1", "-1/2+1/2r, 3/2-1/2r", Fraction(1)),
    "quad4": (2, "3 1 4 2", "-1/1+1/1r, 1/2, 2/1-1/1r, 1/3", Fraction(11, 6)),
}
CLI_LEVELS = 8
CLI_DEPTH = 5
CLI_VARIANTS = 6
CHAIN_RADICANDS = (2, 3, 5, 6, 7, 11, 13)
SMALL_RADICANDS = (2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 19, 21, 22, 23, 26, 29, 30)


def square_free(n: int) -> bool:
    return all(n % (f * f) for f in range(2, isqrt(n) + 1))


def rotation(d: int) -> tuple[str, str]:
    """sigma and alpha of the rotation by the fractional part of sqrt(d), golden for d = 5."""
    theta = (ietlab.radical(5) - 1) / 2 if d == 5 else ietlab.radical(d) - isqrt(d)
    return "2 1", f"{ietlab.format_quad(theta)}, {ietlab.format_quad(1 - theta)}"


def chain_inputs() -> list[dict]:
    inputs = []
    for i in range(POOL_SIZE):
        rng = random.Random(f"chain-recount:{i}")
        d = rng.choice(CHAIN_RADICANDS)
        sigma, alpha = rotation(d)
        if rng.random() < 1 / 6:
            y0 = Fraction(0)
        else:
            den = rng.randint(2, 16)
            y0 = Fraction(rng.randint(1, den - 1), den)
        inputs.append({"d": str(d), "sigma": sigma, "alpha": alpha,
                       "y0": ietlab.format_quad(ietlab.quad(y0)),
                       "depth": rng.randint(6, 9), "blocks": rng.randint(1, 3)})
    return inputs


def random_iet(rng: random.Random, n: int, d: int):
    """Random irreducible IET over Q(sqrt(d)) with IDOC checked to depth 200."""
    scale = isqrt(d)
    while True:
        images = list(range(1, n + 1))
        rng.shuffle(images)
        sigma = ietlab.Permutation(tuple(images))
        if not ietlab.irreducible(sigma):
            continue
        lengths = []
        while len(lengths) < n:
            a = Fraction(rng.randint(1, 12), rng.randint(1, 12))
            b = Fraction(rng.randint(-4, 4), rng.randint(1, 12) * scale)
            value = ietlab.quad(a, b, d)
            if value > 0:
                lengths.append(value)
        T = ietlab.iet_new(sigma, lengths)
        if ietlab.idoc_check(T, 200).verified:
            return T


def induce_inputs() -> list[dict]:
    inputs = []
    for i in range(POOL_SIZE):
        rng = random.Random(f"random-induce:{i}")
        n = rng.randint(3, 6)
        # One entry in six has a five- to seven-digit radicand; every exact
        # operation then costs 10-30 times more, so those jobs are kept short.
        if i % 6 == 5:
            d = rng.randrange(10 ** 4, 10 ** 6)
            while not square_free(d):
                d += 1
            depth, window = 2, rng.choice((25, 50, 75))
        else:
            d = rng.choice(SMALL_RADICANDS)
            depth, window = rng.randint(2, 4), rng.choice((50, 100, 150, 200))
        T = random_iet(rng, n, d)
        y0 = T.total * Fraction(rng.randint(1, 63), 64)
        inputs.append({"d": str(d), "sigma": " ".join(map(str, T.sigma.images)),
                       "alpha": ", ".join(ietlab.format_quad(a) for a in T.alpha),
                       "basic": rng.randrange(n), "y0": ietlab.format_quad(y0),
                       "depth": depth, "window": window, "max_steps": 500})
    return inputs


def cli_inputs() -> list[tuple[int, dict]]:
    """(band, input) pairs; the band is the (config, command) pair."""
    out = []
    for c, (name, (d, sigma, alpha, total)) in enumerate(CLI_CONFIGS.items()):
        for v in range(CLI_VARIANTS):
            rng = random.Random(f"cli-suite:{name}:{v}")
            den = rng.randint(2, 16)
            y0 = total * Fraction(rng.randint(1, den - 1), den)
            text = "".join(f"{key} = {value}\n" for key, value in (
                ("d", d), ("sigma", sigma), ("alpha", alpha), ("depth", CLI_DEPTH),
                ("levels", CLI_LEVELS), ("y0", f"{y0.numerator}/{y0.denominator}"),
                ("window_m", rng.randint(0, 50)), ("window_n", rng.choice((200, 300, 400))),
                ("horizon", rng.randint(1, 2)),
                ("epsilon", rng.choice(("1/1000000", "1/1000"))),
            ))
            for k, command in enumerate(ietlab.cli.COMMANDS):
                out.append((c * len(ietlab.cli.COMMANDS) + k,
                            {"config": name, "variant": v, "command": command, "text": text}))
    return out


def build(name: str) -> None:
    workload = WORKLOADS[name]
    workdir = HERE.parent / ".perfbench_work" / "reference"
    if name == "cli-suite":
        banded = cli_inputs()
    else:
        banded = [(0, inp) for inp in (chain_inputs() if name == "chain-recount"
                                       else induce_inputs())]
    pool = [Entry(i, band, inp, "", None) for i, (band, inp) in enumerate(banded)]
    workload.prepare(ietlab, pool, workdir)
    rows = []
    for entry in pool:
        runs = [workload.job(ietlab, entry, workdir) for _ in range(2)]
        if runs[0].outcome != runs[1].outcome or runs[0].output != runs[1].output:
            raise SystemExit(f"{name} entry {entry.id} is not deterministic")
        seconds = min(r.seconds for r in runs)
        rows.append({"id": entry.id, "band": entry.band, "input": entry.input,
                     "outcome": runs[0].outcome, "output": runs[0].output,
                     "ref_ms": round(seconds * 1000, 3)})
        print(f"{name} {entry.id} {runs[0].outcome} {seconds * 1000:.1f} ms", flush=True)
    if name != "cli-suite":
        per_band = len(rows) // COST_BANDS
        for rank, row in enumerate(sorted(rows, key=lambda r: r["ref_ms"])):
            row["band"] = rank // per_band
    document = {
        "workload": name,
        "built_with": {"python": platform.python_version(), "machine": platform.machine()},
        "entries": rows,
    }
    REFERENCE_DIR.mkdir(exist_ok=True)
    path = REFERENCE_DIR / f"{name}.json.gz"
    with gzip.GzipFile(path, "wb", mtime=0) as raw:
        raw.write(json.dumps(document, indent=1, sort_keys=True).encode())
    shutil.rmtree(workdir, ignore_errors=True)
    print(f"wrote {path} ({path.stat().st_size} bytes)")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), action="append")
    args = parser.parse_args()
    for name in args.workload or sorted(WORKLOADS):
        start = time.perf_counter()
        build(name)
        print(f"{name}: {time.perf_counter() - start:.0f} s")


if __name__ == "__main__":
    main()
