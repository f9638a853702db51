"""Seeded request generation and the golden reports they are checked against.

Requests are plain ``lab`` argument lists, built here and handed to the
worker, so the program under test only ever sees generated inputs.  The
same seed always yields byte-identical request lists.

Golden reports were captured from the unmodified program by
``capture.py``; ``golden/manifest.json`` maps every request key to the
expected exit code and the SHA-256 of the expected report bytes.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
GOLDEN_DIR = BENCH_DIR / "golden"
MANIFEST = GOLDEN_DIR / "manifest.json"

# omega-n3 draws its elements from a fixed pool so that every element the
# benchmark can send has a captured golden report; a seed picks the stream.
OMEGA_N = 3
OMEGA_POOL = 1024
OMEGA_BATCH = 40  # requests per pass; every fourth one is rational

SWEEP = (
    [("polynomial-n1-D%d" % d, ["--model", "polynomial", "--n", "1", "--cutoff", str(d)])
     for d in (10, 12, 14, 16)]
    + [("polynomial-n2-D4", ["--model", "polynomial", "--n", "2", "--cutoff", "4"])]
    + [("suspension-N%d" % c, ["--model", "suspension", "--cutoff", str(c),
                               "--theories", "dr,dpl,ddl,hodge"])
       for c in (16, 32, 64)]
    + [("torus-n%d" % n, ["--model", "torus", "--n", str(n),
                          "--theories", "dr,dpl,ddl,hodge"])
       for n in (2, 3)]
)


def omega_coords(index: int) -> list[Fraction]:
    """Coordinates of pool element ``index`` in the block basis of sp(6).

    Entries are integers in [-9, 9]; every element whose index is 3 mod 4
    has rational entries with denominators at most 9 instead.
    """
    rng = random.Random(index)
    dim = 2 * OMEGA_N * OMEGA_N + OMEGA_N
    if index % 4 == 3:
        return [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(dim)]
    return [Fraction(rng.randint(-9, 9)) for _ in range(dim)]


def omega_element_json(index: int) -> str:
    """The 2n x 2n matrix [[A, B], [C, -A^t]] of a pool element as JSON."""
    n = OMEGA_N
    coords = iter(omega_coords(index))
    x = [[Fraction(0)] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        for j in range(n):
            a = next(coords)
            x[i][j] = a
            x[n + j][n + i] = -a
    for off_row, off_col in ((0, n), (n, 0)):  # symmetric B, then symmetric C
        for i in range(n):
            for j in range(i, n):
                b = next(coords)
                x[off_row + i][off_col + j] = b
                x[off_row + j][off_col + i] = b
    return json.dumps([[str(v) for v in row] for row in x], separators=(",", ":"))


def omega_key(index: int) -> str:
    return f"omega-n3/{index:04d}"


def omega_request(index: int) -> dict:
    argv = ["omega", "--n", str(OMEGA_N), "--element", omega_element_json(index)]
    return {"key": omega_key(index), "argv": argv}


def omega_stream(seed: int, count: int) -> list[dict]:
    """The first ``count`` requests of the seeded omega-n3 stream."""
    rng = random.Random(seed)
    out = []
    for j in range(count):
        block = rng.randrange(OMEGA_POOL // 4)
        lane = 3 if j % 4 == 3 else rng.randrange(3)
        out.append(omega_request(4 * block + lane))
    return out


def sweep_key(name: str) -> str:
    return f"cohomology/{name}"


def sweep_request(name: str, flags: list[str]) -> dict:
    return {"key": sweep_key(name), "argv": ["cohomology", *flags, "--format", "csv"]}


def sweep_order(seed: int) -> list[dict]:
    """Every sweep model once, in seeded order."""
    items = list(SWEEP)
    random.Random(seed).shuffle(items)
    return [sweep_request(name, flags) for name, flags in items]


def suite_request(seed: int, report_path: str) -> dict:
    """``lab suite`` with its JSON report written to ``report_path``.

    The report holds verdicts and computed summaries only, no timings and
    no seed, so one golden report serves every seed.
    """
    return {"key": "suite", "argv": ["suite", "--seed", str(seed), "--output", report_path],
            "report": report_path}


def load_manifest() -> dict[str, list]:
    """Request key -> [expected exit code, SHA-256 of the expected report]."""
    return json.loads(MANIFEST.read_text())["reports"]
