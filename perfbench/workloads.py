"""The three workloads: seeded inputs, one timed pass each, and the verdict gate.

A pass runs every item of a workload once and times only the calls into
the library; the checks on the outputs run after each timed region.  An item
fails when a call raises, when an independent check in this file disagrees
with the library, or when the digest of the pass misses the one recorded for
the seed in `digests.json`; a digest miss fails every item of the pass,
because it cannot say which one moved.  Seeds without a recorded digest are
gated by the independent checks alone.

The library is reached through module attributes (`macaulay.upper_macaulay`,
never a name bound at import), so a tracer installed before the pass sees
every call.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from nlgotz import cli, graded, macaulay, verify
from nlgotz.monomials import monomials

WORKLOADS = ("verify-all", "expansions", "subspaces")

DIGESTS = Path(__file__).with_name("digests.json")

# expansions: pairs per pass, timed in fixed batches
EXPANSION_PAIRS = 48_000
EXPANSION_BATCH = 64
EXPANSION_DMAX = 12

# subspaces: (N, twists, degree, codim) of the random instances, ambient dim
# 105..453, codim 1..8.  The instances are the same for every seed, which
# draws only their coefficients and hyperplanes: the work of a pass, and
# the instance at each rank of the item times, do not move with the seed.
RANDOM_FAMILIES = (
    (2, (0,), 13, 1),
    (2, (0, 1), 10, 2),
    (2, (1, 2), 8, 3),
    (2, (0,), 20, 4),
    (2, (0, 0, 0), 12, 5),
    (3, (0,), 7, 6),
    (3, (0, 0), 5, 7),
    (3, (0,), 10, 8),
    (3, (0, 1), 7, 1),
    (3, (0, 1, 2), 5, 2),
    (3, (0, 0, 1, 2), 6, 3),
    (4, (0, 1), 3, 4),
    (4, (0,), 5, 5),
    (4, (1, 1), 3, 6),
    (4, (0,), 6, 7),
    (4, (0, 0, 1), 4, 8),
    (5, (0, 0), 3, 1),
    (5, (0,), 4, 2),
    (5, (0,), 5, 3),
    (5, (0, 1), 4, 4),
)
# lex segments (N, degree, codim): the growth bound is sharp on them
LEX_FAMILIES = (
    (2, 15, 15),
    (2, 20, 25),
    (2, 25, 35),
    (3, 6, 45),
    (3, 8, 55),
    (3, 10, 15),
    (4, 5, 25),
    (4, 6, 35),
    (5, 3, 12),
    (5, 4, 30),
    (2, 30, 45),
)
# every monomial of degree d on P^N except x_N^d: the only base point is
# [0 : ... : 0 : 1], the last point of the scan in `is_basepoint_free`
BASEPOINT_SYSTEMS = ((3, 2), (3, 3), (2, 4))


# -- independent checks -------------------------------------------------------


def valid_expansion(c: int, d: int, ks: tuple[int, ...]) -> bool:
    """ks is the d-th Macaulay expansion of c: strictly decreasing, k_f >= f >= 1,
    and summing back to c.  The expansion is unique, so this pins it down."""
    if len(ks) > d or any(a <= b for a, b in zip(ks, ks[1:])):
        return False
    if ks and ks[-1] < d - len(ks) + 1:
        return False
    return sum(math.comb(k, d - j) for j, k in enumerate(ks)) == c


def shifted_bounds(d: int, ks: tuple[int, ...]) -> tuple[int, int]:
    """(c^<d>, c_<d>) from a valid expansion, by the two index shifts."""
    upper = sum(math.comb(k + 1, d - j + 1) for j, k in enumerate(ks))
    lower = sum(math.comb(k - 1, d - j) for j, k in enumerate(ks))
    return upper, lower


def greedy_expansion(c: int, d: int) -> tuple[int, ...]:
    """Macaulay expansion by a plain greedy search, for small c."""
    ks = []
    for i in range(d, 0, -1):
        if c == 0:
            break
        k = i
        while math.comb(k + 1, i) <= c:
            k += 1
        ks.append(k)
        c -= math.comb(k, i)
    return tuple(ks)


# -- inputs -------------------------------------------------------------------


def expansion_pairs(seed: int) -> list[tuple[int, int]]:
    """Half contiguous runs of c in one degree, half scattered log-uniform c.

    Runs alternate with scattered blocks of the same length.  A quarter of
    the runs start at c = 0, the prefix pattern the growth sweep repeats for
    every slack e, so some (c, d) pairs recur; the rest start log-uniformly
    below 10^6.  Scattered c is log-uniform in [10^2, 10^9) and almost never
    recurs or neighbours another pair.
    """
    rng = random.Random(f"expansions/{seed}")
    pairs: list[tuple[int, int]] = []
    while len(pairs) < EXPANSION_PAIRS:
        d = rng.randint(1, EXPANSION_DMAX)
        c0 = 0 if rng.random() < 0.25 else int(10 ** rng.uniform(0, 6))
        length = rng.randint(16, 256)
        pairs.extend((c, d) for c in range(c0, c0 + length))
        pairs.extend(
            (int(10 ** rng.uniform(2, 9)), rng.randint(1, EXPANSION_DMAX)) for _ in range(length)
        )
    return pairs[:EXPANSION_PAIRS]


def repeated_share(pairs) -> float:
    """Share of pairs equal to an earlier pair of the list."""
    return 1.0 - len(set(pairs)) / len(pairs)


def subspace_instances() -> list[tuple]:
    """(kind, N, twists, degree, codim) per instance, in a fixed order, so
    the peak memory and the first touch of each shape cache do not move
    with the seed either."""
    out = [("random", N, tw, d, c) for N, tw, d, c in RANDOM_FAMILIES]
    out += [("lex", N, (0,), d, c) for N, d, c in LEX_FAMILIES]
    out += [("basepoint", N, (0,), d, 1) for N, d in BASEPOINT_SYSTEMS]
    return out


def _instance_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, index])))


# -- passes -------------------------------------------------------------------


@dataclass
class PassResult:
    """Timings and verdicts of one pass."""

    wall_s: float = 0.0
    item_ms: list[float] = field(default_factory=list)
    items: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    digest: str = ""
    info: dict = field(default_factory=dict)

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        if len(self.errors) < 5:
            self.errors.append(message)


def _gate_digest(res: PassResult, workload: str, seed: int, text: str) -> None:
    """Fail every item not failed yet when the pass's digest misses the recorded one."""
    res.digest = hashlib.sha256(text.encode()).hexdigest()
    expected = load_digests().get(workload, {}).get(str(seed))
    res.info["digest_recorded"] = expected is not None
    if expected is not None and expected != res.digest:
        res.fail(f"digest {res.digest[:16]} != recorded {expected[:16]}", res.items - res.failed)


def load_digests() -> dict:
    """{workload: {seed: digest}} as recorded in digests.json."""
    return json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}


def run_verify_all(seed: int, tracer=None) -> PassResult:
    """`nlgotz verify all --seed S --format csv` in process, stdout captured.

    The verdicts are the CSV rows.  The suites build one `verify.TrialRow`
    per verdict as soon as it is known, so a row's time is the time from the
    previous row of its suite (or the suite's start) to its own.  Rows built
    some other way are not timed; the count of timed rows is printed.
    """
    res = PassResult(info={"item_times": "rows, each timed from the row before"})
    marks: list[float] = []

    def suite(fn):
        def call(*args, **kwargs):
            marks.append(time.perf_counter())
            return fn(*args, **kwargs)

        return call

    def row(*args, **kwargs):
        now = time.perf_counter()
        res.item_ms.append(1e3 * (now - marks[-1]))
        marks.append(now)
        return trial_row(*args, **kwargs)

    run_suite, consistency_sweep, trial_row = cli.run_suite, cli.consistency_sweep, verify.TrialRow
    cli.run_suite, cli.consistency_sweep = suite(run_suite), suite(consistency_sweep)
    verify.TrialRow = row
    buf = io.StringIO()
    try:
        if tracer is not None:
            tracer.set_item(0)
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(["verify", "all", "--seed", str(seed), "--format", "csv"])
        res.wall_s = time.perf_counter() - t0
    except Exception as exc:  # a crash fails the pass, it is not skipped
        res.items = 1
        res.fail(f"verify all raised {exc!r}")
        return res
    finally:
        cli.run_suite, cli.consistency_sweep, verify.TrialRow = run_suite, consistency_sweep, trial_row
    text = buf.getvalue()
    rows = list(csv.reader(io.StringIO(text)))
    body = rows[1:] if rows and rows[0][:1] == ["suite"] else rows
    res.items = max(len(body), 1)
    per_suite: dict[str, int] = {}
    for line in body:
        per_suite[line[0]] = per_suite.get(line[0], 0) + 1
        if len(line) != 6 or line[5] != "1":
            res.fail(f"row failed: {','.join(line)[:120]}")
    if rc != 0 and res.failed == 0:
        res.fail(f"exit code {rc} with no failing row", res.items)
    if not body:
        res.fail("no rows")
    res.info["rows_per_suite"] = per_suite
    _gate_digest(res, "verify-all", seed, text)
    return res


def run_expansions(seed: int, tracer=None) -> PassResult:
    """Each pair through macaulay_rep, .value(), upper_macaulay, lower_macaulay."""
    res = PassResult(
        info={"item_times": f"batches of {EXPANSION_BATCH} pairs, each its time per pair"}
    )
    pairs = expansion_pairs(seed)
    res.items = len(pairs)
    res.info["repeated_share"] = repeated_share(pairs)
    lines: list[str] = []
    rep_of, upper_of, lower_of = macaulay.macaulay_rep, macaulay.upper_macaulay, macaulay.lower_macaulay
    for b in range(0, len(pairs), EXPANSION_BATCH):
        batch = pairs[b : b + EXPANSION_BATCH]
        if tracer is not None:
            tracer.set_item(b // EXPANSION_BATCH)
        out = []
        t0 = time.perf_counter()
        for c, d in batch:
            try:
                rep = rep_of(c, d)
                out.append((rep.ks, rep.value(), upper_of(c, d), lower_of(c, d)))
            except Exception as exc:
                out.append(exc)
        dt = time.perf_counter() - t0
        res.wall_s += dt
        res.item_ms.append(1e3 * dt / len(batch))
        for (c, d), got in zip(batch, out):
            if isinstance(got, Exception):
                res.fail(f"({c}, {d}) raised {got!r}")
                lines.append(f"{c},{d},error\n")
                continue
            ks, value, upper, lower = got
            if value != c or not valid_expansion(c, d, ks) or (upper, lower) != shifted_bounds(d, ks):
                res.fail(f"({c}, {d}) -> ks={ks} value={value} upper={upper} lower={lower}")
            lines.append(f"{c},{d},{' '.join(map(str, ks))},{upper},{lower}\n")
    _gate_digest(res, "expansions", seed, "".join(lines))
    return res


def _subspace_item(kind, N, twists, degree, codim, rng, rows):
    ctx = graded.RingContext(N)
    sheaf = graded.SplitSheaf(twists)
    if kind == "basepoint":
        v = graded.subspace_from_rows(ctx, sheaf, degree, rows)
        return v, None, None, graded.is_basepoint_free(v)
    if kind == "lex":
        v = graded.lex_segment_subspace(codim, degree, ctx)
    else:
        n = graded.section_dim(sheaf, degree, ctx)
        v = graded.random_subspace(ctx, sheaf, degree, rng, dim=n - codim)
    return v, graded.check_macaulay_gotzmann(v), graded.restrict_to_hyperplane(v, rng), ""


def _basepoint_rows(N: int, degree: int) -> np.ndarray:
    mons = monomials(N + 1, degree)
    keep = [i for i, e in enumerate(mons) if e != (0,) * N + (degree,)]
    return np.eye(len(mons), dtype=np.int64)[keep]


def run_subspaces(seed: int, tracer=None) -> PassResult:
    """Growth and restriction checks on seeded subspaces, plus base-point scans."""
    res = PassResult(info={"item_times": "instances, each timed on its own"})
    insts = subspace_instances()
    res.items = len(insts)
    lines: list[str] = []
    for i, (kind, N, twists, degree, codim) in enumerate(insts):
        rng = _instance_rng(seed, i)
        rows = _basepoint_rows(N, degree) if kind == "basepoint" else None
        if tracer is not None:
            tracer.set_item(i)
        t0 = time.perf_counter()
        try:
            v, chk, rst, verdict = _subspace_item(kind, N, twists, degree, codim, rng, rows)
        except Exception as exc:
            dt = time.perf_counter() - t0
            res.fail(f"{kind} N={N} twists={twists} d={degree} c={codim} raised {exc!r}")
            lines.append(f"{i},{kind},error\n")
        else:
            dt = time.perf_counter() - t0
            tag = f"{kind} N={N} twists={twists} d={degree} c={codim}"
            if kind == "basepoint":
                if verdict != "not_free":
                    res.fail(f"{tag}: base point missed ({verdict})")
                lines.append(f"{i},{kind},{v.codim},{verdict}\n")
            else:
                upper, lower = shifted_bounds(degree, greedy_expansion(v.codim, degree))
                ok = (
                    chk.codim == v.codim
                    and chk.bound == upper
                    and chk.codim_next <= upper
                    and chk.holds
                    and rst.bound == lower
                    and rst.codim == v.codim == rst.codim_h + rst.codim_preimage
                    and rst.additivity_holds
                    and rst.restriction_bound_holds
                    and rst.codim_h <= lower
                )
                if kind == "lex":
                    ok = ok and v.codim == codim and chk.codim_next == upper
                if not ok:
                    res.fail(f"{tag}: {chk} {rst.codim_h}/{rst.codim_preimage}/{rst.bound}")
                lines.append(
                    f"{i},{kind},{v.codim},{chk.codim_next},{chk.bound},"
                    f"{rst.codim_h},{rst.codim_preimage},{verdict}\n"
                )
        res.wall_s += dt
        res.item_ms.append(1e3 * dt)
    _gate_digest(res, "subspaces", seed, "".join(lines))
    return res


RUNNERS = {
    "verify-all": run_verify_all,
    "expansions": run_expansions,
    "subspaces": run_subspaces,
}
