"""Every field the planner returns for a fixed set of queries, against a record.

The set, drawn from random.Random(SEED):

* required_levels on FtParams with eps_th over 10 decades, eps0 up to 12
  decades below it (one ulp below, at and above eps_th included), gate
  counts up to 1e300 and p up to 0.8;
* max_gate_error at levels 0 to 70 (and a few past 1023) on the same kind
  of budget;
* tradeoff_curve on grids of 2 to 300 points: generic grids, 1-ulp grids,
  grids that end at the threshold (their last rows are -1 rows), grids
  whose levels flush to 0, subnormal left ends and budgets that cover the
  whole circuit at level 0.

The record, planner_fields.json, holds the repr of every field of every
scalar result and one SHA-256 digest of the rows' reprs per curve; a query
that raises is recorded as its class name and message.  The test allows no
difference at all.  The planner's logarithms and exponentials come from
the platform's C library; the record was taken with glibc on x86-64.

Run as a script, it counts the queries that differ from the record;
``--record`` rewrites the record from the current code:

    PYTHONPATH=src python tests/test_planner_differential.py [--record]

Re-recording changes a check: say why.
"""

import hashlib
import json
import math
import random
import sys
import time
from pathlib import Path

from ftqc.ftcalc import FtParams, max_gate_error, required_levels, tradeoff_curve

RECORD = Path(__file__).with_name("planner_fields.json")
SEED = 20261019
QUERIES = {"required_levels": 500, "max_gate_error": 400, "tradeoff_curve": 300}


def _outcome(call, *args, **kwargs):
    """The call's result, or 'ClassName: message' for what it raises."""
    try:
        return call(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - a refusal is part of the record
        return f"{type(exc).__name__}: {exc}"


def _budget(rng: random.Random) -> dict:
    p = rng.uniform(0.0, 0.8) if rng.random() < 0.8 else 0.0
    p_hat = 1.0 if rng.random() < 0.1 else rng.uniform(math.nextafter(p, 1.0), 1.0)
    return {"p": p, "p_hat": p_hat}


def _gate_count(rng: random.Random) -> int:
    return int(10.0 ** rng.uniform(0.0, 300.0))


def _eps0(rng: random.Random, eth: float) -> float:
    pick = rng.random()
    if pick < 0.05:
        return math.nextafter(eth, 0.0)
    if pick < 0.08:
        return eth
    if pick < 0.1:
        return min(eth * 1.5, 0.5)
    return eth * 10.0 ** -rng.uniform(0.0, 12.0)


def _scalar_queries(rng: random.Random):
    for _ in range(QUERIES["required_levels"]):
        eth = 10.0 ** -rng.uniform(1.0, 11.0)
        kw = dict(eps0=_eps0(rng, eth), eps_th=eth, gate_count=_gate_count(rng), **_budget(rng))
        result = _outcome(lambda: required_levels(FtParams(**kw)))
        yield "required_levels", repr(result if isinstance(result, str) else tuple(result))
    for _ in range(QUERIES["max_gate_error"]):
        levels = rng.randrange(1024, 1100) if rng.random() < 0.05 else rng.randrange(71)
        b = _budget(rng)
        result = _outcome(max_gate_error, levels, 10.0 ** -rng.uniform(1.0, 11.0), _gate_count(rng),
                          b["p_hat"], b["p"])
        yield "max_gate_error", repr(result)


def _grid(rng: random.Random, kind: int) -> tuple[float, float, float, int]:
    """(eps0_min, eps0_max, eps_th, gate_count) of one curve of the given kind."""
    eth = 10.0 ** -rng.uniform(1.0, 11.0)
    n_gates = _gate_count(rng)
    if kind == 0:  # generic, its right end at or below the threshold
        hi = eth if rng.random() < 0.3 else eth * 10.0 ** -rng.uniform(0.0, 3.0)
        return hi * 10.0 ** -rng.uniform(0.001, 12.0), hi, eth, n_gates
    if kind == 1:  # one ulp wide
        lo = eth * 10.0 ** -rng.uniform(0.0, 6.0)
        hi = math.nextafter(lo, 1.0)
        return lo, min(hi, eth), eth, n_gates
    if kind == 2:  # a few ulps below the threshold: -1 rows
        lo = eth
        for _ in range(rng.randrange(1, 40)):
            lo = math.nextafter(lo, 0.0)
        return lo, eth, eth, n_gates
    if kind == 3:  # flushed levels under a huge gate count
        eth = 10.0 ** -rng.uniform(1.0, 4.0)
        lo = 10.0 ** -rng.uniform(145.0, 160.0)
        return lo, lo * 10.0 ** rng.uniform(0.001, 3.0), eth, int(10.0 ** rng.uniform(280.0, 308.0))
    if kind == 4:  # a subnormal left end: eps_th / eps0 overflows
        return 5e-324 * rng.randrange(1, 1000), eth * 10.0 ** -rng.uniform(0.0, 3.0), eth, n_gates
    # a gate count the budget covers at level 0: the closed form's numerator <= 0
    return eth * 10.0 ** -rng.uniform(2.0, 8.0), eth, eth, rng.randrange(1, 10)


def _curve_queries(rng: random.Random):
    for i in range(QUERIES["tradeoff_curve"]):
        lo, hi, eth, n_gates = _grid(rng, i % 6)
        rows = _outcome(tradeoff_curve, lo, hi, rng.randrange(2, 301),
                        eps_th=eth, gate_count=n_gates, **_budget(rng))
        text = rows if isinstance(rows, str) else "\n".join(repr(tuple(row)) for row in rows)
        yield "tradeoff_curve", hashlib.sha256(text.encode()).hexdigest()


def current_fields() -> dict:
    """Query kind -> list of outcomes, each a repr or a digest, in query order."""
    rng = random.Random(SEED)
    fields = {kind: [] for kind in QUERIES}
    for kind, value in (*_scalar_queries(rng), *_curve_queries(rng)):
        fields[kind].append(value)
    return fields


def mismatches(record: dict, current: dict) -> list:
    """(kind/index, recorded, current) for every outcome that differs."""
    assert {k: len(v) for k, v in current.items()} == {k: len(v) for k, v in record.items()}
    return [
        (f"{kind}/{i}", want, got)
        for kind, values in record.items()
        for i, (want, got) in enumerate(zip(values, current[kind]))
        if want != got
    ]


def test_every_planner_field_matches_the_record():
    started = time.perf_counter()
    off = mismatches(json.loads(RECORD.read_text()), current_fields())
    assert not off, f"{len(off)} planner outcomes differ, first: {off[:3]}"
    assert time.perf_counter() - started < 5.0


def main(argv: list[str]) -> int:
    current = current_fields()
    if argv == ["--record"]:
        lines = [f"{json.dumps(kind)}: {json.dumps(values)}" for kind, values in current.items()]
        RECORD.write_text("{\n" + ",\n".join(lines) + "\n}\n")
        print(f"recorded {sum(map(len, current.values()))} planner outcomes")
        return 0
    off = mismatches(json.loads(RECORD.read_text()), current)
    print(f"{sum(map(len, current.values()))} planner outcomes, {len(off)} differ")
    for path, want, got in off[:5]:
        print(f"  {path}: recorded {want}, now {got}")
    return 1 if off else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
