"""Every field of a fixed set of certification reports, against a record.

The set: the 200 random instances of acceptance criterion 02 (seed
20260817), the same instance stream under noise kind 'none' (criterion 03),
and an H layer + CNOT ladder + T layer at depolarizing 0.01 on 5 and 6
qubits, every basis input, full readout, with a 16-trial random search.
The record, report_fields.json, holds each report's leaves in to_dict()
order, floats by repr; a rerun of unchanged code matches it exactly.  The
test allows 1e-12 absolute on each float and nothing on a label or flag.

Run as a script, it counts the fields that differ from the record at all
and those that differ when printed to 12 significant digits, as the CLI
prints them; ``--record`` rewrites the record from the current code:

    PYTHONPATH=src python tests/test_report_differential.py [--record]

Re-recording changes a check: say why, with the largest difference.
"""

import json
import sys
import time
from pathlib import Path

import numpy as np

import helpers
from ftqc import (
    Circuit,
    Gate,
    LinkingMaps,
    NoiseModel,
    OverallComputation,
    alpha_random_search,
    basis_encoding,
    basis_readout,
    certify_combined_bound,
    compile_ideal,
    implemented_channel,
)

RECORD = Path(__file__).with_name("report_fields.json")
TOL = 1e-12


def ladder(n: int) -> Circuit:
    gates = [Gate(name="H", targets=(q,)) for q in range(n)]
    gates += [Gate(name="CNOT", targets=(q, q + 1)) for q in range(n - 1)]
    gates += [Gate(name="T", targets=(q,)) for q in range(n)]
    return Circuit(num_qubits=n, gates=gates)


def reports():
    """(case name, report dict) for every recorded certification, in order."""
    for kind in ("depolarizing", "none"):
        rng = np.random.default_rng(20260817)
        for i in range(200):
            circ, noise, comp = helpers.random_instance(rng)
            noise = noise if kind == "depolarizing" else NoiseModel(kind="none")
            yield f"{kind}/{i}", certify_combined_bound(circ, noise, comp).to_dict()
    for n in (5, 6):
        circ, noise = ladder(n), NoiseModel(kind="depolarizing", strength=0.01)
        labels = tuple(format(i, f"0{n}b") for i in range(2 ** n))
        comp = OverallComputation(labels, labels, {x: x for x in labels},
                                  basis_encoding(n, labels), basis_readout(n))
        report = certify_combined_bound(circ, noise, comp).to_dict()
        report["alpha_random_search"] = alpha_random_search(
            implemented_channel(circ, noise), compile_ideal(circ), LinkingMaps(), 16, 0
        )
        yield f"ladder/{n}", report


def leaves(value) -> list:
    """The scalars of a report dict, depth first in its own order."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        return [leaf for item in value for leaf in leaves(item)]
    return [value]


def differences(record: dict, current: dict):
    """(case/index, recorded, current) for every field, structure checked first."""
    assert list(current) == list(record), "the set of cases changed"
    for case, want in record.items():
        got = current[case]
        assert len(got) == len(want), f"{case}: {len(got)} fields, recorded {len(want)}"
        for i, (a, b) in enumerate(zip(want, got)):
            yield f"{case}/{i}", a, b


def _off(want, got) -> bool:
    if isinstance(want, float) and isinstance(got, float):
        return abs(want - got) > TOL
    return type(want) is not type(got) or want != got


def current_fields() -> dict:
    return {case: leaves(report) for case, report in reports()}


def test_every_report_field_matches_the_record():
    started = time.perf_counter()
    record = json.loads(RECORD.read_text())
    off = [(path, a, b) for path, a, b in differences(record, current_fields()) if _off(a, b)]
    assert not off, f"{len(off)} fields differ beyond {TOL:.0e}, first: {off[:5]}"
    assert time.perf_counter() - started < 10.0


def main(argv: list[str]) -> int:
    current = current_fields()
    if argv == ["--record"]:
        lines = [f"{json.dumps(case)}: {json.dumps(values)}" for case, values in current.items()]
        RECORD.write_text("{\n" + ",\n".join(lines) + "\n}\n")
        print(f"recorded {sum(map(len, current.values()))} fields of {len(current)} reports")
        return 0
    total = changed = printed = off = 0
    largest = 0.0
    for _, a, b in differences(json.loads(RECORD.read_text()), current):
        total += 1
        changed += a != b or type(a) is not type(b)
        off += _off(a, b)
        if isinstance(a, float) and isinstance(b, float):
            printed += format(a, ".12g") != format(b, ".12g")
            largest = max(largest, abs(a - b))
        else:
            printed += a != b
    print(f"{total} fields: {changed} differ, {printed} differ at 12 significant digits, "
          f"{off} beyond {TOL:.0e}; largest difference {largest:.3g}")
    return 1 if off else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
