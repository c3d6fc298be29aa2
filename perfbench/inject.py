"""Wrong outputs for the fault self-test: each op's check must reject them,
so that a wrong answer from the program shows up as a failed op."""

from __future__ import annotations

import dataclasses

from ftqc import errors


class _Report:
    """Stands in for a QccReport whose fields were altered after the fact."""

    def __init__(self, fields: dict):
        self.fields = fields

    def to_dict(self) -> dict:
        return self.fields


def _nudged_report(value, path: str) -> _Report:
    fields = value.to_dict()
    if path == "alpha":
        fields["alpha"] += 1e-6
    else:
        fields["per_input"][0][path] += 1e-6
    return _Report(fields)


def wrong_outputs(op, ok: bool, value):
    """Yield (label, ok, value) triples that are each a wrong outcome of op."""
    kind = op.kind
    if kind == "certify":
        yield "alpha off by 1e-6", True, _nudged_report(value, "alpha")
        yield "inaccuracy_x off by 1e-6", True, _nudged_report(value, "inaccuracy_x")
        yield "unexpected exception", False, errors.TheoremViolationError("injected")
    elif kind in ("search", "majority_success"):
        yield "off by 1e-6", True, value + 1e-6
    elif kind == "required_levels":
        yield "one level too many", True, dataclasses.replace(value, levels=value.levels + 1)
    elif kind == "max_gate_error":
        yield "relative error 1e-6", True, value * (1.0 + 1e-6)
    elif kind == "tradeoff_curve":
        # every point: a single one may sit exactly on a level boundary,
        # where either level is within the planner's slack
        rows = [dataclasses.replace(r, levels=r.levels + 1) for r in value]
        yield "every point a level too high", True, rows
    elif kind == "min_repetitions":
        yield "next odd k", True, value + 2
    elif kind == "min_repetitions_cap":
        yield "no refusal", True, 99999
        yield "wrong error class", False, errors.InfeasibleError("injected")
    elif kind == "cli":
        code, out = value
        flipped = bytes([out[0] ^ 1]) + out[1:] if out else b"x"
        yield "one byte flipped", True, (code, flipped)
        yield "wrong exit code", True, (code + 1, out)
    else:
        raise ValueError(f"no injected fault for op kind {kind!r}")
