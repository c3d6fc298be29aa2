"""Command-line front end: config ingestion, dispatch, deterministic emission.

Exit codes: 0 success, 1 infeasible or domain error, 2 config error,
3 internal theorem violation.  Numbers are emitted with 12 significant
digits so repeated runs produce byte-identical files.  JSON renders
non-finite floats as null; CSV prints them as inf/-inf/nan.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass

# the planner commands need no numpy; verify imports the simulator itself
from . import ftcalc, vote
from .errors import BadProbabilityError, ConfigError, FtqcError, TheoremViolationError

_DEFAULT_FORMATS = {"plan": "json", "tradeoff": "csv", "verify": "json", "vote": "json"}


@dataclass(frozen=True)
class RunConfig:
    command: str
    parameters: dict
    output_format: str
    output_path: str | None
    seed: int


# --- config plumbing --------------------------------------------------------

def _load_json_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON in {path!r}: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigError(f"{path!r} must contain a JSON object")
    return obj


def _env_seed() -> int | None:
    raw = os.environ.get("FTQC_SEED")
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"FTQC_SEED = {raw!r} is not an integer") from exc


def _number(prm: dict, key: str) -> float:
    if key not in prm:
        raise ConfigError(f'missing config key "{key}"')
    v = prm[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f'config key "{key}" must be a number, got {v!r}')
    try:
        return float(v)
    except OverflowError:  # JSON integers are unbounded
        raise ConfigError(f'config key "{key}" is beyond the float range') from None


def _integer(prm: dict, key: str) -> int:
    if key not in prm:
        raise ConfigError(f'missing config key "{key}"')
    v = prm[key]
    if isinstance(v, float) and v.is_integer():
        return int(v)
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f'config key "{key}" must be an integer, got {v!r}')
    _number(prm, key)  # refuses an integer beyond the float range
    return v


def _p_hat(prm: dict) -> float:
    # the failure-bound form and the success-target form are both accepted
    has_ph = "p_hat" in prm
    has_st = "success_target" in prm
    if has_ph == has_st:
        raise ConfigError('give exactly one of "p_hat" or "success_target"')
    if has_ph:
        return _number(prm, "p_hat")
    return 1.0 - _number(prm, "success_target")


def _sub_object(prm: dict, key: str) -> dict:
    """A config section given inline as an object or as a path to a JSON file."""
    if key not in prm:
        raise ConfigError(f'missing config key "{key}"')
    v = prm[key]
    if isinstance(v, str):
        return _load_json_file(v)
    if isinstance(v, dict):
        return v
    raise ConfigError(f'config key "{key}" must be an object or a file path')


# --- deterministic emission --------------------------------------------------

def _round12(x: float):
    if not math.isfinite(x):
        return None
    return float(format(x, ".12g"))


def _json_ready(obj):
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, float):
        return _round12(obj)
    if isinstance(obj, dict):
        return {k: _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    return obj


def _csv_cell(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return format(x, ".12g")
    return str(x)


def _emit_json(payload: dict) -> str:
    return json.dumps(_json_ready(payload), indent=2) + "\n"


def _emit_csv(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    lines += [",".join(_csv_cell(c) for c in row) for row in rows]
    return "\n".join(lines) + "\n"


# --- subcommands --------------------------------------------------------------
# Each returns (payload, header, rows): the JSON report and its CSV form.

def _one_row(payload: dict):
    return payload, list(payload), [list(payload.values())]


def _cmd_plan(run: RunConfig):
    prm = run.parameters
    eps_th = _number(prm, "eps_th")
    n_gates = _integer(prm, "gate_count")
    p = _number(prm, "p")
    p_hat = _p_hat(prm)
    if prm.get("levels") is not None:
        # inverse query: admissible gate error at a fixed level
        levels = _integer(prm, "levels")
        eps0_max = ftcalc.max_gate_error(levels, eps_th, n_gates, p_hat, p)
        return _one_row({
            "levels": levels,
            "max_eps0": eps0_max,
            "budget": ftcalc.epsilon_budget(p_hat, p),
            "alpha_required": ftcalc.required_alpha(p_hat, p),
        })
    params = ftcalc.FtParams(
        eps0=_number(prm, "eps0"),
        eps_th=eps_th,
        gate_count=n_gates,
        p=p,
        p_hat=p_hat,
    )
    return _one_row(ftcalc.required_levels(params).to_dict())


def _cmd_tradeoff(run: RunConfig):
    prm = run.parameters
    points = ftcalc.tradeoff_curve(
        _number(prm, "eps0_min"),
        _number(prm, "eps0_max"),
        _integer(prm, "points"),
        eps_th=_number(prm, "eps_th"),
        gate_count=_integer(prm, "gate_count"),
        p=_number(prm, "p"),
        p_hat=_p_hat(prm),
    )
    header = ["eps0", "levels", "eps_qc", "closed_form"]
    rows = [[r.eps0, r.levels, r.eps_qc, r.closed_form] for r in points]
    return {"points": [dict(zip(header, row)) for row in rows]}, header, rows


def _parse_noise(obj):
    from .channels import NoiseModel

    if obj == "none":
        return NoiseModel(kind="none")
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ConfigError('"noise" must be "none" or an object with a "kind"')
    if not isinstance(obj["kind"], str):
        raise ConfigError('"noise.kind" must be a string')
    if obj["kind"] not in ("none", "depolarizing"):
        raise ConfigError(f'"noise.kind" must be "none" or "depolarizing", got {obj["kind"]!r}')
    strength = obj.get("strength", 0.0)
    if isinstance(strength, bool) or not isinstance(strength, (int, float)):
        raise ConfigError('"noise.strength" must be a number')
    return NoiseModel(kind=obj["kind"], strength=float(strength))


def _cmd_verify(run: RunConfig):
    from . import qcc
    from .channels import circuit_from_json, compile_ideal
    from .kitaev import computation_from_json

    prm = run.parameters
    circ = circuit_from_json(_sub_object(prm, "circuit"))
    comp = computation_from_json(_sub_object(prm, "computation"))
    if circ.dim != comp.dim:
        raise ConfigError(
            f"circuit has {circ.num_qubits} qubit(s) but the computation has "
            f"{comp.dim.bit_length() - 1} qubit(s)"
        )
    if "noise" not in prm:
        raise ConfigError('missing config key "noise"')
    noise = _parse_noise(prm["noise"])
    link = qcc.LinkingMaps(ancilla_dim=_integer(prm, "ancilla_dim")) if "ancilla_dim" in prm else qcc.LinkingMaps()
    search = prm.get("random_search_trials") is not None
    if search:
        # refuse an oversized search before certifying anything
        trials = _integer(prm, "random_search_trials")
        qcc._check_trials(trials)
    payload = qcc.certify_combined_bound(circ, noise, comp).to_dict()
    # CSV: one row per input, the report-wide fields repeated on each row
    summary = {key: v for key, v in payload.items() if key != "per_input"}
    header = [*payload["per_input"][0], *summary]
    rows = [[*rec.values(), *summary.values()] for rec in payload["per_input"]]
    if search:
        payload["alpha_random_search"] = qcc.alpha_random_search(
            qcc.implemented_channel(circ, noise, link), compile_ideal(circ), link, trials, run.seed
        )
    return payload, header, rows


def _cmd_vote(run: RunConfig):
    prm = run.parameters
    p_prime = _number(prm, "p_prime")
    has_k = prm.get("k") is not None
    has_target = prm.get("target") is not None
    if has_k == has_target:
        raise ConfigError('give exactly one of "k" or "target"')
    if has_k:
        k = _integer(prm, "k")
    else:
        k = vote.min_repetitions(p_prime, _number(prm, "target"))
    success = vote.majority_success(p_prime, k)
    if p_prime == 1.0:
        raise BadProbabilityError(f"per_run_failure = {p_prime} outside [0, 1)")
    payload, header, rows = _one_row({
        "per_run_failure": p_prime,
        "repetitions": k,
        "success_probability": success,
    })
    if has_target:
        payload["target"] = float(prm["target"])
    return payload, header, rows


_DISPATCH = {
    "plan": _cmd_plan,
    "tradeoff": _cmd_tradeoff,
    "verify": _cmd_verify,
    "vote": _cmd_vote,
}


# --- entry point ----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ftqc",
        description=(
            "Plan concatenation levels for a gate-error budget and certify "
            "simulated circuits against their combined failure bound."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    subcommands = {
        "plan": "minimal concatenation level for a parameter set (or --levels N for the inverse query)",
        "tradeoff": "levels-vs-gate-error staircase over a log-spaced grid",
        "verify": "simulate a circuit and certify per-input failure <= p + alpha",
        "vote": "majority-vote success for fixed k, or minimal k for a target",
    }
    for name, help_text in subcommands.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", metavar="FILE", help="JSON configuration file")
        sp.add_argument("--out", metavar="FILE", help="output path (default stdout)")
        sp.add_argument("--seed", type=int, help="seed for randomized reporting")
        sp.add_argument("--format", choices=("json", "csv"), help="output format")
        if name == "plan":
            sp.add_argument("--eps0", type=float, help="override eps0")
            sp.add_argument(
                "--levels", type=int, help="inverse query: report max eps0 at this level"
            )
    return parser


def _assemble(args: argparse.Namespace) -> RunConfig:
    prm = _load_json_file(args.config) if args.config else {}
    if getattr(args, "eps0", None) is not None:
        prm["eps0"] = args.eps0
    if getattr(args, "levels", None) is not None:
        prm["levels"] = args.levels
    seed = args.seed
    if seed is None and "seed" in prm:
        seed = _integer(prm, "seed")
    if seed is None:
        seed = _env_seed()
    if seed is None:
        seed = 0
    fmt = args.format or prm.get("format") or _DEFAULT_FORMATS[args.command]
    if fmt not in ("json", "csv"):
        raise ConfigError(f'config key "format" must be json or csv, got {fmt!r}')
    out = args.out if args.out is not None else prm.get("output_path")
    if out is not None and not isinstance(out, str):
        raise ConfigError('config key "output_path" must be a string')
    for reserved in ("seed", "format", "output_path"):
        prm.pop(reserved, None)
    return RunConfig(
        command=args.command,
        parameters=prm,
        output_format=fmt,
        output_path=out,
        seed=seed,
    )


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        run = _assemble(args)
        payload, header, rows = _DISPATCH[run.command](run)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except TheoremViolationError as exc:
        print(f"theorem violation: {exc}", file=sys.stderr)
        return 3
    except FtqcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    text = _emit_csv(header, rows) if run.output_format == "csv" else _emit_json(payload)
    if run.output_path is None:
        sys.stdout.write(text)
        return 0
    try:
        with open(run.output_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"config error: cannot write {run.output_path!r}: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
