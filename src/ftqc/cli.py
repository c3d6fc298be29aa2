"""Command-line front end: config ingestion, dispatch, deterministic emission.

Exit codes: 0 success, 1 infeasible or domain error, out of memory, or a
report that could not be written to stdout, 2 config error, 3 internal
theorem violation; main alone picks them, with one stderr line each.  The
report goes as bytes straight to stdout's descriptor (or to --out).
Numbers are emitted with 12 significant digits so repeated runs produce
byte-identical files.  JSON renders non-finite floats as null; CSV prints
them as inf/-inf/nan.

Every JSON object of a config is read once, here, through its own key
table: a key outside the table, a missing required key and a value of the
wrong JSON type are config errors, and null reads as an absent key.  The
readers only decode; a command builds its library objects from the whole
decoded config, so a config error (exit 2) comes before any range check.
"""

import argparse
import errno
import gc
import io
import json
import math
import os
import sys
from collections import namedtuple

from .errors import ConfigError, FtqcError, TheoremViolationError, _check_unit_interval, _shown


# --- config plumbing --------------------------------------------------------
# A table maps each key of one JSON object to (reader, default), where a
# default of ... marks a required key.  A reader takes a present, non-null
# value and its dotted path, and returns the value decoded or raises
# ConfigError.  Range checks are left to the library (exit 1), which runs
# only once the whole config is read.

_q = json.dumps  # a key, path or label in a message: double-quoted, on one line


def _load_json_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path!r}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, deep nesting
        raise ConfigError(f"malformed JSON in {path!r}: {exc}") from None
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


def _read(obj, table: dict, path: str) -> dict:
    """obj's value for each key of table, decoded in table order, or the
    key's default where it is absent or null.  A key outside the table, and
    a required key that is absent or null, are config errors."""
    where = _q(path) if path else "the config"
    for key in _object(obj, path):
        if key not in table:
            known = ", ".join(map(_q, table))
            raise ConfigError(f"unknown key {_q(key)} in {where}; known keys: {known}")
    out = {}
    for key, (reader, default) in table.items():
        value = obj.get(key)
        if value is None and default is ...:
            raise ConfigError(f"missing key {_q(key)} in {where}")
        out[key] = default if value is None else reader(value, f"{path}.{key}" if path else key)
    return out


def _of(kind, what: str):
    """A reader that checks the JSON type and keeps the value as it is."""
    def read(v, name: str):
        # bool is a subclass of int, but JSON true/false are not numbers
        if isinstance(v, bool) or not isinstance(v, kind):
            raise ConfigError(f"{_q(name)} must be {what}, got {v!r}")
        return v
    return read


_string = _of(str, "a string")
_object = _of(dict, "an object")
_array = _of(list, "a list")
_index = _of(int, "an integer")  # a qubit count or index, kept exact
_real = _of((int, float), "a number")


def _number(v, name: str) -> float:
    try:
        return float(_real(v, name))
    except OverflowError:  # JSON integers are unbounded
        raise ConfigError(f"{_q(name)} is beyond the float range") from None


def _integer(v, name: str) -> int:
    """A count: a JSON integer within the float range, or an integral float."""
    if isinstance(v, float) and v.is_integer():
        return int(v)
    _number(_index(v, name), name)
    return v


def _one_of(*choices):
    def read(v, name: str):
        if v not in choices:
            raise ConfigError(f"{_q(name)} must be one of {', '.join(map(_q, choices))}, got {v!r}")
        return v
    return read


def _list(item):
    def read(v, name: str) -> list:
        return [item(x, f"{name}[{i}]") for i, x in enumerate(_array(v, name))]
    return read


def _map(item):
    """A reader of an object whose keys are data (labels), not a table's keys."""
    def read(v, name: str) -> dict:
        return {key: item(x, f"{name}.{key}") for key, x in _object(v, name).items()}
    return read


_strings = _list(_string)


def _labels(v, name: str) -> list:
    labels = _strings(v, name)
    if not labels or "" in labels:
        raise ConfigError(f"{_q(name)} must be a nonempty list of nonempty labels")
    return labels


def _complex(e, name: str) -> complex:
    """A matrix entry: a number or an [re, im] pair."""
    if isinstance(e, list) and len(e) == 2:
        return complex(_number(e[0], name), _number(e[1], name))
    return complex(_number(e, name))


def _matrix(rows, name: str) -> list:
    rows = _list(_list(_complex))(rows, name)
    if not rows or any(len(r) != len(rows[0]) for r in rows):
        raise ConfigError(f"{_q(name)} must be a nonempty list of equal-length rows")
    return rows


def _section(v) -> dict:
    """A circuit or computation, inline or as the path of a JSON file."""
    return _load_json_file(v) if isinstance(v, str) else v


def _gate(v, name: str) -> dict:
    gate = _read(v, _GATE, name)
    if (gate["name"] is None) == (gate["matrix"] is None):
        raise ConfigError(f'{_q(name)} needs exactly one of "name" or "matrix"')
    return gate


def _circuit(v, name: str) -> dict:
    return _read(_section(v), _CIRCUIT, name)


def _povm(v, name: str):
    if v == "computational_basis":
        return v
    if not isinstance(v, dict):
        raise ConfigError(f'{_q(name)} must be "computational_basis" or an object of matrices')
    return _map(_matrix)(v, name)


def _computation(v, name: str) -> dict:
    return _read(_section(v), _COMPUTATION, name)


def _noise(v, name: str) -> dict:
    """A {"kind", "strength"} object; "none" reads as {"kind": "none"}."""
    return _read({"kind": "none"} if v == "none" else v, _NOISE, name)


_GATE = {"targets": (_list(_index), ...), "name": (_string, None), "matrix": (_matrix, None)}
_CIRCUIT = {"num_qubits": (_index, ...), "gates": (_list(_gate), ())}
_COMPUTATION = {
    "inputs": (_labels, ...),
    "outputs": (_strings, ...),
    "truth_table": (_map(_string), ...),
    "povm": (_povm, ...),
}
_NOISE = {"kind": (_one_of("none", "depolarizing"), ...), "strength": (_number, 0.0)}


def _output(default_format: str) -> dict:  # the keys of every command
    return {"format": (_one_of("json", "csv"), default_format), "output_path": (_string, None)}


_BUDGET = {
    "eps_th": (_number, ...),
    "gate_count": (_integer, ...),
    "p": (_number, ...),
    "p_hat": (_number, None),
    "success_target": (_number, None),
}

# Each flag, the config key it overrides and its argparse keywords; a command
# offers the flags whose keys its table holds.
_FLAGS = {
    "--out": ("output_path", {"metavar": "FILE", "help": "output path (default stdout)"}),
    "--seed": ("seed", {"type": int, "help": "seed of the random search (random_search_trials)"}),
    "--format": ("format", {"choices": ("json", "csv"), "help": "output format"}),
    "--eps0": ("eps0", {"type": float, "help": "override eps0"}),
    "--levels": ("levels", {"type": int, "help": "inverse query: report max eps0 at this level"}),
}


# --- deterministic emission --------------------------------------------------

def _round12(x: float):
    if not math.isfinite(x):
        return None
    return float(format(x, ".12g"))


def _json_ready(obj):
    if isinstance(obj, float):
        return _round12(obj)
    if isinstance(obj, dict):
        return {k: _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        if hasattr(obj, "_asdict"):  # a named tuple is an object
            return {k: _json_ready(v) for k, v in obj._asdict().items()}
        return [_json_ready(v) for v in obj]
    return obj


def _emit_json(report: dict) -> str:
    return json.dumps(_json_ready(report), indent=2) + "\n"


def _emit_csv(report: dict) -> str:
    """One row per record (a named tuple or a dict) of the report's one list
    field, with its other fields repeated on each row; a report without a
    list is one row.  One %-template, built from the first row, formats
    every row: floats as %.12g (which prints inf and nan as they are),
    bools as true/false, everything else as str()."""
    list_key = next((k for k, v in report.items() if isinstance(v, (list, tuple))), None)
    others = {k: v for k, v in report.items() if k != list_key}
    records = report[list_key] if list_key else [{}]
    header = [*(records[0]._fields if isinstance(records[0], tuple) else records[0]), *others]
    rest = tuple(others.values())
    rows = [(r if isinstance(r, tuple) else tuple(r.values())) + rest for r in records]
    template = ",".join("%.12g" if isinstance(c, float) else "%s" for c in rows[0])
    if any(type(c) is bool for c in rows[0]):
        rows = [tuple(("true" if c else "false") if type(c) is bool else c for c in row) for row in rows]
    return "\n".join([",".join(header), *(template % row for row in rows)]) + "\n"


# --- subcommands --------------------------------------------------------------
# Each takes the decoded config and returns its report, which main renders as
# JSON or, by _emit_csv's one rule, as CSV.  Each imports the modules it runs,
# so a process loads no other command's module.

def _budget(cfg: dict) -> dict:
    """The planner's eps_th, gate_count, p and p_hat, where p_hat may be
    given as its complement, success_target."""
    p_hat, target = cfg["p_hat"], cfg["success_target"]
    if (p_hat is None) == (target is None):
        raise ConfigError('give exactly one of "p_hat" or "success_target"')
    if p_hat is None:
        p_hat = 1.0 - _check_unit_interval("success_target", target, lo_open=False)
    return {"eps_th": cfg["eps_th"], "gate_count": cfg["gate_count"], "p": cfg["p"], "p_hat": p_hat}


def _cmd_plan(cfg: dict):
    from . import ftcalc

    levels = cfg["levels"]
    if levels is None and cfg["eps0"] is None:
        raise ConfigError('missing key "eps0" in the config')
    budget = _budget(cfg)
    if levels is None:
        return ftcalc.required_levels(ftcalc.FtParams(eps0=cfg["eps0"], **budget))._asdict()
    # inverse query: admissible gate error at a fixed level
    p_hat, p = budget["p_hat"], budget["p"]
    return {
        "levels": levels,
        "max_eps0": ftcalc.max_gate_error(levels, **budget),
        "budget": ftcalc.epsilon_budget(p_hat, p),
        "alpha_required": ftcalc.required_alpha(p_hat, p),
    }


def _cmd_tradeoff(cfg: dict):
    from . import ftcalc

    return {"points": ftcalc.tradeoff_curve(cfg["eps0_min"], cfg["eps0_max"], cfg["points"], **_budget(cfg))}


def _cmd_verify(cfg: dict):
    from . import qcc
    from .channels import Circuit, Gate, NoiseModel, compile_ideal
    from .kitaev import OverallComputation, basis_encoding, basis_readout

    circ, comp, noise = cfg["circuit"], cfg["computation"], cfg["noise"]
    inputs, povm = comp["inputs"], comp["povm"]
    num_qubits = len(inputs[0])  # the register size is the labels' common length
    if circ["num_qubits"] != num_qubits:
        raise ConfigError(
            f"circuit has {_shown(circ['num_qubits'])} qubit(s) but the computation has {num_qubits} qubit(s)"
        )
    circ = Circuit(num_qubits, [Gate(**gate) for gate in circ["gates"]])
    # the basis stacks go straight in: the computation holds its own copies
    comp = OverallComputation(
        inputs, comp["outputs"], comp["truth_table"], basis_encoding(num_qubits, inputs),
        basis_readout(num_qubits) if povm == "computational_basis" else povm,
    )
    noise = NoiseModel(noise["kind"], noise["strength"])
    link = qcc.LinkingMaps(cfg["ancilla_dim"])
    trials = cfg["random_search_trials"]
    if trials is not None:
        # refuse an oversized search before certifying anything
        qcc._check_trials(trials)
    report = qcc.certify_combined_bound(circ, noise, comp).to_dict()
    if trials is not None and cfg["format"] == "json":  # the CSV report has no column for it
        report["alpha_random_search"] = qcc.alpha_random_search(
            qcc.implemented_channel(circ, noise, link), compile_ideal(circ), link, trials, cfg["seed"]
        )
    return report


def _cmd_vote(cfg: dict):
    from . import vote

    p_prime, k, target = cfg["p_prime"], cfg["k"], cfg["target"]
    if (k is None) == (target is None):
        raise ConfigError('give exactly one of "k" or "target"')
    if k is None:
        k = vote.min_repetitions(p_prime, target)
    success = vote.majority_success(p_prime, k)
    _check_unit_interval("per_run_failure", p_prime, lo_open=False)
    report = {"per_run_failure": p_prime, "repetitions": k, "success_probability": success}
    if target is not None and cfg["format"] == "json":  # the CSV report has no column for it
        report["target"] = target
    return report


_Command = namedtuple("_Command", "run help keys")

_COMMANDS = {
    "plan": _Command(
        _cmd_plan, "minimal concatenation level for a parameter set (or --levels N for the inverse query)",
        {**_output("json"), "eps0": (_number, None), **_BUDGET, "levels": (_integer, None)}),
    "tradeoff": _Command(
        _cmd_tradeoff, "levels-vs-gate-error staircase over a log-spaced grid",
        {**_output("csv"), "eps0_min": (_number, ...), "eps0_max": (_number, ...),
         "points": (_integer, ...), **_BUDGET}),
    "verify": _Command(
        _cmd_verify, "simulate a circuit and certify per-input failure <= p + alpha",
        {"seed": (_integer, 0), **_output("json"), "circuit": (_circuit, ...),
         "computation": (_computation, ...), "noise": (_noise, ...),
         "ancilla_dim": (_integer, 1), "random_search_trials": (_integer, None)}),
    "vote": _Command(
        _cmd_vote, "majority-vote success for fixed k, or minimal k for a target",
        {**_output("json"), "p_prime": (_number, ...), "k": (_integer, None), "target": (_number, None)}),
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
    for name, command in _COMMANDS.items():
        sp = sub.add_parser(name, help=command.help)
        sp.add_argument("--config", metavar="FILE", help="JSON configuration file")
        for flag, (key, options) in _FLAGS.items():
            if key in command.keys:
                sp.add_argument(flag, dest=key, **options)
    return parser


def _assemble(args: argparse.Namespace) -> dict:
    """The decoded config of the command, flags applied."""
    prm = _load_json_file(args.config) if args.config else {}
    for key, _ in _FLAGS.values():
        if getattr(args, key, None) is not None:
            prm[key] = getattr(args, key)
    table = _COMMANDS[args.command].keys
    # a seed that no flag or key gives comes from FTQC_SEED, read first: a
    # bad value is the first config error, and no float range applies
    env_seed = _env_seed() if "seed" in table and prm.get("seed") is None else None
    cfg = _read(prm, table, "")
    if env_seed is not None:
        cfg["seed"] = env_seed
    return cfg


def _write_stdout(text: str) -> None:
    """text to stdout's descriptor as bytes, until every one is taken; a
    stream with no descriptor (io.StringIO, pytest's capsys) gets write(text)."""
    out = sys.stdout
    try:
        if out is None:  # descriptor 1 was closed at start-up
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        try:
            fd = out.fileno()
        except (AttributeError, io.UnsupportedOperation):
            out.write(text)
            return
        data = memoryview(text.encode(out.encoding, out.errors))
        out.flush()  # whatever was printed before the report goes first
        while data:
            data = data[os.write(fd, data):]
    except OSError as exc:  # a full device, a reader that closed the pipe
        raise FtqcError(f"cannot write the report to stdout: {exc.strerror}") from None


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _assemble(args)
        report = _COMMANDS[args.command].run(cfg)
        text = _emit_csv(report) if cfg["format"] == "csv" else _emit_json(report)
        path = cfg["output_path"]
        if path is None:
            _write_stdout(text)
        else:
            try:
                with open(path, "w", encoding="utf-8", newline="") as fh:
                    fh.write(text)
            except OSError as exc:
                raise ConfigError(f"cannot write {path!r}: {exc}") from None
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except TheoremViolationError as exc:
        print(f"theorem violation: {exc}", file=sys.stderr)
        return 3
    except FtqcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # NumPy's message names the array that did not fit
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return 1
    return 0


def run() -> None:
    """The process entry of `ftqc` and `python -m ftqc.cli`: exits with main's code.

    main leaves no report bytes in a Python buffer, so the exit-time flush
    has none to fail on.  Freezing every live object, also on argparse's own
    exit, leaves the collections at interpreter shutdown nothing to traverse;
    the operating system reclaims the memory anyway.
    """
    try:
        sys.exit(main())
    finally:
        gc.freeze()


if __name__ == "__main__":
    run()
