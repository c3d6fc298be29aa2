"""Span recorder that wraps ftqc's public functions from outside the library.

install() rebinds every public function of the ftqc modules, in every
module namespace that binds it (qcc.apply and kitaev.apply as well as
channels.apply), and the __post_init__ validation of every public
dataclass, to a wrapper that records a span: name, start, end, parent
span and op id.  uninstall() restores the originals.  Spans stay in memory
until the run ends.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict

import ftqc
from ftqc import channels, cli, densmat, ftcalc, kitaev, qcc, vote

MODULES = (densmat, channels, kitaev, qcc, ftcalc, vote, cli)

# majority_success evaluates k above this by the binomial tail, not exactly
EXACT_K_LIMIT = 64


def _apply_work(args, kwargs):
    chan, state = args[0], args[1]
    return len(chan.kraus_ops), state.dim


def _stack_bytes(args, kwargs):
    circ, noise = args[0], args[1]
    if noise.kind == "none" or noise.strength == 0.0 or not circ.gates:
        return 0
    return circ.dim ** 4 * 16


def _is_tail(args, kwargs):
    k = args[1] if len(args) > 1 else kwargs["k"]
    return isinstance(k, int) and k > EXACT_K_LIMIT


# per-span extras recorded at call time, keyed by span name
EXTRAS = {
    "channels.apply": _apply_work,
    "channels.compile_noisy": _stack_bytes,
    "vote.majority_success": _is_tail,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op, extra]
        self.stack: list[int] = []
        self.op = -1
        self._bindings = []  # (owner, attribute, original, wrapper)
        wrappers = {}
        for mod in MODULES:
            short = mod.__name__.rsplit(".", 1)[1]
            for name, obj in vars(mod).items():
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[obj] = self._wrap(f"{short}.{name}", obj)
                elif inspect.isclass(obj) and "__post_init__" in vars(obj):
                    post = vars(obj)["__post_init__"]
                    self._bindings.append(
                        (obj, "__post_init__", post, self._wrap(f"{short}.{name}", post))
                    )
        for mod in (ftqc,) + MODULES:
            for name, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj in wrappers:
                    self._bindings.append((mod, name, obj, wrappers[obj]))

    def _wrap(self, name, fn):
        extra = EXTRAS.get(name)
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # the span opens first and closes last, so the wrapper's own
            # work counts inside it rather than as time no layer accounts for
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.op,
                    extra(args, kwargs) if extra else None]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return wrapper

    def install(self):
        for owner, attr, _, wrapper in self._bindings:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in self._bindings:
            setattr(owner, attr, original)

    def summary(self, passes: int, op_walls: dict[int, float]) -> dict:
        """Per-layer totals per traced pass, and self-time coverage of ops.

        Self time is a span's duration minus its child spans' durations.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for s in spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        layers = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        reach = defaultdict(set)  # span name -> ops that called it
        op_self = defaultdict(float)
        kraus = macs = stack_max = tail = in_search = 0
        for i, (name, start, end, parent, op, extra) in enumerate(spans):
            if op < 0:
                continue
            row = layers[name]
            row["calls"] += 1
            row["busy_s"] += end - start
            row["self_s"] += end - start - child[i]
            op_self[op] += end - start - child[i]
            reach[name].add(op)
            if name == "channels.apply":
                kraus += extra[0]
                macs += extra[0] * extra[1] ** 4
            elif name == "channels.compile_noisy":
                stack_max = max(stack_max, extra)
            elif name == "vote.majority_success":
                tail += bool(extra)
                up = parent
                while up >= 0 and spans[up][0] != "vote.min_repetitions":
                    up = spans[up][3]
                in_search += up >= 0
        per_pass = {
            name: {k: v / passes for k, v in row.items()} for name, row in sorted(layers.items())
        }

        def calls(name):
            return layers[name]["calls"] if name in layers else 0

        def per_reaching_op(name):
            # calls per op that makes any, so other op kinds do not dilute it
            return calls(name) / len(reach[name]) if reach.get(name) else 0.0

        derived = {
            "channels.apply.kraus_ops_mean": kraus / calls("channels.apply") if calls("channels.apply") else 0.0,
            "channels.apply.macs_computed": macs / passes,
            "channels.compile_noisy.stack_bytes_max": stack_max,
            "channels.compile_ideal.calls_per_op": per_reaching_op("channels.compile_ideal"),
            "channels.compile_noisy.calls_per_op": per_reaching_op("channels.compile_noisy"),
            "vote.majority_success.tail_calls": tail / passes,
            "vote.majority_success.calls_per_search": (
                in_search / calls("vote.min_repetitions") if calls("vote.min_repetitions") else 0.0
            ),
        }
        wall = sum(op_walls.values())
        covered = [op_self[op] / w for op, w in op_walls.items() if w > 0]
        coverage = {
            "op_wall_s": wall / passes,
            "ratio": sum(op_self.values()) / wall if wall else 0.0,
            "ops_within_5pct": sum(1 for c in covered if c >= 0.95) / len(covered) if covered else 0.0,
        }
        return {"layers": per_pass, "derived": derived, "coverage": coverage}
