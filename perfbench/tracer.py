"""Span recorder for the traced benchmark run.

``Tracer.install`` wraps every public function of the traced crossagg modules
and rebinds it in every crossagg namespace that holds it, including names
imported with ``from ... import`` (``model.rwin_self_attention``,
``windowing.transpose`` and so on), so no call escapes the trace.
``Tracer.uninstall`` puts the original functions back.

Each call becomes one span (name, start, end, parent, request id) kept in a
flat in-memory array and written out by ``Tracer.save``. Self time is a
span's duration minus the durations of its child spans. ``per_layer`` turns
the spans of the traced requests into per-forward-pass figures and joins
them to the rows of ``analysis.model_flops``.
"""

from __future__ import annotations

import inspect
import sys
import time
import tracemalloc
from array import array
from collections import defaultdict

import numpy as np

from crossagg import analysis

TRACED_MODULES = ("autodiff", "windowing", "attention", "model", "imaging", "harness")
_FIELDS = 5  # name id, start ns, end ns, parent span index, request id
_MIB = float(1 << 20)

# Join rows, in model order; each collects rows of analysis.model_flops.
JOIN_ROWS = ("shallow.conv", "attn", "lcm", "norm", "mlp", "group.conv", "body.conv", "posbias", "head")
_GROUP_ROWS = {"attn": "attn", "lcm": "lcm", "norm": "norm", "mlp": "mlp", "conv": "group.conv"}
_ATTENTION_CHILD_ROWS = {"attention.locality_complement": "lcm", "attention.relative_position_bias": "posbias"}

# Autodiff primitives whose self time is reported.
SELF_TIME_OPS = ("gelu", "matmul", "conv2d_3x3", "softmax_lastdim", "add", "layer_norm", "transpose", "narrow", "mul")


def cost_row_key(name: str) -> str:
    """Join row of one ``model_flops`` row name; unknown names raise KeyError."""
    if name.startswith("group"):
        return _GROUP_ROWS[name.split(".", 1)[1]]
    if name.startswith("head."):
        return "head"
    return {"shallow.conv": "shallow.conv", "body.conv": "body.conv", "posbias.net": "posbias"}[name]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans = array("q")
        self.request = -1  # set by the caller; spans with request < 0 are set-up
        self._stack: list[int] = []
        self._has_child: list[bool] = []
        self._wrappers: dict[int, tuple[object, object]] = {}  # id(original) -> (original, wrapper)
        self._bindings: list[tuple[object, str, object]] = []
        self._attention_depth = 0
        self.forward_sides: set[tuple[int, int]] = set()
        self.leaf_out_bytes = 0
        self.logits_bytes = 0
        self.attention_peak_bytes = 0

    # -- wrapping ----------------------------------------------------------

    def install(self) -> None:
        """Wrap the traced modules' public functions and rebind them."""
        if not self._wrappers:
            for short in TRACED_MODULES:
                mod = sys.modules[f"crossagg.{short}"]
                for attr in mod.__all__:
                    fn = getattr(mod, attr)
                    if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                        self._wrappers[id(fn)] = (fn, self._wrap(f"{short}.{attr}", fn))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "crossagg" and not mod_name.startswith("crossagg."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = self._wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._bindings.append((mod, attr, value))

    def uninstall(self) -> None:
        for mod, attr, original in self._bindings:
            setattr(mod, attr, original)
        self._bindings.clear()

    def _wrap(self, qualname: str, fn):
        name_id = len(self.names)
        self.names.append(qualname)
        spans, stack, has_child = self.spans, self._stack, self._has_child
        clock = time.perf_counter_ns
        is_op = qualname.startswith("autodiff.")
        tracer = self

        def wrapper(*args, **kwargs):
            if has_child:
                has_child[-1] = True
            index = len(spans) // _FIELDS
            parent = stack[-1] if stack else -1
            stack.append(index)
            has_child.append(False)
            spans.extend((name_id, clock(), 0, parent, tracer.request))
            try:
                out = fn(*args, **kwargs)
            finally:
                spans[index * _FIELDS + 2] = clock()
                stack.pop()
                leaf = not has_child.pop()
            if is_op and leaf and tracer.request >= 0:
                data = getattr(out, "data", None)
                if isinstance(data, np.ndarray) and data.base is None:
                    tracer.leaf_out_bytes += data.nbytes
            return out

        if qualname == "attention.rwin_self_attention":
            return self._attention_wrapper(wrapper, fn)
        if qualname == "autodiff.softmax_lastdim":
            return self._softmax_wrapper(wrapper)
        if qualname == "model.cat_forward":
            return self._forward_wrapper(wrapper)
        return wrapper

    def _attention_wrapper(self, inner, fn):
        """Counts attention nesting and takes the tracemalloc peak of one call.

        tracemalloc slows Python-heavy code, so it runs only inside the first
        traced call of each distinct (input shape, window spec, shifted).
        """
        signature = inspect.signature(fn)
        measured: set = set()

        def wrapper(*args, **kwargs):
            measure = False
            if self.request >= 0:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                key = (bound.arguments["x"].shape, bound.arguments["spec"], bound.arguments["shifted"])
                measure = key not in measured
                measured.add(key)
            if measure:
                tracemalloc.start()
            self._attention_depth += 1
            try:
                return inner(*args, **kwargs)
            finally:
                self._attention_depth -= 1
                if measure:
                    self.attention_peak_bytes = max(self.attention_peak_bytes, tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()

        return wrapper

    def _softmax_wrapper(self, inner):
        def wrapper(x, *args, **kwargs):
            if self._attention_depth and self.request >= 0:
                self.logits_bytes = max(self.logits_bytes, int(np.prod(x.shape)) * x.dtype.itemsize)
            return inner(x, *args, **kwargs)

        return wrapper

    def _forward_wrapper(self, inner):
        def wrapper(img, *args, **kwargs):
            if self.request >= 0:
                self.forward_sides.add((img.shape[1], img.shape[2]))
            return inner(img, *args, **kwargs)

        return wrapper

    # -- output ------------------------------------------------------------

    def span_table(self) -> np.ndarray:
        return np.frombuffer(self.spans, dtype=np.int64).reshape(-1, _FIELDS)

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(self.names), spans=self.span_table())

    def per_layer(self, config) -> tuple[dict[str, float], list[str]]:
        """Per-forward-pass layer figures and a list of join-check failures.

        Times are per forward pass (one request, or one training step) over
        the spans of traced requests, except ``model.load_weights.ms``, which
        is the set-up call.
        """
        table = self.span_table()
        name_id, start, end, parent, request = (table[:, i] for i in range(_FIELDS))
        dur = end - start
        has_parent = parent >= 0
        child_ns = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_ns = dur - child_ns.astype(np.int64)
        ids = {name: i for i, name in enumerate(self.names)}
        traced = request >= 0
        n_names = len(self.names)
        calls = np.bincount(name_id[traced], minlength=n_names)
        incl = np.bincount(name_id[traced], weights=dur[traced], minlength=n_names)
        self_sum = np.bincount(name_id[traced], weights=self_ns[traced], minlength=n_names)
        passes = int(calls[ids["model.cat_forward"]])
        problems: list[str] = []
        if passes == 0:
            return {}, ["no traced forward pass"]

        def ms(total_ns: float) -> float:
            return float(total_ns) / 1e6 / passes

        def inclusive(name: str) -> float:
            return ms(incl[ids[name]])

        def self_time(name: str) -> float:
            return ms(self_sum[ids[name]])

        def per_pass(name: str) -> float:
            return float(calls[ids[name]]) / passes

        setup = ~traced & (name_id == ids["model.load_weights"])
        m: dict[str, float] = {
            "model.cat_forward.ms": inclusive("model.cat_forward"),
            "model.catb_forward.ms": inclusive("model.catb_forward"),
            "model.load_weights.ms": float(dur[setup].sum()) / 1e6,
            "attention.rwin_self_attention.ms": inclusive("attention.rwin_self_attention"),
            "attention.rwin_self_attention.calls": per_pass("attention.rwin_self_attention"),
            "attention.locality_complement.ms": inclusive("attention.locality_complement"),
            "attention.relative_position_bias.calls": per_pass("attention.relative_position_bias"),
            "attention.logits_mib": self.logits_bytes / _MIB,
            "attention.peak_mib": self.attention_peak_bytes / _MIB,
            "windowing.partition.ms": inclusive("windowing.partition"),
            "windowing.merge.ms": inclusive("windowing.merge"),
            "windowing.cyclic_shift.ms": inclusive("windowing.cyclic_shift"),
            "windowing.build_shift_mask.ms": inclusive("windowing.build_shift_mask"),
            "windowing.build_shift_mask.calls": per_pass("windowing.build_shift_mask"),
            "autodiff.backward.ms": inclusive("autodiff.backward"),
            "autodiff.adam_step.ms": inclusive("autodiff.adam_step"),
            "autodiff.op_calls": sum(per_pass(n) for n in self.names if n.startswith("autodiff.")),
            "autodiff.out_mib": self.leaf_out_bytes / _MIB / passes,
            "harness.restore_image.ms": inclusive("harness.restore_image"),
        }
        for op in SELF_TIME_OPS:
            m[f"autodiff.{op}.ms"] = self_time(f"autodiff.{op}")
        for fn in ("load_image", "save_image", "psnr", "ssim"):
            m[f"imaging.{fn}.ms"] = inclusive(f"imaging.{fn}")

        children: dict[int, list[int]] = defaultdict(list)
        in_attention = np.zeros(len(dur), dtype=bool)
        attention_id = ids["attention.rwin_self_attention"]
        for i in np.flatnonzero(traced & has_parent):
            p = int(parent[i])
            children[p].append(int(i))
            in_attention[i] = in_attention[p] or name_id[p] == attention_id
        softmax = traced & in_attention & (name_id == ids["autodiff.softmax_lastdim"])
        m["attention.softmax.ms"] = ms(self_ns[softmax].sum())

        rows_ns = _join_rows(np.flatnonzero(traced & (name_id == ids["model.cat_forward"])), children,
                             [self.names[i] for i in name_id], dur, self_ns)
        joined = sum(rows_ns.values())
        if joined != int(incl[ids["model.cat_forward"]]):
            problems.append(f"join rows cover {joined} ns of {int(incl[ids['model.cat_forward']])} ns forward time")
        if len(self.forward_sides) != 1:
            return m, problems + [f"traced forward passes had input sides {sorted(self.forward_sides)}"]
        (height, width), = self.forward_sides
        report = analysis.model_flops(config, height, width)
        flops: dict[str, int] = dict.fromkeys(JOIN_ROWS, 0)
        for row in report.rows:
            try:
                flops[cost_row_key(row.name)] += row.flops
            except KeyError:
                problems.append(f"cost row {row.name!r} has no join row")
        if sum(flops.values()) != report.total_flops:
            problems.append(f"joined MACs {sum(flops.values())} != model_flops total {report.total_flops}")
        for row in JOIN_ROWS:
            if flops[row] and not rows_ns[row]:
                problems.append(f"row {row!r} has {flops[row]} MACs but no traced time")
            m[f"analysis.{row}.ms"] = ms(rows_ns[row])
            m[f"analysis.{row}.gmac"] = flops[row] / 1e9
            m[f"analysis.{row}.gmac_per_s"] = flops[row] / (rows_ns[row] / passes) if rows_ns[row] else 0.0
        m["analysis.other.ms"] = ms(rows_ns["other"])
        return m, problems


def _join_rows(forwards, children, names, dur, self_ns) -> dict[str, int]:
    """Split the forward spans' time into join rows by call position.

    A row takes whole subtrees (their duration), so the rows plus ``other``
    (glue code of the model functions themselves) add up to the forward
    time exactly.
    """
    rows: dict[str, int] = dict.fromkeys(JOIN_ROWS + ("other",), 0)

    def attention(a):
        rows["attn"] += self_ns[a]
        for c in children[a]:
            rows[_ATTENTION_CHILD_ROWS.get(names[c], "attn")] += dur[c]

    def block(b):
        rows["other"] += self_ns[b]
        previous = "norm"
        for c in children[b]:
            name = names[c]
            if name == "attention.rwin_self_attention":
                attention(c)
                previous = "attn"
                continue
            if name == "autodiff.layer_norm":
                row = "norm"
            elif name in ("autodiff.linear", "autodiff.gelu"):
                row = "mlp"
            elif name == "autodiff.add":  # a residual joins the branch it closes
                row = previous
            else:
                row = "other"
            rows[row] += dur[c]
            previous = row

    for f in forwards:
        rows["other"] += self_ns[f]
        phase = "shallow.conv"
        for c in children[f]:
            if names[c] == "model.residual_group_forward":
                phase = "body.conv"
                rows["other"] += self_ns[c]
                for g in children[c]:
                    if names[g] == "model.catb_forward":
                        block(g)
                    elif names[g] in ("autodiff.conv2d_3x3", "autodiff.add"):
                        rows["group.conv"] += dur[g]
                    else:
                        rows["other"] += dur[g]
                continue
            rows[phase] += dur[c]
            if phase == "body.conv" and names[c] == "autodiff.add":
                phase = "head"
    return {k: int(v) for k, v in rows.items()}
