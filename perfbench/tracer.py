"""In-memory spans around fgkit's public functions, for the traced run.

Tracing is installed from outside: :func:`install` rebinds public
functions and methods of ``fgkit`` to wrappers that record a span per call
(name, start, end, parent, operation id, and a few counts).  Nothing in
``src/`` changes, and untraced passes never install the wrappers.

Calls made by a private helper of ``fgkit.family`` (today the sampled
block-letter check) are not recorded, so that stage stays in the residual
of ``verify`` (``family.verify_unattributed_s``): it has no public function
of its own to carry a span.
"""

from __future__ import annotations

import json
import math
import sys
import time
from pathlib import Path

REPORT_STAGES = (
    "images_recursive",
    "images_closed",
    "shuffle_identities",
    "block_letters",
    "injectivity",
    "quotient_order",
    "boundary_class",
)

# Hardware-independent counts: they must repeat exactly for one seed.
COUNT_METRICS = (
    "words.canonical_class_letters",
    "homs.apply_letters_in",
    "homs.apply_letters_out",
    "stallings.wedge_vertices",
    "stallings.folded_vertices",
    "stallings.fold_merges",
    "abelian.smith_calls",
    "family.image_letters",
    "family.boundary_image_letters",
    "cli.output_bytes",
)

# metric name -> span name whose self time it reports
SELF_TIME = {
    "words.render_s": "words.render_word",
    "words.mul_s": "words.mul",
    "words.pow_s": "words.pow",
    "words.canonical_class_s": "words.canonical_class",
    "homs.apply_s": "homs.apply",
    "stallings.wedge_s": "stallings.wedge",
    "stallings.fold_s": "stallings.fold",
    "stallings.rank_s": "stallings.rank",
    "abelian.image_matrix_s": "abelian.image_matrix",
    "abelian.smith_normal_form_s": "abelian.smith_normal_form",
    "abelian.quotient_order_s": "abelian.quotient_order",
    "family.images_recursive_s": "family.images_recursive",
    "family.images_closed_s": "family.images_closed",
    "family.shuffle_identities_s": "family.shuffle_identities",
    "family.verify_unattributed_s": "family.verify",
}

# Timed metrics attributable to one (g, l) instance get a log-log slope in g.
# Rendering happens when the CLI writes its output, outside any instance.
SLOPED = (
    tuple(m for m in SELF_TIME if m != "words.render_s")
    + ("family.verify_s",)
    + tuple(f"family.report.{stage}_s" for stage in REPORT_STAGES)
)


class Tracer:
    """Spans kept in memory as tuples (id, parent, name, op, t0, t1, counts)."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.op = None  # operation id shared by the spans of one operation
        self._n = 0
        self._ops = 0

    def call(self, name, fn, args, kwargs, counter=None, op=None):
        outer_op = self.op
        if op is not None:
            self.op = op
        elif self.op is None and not self.stack:
            self._ops += 1
            self.op = f"call{self._ops}"
        self._n += 1
        sid = self._n
        parent = self.stack[-1] if self.stack else None
        self.stack.append(sid)
        t0 = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter_ns()
            self.stack.pop()
            span_op = self.op
            self.op = outer_op
        counts = counter(args, result) if counter is not None else None
        self.spans.append((sid, parent, name, span_op, t0, t1, counts))
        return result

    def dump(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(json.dumps(span) + "\n" for span in self.spans)


# -- interposition ------------------------------------------------------------


def _wrap(tracer: Tracer, name: str, fn, counter=None, skip_private_family=False, op_of=None):
    family_globals = sys.modules["fgkit.family"].__dict__

    def wrapper(*args, **kwargs):
        if skip_private_family:
            caller = sys._getframe(1)
            if caller.f_globals is family_globals and caller.f_code.co_name.startswith("_"):
                return fn(*args, **kwargs)
        op = op_of(args) if op_of is not None else None
        return tracer.call(name, fn, args, kwargs, counter, op)

    return wrapper


def _rebind(original, wrapper) -> None:
    """Point every fgkit module attribute bound to ``original`` at ``wrapper``."""
    for modname, mod in list(sys.modules.items()):
        if modname == "fgkit" or modname.startswith("fgkit."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)


def _op_of_params(args) -> str:
    params = args[0]
    return f"g{params.g}-l{params.l}"


def install(tracer: Tracer) -> None:
    """Wrap fgkit's public entry points; names that no longer exist are skipped."""
    import fgkit.abelian
    import fgkit.cli
    import fgkit.family
    import fgkit.homs
    import fgkit.stallings
    import fgkit.words

    words, homs, stallings = fgkit.words, fgkit.homs, fgkit.stallings

    def letters_of_result(args, result):
        return {"letters": sum(len(w) for w in result)}

    def letters_of_arg(args, result):
        return {"letters": len(args[0])}

    def apply_counts(args, result):
        hom, w = args[0], args[1]
        images = hom.images
        return {
            "letters_in": sum(len(images[abs(s) - 1]) for s in w.letters),
            "letters_out": len(result),
        }

    def vertices(args, result):
        return {"vertices": result.n_vertices}

    def report_timings(args, result):
        return {f"report.{stage}": t for stage, t in result.timings.items()}

    functions = [
        (words, "render_word", "words.render_word", None),
        (words, "canonical_class", "words.canonical_class", letters_of_arg),
        (fgkit.abelian, "image_matrix", "abelian.image_matrix", None),
        (fgkit.abelian, "smith_normal_form", "abelian.smith_normal_form", None),
        (fgkit.abelian, "quotient_order", "abelian.quotient_order", None),
        (stallings, "is_injective", "stallings.is_injective", None),
        (stallings, "build_subgroup_graph", "stallings.build_subgroup_graph", None),
        (fgkit.family, "generator_images_recursive", "family.images_recursive", letters_of_result),
        (fgkit.family, "generator_images_closed", "family.images_closed", letters_of_result),
        (fgkit.family, "check_shuffle_identities", "family.shuffle_identities", None),
        (fgkit.cli, "main", "cli.main", None),
    ]
    for mod, attr, name, counter in functions:
        original = getattr(mod, attr, None)
        if original is not None:
            _rebind(original, _wrap(tracer, name, original, counter))
    verify = getattr(fgkit.family, "verify", None)
    if verify is not None:
        _rebind(verify, _wrap(tracer, "family.verify", verify, report_timings, op_of=_op_of_params))

    methods = [
        (words.Word, "__mul__", "words.mul", None, False),
        (words.Word, "__pow__", "words.pow", None, False),
        (homs.Homomorphism, "apply", "homs.apply", apply_counts, True),
        (stallings.SubgroupGraph, "fold", "stallings.fold", vertices, False),
        (stallings.SubgroupGraph, "rank", "stallings.rank", None, False),
    ]
    for cls, attr, name, counter, skip in methods:
        original = cls.__dict__.get(attr)
        if original is not None:
            setattr(cls, attr, _wrap(tracer, name, original, counter, skip_private_family=skip))
    wedge = stallings.SubgroupGraph.__dict__.get("wedge")
    if isinstance(wedge, classmethod):
        fn = wedge.__func__
        stallings.SubgroupGraph.wedge = classmethod(
            _wrap(tracer, "stallings.wedge", fn, vertices)
        )


# -- aggregation --------------------------------------------------------------


def _g_of(op) -> int | None:
    if isinstance(op, str) and op.startswith("g") and "-l" in op:
        return int(op[1 : op.index("-l")])
    return None


def _slope(per_g: dict[int, float]) -> float:
    """Least-squares slope of log(time) against log(g) over positive points."""
    pts = [(math.log(g), math.log(t)) for g, t in per_g.items() if t > 0]
    if len(pts) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    if sxx == 0:
        return 0.0
    return sum((x - mx) * (y - my) for x, y in pts) / sxx


def self_times(spans: list[tuple]) -> list[float]:
    """Each span's duration minus its children's, in s."""
    child_ns: dict[int, int] = {}
    for _sid, parent, _name, _op, t0, t1, _c in spans:
        if parent is not None:
            child_ns[parent] = child_ns.get(parent, 0) + (t1 - t0)
    return [(t1 - t0 - child_ns.get(sid, 0)) / 1e9 for sid, _p, _n, _o, t0, t1, _c in spans]


def _add(table: dict, key, value) -> None:
    table[key] = table.get(key, 0) + value


def aggregate(spans: list[tuple]) -> dict[str, float]:
    """Per-layer metrics from the spans of one traced pass.

    Times are self times, except ``family.verify_s`` and ``cli.main_s``,
    which are whole-call durations.  ``family.report.<stage>_s`` sums the
    stage timings that ``verify`` returned in its reports.
    """
    self_s: dict[str, float] = {}
    total_s: dict[str, float] = {}
    counts: dict[str, int] = {}
    per_g: dict[str, dict[int, float]] = {}
    for span, own in zip(spans, self_times(spans)):
        _sid, _parent, name, op, t0, t1, c = span
        _add(self_s, name, own)
        _add(total_s, name, (t1 - t0) / 1e9)
        _add(counts, name + ".calls", 1)
        g = _g_of(op)
        for key, value in (c or {}).items():
            _add(counts, f"{name}.{key}", value)
            if g is not None and key.startswith("report."):
                _add(per_g.setdefault("family." + key + "_s", {}), g, value)
        if g is not None:
            _add(per_g.setdefault(name, {}), g, own)
            if name == "family.verify":
                _add(per_g.setdefault("family.verify_s", {}), g, (t1 - t0) / 1e9)
            if name == "homs.apply":
                _add(counts, "family.boundary_image_letters", c["letters_out"])

    m: dict[str, float] = {metric: self_s.get(span, 0.0) for metric, span in SELF_TIME.items()}
    m["family.verify_s"] = total_s.get("family.verify", 0.0)
    m["cli.main_s"] = total_s.get("cli.main", 0.0)
    m["cli.output_bytes"] = 0  # the sweep worker fills it in from the captured output
    for stage in REPORT_STAGES:
        m[f"family.report.{stage}_s"] = counts.get(f"family.verify.report.{stage}", 0.0)

    canon_letters = counts.get("words.canonical_class.letters", 0)
    m["words.canonical_class_letters"] = canon_letters
    m["words.canonical_class_ns_per_letter"] = (
        m["words.canonical_class_s"] / canon_letters * 1e9 if canon_letters else 0.0
    )
    letters_in = counts.get("homs.apply.letters_in", 0)
    letters_out = counts.get("homs.apply.letters_out", 0)
    m["homs.apply_letters_in"] = letters_in
    m["homs.apply_letters_out"] = letters_out
    m["homs.apply_cancel_ratio"] = 1 - letters_out / letters_in if letters_in else 0.0
    m["homs.apply_ns_per_letter"] = m["homs.apply_s"] / letters_in * 1e9 if letters_in else 0.0
    wedge = counts.get("stallings.wedge.vertices", 0)
    folded = counts.get("stallings.fold.vertices", 0)
    m["stallings.wedge_vertices"] = wedge
    m["stallings.folded_vertices"] = folded
    m["stallings.fold_merges"] = wedge - folded
    m["abelian.smith_calls"] = counts.get("abelian.smith_normal_form.calls", 0)
    m["family.image_letters"] = counts.get("family.images_recursive.letters", 0)
    m["family.boundary_image_letters"] = counts.get("family.boundary_image_letters", 0)

    for metric in SLOPED:
        if metric.startswith("family.report.") or metric == "family.verify_s":
            series = per_g.get(metric, {})
        else:
            series = per_g.get(SELF_TIME[metric], {})
        m[f"{metric}.g_slope"] = _slope(series)
    return m


def layer_shares(spans: list[tuple]) -> dict[str, float]:
    """Share of all recorded self time per module (the span name's prefix)."""
    per_layer: dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        _add(per_layer, span[2].split(".")[0], own)
    total = sum(per_layer.values()) or 1.0
    return {k: v / total for k, v in sorted(per_layer.items())}
