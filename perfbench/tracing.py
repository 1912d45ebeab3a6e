"""Spans around calls into ballpack's modules, from the benchmark's side.

The program is left as it is.  ``Tracer.install`` rebinds every name under
which a traced function is reachable in a loaded ``ballpack`` module (the
defining module and each module that imported it), and sets wrapped methods
on their classes; ``uninstall`` puts the originals back.  Each span records
its name, start, end, parent span and operation id; spans stay in memory
and are written out once, by ``write``.  A span's self time is its duration
minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict


def _grow_name(result, args, kwargs) -> str:
    """Engine path of a generate_cluster call, read from its result.

    The store's mode is private to ballpack; when it is missing the exact
    dual-flavor label is used.
    """
    if result.flavor == "SSA":
        return "apollonian.grow_ssa_s"
    if getattr(getattr(result, "_store", None), "mode", None) == "obj":
        return "apollonian.grow_bigint_s"
    return "apollonian.grow_s"


def _cli_name(result, args, kwargs) -> str:
    argv = args[0] if args else kwargs.get("argv")
    return f"cli.{argv[0]}_s"


def _count_grow(tracer, result, args, kwargs) -> None:
    tracer.counts["grown_balls"] += len(result)
    if tracer.grow_calls is not None:
        tracer.grow_calls.append((args, kwargs))


def _count_pair(tracer, result, args, kwargs) -> None:
    tracer.counts["pairs"] += 1


def _count_bytes(key):
    def count(tracer, result, args, kwargs) -> None:
        tracer.counts[key] += len(result.encode("utf-8"))

    return count


# (module, attribute, class or None, span name or name(result, args, kwargs),
#  counter(tracer, result, args, kwargs) or None)
TRACED = (
    ("apollonian", "packing_from_curvatures", None, "apollonian.seed_s", None),
    ("apollonian", "apollonian_group_from_packing", None, "apollonian.generators_s", None),
    ("apollonian", "platonic_generators", None, "apollonian.generators_s", None),
    ("apollonian", "generate_cluster", None, _grow_name, _count_grow),
    ("apollonian", "curvatures_in_ring", "Cluster", "apollonian.ring_s", None),
    ("apollonian", "entry", "Cluster", "apollonian.entries_s", None),
    ("relations", "integrality_condition", None, "relations.integrality_s", None),
    ("relations", "gram_curvature_identity", None, "relations.gram_identity_s", None),
    ("relations", "soddy_gosset_residual", None, "relations.soddy_residual_s", None),
    ("relations", "flag_curvatures", None, "relations.flag_relation_s", None),
    ("relations", "verify_flag_relation", None, "relations.flag_relation_s", None),
    ("polytopes", "flags", None, "polytopes.flags_s", None),
    ("polytopes", "regular_edge_scribed", None, "polytopes.edge_scribed_s", None),
    ("packings", "project", None, "packings.project_s", None),
    ("lorentz", "classify_pair", None, "lorentz.classify_pair_s", _count_pair),
    ("documents", "document_from_cluster", None, "documents.from_cluster_s", None),
    ("documents", "to_json", None, "documents.to_json_s", _count_bytes("json_bytes")),
    ("documents", "from_json", None, "documents.from_json_s", None),
    ("documents", "balls", "PackingDocument", "documents.balls_s", None),
    ("svgout", "render_svg", None, "svgout.render_s", _count_bytes("svg_bytes")),
    ("cli", "main", None, _cli_name, None),
)


class Tracer:
    """In-memory span recorder with per-name self-time totals."""

    def __init__(self):
        self.spans = []  # (id, name, start, end, parent id, op id)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(float)
        self.op = -1
        self.enabled = True
        self._next_id = 0
        self._stack = []  # [span id, start, time covered by children]
        self._patched = []
        self.grow_calls = None  # generate_cluster arguments, when recorded

    # -- spans ------------------------------------------------------------

    def open(self) -> None:
        self._stack.append([self._next_id, time.perf_counter(), 0.0])
        self._next_id += 1

    def close(self, name: str) -> None:
        end = time.perf_counter()
        sid, start, children = self._stack.pop()
        dur = end - start
        parent = self._stack[-1][0] if self._stack else -1
        if self._stack:
            self._stack[-1][2] += dur
        self.self_time[name] += dur - children
        self.spans.append((sid, name, start, end, parent, self.op))

    def span(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span of the given name (for the benchmark's own ops)."""
        self.open()
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(name)

    def _wrap(self, fn, name, count):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            tracer.open()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.close(name if isinstance(name, str) else "error")
                raise
            tracer.close(name if isinstance(name, str) else name(result, args, kwargs))
            if count is not None:
                count(tracer, result, args, kwargs)
            return result

        return traced

    # -- installing the wrappers ------------------------------------------

    def install(self, record_grow_calls=None) -> None:
        """Wrap every traced function; record generate_cluster's arguments
        into the given list, when one is given."""
        self.grow_calls = record_grow_calls
        loaded = [m for n, m in sys.modules.items() if n == "ballpack" or n.startswith("ballpack.")]
        for mod_name, attr, cls_name, name, count in TRACED:
            home = sys.modules[f"ballpack.{mod_name}"]
            if cls_name is not None:
                cls = getattr(home, cls_name)
                original = cls.__dict__[attr]
                wrapper = self._wrap(original, name, count)
                self._patched.append((cls, attr, original, wrapper))
                setattr(cls, attr, wrapper)
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(original, name, count)
            for mod in loaded:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, key, original, wrapper))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        """Put the originals back, except where a name was rebound since."""
        for owner, key, original, wrapper in reversed(self._patched):
            if getattr(owner, key) is wrapper:
                setattr(owner, key, original)
        self._patched.clear()
        self.grow_calls = None

    def write(self, path, ops) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["id", "name", "start", "end", "parent", "op"],
                    "ops": ops,
                    "spans": self.spans,
                },
                fh,
            )
