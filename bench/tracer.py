"""Spans around reebmin's public functions, taken from outside the program.

Each wrapped function is replaced on its module by a wrapper, so every
caller that looks the name up on the module (other modules, and the
module's own functions through its globals) is caught.  A span is
[name, start, end, parent index, job id, tag]; spans stay in memory until
the run ends and are then written out as NDJSON.
"""

from __future__ import annotations

import importlib
import json
import math
from collections import defaultdict
from time import perf_counter

# (module, function) pairs; the span name is "<module>.<function>"
WRAPPED = (
    ("cli", "run"),
    ("cones", "validate_cone"), ("cones", "extreme_rays"), ("cones", "triangulation"),
    ("cones", "gorenstein_normalize"), ("cones", "topology"),
    ("latcore", "integer_kernel"), ("latcore", "smith_normal_form"), ("latcore", "gale_dual"),
    ("reebvol", "minimize_reeb"),
    ("links", "link_verdict"), ("links", "reciprocal_sum"), ("links", "fano_check"),
    ("links", "bgk_check"), ("links", "gk_check"), ("links", "homology_classify"),
    ("links", "enumerate_family"), ("links", "milnor_signature"),
    ("obstruct", "hs_volume"), ("obstruct", "bishop_check"), ("obstruct", "lichnerowicz_check"),
    ("ypq", "einstein_residual"), ("ypq", "metric_eval"), ("ypq", "ricci_fd"),
    ("ypq", "killing_residual"), ("ypq", "reeb_norm_residual"), ("ypq", "labc_cone"),
)

# per-layer metrics reported as self time (.ms) and as call counts (.calls)
SELF_MS = (
    "cones.validate_cone", "latcore.smith_normal_form", "cones.extreme_rays",
    "cones.triangulation", "cones.gorenstein_normalize", "cones.topology",
    "reebvol.minimize_reeb", "links.link_verdict", "links.fano_check", "links.bgk_check",
    "links.gk_check", "links.homology_classify", "links.enumerate_family",
    "obstruct.hs_volume", "obstruct.bishop_check", "obstruct.lichnerowicz_check",
    "links.milnor_signature", "ypq.einstein_residual", "ypq.ricci_fd",
    "ypq.killing_residual", "ypq.reeb_norm_residual", "ypq.labc_cone", "latcore.gale_dual",
)
CALLS = (
    "cones.validate_cone", "latcore.integer_kernel", "latcore.smith_normal_form",
    "links.link_verdict", "links.reciprocal_sum", "ypq.einstein_residual", "ypq.metric_eval",
)


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._undo = []
        self.job = -1
        self.counters = defaultdict(int)
        self._triangulated = set()
        self._rays_cache = None
        self._rays_before = None

    # --- installing ---------------------------------------------------------

    def _wrap(self, module, attr, after=None):
        orig = getattr(module, attr)
        name = f"{module.__name__.rpartition('.')[2]}.{attr}"
        root = name == "cli.run"  # one batch job
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            if root:
                self.job += 1
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if after is not None:
                rec[5] = after(args, result)
            return result

        setattr(module, attr, wrapper)
        self._undo.append((module, attr, orig))
        return orig

    def install(self):
        hooks = {
            "cones.triangulation": self._after_triangulation,
            "reebvol.minimize_reeb": self._after_minimize,
            "links.milnor_signature": self._after_signature,
        }
        for mod_name, attr in WRAPPED:
            module = importlib.import_module(f"reebmin.{mod_name}")
            orig = self._wrap(module, attr, hooks.get(f"{mod_name}.{attr}"))
            if (mod_name, attr) == ("cones", "extreme_rays"):
                self._rays_cache = orig
                self._rays_before = orig.cache_info()

    def uninstall(self):
        rays_after = self._rays_cache.cache_info()
        hits = rays_after.hits - self._rays_before.hits
        misses = rays_after.misses - self._rays_before.misses
        self.counters["cones.extreme_rays.hits"] = hits
        self.counters["cones.extreme_rays.lookups"] = hits + misses
        for module, attr, orig in reversed(self._undo):
            setattr(module, attr, orig)
        self._undo.clear()

    def library_call(self, fn, *args):
        """A job the benchmark runs through the library: its own root span."""
        self.job += 1
        rec = ["library.bp8_class", perf_counter(), 0.0, -1, self.job, None]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            return fn(*args)
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    # --- counters read off results -----------------------------------------

    def _after_triangulation(self, args, result):
        # simplices of each triangulation the run needed, counted once per cone
        if args[0] not in self._triangulated:
            self._triangulated.add(args[0])
            self.counters["cones.triangulation.simplices"] += len(result)

    def _after_minimize(self, args, result):
        self.counters["reebvol.newton_iterations"] += result.iterations
        return result.regularity

    def _after_signature(self, args, result):
        self.counters["links.milnor_signature.points"] += math.prod(x - 1 for x in args[0])

    # --- results -------------------------------------------------------------

    def per_layer(self, batch_wall_s: float, output_bytes: int) -> dict:
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        self_ms = defaultdict(float)
        calls = defaultdict(int)
        root_cli_s = 0.0
        for i, (name, start, end, parent, _, tag) in enumerate(spans):
            own = (end - start - child[i]) * 1000.0
            self_ms[name] += own
            calls[name] += 1
            if tag is not None:
                self_ms[f"{name}.{tag}"] += own
            if name == "cli.run":
                root_cli_s += end - start
        c = self.counters
        out = {
            "cli.self_ms": (self_ms["cli.run"], "ms"),
            "cli.emit_ms": ((batch_wall_s - root_cli_s) * 1000.0, "ms"),
            "cli.output_bytes": (output_bytes, "bytes"),
            "cones.extreme_rays.hit_ratio": (
                c["cones.extreme_rays.hits"] / c["cones.extreme_rays.lookups"]
                if c["cones.extreme_rays.lookups"] else 0.0, "ratio"),
            "cones.triangulation.simplices": (c["cones.triangulation.simplices"], "count"),
            "reebvol.minimize_reeb.quasi_regular_ms": (
                self_ms["reebvol.minimize_reeb.quasi-regular"], "ms"),
            "reebvol.minimize_reeb.irregular_ms": (
                self_ms["reebvol.minimize_reeb.irregular"], "ms"),
            "reebvol.newton_iterations": (c["reebvol.newton_iterations"], "count"),
            "links.milnor_signature.points": (c["links.milnor_signature.points"], "count"),
        }
        for name in SELF_MS:
            out[f"{name}.ms"] = (self_ms[name], "ms")
        for name in CALLS:
            out[f"{name}.calls"] = (calls[name], "count")
        return out

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec, separators=(",", ":")))
                fh.write("\n")
