"""Traced qmoon entry point: ``python shim.py TRACE_OUT SPAWN_TIME ARGV...``.

Wraps the public entry points of every qmoon module from outside, then runs
``qmoon.cli.run(ARGV)`` exactly as ``python -m qmoon.cli ARGV`` would, and
writes per-layer spans and counts to TRACE_OUT as JSON before exiting with
run's exit code.  SPAWN_TIME is the parent's CLOCK_MONOTONIC reading just
before it started this process, so the time to reach ``run`` is measured;
the time the tracer spends patching is taken out of it and reported on its
own as "patch_s".

Each wrapped call is a span.  A layer's self time is its spans' duration
minus the part covered by nested wrapped calls; the cost of the counters
themselves is charged to no layer.  Every alias of a wrapped function is
replaced too: class aliases such as ``__rmul__ = __mul__`` and names imported
by value into other modules (``product_from_exponents`` in forms, borcherds
and identities, ``exponents_from_series`` in cli).  A target that no longer
exists is listed under "absent" instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from fractions import Fraction

FORM_BUILDERS = ("eisenstein", "delta", "eta", "eta_quotient", "j_invariant", "jstar",
                 "theta_nullwerte", "theta_full", "leech_theta", "partition_series",
                 "colored_partition_series", "xi_series", "F_oddsigma", "p_g_series",
                 "j_g_series")

# layer metric -> "module:attribute.path" of the entry points it covers
LAYERS = {
    "series.qmul": ("series:QSeries.__mul__", "series:QSeries.__rmul__"),
    "series.invert": ("series:QSeries.invert",),
    "series.log": ("series:log_series",),
    "series.exp": ("series:exp_series",),
    "series.prod_from_exp": ("series:product_from_exponents",),
    "series.exp_from_series": ("series:exponents_from_series",),
    "series.add": tuple(f"series:{cls}.{op}" for cls in ("QSeries", "BiSeries")
                        for op in ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__")),
    "series.bimul": ("series:BiSeries.__mul__", "series:BiSeries.__rmul__"),
    "series.bipow": ("series:BiSeries.__pow__", "series:BiSeries.pow_with_big_exponent"),
    "series.compare": ("series:QSeries.first_mismatch", "series:BiSeries.first_mismatch"),
    "forms.build": tuple(f"forms:{name}" for name in FORM_BUILDERS),
    "borcherds.catalog": ("borcherds:catalog", "borcherds:plus_space_check"),
    "borcherds.lift": ("borcherds:lift", "borcherds:zero_multiplicity",
                       "borcherds:fj_efactor_report"),
    "borcherds.hurwitz": ("borcherds:hurwitz",),
    "identities.sides": ("identities:identity_sides",),
    "identities.verify": ("identities:verify", "identities:verify_all"),
    "moonshine.denominator": ("moonshine:denominator_check", "moonshine:denominator_product"),
    "moonshine.replication": ("moonshine:replication_check", "moonshine:replication_product",
                              "moonshine:replication_exponent"),
    "moonshine.bi_exp": ("moonshine:bi_exp",),
    "mults.frenkel": ("mults:frenkel_compare", "mults:e10_level2_mult",
                      "mults:fake_monster_mult", "mults:ha1_mult"),
    "mults.rademacher": ("mults:p24_rademacher",),
    "vsys.psi": ("vsys:psi",),
    "vsys.check": ("vsys:elliptic_transform_check",),
    "maass.assemble": ("maass:assemble_maass", "maass:v_operator"),
    "maass.check": ("maass:maass_relation_check",),
    "maass.load": ("maass:JacobiCoeffTable.from_json", "maass:SiegelCoeffTable.from_json"),
    "cli.run": ("cli:run",),
}

MODULES = ("series", "forms", "borcherds", "identities", "moonshine", "mults", "vsys",
           "maass", "cli")


def _bits(x) -> int:
    if isinstance(x, Fraction):
        return max(abs(x.numerator).bit_length(), x.denominator.bit_length())
    return abs(x).bit_length() if isinstance(x, int) else 0


class Tracer:
    def __init__(self):
        self.self_s = {metric: 0.0 for metric in LAYERS}
        self.calls = {metric: 0 for metric in LAYERS}
        self.pairs = {"series.qmul": 0, "series.bimul": 0}
        self.bits_max = 0
        self.form_repeats = 0
        self.built = {}       # (builder, leading args) -> largest order built
        self.stack = []       # per open span: time covered by its children
        self.absent = []
        self.wrappers = set()
        self.before = {"forms.build": self._note_build}
        self.after = {"series.qmul": self._count_qmul, "series.bimul": self._count_bimul}

    # -- spans ----------------------------------------------------------------

    def _wrap(self, metric, fn):
        before = self.before.get(metric)
        after = self.after.get(metric)
        stack, clock = self.stack, time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if before:
                t = clock()
                before(fn, args, kwargs)
                if stack:
                    stack[-1] += clock() - t
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self.self_s[metric] += dt - stack.pop()
                self.calls[metric] += 1
                if stack:
                    stack[-1] += dt
            if after and result is not NotImplemented:
                t = clock()
                after(args, result)
                if stack:
                    stack[-1] += clock() - t
            return result

        self.wrappers.add(span)
        return span

    # -- counters -------------------------------------------------------------

    def _count_qmul(self, args, result):
        a, b = args[0], args[1]
        self.pairs["series.qmul"] += len(a.coeffs) * (len(b.coeffs) if hasattr(b, "coeffs") else 1)
        self.bits_max = max(self.bits_max, max(map(_bits, result.coeffs.values()), default=0))

    def _count_bimul(self, args, result):
        a, b = args[0], args[1]
        self.pairs["series.bimul"] += len(a.coeffs) * (len(b.coeffs) if hasattr(b, "coeffs") else 1)

    def _note_build(self, fn, args, kwargs):
        """Count a build of a form already built at this order or higher in this process."""
        order = kwargs.get("order", args[-1] if args else None)
        if not isinstance(order, int):
            return
        key = (fn.__name__, args if "order" in kwargs else args[:-1])
        if self.built.get(key, order - 1) >= order:
            self.form_repeats += 1
        self.built[key] = max(order, self.built.get(key, order))

    # -- installation ---------------------------------------------------------

    def install(self) -> float:
        """Import and patch every layer; returns the seconds spent patching."""
        modules = {}
        for name in MODULES:
            try:
                modules[name] = importlib.import_module(f"qmoon.{name}")
            except ImportError:
                pass
        t0 = time.perf_counter()
        holders = [m for m in sys.modules.values()
                   if getattr(m, "__name__", "").startswith("qmoon")]
        holders += [v for m in list(holders) for v in vars(m).values()
                    if isinstance(v, type) and v.__module__.startswith("qmoon")]
        for metric, targets in LAYERS.items():
            for target in targets:
                if not self._patch(metric, target, modules, holders):
                    self.absent.append(target)
        return time.perf_counter() - t0

    def _patch(self, metric, target, modules, holders) -> bool:
        mod_name, path = target.split(":")
        owner = modules.get(mod_name)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part, None)
        if owner is None:
            return False
        scopes = owner.__mro__ if isinstance(owner, type) else (owner,)
        raw = next((vars(s)[attr] for s in scopes if attr in vars(s)), None)
        if raw is None:
            return False
        if raw in self.wrappers or getattr(raw, "__func__", None) in self.wrappers:
            return True  # an alias of a target patched already
        if isinstance(raw, (staticmethod, classmethod)):
            replacement = type(raw)(self._wrap(metric, raw.__func__))
        elif callable(raw):
            replacement = self._wrap(metric, raw)
        else:
            return False
        for holder in holders:
            for key in [k for k, v in vars(holder).items() if v is raw]:
                setattr(holder, key, replacement)
        return True

    def dump(self, path, startup_s, patch_s):
        data = {"self_s": self.self_s, "calls": self.calls, "pairs": self.pairs,
                "bits_max": self.bits_max, "form_repeats": self.form_repeats,
                "startup_s": startup_s, "patch_s": patch_s, "absent": self.absent}
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(data, handle)


def main():
    out_path, spawned, argv = sys.argv[1], float(sys.argv[2]), sys.argv[3:]
    tracer = Tracer()
    patch_s = tracer.install()
    cli = importlib.import_module("qmoon.cli")
    entered = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        code = cli.run(argv)
    finally:
        sys.stdout.flush()
        tracer.dump(out_path, entered - spawned - patch_s, patch_s)
    sys.exit(code)


if __name__ == "__main__":
    main()
