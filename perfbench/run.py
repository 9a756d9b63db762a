"""Layered benchmark for qmoon's command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all       # every workload, default settings

Run from the root of a qmoon source tree.  Each op is a fresh
``python -m qmoon.cli ...`` process with PYTHONPATH set to the tree's src/
and QMOON_DEFAULT_ORDER removed, so every process meets cold caches, as a
user's does.  Load is a closed loop with one client: the next op starts when
the previous one has exited.  All processes are pinned to one CPU.  One
untimed invocation first writes the .pyc files.

Times are reported in seconds at reference speed.  The machine this was
built on changes speed by tens of percent within seconds, because other
tenants share its cores.  So a fixed reference computation (``reference.py``,
which imports nothing from qmoon) runs as its own process, back to back,
after every op for REF_SHARE of that op's time (at least once), and each op's
wall time is scaled by REF_S over the reference time around it: the mean of
the runs just before it and the mean of the runs just after it, averaged.
Raw wall times are kept in the results file and the summary.

With ``--trace 0`` the runner times ``setup_s`` (median of several trivial
invocations: interpreter start, ``import qmoon``, parser build, a theta
expansion at order 1), then runs passes over the workload's op list, each in
a fresh seeded order, until the next pass would overrun ``--seconds`` (at
least two passes), and reports the end-to-end metrics.  With ``--trace 1``
it alternates a plain pass with a pass through ``shim.py``, which wraps each
qmoon module's public functions from outside, and reports per-layer self
times and counts for one traced pass (median over traced passes) plus the
tracing overhead (traced minus plain pass time).

Every op's stdout is checked (see ``workloads.py``).  An op that printed a
traceback, left the contract's exit codes {0, 2, 3, 4}, ran past
OP_TIMEOUT_S, exited with the wrong code, printed the wrong output, or whose
stdout bytes changed between identical invocations counts as failed and
makes the run incorrect.  The one exception is a crash of an op listed in
``workloads.KNOWN_DEFECTS``: it counts as failed but leaves the run correct.  The last stdout line is one
JSON object; a readable summary goes to stderr and the full record, with
each op's times and stdout SHA-256, to
``perfbench/out/<workload>-seed<N>-trace<T>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

SETUP_ARGV = ("expand", "theta", "--order", "1")
SETUP_REPS = 11
MIN_PASSES = 2
OP_TIMEOUT_S = 90.0
RUN_BUDGET_S = 140.0  # no pass starts that would end a run past this
REF_S = 0.05          # reference.py's time at reference speed
REF_SHARE = 0.4       # reference time after each op, as a share of the op's time

END_TO_END = (("wall_s", "s"), ("op_p50_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))

PER_LAYER = (
    ("series.qmul.calls", "count"), ("series.qmul.self_s", "s"),
    ("series.qmul.pairs", "count"), ("series.qmul.bits_max", "bits"),
    ("series.invert.self_s", "s"), ("series.log.self_s", "s"), ("series.exp.self_s", "s"),
    ("series.prod_from_exp.self_s", "s"), ("series.exp_from_series.self_s", "s"),
    ("series.add.self_s", "s"),
    ("series.bimul.calls", "count"), ("series.bimul.self_s", "s"),
    ("series.bimul.pairs", "count"), ("series.bipow.self_s", "s"),
    ("series.compare.self_s", "s"),
    ("forms.build.calls", "count"), ("forms.build.self_s", "s"),
    ("forms.build.repeat_ratio", "ratio"),
    ("borcherds.catalog.self_s", "s"), ("borcherds.lift.self_s", "s"),
    ("borcherds.hurwitz.calls", "count"), ("borcherds.hurwitz.self_s", "s"),
    ("identities.sides.self_s", "s"), ("identities.verify.self_s", "s"),
    ("moonshine.denominator.self_s", "s"), ("moonshine.replication.self_s", "s"),
    ("moonshine.bi_exp.self_s", "s"),
    ("mults.frenkel.self_s", "s"), ("mults.rademacher.self_s", "s"),
    ("vsys.psi.self_s", "s"), ("vsys.check.self_s", "s"),
    ("maass.assemble.self_s", "s"), ("maass.check.self_s", "s"), ("maass.load.self_s", "s"),
    ("cli.startup_s", "s"), ("cli.run.self_s", "s"), ("cli.stdout_bytes", "bytes"),
    ("trace.overhead_s", "s"),
)

CONTRACT_EXITS = (0, 2, 3, 4)


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("QMOON_DEFAULT_ORDER", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _median(values):
    return statistics.median(values) if values else 0.0


class Runner:
    """Starts one process at a time through ``spawner.py`` and judges what qmoon printed."""

    def __init__(self, scratch: Path):
        self.scratch = scratch
        self.digests = {}    # op name -> stdout SHA-256 of its first run
        self.checked = {}    # (op name, digest) -> problem or None
        self.last_refs = None
        self.spawner = subprocess.Popen(
            [sys.executable, "-I", "-S", str(HERE / "spawner.py")], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT)

    def close(self):
        self.spawner.stdin.close()
        try:
            self.spawner.wait(timeout=OP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.spawner.kill()
            self.spawner.wait()

    def _run(self, cmd) -> dict:
        request = {"argv": cmd, "stdout": str(self.scratch / "stdout"),
                   "stderr": str(self.scratch / "stderr"), "timeout": OP_TIMEOUT_S}
        self.spawner.stdin.write(json.dumps(request) + "\n")
        self.spawner.stdin.flush()
        return json.loads(self.spawner.stdout.readline())

    def reference(self) -> float:
        return self._run([sys.executable, "-I", "-S", str(HERE / "reference.py")])["wall_s"]

    def spawn(self, argv, trace_path=None) -> dict:
        """Run one qmoon process, unscaled."""
        if trace_path is None:
            cmd = [sys.executable, "-m", "qmoon.cli", *argv]
        else:
            cmd = [sys.executable, str(HERE / "shim.py"), str(trace_path), "{spawned}", *argv]
        reply = self._run(cmd)
        return {"raw_s": reply["wall_s"], "exit": reply["exit"],
                "rss_mb": reply["maxrss_kb"] / 1024,
                "stdout": (self.scratch / "stdout").read_bytes(),
                "stderr": (self.scratch / "stderr").read_bytes()}

    def _references(self, seconds):
        """Reference times from back-to-back runs lasting at least ``seconds`` in all."""
        times = [self.reference()]
        while sum(times) < seconds:
            times.append(self.reference())
        return times

    def measure(self, argv, trace_path=None) -> dict:
        """Run one qmoon process between reference runs and scale its time.

        The reference runs after an op last REF_SHARE of its time, so a long
        op is compared with the machine's speed over a long window.
        """
        before = self.last_refs or self._references(0)
        sample = self.spawn(argv, trace_path)
        self.last_refs = self._references(REF_SHARE * sample["raw_s"])
        speed = (statistics.mean(before) + statistics.mean(self.last_refs)) / 2
        sample["scale"] = REF_S / speed
        sample["wall_s"] = sample["raw_s"] * sample["scale"]
        return sample

    def judge(self, op, sample):
        """('ok' | 'failed' | 'wrong', reason).

        'failed' is reserved for a crash of a known defect; any other crash,
        timeout or exit code outside the contract is 'wrong'.
        """
        code, stdout, stderr = sample["exit"], sample["stdout"], sample["stderr"]
        if b"Traceback (most recent call last)" in stderr or code not in CONTRACT_EXITS:
            tail = stderr.decode(errors="replace").strip().splitlines()[-1:] or [""]
            status = "failed" if op.name in workloads.KNOWN_DEFECTS else "wrong"
            return status, f"exit {code}: {tail[0][:160]}"
        if code != op.expect:
            return "wrong", f"exit {code}, contract says {op.expect}"
        digest = hashlib.sha256(stdout).hexdigest()
        if self.digests.setdefault(op.name, digest) != digest:
            return "wrong", "stdout bytes differ between identical invocations"
        key = (op.name, digest)
        if key not in self.checked:
            try:
                self.checked[key] = op.check(stdout.decode())
            except Exception as exc:  # output the check cannot read is a wrong answer
                self.checked[key] = f"unreadable output: {type(exc).__name__}: {exc}"
        problem = self.checked[key]
        return ("wrong", problem) if problem else ("ok", "")

    def run_pass(self, ops, rng, traced=False) -> list:
        """One pass over the ops in a fresh seeded order; checks run after the timed part."""
        order = list(ops)
        rng.shuffle(order)
        trace_path = self.scratch / "trace.json"
        done = []
        for op in order:
            sample = self.measure(op.argv, trace_path if traced else None)
            sample["trace"] = _read_trace(trace_path) if traced else None
            done.append((op, sample))
        for op, sample in done:
            sample["status"], sample["reason"] = self.judge(op, sample)
            sample["op"] = op.name
            sample["stdout_bytes"] = len(sample["stdout"])
            sample["sha256"] = hashlib.sha256(sample.pop("stdout")).hexdigest()
            del sample["stderr"]
        return [sample for _, sample in done]


def _read_trace(path: Path):
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    path.unlink()
    return data


def _until_spent(run_one, seconds, min_passes):
    """Call run_one() until another call of the same length would pass the time limit."""
    start, results = time.perf_counter(), []
    while True:
        t0 = time.perf_counter()
        results.append(run_one())
        took = time.perf_counter() - t0
        elapsed = time.perf_counter() - start
        if len(results) >= min_passes and elapsed + took > min(seconds, RUN_BUDGET_S):
            return results


def _tail(values):
    """The highest percentile with at least ten samples beyond it, where that is a tail."""
    if len(values) < 100:
        return None
    ranked = sorted(values)
    idx = len(ranked) - 11
    return {"value": ranked[idx], "percentile": round(100 * (idx + 1) / len(ranked), 1),
            "samples": len(ranked)}


def measure_end_to_end(runner, ops, rng, seconds):
    setup = [runner.measure(SETUP_ARGV) for _ in range(SETUP_REPS)]
    passes = _until_spent(lambda: runner.run_pass(ops, rng), seconds, MIN_PASSES)
    samples = [s for p in passes for s in p]
    metrics, raw = {}, {}
    for key, out in (("wall_s", metrics), ("raw_s", raw)):
        out["wall_s"] = _median([sum(s[key] for s in p) for p in passes])
        out["op_p50_s"] = _median([s[key] for s in samples])
        out["setup_s"] = _median([s[key] for s in setup])
    metrics["peak_rss_mb"] = max(s["rss_mb"] for s in samples)
    counts = {"wall_s": len(passes), "op_p50_s": len(samples), "peak_rss_mb": len(samples),
              "setup_s": len(setup)}
    extra = {"raw_seconds": raw}
    tail = _tail([s["wall_s"] for s in samples])
    if tail:
        extra["op_tail_s"] = {**tail, "unit": "s",
                              "raw_value": _tail([s["raw_s"] for s in samples])["value"]}
    return {name: metrics[name] for name, _ in END_TO_END}, counts, extra, samples


def _layer_totals(samples):
    """Per-layer metrics over one traced pass; times scaled like the op they came from."""
    traced = [(s["trace"], s["scale"]) for s in samples if s["trace"]]
    total, calls = {}, {}
    for t, scale in traced:
        for layer, value in t["self_s"].items():
            total[f"{layer}.self_s"] = total.get(f"{layer}.self_s", 0.0) + value * scale
        for layer, value in t["calls"].items():
            calls[layer] = calls.get(layer, 0) + value
    for layer in ("series.qmul", "series.bimul", "forms.build", "borcherds.hurwitz"):
        total[f"{layer}.calls"] = calls.get(layer, 0)
    total["series.qmul.pairs"] = sum(t["pairs"]["series.qmul"] for t, _ in traced)
    total["series.bimul.pairs"] = sum(t["pairs"]["series.bimul"] for t, _ in traced)
    total["series.qmul.bits_max"] = max((t["bits_max"] for t, _ in traced), default=0)
    builds = calls.get("forms.build", 0)
    total["forms.build.repeat_ratio"] = (
        sum(t["form_repeats"] for t, _ in traced) / builds if builds else 0.0)
    total["cli.startup_s"] = _median([t["startup_s"] * scale for t, scale in traced])
    total["cli.stdout_bytes"] = sum(s["stdout_bytes"] for s in samples)
    absent = {a for t, _ in traced for a in t["absent"]}
    patch_s = _median([t["patch_s"] * scale for t, scale in traced])
    return {name: total.get(name, 0.0) for name, _ in PER_LAYER}, absent, patch_s


def measure_layers(runner, ops, rng, seconds):
    def pair():
        return runner.run_pass(ops, rng), runner.run_pass(ops, rng, traced=True)

    pairs = _until_spent(pair, seconds, 1)
    per_pass, absent, patch = [], set(), []
    for _, traced in pairs:
        totals, missing, patch_s = _layer_totals(traced)
        per_pass.append(totals)
        absent |= missing
        patch.append(patch_s)
    metrics = {name: _median([p[name] for p in per_pass]) for name, _ in PER_LAYER}
    plain_s = _median([sum(s["wall_s"] for s in plain) for plain, _ in pairs])
    traced_s = _median([sum(s["wall_s"] for s in traced) for _, traced in pairs])
    metrics["trace.overhead_s"] = traced_s - plain_s
    counts = {name: len(per_pass) for name, _ in PER_LAYER}
    extra = {"absent_targets": sorted(absent), "plain_pass_s": plain_s,
             "traced_pass_s": traced_s, "trace_patch_s": _median(patch)}
    return metrics, counts, extra, [s for p in pairs for s in p[0] + p[1]]


def _commit():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _src_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_workload(name, seed, seconds, trace):
    scratch = OUT / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    ops = workloads.build(name, seed, OUT / "inputs" / f"{name}-seed{seed}")
    info = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
            "python": platform.python_version(), "commit": _commit(),
            "src_sha256": _src_digest(), "nproc": os.cpu_count(),
            "cpus_used": sorted(os.sched_getaffinity(0)), "loadavg_start": os.getloadavg(),
            "ref_s": REF_S}
    runner = Runner(scratch)
    try:
        runner.spawn(("expand", "j", "--order", "5"))  # untimed: writes the .pyc files
        rng = random.Random(f"order:{name}:{seed}")
        measure = measure_layers if trace else measure_end_to_end
        metrics, counts, extra, samples = measure(runner, ops, rng, seconds)
    finally:
        runner.close()
    info["loadavg_end"] = os.getloadavg()

    units = dict(PER_LAYER if trace else END_TO_END)
    failed = sum(s["status"] != "ok" for s in samples)
    ops_record = {op.name: {"argv": list(op.argv), "expect": op.expect,
                            "known_defect": op.name in workloads.KNOWN_DEFECTS,
                            "wall_s": [], "raw_s": [], "status": "ok", "reason": ""}
                  for op in ops}
    for s in samples:
        rec = ops_record[s["op"]]
        rec["wall_s"].append(s["wall_s"])
        rec["raw_s"].append(s["raw_s"])
        if rec["status"] == "ok":
            rec.update(exit=s["exit"], sha256=s["sha256"], status=s["status"],
                       reason=s["reason"])
    for rec in ops_record.values():
        rec["median_s"] = _median(rec["wall_s"])
        rec["raw_median_s"] = _median(rec["raw_s"])
    record = {**info, "metrics": {k: {"value": v, "unit": units[k], "samples": counts[k]}
                                  for k, v in metrics.items()},
              **extra, "attempted": len(samples), "failed": failed,
              "fail_ratio": failed / len(samples), "ops": ops_record}
    (OUT / f"{name}-seed{seed}-trace{trace}.json").write_text(json.dumps(record, indent=1))
    _summary(record)
    return {"correct": not any(s["status"] == "wrong" for s in samples),
            "attempted": len(samples), "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


def _summary(record):
    def say(text):
        print(text, file=sys.stderr)

    say(f"perfbench {record['workload']} seed={record['seed']} trace={record['trace']} "
        f"python={record['python']} commit={record['commit'] or 'unknown'} "
        f"nproc={record['nproc']} load={record['loadavg_start'][0]:.2f}"
        f"->{record['loadavg_end'][0]:.2f}  (times in s at reference speed)")
    raw = record.get("raw_seconds", {})
    for name, m in record["metrics"].items():
        note = f"  raw {raw[name]:.6g} s" if name in raw else ""
        say(f"  {name:32s} {m['value']:14.6g} {m['unit']:6s} n={m['samples']}{note}")
    if "op_tail_s" in record:
        tail = record["op_tail_s"]
        say(f"  {'op_tail_s':32s} {tail['value']:14.6g} s      p{tail['percentile']} "
            f"n={tail['samples']}  raw {tail['raw_value']:.6g} s")
    if "trace_patch_s" in record:
        say(f"  tracer patching per op, median (not in cli.startup_s): "
            f"{record['trace_patch_s']:.6g} s")
    if record.get("absent_targets"):
        say(f"  absent trace targets, counted as 0: {', '.join(record['absent_targets'])}")
    say(f"  {'fail_ratio':32s} {record['fail_ratio']:14.6g} ratio  "
        f"{record['failed']}/{record['attempted']}")
    for name, op in record["ops"].items():
        flag = "" if op["status"] == "ok" else f"  {op['status'].upper()}: {op['reason']}"
        if op["known_defect"] and op["status"] != "ok":
            flag += "  (known defect)"
        say(f"    {op['median_s']:8.3f} s  {name}{flag}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qmoon" / "cli.py").is_file():
        print(f"perfbench: no qmoon source tree at {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {name: run_workload(name, args.seed, args.seconds, args.trace) for name in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{name}/{k}": v for name, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
