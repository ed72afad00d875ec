"""End-to-end benchmark of the posetdual CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload verify --seed 1 --seconds 25 --trace 0

Generates the workload's input files from the seed under .perfbench_out/,
times loading them (set-up), then runs the workload's CLI ops through
``posetdual.cli.main(argv)`` in this process as a single-threaded closed
loop - one op at a time, the next only after the previous returns - in
passes over all ops until the next pass would overrun ``--seconds``.  Every
op's exit code, stderr and stdout are checked; stdout goes to a sink that
counts and hashes it.  The last line printed is one JSON object with the
result.

With ``--trace 1`` the ops run once untraced and are then replayed with
spans (and once more with counters), and the per-layer metrics are printed
instead; see perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import random
import resource
import signal
import statistics
import sys
import time
import traceback
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 9
SETUP_ROUND_S = 0.2
KINDS = (
    "check", "transform_es", "transform_se", "checkpoints",
    "downsets", "antichains", "predicate_count", "predicate_first",
)
RATE_KINDS = ("downsets", "antichains")  # reported as cut lines per second


def _import_posetdual():
    """Import posetdual from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "posetdual" / "__init__.py").is_file():
        sys.exit(f"perfbench: no posetdual sources under {src}")
    sys.path.insert(0, str(src))
    import posetdual

    if Path(posetdual.__file__).resolve().parent != (src / "posetdual").resolve():
        sys.exit(f"perfbench: imported posetdual from {posetdual.__file__}, not {src}")


class Sink:
    """Stand-in for stdout: counts and hashes the text; keeps it only if asked."""

    def __init__(self, keep: bool = False):
        self._hash = hashlib.blake2b(digest_size=16)
        self.nbytes = 0
        self.lines = 0
        self._tail = ""
        self._chunks: list[str] | None = [] if keep else None

    def write(self, s: str) -> int:
        data = s.encode()
        self._hash.update(data)
        self.nbytes += len(data)
        self.lines += s.count("\n")
        self._tail = (self._tail + s)[-512:]
        if self._chunks is not None:
            self._chunks.append(s)
        return len(s)

    def flush(self) -> None:
        pass

    @property
    def digest(self) -> str:
        return self._hash.hexdigest()

    @property
    def last_line(self) -> str:
        lines = self._tail.splitlines(keepends=True)
        return lines[-1] if lines else ""

    @property
    def text(self) -> str | None:
        return None if self._chunks is None else "".join(self._chunks)


class Calibration:
    """Samples the machine's speed while the timed steps run.

    A shared virtual machine can change speed by tens of percent for
    minutes at a time (other tenants), and by more for fractions of a
    second.  A timer signal every PERIOD_S runs a fixed chunk of pure-Python
    work (recursion and small-int compares, dict lookups with big-int
    shifts, sorting and JSON lines, big-int bitset closure: the kinds of
    work posetdual does) and times it, so the samples spread evenly over
    the ops, inside them too.  The time spent in samples is taken out of
    each step's time (``paused``), and times are reported at a reference
    speed: measured seconds times REF_SAMPLE_S over the mean sample time.
    The chunk is benchmark code and runs with the garbage collector off, so
    posetdual's allocations cannot make it pay for collecting posetdual's
    objects; the README (Machine speed) records a check that a slower
    posetdual reads slower by the same ratio.
    """

    REF_SAMPLE_S = 0.003  # fastest sample seen on the reference machine (README)
    PERIOD_S = 0.1

    def __init__(self):
        import gen

        rng = random.Random("perfbench-calibration")
        self._run = gen.gen_run(rng, 4, 8, 4, window=8)
        self._down = self._run.state_down()
        self._covers = gen.state_covers
        # An order-sized table, as large as a verify trace's: 700 states.
        ids = [f"{i}.{r}" for i in range(1, 11) for r in range(70)]
        self._index = {s: i for i, s in enumerate(ids)}
        self._masks = [rng.getrandbits(len(ids)) for _ in ids]
        self._pairs = [(rng.choice(ids), rng.choice(ids)) for _ in range(6000)]
        self._dag = [
            sum(1 << t for t in {rng.randrange(v + 1, 600) for _ in range(4)}) if v < 599 else 0
            for v in range(600)
        ]
        self.times: list[float] = []
        self.paused = 0.0

    def _chunk(self) -> None:
        self._run.count_cuts()
        self._covers(self._down)
        for _, frontier in zip(range(150), self._run.frontiers()):
            json.dumps({"cut": sorted(f"{i}.{r}" for i, r in enumerate(frontier))})
        index, masks = self._index, self._masks
        for a, b in self._pairs:
            masks[index[a]] >> index[b] & 1
        up = [0] * len(self._dag)
        for v in reversed(range(len(self._dag))):
            acc = mask = self._dag[v]
            while mask:
                low = mask & -mask
                acc |= up[low.bit_length() - 1]
                mask ^= low
            up[v] = acc

    def _sample(self, signum=None, frame=None) -> None:
        collecting = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        self._chunk()
        dt = time.perf_counter() - t0
        if collecting:
            gc.enable()
        self.times.append(dt)
        self.paused += dt

    @contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    @property
    def factor(self) -> float:
        """Reference speed over the measured speed (1.0: as fast as reference)."""
        return self.REF_SAMPLE_S / statistics.mean(self.times)


def run_op(op, calibration: Calibration | None = None):
    """Run one op through cli.main; returns (Output, failure or None).

    The op's time leaves out the calibration samples taken during it.
    """
    from posetdual import cli
    from workloads import Output

    out, err = Sink(keep=op.keep), Sink(keep=True)
    saved = sys.stdout, sys.stderr
    gc.collect()
    sys.stdout, sys.stderr = out, err
    crash = None
    paused = calibration.paused if calibration else 0.0
    t0 = time.perf_counter()
    try:
        rc = cli.main(op.argv)
    except SystemExit as exc:
        rc = exc.code
    except Exception:
        rc, crash = None, traceback.format_exc()
    seconds = time.perf_counter() - t0
    if calibration:
        seconds -= calibration.paused - paused
    sys.stdout, sys.stderr = saved
    result = Output(rc, seconds, out.digest, out.nbytes, out.lines, out.last_line, out.text, err.text)
    if crash is not None:
        return result, "raised: " + crash.strip().splitlines()[-1]
    if "Traceback" in result.stderr:
        return result, "printed a traceback"
    if rc != op.rc:
        return result, f"exit code {rc}, expected {op.rc}: {result.stderr.strip()[:200]}"
    try:
        problem = op.check(result)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        problem = f"unreadable output: {exc!r}"
    return result, problem


def setup_seconds(paths: list[str], calibration: Calibration) -> float:
    """Median time to load every input once with traces.load_trace.

    Each of SETUP_REPEATS rounds loads everything often enough to take
    SETUP_ROUND_S.
    """
    from posetdual import traces

    def load_all(times: int) -> float:
        gc.collect()
        paused = calibration.paused
        t0 = time.perf_counter()
        for _ in range(times):
            for path in paths:
                traces.load_trace(path)
        return time.perf_counter() - t0 - (calibration.paused - paused)

    per_round = max(1, math.ceil(SETUP_ROUND_S / load_all(1)))
    return statistics.median(load_all(per_round) / per_round for _ in range(SETUP_REPEATS))


def code_key() -> str:
    """Hash of posetdual's and the benchmark's sources: 'the same code'."""
    h = hashlib.blake2b(digest_size=12)
    for base in (ROOT / "src" / "posetdual", ROOT / "perfbench"):
        for path in sorted(base.rglob("*.py")):
            h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


class Ledger:
    """Counts attempted and failed ops; flags output hashes that change.

    An op's hash must be the same on every pass of a run and on every run of
    the same code with the same seed (kept under .perfbench_out/hashes).
    """

    def __init__(self, workload: str, seed: int):
        self.path = OUT / "hashes" / f"{code_key()}-{workload}-{seed}.json"
        try:
            self.known = json.loads(self.path.read_text())
        except (OSError, ValueError):
            self.known = {}
        self.seen: dict[str, str] = {}
        self.attempted = self.failed = 0
        self.problems: list[str] = []

    def record(self, op, result, problem) -> None:
        self.attempted += 1
        want = self.seen.setdefault(op.name, self.known.get(op.name, result.digest))
        if problem is None and result.digest != want:
            problem = f"output hash {result.digest} differs from earlier run's {want}"
        if problem is not None:
            self.failed += 1
            self.problems.append(f"{op.name}: {problem}")

    def save(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.seen, indent=1, sort_keys=True))
        os.replace(tmp, self.path)


def kind_summary(ops, results) -> dict:
    """Per op kind: summed seconds, or cut lines per second for cuts."""
    secs = {k: 0.0 for k in KINDS}
    items = {k: 0 for k in KINDS}
    for op, res in zip(ops, results):
        secs[op.kind] += res.seconds
        items[op.kind] += op.items
    out = {}
    for k in KINDS:
        if k in RATE_KINDS:
            out[f"{k}_per_s"] = items[k] / secs[k] if secs[k] else 0.0
        else:
            out[f"{k}_s"] = secs[k]
    return out


def timed_run(wl, seconds: float, ledger: Ledger) -> dict:
    setup_calibration, calibration = Calibration(), Calibration()
    with setup_calibration.sampling():
        setup = setup_seconds(wl.traces, setup_calibration)
    passes = []
    start = time.perf_counter()
    with calibration.sampling():
        while True:
            t0 = time.perf_counter()
            results = []
            for op in wl.ops:
                result, problem = run_op(op, calibration)
                ledger.record(op, result, problem)
                results.append(result)
            passes.append(results)
            now = time.perf_counter()
            if now - start + (now - t0) > seconds:
                break
    factor = calibration.factor
    per_pass = [kind_summary(wl.ops, r) for r in passes]
    # The per-kind split at reference speed, like ops_s.
    detail = {
        key: statistics.median(p[key] for p in per_pass) * (1 / factor if key.endswith("_per_s") else factor)
        for key in per_pass[0]
        if any(p[key] for p in per_pass)
    }
    ops = statistics.median(sum(r.seconds for r in p) for p in passes)
    detail.update(passes=len(passes), raw_ops_s=ops, raw_setup_s=setup,
                  speed_factor=factor, setup_speed_factor=setup_calibration.factor,
                  calibration_samples=len(calibration.times))
    print("perfbench detail:", json.dumps(detail, sort_keys=True))
    return {
        "ops_s": (ops * factor, "s"),
        "setup_s": (setup * setup_calibration.factor, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def traced_run(wl, seed: int, ledger: Ledger) -> dict:
    """One pass: each op untraced, then replayed with spans, then counted."""
    from tracing import Counter, Tracer, replay

    tracer, counter = Tracer(), Counter()
    untraced, facts = [], []
    for op in wl.ops:
        result, problem = run_op(op)
        untraced.append(result)
        gc.collect()
        tracer.op = op.name
        sink = Sink()
        with tracer.install(), tracer.span("cli.main"):
            facts.append(replay(op.argv, sink, tracer))
        if problem is None and sink.digest != result.digest:
            problem = "replay output differs from the CLI's"
        ledger.record(op, result, problem)
        with counter.install():
            replay(op.argv, Sink())
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{wl.name}-{seed}.jsonl")
    return layer_metrics(wl, tracer, counter, untraced, facts)


def layer_metrics(wl, tracer, counter, untraced, facts) -> dict:
    own = tracer.self_times()
    by_name: dict[str, list] = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)

    def self_s(*names):
        return sum(own[s.id] for n in names for s in by_name.get(n, ()))

    def spans(name):
        return by_name.get(name, [])

    def per_item_us(name):
        items = sum(s.items for s in spans(name))
        return 1e6 * sum(s.busy for s in spans(name)) / items if items else 0.0

    evals = [s for s in spans("lattice.enumerate_width_antichains")
             if s.parent is not None and tracer.spans[s.parent].name == "analysis.detect_width_predicate"]
    n_evals = sum(s.items for s in evals)
    first_ops = {op.name for op in wl.ops if op.kind == "predicate_first"}
    first_positions = [s.items for s in evals if s.op in first_ops]
    checkpoint_engines = [f["engine"] for f in facts if "engine" in f]
    roots = spans("cli.main")
    untraced_s = sum(r.seconds for r in untraced)

    m = {
        "traces.load_s": (self_s("traces.load_trace", "traces.load_marks", "traces.load_predicate_data"), "s"),
        "traces.emit_s": (self_s("traces.dumps_canonical", "traces.state_to_json", "traces.event_to_json"), "s"),
        "traces.out_bytes": (sum(r.out_bytes for r in untraced), "bytes"),
        "poset.build_s": (self_s("poset.build_poset"), "s"),
        "poset.width_s": (self_s("poset.width"), "s"),
        "eventmodel.build_s": (self_s("eventmodel.build_event_model"), "s"),
        "statemodel.build_s": (self_s("statemodel.build_state_model"), "s"),
        "statemodel.omega12_s": (self_s("statemodel.check_omega1", "statemodel.check_omega2"), "s"),
        "statemodel.omega3_s": (self_s("statemodel.check_omega3"), "s"),
        "statemodel.psi_s": (self_s("statemodel.check_psi"), "s"),
        "statemodel.we_s": (self_s("statemodel.check_width_extensible"), "s"),
        "statemodel.ic_s": (self_s("statemodel.check_interleaving_consistent"), "s"),
        "transforms.es_s": (self_s("transforms.es_transform"), "s"),
        "transforms.se_s": (self_s("transforms.se_transform"), "s"),
        "transforms.transition_graph_s": (self_s("transforms.transition_graph"), "s"),
        "transforms.scc_s": (self_s("transforms.strongly_connected_components"), "s"),
        "lattice.items": (sum(s.items for s in spans("lattice.enumerate_downsets")), "count"),
        "lattice.downsets_us_per_item": (per_item_us("lattice.enumerate_downsets"), "us"),
        "lattice.antichains_us_per_item": (per_item_us("lattice.enumerate_width_antichains"), "us"),
        "lattice.first_antichain_s": (
            sum(s.first or 0.0 for s in spans("lattice.enumerate_width_antichains")), "s"),
        "analysis.predicate_evals": (n_evals, "count"),
        "analysis.predicate_us_per_eval": (
            1e6 * self_s("analysis.detect_width_predicate") / n_evals if n_evals else 0.0, "us"),
        "analysis.first_match_position": (
            statistics.mean(first_positions) if first_positions else 0.0, "count"),
        "analysis.checkpoints_s": (self_s("analysis.find_useless_checkpoints"), "s"),
        "analysis.checkpoint_engine": (
            checkpoint_engines.count("fast") / len(checkpoint_engines) if checkpoint_engines else 0.0,
            "frac"),
        "cli.overhead_s": (self_s("cli.main"), "s"),
        "cli.trace_overhead_frac": ((sum(s.busy for s in roots) - untraced_s) / untraced_s, "frac"),
    }
    for name, value in counter.counts.items():
        m[name] = (value, "count")
    for key, value in kind_summary(wl.ops, untraced).items():
        m["cli." + key] = (value, "lines/s" if key.endswith("_per_s") else "s")

    # Per op: how much of the untraced time the layer spans do not cover.
    # That gap is the CLI's own work plus any layer work reached through a
    # binding WRAPPED misses.  The traced cli.main self time should match
    # it, up to the tracing cost and the machine's drift between the two
    # single-shot timings.
    layers: dict[str, float] = {}
    cli_self: dict[str, float] = {}
    for s in tracer.spans:
        into = cli_self if s.name == "cli.main" else layers
        into[s.op] = into.get(s.op, 0.0) + own[s.id]
    rows = [(op.name, res.seconds, layers.get(op.name, 0.0), cli_self.get(op.name, 0.0))
            for op, res in zip(wl.ops, untraced)]
    rows.append(("all ops", untraced_s, sum(layers.values()), sum(cli_self.values())))
    for name, seconds, layer_s, cli_s in rows:
        print(
            f"perfbench accounting: {name}: untraced {seconds:.4f} s - layer spans {layer_s:.4f} s "
            f"= {seconds - layer_s:.4f} s; traced cli.overhead_s {cli_s:.4f} s"
        )
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_posetdual()
    import workloads

    if args.workload not in workloads.BUILDERS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.BUILDERS)}")
    os.chdir(ROOT)
    wl = workloads.build(args.workload, args.seed, OUT / "inputs" / args.workload)
    ledger = Ledger(args.workload, args.seed)
    if args.trace:
        metrics = traced_run(wl, args.seed, ledger)
    else:
        metrics = timed_run(wl, args.seconds, ledger)
    ledger.save()
    print("perfbench hashes:", json.dumps(ledger.seen, sort_keys=True))
    for problem in ledger.problems[:20]:
        print("perfbench failure:", problem)
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
