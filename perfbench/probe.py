"""Scale probe: each layer timed once per size, outside the benchmark runs.

Usage (from the repository root):

    python3 perfbench/probe.py [--out perfbench/results/scale_probe.json]

Sizes are the ROADMAP table's (n processes x k events, m messages, no shared
events), plus single chains for build_poset + width.  Each call gets a
wall-clock timeout of TIMEOUT_S; a call that hits it is recorded as
"timeout", and the size stays in the file.  A call that fails (posetdual's
matching recurses once per chain element) is recorded as "error:
<exception>".  Inputs come from the benchmark's generator with a fixed
seed, and every call gets freshly loaded models, so no call profits from a
width another call cached.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402
from posetdual import lattice, statemodel, traces, transforms  # noqa: E402
from posetdual.poset import build_poset, width  # noqa: E402

SIZES = [(4, 100, 100), (8, 100, 300), (16, 100, 800), (32, 60, 1500)]
CHAINS = [500, 2000, 10_000]
SEED = 1
TIMEOUT_S = 60.0  # per call
PROPERTIES = ["omega1", "omega2", "omega3", "psi", "we", "ic"]


class Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise Timeout


def timed(fn):
    """Seconds one call of *fn* takes, "timeout" past TIMEOUT_S, or the error."""
    signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, TIMEOUT_S)
    t0 = time.perf_counter()
    try:
        fn()
    except Timeout:
        return "timeout"
    except (RecursionError, MemoryError) as exc:
        return f"error: {type(exc).__name__}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return round(time.perf_counter() - t0, 4)


def probe_size(n: int, k: int, m: int) -> dict:
    run = gen.gen_run(random.Random(f"probe:{SEED}:{n}x{k}"), n, k, m)
    down = run.state_down()
    event_doc = run.event_doc()
    state_doc = gen.state_doc(down, run.lengths)
    relations = [tuple(r) for r in state_doc["relations"]]
    row = {"size": f"{n}x{k}", "events": sum(run.lengths), "messages": m}
    calls = {
        "build_poset": lambda sm: build_poset(state_doc["elements"], relations),
        "es": lambda em: transforms.es_transform(em),
        "se": lambda sm: transforms.se_transform(sm),
        "width": lambda sm: width(sm.poset),
        "we": lambda sm: statemodel.check_width_extensible(sm.poset),
        "psi": lambda sm: statemodel.check_psi(sm),
        "omega3": lambda sm: statemodel.check_omega3(sm),
        "ic": lambda sm: statemodel.check_interleaving_consistent(sm.poset),
        "check": lambda sm: statemodel.run_property_checks(sm, PROPERTIES),
    }
    for name, call in calls.items():
        model = traces.parse_event(event_doc) if name == "es" else traces.parse_state(state_doc)
        row[name] = timed(lambda: call(model))
        print(row["size"], name, row[name], flush=True)
    return row


def probe_chain(length: int) -> dict:
    ids = [f"1.{r}" for r in range(length)]

    def build_and_width():
        width(build_poset(ids, list(zip(ids, ids[1:]))))

    row = {"size": f"chain-{length}", "build_poset+width": timed(build_and_width)}
    print(row, flush=True)
    return row


def probe_enumeration() -> dict:
    """Per-item cost of the enumerators on 4x10 with no messages (14641 cuts)."""
    run = gen.gen_run(random.Random("probe-enum"), 4, 10, 0)
    em = traces.parse_event(run.event_doc())
    sm = traces.parse_state(gen.state_doc(run.state_down(), run.lengths))
    row = {"size": "4x10", "cuts": run.count_cuts()}
    for name, make in (
        ("downsets_us_per_cut", lambda: lattice.enumerate_event_cuts(em)),
        ("antichains_us_per_cut", lambda: lattice.enumerate_width_antichains(sm)),
    ):
        t0 = time.perf_counter()
        count = sum(1 for _ in make())
        row[name] = round(1e6 * (time.perf_counter() - t0) / count, 3)
    print(row, flush=True)
    return row


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def main() -> int:
    parser = argparse.ArgumentParser(description="posetdual scale probe")
    parser.add_argument("--out", default=str(ROOT / "perfbench" / "results" / "scale_probe.json"))
    args = parser.parse_args()
    result = {
        "python": platform.python_version(),
        "machine": f"{cpu_model()}, {os.cpu_count()} CPUs",
        "timeout_s": TIMEOUT_S,
        "seed": SEED,
        "units": "seconds per call, one call each",
        "sizes": [probe_size(n, k, m) for n, k, m in SIZES],
        "chains": [probe_chain(length) for length in CHAINS],
        "enumeration": probe_enumeration(),
    }
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(result, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
