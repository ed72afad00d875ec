"""Byte identity at scale: each command's output against a committed digest.

The inputs are regenerated from ``perfbench/gen.py`` (read only), as in CI:
the state traces of ``gen_run(Random("scale:NxK"), N, K, N*K//2)`` at
32x300 and 64x200, the 8x60 run composed in parallel with the pinch
gadget (``gen.add_pinch``), whose ``we`` and ``se`` fail, and a 16x100
barrier run (``gen_run(Random("scale:16x100:barrier"), 16, 100, 800,
shared_frac=0.2)``), whose default ``check`` names a failing ``ic``
witness on Kuhn's minimum chain partition.  Each command runs
in process through ``cli.main``; its exit code and the sha256 of its stdout
(of the written file, for ``transform -o``) must equal the row of
``fixtures/goldens/scale_digests.json``.  A change to any output byte of the
chain checks, both transforms, checkpoint analysis or predicate detection on
these inputs fails the row of its command.  At each size, ``es`` of
``se``'s output must also print the state file ``se`` read, byte for byte.
"""

import hashlib
import json
import random
import sys
from pathlib import Path

from posetdual.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import gen  # noqa: E402

TABLE = Path(__file__).resolve().parent.parent / "fixtures" / "goldens" / "scale_digests.json"

FAILING_CHECK = "omega1,omega2,omega3,psi,we"


def _write(path: Path, doc: dict) -> str:
    path.write_text(gen.dumps_canonical(doc))
    return str(path)


def scale_commands(directory: Path) -> list[tuple[str, list[str], str | None]]:
    """Write the inputs into *directory*; return ``(row, argv, output file)``
    per command, in the order they must run (``es`` reads ``se``'s file)."""
    commands = []
    for n, k in ((32, 300), (64, 200)):
        tag = f"{n}x{k}"
        run = gen.gen_run(random.Random(f"scale:{tag}"), n, k, n * k // 2)
        state = _write(directory / f"{tag}.json", gen.state_doc(run.state_down(), run.lengths))
        events = str(directory / f"{tag}.ev.json")
        # Every third state plus the final one.
        marks = _write(directory / f"{tag}.marks.json", {
            "kind": "marks", "version": 1,
            "marks": [list(range(0, top, 3)) + [top] for top in run.lengths],
        })
        pred = _write(directory / f"{tag}.pred.json", {
            "kind": "predicate", "version": 1,
            "expr": {"op": "and", "args": [
                {"op": "index", "proc": i, "cmp": ">=", "value": top // 2}
                for i, top in enumerate(run.lengths, start=1)
            ]},
        })
        commands += [
            (f"{tag} validate", ["validate", state], None),
            (f"{tag} check", ["check", state], None),
            (f"{tag} se", ["transform", state, "--direction", "se", "-o", events], events),
            (f"{tag} es", ["transform", events, "--direction", "es"], None),
            (f"{tag} checkpoints",
             ["analyze", "checkpoints", "--model", state, "--marks", marks], None),
            (f"{tag} predicate first",
             ["analyze", "predicate", "--model", state, "--pred", pred, "--first"], None),
        ]
    run = gen.gen_run(random.Random("scale:8x60"), 8, 60, 8 * 60 // 2)
    down, _ = gen.add_pinch(run.state_down(), run.n)
    pinch = _write(directory / "8x60.pinch.json", gen.state_doc(down, run.lengths + [2, 1]))
    commands += [
        ("8x60+pinch check omegas psi we", ["check", pinch, "--properties", FAILING_CHECK], None),
        ("8x60+pinch check", ["check", pinch], None),
        ("8x60+pinch se", ["transform", pinch, "--direction", "se"], None),
    ]
    run = gen.gen_run(random.Random("scale:16x100:barrier"), 16, 100, 800, shared_frac=0.2)
    barrier = _write(directory / "16x100.barrier.json", gen.state_doc(run.state_down(), run.lengths))
    commands.append(("16x100 barrier check", ["check", barrier], None))
    return commands


def run_commands(directory: Path, capsys) -> tuple[dict[str, dict], dict[str, bytes]]:
    """Each command's exit code and output digest, and its output, by row
    name."""
    rows, outputs = {}, {}
    for name, argv, output in scale_commands(directory):
        rc = main(argv)
        out = capsys.readouterr().out
        data = outputs[name] = Path(output).read_bytes() if output else out.encode()
        rows[name] = {"rc": rc, "sha256": hashlib.sha256(data).hexdigest()}
        if output:
            rows[name]["stdout"] = out
    return rows, outputs


def test_scale_outputs_equal_digest_table(tmp_path, capsys):
    want = json.loads(TABLE.read_text())
    got, outputs = run_commands(tmp_path, capsys)
    assert list(got) == list(want)
    # The hashes quoted for these inputs before the table was written.
    assert want["32x300 check"]["sha256"].startswith("93128c64c42b")
    assert want["32x300 checkpoints"]["sha256"].startswith("95266b85eb09")
    # The barrier row's digest, taken before the matching searched on
    # reversed up-sets; its ic fails, so the witness is named on Kuhn's
    # partition.
    assert want["16x100 barrier check"]["sha256"].startswith("26e737ad7ecc")
    assert json.loads(outputs["16x100 barrier check"])["ic"]["ok"] is False
    mismatched = [name for name in want if got[name] != want[name]]
    assert not mismatched, {name: got[name] for name in mismatched}
    for tag in ("32x300", "64x200"):
        state = hashlib.sha256((tmp_path / f"{tag}.json").read_bytes()).hexdigest()
        assert got[f"{tag} es"]["sha256"] == state, tag

