#!/usr/bin/env python3
"""Write reference.json: every default-seed operation's output at this commit.

    python3 perfbench/make_reference.py

Run it on the commit whose behaviour the benchmark guards; ``checks.py``
compares later outputs with these within the bisection tolerances.
"""

import json
from pathlib import Path

import run


def main() -> None:
    run.load_package()
    import workloads

    reference = {}
    for name, make in workloads.WORKLOADS.items():
        ops = make(workloads.DEFAULT_SEED)
        outputs, seconds, _ = run.run_pass(ops, None)
        for label, out in outputs.items():
            if isinstance(out, Exception):
                raise SystemExit(f"{label} failed: {out!r}")
            reference[label] = out
        print(f"{name}: {len(ops)} calls in {seconds:.1f} s")
    path = Path(__file__).parent / "reference.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
