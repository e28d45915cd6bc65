#!/usr/bin/env python3
"""The benchmark's own test: every workload in smoke mode (1x sizes, a
handful of operations), untraced and traced.

    python3 perfbench/smoke_test.py

Checks, for each run, that the last stdout line is the result object with
exactly the keys correct/attempted/failed/metrics, that verification passed
(correct, no failed operations), that the metric names and units are exactly
BENCHMARK.json's end_to_end (untraced) or per_layer (traced) list, and that
the host/build block was printed. Traced runs must also print matching
replay fingerprints. Exits 1 on the first failure.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def fail(message: str) -> None:
    print("FAIL: " + message)
    sys.exit(1)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            what = "%s --trace %d" % (workload, trace)
            proc = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"),
                 "--workload", workload, "--seed", "7", "--seconds", "1",
                 "--trace", str(trace), "--smoke"],
                cwd=ROOT, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                fail("%s exited %d:\n%s" % (what, proc.returncode,
                                            proc.stderr[-2000:]))
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                fail("%s: result keys %s" % (what, sorted(result)))
            if not result["correct"] or result["failed"] != 0:
                fail("%s: verification failed: %s" % (what, lines[-1]))
            if result["attempted"] < 1:
                fail("%s: no operations attempted" % what)
            listed = spec["per_layer" if trace else "end_to_end"]
            expected = {m["name"]: m["unit"] for m in listed}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != expected:
                missing = sorted(set(expected) - set(got))
                extra = sorted(set(got) - set(expected))
                wrong = sorted(n for n in set(got) & set(expected)
                               if got[n] != expected[n])
                fail("%s: metrics differ from BENCHMARK.json: missing %s, "
                     "extra %s, wrong unit %s" % (what, missing, extra, wrong))
            if not any(line.startswith("host: {") for line in lines):
                fail("%s: no host/build block" % what)
            if trace:
                prints = [line for line in lines
                          if line.startswith("fingerprints:")]
                hashes = {word.rstrip(",") for word in prints[0].split()
                          if len(word.rstrip(",")) == 16} if prints else set()
                if len(hashes) != 1:
                    fail("%s: replay fingerprints differ: %s" % (what, prints))
            print("ok   %-22s attempted %d" % (what, result["attempted"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
