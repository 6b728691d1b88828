"""Record the canonical exact-cli report digests of the current program.

    python3 bench/record_digests.py --seeds 0-15 --rounds 8

Runs the exact-cli rounds in-process, untraced, and writes
bench/exact_digests.json: sha256 of each input document -> sha256 of its
four reports (linearize tables, their verification, normal-form tables,
their verification).  Jobs that fail a check are not recorded.  The
benchmark then requires byte-identical reports for every recorded input.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import worker  # noqa: E402


def seed_range(text):
    low, _, high = text.partition("-")
    return range(int(low), int(high or low) + 1)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, required=True)
    parser.add_argument("--rounds", type=int, required=True)
    args = parser.parse_args(argv)
    digests = {}
    if worker.DIGESTS.exists():
        digests = json.loads(worker.DIGESTS.read_text(encoding="utf-8"))
    for seed in args.seeds:
        for round_index in range(args.rounds):
            result = worker.run_round("exact-cli", seed, round_index, False,
                                      time.monotonic())
            for job in result["jobs"]:
                if job["failed"]:
                    print(f"not recorded: {job['id']}: {job['notes']}",
                          file=sys.stderr)
                    continue
                digests[job["key"]] = job["digest"]
    worker.DIGESTS.write_text(json.dumps(digests, indent=0, sort_keys=True)
                              + "\n", encoding="utf-8")
    print(f"{len(digests)} digests in {worker.DIGESTS.name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
