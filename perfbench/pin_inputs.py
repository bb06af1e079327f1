"""Rewrite pins.json: the digest of every workload's inputs for seeds 0-31.

    python3 perfbench/pin_inputs.py

Run this only in a change that means to alter the workloads' inputs (for
instance a change to the synthetic generator), and say so in that change.
"""

import json
import os
import shutil
import sys

from run import OUT_DIR, PINS, use_checkout_sources

PINNED_SEEDS = range(32)


def main() -> None:
    use_checkout_sources()
    import pipeline

    work = os.path.join(OUT_DIR, f"pin-{os.getpid()}")
    try:
        pins = {
            name: {
                str(seed): pipeline.inputs_sha256(
                    pipeline.generate(w, seed, os.path.join(work, f"{name}-{seed}")))
                for seed in PINNED_SEEDS
            }
            for name, w in pipeline.WORKLOADS.items()
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(PINS, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    sys.exit(main())
