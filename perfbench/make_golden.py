"""Regenerate ``golden.json``: one output digest per operation per input variant.

    python3 perfbench/make_golden.py [--workload NAME]

Run this only on the commit whose outputs define "correct" (the digests
committed here were taken from the code the benchmark was introduced
against); a later change that alters any output must fail the
benchmark rather than refresh these digests.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

import run
from workloads import VARIANTS, WORKLOADS

GOLDEN = os.path.join(run.HERE, "golden.json")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), action="append")
    args = parser.parse_args(argv)
    os.makedirs(run.OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="golden-", dir=run.OUT)
    os.environ["REPRO_CHARLIB_CACHE"] = os.path.join(workdir, "charlib")
    try:
        run.import_program()
        data = {"format": 1, "workloads": {}}
        if os.path.exists(GOLDEN):
            with open(GOLDEN, encoding="utf-8") as handle:
                data = json.load(handle)
        for name in args.workload or sorted(WORKLOADS):
            workload = WORKLOADS[name]
            digests = {}
            for variant in range(VARIANTS):
                result = workload.run_pass(workload.setup(variant))
                for key, payload, problem in result.ops:
                    if problem is not None:
                        raise SystemExit(f"{key}: {problem}")
                    digests[key] = run.canonical_digest(workload.canonical(payload))
                print(f"{name} v{variant}: {len(result.ops)} ops", flush=True)
            data["workloads"][name] = digests
        with open(GOLDEN, "w", encoding="utf-8") as handle:
            json.dump(data, handle, indent=1, sort_keys=True)
            handle.write("\n")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
