"""Record the expected CLI output of every enumerate job and translate input.

The benchmark compares each operation's stdout with these digests, so run
this only when the library's output is meant to change, and review the
difference:

    python3 perfbench/record.py

An input whose output contradicts its known status (the brute-force gap
set, or the refusal of a reject) stops the recording.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import inputs  # noqa: E402
import workloads  # noqa: E402

GOLDEN = HERE / "golden.json"


def record(workdir):
    golden = {"enumerate": {}, "translate": {}}
    files = {
        name: workloads.write_document(workdir / f"{name}.json", generators)
        for name, generators in inputs.FIXTURES.items()
    }
    for job in sorted(inputs.ENUMERATE_JOBS):
        transcript, _ = workloads.run_commands([workloads.enumerate_argv(job, files)])
        doc = json.loads(transcript[0][2])
        ops = doc["total"] if "total" in doc else doc["count"]
        golden["enumerate"][job] = {"digest": workloads.transcript_digest(transcript), "ops": ops}
        print(job, ops, flush=True)
    judge = workloads.Translate(0, workdir, golden).judge
    for key, item in inputs.translate_pool().items():
        item = workloads.prepare_translate(item, workdir / "input.json")
        transcript, _ = workloads.run_commands(workloads.translate_argvs(item))
        golden["translate"][key] = workloads.transcript_digest(transcript)
        status, note = judge(item, transcript)
        if status != "ok":
            raise SystemExit(f"{key}: {status}: {note}")
        print(key, flush=True)
    return golden


def main():
    workdir = HERE.parent / "perfbench-out" / "record"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        golden = record(workdir)
    finally:
        shutil.rmtree(workdir)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
