"""Write the committed output references of the benchmark's input pools.

Usage, from the repository root, on the commit whose outputs are the reference:

    python3 perfbench/make_reference.py full     # perfbench/reference.json, a few minutes
    python3 perfbench/make_reference.py smoke    # perfbench/reference_smoke.json, seconds

Every pooled op runs once and its output summary (see ``workloads.py``) is
stored under the op's key.  The benchmark then fails any op whose outputs no
longer match.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402

FILES = {"full": "reference.json", "smoke": "reference_smoke.json"}


def main(argv: list[str]) -> int:
    if len(argv) != 1 or argv[0] not in FILES:
        print(f"usage: make_reference.py {{{'|'.join(FILES)}}}", file=sys.stderr)
        return 2
    scale = workloads.SCALES[argv[0]]
    out_dir = os.path.join(ROOT, ".perfbench_out", "reference")
    reference = workloads.make_reference(scale, out_dir,
                                         log=lambda msg: print(msg, file=sys.stderr))
    with open(os.path.join(HERE, FILES[argv[0]]), "w", encoding="utf-8") as fh:
        json.dump(workloads.pack_reference(reference), fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
