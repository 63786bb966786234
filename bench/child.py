"""One benchmark pass in a fresh interpreter.

Usage: child.py ROOT WORKLOAD SEED WORKDIR TRACE, or child.py ROOT --setup-only.

Only the program's import happens before the set-up clock stops: the pass
itself lives in passes.py and is imported afterwards.  The result is one
JSON object on stdout.
"""

import sys
import time


def main() -> int:
    root = sys.argv[1]
    sys.path[:0] = [root + "/src", root + "/bench"]
    from ekr_matchings import cli

    imported = time.monotonic()
    import json
    import os
    from pathlib import Path

    if sys.argv[2] == "--setup-only":
        print(json.dumps({"imported": imported}))
        return 0
    if not os.path.realpath(cli.__file__).startswith(os.path.realpath(root) + os.sep):
        print(f"ekr_matchings was imported from {cli.__file__}, not from {root}/src", file=sys.stderr)
        return 2
    import passes
    import workloads

    invs = workloads.invocations(sys.argv[2], int(sys.argv[3]), Path(sys.argv[4]))
    result = passes.run_pass(invs, traced=sys.argv[5] == "1")
    result["imported"] = imported
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
