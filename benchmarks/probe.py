"""Set-up probe, run in a fresh interpreter by run.py.

    python3 probe.py SRC_DIR ARGV_LIST_JSON

Times ``import monobound`` plus the first CLI invocation in the list (the
warm-up op), runs the remaining invocations, and prints one JSON line with
``setup_s``, this process's ``peak_rss_mb`` and the exit codes.  Stdout of
the program goes to the null device.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import sys
from pathlib import Path
from time import perf_counter


def main() -> int:
    src = Path(sys.argv[1]).resolve()
    argvs = json.loads(sys.argv[2])
    start = perf_counter()
    sys.path.insert(0, str(src))
    from monobound import cli

    if not Path(cli.__file__).resolve().is_relative_to(src):
        print(f"monobound was imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 3
    codes = []
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), \
            contextlib.redirect_stderr(sink):
        codes.append(cli.main(argvs[0]))
        setup_s = perf_counter() - start
        for argv in argvs[1:]:
            codes.append(cli.main(argv))
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"setup_s": setup_s, "peak_rss_mb": peak_kib / 1024.0, "exit_codes": codes}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
