"""Start the dblnerve CLI with the span recorder installed.

    python3 perfbench/cli_boot.py SPANS_FILE CLI_ARG...

Times the import of `dblnerve.cli`, installs the recorder, calls
`dblnerve.cli.main(argv)` and, when it returns, writes the spans, the
counters and the import time to SPANS_FILE.  The exit code is the CLI's.
"""

import json
import os
import sys
import time
from pathlib import Path

import tracer


def main():
    if "DBLNERVE_BUDGET" in os.environ:
        raise SystemExit("refusing to run: DBLNERVE_BUDGET is set in this process")
    spans_file, argv = sys.argv[1], sys.argv[2:]
    started = time.perf_counter()
    import dblnerve.cli
    import_s = time.perf_counter() - started
    recorder = tracer.Recorder()
    tracer.install(recorder)
    with recorder.span("op:cli"):
        code = dblnerve.cli.main(argv)
    Path(spans_file).write_text(json.dumps({
        "import_s": import_s, "spans": recorder.records(), "counts": recorder.counts,
    }))
    return code


if __name__ == "__main__":
    sys.exit(main())
