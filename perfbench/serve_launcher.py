"""Start ``repro serve`` with the benchmark's layer wrappers installed.

Usage: ``python3 perfbench/serve_launcher.py TRACE_DIR serve ROOT [options]``.
The wrappers record into TRACE_DIR; spans recorded while a request is
handled carry that request's id (the server's per-request tracer label)
as their op id.  SIGINT stops the server and writes the spans.
"""

from __future__ import annotations

import sys

import spans


def main() -> int:
    trace_dir, argv = sys.argv[1], sys.argv[2:]
    recorder = spans.install(trace_dir)
    from repro.cli import main as cli_main
    from repro.obs.trace import request_tracer

    def request_id() -> str:
        tracer = request_tracer()
        return tracer.process_label if tracer is not None else ""

    recorder.op_source = request_id
    try:
        return cli_main(argv)
    finally:
        recorder.flush()


if __name__ == "__main__":
    sys.exit(main())
