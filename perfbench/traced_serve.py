"""Run ``repro serve`` with the benchmark's span wrappers installed.

Usage: ``python perfbench/traced_serve.py --summary PATH serve --unix SOCK``.
The wrappers go in before the daemon exists; when the daemon has drained,
the process's span totals are written to PATH and its span log next to it.
"""

from __future__ import annotations

import os
import sys


def main(argv):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    for path in (os.path.join(root, "src"), root):
        if path not in sys.path:
            sys.path.insert(0, path)
    if len(argv) < 2 or argv[0] != "--summary":
        print("usage: traced_serve.py --summary PATH serve ...", file=sys.stderr)
        return 2
    summary = argv[1]
    from perfbench import layers, spans
    from repro.__main__ import main as repro_main

    layers.install()
    spans.RECORDER.reset()
    code = repro_main(argv[2:])
    spans.RECORDER.write_spans(summary + ".spans.jsonl")
    spans.flush_summary(summary)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
