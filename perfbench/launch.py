"""Run ``graf.cli.main`` and record when set-up ended.

Usage: ``python3 launch.py STAMP_FILE (run|probe) GRAF_ARGS...``

Set-up ends when ``graf.cli`` is imported and its arguments are parsed.
The ``CLOCK_MONOTONIC`` reading at that point is written to STAMP_FILE
when the process finishes, so the parent can subtract its own start time.
``probe`` stops right after parsing, to sample set-up time alone.
"""

import sys
import time

stamp_path, mode, argv = sys.argv[1], sys.argv[2], sys.argv[3:]

import graf.cli  # noqa: E402

parsed_at = None
_parse_args = graf.cli.parse_args


def _parse_and_stamp(args):
    global parsed_at
    config = _parse_args(args)
    parsed_at = time.monotonic()
    if mode == "probe":
        raise SystemExit(0)
    return config


graf.cli.parse_args = _parse_and_stamp
status = graf.cli.main(argv)
if parsed_at is not None:
    with open(stamp_path, "w", encoding="ascii") as fh:
        fh.write(repr(parsed_at))
sys.exit(status)
