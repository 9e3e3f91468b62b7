"""Run a command and hold its peak resident set size to a bound.

Usage: python .github/peak_rss.py MEGABYTES COMMAND [ARG ...]

The command inherits stdin, stdout and stderr.  Its peak RSS, read from
``RUSAGE_CHILDREN`` once it has exited, goes to stderr as one line.  The
exit code is the command's when that is not 0, else 1 when the peak is
above MEGABYTES, else 0.
"""

import resource
import subprocess
import sys


def main(argv: list[str]) -> int:
    bound, command = int(argv[0]), argv[1:]
    code = subprocess.call(command)
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss // 1024
    print(f"peak RSS {peak} MB, bound {bound} MB", file=sys.stderr)
    if code == 0 and peak > bound:
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
