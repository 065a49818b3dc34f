"""Run a command and fail if its peak resident memory exceeds a limit.

Usage: python .github/peak_rss.py LIMIT_MIB -- CMD [ARG ...]

Prints the command's wall time, peak RSS (the largest of any process it
started and waited for) and minor page faults (summed over those
processes), and exits non-zero if the command fails or its peak exceeds
LIMIT_MIB.
"""

import resource
import subprocess
import sys
import time


def main(argv: list[str]) -> None:
    if len(argv) < 3 or argv[1] != "--":
        sys.exit(__doc__)
    limit_mib = float(argv[0])
    start = time.perf_counter()
    subprocess.run(argv[2:], check=True)
    wall = time.perf_counter() - start
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    # ru_maxrss is in KiB on Linux.
    peak = usage.ru_maxrss / 1024
    print(f"wall {wall:.2f} s, peak RSS {peak:.1f} MiB, {usage.ru_minflt} minor faults")
    if peak > limit_mib:
        sys.exit(f"peak RSS {peak:.1f} MiB exceeds {limit_mib:g} MiB")


if __name__ == "__main__":
    main(sys.argv[1:])
