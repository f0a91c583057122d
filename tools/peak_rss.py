"""Run one ``emgtcn`` command in this process and report what it cost.

    python tools/peak_rss.py synth --out-dir raw --subjects 40 --gesture-seconds 5 --rest-seconds 3

The arguments are those of the ``emgtcn`` script; the command runs
through ``emgtcn.cli.main`` and its own stdout and stderr pass through
unchanged. When it returns, one more line goes to stderr:

    exit=0 peak_rss_mb=225.3 cpu_s=8.56 wall_s=4.64 minflt=67096

``peak_rss_mb`` is the peak resident set of the whole process
(``getrusage`` ``ru_maxrss``, in units of 10^6 bytes as ``perfbench``
reports it), so it includes the interpreter and its imports. ``cpu_s``
(user plus system), ``wall_s`` and ``minflt`` (the minor page faults,
``ru_minflt``) cover the command alone. The script exits with the
command's exit code. Linux and macOS report ``ru_maxrss`` in different
units; this script assumes Linux's KiB.
"""

import os
import resource
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from emgtcn.cli import main  # noqa: E402


def measure(argv) -> int:
    faults0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        code = main(argv)
    except SystemExit as stop:  # --help ends this way
        code = stop.code if isinstance(stop.code, int) else 1
    cpu_s, wall_s = time.process_time() - cpu0, time.perf_counter() - wall0
    usage = resource.getrusage(resource.RUSAGE_SELF)
    peak_mb, faults = usage.ru_maxrss * 1024 / 1e6, usage.ru_minflt - faults0
    sys.stderr.write(f"exit={code} peak_rss_mb={peak_mb:.1f} cpu_s={cpu_s:.2f} "
                     f"wall_s={wall_s:.2f} minflt={faults}\n")
    return code


if __name__ == "__main__":
    sys.exit(measure(sys.argv[1:]))
