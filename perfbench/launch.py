"""Run one command and report its wall time, CPU time and peak memory.

    python3 perfbench/launch.py LOG_PATH TIMEOUT_S COMMAND [ARG ...]

The command's output goes to LOG_PATH; it is killed after TIMEOUT_S
seconds.  Prints one JSON object: wall_s, cpu_s (user + system), rss_mb
(peak resident memory) and exit_code.

The benchmark starts every measured process through this launcher
because Linux folds the memory peak of the spawning process into the
child's ru_maxrss.  Spawned from the benchmark itself, whose memory holds
numpy and span dumps, a child would report at least the benchmark's
peak; this launcher stays smaller than any nls-lab process.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main():
    log_path, timeout, *argv = sys.argv[1:]
    signal.signal(signal.SIGTERM, _terminate)
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=log, stderr=log)
        timer = threading.Timer(float(timeout), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
    print(json.dumps({
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "exit_code": os.waitstatus_to_exitcode(status),
    }))


if __name__ == "__main__":
    main()
