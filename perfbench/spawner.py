"""Starts the benchmark's timed child processes from a small process.

Linux counts the memory of the process a child was forked from in the
child's peak RSS (`ru_maxrss` from `wait4`).  The benchmark process holds
numpy, the dense reference and parsed outputs, so it starts this script
first, before it imports numpy, and has it launch every timed child.

Protocol: one JSON request per line on stdin,
`{"cmd", "env", "cwd", "stdout", "stderr", "timeout"}`; one JSON reply per
line on stdout, `{"wall_s", "maxrss_kib", "returncode"}`.  The wall time
runs from launch until the child has exited.  A child still running after
`timeout` seconds is killed.  The script exits at the end of stdin.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main() -> int:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(req["cmd"], stdout=out, stderr=err,
                                    env=req["env"], cwd=req["cwd"])
            timer = threading.Timer(req["timeout"], proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({"wall_s": wall, "maxrss_kib": usage.ru_maxrss,
                          "returncode": proc.returncode}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
