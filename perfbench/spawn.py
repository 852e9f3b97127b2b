"""Starts the benchmark's child processes from a small process of its own.

Linux folds the peak RSS of the image an ``exec`` replaces into the new
program's ``ru_maxrss``, so a child started straight from the harness
would report at least the harness's own peak. Started from this process
(a bare interpreter), each child's ``wait4`` peak is its own.

Protocol, one JSON object per line: requests on stdin
``{"argv", "cwd", "stdout", "stderr"}``, replies on stdout
``{"wall", "maxrss_kb", "returncode"}``. SIGTERM kills the running child.
"""

import json
import os
import signal
import subprocess
import sys
import time


def main() -> None:
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
            t = time.perf_counter()
            proc = subprocess.Popen(req["argv"], cwd=req["cwd"], stdout=out, stderr=err,
                                    stdin=subprocess.DEVNULL)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - t
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({"wall": wall, "maxrss_kb": usage.ru_maxrss,
                          "returncode": proc.returncode}), flush=True)


if __name__ == "__main__":
    main()
