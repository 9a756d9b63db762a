"""Small process that starts each benchmarked command and reports its cost.

Started once per run as ``python3 -I -S spawner.py``; reads one JSON request
per line on stdin, ``{"argv": [...], "stdout": path, "stderr": path,
"timeout": seconds}``, runs the command with this process's environment,
and answers one JSON line ``{"wall_s", "exit", "maxrss_kb"}``.  An argv item
"{spawned}" is replaced by the CLOCK_MONOTONIC time just before the start.

It exists because a child's max-RSS, as the kernel reports it, includes the
resident size of the process that started it (exec records the parent's
high-water mark for a vfork child).  Starting children from this small
process rather than from the runner, which holds the reference tables,
keeps that floor below any Python child's own footprint.
"""

import json
import os
import sys
import threading
import time


def serve():
    for line in sys.stdin:
        req = json.loads(line)
        out = os.open(req["stdout"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        err = os.open(req["stderr"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
                   (os.POSIX_SPAWN_DUP2, out, 1), (os.POSIX_SPAWN_DUP2, err, 2)]
        spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
        argv = [repr(spawned) if a == "{spawned}" else a for a in req["argv"]]
        t0 = time.perf_counter()
        pid = os.posix_spawnp(argv[0], argv, os.environ, file_actions=actions)
        timer = threading.Timer(req["timeout"], os.kill, (pid, 9))
        timer.start()
        try:
            _, status, usage = os.wait4(pid, 0)
        finally:
            timer.cancel()
            os.close(out)
            os.close(err)
        wall = time.perf_counter() - t0
        reply = {"wall_s": wall, "exit": os.waitstatus_to_exitcode(status),
                 "maxrss_kb": usage.ru_maxrss}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    serve()
