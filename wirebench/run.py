#!/usr/bin/env python3
"""Build and run the tmld benchmark from the root of a source checkout.

    python3 wirebench/run.py --workload rel-oltp --seed 1 --seconds 10 --trace 0

Builds bin/tmld.exe and wirebench/main.exe with dune, then runs the
benchmark (see wirebench/README.md).  Its last line of standard output is
the JSON result.  Exits non-zero, without a result, when the checkout
cannot be built or the run fails.
"""

import os
import signal
import subprocess
import sys

ROOT = os.getcwd()
BUILD_TIMEOUT = 880
RUN_TIMEOUT = 175


def fail(msg, code=2):
    print("wirebench: " + msg, file=sys.stderr)
    sys.exit(code)


def main(argv):
    for need in ("dune-project", os.path.join("bin", "tmld.ml"), os.path.join("wirebench", "main.ml")):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("run from the root of a tml source checkout (missing %s)" % need)
    targets = ["./bin/tmld.exe", "./wirebench/main.exe"]
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--display", "quiet"] + targets,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            timeout=BUILD_TIMEOUT,
        )
    except FileNotFoundError:
        fail("dune is not installed")
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if build.returncode != 0:
        sys.stderr.write(build.stdout.decode(errors="replace"))
        fail("build failed", build.returncode or 1)
    exe = os.path.join("_build", "default", "wirebench", "main.exe")
    tmld = os.path.join("_build", "default", "bin", "tmld.exe")
    cmd = [exe, "--tmld", tmld] + argv
    # its own process group, so that a timeout takes the daemons with it
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("run timed out", 1)
    text = out.decode(errors="replace")
    if proc.returncode != 0:
        sys.stderr.write(text)
        fail("benchmark exited with %d" % proc.returncode, 1)
    sys.stdout.write(text)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
