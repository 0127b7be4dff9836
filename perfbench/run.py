#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <n> --trace <0|1>

Run from the repository root. The benchmark is a Cargo package of its own
(perfbench/Cargo.toml) built against the repository's crates by path; it is
built in release mode into $CARGO_TARGET_DIR (default perfbench/target).
Standard output is the benchmark binary's; its last line is the JSON
result, to which this script adds `peak_rss_mib` (the benchmark process's
peak resident set, from wait4) in untraced runs. The exit code is non-zero
when the build fails, a correctness check fails or the run overruns.
"""

import json
import os
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
# A run must end within 180 s; stop a stuck one short of that.
RUN_TIMEOUT_S = 170


def build():
    command = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    return subprocess.run(command, stdout=sys.stderr).returncode


def main(argv):
    status = build()
    if status != 0:
        print(f"perfbench: build failed ({status})", file=sys.stderr)
        return status
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    binary = os.path.join(target, "release", "perfbench")
    child = subprocess.Popen([binary, *argv], stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(RUN_TIMEOUT_S, child.kill)
    timer.start()
    try:
        lines = child.stdout.read().splitlines()
        _, wait_status, usage = os.wait4(child.pid, 0)
    finally:
        timer.cancel()
    child.stdout.close()
    child.returncode = os.waitstatus_to_exitcode(wait_status)
    if child.returncode != 0 or not lines:
        # A failed check still prints its result (`"correct": false`).
        sys.stdout.write("".join(line + "\n" for line in lines))
        print(f"perfbench: exited with {child.returncode}", file=sys.stderr)
        return child.returncode or 1
    result = json.loads(lines[-1])
    if "--trace" in argv and argv[argv.index("--trace") + 1] == "0":
        # Linux reports ru_maxrss in KiB.
        result["metrics"]["peak_rss_mib"] = {"value": usage.ru_maxrss / 1024, "unit": "MiB"}
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
