"""Fresh-interpreter probe for the set-up metric.

Imports the package, resolves the scenario registry and prints ``ready
<seconds>`` — the import time measured inside the new interpreter.  The
benchmark times from spawning this script to reading that line.
"""

import time

START = time.perf_counter()

import repro  # noqa: E402,F401
from repro.bugs import all_scenarios  # noqa: E402

if __name__ == "__main__":
    count = len(all_scenarios())
    print("ready %.6f %d" % (time.perf_counter() - START, count), flush=True)
