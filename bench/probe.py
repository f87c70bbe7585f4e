"""Set-up probe: import diskchannels, parse the given configs, print the clock.

The printed value is ``time.perf_counter()``, which on Linux reads the
system-wide monotonic clock, so the parent subtracts its own reading taken
just before it started this interpreter.
"""

import sys
import time

from diskchannels.cli import main  # noqa: F401  (the CLI's own import chain)
from diskchannels.experiments import parse_config

for path in sys.argv[1:]:
    with open(path, encoding="utf-8") as fh:
        parse_config(fh.read())
print(repr(time.perf_counter()))
