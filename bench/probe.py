"""Set-up probe: a fresh interpreter imports tsdyn and loads one config.

Prints the CLOCK_MONOTONIC reading taken when ``load_config`` returns; the
caller subtracts the reading it took before starting this process.
Usage: ``probe.py <config path, empty for the bundled example> <overrides JSON>``.
"""

import json
import sys
import time

from tsdyn import cli

path = sys.argv[1] or cli.bundled_example_path()
cli.load_config(path, json.loads(sys.argv[2]))
print(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))
