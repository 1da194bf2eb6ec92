"""Set-up of one nls-lab run, timed from outside as a whole process:
import the CLI, parse the workload's config, build its Grid caches.

    python3 perfbench/setup_probe.py SUBCOMMAND CONFIG

Prints the kernel backend that the import selected.
"""

import sys

from nls_lab import backend, cli  # noqa: F401
from nls_lab.config import parse_config

subcommand, path = sys.argv[1:]
with open(path) as f:
    grid = parse_config(f.read(), subcommand).grid()
grid.k_sq  # cached_property: builds the array
grid.x_sq
print(backend.backend_name())
