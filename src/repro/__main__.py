"""``python -m repro <command> ...`` — the ``repro`` command from a checkout."""

import sys

from .cli import main

if __name__ == "__main__":  # spawn-started workers re-import this module
    sys.exit(main())
