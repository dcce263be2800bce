"""``python -m remest <command>``: the same entry point as the ``remest`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
