"""``python -m msn``: the ``msn`` command without the console script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
