"""`python -m cwemarket`: the same command line as the `cwemarket` script."""
import sys

from .cli import main

sys.exit(main())
