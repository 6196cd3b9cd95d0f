"""``python -m precofdm``: the ``precofdm`` command line."""
import sys

from .cli import main

sys.exit(main())
