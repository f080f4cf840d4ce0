"""``python -m regretgames``: the command-line interface, as the ``regretgames`` command."""

from .cli import main

main()
