"""``python -m skeinkit``: the ``skein`` command line."""

from .cli import main

main(prog_name="skein")
