"""The published family outputs, pinned by the sha256 of the CLI's stdout.

The arithmetic is exact, so a change to the engine that keeps its values
keeps these bytes; a changed hash is a changed value (or a changed
format), never noise.  The four runs take about half a second.
"""

import hashlib

import pytest
from click.testing import CliRunner

from skeinkit.cli import main

TABLE = ("table", "--pretzel-family", "2,5,k", "--color", "k+1",
         "--window", "k+1", "--format", "json")

PINNED = [
    ((*TABLE, "--range", "8..200"),
     "fa741d284bafe5bad1ed37f76d1a076be2f4b8020189a292e0eaa5204bcb700f"),
    ((*TABLE, "--range", "400..410"),
     "1005b837806f6ea3b3fa2b7f117dc83b2c50bdd8d76f259a0b2752b1009ce80b"),
    (("tail", "--pretzel-family", "8,6,k", "--color", "2", "--range", "1..30",
      "--rate", "k+1", "--format", "json"),
     "2842ddf41608a76cb8373e6051c423a231a05911a5ab83d2702496091cea7030"),
    (("tail", "--pretzel-family", "k+2,k+4,k+1", "--color", "4",
      "--range", "1..24", "--rate", "3*k+4", "--format", "json"),
     "619f60c371ebfdd9b25b168a96f2f94712567b7cbef288440ac023a5fdef3639"),
]


@pytest.mark.parametrize("args, digest", PINNED,
                         ids=["table-8..200", "table-400..410",
                              "tail-8,6,k", "tail-k+2,k+4,k+1"])
def test_output_is_pinned(args, digest):
    result = CliRunner().invoke(main, list(args))
    assert result.exit_code == 0, result.output
    assert hashlib.sha256(result.stdout.encode()).hexdigest() == digest
