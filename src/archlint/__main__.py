"""The process entry: `python -m archlint` and the `archlint` script both
run `run`.

A command leaves no cyclic garbage that grows with its input: each leaves
the same few hundred cyclic objects, argparse's, whatever the size of the
tree. So the process runs without the cyclic collector, and it freezes its
heap before exit, so that shutting the interpreter down does not collect
every object on it. `cli.main` and library use keep the collector as the
caller set it.

Beside that policy, the process keeps each scanned file's result, and the
parsed `.arch`, in the result store, `.archlint_cache/` in the working
directory (`archlint.store`), so a file that has not changed since the last
run is not extracted again, nor an unchanged `.arch` parsed. Only this entry
opens the store: `cli.main` and library use read and write no file of their
own.
"""

import gc
import sys


def run() -> None:
    """Run the command line and exit with its status."""
    gc.disable()
    from .cli import main

    code = main(store=".archlint_cache")
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
