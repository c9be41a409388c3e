"""``python -m comppat``: exits through `cli.run`, as the script does."""

from .cli import run

if __name__ == "__main__":
    run()
