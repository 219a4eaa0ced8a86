import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

# CLI tests start `python -m gbmdl` in a child process; let it import the
# same source tree that pytest's `pythonpath` setting gives this process
SRC_DIR = Path(__file__).resolve().parent.parent / "src"
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(SRC_DIR), os.environ.get("PYTHONPATH")]))

DATA_DIR = Path(__file__).resolve().parent.parent / "data"


@pytest.fixture(scope="session")
def iris_path() -> str:
    return str(DATA_DIR / "iris.csv")


@pytest.fixture(scope="session")
def wine_path() -> str:
    return str(DATA_DIR / "wine.csv")
