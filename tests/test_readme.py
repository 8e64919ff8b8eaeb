"""README.md names only repository files that exist."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
REPO_PATH = re.compile(r"\b(?:scripts|src|tests|bench)/[\w./-]*\.(?:py|json|md)\b")


def test_readme_paths_exist():
    named = set(REPO_PATH.findall((ROOT / "README.md").read_text()))
    assert named, "README.md names no repository path"
    missing = sorted(path for path in named if not (ROOT / path).is_file())
    assert not missing, f"README.md names missing files: {missing}"
