"""README.md names only repository files that exist, and every solve path."""

import re
from pathlib import Path

import numpy as np

from impact_games import GameSpec, critical_theta, exponential_kernel, make_equidistant_grid

ROOT = Path(__file__).resolve().parents[1]
REPO_PATH = re.compile(r"\b(?:scripts|src|tests|bench)/[\w./-]*\.(?:py|json|md)\b")


def test_readme_paths_exist():
    named = set(REPO_PATH.findall((ROOT / "README.md").read_text()))
    assert named, "README.md names no repository path"
    missing = sorted(path for path in named if not (ROOT / path).is_file())
    assert not missing, f"README.md names missing files: {missing}"


def test_readme_names_every_solve_path():
    text = " ".join((ROOT / "README.md").read_text().split())
    sentence = re.search(r"[^.]*`solve_paths`[^.]*\.", text)
    assert sentence, "README.md has no sentence on solve_paths"
    named = set(re.findall(r"`(\w+)`", sentence.group(0)))
    spec = GameSpec(
        grid=make_equidistant_grid(10, 1.0),
        kernel=exponential_kernel(),
        cross_impact=np.eye(1),
        n_agents=2,
    )
    keys = set(critical_theta(spec, tol=1e-2).solve_paths)
    assert keys <= named, f"README.md misses solve paths {sorted(keys - named)}"
